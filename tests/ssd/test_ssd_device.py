"""SsdDevice construction tests: the policy its dies share."""

import numpy as np

from repro.controller.controller import NandController
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.geometry import NandGeometry
from repro.ssd.device import SsdDevice
from repro.ssd.topology import SsdTopology

SMALL_PAGES = NandGeometry(blocks=2, pages_per_block=4, page_data_bytes=512)


class TestDefaultPolicy:
    def test_small_pages_size_t_for_their_own_code(self):
        ssd = SsdDevice(SsdTopology(geometry=SMALL_PAGES), seed=1)
        policy = ssd.policy
        assert (policy.k, policy.m, policy.t_min, policy.t_max) == (
            4096, 13, 1, 65
        )
        controller = NandController(SMALL_PAGES, rng=np.random.default_rng(1))
        ssd.set_mode(OperatingMode.BASELINE, pe_reference=3e4)
        controller.set_mode(OperatingMode.BASELINE, pe_reference=3e4)
        # A 4 KiB-page policy would size t = 34 for this 4,096-bit code.
        assert ssd.controllers[0].status()["ecc_t"] == 12
        assert controller.status()["ecc_t"] == 12

    def test_passed_policy_sets_every_die_codec_range(self):
        policy = CrossLayerPolicy(k=4096, t_min=3, t_max=40)
        ssd = SsdDevice(
            SsdTopology(dies_per_channel=2, geometry=SMALL_PAGES),
            policy=policy, seed=1,
        )
        assert ssd.policy is policy
        assert len(ssd.controllers) > 1
        for controller in ssd.controllers:
            codec = controller.codec
            assert controller.policy is policy
            assert (codec.k, codec.t_min, codec.t_max, codec.m) == (
                4096, 3, 40, 13
            )

    def test_page_sized_default_is_the_canonical_policy(self):
        ssd = SsdDevice(
            SsdTopology(geometry=NandGeometry(blocks=2, pages_per_block=4)),
            seed=1,
        )
        policy = ssd.policy
        assert (policy.t_max, policy.t_min, policy.k, policy.m) == (
            65, 1, 32768, 16
        )
