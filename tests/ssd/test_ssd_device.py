"""SsdDevice construction tests: the policy its dies share."""

import numpy as np

from repro.controller.controller import ControllerConfig, NandController
from repro.core.modes import OperatingMode
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

    def test_controller_config_sets_the_t_range(self):
        ssd = SsdDevice(
            SsdTopology(dies_per_channel=2, geometry=SMALL_PAGES),
            controller_config=ControllerConfig(t_min=3, t_max=40), seed=1,
        )
        assert (ssd.policy.t_min, ssd.policy.t_max) == (3, 40)
        assert all(
            controller.policy is ssd.policy for controller in ssd.controllers
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
