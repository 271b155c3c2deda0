"""Top-level NandController tests."""

import numpy as np
import pytest

from repro.controller.controller import ControllerConfig, NandController
from repro.controller.reliability import ReliabilityPolicy
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ConfigurationError, ControllerError
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.workloads.patterns import random_page


@pytest.fixture()
def controller(rng):
    return NandController(
        NandGeometry(blocks=4, pages_per_block=4), rng=rng
    )


class TestController:
    def test_initial_baseline_config(self, controller):
        status = controller.status()
        assert status["mode"] == "baseline"
        assert status["program_algorithm"] == "ispp-sv"
        assert status["ecc_t"] == 6  # required t at fresh SV RBER 1e-5

    def test_write_read_round_trip(self, controller, rng):
        data = random_page(4096, rng)
        report = controller.write(0, 0, data)
        assert report.algorithm is IsppAlgorithm.SV
        out, read_report = controller.read(0, 0)
        assert out == data
        assert read_report.success

    def test_mode_switching_reconfigures_both_layers(self, controller):
        controller.set_mode(OperatingMode.MIN_UBER)
        status = controller.status()
        assert status["mode"] == "min-uber"
        assert controller.reliability.mode is OperatingMode.MIN_UBER
        assert controller.registers.get_named("OPERATING_MODE") == (
            OperatingMode.MIN_UBER.register_code
        )
        assert status["program_algorithm"] == "ispp-dv"
        assert status["ecc_t"] == 6  # baseline t kept (section 6.3.1)

        controller.set_mode(OperatingMode.MAX_READ_THROUGHPUT)
        status = controller.status()
        assert status["program_algorithm"] == "ispp-dv"
        assert status["ecc_t"] == 3  # relaxed t (section 6.3.2)

    def test_default_policy_describes_the_codec(self):
        controller = NandController(
            NandGeometry(blocks=1, pages_per_block=4, page_data_bytes=512),
            config=ControllerConfig(t_min=3, t_max=40),
        )
        policy = controller.policy
        assert (policy.t_min, policy.t_max) == (3, 40)
        assert (policy.k, policy.m) == (
            controller.codec.k, controller.codec.spec_for(3).m
        )
        assert controller.reliability.policy is policy

    def test_policy_and_codec_share_one_field(self):
        # A 1,000-byte page fits GF(2^13) at t = 1 but needs GF(2^14) at
        # t = 65; the programmable codec designs every t over the one
        # field its largest t needs, and the policy sizes t for that
        # field.
        controller = NandController(
            NandGeometry(blocks=1, pages_per_block=4, page_data_bytes=1000)
        )
        policy, codec = controller.policy, controller.codec
        assert policy.m == 14
        for t in (codec.t_min, codec.t_max):
            assert codec.spec_for(t).m == policy.m

    def test_policy_wider_than_the_codec_rejected(self):
        # The policy sizes every t the codec is asked for, so a policy
        # reaching past the codec's range would fail mid-run.
        with pytest.raises(ConfigurationError, match="exceeds the codec"):
            NandController(
                NandGeometry(blocks=1, pages_per_block=4),
                config=ControllerConfig(t_max=40),
                policy=CrossLayerPolicy(),
            )

    def test_policy_for_another_code_rejected(self):
        # A policy sized for a 4 KiB page would pick the t of a
        # 32,768-bit codeword for a 4,096-bit one.
        small = NandGeometry(blocks=1, pages_per_block=4, page_data_bytes=512)
        for policy in (CrossLayerPolicy(), CrossLayerPolicy(k=4096, m=16)):
            with pytest.raises(ConfigurationError, match="differs from"):
                NandController(small, policy=policy)
        controller = NandController(small, policy=CrossLayerPolicy(k=4096, m=13))
        assert controller.policy.k == controller.codec.k

    def test_mode_tracks_device_age(self, controller):
        controller.set_mode(OperatingMode.BASELINE, pe_reference=1e5)
        assert controller.status()["ecc_t"] == 65

    def test_cross_mode_read_back(self, controller, rng):
        data = random_page(4096, rng)
        controller.write(0, 0, data)
        controller.set_mode(OperatingMode.MAX_READ_THROUGHPUT)
        # Page written in baseline mode must still decode (stored t).
        out, report = controller.read(0, 0)
        assert out == data

    def test_register_telemetry_updates(self, controller, rng):
        data = random_page(4096, rng)
        controller.write(1, 0, data)
        controller.read(1, 0)
        status = controller.status()
        assert status["decode_failures"] == 0

    def test_erase_and_rewrite(self, controller, rng):
        data = random_page(4096, rng)
        controller.write(2, 0, data)
        latency = controller.erase(2)
        assert latency > 0
        controller.write(2, 0, data)
        out, _ = controller.read(2, 0)
        assert out == data

    def test_apply_config_validates_spare(self, rng):
        controller = NandController(
            NandGeometry(blocks=2, pages_per_block=2, page_spare_bytes=64),
            rng=rng,
        )
        with pytest.raises(ControllerError):
            controller.apply_config(IsppAlgorithm.SV, 65)

    def test_self_adaptive_epoch(self, rng):
        controller = NandController(
            NandGeometry(blocks=2, pages_per_block=2),
            config=ControllerConfig(self_adaptive=True),
            reliability_policy=ReliabilityPolicy(
                epoch_reads=2, min_bits_for_estimate=1
            ),
            rng=rng,
        )
        data = random_page(4096, rng)
        controller.write(0, 0, data)
        controller.read(0, 0)
        controller.read(0, 0)
        assert len(controller.reliability.adaptations) >= 1

    def test_unwritten_page_read_rejected_before_sensing(self, controller):
        device = controller.device
        before = (
            device.page_reads,
            device.array.reads_since_erase(0),
            device.rng.bit_generator.state,
        )
        with pytest.raises(ControllerError, match="no ECC-protected data"):
            controller.read(0, 1)
        assert before == (
            device.page_reads,
            device.array.reads_since_erase(0),
            device.rng.bit_generator.state,
        )

    def test_read_report_names_the_stored_t(self, controller, rng):
        controller.apply_config(IsppAlgorithm.SV, 4)
        controller.write(0, 0, random_page(4096, rng))
        controller.apply_config(IsppAlgorithm.SV, 65)
        _, report = controller.read(0, 0)
        assert report.ecc_t == 4
        assert report.latencies.decode_s == controller.codec.decode_latency_s(
            t=4, with_errors=report.corrected_bits > 0
        )
