"""Top-level NandController tests."""

import math

import numpy as np
import pytest

from repro.bch.uber import log10_uber_eq1
from repro.controller.controller import ControllerConfig, NandController
from repro.controller.reliability import ReliabilityPolicy
from repro.core.config import CrossLayerConfig
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
        )
        policy, codec = controller.policy, controller.codec
        assert (policy.k, policy.t_min, policy.t_max) == (4096, 1, 65)
        assert (codec.k, codec.t_min, codec.t_max) == (4096, 1, 65)
        assert controller.reliability.policy is policy

    @pytest.mark.parametrize("t_min,t_max", [(1, 65), (3, 40)])
    @pytest.mark.parametrize("page_bytes,m", [(512, 13), (1000, 14), (4096, 16)])
    def test_policy_and_codec_share_one_field(self, page_bytes, m, t_min, t_max):
        # A 1,000-byte page fits GF(2^13) at t = 1 but needs GF(2^14) at
        # t = 40 and t = 65; the programmable codec designs every t over
        # the one field its largest t needs, and the policy sizes t for
        # that field.
        policy = CrossLayerPolicy(k=8 * page_bytes, t_min=t_min, t_max=t_max)
        controller = NandController(
            NandGeometry(blocks=1, pages_per_block=4,
                         page_data_bytes=page_bytes),
            policy=policy,
        )
        codec = controller.codec
        assert controller.policy is controller.reliability.policy is policy
        assert (codec.k, codec.t_min, codec.t_max) == (
            policy.k, policy.t_min, policy.t_max
        )
        assert policy.m == codec.m == m
        for t in (codec.t_min, codec.t_max):
            assert codec.spec_for(t).m == m

    def test_policy_for_another_code_rejected(self):
        # A policy sized for a 4 KiB page would pick the t of a
        # 32,768-bit codeword for a 4,096-bit one.
        small = NandGeometry(blocks=1, pages_per_block=4, page_data_bytes=512)
        with pytest.raises(ConfigurationError, match="differs from"):
            NandController(small, policy=CrossLayerPolicy())
        controller = NandController(small, policy=CrossLayerPolicy(k=4096))
        assert controller.policy.k == controller.codec.k

    @pytest.mark.parametrize("page_bytes,policy_args", [
        (512, {"k": 4096, "t_min": 3, "t_max": 40}),
        (4096, {"uber_target": 1e-13}),
    ], ids=["512B-t3-40", "4KiB-uber1e-13"])
    def test_policy_leaves_the_die_lifetime_curve_alone(
        self, page_bytes, policy_args
    ):
        # The lifetime curve is the NAND's: a policy's t range and UBER
        # target size t on it, but its die wears like the default
        # controller's (9.977e-4 ISPP-SV RBER at rated endurance).
        default = NandController(NandGeometry(blocks=1, pages_per_block=4))
        eol = default.device.rber_model.rber(IsppAlgorithm.SV, 1e5)
        assert eol == pytest.approx(9.977e-4, rel=1e-4)
        policy = CrossLayerPolicy(**policy_args)
        controller = NandController(
            NandGeometry(blocks=1, pages_per_block=4,
                         page_data_bytes=page_bytes),
            policy=policy,
        )
        assert controller.device.rber_model.rber(IsppAlgorithm.SV, 1e5) == eol
        # The policy still sizes the smallest t of its own range that
        # meets its own target, for its own codeword.
        log_target = math.log10(policy.uber_target)
        for age in (0.0, 1e3, 1e4):
            config = policy.config_for(OperatingMode.BASELINE, age)
            t, rber = config.ecc_t, policy.rber_for(config, age)
            assert policy.t_min <= t <= policy.t_max
            assert log10_uber_eq1(rber, policy.k + policy.m * t, t) <= log_target
            assert t == policy.t_min or log10_uber_eq1(
                rber, policy.k + policy.m * (t - 1), t - 1
            ) > log_target

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

    def test_self_adaptive_decision_reaches_the_codec(self):
        # Two reads decode 65,536 bits, under min_bits_for_estimate, so
        # the manager provisions the worst case, ISPP-SV at t = 65.  The
        # controller runs t = 6: the decision differs from what runs and
        # must reach the codec and the ECC_T register.
        rng = np.random.default_rng(3)
        controller = NandController(
            NandGeometry(blocks=4, pages_per_block=4),
            config=ControllerConfig(self_adaptive=True),
            reliability_policy=ReliabilityPolicy(epoch_reads=2),
            rng=rng,
        )
        assert controller.codec.t == 6
        for page in range(2):
            controller.write(0, page, random_page(4096, rng))
        for page in range(2):
            controller.read(0, page)
        (decision,) = controller.reliability.adaptations
        assert decision.config == CrossLayerConfig(IsppAlgorithm.SV, 65)
        assert decision.changed
        assert controller.codec.t == 65
        assert controller.status()["ecc_t"] == 65

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
