"""Controller-side reliability manager tests.

The manager sizes t through the controller's :class:`CrossLayerPolicy`,
so every case builds the policy that matches its codec: the page-sized
code takes the default policy, the k = 1024, t_max = 16 code one built
with the same k, m and t range.
"""

import pytest

from repro.bch.codec import AdaptiveBCHCodec, CodecObservation
from repro.controller.controller import NandController
from repro.controller.reliability import ReliabilityManager, ReliabilityPolicy
from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import ConfigurationError
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel
from tests.conftest import flip_bits


def feed_decodes(codec: AdaptiveBCHCodec, rng, pages: int, errors_per_page: int):
    """Push decode traffic through the codec to build an RBER estimate."""
    codec.set_correction_capability(max(8, errors_per_page))
    message = rng.bytes(codec.k // 8)
    codeword = codec.encode(message)
    n = codec.spec.n_stored
    for _ in range(pages):
        positions = rng.choice(n, errors_per_page, replace=False).tolist()
        codec.decode(flip_bits(codeword, positions))


def observation(rber: float, bits: int = 10**7) -> CodecObservation:
    return CodecObservation(
        words_decoded=bits // 33000,
        words_failed=0,
        bits_corrected=int(rber * bits),
        bits_processed=bits,
        max_errors_in_word=3,
    )


def page_manager(**settings) -> ReliabilityManager:
    """Manager of the paper's page code under the default policy."""
    return ReliabilityManager(
        AdaptiveBCHCodec(), CrossLayerPolicy(), ReliabilityPolicy(**settings)
    )


def short_code_manager(
    codec: AdaptiveBCHCodec, reliability_policy: ReliabilityPolicy | None = None
) -> ReliabilityManager:
    """Manager of a short code under a policy with the codec's k, m and
    t range."""
    policy = CrossLayerPolicy(
        t_max=codec.t_max, t_min=codec.t_min, k=codec.k,
        m=codec.spec_for(codec.t_min).m,
    )
    return ReliabilityManager(codec, policy, reliability_policy)


class TestDecisions:
    def test_insufficient_feedback_is_conservative(self):
        manager = page_manager()
        decision = manager.decide(observation(1e-5, bits=1000), IsppAlgorithm.SV)
        assert decision.config.ecc_t == manager.policy.t_max

    def test_baseline_tracks_estimate(self):
        manager = page_manager(safety_factor=1.0)
        decision = manager.decide(observation(1e-5), IsppAlgorithm.SV)
        assert decision.config.algorithm is IsppAlgorithm.SV
        assert decision.config.ecc_t == 6

    def test_safety_factor_inflates_t(self):
        relaxed = page_manager(safety_factor=1.0).decide(
            observation(1e-4), IsppAlgorithm.SV
        )
        cautious = page_manager(safety_factor=2.0).decide(
            observation(1e-4), IsppAlgorithm.SV
        )
        assert cautious.config.ecc_t > relaxed.config.ecc_t

    def test_dv_feedback_translated_to_sv_scale(self):
        manager = page_manager(safety_factor=1.0)
        manager.mode = OperatingMode.MAX_READ_THROUGHPUT
        # Running DV and observing 8e-7 implies SV-equivalent 1e-5;
        # max-read keeps DV with t for 8e-7 -> t = 3.
        decision = manager.decide(observation(8e-7), IsppAlgorithm.DV)
        assert decision.config.algorithm is IsppAlgorithm.DV
        assert decision.config.ecc_t == 3

    def test_min_uber_keeps_baseline_t(self):
        manager = page_manager(safety_factor=1.0)
        manager.mode = OperatingMode.MIN_UBER
        decision = manager.decide(observation(1e-5), IsppAlgorithm.SV)
        assert decision.config.algorithm is IsppAlgorithm.DV
        assert decision.config.ecc_t == 6

    def test_saturation_past_end_of_life(self):
        manager = page_manager(safety_factor=1.0)
        decision = manager.decide(observation(5e-3), IsppAlgorithm.SV)
        assert decision.saturated
        assert decision.config.ecc_t == manager.policy.t_max

    def test_changed_flag(self):
        manager = page_manager(safety_factor=1.0)
        first = manager.decide(observation(1e-5), IsppAlgorithm.SV)
        second = manager.decide(observation(1e-5), IsppAlgorithm.SV)
        assert first.changed
        assert not second.changed

    def test_mode_switch(self):
        manager = page_manager(safety_factor=1.0)
        manager.decide(observation(1e-5), IsppAlgorithm.SV)
        manager.mode = OperatingMode.MIN_UBER
        decision = manager.decide(observation(1e-5), IsppAlgorithm.SV)
        assert decision.changed
        assert decision.config.algorithm is IsppAlgorithm.DV

    def test_invalid_safety_factor(self):
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(safety_factor=0.5)

    def test_invalid_estimate_floor(self):
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(min_bits_for_estimate=0)

    def test_max_read_past_sv_end_of_life(self):
        # At 1.2e5 P/E ISPP-SV needs more than t_max, but max-read runs
        # ISPP-DV: the manager sizes only the DV t, as the policy does.
        policy = CrossLayerPolicy()
        manager = ReliabilityManager(
            AdaptiveBCHCodec(), policy, ReliabilityPolicy(safety_factor=1.0)
        )
        manager.mode = OperatingMode.MAX_READ_THROUGHPUT
        dv_rber = policy.rber_model.rber_dv(1.2e5)
        decision = manager.decide(observation(dv_rber, bits=10**9),
                                  IsppAlgorithm.DV)
        assert not decision.saturated
        assert decision.config == CrossLayerConfig(IsppAlgorithm.DV, 15)
        assert decision.config == policy.config_for(
            OperatingMode.MAX_READ_THROUGHPUT, 1.2e5
        )


class TestOnePolicy:
    """A self-adaptive controller decides with its own policy's rule."""

    @staticmethod
    def adapt(monkeypatch, policy, mode, running, observed_rber):
        """Re-adapt a controller on 10**7 observed bits at an RBER."""
        controller = NandController(
            NandGeometry(blocks=1, pages_per_block=4), policy=policy
        )
        feedback = observation(observed_rber)
        monkeypatch.setattr(controller.codec, "observation", lambda: feedback)
        return controller.reliability.set_mode(mode, running)

    def test_max_read_meets_the_policy_uber_target(self, monkeypatch):
        policy = CrossLayerPolicy(uber_target=1e-13)
        mode = OperatingMode.MAX_READ_THROUGHPUT
        decision = self.adapt(monkeypatch, policy, mode, IsppAlgorithm.DV, 2e-4)
        assert decision.config == CrossLayerConfig(IsppAlgorithm.DV, 33)
        sv_rber = 2e-4 * 1.5 * policy.rber_model.dv_ratio
        assert decision.config == policy.config_for_rber(
            mode, sv_rber, sv_rber / policy.rber_model.dv_ratio
        )

    def test_baseline_uses_the_model_dv_ratio(self, monkeypatch):
        policy = CrossLayerPolicy(rber_model=LifetimeRberModel(dv_ratio=4.0))
        mode = OperatingMode.BASELINE
        decision = self.adapt(monkeypatch, policy, mode, IsppAlgorithm.DV, 2e-5)
        assert decision.config == CrossLayerConfig(IsppAlgorithm.SV, 17)
        sv_rber = 2e-5 * 1.5 * 4.0
        assert decision.config == policy.config_for_rber(
            mode, sv_rber, sv_rber / 4.0
        )


class TestReliabilityManager:
    def test_epoch_triggering(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=16)
        manager = short_code_manager(
            codec, ReliabilityPolicy(epoch_reads=4, min_bits_for_estimate=1)
        )
        assert manager.after_read(IsppAlgorithm.SV) is None
        assert manager.after_read(IsppAlgorithm.SV) is None
        assert manager.after_read(IsppAlgorithm.SV) is None
        decision = manager.after_read(IsppAlgorithm.SV)
        assert decision is not None
        assert len(manager.adaptations) == 1

    def test_conservative_without_feedback(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=16)
        manager = short_code_manager(codec)
        decision = manager.set_mode(OperatingMode.BASELINE, IsppAlgorithm.SV)
        # No decode history: worst-case provisioning.
        assert decision.config.ecc_t == codec.t_max
        assert decision.config.algorithm is IsppAlgorithm.SV

    def test_adapts_t_to_observed_rber(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=16)
        # ~1 error per ~1200-bit word: observed RBER ~8e-4, well inside
        # what t <= 16 covers on this short code.
        feed_decodes(codec, rng, pages=40, errors_per_page=1)
        manager = short_code_manager(
            codec, ReliabilityPolicy(min_bits_for_estimate=10_000)
        )
        decision = manager.set_mode(OperatingMode.BASELINE, IsppAlgorithm.SV)
        assert decision.config.ecc_t < codec.t_max
        assert decision.estimated_rber > 0

    def test_mode_switch_changes_algorithm(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=16)
        feed_decodes(codec, rng, pages=40, errors_per_page=2)
        manager = short_code_manager(
            codec, ReliabilityPolicy(min_bits_for_estimate=10_000)
        )
        baseline = manager.set_mode(OperatingMode.BASELINE, IsppAlgorithm.SV)
        min_uber = manager.set_mode(OperatingMode.MIN_UBER, IsppAlgorithm.SV)
        assert baseline.config.algorithm is IsppAlgorithm.SV
        assert min_uber.config.algorithm is IsppAlgorithm.DV
        assert min_uber.config.ecc_t == baseline.config.ecc_t

    def test_max_read_relaxes_t(self, rng):
        codec = AdaptiveBCHCodec(k=1024, t_max=16)
        feed_decodes(codec, rng, pages=40, errors_per_page=3)
        manager = short_code_manager(
            codec, ReliabilityPolicy(min_bits_for_estimate=10_000)
        )
        baseline = manager.set_mode(OperatingMode.BASELINE, IsppAlgorithm.SV)
        max_read = manager.set_mode(
            OperatingMode.MAX_READ_THROUGHPUT, IsppAlgorithm.SV
        )
        assert max_read.config.algorithm is IsppAlgorithm.DV
        assert max_read.config.ecc_t <= baseline.config.ecc_t

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(epoch_reads=0)
