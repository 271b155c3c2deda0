"""Controller-side reliability manager (paper section 3).

"It is in fact possible to envision an integrated reliability manager
collecting and elaborating results of a test unit and feedback from the
ECC sub-system, in addition to user requirements, thus setting the proper
correction capability to pages."

:class:`ReliabilityManager` is that manager.  It windows the adaptive
codec's decode feedback per epoch, triggers adaptation every
``epoch_reads`` page reads (or on explicit mode changes), and asks the
controller's :class:`~repro.core.policy.CrossLayerPolicy` for the
section 6.3 configuration at the observed RBER, inflated by a safety
factor.  The policy's mode table, UBER target, t range and SV/DV ratio
are the only ones; the manager adds the feedback rules: too little
feedback provisions the worst case, and an RBER past what ``t_max``
covers pins ``t_max`` and flags saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bch.codec import AdaptiveBCHCodec, CodecObservation
from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import CodeDesignError, ConfigurationError
from repro.nand.ispp import IsppAlgorithm


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Epoch and estimation configuration.

    ``safety_factor`` (>= 1) inflates the observed RBER before t is
    sized; below ``min_bits_for_estimate`` decoded bits the manager
    trusts no estimate.
    """

    epoch_reads: int = 256
    safety_factor: float = 1.5
    min_bits_for_estimate: int = 4 * 32768  # a handful of pages

    def __post_init__(self) -> None:
        if self.epoch_reads < 1:
            raise ConfigurationError("epoch must be at least one read")
        if self.safety_factor < 1.0:
            raise ConfigurationError("safety factor must be >= 1")
        if self.min_bits_for_estimate < 1:
            raise ConfigurationError("an estimate needs at least one bit")


@dataclass(frozen=True)
class AdaptationDecision:
    """Outcome of one adaptation step.

    ``saturated`` flags that the observed RBER exceeded what t_max can
    cover — the device is past its correctable lifetime and the manager
    pinned the strongest configuration.
    """

    config: CrossLayerConfig
    estimated_rber: float
    changed: bool
    saturated: bool = False


class ReliabilityManager:
    """Epoch-driven self-adaptation using codec feedback."""

    def __init__(
        self,
        codec: AdaptiveBCHCodec,
        policy: CrossLayerPolicy,
        reliability_policy: ReliabilityPolicy | None = None,
    ):
        self.codec = codec
        self.policy = policy
        self.reliability_policy = reliability_policy or ReliabilityPolicy()
        #: Active operating mode (the user's service level).
        self.mode = OperatingMode.BASELINE
        self._current = policy.worst_case(self.mode)
        self._reads_since_adaptation = 0
        self._last_observation = codec.observation()
        self.adaptations: list[AdaptationDecision] = []

    def set_mode(self, mode: OperatingMode,
                 running: IsppAlgorithm) -> AdaptationDecision:
        """Immediate re-adaptation on a user mode change."""
        self.mode = mode
        return self._adapt(running)

    def after_read(self, running: IsppAlgorithm) -> AdaptationDecision | None:
        """Notify one completed page read; adapts at epoch boundaries."""
        self._reads_since_adaptation += 1
        if self._reads_since_adaptation >= self.reliability_policy.epoch_reads:
            return self._adapt(running)
        return None

    def decide(self, observation: CodecObservation,
               running: IsppAlgorithm) -> AdaptationDecision:
        """Derive the configuration from decode feedback.

        The observed RBER of the ``running`` algorithm, times the safety
        factor, is translated to the ISPP-SV scale with the lifetime
        model's SV/DV ratio, and the policy sizes t from it.  With
        insufficient feedback (fewer than ``min_bits_for_estimate`` bits
        decoded, or a zero estimate) the manager conservatively keeps
        the worst-case provisioning rather than under-protecting.
        """
        settings = self.reliability_policy
        observed = observation.observed_rber * settings.safety_factor
        saturated = False
        if (observation.bits_processed >= settings.min_bits_for_estimate
                and observed > 0.0):
            ratio = self.policy.rber_model.dv_ratio
            sv_rber = observed if running is IsppAlgorithm.SV else observed * ratio
            try:
                config = self.policy.config_for_rber(
                    self.mode, sv_rber, sv_rber / ratio
                )
            except CodeDesignError:
                config, saturated = self.policy.worst_case(self.mode), True
        else:
            config = self.policy.worst_case(self.mode)
        changed = config != self._current
        self._current = config
        return AdaptationDecision(config, observed, changed, saturated)

    def _adapt(self, running: IsppAlgorithm) -> AdaptationDecision:
        decision = self.decide(self._window_observation(), running)
        self.adaptations.append(decision)
        self._reads_since_adaptation = 0
        return decision

    def _window_observation(self) -> CodecObservation:
        """Decode feedback since the previous adaptation.

        Windowing keeps the RBER estimate responsive to aging: cumulative
        counters would dilute a worn device's error rate with its youth.
        Falls back to the cumulative view while the window is too small.
        """
        now = self.codec.observation()
        last = self._last_observation
        window = CodecObservation(
            words_decoded=now.words_decoded - last.words_decoded,
            words_failed=now.words_failed - last.words_failed,
            bits_corrected=now.bits_corrected - last.bits_corrected,
            bits_processed=now.bits_processed - last.bits_processed,
            max_errors_in_word=now.max_errors_in_word,
        )
        self._last_observation = now
        if window.bits_processed >= self.reliability_policy.min_bits_for_estimate:
            return window
        return now
