"""Mode -> cross-layer configuration mapping (paper section 6.3).

The policy owns the lifetime RBER model and the UBER target and answers
"what (algorithm, t) should the sub-system run at this RBER in this
mode" — the decision the paper's reliability manager takes when
reconfiguring.  :attr:`CrossLayerPolicy.MODES` is the section 6.3 mode
table and :meth:`CrossLayerPolicy.config_for_rber` the one decision
that reads it.  :meth:`CrossLayerPolicy.config_for` asks it at a device
age through the lifetime model, and the controller's
:class:`~repro.controller.reliability.ReliabilityManager` at the RBER
its decode feedback observes.

The policy is also the one description of the BCH code it sizes: the
message length k and the t range.  The field degree is not a setting:
m = ``minimum_field_degree(k, t_max)``, the one field a programmable
codec of that range designs every t over, so a controller builds its
:class:`~repro.bch.codec.AdaptiveBCHCodec` from the policy's k and t
range and the two cannot disagree.
"""

from __future__ import annotations

from repro import params as canon
from repro.bch.params import minimum_field_degree
from repro.bch.uber import required_t
from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.errors import ConfigurationError
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel


class CrossLayerPolicy:
    """Selects joint physical/architectural settings per operating mode."""

    #: The section 6.3 mode table: the program algorithm each mode runs,
    #: and the algorithm whose RBER sizes its t.  BASELINE keeps ISPP-SV
    #: with the t its RBER needs; MIN_UBER switches the physical layer
    #: only (same t as baseline, section 6.3.1); MAX_READ_THROUGHPUT
    #: switches it *and* relaxes t to ISPP-DV's requirement (6.3.2).
    MODES = {
        OperatingMode.BASELINE: (IsppAlgorithm.SV, IsppAlgorithm.SV),
        OperatingMode.MIN_UBER: (IsppAlgorithm.DV, IsppAlgorithm.SV),
        OperatingMode.MAX_READ_THROUGHPUT: (IsppAlgorithm.DV, IsppAlgorithm.DV),
    }

    def __init__(
        self,
        rber_model: LifetimeRberModel | None = None,
        uber_target: float = canon.UBER_TARGET,
        t_max: int = canon.T_MAX,
        t_min: int = 1,
        k: int = canon.MESSAGE_BITS,
    ):
        if not 1 <= t_min <= t_max:
            raise ConfigurationError(f"invalid t range [{t_min}, {t_max}]")
        #: Field degree of every t; raises CodeDesignError when no field
        #: up to GF(2^16) fits k at t_max.
        self.m = minimum_field_degree(k, t_max)
        self.rber_model = rber_model or LifetimeRberModel(
            t_max=t_max, uber_target=uber_target
        )
        self.uber_target = uber_target
        self.t_max = t_max
        self.t_min = t_min
        self.k = k

    def required_t(self, rber: float) -> int:
        """Minimum capability meeting the UBER target at an RBER.

        Raises :class:`~repro.errors.CodeDesignError` past end of life,
        where even ``t_max`` falls short.
        """
        return required_t(
            rber,
            k=self.k,
            m=self.m,
            uber_target=self.uber_target,
            t_max=self.t_max,
            t_min=self.t_min,
        )

    def required_t_for(self, algorithm: IsppAlgorithm, pe_cycles: float) -> int:
        """Minimum capability meeting the UBER target for an algorithm/age."""
        return self.required_t(self.rber_model.rber(algorithm, pe_cycles))

    def config_for_rber(
        self, mode: OperatingMode, sv_rber: float, dv_rber: float
    ) -> CrossLayerConfig:
        """Cross-layer configuration for a mode at a pair of RBERs.

        ``sv_rber`` and ``dv_rber`` are the device's RBER under ISPP-SV
        and under ISPP-DV; :attr:`MODES` picks the algorithm and the RBER
        that sizes t, and only that t is computed.  Raises
        :class:`~repro.errors.CodeDesignError` past end of life.
        """
        algorithm, sized_by = self.MODES[mode]
        rber = sv_rber if sized_by is IsppAlgorithm.SV else dv_rber
        return CrossLayerConfig(algorithm, self.required_t(rber))

    def worst_case(self, mode: OperatingMode) -> CrossLayerConfig:
        """A mode's algorithm at ``t_max``: the provisioning for an
        unknown RBER or one past end of life."""
        return CrossLayerConfig(self.MODES[mode][0], self.t_max)

    def config_for(self, mode: OperatingMode, pe_cycles: float) -> CrossLayerConfig:
        """Cross-layer configuration for a mode at a device age."""
        return self.config_for_rber(
            mode,
            self.rber_model.rber(IsppAlgorithm.SV, pe_cycles),
            self.rber_model.rber(IsppAlgorithm.DV, pe_cycles),
        )

    def rber_for(self, config: CrossLayerConfig, pe_cycles: float) -> float:
        """Device RBER under a configuration at an age."""
        return self.rber_model.rber(config.algorithm, pe_cycles)
