"""Cross-layer configuration framework — the paper's contribution (§6.3).

Couples the physical-layer program-algorithm knob with the
architecture-layer ECC capability knob into named operating modes, and
quantifies the resulting trade-offs over the device lifetime:

* **BASELINE** — ISPP-SV with the adaptive ECC tracking UBER = 1e-11;
* **MIN_UBER** — switch to ISPP-DV, keep the baseline t: UBER drops by
  orders of magnitude at zero read-throughput cost (§6.3.1);
* **MAX_READ_THROUGHPUT** — switch to ISPP-DV *and* relax t to the minimum
  meeting the target: decode latency shrinks, reads speed up, UBER holds
  (§6.3.2).

:class:`CrossLayerPolicy` writes that mode table once.  The trade-off
analysis asks it at a device age through the lifetime RBER model; the
controller's :class:`~repro.controller.reliability.ReliabilityManager`
asks it at run time at the RBER its decode feedback observes.
"""

from repro.core.modes import OperatingMode
from repro.core.config import CrossLayerConfig
from repro.core.policy import CrossLayerPolicy
from repro.core.tradeoff import TradeoffAnalyzer, TradeoffPoint
from repro.core.pareto import OperatingPoint, enumerate_operating_points, pareto_front

__all__ = [
    "OperatingMode",
    "CrossLayerConfig",
    "CrossLayerPolicy",
    "TradeoffAnalyzer",
    "TradeoffPoint",
    "OperatingPoint",
    "enumerate_operating_points",
    "pareto_front",
]
