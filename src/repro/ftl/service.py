"""Differentiated storage services — the paper's future-work system.

Applications open *namespaces* bound to a service class; each class maps
to one cross-layer operating mode and owns its own block partition + FTL:

* ``MISSION_CRITICAL`` -> min-UBER mode (secure transactions, OS images);
* ``STREAMING``        -> max-read-throughput mode (multimedia playback);
* ``DEFAULT``          -> baseline.

Every host operation applies the namespace's (algorithm, t) configuration
before touching the device, so pages of different classes coexist on one
chip with per-class reliability/performance — the "differentiated storage
services" of the paper's conclusion, made concrete.

The manager runs over one :class:`NandController`: namespaces are
block partitions of one die, each behind its own
:class:`FlashTranslationLayer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.controller.controller import NandController
from repro.core.config import CrossLayerConfig
from repro.core.modes import OperatingMode
from repro.errors import ControllerError
from repro.ftl.ftl import FlashTranslationLayer


class ServiceClass(enum.Enum):
    """Application-visible service levels."""

    MISSION_CRITICAL = "mission-critical"
    STREAMING = "streaming"
    DEFAULT = "default"

    @property
    def operating_mode(self) -> OperatingMode:
        """Cross-layer mode implementing this service level."""
        return {
            ServiceClass.MISSION_CRITICAL: OperatingMode.MIN_UBER,
            ServiceClass.STREAMING: OperatingMode.MAX_READ_THROUGHPUT,
            ServiceClass.DEFAULT: OperatingMode.BASELINE,
        }[self]


@dataclass
class Namespace:
    """One application namespace: a service class over a block partition."""

    name: str
    service_class: ServiceClass
    ftl: FlashTranslationLayer
    config: CrossLayerConfig

    @property
    def logical_capacity(self) -> int:
        """Writable logical pages."""
        return self.ftl.logical_capacity


class DifferentiatedStorage:
    """Namespace manager multiplexing service classes onto one device."""

    def __init__(self, controller: NandController):
        self.controller = controller
        self._namespaces: dict[str, Namespace] = {}
        self._next_block = 0

    # -- provisioning -----------------------------------------------------------

    def create_namespace(
        self, name: str, service_class: ServiceClass, blocks: int
    ) -> Namespace:
        """Carve a block partition and bind it to a service class."""
        if name in self._namespaces:
            raise ControllerError(f"namespace {name!r} already exists")
        if blocks < 2:
            raise ControllerError("a namespace needs at least two blocks")
        total = self.controller.geometry.blocks
        if self._next_block + blocks > total:
            raise ControllerError(
                f"not enough unallocated blocks for {name!r} "
                f"({total - self._next_block} left, {blocks} requested)"
            )
        partition = list(range(self._next_block, self._next_block + blocks))
        self._next_block += blocks

        age = float(self.controller.device.array.max_wear())
        config = self.controller.policy.config_for(
            service_class.operating_mode, age
        )
        namespace = Namespace(
            name=name,
            service_class=service_class,
            ftl=FlashTranslationLayer(self.controller, partition),
            config=config,
        )
        self._namespaces[name] = namespace
        return namespace

    def namespace(self, name: str) -> Namespace:
        """Look up a namespace."""
        try:
            return self._namespaces[name]
        except KeyError:
            raise ControllerError(f"unknown namespace {name!r}") from None

    def namespaces(self) -> list[Namespace]:
        """All provisioned namespaces."""
        return list(self._namespaces.values())

    # -- data path ------------------------------------------------------------------

    def _activate(self, namespace: Namespace) -> None:
        namespace.ftl.apply_config(
            namespace.config.algorithm, namespace.config.ecc_t
        )

    def write(self, name: str, lpn: int, data: bytes) -> float:
        """Write a logical page under the namespace's service level."""
        namespace = self.namespace(name)
        self._activate(namespace)
        return namespace.ftl.write(lpn, data)

    def read(self, name: str, lpn: int) -> tuple[bytes, float]:
        """Read a logical page (decoded with its stored configuration)."""
        namespace = self.namespace(name)
        self._activate(namespace)
        return namespace.ftl.read(lpn)

    def write_many(self, name: str, items: list[tuple[int, bytes]]) -> list[float]:
        """Write a batch of logical pages under one service level.

        The namespace configuration is applied once and the whole batch
        rides the FTL's vectorized path; returns per-page latencies.
        """
        namespace = self.namespace(name)
        self._activate(namespace)
        return namespace.ftl.write_many(items)

    def read_many(self, name: str, lpns: list[int]) -> list[tuple[bytes, float]]:
        """Read a batch of logical pages (decoded with stored configs)."""
        namespace = self.namespace(name)
        self._activate(namespace)
        return namespace.ftl.read_many(lpns)

    def trim(self, name: str, lpn: int) -> None:
        """Discard a logical page."""
        self.namespace(name).ftl.trim(lpn)

    # -- maintenance -------------------------------------------------------------------

    def refresh_configs(self, pe_reference: float | None = None) -> None:
        """Re-derive every namespace's configuration as the device ages."""
        age = (
            float(self.controller.device.array.max_wear())
            if pe_reference is None
            else pe_reference
        )
        for namespace in self._namespaces.values():
            namespace.config = self.controller.policy.config_for(
                namespace.service_class.operating_mode, age
            )

    def report(self) -> list[dict]:
        """Per-namespace status for dashboards/tests."""
        rows = []
        for ns in self._namespaces.values():
            stats = ns.ftl.stats
            rows.append({
                "namespace": ns.name,
                "class": ns.service_class.value,
                "config": ns.config.describe(),
                "host_writes": stats.host_writes,
                "host_reads": stats.host_reads,
                "corrected_bits": stats.corrected_bits,
                "write_amplification": stats.write_amplification(ns.ftl.gc_stats),
            })
        return rows
