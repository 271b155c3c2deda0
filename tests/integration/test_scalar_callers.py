"""Golden digests of the controller datapath's scalar callers.

The batch callers (the SSD session, the FTL, the figure runners) are
pinned by the scheduler and end-to-end golden digests.  This file pins
the callers that issue one page at a time:

* :func:`run_host_workload` on the ``sys_des`` traces (multimedia,
  os-upgrade and mixed), in the baseline and max-read modes, with
  ``batch_pages`` 1 and 8 — digest of ``elapsed_s``, the throughput
  stats (counts, bytes and every latency sample), the corrected bits
  and the uncorrectable pages;
* self-adaptive :meth:`NandController.read_batch` on an aged device
  with a short epoch — digest of the bytes read, every
  :class:`ReadReport` and ``reliability.adaptations``;
* the stdout of every example in ``examples/``, run in-process.

Every case is pinned twice: at the real lifetime RBER, and under an
error-free :class:`LifetimeRberModel` (``rber`` and ``rber_batch``
patched to zero).  With no error draws the read path consumes no
randomness, so the ``zero`` digests pin control flow, latency
accounting, ISPP timing and adaptation decisions independently of how
errors are drawn.  The ``lifetime`` digests also pin the error draws.

The ``zero`` digests were recorded while every layer still had a
dedicated scalar datapath, and the batch-of-one wrappers reproduce
them.  The ``lifetime`` digests of the cases that read single pages
were regenerated then, because a batch of one draws its errors
differently from the old scalar kernels.  The differentiated-services,
HV-characterisation, lifetime-explorer and multimedia-playback examples
were pinned later, on the batch-of-one datapath.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.controller.controller import ControllerConfig, NandController
from repro.controller.reliability import ReliabilityPolicy
from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.nand.geometry import NandGeometry
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel
from repro.sim.host import HostWorkload, run_host_workload
from repro.workloads.patterns import random_page
from repro.workloads.traces import (
    mixed_trace,
    multimedia_playback_trace,
    os_upgrade_trace,
)

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

TRACES = {
    "multimedia": lambda: multimedia_playback_trace(
        blocks=1, pages_per_block=6, read_passes=4
    ),
    "os-upgrade": lambda: os_upgrade_trace(blocks=1, pages_per_block=6),
    "mixed": lambda: mixed_trace(blocks=1, pages_per_block=6),
}
MODES = {
    "baseline": OperatingMode.BASELINE,
    "max-read": OperatingMode.MAX_READ_THROUGHPUT,
}
EXAMPLES = (
    "differentiated_services",
    "hv_characterisation",
    "lifetime_explorer",
    "multimedia_playback",
    "quickstart",
    "secure_transaction_log",
    "self_adaptive_controller",
)


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _latency_samples(stats) -> tuple:
    return (stats.count, stats.total_s, stats.samples)


def host_digest(trace: str, mode: str, batch_pages: int) -> str:
    """One ``sys_des`` host run (physical addressing), as that runner
    builds it."""
    controller = NandController(
        policy=CrossLayerPolicy(rber_model=LifetimeRberModel()),
        rng=np.random.default_rng(99),
    )
    controller.set_mode(MODES[mode])
    result = run_host_workload(
        controller,
        HostWorkload(trace, TRACES[trace](), batch_pages=batch_pages),
    )
    stats = result.stats
    return _sha256(
        result.elapsed_s,
        stats.reads, stats.writes, stats.bytes_read, stats.bytes_written,
        _latency_samples(stats.read_latency),
        _latency_samples(stats.write_latency),
        result.corrected_bits,
        result.uncorrectable_pages,
    )


def self_adaptive_digest() -> str:
    """Self-adaptive ``read_batch`` rounds on a mid-life device whose
    six-read epoch boundaries fall inside the batches."""
    controller = NandController(
        NandGeometry(blocks=4, pages_per_block=16),
        config=ControllerConfig(self_adaptive=True, strict_decode=False),
        reliability_policy=ReliabilityPolicy(epoch_reads=6),
        rng=np.random.default_rng(2012),
    )
    controller.device.array._wear[:] = 30_000
    controller.apply_config(IsppAlgorithm.SV, 65)
    payloads = np.random.default_rng(7)
    reads = []
    for block in range(3):
        # Each block is written at the capability in force by then.
        controller.write_batch(
            [(block, page, random_page(4096, payloads)) for page in range(8)]
        )
        addresses = [(b, p) for b in range(block + 1) for p in range(8)]
        for start, stop in ((0, 5), (5, 8), (0, len(addresses))):
            reads.append(controller.read_batch(addresses[start:stop]))
    return _sha256(
        reads, controller.reliability.adaptations, controller.status()
    )


def example_digest(name: str) -> str:
    """sha256 of an example's stdout, run as ``__main__`` in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(EXAMPLES_DIR / f"{name}.py"), run_name="__main__")
    return _sha256(out.getvalue())


def _zero_rber(monkeypatch) -> None:
    monkeypatch.setattr(
        LifetimeRberModel, "rber", lambda self, algorithm, pe_cycles: 0.0
    )
    monkeypatch.setattr(
        LifetimeRberModel, "rber_batch",
        lambda self, pe_cycles, dv=None: np.zeros(
            np.asarray(pe_cycles, dtype=float).shape
        ),
    )


CASES = {
    **{
        f"host-{trace}-{mode}-b{batch}": (
            lambda trace=trace, mode=mode, batch=batch:
                host_digest(trace, mode, batch)
        )
        for trace in TRACES for mode in MODES for batch in (1, 8)
    },
    "self-adaptive-read-batch": self_adaptive_digest,
    **{
        f"example-{name}": (lambda name=name: example_digest(name))
        for name in EXAMPLES
    },
}

#: sha256 per (case, RBER model).
DIGESTS = {
    ("example-differentiated_services", "lifetime"):
        "0b98a674304b5c7ed1888a47c373bde34e1199deb8cf95a5056af4e11b8cf4a9",
    ("example-differentiated_services", "zero"):
        "7df54a724b491756f9668a7546cb5d18f961b11ada4984798676436067cbc8dc",
    ("example-hv_characterisation", "lifetime"):
        "ac87b0199cc4f2dd987dd450250ecac5b91711a1ec4562f99847d3f0128759e9",
    ("example-hv_characterisation", "zero"):
        "ac87b0199cc4f2dd987dd450250ecac5b91711a1ec4562f99847d3f0128759e9",
    ("example-lifetime_explorer", "lifetime"):
        "154a4b482ba9638f1db756580678d3d1a43247203876e6df52f2da7b9853cc5a",
    ("example-lifetime_explorer", "zero"):
        "2d9705c1ee657bf682c5b8da55bdef7badc819c3bc6d86dffd5d0c3c6a9b25a3",
    ("example-multimedia_playback", "lifetime"):
        "a9f3a944d0c2034290cbb2941b380c7e314e2979367ead00f00f7de0ac69bc09",
    ("example-multimedia_playback", "zero"):
        "48d6172eab03f7a235894980a6864870ddc37d9c3e44eeb7982c5b70c79271b9",
    ("example-quickstart", "lifetime"):
        "5762a9b70c6802478bb812e918ee5ecd8a388044d11b362bb850d8b0edf66f48",
    ("example-quickstart", "zero"):
        "01252d8bb611d0aaff9bb7c250a490d00db4bf2a7c3b77caf174cf7ef64afdfe",
    ("example-secure_transaction_log", "lifetime"):
        "635dcd6b7f27dd47b36902209e266be292316e66d6115e33c372b3e8f5682f39",
    ("example-secure_transaction_log", "zero"):
        "2c2424403804ec3ffb7d855137d34921570e393993798f07b6c5e23b969f2328",
    ("example-self_adaptive_controller", "lifetime"):
        "18b7255383921239c1ef507bbbde9147c49e371fc3431151ae45a6afc7979039",
    ("example-self_adaptive_controller", "zero"):
        "0605bf0e1ba448612972838e5f2be466503cb0877dad82d1449f6c1b442475b2",
    ("host-mixed-baseline-b1", "lifetime"):
        "53ef456f3fa02b4adbfab94c94f110ea01e9330f76b611f9dbe85918c3b5f329",
    ("host-mixed-baseline-b1", "zero"):
        "2546dc6513afe0084978af94bad420bc48424c23f0eedbf133c4d98345680ace",
    ("host-mixed-baseline-b8", "lifetime"):
        "a8aea433797ac01740592d322c6467ff2a40b5ad097c0f35db04bf8964880e25",
    ("host-mixed-baseline-b8", "zero"):
        "2546dc6513afe0084978af94bad420bc48424c23f0eedbf133c4d98345680ace",
    ("host-mixed-max-read-b1", "lifetime"):
        "a3a92fc06ea32c751221a3243e8713b30e34a9c72df1fe90048723eb36225894",
    ("host-mixed-max-read-b1", "zero"):
        "a97f6d52b0f1469270870f6852f42188814ced007c172e05e4b5331f5f1b5c57",
    ("host-mixed-max-read-b8", "lifetime"):
        "121f586c2b793903dfcdc2923b4b84f9d36b33eb515775fc75dcefbe976e8baa",
    ("host-mixed-max-read-b8", "zero"):
        "04b6c4030b914af661c961abef8ceddc5e01760a4f6d7263110a8ace61dc46a3",
    ("host-multimedia-baseline-b1", "lifetime"):
        "7d82ae0ae334458b0001495e5c60b4151f90dba609ccadfe9a98850762563e09",
    ("host-multimedia-baseline-b1", "zero"):
        "2c3a3d0ad12a5033fee3e0133337dc9afbbc3b72ea06d6d7eb0ef3380ae60140",
    ("host-multimedia-baseline-b8", "lifetime"):
        "966079f5ef5c2d25305797e5a7cc9afe2ffcb816c1400a36c50b3eec25b60851",
    ("host-multimedia-baseline-b8", "zero"):
        "33afcfb5e6fcdc5a31856939d0ff4ad2f7dbebae3971248b16b5cb86c15215ac",
    ("host-multimedia-max-read-b1", "lifetime"):
        "c2c46cc12c905215b375f6612374bff70f896c2dd6ca1476c08b93fe6d26a788",
    ("host-multimedia-max-read-b1", "zero"):
        "4c164b05417c24ed8e6dd3b431f1a026c23e48e3ae1de5114666791871ccb46d",
    ("host-multimedia-max-read-b8", "lifetime"):
        "9a8606161d156e21cd008e563c61640c9406f22792ad8b56dab1b25e2cc1b303",
    ("host-multimedia-max-read-b8", "zero"):
        "dbebdc2451b0fe4d8b4ea5148879167951c0c3203f12dcfebd5db4b0fbb041be",
    ("host-os-upgrade-baseline-b1", "lifetime"):
        "53ef456f3fa02b4adbfab94c94f110ea01e9330f76b611f9dbe85918c3b5f329",
    ("host-os-upgrade-baseline-b1", "zero"):
        "375f75fe3e63bec1b33703c462c5803567a472b355d4f7611de27029b1758c0c",
    ("host-os-upgrade-baseline-b8", "lifetime"):
        "b076799da6f492da923a8109639393c76e864b5c401af9229c09a32d2d74df68",
    ("host-os-upgrade-baseline-b8", "zero"):
        "91cd380b3db68a91c62eca90ab7e4d0928b63877643c544b5faf5b64985d1a1c",
    ("host-os-upgrade-max-read-b1", "lifetime"):
        "a3a92fc06ea32c751221a3243e8713b30e34a9c72df1fe90048723eb36225894",
    ("host-os-upgrade-max-read-b1", "zero"):
        "a97f6d52b0f1469270870f6852f42188814ced007c172e05e4b5331f5f1b5c57",
    ("host-os-upgrade-max-read-b8", "lifetime"):
        "a9a66d52b2058ae7f09458586895f244794e3ee20ccccc7d3ffb7e51cd6b29cb",
    ("host-os-upgrade-max-read-b8", "zero"):
        "a4e2cd2dd4aed55662370c545da211379638279cc15ef7cfe2e14f2f2f03ab00",
    ("self-adaptive-read-batch", "lifetime"):
        "5cc56d9bb8b117c65fedcffa5e91edcdb35f0d50f3b0444af98d1d9b2bde08c3",
    ("self-adaptive-read-batch", "zero"):
        "1c7469e0498b4ee6a5f252e22e6deae4bf80c1c2fad75dc12fb67fc54ce90327",
}


@pytest.mark.parametrize("rber", ["lifetime", "zero"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_caller_matches_pinned_digest(case, rber, monkeypatch):
    if rber == "zero":
        _zero_rber(monkeypatch)
    observed = CASES[case]()
    assert observed == DIGESTS[(case, rber)], (
        f"{case} / {rber}: digest {observed}"
    )
