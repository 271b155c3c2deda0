"""A scalar call is a batch of one, draw for draw.

Each case builds two identical end-of-life stacks from one seed.  One
stack reads every page through a scalar entry point, the other through
the batch sibling on a one-element list.  Bytes, reports, counters and
the RNG state must come out identical: each scalar method is a wrapper
over its batch sibling, so there is no second datapath to drift.
"""

import numpy as np

from repro.bch.codec import AdaptiveBCHCodec
from repro.controller.controller import NandController
from repro.core.modes import OperatingMode
from repro.nand.device import NandFlashDevice
from repro.nand.geometry import NandGeometry
from repro.workloads.patterns import random_page
from tests.conftest import flip_bits

GEOMETRY = NandGeometry(blocks=4, pages_per_block=8)
ADDRESSES = [(block, page) for block in range(4) for page in range(8)]
EOL_WEAR = 100_000


def _device(seed: int) -> NandFlashDevice:
    device = NandFlashDevice(GEOMETRY, rng=np.random.default_rng(seed))
    device.array._wear[:] = EOL_WEAR
    payloads = np.random.default_rng(1)
    device.program_pages(
        ADDRESSES,
        [payloads.bytes(GEOMETRY.page_bytes) for _ in ADDRESSES],
    )
    return device


def _controller(seed: int) -> NandController:
    controller = NandController(GEOMETRY, rng=np.random.default_rng(seed))
    controller.device.array._wear[:] = EOL_WEAR
    controller.set_mode(OperatingMode.BASELINE, pe_reference=EOL_WEAR)
    payloads = np.random.default_rng(2)
    controller.write_batch(
        [(block, page, random_page(4096, payloads))
         for block, page in ADDRESSES]
    )
    return controller


def _counters(device: NandFlashDevice) -> tuple:
    return (
        device.page_reads,
        device.page_programs,
        device.array._reads_since_erase.tolist(),
        device.rng.bit_generator.state,
    )


def test_device_read_page_is_read_pages_of_one():
    scalar, batch = _device(2012), _device(2012)
    for _ in range(2):  # second pass: read disturb has grown
        for block, page in ADDRESSES:
            data, report = scalar.read_page(block, page)
            raw, batch_report = batch.read_pages([(block, page)])
            assert data == raw[0].tobytes()
            assert report == batch_report.report(0)
    assert _counters(scalar) == _counters(batch)


def test_controller_read_is_read_batch_of_one():
    scalar, batch = _controller(2012), _controller(2012)
    assert scalar.codec.t == 65
    for block, page in ADDRESSES:
        assert scalar.read(block, page) == batch.read_batch([(block, page)])[0]
    assert scalar.status() == batch.status()
    assert scalar.codec.observation() == batch.codec.observation()
    assert _counters(scalar.device) == _counters(batch.device)


def test_codec_decode_is_decode_batch_of_one():
    scalar = AdaptiveBCHCodec(k=32768, t_max=65)
    batch = AdaptiveBCHCodec(k=32768, t_max=65)
    for codec in (scalar, batch):
        codec.set_correction_capability(65)
    spec = scalar.spec
    rng = np.random.default_rng(3)
    for weight in (0, 1, 32, 65, 66, 80):
        codeword = scalar.encode(rng.bytes(4096))
        positions = rng.choice(spec.n_stored, size=weight, replace=False)
        word = flip_bits(codeword, positions.tolist())
        assert (scalar.decode(word, strict=False)
                == batch.decode_batch([word], strict=False)[0])
    assert scalar.observation() == batch.observation()
