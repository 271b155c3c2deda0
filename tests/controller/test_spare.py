"""Spare-area budget tests."""

import pytest

from repro.bch.params import design_code
from repro.controller.spare import SpareAreaLayout
from repro.errors import ConfigurationError


class TestSpareArea:
    def test_paper_configuration_fits_t65(self):
        spare = SpareAreaLayout()
        # t = 65 parity = 130 bytes must fit 224 - 16 = 208 bytes.
        assert design_code(32768, 65).parity_bytes == 130
        assert spare.fits(130)
        assert not spare.fits(209)

    def test_leftover(self):
        spare = SpareAreaLayout()
        assert spare.leftover_bytes(130) == 208 - 130
        with pytest.raises(ConfigurationError):
            spare.leftover_bytes(1000)

    def test_utilisation_monotone(self):
        spare = SpareAreaLayout()
        assert spare.utilisation(16) < spare.utilisation(130) <= 1.0

    def test_small_block_code_saturates_spare(self):
        # Section 2: 512 B blocks with per-block parity overflow the spare.
        spare = SpareAreaLayout()
        # 8 blocks x (13 bits * 20 errors / 8) bytes ~ 260 B > budget.
        per_block_parity = (13 * 20 + 7) // 8
        assert not spare.fits(8 * per_block_parity)

    def test_invalid_layout(self):
        with pytest.raises(ConfigurationError):
            SpareAreaLayout(spare_bytes=0)
        with pytest.raises(ConfigurationError):
            SpareAreaLayout(spare_bytes=16, reserved_metadata_bytes=16)
