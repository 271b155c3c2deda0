"""Lifetime RBER model tests — Fig. 5 anchors."""

import pytest

from repro.bch.uber import required_t
from repro.errors import ConfigurationError
from repro.nand.ispp import IsppAlgorithm
from repro.nand.rber import LifetimeRberModel


def t_at(model, algorithm, pe_cycles):
    """Capability the canonical code needs at the model's RBER."""
    return required_t(model.rber(algorithm, pe_cycles))


class TestLifetimeModel:
    @pytest.fixture(scope="class")
    def model(self):
        return LifetimeRberModel()

    def test_fresh_values(self, model):
        assert model.rber_sv(0.0) == pytest.approx(1e-5)
        assert model.rber_dv(0.0) == pytest.approx(8e-7)

    def test_dv_is_one_order_below_sv(self, model):
        for n in (0, 1e2, 1e4, 1e5):
            assert model.rber_sv(n) / model.rber_dv(n) == pytest.approx(12.5)

    def test_rated_endurance_hits_t_max_exactly(self, model):
        assert t_at(model, IsppAlgorithm.SV, model.n_ref) == 65

    def test_dv_end_of_life_t(self, model):
        assert t_at(model, IsppAlgorithm.DV, model.n_ref) == 14

    def test_fresh_required_t(self, model):
        assert t_at(model, IsppAlgorithm.DV, 0.0) == 3   # paper tMIN
        assert t_at(model, IsppAlgorithm.SV, 0.0) == 6

    def test_monotone_in_cycles(self, model):
        values = [model.rber_sv(n) for n in (0, 10, 1e3, 1e5, 1e6)]
        assert values == sorted(values)

    def test_algorithm_dispatch(self, model):
        assert model.rber(IsppAlgorithm.SV, 1e4) == model.rber_sv(1e4)
        assert model.rber(IsppAlgorithm.DV, 1e4) == model.rber_dv(1e4)

    def test_lifetime_grid(self, model):
        grid = model.lifetime_grid(points=10)
        assert len(grid) == 10
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(model.n_ref)

    def test_negative_cycles_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.rber_sv(-1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LifetimeRberModel(floor_sv=0)
        with pytest.raises(ConfigurationError):
            LifetimeRberModel(dv_ratio=0.5)
