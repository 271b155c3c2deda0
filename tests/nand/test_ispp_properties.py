"""Property-based ISPP invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.ispp import IsppAlgorithm, IsppEngine, IsppSchedule

level_arrays = st.lists(
    st.integers(min_value=0, max_value=3), min_size=64, max_size=256
)
cycle_counts = st.sampled_from([0.0, 1e2, 1e4, 1e5])
algorithms = st.sampled_from(list(IsppAlgorithm))
# The default staircase, one whose pump ceiling is too low for the L3
# cells and one cut off after six pulses: the last two end with failed
# cells.
schedules = st.sampled_from(
    [IsppSchedule(), IsppSchedule(vpp_end=16.5), IsppSchedule(max_pulses=6)]
)


def make_engine(seed: int) -> IsppEngine:
    return IsppEngine(rng=np.random.default_rng(seed))


class TestIsppInvariants:
    @given(levels=level_arrays, algorithm=algorithms, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_programming_never_lowers_vth(self, levels, algorithm, seed):
        engine = make_engine(seed)
        result = engine.program_page(np.array(levels), algorithm)
        assert np.all(result.deltas >= -1e-9)

    @given(levels=level_arrays, algorithm=algorithms,
           pe=cycle_counts, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_inhibited_cells_meet_verify(self, levels, algorithm, pe, seed):
        engine = make_engine(seed)
        targets = np.array(levels)
        result = engine.program_page(targets, algorithm, pe)
        vfy = np.array([np.nan, 0.8, 2.0, 3.2])
        reached = targets > 0
        if result.failed_cells == 0 and reached.any():
            assert np.all(result.vth[reached] >= vfy[targets[reached]] - 1e-9)

    @given(levels=level_arrays, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_erased_cells_never_programmed(self, levels, seed):
        engine = make_engine(seed)
        targets = np.array(levels)
        result = engine.program_page(targets, IsppAlgorithm.DV)
        erased = targets == 0
        if erased.any():
            assert np.all(np.abs(result.deltas[erased]) < 1e-12)

    @given(levels=level_arrays, algorithm=algorithms, pe=cycle_counts,
           schedule=schedules, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_inhibit_bookkeeping(self, levels, algorithm, pe, schedule, seed):
        engine = IsppEngine(schedule=schedule, rng=np.random.default_rng(seed))
        targets = np.array(levels)
        result = engine.program_page(targets, algorithm, pe)
        programmed = targets > 0
        if not programmed.any():
            assert result.pulses == 0 and result.failed_cells == 0
            return
        offset = 0.0
        if algorithm is IsppAlgorithm.DV:
            offset = (schedule.delta - schedule.delta / schedule.dv_attenuation) / 2.0
        vfy = np.array([np.nan, *(v + offset for v in engine.levels.verify)])
        short = result.vth[programmed] < vfy[targets[programmed]]
        assert result.failed_cells == int(np.count_nonzero(short))
        assert result.active_cells_per_pulse[0] == np.count_nonzero(programmed)
        distinct = np.unique(targets[programmed]).size
        assert result.verifies_per_pulse[0] == distinct
        assert np.all(np.diff(result.verifies_per_pulse) <= 0)

    @given(levels=level_arrays, algorithm=algorithms, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_activity_bookkeeping_consistent(self, levels, algorithm, seed):
        engine = make_engine(seed)
        result = engine.program_page(np.array(levels), algorithm)
        assert result.pulses == len(result.pulse_vpp)
        assert result.verify_ops == int(result.verifies_per_pulse.sum())
        assert result.preverify_ops == int(result.preverifies_per_pulse.sum())
        if algorithm is IsppAlgorithm.SV:
            assert result.preverify_ops == 0
        assert np.all(np.diff(result.active_cells_per_pulse) <= 0)
