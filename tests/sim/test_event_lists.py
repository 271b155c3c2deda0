"""The event list's ordering contract.

The determinism contract (see ``sim/engine.py``): the event list pops in
``(time, sequence)`` order — time-major, FIFO within a timestamp — on
any schedule, including same-timestamp ties and interleaved push and
pop.  These tests drive :class:`HeapEventList` against a reference
``heapq`` on randomized and hand-built schedules.
"""

import heapq
import random

import pytest

from repro.sim.engine import HeapEventList

#: A schedule step: an event tuple to push, or ``POP``.
POP = None


def _random_schedule(seed: int, steps: int = 500) -> list:
    """Interleaved pushes and pops, replayed on the reference heap."""
    rng = random.Random(seed)
    reference: list = []
    schedule = []
    now = 0.0
    seq = 0
    for _ in range(steps):
        if reference and rng.random() < 0.45:
            now = heapq.heappop(reference)[0]
            schedule.append(POP)
        else:
            # Heavy tie mass: ~1/3 of pushes land exactly at `now`
            # (frame wake-ups do), the rest spread over the phase
            # spectrum from sub-microsecond offsets to
            # multi-millisecond erases.
            offset = rng.choice([0.0, 0.0, 1e-7, 5e-6, 64e-6, 3e-3])
            entry = (now + offset * rng.random(), seq, None)
            seq += 1
            heapq.heappush(reference, entry)
            schedule.append(entry)
    return schedule


SCHEDULES = {
    **{f"random-{seed}": _random_schedule(seed) for seed in range(20)},
    # All at one instant: pops follow push (sequence) order.
    "fifo-one-instant": (
        [(1e-3, seq, None) for seq in range(50)] + [POP] * 50
    ),
    # A drained list reused at a rebased (smaller) clock.
    "push-earlier-after-drain": [
        (5e-3, 0, None), POP, (0.0, 1, None), (1e-6, 2, None), POP, POP,
    ],
}


class TestOrdering:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_heap_event_list_matches_reference(self, schedule):
        events = HeapEventList()
        reference: list = []
        for step, entry in enumerate(SCHEDULES[schedule]):
            if entry is POP:
                expected = heapq.heappop(reference)
                assert events.pop() == expected, f"diverged at step {step}"
            else:
                events.push(entry)
                heapq.heappush(reference, entry)
        while reference:
            assert events.pop() == heapq.heappop(reference)
        assert not events
        assert len(events) == 0

