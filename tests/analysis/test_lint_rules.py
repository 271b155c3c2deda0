"""Per-rule coverage for the determinism lint (DET101–DET107).

Each rule gets one minimal positive snippet (must trip) and one
negative snippet (must stay clean), plus suppression-comment coverage —
the deliberately-seeded violation corpus the acceptance criteria call
for.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint import RULES, lint_source


def _codes(source: str, **kwargs) -> list[str]:
    return [v.code for v in lint_source(textwrap.dedent(source), **kwargs)]


# -- DET101: unseeded default_rng --------------------------------------------------


def test_det101_positive_unseeded():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng()
    """) == ["DET101"]


def test_det101_positive_bare_import():
    assert _codes("""
        from numpy.random import default_rng
        rng = default_rng()
    """) == ["DET101"]


def test_det101_negative_seeded():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng(2012)
        child = np.random.default_rng(seed=7)
    """) == []


# -- DET102: process-global random module ------------------------------------------


def test_det102_positive_module_fn():
    assert _codes("""
        import random
        x = random.random()
    """) == ["DET102"]


def test_det102_positive_from_import():
    assert _codes("""
        from random import shuffle
    """) == ["DET102"]


def test_det102_positive_unseeded_instance():
    assert _codes("""
        import random
        r = random.Random()
    """) == ["DET102"]


def test_det102_negative_seeded_instance():
    assert _codes("""
        import random
        r = random.Random(2012)
        x = r.random()
    """) == []


# -- DET103: wall clock ------------------------------------------------------------


def test_det103_positive_time_time():
    assert _codes("""
        import time
        t = time.time()
    """) == ["DET103"]


def test_det103_positive_datetime_now():
    assert _codes("""
        import datetime
        t = datetime.datetime.now()
    """) == ["DET103"]


def test_det103_negative_perf_counter():
    # Host-runtime measurement is allowed — the CLI and benchmarks use it.
    assert _codes("""
        import time
        t = time.perf_counter()
    """) == []


# -- DET104: unordered iteration feeding the schedule ------------------------------


def test_det104_positive_set_iteration():
    assert _codes("""
        def kick(engine, procs):
            for proc in set(procs):
                engine.spawn(proc)
    """) == ["DET104"]


def test_det104_positive_dict_values():
    assert _codes("""
        def kick(engine, table):
            for frame in table.values():
                engine.schedule_at(0.0, frame)
    """) == ["DET104"]


def test_det104_positive_comprehension():
    assert _codes("""
        def kick(engine, procs):
            return [engine.spawn(p) for p in {1, 2, 3}]
    """) == ["DET104"]


def test_det104_positive_submit_batch():
    assert _codes("""
        def replay(core, batches):
            for batch in set(batches):
                core.submit_batch(list(batch), 4)
    """) == ["DET104"]


def test_det104_negative_sorted():
    assert _codes("""
        def kick(engine, procs):
            for proc in sorted(set(procs)):
                engine.spawn(proc)
    """) == []


def test_det104_negative_no_feed():
    # Unordered iteration that never reaches the event list is fine
    # (e.g. summing counters).
    assert _codes("""
        def total(table):
            acc = 0.0
            for value in table.values():
                acc += value
            return acc
    """) == []


# -- DET105: float equality on timestamps ------------------------------------------


def test_det105_positive_eq():
    assert _codes("""
        def same(now, done_s):
            return done_s == now
    """) == ["DET105"]


def test_det105_positive_neq():
    assert _codes("""
        def differs(a_time_s, b):
            return a_time_s != b
    """) == ["DET105"]


def test_det105_negative_ordering():
    # Ordering comparisons are how the event list works — only == / != trip.
    assert _codes("""
        def later(now, done_s):
            return done_s > now and now <= done_s
    """) == []


def test_det105_negative_duration():
    # Durations are not timestamps: exact zero checks are legitimate.
    assert _codes("""
        def empty(duration_s):
            return duration_s == 0.0
    """) == []


def test_det105_scoped_out_of_tests():
    # Equality assertions in tests/benchmarks ARE the bit-exactness
    # contract; the rule only applies to simulation code.
    source = """
        def check(a, b):
            assert a.makespan_s == b.makespan_s
    """
    assert _codes(source, sim_scope=True) == ["DET105"]
    assert _codes(source, sim_scope=False) == []


# -- DET106: mutable default arguments ---------------------------------------------


def test_det106_positive():
    assert _codes("""
        def collect(item, acc=[]):
            acc.append(item)
            return acc
    """) == ["DET106"]


def test_det106_positive_call_default():
    assert _codes("""
        def collect(item, acc=dict()):
            acc[item] = True
            return acc
    """) == ["DET106"]


def test_det106_negative_none_default():
    assert _codes("""
        def collect(item, acc=None):
            if acc is None:
                acc = []
            acc.append(item)
            return acc
    """) == []


# -- DET107: lock discipline -------------------------------------------------------


def test_det107_positive_leak_on_branch():
    assert _codes("""
        def section(bus, fast):
            bus.busy = True
            if fast:
                return 1  # leaked: no release on this path
            bus.busy = False
            bus.freed.fire()
            return 0
    """) == ["DET107"]


def test_det107_positive_flat_leak():
    assert _codes("""
        def arm(lock):
            lock[0] = True
            return lock
    """) == ["DET107"]


def test_det107_negative_balanced():
    assert _codes("""
        def section(bus):
            while bus.busy:
                yield bus.freed
            bus.busy = True
            yield 1.0
            bus.busy = False
            bus.freed.fire()
    """) == []


def test_det107_negative_handoff_spawn():
    # Passing the held lock into a spawned drain hands ownership off.
    assert _codes("""
        def worker(engine, cache, drain):
            cache.busy += 1
            engine.spawn(drain(cache))
    """) == []


def test_det107_negative_release_continuation():
    # Arming a P_*REL continuation discharges the obligation — the flat
    # burst's acquire arms.
    assert _codes("""
        P_BUSREL = 6

        def arm(frame, bus, now, duration):
            bus[0] = True
            frame[0] = P_BUSREL
            return now + duration
    """) == []


def test_det107_negative_raise_exempt():
    assert _codes("""
        def strict(bus):
            bus.busy = True
            if bus is None:
                raise RuntimeError("error paths are exempt")
            bus.busy = False
    """) == []


def test_det107_counting_release_balances():
    assert _codes("""
        def cached(cache):
            cache[0] = cache[0] + 1
            yield 1.0
            cache[0] = cache[0] - 1
    """) == []


# -- shared machinery --------------------------------------------------------------


def test_suppression_by_code():
    source = """
        import numpy as np
        rng = np.random.default_rng()  # lint-ok: DET101
    """
    assert _codes(source) == []


def test_suppression_bare():
    source = """
        import numpy as np
        rng = np.random.default_rng()  # lint-ok
    """
    assert _codes(source) == []


def test_suppression_wrong_code_keeps_violation():
    source = """
        import numpy as np
        rng = np.random.default_rng()  # lint-ok: DET105
    """
    assert _codes(source) == ["DET101"]


def test_syntax_error_reports_det100():
    assert _codes("def broken(:\n    pass\n") == ["DET100"]


def test_violation_render_names_rule_and_fixit():
    violations = lint_source("import numpy as np\nr = np.random.default_rng()\n",
                             path="x.py")
    assert len(violations) == 1
    rendered = violations[0].render()
    assert rendered.startswith("x.py:2:")
    assert "DET101" in rendered
    assert "(fix:" in rendered


def test_every_rule_documented():
    for code in ("DET101", "DET102", "DET103", "DET104", "DET105",
                 "DET106", "DET107"):
        summary, fixit = RULES[code]
        assert summary and fixit


@pytest.mark.parametrize("code,snippet", [
    ("DET101", "import numpy as np\nr = np.random.default_rng()\n"),
    ("DET102", "import random\nx = random.random()\n"),
    ("DET103", "import time\nt = time.time()\n"),
    ("DET104", "def f(e, xs):\n    for x in set(xs):\n        e.spawn(x)\n"),
    ("DET105", "def f(now, t):\n    return t == now\n"),
    ("DET106", "def f(a=[]):\n    return a\n"),
    ("DET107", "def f(bus):\n    bus.busy = True\n"),
])
def test_violation_corpus_trips_every_rule(code, snippet):
    assert code in _codes(snippet)
