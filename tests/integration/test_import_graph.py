"""What a cold ``import repro`` loads, counted rather than timed.

Every end-to-end run starts in a fresh process that imports ``repro``,
``repro.ssd``, ``repro.sim.host`` and ``repro.analysis.experiments``,
so every module they pull in is set-up time on every run.  Two heavy
imports serve one rarely run path each and are made where they are
called: ``scipy.stats`` in ``uber_exact`` (the exact binomial tail) and
the process pool in the pooled branch of ``monte_carlo_uber``.

Like ``tests/ssd/test_cost_budget.py``, this guard counts instead of
timing: in a fresh interpreter it imports the four packages, fails
naming every forbidden module found in ``sys.modules``, then calls
``uber_exact`` once to check that the deferred import works.
``scipy.special`` and ``scipy.optimize`` stay eager: the figures call
them inside their timed run, where a deferred import would be paid.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bch.uber import uber_exact

#: Prefixes of the module names a cold import may not load.
FORBIDDEN = ("scipy.stats", "concurrent.futures.process", "multiprocessing")

#: The (RBER, n, t) the child evaluates ``uber_exact`` at.
POINT = (1e-3, 32768 + 16 * 6, 6)

CHILD = f"""\
import json, sys
import repro, repro.ssd, repro.sim.host, repro.analysis.experiments
loaded = sorted(sys.modules)
from repro.bch.uber import uber_exact
print(json.dumps({{"loaded": loaded, "uber": uber_exact{POINT!r}}}))
"""


def test_cold_import_loads_no_stats_or_process_pool():
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    loaded = [name for name in report["loaded"] if name.startswith(FORBIDDEN)]
    assert not loaded, f"a cold import loads {', '.join(loaded)}"
    assert report["uber"] == uber_exact(*POINT)
