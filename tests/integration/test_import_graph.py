"""What a cold ``import repro`` loads, counted rather than timed.

Every end-to-end run starts in a fresh process that imports ``repro``,
``repro.ssd``, ``repro.sim.host`` and ``repro.analysis.experiments``,
and ``python -m repro lint`` imports ``repro.cli`` and
``repro.analysis.lint``, so every module they pull in is set-up time.
The mechanism and the SSD stack need only numpy.  scipy serves the
paper figures and rarely run paths, and is imported where the code that
calls it is built or run: ``scipy.special`` in ``MonteCarloRber`` and
``scipy.optimize`` (through ``repro.analysis.fitting``) in
``ExperimentSuite`` when they are built, and ``scipy.stats`` in
``uber_exact`` (the exact binomial tail).  No module starts worker
processes, and none may load the process-pool machinery.

Like ``tests/ssd/test_cost_budget.py``, these guards count instead of
timing, each in a fresh interpreter.  The first imports the set, fails
naming every forbidden module found in ``sys.modules``, then calls
``uber_exact`` once to check that the deferred import works.  The
second checks that a bare ``MonteCarloRber`` loads ``scipy.special``
and a built ``ExperimentSuite`` ``scipy.optimize`` too, and then that
the runners calling ``ndtr`` and ``least_squares`` import nothing: the
figures pay for scipy in set-up, never inside a timed run.  The third
runs ``python -m repro list`` and ``status``, which build no suite, and
fails naming any forbidden module they load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bch.uber import uber_exact

#: Prefixes of the module names a cold import may not load.
FORBIDDEN = ("scipy", "concurrent.futures.process", "multiprocessing")

#: The (RBER, n, t) the child evaluates ``uber_exact`` at.
POINT = (1e-3, 32768 + 16 * 6, 6)

CHILD = f"""\
import json, sys
import repro, repro.ssd, repro.sim.host, repro.analysis.experiments
import repro.cli, repro.analysis.lint
loaded = sorted(sys.modules)
from repro.bch.uber import uber_exact
print(json.dumps({{"loaded": loaded, "uber": uber_exact{POINT!r}}}))
"""

#: Builds a bare estimator (``scipy.optimize`` loads ``scipy.special``
#: too, so only a bare one shows where ``ndtr`` is imported), then the
#: figure suite, then runs the runners that call ``ndtr``
#: (``MonteCarloRber.estimate``) and ``least_squares`` (``fit_cell_model``).
SUITE_CHILD = """\
import json, sys
from repro.nand.rber import MonteCarloRber
MonteCarloRber()
special = "scipy.special" in sys.modules
from repro.analysis.experiments import ExperimentSuite
suite = ExperimentSuite(seed=2012)
optimize = "scipy.optimize" in sys.modules
built = set(sys.modules)
suite.run_fig04()
suite.run_fig05()
suite.run_ablation_retention()
print(json.dumps({"special": special, "optimize": optimize,
                  "added": sorted(set(sys.modules) - built)}))
"""


#: The CLI commands that need no experiment suite.
CLI_CHILD = """\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["list"]), main(["status"])]
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def _run_child(source: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cold_import_loads_no_scipy_or_process_pool():
    report = _run_child(CHILD)
    loaded = [name for name in report["loaded"] if name.startswith(FORBIDDEN)]
    assert not loaded, f"a cold import loads {', '.join(loaded)}"
    assert report["uber"] == uber_exact(*POINT)


def test_built_suite_runs_figures_without_importing():
    report = _run_child(SUITE_CHILD)
    assert report["special"], "MonteCarloRber() leaves scipy.special unloaded"
    assert report["optimize"], "ExperimentSuite() leaves scipy.optimize unloaded"
    assert not report["added"], (
        f"the figure runners import {', '.join(report['added'])}"
    )


def test_cli_list_and_status_load_no_scipy():
    report = _run_child(CLI_CHILD)
    assert report["codes"] == [0, 0]
    loaded = [name for name in report["loaded"] if name.startswith(FORBIDDEN)]
    assert not loaded, f"list and status load {', '.join(loaded)}"
