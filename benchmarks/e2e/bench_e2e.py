"""End-to-end wall-clock benchmark: cold-process runs of four workloads.

Every measurement is one fresh child process running one workload (see
``e2e_workloads.py``): interpreter start, imports, set-up, the run, then
a check of the outputs a user would see.  Children run one at a time
with one thread each (``OMP/OPENBLAS/MKL_NUM_THREADS=1``) and
``PYTHONHASHSEED=0``.  One extra traced child per workload installs the
per-layer span wrappers of ``e2e_trace.py`` to split the time by layer.

From the repository root::

    # every workload, N untraced rounds plus one traced round; prints
    # each metric and appends a record to benchmarks/e2e/out/BENCH_e2e.json
    python benchmarks/e2e/bench_e2e.py [--quick] [--seed N] [--runs N]
        [--workloads NAME ...] [--trace-out DIR]

    # one workload for a time budget; the last stdout line is a JSON
    # object with the end-to-end metrics (--trace 0) or the per-layer
    # metrics (--trace 1)
    python benchmarks/e2e/bench_e2e.py --workload NAME --seed N
        --seconds S --trace 0|1

    # medians, quartiles, ratios and verdicts between two records
    # (FILE or FILE#INDEX, default the file's last record)
    python benchmarks/e2e/bench_e2e.py compare A B

    # regenerate golden.json (seeds 2012 and 7, full and quick shapes)
    python benchmarks/e2e/bench_e2e.py --write-golden

The process exits non-zero when any output differs from its golden
digest, a read returns the wrong data, a page fails to decode or an I/O
never completes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RECORDS = HERE / "out" / "BENCH_e2e.json"

WORKLOADS = ("paper_figures", "eol_read", "sustained_write", "des_stream")

#: End-to-end metrics: (name, unit, better, bound).  Each is the median
#: over a run's untraced children; ``bound`` is the share of the base
#: median by which it may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

#: Power of the host-speed factor each end-to-end metric is scaled by
#: (see :func:`calibrate`): times shrink on a slow host, rates grow.
SPEED_POWER = {"wall_s": 1, "setup_s": 1, "ops_per_s": -1, "peak_rss_mb": 0}

#: The calibration loop's median duration at the reference host speed.
CAL_REF_S = 0.021

GOLDEN_SEEDS = (2012, 7)

#: Child processes that take longer than this are killed (the run fails).
CHILD_TIMEOUT_S = 150.0

#: A time-budgeted run starts no child that would end past this point.
HARD_LIMIT_S = 150.0


def golden_key(workload: str, seed: int, quick: bool) -> str:
    return f"{workload}:{seed}:{'quick' if quick else 'full'}"


# -- child side ----------------------------------------------------------------


def child_main(args) -> int:
    """Set up, run and check one workload; print one JSON line."""
    import e2e_workloads

    recorder = patches = None
    if args.traced:
        import e2e_trace

        recorder = e2e_trace.SpanRecorder()
        patches = e2e_trace.install(recorder)
    traced_from = time.perf_counter()
    workload = e2e_workloads.WORKLOADS[args.child](args.seed, args.quick)
    workload.setup()
    ready = time.perf_counter()
    workload.run()
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if patches is not None:
        e2e_trace.uninstall(patches)
    outcome = workload.verify()
    setup_s = ready - args.spawned_at - workload.gen_s
    run_s = end - ready
    result = {
        "workload": args.child,
        "seed": args.seed,
        "quick": args.quick,
        "traced": args.traced,
        "shape": workload.shape,
        "gen_s": workload.gen_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": setup_s + run_s,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "ops_per_s": outcome.ops / run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": outcome.digest,
        "parts": outcome.parts,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if recorder is not None:
        traced_s = end - traced_from - workload.gen_s
        layers, seconds = e2e_trace.layer_metrics(
            recorder, traced_s, outcome.counters
        )
        result.update(layers=layers, layer_s=seconds, traced_s=traced_s,
                      spans=len(recorder.spans))
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans_out).write_text(json.dumps(recorder.spans))
    print(json.dumps(result))
    return 0


# -- parent side ---------------------------------------------------------------


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def check_tree() -> None:
    """Refuse to run without the package sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench_e2e: no package sources at {SRC}/repro; run from a "
            "checkout of the repository"
        )
    # Byte-compile once up front so no child pays the compile cost.
    compileall.compile_dir(str(SRC), quiet=1)


def spawn(workload: str, seed: int, quick: bool, traced: bool,
          spans_out: str | None = None) -> dict:
    """Run one cold child process; returns its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", workload, "--seed", str(seed)]
    command += ["--quick"] * quick + ["--traced"] * traced
    if spans_out:
        command += ["--spans-out", spans_out]
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # child's ready stamp minus this one includes interpreter start.
    command += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} child exited {proc.returncode}:\n"
            + "\n".join(proc.stderr.strip().splitlines()[-15:])
        )
    return json.loads(lines[-1])


def calibrate() -> float:
    """Median duration of a fixed interpreter-bound loop, in seconds.

    A host whose cores are shared with other tenants drifts in speed by
    tens of percent over minutes.  Timing the same loop right before and
    after each child measures that drift, and scaling the child's times
    by ``CAL_REF_S / calibration`` cancels most of it; the records keep
    the raw times too.  The loop uses no code of the package, so a
    change to the package cannot move it.
    """
    def spin() -> float:
        start = time.perf_counter()
        total = 0
        for value in range(400_000):
            total += value * value
        return time.perf_counter() - start

    return statistics.median(spin() for _ in range(15))


class Runner:
    """Spawns children one at a time, each between two calibrations."""

    def __init__(self):
        self.calibration = calibrate()

    def child(self, *args, **kwargs) -> dict:
        """:func:`spawn`, plus the host-speed factor ``speed`` (< 1: slow)."""
        child = spawn(*args, **kwargs)
        after = calibrate()
        child["speed"] = 2 * CAL_REF_S / (self.calibration + after)
        self.calibration = after
        return child


def scaled(child: dict, metric: str) -> float:
    """An end-to-end metric of one child at the reference host speed."""
    return child[metric] * child["speed"] ** SPEED_POWER[metric]


def load_golden() -> dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text())
    return {}


def check_children(children: list[dict], golden: dict) -> list[str]:
    """Compare each child's output with golden, else with its siblings.

    A child whose digest differs has all its ops counted as failed (its
    ``failed`` is raised to ``ops``).  Returns problem descriptions.
    """
    problems = []
    if not children:
        return problems
    first = children[0]
    entry = golden.get(golden_key(first["workload"], first["seed"],
                                  first["quick"]))
    reference, source = (
        (entry["parts"], "golden") if entry else (first["parts"], "first child")
    )
    for child in children:
        problems += [f"{child['workload']}: {p}" for p in child["problems"]]
        if child["parts"] != reference:
            part = next(
                name for name in [*reference, *child["parts"]]
                if reference.get(name) != child["parts"].get(name)
            )
            problems.append(
                f"{child['workload']} seed {child['seed']}: output part "
                f"{part!r} differs from the {source} digest"
            )
            child["failed"] = child["ops"]
    traced = [child for child in children if child["traced"]]
    if traced:
        import e2e_trace

        for name in e2e_trace.EXACT:
            values = {child["layers"][name] for child in traced}
            if len(values) > 1:
                problems.append(
                    f"{first['workload']}: traced count {name} differs "
                    f"between children: {sorted(values)}"
                )
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer medians over the traced children, plus trace overhead."""
    metrics = {
        name: statistics.median(child["layers"][name] for child in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(c["run_s"] * c["speed"] for c in traced)
        / statistics.median(c["run_s"] * c["speed"] for c in untraced) - 1.0
    )
    return metrics


def budget_main(args) -> int:
    """One workload for ``--seconds``: the command BENCHMARK.json names."""
    check_tree()
    kinds = (False, True) if args.trace else (False,)
    minimum = 1 if args.trace else 3
    done: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    walls: list[float] = []
    start = time.perf_counter()
    runner = Runner()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else 0.0
        if walls and elapsed + typical > HARD_LIMIT_S:
            break
        if (all(len(done[k]) >= minimum for k in kinds)
                and elapsed + typical > args.seconds):
            break
        kind = kinds[len(walls) % len(kinds)]
        began = time.perf_counter()
        try:
            done[kind].append(
                runner.child(args.workload, args.seed, args.quick, kind)
            )
        except ChildFailed as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        walls.append(time.perf_counter() - began)
    untraced, traced = done[False], done.get(True, [])
    children = untraced + traced
    for child in children:
        print(f"child{' (traced)' * child['traced']}: speed "
              f"{child['speed']:.4f}, raw wall {child['wall_s']:.4f} s, "
              f"setup {child['setup_s']:.4f} s, run {child['run_s']:.4f} s")
    problems = check_children(children, load_golden())
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if args.trace:
        import e2e_trace

        values = per_layer(traced, untraced)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in e2e_trace.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": statistics.median(
                scaled(child, name) for child in untraced
            ), "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    for name, metric in metrics.items():
        print(f"{args.workload:<16} {name:<28} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    failed = sum(child["failed"] for child in children)
    result = {
        "correct": not problems and not failed,
        "attempted": sum(child["ops"] for child in children),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def protocol_main(args) -> int:
    """Rounds over every workload, one traced round, then a record."""
    check_tree()
    names = args.workloads or list(WORKLOADS)
    rounds = 1 if args.quick else args.runs
    children: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, list[dict]] = {name: [] for name in names}
    runner = Runner()
    try:
        for index in range(rounds + 1):
            # Rotate the order each round so drift hits every workload.
            order = names[index % len(names):] + names[:index % len(names)]
            for name in order:
                is_traced = index == rounds
                spans_out = None
                if is_traced and args.trace_out:
                    suffix = "-quick" if args.quick else ""
                    spans_out = str(Path(args.trace_out).resolve()
                                    / f"{name}-seed{args.seed}{suffix}.json")
                child = runner.child(name, args.seed, args.quick, is_traced,
                                     spans_out)
                (traced if is_traced else children)[name].append(child)
                print(f"  {'traced ' if is_traced else ''}{name}: "
                      f"wall {child['wall_s']:.3f} s", file=sys.stderr)
    except ChildFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    golden = load_golden()
    problems = []
    summary = {}
    for name in names:
        problems += check_children(children[name] + traced[name], golden)
        problems += [
            f"{name}: {child['failed']} of {child['ops']} ops failed"
            for child in children[name] + traced[name] if child["failed"]
        ]
        summary[name] = per_layer(traced[name], children[name])
    print_protocol(names, children, summary)
    for problem in problems:
        print(f"FAIL: {problem}")
    record = {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": children[names[0]][0]["python"],
        "numpy": children[names[0]][0]["numpy"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "quick": args.quick,
        "config_sha256": _config_digest(children),
        "workloads": {
            name: {
                "children": [_slim(child) for child in children[name]],
                "traced": [_slim(child) for child in traced[name]],
            }
            for name in names
        },
        "correct": not problems,
    }
    append_record(record)
    return 0 if not problems else 1


def _slim(child: dict) -> dict:
    return {key: value for key, value in child.items() if key != "parts"}


def _config_digest(children: dict[str, list[dict]]) -> str:
    shapes = {name: runs[0]["shape"] for name, runs in children.items()}
    return hashlib.sha256(
        json.dumps(shapes, sort_keys=True).encode()
    ).hexdigest()


def print_protocol(names, children, summary) -> None:
    import e2e_trace

    print(f"{'workload':<16} {'metric':<12} {'unit':<6} {'median':>12} "
          f"{'min':>12} {'max':>12} {'n':>3}")
    for name in names:
        for metric, unit, _, _ in END_TO_END:
            values = [scaled(child, metric) for child in children[name]]
            print(f"{name:<16} {metric:<12} {unit:<6} "
                  f"{statistics.median(values):>12.4f} {min(values):>12.4f} "
                  f"{max(values):>12.4f} {len(values):>3}")
        failed = sum(child["failed"] for child in children[name])
        ops = sum(child["ops"] for child in children[name])
        print(f"{name:<16} {'failed_frac':<12} {'-':<6} {failed / ops:>12.4f}")
    print()
    print(f"{'per-layer (traced)':<30}" + "".join(
        f"{name:>16}" for name in names))
    for metric, unit, _ in e2e_trace.PER_LAYER:
        print(f"{metric + ' [' + unit + ']':<30}" + "".join(
            f"{summary[name][metric]:>16.4g}" for name in names))


def append_record(record: dict) -> None:
    """Append to the trajectory file; an identical entry is stored once."""
    RECORDS.parent.mkdir(parents=True, exist_ok=True)
    records = json.loads(RECORDS.read_text()) if RECORDS.is_file() else []
    if record not in records:
        records.append(record)
        RECORDS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"record: {RECORDS} ({len(records)} entries)")


def write_golden_main() -> int:
    """Regenerate golden.json from fresh children."""
    check_tree()
    golden = {}
    for seed in GOLDEN_SEEDS:
        for quick in (False, True):
            for name in WORKLOADS:
                try:
                    child = spawn(name, seed, quick, traced=False)
                except ChildFailed as exc:
                    print(f"FAIL: {exc}", file=sys.stderr)
                    return 1
                if child["failed"] or child["problems"]:
                    print(f"FAIL: {name} seed {seed}: {child['problems']}",
                          file=sys.stderr)
                    return 1
                golden[golden_key(name, seed, quick)] = {
                    "sha256": child["digest"], "parts": child["parts"],
                }
                print(f"{golden_key(name, seed, quick)}: {child['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


# -- compare -------------------------------------------------------------------


def load_record(spec: str) -> dict:
    """``FILE`` (its last record) or ``FILE#INDEX``."""
    path, _, index = spec.partition("#")
    return json.loads(Path(path).read_text())[int(index or -1)]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """better / worse / within bound / unresolved, for one metric.

    Unresolved when either side's spread is wider than the bound, unless
    every new run beats every base run.  Better needs the medians to
    differ by more than the base's own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median) / base_median
    all_better = (max(new) < min(base)) if better == "lower" else (
        min(new) > max(base))
    if all_better and worse_by < 0:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "within bound"


def compare(base: dict, new: dict) -> list[str]:
    """Report lines comparing two records, workload by workload."""
    import e2e_trace

    lines = [
        f"base {base['git_sha'][:12]}{'+' if base['dirty'] else ''} "
        f"({base['utc']}, seed {base['seed']}, quick {base['quick']}) vs "
        f"new {new['git_sha'][:12]}{'+' if new['dirty'] else ''} "
        f"({new['utc']}, seed {new['seed']}, quick {new['quick']})",
        f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'new/base':>9}  verdict",
    ]
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        old_runs = base["workloads"][name]["children"]
        new_runs = new["workloads"][name]["children"]
        for metric, _, better, bound in END_TO_END:
            a = [scaled(child, metric) for child in old_runs]
            b = [scaled(child, metric) for child in new_runs]
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{name:<16} {metric:<12} "
                f"{qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                f"{qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                f"{qb[1] / qa[1]:>9.4f}  {verdict(a, b, better, bound)}"
            )
        old_traced = base["workloads"][name]["traced"]
        new_traced = new["workloads"][name]["traced"]
        if old_traced and new_traced:
            old_layers = old_traced[0]["layers"]
            new_layers = new_traced[0]["layers"]
            for metric in e2e_trace.EXACT:
                same = old_layers[metric] == new_layers[metric]
                lines.append(
                    f"{name:<16} {metric:<28} {old_layers[metric]:>14.6g} "
                    f"{new_layers[metric]:>14.6g}  "
                    f"{'identical' if same else 'differs'}"
                )
    return lines


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.py compare")
    parser.add_argument("base", help="FILE or FILE#INDEX (default: last)")
    parser.add_argument("new", help="FILE or FILE#INDEX (default: last)")
    args = parser.parse_args(argv)
    for line in compare(load_record(args.base), load_record(args.new)):
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="End-to-end wall-clock benchmark (see module docstring)"
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes, one round")
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced rounds over the workloads")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write each traced child's spans here")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_golden:
        return write_golden_main()
    if args.workload:
        return budget_main(args)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return protocol_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
