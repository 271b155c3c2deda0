"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``list``
    Show every available experiment with its title.
``run <exp_id> [...]``
    Run one or more experiments (``all`` for the full suite) and print the
    same rows/series the paper's figures report.
``status``
    Print the canonical device/code parameters and calibration anchors.
``lint [paths ...]``
    Run the determinism lint (see :mod:`repro.analysis.lint`) against
    the committed baseline; ``--write-baseline`` regenerates it.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import params as canon


#: Experiment id -> (title, :class:`ExperimentSuite` method).  ``list``
#: reads only the titles, so it builds no suite and loads no scipy.
RUNNERS = {
    "fig03": ("MLC threshold-voltage distributions", "run_fig03"),
    "fig04": ("compact-model fit (ISPP staircase)", "run_fig04"),
    "fig05": ("RBER vs P/E cycles (SV vs DV)", "run_fig05"),
    "fig06": ("program power per pattern", "run_fig06"),
    "fig07": ("UBER vs RBER per capability", "run_fig07"),
    "fig08": ("ECC latency over the lifetime", "run_fig08"),
    "fig09": ("write-throughput loss", "run_fig09"),
    "fig10": ("UBER improvement (min-UBER mode)", "run_fig10"),
    "fig11": ("read-throughput gain (max-read mode)", "run_fig11"),
    "abl_blocksize": ("ECC block-size ablation", "run_ablation_blocksize"),
    "abl_chien": ("Chien parallelism ablation", "run_ablation_chien"),
    "abl_tworound": ("two-round load mitigation", "run_ablation_tworound"),
    "abl_pareto": ("operating-point Pareto analysis", "run_ablation_pareto"),
    "abl_retention": ("retention x cycling ablation", "run_ablation_retention"),
    "abl_partition": ("boot-time SLC/MLC partitioning ablation",
                      "run_ablation_partition"),
    "sys_des": ("discrete-event system simulation", "run_system_des"),
    "sys_services": ("differentiated storage services", "run_system_services"),
    "sys_ssd": ("multi-die SSD scaling (command scheduler)", "run_system_ssd"),
    "sys_pipeline": ("command-pipeline modes (phase scheduler)",
                     "run_system_pipeline"),
    "sys_openloop": ("open-loop arrival sweep (session queue pair)",
                     "run_system_openloop"),
    "sys_observe": ("device telemetry (trace + utilization + SMART)",
                    "run_system_observe"),
    "sys_sustained": ("sustained-write steady state (session GC modes)",
                      "run_system_sustained"),
    "uber_mc": ("Monte-Carlo UBER sweep", "run_uber_mc"),
}


def _cmd_list() -> int:
    for exp_id, (title, _) in RUNNERS.items():
        print(f"{exp_id:<14s} {title}")
    return 0


def _cmd_run(seed: int, exp_ids: list[str]) -> int:
    if "all" in exp_ids:
        exp_ids = list(RUNNERS)
    unknown = [e for e in exp_ids if e not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(RUNNERS)} (or 'all')", file=sys.stderr)
        return 2
    from repro.analysis.experiments import ExperimentSuite

    suite = ExperimentSuite(seed=seed)
    for exp_id in exp_ids:
        _, method = RUNNERS[exp_id]
        start = time.perf_counter()
        result = getattr(suite, method)()
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{exp_id} regenerated in {elapsed:.2f} s]\n")
    return 0


def _cmd_status() -> int:
    from repro.core.policy import CrossLayerPolicy
    from repro.nand.ispp import IsppAlgorithm

    policy = CrossLayerPolicy()
    model = policy.rber_model
    print("canonical configuration")
    print(f"  page:               {canon.PAGE_DATA_BYTES} B data "
          f"+ {canon.PAGE_SPARE_BYTES} B spare")
    print(f"  BCH:                GF(2^{policy.m}), "
          f"t = {policy.t_min}..{policy.t_max}, "
          f"UBER target {policy.uber_target:.0e}")
    print(f"  ECC clock:          {canon.ECC_CLOCK_HZ / 1e6:.0f} MHz, "
          f"p = {canon.LFSR_PARALLELISM}, "
          f"Chien budget {canon.CHIEN_MULTIPLIER_BUDGET} multipliers")
    print(f"  ISPP:               {canon.VPP_START:.0f}-{canon.VPP_END:.0f} V, "
          f"delta {canon.DELTA_ISPP * 1e3:.0f} mV")
    print(f"  rated endurance:    {canon.RATED_PE_CYCLES:.0e} P/E cycles")
    print("calibration anchors")
    for n in (0.0, 1e3, 1e5):
        t_sv = policy.required_t_for(IsppAlgorithm.SV, n)
        t_dv = policy.required_t_for(IsppAlgorithm.DV, n)
        print(f"  N = {n:>8.0f}: RBER SV {model.rber_sv(n):.3e} (t={t_sv}), "
              f"DV {model.rber_dv(n):.3e} (t={t_dv})")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import lint

    violations = lint.lint_paths(args.paths)
    fresh = lint.counts_of(violations)
    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            handle.write(lint.format_baseline(fresh))
        print(f"wrote {args.baseline}: {sum(fresh.values())} grandfathered "
              f"violation(s) across {len(fresh)} (file, rule) pair(s)")
        return 0
    if args.no_baseline:
        baseline = lint.parse_baseline("")
    else:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = lint.parse_baseline(handle.read())
        except FileNotFoundError:
            baseline = lint.parse_baseline("")
    new, stale = lint.diff_against(fresh, baseline)
    if new:
        failing = {(path, code) for path, code, _, _ in new}
        for violation in violations:
            if (violation.path, violation.code) in failing:
                print(violation.render())
        for path, code, have, allowed in new:
            print(f"{path}: {code} x{have} exceeds baseline ({allowed} "
                  "grandfathered)", file=sys.stderr)
        print(f"lint: {len(new)} (file, rule) pair(s) over baseline",
              file=sys.stderr)
        return 1
    for path, code, have, allowed in stale:
        print(f"note: stale baseline entry {path} {code} (baseline "
              f"{allowed}, found {have}) — rerun with --write-baseline",
              file=sys.stderr)
    total = sum(fresh.values())
    grandfathered = f" ({total} grandfathered)" if total else ""
    print(f"lint: clean{grandfathered}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-layer MLC NAND trade-offs (DATE 2012 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2012,
                        help="experiment suite seed (default 2012)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("experiments", nargs="+")
    sub.add_parser("status", help="print canonical parameters and anchors")
    lint_p = sub.add_parser(
        "lint", help="run the determinism lint (DET101-DET107)"
    )
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--baseline", default="lint-baseline.txt",
                        help="baseline file (default: lint-baseline.txt)")
    lint_p.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline from this run")
    lint_p.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (report every violation)")

    args = parser.parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "status":
        return _cmd_status()
    return _cmd_run(args.seed, args.experiments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
