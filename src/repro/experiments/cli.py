"""Unified experiment CLI.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig8 --quick          # cached run
    python -m repro.experiments run fig20 fig23 --workers 4
    python -m repro.experiments run all --full            # paper scale
    python -m repro.experiments run fig8 --no-cache       # pure compute
    python -m repro.experiments summary fig8              # table from artifact

``run`` memoizes completed grid points under the artifact store
(``benchmarks/artifacts/experiments`` or ``$REPRO_EXP_DIR``), so a
warm re-run skips every point computation and reproduces the result
artifact byte for byte; ``--force`` recomputes, ``--no-cache``
bypasses the store entirely.  ``summary`` prints the stored table
without computing anything.

Both print each figure's paper claims under its rows.  ``run`` exits
1 when a claim fails that :data:`~repro.experiments.registry.KNOWN_FAILING`
does not list, or a listed claim passes.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.artifacts import ArtifactStore
from repro.experiments.common import print_claims, print_rows
from repro.experiments.registry import (
    claim_report,
    experiment_names,
    get_experiment,
    run_experiment,
)


def _resolve_names(names) -> "list[str] | None":
    known = experiment_names()
    if list(names) == ["all"]:
        return known
    bad = [n for n in names if n not in known]
    if bad:
        for name in bad:
            print(
                f"unknown experiment {name!r}; try 'python -m repro.experiments list'",
                file=sys.stderr,
            )
        return None
    return list(names)


def _cmd_list() -> int:
    print("Available experiments:")
    for name in experiment_names():
        exp = get_experiment(name)
        print(f"  {name:<28s} {exp.title}")
    return 0


def _print_result(exp, result) -> bool:
    """Rows and claims of one result; True when a claim gates the run."""
    print_rows(exp.name, result.get("rows", []), result.get("paper"))
    report = claim_report(exp, result)
    print_claims(report)
    return any(status in ("FAIL", "STALE") for _, status in report)


def _cmd_run(args) -> int:
    import inspect

    names = _resolve_names(args.experiments)
    if names is None:
        return 2
    store = None if args.no_cache else ArtifactStore(args.cache_dir)
    quick = not args.full
    failed = []
    for name in names:
        exp = get_experiment(name)
        overrides = {}
        if args.scheduler is not None:
            # Only experiments whose grid sweeps schedulers (the
            # traffic figures) understand the knob; pin their sweep to
            # the one requested discipline and leave the rest alone.
            grid_params = inspect.signature(exp.grid).parameters
            if "schedulers" in grid_params:
                overrides["schedulers"] = [args.scheduler]
            else:
                print(
                    f"   [{name}] ignores --scheduler (no scheduler sweep)",
                    file=sys.stderr,
                )
        run = run_experiment(
            exp,
            quick=quick,
            overrides=overrides,
            workers=args.workers,
            store=store,
            force=args.force,
        )
        if _print_result(exp, run.result):
            failed.append(name)
        status = (
            f"   [{run.experiment}] {len(run.params)} points: "
            f"{run.computed} computed, {run.cached} cached "
            f"({run.workers} worker{'s' if run.workers != 1 else ''}, "
            f"{run.wall_time_s:.1f} s)"
        )
        if run.artifact_path is not None:
            status += f" -> {run.artifact_path}"
        print(status)
    if failed:
        print(
            f"claims FAIL or STALE in: {', '.join(failed)} "
            "(a STALE claim passes but is listed in KNOWN_FAILING)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_summary(args) -> int:
    names = _resolve_names(args.experiments)
    if names is None:
        return 2
    store = ArtifactStore(args.cache_dir)
    status = 0
    for name in names:
        artifact = store.load_experiment(name)
        if artifact is None:
            print(
                f"no artifact for {name!r} under {store.root}; "
                f"run 'python -m repro.experiments run {name}' first",
                file=sys.stderr,
            )
            status = 1
            continue
        _print_result(get_experiment(name), artifact.get("result", {}))
        fidelity = "quick" if artifact.get("quick", True) else "full"
        print(f"   [{name}] {len(artifact.get('points', []))} points, {fidelity} fidelity")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="SkyRAN reproduction: unified cached experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments (cached, parallel)")
    run_p.add_argument(
        "experiments", nargs="+", help="experiment names (e.g. fig20 headline) or 'all'"
    )
    fidelity = run_p.add_mutually_exclusive_group()
    fidelity.add_argument(
        "--quick", action="store_true", help="quick fidelity (the default)"
    )
    fidelity.add_argument(
        "--full", action="store_true", help="paper-scale fidelity (1 m grids; slow)"
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for grid points (default: $REPRO_NUM_WORKERS or serial)",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store root (default: benchmarks/artifacts/experiments or $REPRO_EXP_DIR)",
    )
    run_p.add_argument(
        "--no-cache", action="store_true", help="compute in memory, write no artifacts"
    )
    run_p.add_argument(
        "--force", action="store_true", help="recompute points even when cached"
    )
    run_p.add_argument(
        "--scheduler",
        default=None,
        help=(
            "pin scheduler-sweep experiments (e.g. traffic-load) to one TTI "
            "scheduler: round_robin, proportional_fair or max_min"
        ),
    )

    sum_p = sub.add_parser("summary", help="print stored result tables")
    sum_p.add_argument("experiments", nargs="+", help="experiment names or 'all'")
    sum_p.add_argument("--cache-dir", default=None, help="artifact store root")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_summary(args)
