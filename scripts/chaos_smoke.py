#!/usr/bin/env python
"""Chaos smoke: every scheme under fault injection, one command.

Runs the campus scenario through
:func:`repro.sim.runner.run_simulation` under a moderately hostile
:class:`~repro.faults.plan.FaultPlan` (SRS loss, GPS blackouts, ToF
outliers, wind, SNR drops/corruption) for each scheme that flies:
``skyran`` (plus a fault-free twin), ``fleet`` (two UAVs) and
``events``.  Each faulted run must degrade *gracefully*:

* no exception anywhere in the faulted epochs,
* faults actually fired (``faults.*`` counters are non-zero),
* at least one mitigation ran (``fallback.*`` counters are non-zero),
* for ``skyran``, worst-UE throughput keeps at least
  ``--min-degradation`` of its fault-free value after the final epoch.
  (The other schemes have no such bound: a fleet's fault-free worst
  UE can sit at 0 Mb/s, where a ratio means nothing.)

A fourth faulted run, ``skyran-localization``, flies ``skyran``
through a harsher SRS and ToF storm (:data:`LOCALIZATION_STRESS`) and
must also take a degraded-localization fallback: a re-flown leg, a
reused estimate or a blind one (:data:`LOCALIZATION_FALLBACKS`).

Counters for every fault fired and every fallback taken are printed,
and the whole result lands in ``BENCH_chaos.json``.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--out PATH]
        [--epochs N] [--min-degradation F] [--seed N]

Exit status is non-zero if a faulted run crashes, fires no faults,
takes no fallback, or (skyran) degrades beyond the bound, or if the
localization run takes none of the localization fallbacks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import SkyRANConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402

#: The storm the smoke flies through.
CHAOS_PLAN = dict(
    srs_drop_rate=0.5,
    srs_delay_rate=0.1,
    srs_delay_max_s=0.05,
    gps_blackout_rate_per_s=0.05,
    gps_blackout_duration_s=2.0,
    tof_outlier_rate=0.1,
    wind_speed_mps=1.0,
    snr_drop_rate=0.3,
    snr_corrupt_rate=0.1,
)


#: The ``skyran-localization`` run's storm: most SRS symbols lost and
#: most surviving ToF readings biased, so localization legs fail their
#: quality gates.
LOCALIZATION_STRESS = dict(srs_drop_rate=0.95, tof_outlier_rate=0.6)

#: The degraded-localization fallbacks that run must take (any one).
LOCALIZATION_FALLBACKS = (
    "fallback.localization_retry",
    "fallback.reuse_last_estimate",
    "fallback.blind_estimate",
)

#: Fleet size of the ``fleet`` run.
FLEET_UAVS = 2


def _run(faults, epochs: int, seed: int, scheme: str = "skyran"):
    scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
    cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
    kwargs = {"n_uavs": FLEET_UAVS} if scheme == "fleet" else {}
    return run_simulation(
        scenario,
        cfg,
        faults,
        scheme=scheme,
        n_epochs=epochs,
        budget_per_epoch_m=250.0,
        seed=seed,
        altitude=60.0,
        **kwargs,
    )


def _print_counters(scheme: str, result) -> None:
    print(f"[{scheme}] fault counters:")
    for name, count in result.fault_counters.items():
        print(f"    {name:<28s} {count:>8d}")
    print(f"[{scheme}] fallback counters:")
    if not result.fallback_counters:
        print("    (none taken)")
    for name, count in result.fallback_counters.items():
        print(f"    {name:<28s} {count:>8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_chaos.json",
        help="artifact path (default benchmarks/artifacts/BENCH_chaos.json)",
    )
    parser.add_argument("--epochs", type=int, default=2, help="epochs per run")
    parser.add_argument("--seed", type=int, default=7, help="controller/fault seed")
    parser.add_argument(
        "--min-degradation",
        type=float,
        default=0.3,
        help="skyran: faulted min-throughput must keep this fraction of fault-free",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    clean = _run(None, args.epochs, args.seed)
    t_clean = time.perf_counter() - t0

    plan = FaultPlan(seed=args.seed, **CHAOS_PLAN)
    print(f"[chaos] {plan.describe()}")
    runs = {}
    for scheme in ("skyran", "fleet", "events"):
        t0 = time.perf_counter()
        try:
            result = _run(plan, args.epochs, args.seed, scheme)
        except Exception as exc:  # the one thing chaos must never do
            print(
                f"FAIL: faulted {scheme} run raised {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 1
        runs[scheme] = (result, time.perf_counter() - t0)
    stress = FaultPlan(seed=args.seed, **LOCALIZATION_STRESS)
    print(f"[chaos] skyran-localization: {stress.describe()}")
    t0 = time.perf_counter()
    try:
        result = _run(stress, args.epochs, args.seed)
    except Exception as exc:
        print(
            f"FAIL: localization-stress run raised {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    runs["skyran-localization"] = (result, time.perf_counter() - t0)

    chaos, t_chaos = runs["skyran"]
    clean_min = clean.final.min_throughput_mbps
    chaos_min = chaos.final.min_throughput_mbps
    kept = chaos_min / clean_min if clean_min > 0 else 1.0
    print(
        f"[clean] rel {clean.relative_throughput:.3f}, "
        f"min {clean_min:.2f} Mbps ({t_clean:.1f} s)"
    )
    print(
        f"[chaos] rel {chaos.relative_throughput:.3f}, "
        f"min {chaos_min:.2f} Mbps = {kept:.0%} of fault-free ({t_chaos:.1f} s)"
    )
    for scheme, (result, wall) in runs.items():
        print(
            f"[{scheme}] {result.total_faults} faults, "
            f"{sum(result.fallback_counters.values())} fallbacks ({wall:.1f} s)"
        )
        _print_counters(scheme, result)

    payload = {
        "bench": "chaos_smoke",
        "plan": plan.describe(),
        "epochs": args.epochs,
        "clean": {
            "relative_throughput": clean.relative_throughput,
            "min_throughput_mbps": clean_min,
            "wall_time_s": t_clean,
        },
        "chaos": {
            "relative_throughput": chaos.relative_throughput,
            "min_throughput_mbps": chaos_min,
            "wall_time_s": t_chaos,
            "fault_counters": chaos.fault_counters,
            "fallback_counters": chaos.fallback_counters,
        },
        "schemes": {
            scheme: {
                "min_throughput_mbps": result.final.min_throughput_mbps,
                "wall_time_s": wall,
                "fault_counters": result.fault_counters,
                "fallback_counters": result.fallback_counters,
            }
            for scheme, (result, wall) in runs.items()
        },
        "min_throughput_kept": kept,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[artifact] {args.out}")

    for scheme, (result, _wall) in runs.items():
        if result.total_faults == 0:
            print(f"FAIL: the chaos plan fired no faults in {scheme}", file=sys.stderr)
            return 1
        if not any(result.fallback_counters.values()):
            print(f"FAIL: {scheme} took no fallback under faults", file=sys.stderr)
            return 1
    located = runs["skyran-localization"][0].fallback_counters
    if not any(located.get(name, 0) for name in LOCALIZATION_FALLBACKS):
        print(
            "FAIL: the localization-stress run took none of "
            + ", ".join(LOCALIZATION_FALLBACKS),
            file=sys.stderr,
        )
        return 1
    if kept < args.min_degradation:
        print(
            f"FAIL: min throughput kept {kept:.0%} < required "
            f"{args.min_degradation:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
