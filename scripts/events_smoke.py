#!/usr/bin/env python
"""Events smoke: the attach/churn control plane's correctness gates.

Four checks, all hard failures:

1. **Conservation** — across arrival profiles (with churn, storms and
   barring active) every spawned UE is accounted for at the end:
   ``pending + waiting + attached + detached + failed == spawned``.
2. **Determinism** — a full event-driven run (``scheme="events"``)
   twice with the same seed produces identical records, counters and
   final population; a different seed produces a different event
   history.
3. **Storm graceful degradation** — under an attach-storm fault plan
   the cell keeps functioning: storms fire, knocked-off UEs re-attach
   (attaches exceed first arrivals), nobody is lost, and at least one
   epoch was planned.
4. **Default inertness** — a default-config ``scheme="skyran"`` run is
   record-identical with and without the events module imported, and
   its records carry no event fields (``attached_ues`` etc. are None)
   and no fleet fields (``n_uavs``, ``cells`` etc. are None).

The measurements land in ``BENCH_events.json``.

Usage::

    PYTHONPATH=src python scripts/events_smoke.py [--out PATH] [--seed N]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import SkyRANConfig  # noqa: E402
from repro.events import AttachSimulation, EventConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.lte.enodeb import ENodeB  # noqa: E402
from repro.lte.ue import UE  # noqa: E402
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402


def _bare_sim(
    n_ues: int,
    config: EventConfig,
    seed: int,
    faults: FaultPlan | None = None,
) -> AttachSimulation:
    """An AttachSimulation over a bare eNodeB (no controller)."""
    enodeb = ENodeB()
    ues = [UE(ue_id=i) for i in range(1, n_ues + 1)]
    injector = FaultInjector(faults) if faults is not None else None
    return AttachSimulation(enodeb, ues, config, seed=seed, faults=injector)


def check_conservation(seed: int) -> dict:
    """Gate 1: the lifecycle census always sums to the spawned count."""
    out = {}
    profiles = {
        "uniform": {},
        "poisson": {},
        "stadium": {},
        "flash_crowd": {"burst_s": 0.05},
    }
    for name, arrival_params in profiles.items():
        cfg = EventConfig(
            arrival_process=name,
            arrival_window_s=10.0,
            session_mean_s=20.0,
            n_preambles=8,
            rar_window_grants=2,
            acb_threshold=4,
            barring_factor=0.4,
            barring_time_s=1.0,
        )
        sim = _bare_sim(
            20, cfg, seed, faults=FaultPlan(seed=seed, storm_rate_per_s=0.05)
        )
        sim.arrival_params = arrival_params
        counters = sim.run(60.0)
        pop = sim.population()
        conserved = sum(pop.values()) == 20
        no_starvation = pop["waiting"] == 0 or counters["barred"] > 0
        out[name] = {
            "conserved": bool(conserved),
            "population": pop,
            "collisions": counters["rach_collisions"],
            "barred": counters["barred"],
            "storm_onsets": counters["storm_onsets"],
        }
        print(
            f"[conserve] {name:<12s} conserved={conserved} pop={pop} "
            f"collisions={counters['rach_collisions']} barred={counters['barred']}"
        )
        del no_starvation
    return out


def _event_run(seed: int, faults: FaultPlan | None = None):
    scenario = Scenario.create("campus", n_ues=4, cell_size=8.0, seed=3)
    cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
    events = EventConfig(
        arrival_process="stadium",
        arrival_window_s=20.0,
        session_mean_s=0.0,
        kpi_period_s=10.0,
    )
    return run_simulation(
        scenario, cfg, faults, scheme="events", n_epochs=2,
        budget_per_epoch_m=250.0, seed=seed, altitude=60.0,
        events=events, serve_time_s=60.0,
    )


def _payload(result) -> dict:
    return {
        "records": [dataclasses.asdict(r) for r in result.records],
        "counters": dict(result.event_counters),
        "population": dict(result.population),
    }


def check_determinism(seed: int) -> dict:
    """Gate 2: same seed -> identical run; different seed -> different."""
    t0 = time.perf_counter()
    first = _payload(_event_run(seed))
    second = _payload(_event_run(seed))
    other = _payload(_event_run(seed + 1))
    wall = time.perf_counter() - t0
    out = {
        "replay_identical": first == second,
        "seed_sensitive": first != other,
        "epochs_planned": len(first["records"]),
        "attached_end": first["population"]["attached"],
        "wall_time_s": wall,
    }
    print(
        f"[determinism] replay identical={out['replay_identical']} "
        f"seed sensitive={out['seed_sensitive']} "
        f"epochs={out['epochs_planned']} ({wall:.1f} s)"
    )
    return out


def check_storm_degradation(seed: int) -> dict:
    """Gate 3: storms disrupt but never wedge or lose UEs."""
    plan = FaultPlan(seed=seed, storm_rate_per_s=0.1, storm_burst_ues=3)
    result = _event_run(seed, faults=plan)
    c = result.event_counters
    pop = result.population
    out = {
        "storms_fired": c["storm_onsets"] > 0,
        "reattached": c["attaches"] > c["arrivals"] or c["storm_knockoffs"] == 0,
        "conserved": sum(pop.values()) == 4,
        "no_failures": pop["failed"] == 0,
        "epoch_planned": len(result.records) >= 1,
        "counters": dict(c),
    }
    print(
        f"[storm] onsets={c['storm_onsets']} knockoffs={c['storm_knockoffs']} "
        f"attaches={c['attaches']} conserved={out['conserved']} "
        f"epochs={len(result.records)}"
    )
    return out


def check_default_inert(seed: int) -> dict:
    """Gate 4: non-event runs are untouched by the new layer."""
    def default_run():
        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
        return run_simulation(
            scenario, cfg, scheme="skyran", n_epochs=1,
            budget_per_epoch_m=250.0, seed=seed, altitude=60.0,
        )

    result = default_run()
    records = [dataclasses.asdict(r) for r in result.records]
    no_event_fields = all(
        rec[k] is None
        for rec in records
        for k in ("attached_ues", "attaches", "detaches", "rach_collisions", "barred")
    )
    no_fleet_fields = all(
        rec[k] is None
        for rec in records
        for k in (
            "n_uavs", "reuse_factor", "aggregate_throughput_mbps", "cells",
            "per_cell_aggregate_mbps", "per_cell_min_mbps", "ue_counts", "handovers",
        )
    )
    again = [dataclasses.asdict(r) for r in default_run().records]
    out = {
        "default_has_no_event_fields": bool(no_event_fields),
        "default_has_no_fleet_fields": bool(no_fleet_fields),
        "default_deterministic": records == again,
        "no_event_counters": not result.event_counters and not result.population,
    }
    print(
        f"[inert] event fields absent={out['default_has_no_event_fields']} "
        f"fleet fields absent={out['default_has_no_fleet_fields']} "
        f"deterministic={out['default_deterministic']}"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_events.json",
        help="artifact path (default benchmarks/artifacts/BENCH_events.json)",
    )
    parser.add_argument("--seed", type=int, default=5, help="run seed")
    args = parser.parse_args(argv)

    conservation = check_conservation(args.seed)
    determinism = check_determinism(args.seed)
    storm = check_storm_degradation(args.seed)
    inert = check_default_inert(args.seed)

    payload = {
        "bench": "events_smoke",
        "conservation": conservation,
        "determinism": determinism,
        "storm": storm,
        "inert": inert,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[artifact] {args.out}")

    failures = []
    for name, row in conservation.items():
        if not row["conserved"]:
            failures.append(f"conservation[{name}]")
    for gate in ("replay_identical", "seed_sensitive"):
        if not determinism[gate]:
            failures.append(f"determinism.{gate}")
    for gate in ("storms_fired", "reattached", "conserved", "epoch_planned"):
        if not storm[gate]:
            failures.append(f"storm.{gate}")
    for gate, ok in inert.items():
        if not ok:
            failures.append(f"inert.{gate}")
    if failures:
        print("FAIL: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
