#!/usr/bin/env python
"""Traffic smoke: the MAC subsystem's correctness gates, one command.

Four checks, all hard failures:

1. **Kernel == oracle** — three Poisson TTI batches through each
   scheduler must be *bit-identical* between the vectorized kernel
   and the pure-Python per-TTI replay of ``tests/traffic_oracles.py``
   (grants, served bytes and final backlogs).  The first batch starts
   from empty queues; each later one starts from the one before's
   backlog, with a fresh scheduler and oracle, as a later epoch's
   batch does.  The first two are loaded; the third offers less than
   the cell drains, so it serves more than it is offered.
2. **Conservation** — every TTI with any schedulable UE grants exactly
   ``n_prb`` PRBs; zero-rate UEs never receive a grant; in each batch
   served bytes never exceed offered + the backlog it started with,
   a bound the third batch only meets through that backlog.
3. **Determinism** — a short loaded epoch per scheduler through
   :func:`repro.sim.runner.run_simulation` twice produces identical
   offered/served/backlog records.
4. **Zero fault-free RNG divergence** — a default-config run with an
   inert :class:`~repro.faults.plan.FaultPlan` wired in is record-
   identical to one with no plan at all, and its records carry no
   traffic fields (the controller built no MAC state).

The measurements land in ``BENCH_traffic.json``.

Usage::

    python scripts/traffic_smoke.py [--out PATH]
        [--ues N] [--tti N] [--seed N]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the oracle lives in tests/

from repro.core.config import SkyRANConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402
from repro.traffic import (  # noqa: E402
    QueueBank,
    available_schedulers,
    make_scheduler,
    make_traffic_model,
    run_tti_batch,
)
from repro.traffic.simulate import rate_per_prb_bytes  # noqa: E402
from tests.traffic_oracles import make_oracle, replay  # noqa: E402


def check_kernel_vs_reference(n_ues: int, n_tti: int, seed: int) -> dict:
    """Gates 1 + 2 on three heterogeneous-SNR batches per scheduler.

    Every batch runs on the same queue bank, so each later one starts
    from the backlog before it (the outage UE's never drains).  Two
    loaded batches build the backlog; a light third one drains it.
    """
    ue_ids = tuple(range(1, n_ues + 1))
    snr = np.linspace(2.0, 24.0, n_ues)
    snr[-1] = -10.0  # one UE in outage: must never be granted
    rates = rate_per_prb_bytes(snr)
    loaded = make_traffic_model("poisson", rate_mbps=6.0)
    light = make_traffic_model("poisson", rate_mbps=0.2)
    out = {}
    for name in available_schedulers():
        heavy = [loaded.source(u, seed=seed) for u in ue_ids]
        draining = [light.source(u, seed=seed + 1) for u in ue_ids]
        q_k = QueueBank(ue_ids)
        identical = conserved = outage_clean = served_bounded = True
        carried = drained = False
        t_kernel = t_reference = 0.0
        for batch, sources in enumerate((heavy, heavy, draining)):
            tti0 = batch * n_tti
            offered = np.stack([s.offered_bytes(n_tti) for s in sources])
            start_backlog = q_k.backlog_bytes.copy()
            t0 = time.perf_counter()
            res_k = run_tti_batch(
                bytes_per_prb=rates,
                offered_bytes=offered,
                scheduler=make_scheduler(name),
                queues=q_k,
                tti0=tti0,
            )
            t_kernel += time.perf_counter() - t0
            t0 = time.perf_counter()
            res_r = replay(
                make_oracle(name), rates, offered, start_backlog, tti0=tti0
            )
            t_reference += time.perf_counter() - t0
            identical &= all(
                np.array_equal(getattr(res_k, f), getattr(res_r, f))
                for f in ("grants", "served_bytes", "backlog_end_bytes")
            )
            granted = res_k.grants.sum(axis=0)
            schedulable_ttis = granted > 0
            conserved &= bool(np.all(granted[schedulable_ttis] == res_k.n_prb))
            outage_clean &= int(res_k.grants[-1].sum()) == 0
            served_bounded &= bool(
                np.all(
                    res_k.served_bytes.sum(axis=1)
                    <= offered.sum(axis=1) + start_backlog + 1e-6
                )
            )
            if batch == 1:
                carried = bool(np.any(start_backlog > 0))
            if batch == 2:
                drained = bool(res_k.served_bytes.sum() > offered.sum())
        out[name] = {
            "bit_identical": bool(identical),
            "prb_conserved": conserved,
            "no_grant_in_outage": bool(outage_clean),
            "served_bounded": served_bounded,
            "second_batch_carries_backlog": carried,
            "third_batch_serves_backlog": drained,
            "kernel_s": t_kernel,
            "reference_s": t_reference,
            "speedup": t_reference / t_kernel if t_kernel > 0 else float("inf"),
        }
        print(
            f"[kernel] {name:<18s} identical={identical} conserved={conserved} "
            f"kernel {t_kernel * 1e3:.1f} ms vs oracle {t_reference * 1e3:.1f} ms "
            f"({out[name]['speedup']:.1f}x)"
        )
    return out


def _records_payload(result) -> list:
    return [dataclasses.asdict(r) for r in result.records]


def _loaded_run(scheduler: str, seed: int):
    scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
    cfg = SkyRANConfig(
        rem_cell_size_m=16.0,
        measurement_budget_m=250.0,
        traffic_model="poisson",
        scheduler=scheduler,
        traffic_rate_mbps=4.0,
        epoch_trigger_metric="served",
    )
    return run_simulation(
        scenario, cfg, scheme="skyran", n_epochs=1,
        budget_per_epoch_m=250.0, seed=seed, altitude=60.0,
    )


def check_loaded_epochs(seed: int) -> dict:
    """Gate 3: a loaded epoch per scheduler, twice, identical records."""
    out = {}
    for name in available_schedulers():
        t0 = time.perf_counter()
        first = _records_payload(_loaded_run(name, seed))
        second = _records_payload(_loaded_run(name, seed))
        wall = time.perf_counter() - t0
        rec = first[-1]
        populated = all(
            rec[k] is not None for k in ("offered_mbps", "served_mbps", "backlog_bytes")
        )
        sane = (
            populated
            and rec["served_mbps"] <= rec["offered_mbps"] + 1e-9
            and rec["backlog_bytes"] >= 0.0
        )
        out[name] = {
            "deterministic": first == second,
            "fields_populated": bool(populated),
            "sane": bool(sane),
            "offered_mbps": rec["offered_mbps"],
            "served_mbps": rec["served_mbps"],
            "wall_time_s": wall,
        }
        print(
            f"[loaded] {name:<18s} offered {rec['offered_mbps']:.2f} -> "
            f"served {rec['served_mbps']:.2f} Mbps, "
            f"deterministic={out[name]['deterministic']} ({wall:.1f} s)"
        )
    return out


def check_fault_free_divergence(seed: int) -> dict:
    """Gate 4: inert plan == no plan; default config builds no MAC state."""
    def default_run(faults):
        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
        return run_simulation(
            scenario, cfg, faults, scheme="skyran", n_epochs=1,
            budget_per_epoch_m=250.0, seed=seed, altitude=60.0,
        )

    bare = _records_payload(default_run(None))
    inert = _records_payload(default_run(FaultPlan.none(seed=seed)))
    no_traffic_state = all(
        rec[k] is None
        for rec in bare
        for k in ("offered_mbps", "served_mbps", "backlog_bytes")
    )
    out = {
        "inert_plan_identical": bare == inert,
        "default_has_no_traffic_fields": bool(no_traffic_state),
    }
    print(
        f"[fault-free] inert plan identical={out['inert_plan_identical']}, "
        f"default traffic fields absent={out['default_has_no_traffic_fields']}"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_traffic.json",
        help="artifact path (default benchmarks/artifacts/BENCH_traffic.json)",
    )
    parser.add_argument("--ues", type=int, default=12, help="UEs in the kernel gate")
    parser.add_argument("--tti", type=int, default=1500, help="TTIs in the kernel gate")
    parser.add_argument("--seed", type=int, default=5, help="traffic/controller seed")
    args = parser.parse_args(argv)

    kernel = check_kernel_vs_reference(args.ues, args.tti, args.seed)
    loaded = check_loaded_epochs(args.seed)
    fault_free = check_fault_free_divergence(args.seed)

    payload = {
        "bench": "traffic_smoke",
        "n_ues": args.ues,
        "n_tti": args.tti,
        "kernel_vs_reference": kernel,
        "loaded_epochs": loaded,
        "fault_free": fault_free,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[artifact] {args.out}")

    failures = []
    for name, row in kernel.items():
        for gate in (
            "bit_identical",
            "prb_conserved",
            "no_grant_in_outage",
            "served_bounded",
            "second_batch_carries_backlog",
            "third_batch_serves_backlog",
        ):
            if not row[gate]:
                failures.append(f"kernel[{name}].{gate}")
    for name, row in loaded.items():
        for gate in ("deterministic", "fields_populated", "sane"):
            if not row[gate]:
                failures.append(f"loaded[{name}].{gate}")
    for gate, ok in fault_free.items():
        if not ok:
            failures.append(f"fault_free.{gate}")
    if failures:
        print("FAIL: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
