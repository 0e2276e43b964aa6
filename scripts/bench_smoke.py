#!/usr/bin/env python
"""Smoke benchmark: headline figure + channel-oracle speedup, one command.

Runs two quick measurements and writes a ``BENCH_headline.json``
artifact with wall times and :mod:`repro.perf` counters:

1. **Oracle kernel speedup** — times ``ChannelModel.snr_maps`` on a
   campus terrain with 10 UEs (serial workers) against a faithful
   re-implementation of the *seed* kernel (batch-wide sampling
   density, no ceiling pruning, per-UE Python loop), and checks the
   two agree to float tolerance.
2. **Headline experiment** — the paper's abstract claim in quick mode
   (SkyRAN vs Uniform vs Centroid), timed with perf counters.  Every
   scheme is driven through :func:`repro.sim.runner.run_simulation`
   (via the shared ``run_scheme`` helper), the same entrypoint the
   chaos smoke uses with faults enabled.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--out PATH]
        [--min-speedup X] [--skip-headline] [--repeats N]

Exit status is non-zero if results disagree or the measured speedup
falls below ``--min-speedup`` (0 = report only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the MAC and SINR oracles live in tests/

from repro.channel.fspl import fspl_db  # noqa: E402
from repro.perf import peak_rss_bytes, perf  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402

#: Operating altitude for the oracle measurement (a typical campus
#: optimum from the Fig. 8 reproduction).
ALTITUDE_M = 60.0


# -- faithful copy of the seed oracle (the baseline being beaten) ---------------


def _seed_obstructed_lengths(terrain, tx_xyz, rx_xyz, step=1.0):
    """The seed ray kernel: one batch-wide sample grid, no pruning."""
    tx = np.atleast_2d(np.asarray(tx_xyz, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_xyz, dtype=float))
    if rx.shape[0] == 1 and tx.shape[0] > 1:
        rx = np.broadcast_to(rx, tx.shape)
    margin = 0.02
    n = tx.shape[0]
    dist = np.linalg.norm(rx - tx, axis=1)
    horiz = np.linalg.norm((rx - tx)[:, :2], axis=1)
    max_dist = float(dist.max()) if n else 0.0
    if max_dist == 0.0:
        return np.zeros(n)
    n_steps = max(2, int(np.ceil(max_dist / step)))
    t = np.linspace(margin, 1.0 - margin, n_steps)
    chunk = max(1, int(8_000_000 // n_steps))
    out = np.empty(n, dtype=float)
    grid = terrain.grid
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        txc, rxc = tx[lo:hi], rx[lo:hi]
        xs = txc[:, None, 0] + t[None, :] * (rxc[:, 0] - txc[:, 0])[:, None]
        ys = txc[:, None, 1] + t[None, :] * (rxc[:, 1] - txc[:, 1])[:, None]
        zs = txc[:, None, 2] + t[None, :] * (rxc[:, 2] - txc[:, 2])[:, None]
        ix = np.floor((xs - grid.origin_x) / grid.cell_size).astype(int)
        iy = np.floor((ys - grid.origin_y) / grid.cell_size).astype(int)
        np.clip(ix, 0, grid.nx - 1, out=ix)
        np.clip(iy, 0, grid.ny - 1, out=iy)
        surface = terrain.heights[iy, ix]
        blocked = zs < surface
        out[lo:hi] = blocked.mean(axis=1)
    effective = np.maximum(horiz, 0.15 * dist)
    return out * effective * (1.0 - 2 * margin)


def _seed_ground_truth_stack(channel, ue_positions, altitude, grid):
    """The seed map oracle: per-UE Python loop over full-map traces."""
    maps = []
    centers = grid.centers_flat()
    uav = np.column_stack([centers, np.full(len(centers), float(altitude))])
    for ue in ue_positions:
        ue = np.asarray(ue, dtype=float).reshape(3)
        dist = np.linalg.norm(uav - ue[None, :], axis=1)
        loss = fspl_db(dist, channel.freq_hz)
        obstructed = _seed_obstructed_lengths(channel.terrain, uav, ue, channel.ray_step_m)
        excess = np.where(
            obstructed > 0.0,
            np.minimum(
                channel.diffraction_db + channel.excess_db_per_m * obstructed,
                channel.excess_cap_db,
            ),
            0.0,
        )
        loss = loss + excess
        if channel.shadowing_sigma_db > 0:
            loss = loss + channel._shadowing_for(ue).at_many(uav[:, :2])
        if channel.common_sigma_db > 0:
            loss = loss + channel._common_shadowing().at_many(uav[:, :2])
        maps.append(channel.link.snr_db(loss).reshape(grid.shape))
    return np.stack(maps)


def _time_min(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_oracle(n_ues: int, repeats: int) -> dict:
    """Seed-vs-batched ground-truth stack timing on the campus terrain."""
    scenario = Scenario.create("campus", n_ues=n_ues, seed=0)
    ues = scenario.ue_positions()
    grid = scenario.eval_grid
    channel = scenario.channel

    # Warm the shadowing fields so both sides time the map kernel, not
    # one-time field synthesis.
    batched = channel.snr_maps(ues, ALTITUDE_M, grid, use_cache=False)
    seed_stack = _seed_ground_truth_stack(channel, ues, ALTITUDE_M, grid)

    diff = np.abs(batched - seed_stack)
    t_seed = _time_min(
        lambda: _seed_ground_truth_stack(channel, ues, ALTITUDE_M, grid), repeats
    )
    perf.reset()
    t_batched = _time_min(
        lambda: channel.snr_maps(ues, ALTITUDE_M, grid, use_cache=False),
        repeats,
    )
    oracle_counters = perf.counters()
    # Cached epoch re-query (what runner epochs actually pay after the
    # first truth computation).
    t_cached = _time_min(
        lambda: channel.snr_maps(ues, ALTITUDE_M, grid), repeats
    )
    return {
        "terrain": "campus",
        "n_ues": n_ues,
        "altitude_m": ALTITUDE_M,
        "eval_grid_shape": list(grid.shape),
        "seed_reference_s": t_seed,
        "batched_s": t_batched,
        "cached_s": t_cached,
        "speedup": t_seed / t_batched if t_batched > 0 else float("inf"),
        "mean_abs_diff_db": float(diff.mean()),
        "p99_abs_diff_db": float(np.percentile(diff, 99)),
        "max_abs_diff_db": float(diff.max()),
        "perf_counters": oracle_counters,
    }


def bench_mac(n_ues: int, repeats: int) -> dict:
    """TTI-batch kernel vs the per-TTI pure-Python oracle.

    Four workloads over 2000 TTIs, all through the per-TTI loop:
    full-buffer and loaded Poisson round-robin, proportional-fair and
    max-min.  PF and max-min grant from a heap (one ``heapreplace`` per
    PRB), round-robin with numpy over UEs.  Each case first checks the
    kernel is bit-identical to the oracle replay
    (``tests/traffic_oracles.py``), a hard failure; the timings are
    reported only.
    """
    from repro.traffic import (  # noqa: E402
        QueueBank,
        make_scheduler,
        make_traffic_model,
        run_tti_batch,
    )
    from repro.traffic.simulate import rate_per_prb_bytes  # noqa: E402
    from tests.traffic_oracles import make_oracle, replay  # noqa: E402

    n_tti = 2000
    ue_ids = tuple(range(1, n_ues + 1))
    rates = rate_per_prb_bytes(np.linspace(0.0, 25.0, n_ues))
    poisson = make_traffic_model("poisson", rate_mbps=6.0)
    offered = np.stack(
        [poisson.source(u, seed=7).offered_bytes(n_tti) for u in ue_ids]
    )
    zeros = np.zeros_like(offered)

    def run_case(sched_name, offered_arr, full_buffer, reference):
        # Fresh queue bank, scheduler and oracle per call: all carry
        # state (backlogs, PF averages) that must not leak between timings.
        queues = QueueBank(ue_ids, full_buffer=full_buffer)
        if reference:
            return replay(
                make_oracle(sched_name), rates, offered_arr, queues.backlog_bytes
            )
        return run_tti_batch(
            bytes_per_prb=rates,
            offered_bytes=offered_arr,
            scheduler=make_scheduler(sched_name),
            queues=queues,
        )

    cases = {}
    for case, sched, off, full_buffer in (
        ("full_buffer_round_robin", "round_robin", zeros, True),
        ("poisson_round_robin", "round_robin", offered, False),
        ("poisson_proportional_fair", "proportional_fair", offered, False),
        ("poisson_max_min", "max_min", offered, False),
    ):
        res_k = run_case(sched, off, full_buffer, False)
        res_r = run_case(sched, off, full_buffer, True)
        identical = all(
            np.array_equal(getattr(res_k, f), getattr(res_r, f))
            for f in ("grants", "served_bytes", "backlog_end_bytes")
        )
        t_ref = _time_min(lambda: run_case(sched, off, full_buffer, True), repeats)
        perf.reset()
        t_kernel = _time_min(lambda: run_case(sched, off, full_buffer, False), repeats)
        counters = perf.counters()
        cases[case] = {
            "scheduler": sched,
            "bit_identical": bool(identical),
            "reference_s": t_ref,
            "kernel_s": t_kernel,
            "speedup": t_ref / t_kernel if t_kernel > 0 else float("inf"),
            "served_mbps": float(res_k.aggregate_served_mbps()),
            "perf_counters": counters,
        }
    return {"n_ues": n_ues, "n_tti": n_tti, "cases": cases}


def bench_epoch(ues_list, ref_ues: int, budget_m: float, n_tti: int) -> dict:
    """Full SkyRANController epochs over city populations.

    Each point runs :meth:`CityScenario.run_controller_epoch`, the
    city's one epoch: the real controller end to end — localization on
    a deduped sample, altitude search, REM seeding, trajectory planning
    over dedup waypoints, measurement flight, streamed
    uncertainty-discounted placement — then serving the population
    through OLLA and the sharded MAC.  REM-key dedup points run at
    every population size (work saturates at the occupied REM-key
    cells, so wall time and peak allocation stay flat) and before the
    per-UE reference (dedup off: one REM group per UE), which runs once
    at ``ref_ues`` and anchors the ``--min-epoch-speedup`` gate.  Each
    point records its tracemalloc peak over the whole epoch and the
    process peak RSS after it — the numbers ``--max-epoch-alloc-mb``
    and ``--max-epoch-rss-mb`` bound.
    """
    from repro.city import CityScenario  # noqa: E402

    def run_point(n_ues: int, per_ue: bool) -> dict:
        scenario = CityScenario.create(n_ues=n_ues, seed=0)
        perf.reset()
        t0 = time.perf_counter()
        with perf.span("bench.controller_epoch", track_memory=True):
            out = scenario.run_controller_epoch(
                budget_m=budget_m, n_tti=n_tti, per_ue=per_ue
            )
        wall = time.perf_counter() - t0
        stat = perf.spans()["bench.controller_epoch"]
        return {
            "n_ues": n_ues,
            "per_ue": per_ue,
            "wall_s": wall,
            "peak_alloc_bytes": stat.peak_alloc_bytes,
            "max_rss_bytes": stat.max_rss_bytes,
            "n_rem_groups": out["n_rem_groups"],
            "altitude_m": float(out["altitude_m"]),
            "min_snr_db": float(out["min_snr_db"]),
            "mean_snr_db": float(out["mean_snr_db"]),
            "aggregate_served_mbps": float(out["aggregate_served_mbps"]),
        }

    points = [run_point(n, per_ue=False) for n in ues_list]
    if ref_ues not in ues_list:
        points.append(run_point(ref_ues, per_ue=False))
    reference = run_point(ref_ues, per_ue=True)
    dedup_at_ref = next(p for p in points if p["n_ues"] == ref_ues)
    return {
        "terrain": "large",
        "budget_m": budget_m,
        "n_tti": n_tti,
        "points": points,
        "reference": reference,
        "speedup": (
            reference["wall_s"] / dedup_at_ref["wall_s"]
            if dedup_at_ref["wall_s"] > 0
            else float("inf")
        ),
    }


def bench_fleet(n_ues: int, repeats: int) -> dict:
    """Batched fleet SINR stack vs the scalar per-(UAV, UE) loop.

    Four co-channel sky cells over the campus with ``n_ues`` UEs at
    reuse factor 2, shadowing off so the one-Tx-many-Rx ray batch
    engages.  The batched path (one ray batch per UAV via
    :func:`fleet_sinr_db_stack`) must be bit-identical to the scalar
    ``sinr_db`` oracle of ``tests/link_oracles.py`` — one call per UE,
    one ray per (UAV, UE) pair — before any timing.
    """
    from repro.channel.interference import (  # noqa: E402
        fleet_rx_power_dbm,
        fleet_sinr_db_stack,
        reuse_carriers,
    )
    from tests.link_oracles import sinr_db  # noqa: E402

    scenario = Scenario.create(
        "campus", n_ues=n_ues, seed=0, channel_kwargs={"shadowing_sigma_db": 0.0}
    )
    grid = scenario.grid
    fracs = (0.25, 0.75)
    uavs = [
        np.array(
            [
                grid.origin_x + fx * grid.width,
                grid.origin_y + fy * grid.height,
                ALTITUDE_M,
            ]
        )
        for fx in fracs
        for fy in fracs
    ]
    ues = scenario.ue_positions()
    carriers = reuse_carriers(len(uavs), 2)
    serving = np.argmax(fleet_rx_power_dbm(scenario.channel, uavs, ues), axis=0)

    def batched():
        return fleet_sinr_db_stack(
            scenario.channel, uavs, ues, serving, carriers=carriers
        )

    def reference():
        return np.array(
            [
                sinr_db(scenario.channel, uavs, ue, int(serving[k]), carriers=carriers)
                for k, ue in enumerate(ues)
            ]
        )

    s_batched = batched()
    s_reference = reference()
    identical = bool(np.array_equal(s_batched, s_reference))
    t_ref = _time_min(reference, repeats)
    perf.reset()
    t_batched = _time_min(batched, repeats)
    counters = perf.counters()
    return {
        "terrain": "campus",
        "n_ues": n_ues,
        "n_uavs": len(uavs),
        "reuse_factor": 2,
        "bit_identical": identical,
        "reference_s": t_ref,
        "batched_s": t_batched,
        "speedup": t_ref / t_batched if t_batched > 0 else float("inf"),
        "mean_sinr_db": float(s_batched.mean()),
        "perf_counters": counters,
    }


def bench_headline() -> dict:
    """The headline figure in quick mode, timed with perf counters.

    Driven through the unified experiment runner (the same path the
    ``python -m repro.experiments`` CLI takes), so the bench exercises
    the registry grid expansion and point fan-out, not a bespoke loop.
    """
    from repro.experiments.registry import run_experiment

    perf.reset()
    run = run_experiment(
        "headline", quick=True, overrides={"seeds": (0, 1), "budget_m": 450.0}
    )
    return {
        "wall_time_s": run.wall_time_s,
        "points_total": len(run.params),
        "points_computed": run.computed,
        "rows": run.result["rows"],
        "paper": run.result.get("paper"),
        "perf": run.perf_delta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_headline.json",
        help="artifact path (default benchmarks/artifacts/BENCH_headline.json)",
    )
    parser.add_argument("--ues", type=int, default=10, help="UEs in the oracle bench")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (min taken)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail if oracle speedup falls below this (0 = report only)",
    )
    parser.add_argument(
        "--skip-headline", action="store_true", help="only run the oracle bench"
    )
    parser.add_argument(
        "--mac",
        action="store_true",
        help="also run the MAC scheduler bench (fails if the kernel differs "
        "from the per-TTI oracle)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="also run the fleet SINR-stack bench and gate on "
        "--min-fleet-speedup",
    )
    parser.add_argument(
        "--fleet-ues",
        type=int,
        default=200,
        help="UEs in the fleet SINR bench (4 co-channel cells)",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=3.0,
        help="with --fleet, fail if the batched SINR stack is not at "
        "least this many times faster than the scalar per-(UAV, UE) "
        "loop (generous CI floor; 0 = report only)",
    )
    parser.add_argument(
        "--epoch",
        action="store_true",
        help="also run full controller epochs over city populations and "
        "gate with --min-epoch-speedup / --max-epoch-alloc-mb / "
        "--max-epoch-rss-mb",
    )
    parser.add_argument(
        "--epoch-ues",
        type=str,
        default="1000,10000,100000",
        help="comma-separated population sizes for REM-key dedup epoch points",
    )
    parser.add_argument(
        "--epoch-ref-ues",
        type=int,
        default=10000,
        help="population size of the per-UE (dedup off) reference epoch",
    )
    parser.add_argument(
        "--epoch-budget-m",
        type=float,
        default=240.0,
        help="measurement budget per controller epoch",
    )
    parser.add_argument(
        "--epoch-tti", type=int, default=100, help="TTIs served after each epoch"
    )
    parser.add_argument(
        "--min-epoch-speedup",
        type=float,
        default=3.0,
        help="with --epoch, fail if the dedup epoch is not at least "
        "this many times faster than the per-UE reference at the "
        "reference population (generous CI floor; 0 = report only)",
    )
    parser.add_argument(
        "--max-epoch-alloc-mb",
        type=float,
        default=256.0,
        help="with --epoch, fail if any dedup point's whole-epoch "
        "tracemalloc peak exceeds this many MB (generous CI bound; "
        "0 = report only)",
    )
    parser.add_argument(
        "--max-epoch-rss-mb",
        type=float,
        default=2048.0,
        help="with --epoch, fail if peak RSS after the largest dedup "
        "point (run before the per-UE reference) exceeds this many MB "
        "(generous CI bound; 0 = report only)",
    )
    args = parser.parse_args(argv)

    payload = {"bench": "headline_smoke"}
    oracle = bench_oracle(args.ues, args.repeats)
    payload["ground_truth_oracle"] = oracle
    print(
        f"[oracle] campus/{args.ues} UEs @ {ALTITUDE_M:.0f} m: "
        f"seed {oracle['seed_reference_s']:.3f} s -> batched {oracle['batched_s']:.3f} s "
        f"({oracle['speedup']:.2f}x, cached re-query {oracle['cached_s'] * 1e3:.1f} ms, "
        f"mean diff {oracle['mean_abs_diff_db']:.3f} dB)"
    )

    sched = None
    if args.mac:
        sched = bench_mac(args.ues, args.repeats)
        payload["sched"] = sched
        for case, row in sched["cases"].items():
            print(
                f"[mac] {case}: oracle {row['reference_s'] * 1e3:.1f} ms -> "
                f"kernel {row['kernel_s'] * 1e3:.1f} ms ({row['speedup']:.2f}x, "
                f"identical={row['bit_identical']}, "
                f"{row['served_mbps']:.1f} Mbps served)"
            )

    fleet = None
    if args.fleet:
        fleet = bench_fleet(args.fleet_ues, args.repeats)
        payload["fleet"] = fleet
        print(
            f"[fleet] campus/{fleet['n_uavs']} UAVs x {fleet['n_ues']} UEs "
            f"(reuse {fleet['reuse_factor']}): "
            f"scalar {fleet['reference_s'] * 1e3:.1f} ms -> "
            f"stack {fleet['batched_s'] * 1e3:.1f} ms "
            f"({fleet['speedup']:.2f}x, identical={fleet['bit_identical']}, "
            f"mean SINR {fleet['mean_sinr_db']:.1f} dB)"
        )

    epoch = None
    if args.epoch:
        ues_list = [int(x) for x in args.epoch_ues.split(",") if x.strip()]
        epoch = bench_epoch(
            ues_list, args.epoch_ref_ues, args.epoch_budget_m, args.epoch_tti
        )
        payload["epoch"] = epoch
        for pt in epoch["points"]:
            print(
                f"[epoch] {pt['n_ues']:>7d} UEs dedup: {pt['wall_s']:.2f} s, "
                f"peak alloc {pt['peak_alloc_bytes'] / 1e6:.1f} MB, "
                f"peak RSS {pt['max_rss_bytes'] / 1e6:.1f} MB, "
                f"{pt['n_rem_groups']} REM groups, "
                f"min SNR {pt['min_snr_db']:.1f} dB, "
                f"{pt['aggregate_served_mbps']:.1f} Mbps served"
            )
        ref = epoch["reference"]
        print(
            f"[epoch] {ref['n_ues']:>7d} UEs per-UE reference: "
            f"{ref['wall_s']:.2f} s, "
            f"peak alloc {ref['peak_alloc_bytes'] / 1e6:.1f} MB, "
            f"{ref['n_rem_groups']} REM groups "
            f"-> dedup speedup {epoch['speedup']:.2f}x"
        )

    if not args.skip_headline:
        headline = bench_headline()
        payload["headline"] = headline
        row = headline["rows"][0]
        print(
            f"[headline] {headline['wall_time_s']:.1f} s — "
            f"skyran {row['skyran_rel']:.3f}, uniform {row['uniform_rel']:.3f}, "
            f"centroid {row['centroid_rel']:.3f}"
        )

    payload["process_peak_rss_bytes"] = peak_rss_bytes()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[artifact] {args.out}")

    if oracle["mean_abs_diff_db"] > 0.5:
        # The optimized kernel samples each ray at its own length
        # (the seed oversampled short rays at the batch-wide density),
        # so cells at building edges legitimately differ by a few dB;
        # a large *mean* disagreement would mean a broken kernel.
        print("FAIL: batched oracle disagrees with the seed reference", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and oracle["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {oracle['speedup']:.2f}x < required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if sched is not None:
        mismatched = [c for c, r in sched["cases"].items() if not r["bit_identical"]]
        if mismatched:
            print(
                "FAIL: MAC kernel differs from the per-TTI oracle: "
                + ", ".join(mismatched),
                file=sys.stderr,
            )
            return 1
    if fleet is not None:
        if not fleet["bit_identical"]:
            print(
                "FAIL: batched fleet SINR stack differs from the scalar "
                "per-(UAV, UE) reference",
                file=sys.stderr,
            )
            return 1
        if args.min_fleet_speedup > 0 and fleet["speedup"] < args.min_fleet_speedup:
            print(
                f"FAIL: fleet SINR speedup {fleet['speedup']:.2f}x "
                f"< required {args.min_fleet_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if epoch is not None:
        not_deduped = [
            p["n_ues"] for p in epoch["points"] if p["n_rem_groups"] >= p["n_ues"]
        ]
        if not_deduped:
            print(
                "FAIL: epoch points did not dedup REM keys: "
                + ", ".join(map(str, not_deduped)),
                file=sys.stderr,
            )
            return 1
        ref = epoch["reference"]
        if ref["n_rem_groups"] != ref["n_ues"]:
            print(
                f"FAIL: per-UE reference epoch used {ref['n_rem_groups']} REM "
                f"groups for {ref['n_ues']} UEs",
                file=sys.stderr,
            )
            return 1
        if args.min_epoch_speedup > 0 and epoch["speedup"] < args.min_epoch_speedup:
            print(
                f"FAIL: dedup epoch speedup {epoch['speedup']:.2f}x "
                f"< required {args.min_epoch_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        worst = max(epoch["points"], key=lambda p: p["peak_alloc_bytes"])
        alloc_mb = worst["peak_alloc_bytes"] / 1e6
        if args.max_epoch_alloc_mb > 0 and alloc_mb > args.max_epoch_alloc_mb:
            print(
                f"FAIL: dedup epoch peak allocation {alloc_mb:.1f} MB at "
                f"{worst['n_ues']} UEs > bound {args.max_epoch_alloc_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
        largest = max(epoch["points"], key=lambda p: p["n_ues"])
        rss_mb = largest["max_rss_bytes"] / 1e6
        if args.max_epoch_rss_mb > 0 and rss_mb > args.max_epoch_rss_mb:
            print(
                f"FAIL: dedup epoch peak RSS {rss_mb:.1f} MB at "
                f"{largest['n_ues']} UEs > bound {args.max_epoch_rss_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
