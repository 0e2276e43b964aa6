#!/usr/bin/env python3
"""SkyRAN controller benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fleet_campus --seed 1 --seconds 40 --trace 0

Runs the workload in a fresh interpreter with BLAS/OpenMP threads
pinned to 1 and the program's ``REPRO_*`` knobs cleared, prints every
metric with its unit, op count and failed-op share, and ends with one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
worker repeats the fixed work in passes over identical inputs; every
timing keeps the fastest repeat.  With ``--trace 1`` the worker runs
one untraced and one traced pass and the metrics are the per-layer
breakdown.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every worker runs with one BLAS/OpenMP thread and a fixed hash seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Program knobs that would silently change what is measured.
CLEARED_ENV = (
    "REPRO_NUM_WORKERS",
    "REPRO_STREAM_EPOCH",
    "REPRO_BACKEND",
    "REPRO_SHARD_UES",
    "REPRO_PERF",
)
#: One invocation must end within 180 s.
DEADLINE_S = 170.0

#: The metrics of BENCHMARK.json.  peak_rss_mb and tput_mbps are printed
#: beside them: on a 10-16 UE campus both follow the seed-drawn layout
#: too closely for a 0.25 bound (see README "Metrics").
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("flight_m", "m"),
)
#: Deterministic outputs, printed beside the end-to-end metrics.
OUTCOMES = (
    ("flight_m", "m"),
    ("tput_mbps", "Mb/s"),
    ("min_tput_mbps", "Mb/s"),
    ("served_mbps", "Mb/s"),
)
#: Layers called on every workload: their self time is a per-layer
#: metric; the other layers report calls (their self time is printed).
TIMED_LAYERS = (
    "localization",
    "lte.srs",
    "lte.tof",
    "localization.joint",
    "rem.interpolate",
    "core.placement",
    "core.rem_store",
    "trajectory",
    "trajectory.information",
    "flight",
    "channel",
)
#: A parent layer and the child layers that run nested inside it.
FAMILIES = {
    "localization": ("localization", "lte.srs", "lte.tof", "localization.joint"),
    "trajectory": ("trajectory", "trajectory.information"),
}
#: The layer family predicted to hold the largest self time, and whether
#: the prediction covers only the ops after the first.
PREDICTED = {
    "fleet_campus": ("localization", False),
    "city_100k": ("trajectory", True),
    "events_pf": ("traffic", False),
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    return env


def run_worker(workload: str, seed: int, traced: bool, timeout_s: float, spans_out=None) -> dict:
    """Run one pinned worker process to its end and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans-out", str(spans_out)]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(timeout_s, 1.0),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def problems(run: dict) -> list:
    out = list(run["violations"])
    if run["error"]:
        out.append(run["error"].strip().splitlines()[-1])
    return out


def failed_count(run: dict) -> int:
    """Failed ops of one pass, plus one for a failure no op can be blamed for."""
    unattributed = (run["error"] is not None and not run["failed_ops"]) or any(
        v.startswith("op -1:") for v in run["violations"]
    )
    return len(run["failed_ops"]) + int(unattributed)


def repeat_problems(passes: list) -> list:
    """Every pass ran identical inputs: its outputs must equal the first's."""
    first = passes[0]
    out = []
    for i, run in enumerate(passes[1:], 1):
        if run["outcome"] != first["outcome"] or len(run["op_s"]) != len(first["op_s"]):
            out.append(f"pass {i} ({'traced' if run['traced'] else 'untraced'}) differs from pass 0")
    return out


def fastest(passes: list) -> dict:
    """Fastest repeat of every op and of every stretch between ops.

    The ops and the stretches around them tile a pass, so ``run_s`` is
    the fixed work with each piece at its fastest pass: a slow host
    phase shorter than a pass costs only the pieces it overlapped.
    """
    same = [run for run in passes if len(run["op_s"]) == len(passes[0]["op_s"])]
    op_s = [min(times) for times in zip(*(run["op_s"] for run in same))]
    gap_s = [min(times) for times in zip(*(run["gap_s"] for run in same))]
    return {"run_s": sum(op_s) + sum(gap_s), "op_s": op_s}


def counter_rows(c: dict) -> list:
    """``(name, value, unit, base)`` rows from ``repro.perf`` counter deltas."""

    def get(key: str) -> int:
        return c.get(key, 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    samples = get("raytrace.samples")
    lookups = get("oracle.map_cache.hit") + get("oracle.map_cache.miss")
    symbols = get("srs.symbol_cache.hit") + get("srs.symbol_cache.miss")
    ttis = get("sched.tti")
    attempts = get("events.rach_attempts")
    return [
        ("channel.raytrace.rays", get("raytrace.rays"), "count", None),
        ("channel.raytrace.traced_ratio", ratio(get("raytrace.samples_traced"), samples), "ratio", samples),
        ("channel.map_cache.hit_ratio", ratio(get("oracle.map_cache.hit"), lookups), "ratio", lookups),
        ("lte.srs.symbols", get("loc.srs_symbols"), "count", None),
        ("lte.srs.symbol_cache.hit_ratio", ratio(get("srs.symbol_cache.hit"), symbols), "ratio", symbols),
        ("core.rem_store.lookup_candidates", get("rem_store.lookup_candidates"), "count", None),
        ("rem.groups", get("epoch.rem_groups"), "count", None),
        ("traffic.sched.tti", ttis, "count", None),
        ("traffic.sched.slab_ratio", ratio(get("sched.slab_tti"), ttis), "ratio", ttis),
        ("events.collision_ratio", ratio(get("events.rach_collisions"), attempts), "ratio", attempts),
        ("events.mac_rebuilds", get("events.mac_rebuild"), "count", None),
        ("events.replans", get("events.trigger_replan"), "count", None),
        ("core.fleet.handovers", get("fleet.handover"), "count", None),
        ("fallback.total", sum(v for k, v in c.items() if k.startswith("fallback.")), "count", None),
    ]


def end_to_end(rec: dict, timing: dict) -> dict:
    outcome = rec["passes"][0]["outcome"]
    values = {
        "setup_s": min(rec["setup_rounds_s"]),
        "run_s": timing["run_s"],
        "op_p50_s": statistics.median(timing["op_s"]),
        "flight_m": outcome["flight_m"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    layers = trace["layers"]
    rows = [(f"{name}.calls", layers.get(name, {}).get("calls", 0), "count") for name in LAYERS]
    rows += [(f"{name}.self_s", layers.get(name, {}).get("self_s", 0.0), "s") for name in TIMED_LAYERS]
    rows.append(("other.self_s", traced["run_s"] - trace["covered_s"], "s"))
    rows.append(("trace.overhead_s", traced["run_s"] - untraced["run_s"], "s"))
    rows += [(name, value, unit) for name, value, unit, _base in counter_rows(traced["counters"])]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def family_self_s(rows: dict) -> dict:
    """Self time summed per layer family (a layer outside one is its own)."""
    totals: dict = {}
    for layer, row in rows.items():
        family = next((f for f, members in FAMILIES.items() if layer in members), layer)
        totals[family] = totals.get(family, 0.0) + row["self_s"]
    return totals


def print_run(workload: str, rec: dict, timing: dict, failed: int, seconds: float) -> None:
    env = rec["env"]
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={env['blas_threads']}"
    )
    ops = timing["op_s"]
    untraced = [run for run in rec["passes"] if not run["traced"]]
    print(
        f"{workload} seed={rec['seed']}: {len(ops)} ops of {WORKLOADS[workload].op}, "
        f"{failed} failed ({failed / max(len(ops), 1):.1%}); "
        f"timings are the fastest of {len(untraced)} untraced pass(es)"
    )
    before, after = rec["host_ref_s"]
    rounds = rec["setup_rounds_s"]
    print(f"  host.ref_s       {before:.4f} s before, {after:.4f} s after (drift gauge)")
    print(
        f"  setup_s          {min(rounds):.4f} s  fastest of {len(rounds)} rebuilds "
        f"(median {statistics.median(rounds):.4f} s)"
    )
    print(
        f"  run_s            {timing['run_s']:.4f} s  fixed work, each op and each stretch "
        f"between ops at its fastest pass "
        f"(passes: {', '.join(format(run['run_s'], '.2f') for run in untraced)} s)"
    )
    print(f"  op_p50_s         {statistics.median(ops):.4f} s  n={len(ops)} ops")
    p90 = tail_percentile(ops, 0.9)
    print("  op_p90_s         " + (f"{p90:.4f} s  n={len(ops)} ops" if p90 is not None else "n/a: needs >= 100 ops"))
    print(f"  peak_rss_mb      {rec['peak_rss_mb']:.1f} MB")
    outcome = rec["passes"][0]["outcome"]
    for name, unit in OUTCOMES:
        value = outcome.get(name)
        shown = f"{value:.6g} {unit}  deterministic" if value is not None else "n/a on this workload"
        print(f"  {name:<16} {shown}")
    print(f"  digest           {outcome['digest']}")
    if timing["run_s"] > 2 * seconds:
        print(
            f"warning: run_s {timing['run_s']:.1f} s overran twice the {seconds:g} s budget",
            file=sys.stderr,
        )


def print_trace(workload: str, untraced: dict, traced: dict) -> list:
    """Print the per-layer table; return the traced run's integrity problems."""
    trace = traced["trace"]
    run_s = traced["run_s"]
    layers = trace["layers"]
    other = run_s - trace["covered_s"]
    print(
        f"traced run: {trace['spans']} spans, run_s {run_s:.4f} s, untraced "
        f"{untraced['run_s']:.4f} s, tracing overhead {run_s - untraced['run_s']:+.4f} s"
    )
    print(f"  {'layer':<24} {'calls':>8} {'self_s':>10} {'share':>7}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<24} {row['calls']:>8d} {row['self_s']:>10.4f} {row['self_s'] / run_s:>7.1%}")
    print(f"  {'other':<24} {'':>8} {other:>10.4f} {other / run_s:>7.1%}")
    total = sum(row["self_s"] for row in layers.values()) + other
    print(f"  sum of self times + other = {total:.4f} s = traced run_s {run_s:.4f} s")
    for name, value, unit, base in counter_rows(traced["counters"]):
        print(f"  {name:<34} {value:.6g} {unit}" + (f" of {base}" if base is not None else ""))
    predicted, after_first = PREDICTED[workload]
    totals = family_self_s(trace["layers_after_first_op"] if after_first else layers)
    top = max(totals, key=totals.get) if totals else None
    scope = "ops after the first" if after_first else "the run"
    verdict = "confirmed" if top == predicted else "not confirmed"
    print(f"  largest self time over {scope}: {top}; predicted {predicted}: {verdict}")
    if other > 0.1 * run_s:
        print(f"warning: other is {other / run_s:.1%} of the traced run_s", file=sys.stderr)

    issues = []
    if trace["leftover_wrappers"]:
        issues.append(f"wrappers left after restore: {trace['leftover_wrappers']}")
    missing = [name for name in WORKLOADS[workload].layers if name not in layers]
    if missing:
        issues.append(f"expected layers never called: {missing}")
    return issues


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="budget the fixed work is sized to"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    spans_out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json" if args.trace else None
    try:
        rec = run_worker(args.workload, args.seed, bool(args.trace), DEADLINE_S, spans_out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = rec["passes"]
    for run in passes:
        if not run["op_s"] or "flight_m" not in run["outcome"]:
            for problem in ["the workload ended before producing its metrics"] + problems(run):
                print(f"error: {problem}", file=sys.stderr)
            return 1

    untraced = [run for run in passes if not run["traced"]]
    timing = fastest(untraced)
    failed = max(failed_count(run) for run in passes)
    print_run(args.workload, rec, timing, failed, args.seconds)
    issues = [problem for run in passes for problem in problems(run)]
    issues += repeat_problems(passes)
    if args.trace:
        issues += print_trace(args.workload, untraced[0], passes[-1])
        metrics = per_layer(untraced[0], passes[-1])
    else:
        metrics = end_to_end(rec, timing)
    for issue in issues[:20]:
        print(f"FAIL: {issue}", file=sys.stderr)
    result = {
        "correct": not issues,
        "attempted": len(timing["op_s"]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
