"""Run one benchmark workload in this process and print its record.

``run.py`` starts this script in a fresh interpreter whose BLAS/OpenMP
threads are pinned to 1 and whose ``REPRO_*`` knobs are cleared.  It
runs the workload's fixed work in several passes on identical inputs.
Before every pass it rebuilds the program and the world from scratch
(re-import of the program, world, controllers) a few times, timing each
round; then it runs the pass with every op timed and checked.  It
prints one JSON record, all rounds and passes in it, as its last line.

    python3 perfbench/worker.py --workload fleet_campus --seed 1 [--trace --spans-out PATH]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Instrumentation, Tracer, resolve, root_time, self_times  # noqa: E402

#: From-scratch set-up rounds per worker, spread over the passes; the
#: last round before a pass builds the world that pass runs.
SETUP_ROUNDS = 8


def host_ref_s() -> float:
    """Time a fixed Python-loop + SVD kernel: the host-speed drift gauge."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(5):
        np.linalg.svd(a)
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_program() -> None:
    for name in wl.PROGRAM_MODULES:
        importlib.import_module(name)


def drop_program() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def install_probe(probe: wl.Probe, log: wl.OpLog):
    """Wrap one probe's method on its class; returns what restores it."""
    owner, attr, raw = resolve(*probe.target)

    def wrapper(obj, *args, **kwargs):
        before = probe.before_fn(obj) if probe.before_fn else None
        if not probe.op:
            result = raw(obj, *args, **kwargs)
            probe.check(log, obj, result, before)
            return result
        idx = len(log.durations)
        log.durations.append(math.nan)
        log.set_op(idx)
        t0 = time.perf_counter()
        log.starts.append(t0)
        try:
            result = raw(obj, *args, **kwargs)
            log.durations[idx] = time.perf_counter() - t0
            probe.check(log, obj, result, before)
            return result
        except Exception:
            if math.isnan(log.durations[idx]):
                log.durations[idx] = time.perf_counter() - t0
            log.failed.add(idx)
            raise
        finally:
            log.set_op(-1)

    setattr(owner, attr, wrapper)
    return owner, attr, raw


def set_up(workload: wl.Workload, seed: int, rounds: int) -> tuple:
    """Rebuild program and world from scratch; returns (world, round times)."""
    times = []
    for _ in range(rounds):
        world = None
        drop_program()
        gc.collect()
        t0 = time.perf_counter()
        import_program()
        world = workload.build(seed)
        times.append(time.perf_counter() - t0)
    return world, times


def run_pass(workload: wl.Workload, world: dict, traced: bool, spans_out=None) -> dict:
    """Run the workload's fixed work once on ``world``, every op timed."""
    from repro.perf import perf

    tracer = Tracer() if traced else None
    log = wl.OpLog(tracer)
    patched = [install_probe(p, log) for p in workload.probes]
    instrumentation = Instrumentation(tracer) if traced else None
    if instrumentation is not None:
        instrumentation.install()
    counters_before = perf.counters()
    outcome, error = {}, None
    t0 = time.perf_counter()
    try:
        outcome = workload.run(world, log)
    except Exception:
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    # The stretches before, between and after the ops; with the ops they
    # tile the pass, so run.py can keep each stretch's fastest pass.
    ends = [t0] + [start + d for start, d in zip(log.starts, log.durations)]
    gap_s = [start - end for start, end in zip(log.starts + [t0 + run_s], ends)]
    if instrumentation is not None:
        instrumentation.restore()
    for owner, attr, raw in reversed(patched):
        setattr(owner, attr, raw)
    counters = perf.counters_since(counters_before)
    outcome["digest"] = hashlib.sha256(json.dumps(log.decisions).encode()).hexdigest()[:16]
    record = {
        "traced": traced,
        "run_s": run_s,
        "op_s": log.durations,
        "gap_s": gap_s,
        "failed_ops": sorted(log.failed),
        "violations": log.violations,
        "error": error,
        "outcome": outcome,
        "counters": counters,
    }
    if tracer is not None:
        record["trace"] = {
            "layers": self_times(tracer.spans),
            "layers_after_first_op": self_times(tracer.spans, ops=range(1, len(log.durations))),
            "covered_s": root_time(tracer.spans),
            "spans": len(tracer.spans),
            "leftover_wrappers": instrumentation.leftover_wrappers(),
        }
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_out, "w") as fh:
                json.dump(
                    {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": tracer.spans},
                    fh,
                )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--trace", action="store_true", help="one untraced pass, then one traced pass"
    )
    parser.add_argument("--spans-out", type=Path, help="file the traced pass writes its spans to")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    ref_before = host_ref_s()
    # Warm-up: third-party imports and bytecode compilation stay out of set-up.
    import_program()
    plan = [False, True] if args.trace else [False] * workload.passes
    setup, passes = [], []
    for traced in plan:
        world, times = set_up(workload, args.seed, math.ceil(SETUP_ROUNDS / len(plan)))
        setup += times
        passes.append(run_pass(workload, world, traced, args.spans_out))
        world = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "host_ref_s": [ref_before, host_ref_s()],
        "setup_rounds_s": setup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
