"""Experiment registry, paper claims and the cached, parallel grid runner.

Every figure module registers one :class:`Experiment` — a ``(name,
grid, point, aggregate, claims)`` tuple:

* ``grid(quick=..., **overrides)`` expands the figure's parameter
  grid into a list of JSON-able point-parameter dicts (the overrides
  are the figure's historical ``run()`` keyword arguments: ``seeds``,
  ``budgets``, ...);
* ``point(params, quick)`` computes ONE grid point and returns a
  JSON-able record — it must be a module-level function (so worker
  processes can import it) and depend only on ``params``/``quick``;
* ``aggregate(records, quick)`` folds the point records into the
  figure's historical result dict (``rows`` + ``paper`` + any extra
  series, numpy arrays welcome);
* ``claims(result)`` checks the figure's paper claims on that result
  and returns :class:`Claim` rows.  :data:`KNOWN_FAILING` lists the
  claims that fail today; :func:`claim_report` labels each claim
  ``pass``, ``FAIL``, ``known-failing`` or ``STALE`` (listed but
  passing), and the CLI run exits non-zero on ``FAIL`` or ``STALE``.

:func:`run_experiment` is the one runner behind the ``python -m
repro.experiments`` CLI, :meth:`Experiment.run`, the EXPERIMENTS.md
generator and the smoke gates.  It fans grid points out over a
process pool (``REPRO_NUM_WORKERS``; the only pool in the package —
the channel map oracle runs in process, and the ray tracer and the
SRS/ToF kernels start at most one helper thread per call and join it
before returning; see :mod:`repro._rowblocks`) whose workers are
fresh interpreters pinned to one BLAS/OpenMP thread each
(:func:`worker_pool`), shares the per-process
channel-oracle LRU caches across points (see
:func:`repro.experiments.common.scenario_for`), and memoizes
completed points in the on-disk
:class:`~repro.experiments.artifacts.ArtifactStore` so re-runs are
incremental.  Point records are always passed through a JSON round
trip before aggregation, which is what makes a warm-cache re-run
bit-identical to a cold one.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.experiments.artifacts import (
    EXPERIMENT_SCHEMA,
    PERF_SCHEMA,
    ArtifactStore,
    code_fingerprint,
    point_key,
    roundtrip,
)
from repro.perf import perf

#: Environment knob for the default process-pool width of
#: :func:`run_experiment`.  Unset keeps everything serial.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: Environment every pool worker starts with: one BLAS/OpenMP thread
#: and a fixed hash seed, the pins of the benchmark runner.  A worker
#: that kept the default BLAS width would run ``workers x cores`` BLAS
#: threads on ``cores`` CPUs.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Registration order is preserved; the CLI lists experiments in it.
_EXPERIMENTS: Dict[str, "Experiment"] = {}

#: Paper claims that fail on the default quick grid of this tree, as
#: ``(experiment, claim name)`` pairs.  Each entry is roadmap debt and
#: cites the EXPERIMENTS.md section holding its measured value.  A run
#: fails when an unlisted claim fails *or* a listed claim passes, so
#: the set cannot go stale.
KNOWN_FAILING = frozenset(
    {
        # EXPERIMENTS.md "headline": skyran_rel 0.702 at the 250 m (~30 s) budget.
        ("headline", "skyran_rel > 0.75"),
        # EXPERIMENTS.md "headline": Uniform 0.734 beats SkyRAN, ratio 0.955.
        ("headline", "sky_over_uniform > 1.0"),
        # EXPERIMENTS.md "fig9": 0 m error gives 0.812, the 25 m row 0.892.
        ("fig9", "error 0 m relative_throughput >= error 25 m relative_throughput - 0.05"),
        # EXPERIMENTS.md "fig26": STATIC rows reached 2/3 (seed 1 never hits 0.9x).
        ("fig26", "DYNAMIC skyran_time_s >= STATIC skyran_time_s * 0.5"),
        ("fig26", "STATIC skyran_time_s <= uniform_time_s * 1.35"),
        # EXPERIMENTS.md "fig27": rural uniform 0/2, nyc and large 1/2 reached.
        ("fig27", "large skyran_time_min > rural skyran_time_min"),
        ("fig27", "large uniform_time_min > rural uniform_time_min"),
        # EXPERIMENTS.md "fig28": no run reaches a 5 dB REM (0/3 in every row).
        ("fig28", "STATIC skyran_time_min <= uniform_time_min * 1.35"),
        ("fig28", "DYNAMIC skyran_time_min <= uniform_time_min * 1.35"),
    }
)


class Claim(NamedTuple):
    """One checked paper claim: ``value`` compared against ``bound``."""

    name: str
    value: float
    bound: float
    ok: bool


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def check(
    lhs: str, value, op: str, bound, rhs: Optional[str] = None, valid: bool = True
) -> Claim:
    """The claim ``value <op> bound``, named ``"<lhs> <op> <rhs>"``.

    ``rhs`` names a bound computed from other measured values and
    defaults to the bound's literal.  ``valid=False`` fails the claim
    whatever the comparison says (an overhead row with a censored run).
    """
    name = f"{lhs} {op} {bound if rhs is None else rhs}"
    return Claim(name, float(value), float(bound), bool(valid and _OPS[op](value, bound)))


def claim_status(experiment: str, claim: Claim) -> str:
    """``pass``/``FAIL``, or ``known-failing``/``STALE`` when listed."""
    known = (experiment, claim.name) in KNOWN_FAILING
    if claim.ok:
        return "STALE" if known else "pass"
    return "known-failing" if known else "FAIL"


@dataclass(frozen=True)
class Experiment:
    """One registered figure: grid, point function, aggregator and claims."""

    name: str
    title: str
    grid: Callable[..., List[Dict]]
    point: Callable[[Dict, bool], Dict]
    aggregate: Callable[[List[Dict], bool], Dict]
    claims: Optional[Callable[[Dict], List[Claim]]] = None

    @property
    def point_id(self) -> str:
        """Module-qualified point-function name (the cache identity).

        Figures that share a point function (Figs. 29/30) share cache
        entries; renaming or moving the function misses cleanly.
        """
        return f"{self.point.__module__}.{self.point.__qualname__}"

    def run(self, quick: bool = True, **overrides) -> Dict:
        """The figure's result dict, computed in process without a disk cache."""
        return run_experiment(self, quick=quick, overrides=overrides).result


def claim_report(exp: Experiment, result: Dict) -> List[Tuple[Claim, str]]:
    """Every claim of ``exp`` on ``result``, each with its status."""
    claims = exp.claims(result) if exp.claims is not None else []
    return [(claim, claim_status(exp.name, claim)) for claim in claims]


def register(
    name: str,
    *,
    title: str,
    grid: Callable[..., List[Dict]],
    point: Callable[[Dict, bool], Dict],
    aggregate: Callable[[List[Dict], bool], Dict],
    claims: Optional[Callable[[Dict], List[Claim]]] = None,
) -> Experiment:
    """Register a figure; returns the :class:`Experiment` handle.

    Re-registering a name overwrites (module reloads are harmless).
    """
    exp = Experiment(
        name=name, title=title, grid=grid, point=point, aggregate=aggregate, claims=claims
    )
    _EXPERIMENTS[name] = exp
    return exp


def get_experiment(name: str) -> Optional[Experiment]:
    ensure_loaded()
    return _EXPERIMENTS.get(name)


def experiment_names() -> List[str]:
    ensure_loaded()
    return list(_EXPERIMENTS)


def ensure_loaded() -> None:
    """Import every figure module so registrations are populated."""
    import repro.experiments  # noqa: F401  (import side effect)


def _pool_point(task) -> Dict:
    """Process-pool worker: compute one grid point by experiment name."""
    name, params, quick = task
    ensure_loaded()
    exp = _EXPERIMENTS[name]
    return roundtrip(exp.point(params, quick))


@dataclass
class ExperimentRun:
    """Everything one :func:`run_experiment` invocation produced."""

    experiment: str
    quick: bool
    overrides: Dict
    params: List[Dict]
    keys: List[str]
    records: List[Dict]
    result: Dict
    computed: int
    cached: int
    workers: int
    wall_time_s: float
    perf_delta: Dict = field(default_factory=dict)
    artifact_path: Optional[Path] = None
    perf_artifact_path: Optional[Path] = None


def default_num_workers() -> int:
    """Worker count from ``REPRO_NUM_WORKERS`` (serial when unset).

    Anything but a positive integer raises ``ValueError`` rather than
    quietly running serial.
    """
    raw = os.environ.get(NUM_WORKERS_ENV)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{NUM_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return n


@contextmanager
def worker_pool(n_workers: int) -> Iterator[ProcessPoolExecutor]:
    """A process pool whose workers start with :data:`WORKER_ENV`.

    BLAS reads its thread count once, when the library loads, so the
    pins must be in place before a worker imports numpy: the workers
    are spawned (fresh interpreters, not forks of this process) while
    this process's environment carries the pins.  The environment is
    restored when the pool shuts down; this process's own BLAS, loaded
    long before, is unaffected.
    """
    saved = {key: os.environ.get(key) for key in WORKER_ENV}
    os.environ.update(WORKER_ENV)
    try:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_experiment(
    experiment: "Experiment | str",
    quick: bool = True,
    overrides: Optional[Dict] = None,
    workers: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
    force: bool = False,
) -> ExperimentRun:
    """Run one figure's grid with caching and optional parallelism.

    Parameters
    ----------
    experiment:
        An :class:`Experiment` or a registered name.
    quick:
        Fidelity flag threaded to grid and point functions.
    overrides:
        Grid keyword overrides (the figure's historical ``run()``
        kwargs — ``seeds``, ``budgets``, ...).
    workers:
        Process-pool width for missing points; defaults to the
        ``REPRO_NUM_WORKERS`` convention (serial when unset, keeping
        results reproducible run-to-run on any machine — parallel
        output is bit-identical regardless).
    store:
        On-disk :class:`ArtifactStore`; None disables caching and
        artifact output (the in-process ``run()`` default).
    force:
        Recompute every point even when cached.
    """
    if isinstance(experiment, str):
        exp = get_experiment(experiment)
        if exp is None:
            raise KeyError(f"unknown experiment {experiment!r}")
    else:
        exp = experiment
    overrides = dict(overrides or {})

    t0 = time.perf_counter()
    perf_before = perf.snapshot()
    params = [roundtrip(p) for p in exp.grid(quick=quick, **overrides)]
    fingerprint = code_fingerprint()
    keys = [point_key(exp.point_id, p, quick, fingerprint) for p in params]

    records: List[Optional[Dict]] = [None] * len(params)
    missing: List[int] = []
    if store is not None and not force:
        for idx, key in enumerate(keys):
            cached_record = store.load_point(key)
            if cached_record is not None:
                records[idx] = cached_record
                perf.count("experiments.point.cache_hit")
            else:
                missing.append(idx)
    else:
        missing = list(range(len(params)))

    n_workers = default_num_workers() if workers is None else max(1, int(workers))
    with perf.span("experiments.points"):
        if len(missing) > 1 and n_workers > 1:
            tasks = [(exp.name, params[i], quick) for i in missing]
            with worker_pool(min(n_workers, len(missing))) as pool:
                for idx, record in zip(missing, pool.map(_pool_point, tasks)):
                    records[idx] = record
                    perf.count("experiments.point.computed")
        else:
            for idx in missing:
                records[idx] = roundtrip(exp.point(params[idx], quick))
                perf.count("experiments.point.computed")

    if store is not None:
        for idx in missing:
            store.save_point(keys[idx], exp.point_id, params[idx], quick, records[idx])

    with perf.span("experiments.aggregate"):
        result = exp.aggregate(records, quick)

    wall = time.perf_counter() - t0
    run = ExperimentRun(
        experiment=exp.name,
        quick=quick,
        overrides=overrides,
        params=params,
        keys=keys,
        records=records,
        result=result,
        computed=len(missing),
        cached=len(params) - len(missing),
        workers=n_workers,
        wall_time_s=wall,
        perf_delta=perf.snapshot_since(perf_before),
    )
    if store is not None:
        artifact = {
            "schema": EXPERIMENT_SCHEMA,
            "experiment": exp.name,
            "title": exp.title,
            "quick": quick,
            "fingerprint": fingerprint,
            "overrides": roundtrip(overrides),
            "points": [
                {"key": key, "params": p, "record": r}
                for key, p, r in zip(keys, params, records)
            ],
            "result": roundtrip(result),
        }
        run.artifact_path = store.save_experiment(exp.name, artifact)
        # Wall times and cache-hit splits are honest measurements of
        # THIS run — they live in a sidecar so the result artifact
        # stays byte-identical across warm re-runs.
        run.perf_artifact_path = store.save_perf(
            exp.name,
            {
                "schema": PERF_SCHEMA,
                "experiment": exp.name,
                "quick": quick,
                "wall_time_s": wall,
                "workers": n_workers,
                "points_total": len(params),
                "points_computed": run.computed,
                "points_cached": run.cached,
                "perf": run.perf_delta,
            },
        )
    return run
