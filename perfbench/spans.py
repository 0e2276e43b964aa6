"""Span tracer that times the program's layers from outside.

The traced run wraps each layer's public functions where their callers
look them up (every ``repro.*`` module global bound to the function,
and the class attribute for methods), records one span per call in
memory and restores the originals afterwards.  Nothing here imports
``repro`` at module level, so the arithmetic is testable on synthetic
spans.

A span is ``[name, start_s, end_s, parent, op]``: ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``op`` the index of
the benchmark op that was running (``-1`` outside any op).  A span's
self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: layer -> (module, attribute path) of every public entry point it owns.
#: A dotted attribute path names a method on a class in that module.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "localization": (
        ("repro.flight.sampler", "localize_all_ues"),
        ("repro.flight.sampler", "collect_gps_ranges"),
    ),
    "lte.srs": (("repro.lte.enodeb", "ENodeB.receive_srs_batch"),),
    "lte.tof": (("repro.lte.tof", "ToFEstimator.ranges_batch_m"),),
    "localization.joint": (
        ("repro.localization.joint", "solve_joint_multilateration"),
    ),
    "rem.interpolate": (("repro.rem.map", "REM.interpolated"),),
    "core.placement": (
        ("repro.core.placement", "find_optimal_altitude"),
        ("repro.core.placement", "uncertainty_penalty_db"),
        ("repro.core.placement", "max_min_placement"),
    ),
    "rem.streaming": (
        ("repro.rem.streaming", "streamed_discounted_max_min_placement"),
        ("repro.rem.aggregate", "aggregate_rem_running"),
    ),
    "core.rem_store": (
        ("repro.core.rem_store", "REMStore.get_or_create"),
        ("repro.core.rem_store", "REMStore.commit"),
    ),
    "trajectory": (("repro.trajectory.skyran", "SkyRANPlanner.plan"),),
    "trajectory.information": (
        ("repro.trajectory.information", "TrajectoryHistory.mean_gain"),
    ),
    "flight": (
        ("repro.flight.uav", "UAV.fly"),
        ("repro.flight.uav", "UAV.goto"),
        ("repro.flight.sampler", "collect_snr_samples"),
    ),
    "channel": tuple(
        ("repro.channel.model", f"ChannelModel.{name}")
        for name in (
            "snr_db",
            "snr_to_many",
            "path_loss_to_many",
            "snr_maps",
            "path_loss_maps",
            "iter_snr_map_tiles",
            "fspl_prior_map",
        )
    ),
    "sim.scenario": tuple(
        ("repro.sim.scenario", f"Scenario.{name}")
        for name in ("truth_maps", "evaluate", "relative_throughput")
    ),
    "traffic": (("repro.traffic.simulate", "MACSimulation.run"),),
    "city": (
        ("repro.city.scenario", "CityScenario.serving_snr_db"),
        ("repro.city.scenario", "CityScenario.olla_round"),
        ("repro.city.mac", "run_city_mac"),
    ),
    "core.fleet": (
        ("repro.core.fleet", "FleetController.assign_sectors"),
        ("repro.core.fleet", "FleetController.candidate_sinr_db"),
        ("repro.core.fleet", "FleetController.evaluate"),
        ("repro.channel.interference", "fleet_rx_power_dbm"),
        ("repro.channel.interference", "fleet_sinr_db_stack"),
    ),
    "events": (
        ("repro.events.rach", "resolve_contention"),
        ("repro.core.controller", "SkyRANController.refresh_population"),
    ),
}


class Tracer:
    """In-memory span recorder (single-threaded, like the program)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.op])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top {top}")


def self_times(
    spans: Sequence[Sequence], ops: Optional[Iterable[int]] = None
) -> Dict[str, Dict[str, float]]:
    """Per-name ``{"calls", "self_s"}`` from a span list.

    Self time is a span's duration minus its direct children's
    durations; children always lie inside their parent (spans come
    from one call stack), so this is the time the parent itself spent.
    ``ops`` restricts the sums to spans recorded during those ops.
    """
    keep = None if ops is None else set(ops)
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _parent, op) in enumerate(spans):
        if keep is not None and op not in keep:
            continue
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
    return out


def root_time(spans: Sequence[Sequence]) -> float:
    """Time covered by root spans (equals the sum of all self times)."""
    return sum(end - start for _n, start, end, parent, _op in spans if parent < 0)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile (0.5 < q < 1), or None without 10 samples beyond it.

    Nearest-rank definition: the value at rank ``ceil(q * n)``, which
    has ``n - ceil(q * n)`` samples beyond it.
    """
    if not 0.5 < q < 1.0:
        raise ValueError(f"tail percentile needs 0.5 < q < 1, got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def resolve(module: str, path: str):
    """``(owner, attribute, raw value)`` of one wrap target."""
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, path, getattr(mod, path)


def _wrap(fn, name: str, tracer: Tracer):
    if inspect.isgeneratorfunction(fn):
        # Time every step of the generator, not just its creation.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit(idx)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)

    return wrapper


def _repro_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Instrumentation:
    """Wraps every :data:`LAYERS` entry point; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer, layers=LAYERS) -> None:
        self.tracer = tracer
        self.layers = layers
        self._wrapper_of: Dict[int, object] = {}  # id(original) -> wrapper
        self._original_of: Dict[int, object] = {}  # id(wrapper) -> original
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        functions = set()
        for layer, targets in self.layers.items():
            for module, path in targets:
                owner, attr, raw = resolve(module, path)
                wrapper = _wrap(raw, layer, self.tracer)
                self._wrapper_of[id(raw)] = wrapper
                self._original_of[id(wrapper)] = raw
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, raw))
                else:
                    functions.add(id(raw))
        # A module-level function is rebound in every repro module that
        # imported it by name, so its callers see the wrapper too.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in functions:
                    setattr(mod, attr, self._wrapper_of[id(value)])
                    self._patched.append((mod, attr, value))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        # A module first imported while wrapped bound a wrapper by name.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                raw = self._original_of.get(id(value))
                if raw is not None:
                    setattr(mod, attr, raw)

    def leftover_wrappers(self) -> List[str]:
        """Names still bound to a wrapper (empty after a clean restore)."""
        left = set()
        for mod in _repro_modules():
            for attr, value in vars(mod).items():
                if id(value) in self._original_of:
                    left.add(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in self._original_of:
                            left.add(f"{value.__module__}.{attr}.{cattr}")
        return sorted(left)
