"""Per-UE traffic workload generators.

The paper's adaptation loop is driven by *served* traffic, which only
diverges from cell capacity when the users actually offer load.  Each
generator models one downlink workload and produces **offered bytes
per TTI** (1 TTI = 1 ms, the LTE subframe) for one UE; the RLC queue
model (:mod:`repro.traffic.queueing`) and the TTI schedulers
(:mod:`repro.traffic.schedulers`) turn offered bytes into served
bytes.

RNG contract
------------

Every stochastic source owns a private generator seeded from
``SeedSequence(seed, spawn_key=(TRAFFIC_SPAWN_KEY, ue_id))``:

* the stream depends only on ``(seed, ue_id)`` — never on UE
  registration order or on how many other UEs exist, so adding a UE
  does not reshuffle anyone else's traffic;
* consecutive :meth:`~TrafficSource.offered_bytes` calls continue the
  same stream, so a run chopped into TTI batches is bit-identical to
  one long batch;
* the deterministic ``full_buffer`` source creates **no** generator
  and consumes no entropy at all.

Two workloads exist, ``full_buffer`` and ``poisson``, looked up by
string name so :class:`~repro.core.config.SkyRANConfig` carries the
choice as configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Protocol, Tuple, runtime_checkable

import numpy as np

#: Spawn-key tag isolating traffic streams from every other consumer
#: of the run seed (controller RNG, fault channels, UE placement).
TRAFFIC_SPAWN_KEY = 0x7452

#: Bytes offered per TTI by a 1 Mb/s flow (1e6 / 8 bits / 1000 TTIs).
BYTES_PER_TTI_PER_MBPS = 125.0

#: Size of every Poisson packet (one Ethernet MTU).
PACKET_BYTES = 1500.0


def _ue_rng(seed: int, ue_id: int) -> np.random.Generator:
    """The per-UE traffic generator stream (see the module RNG contract)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(TRAFFIC_SPAWN_KEY, int(ue_id)))
    )


@runtime_checkable
class TrafficSource(Protocol):
    """One UE's offered-load stream.

    ``full_buffer`` marks the infinitely-backlogged idealization: the
    queue model seeds such a UE with an infinite backlog and the
    offered-bytes stream is all zeros (arrivals are meaningless).
    """

    full_buffer: bool

    def offered_bytes(self, n_tti: int) -> np.ndarray: ...


class _FullBufferSource:
    """Infinite backlog: the legacy assumption, as a degenerate source."""

    full_buffer = True

    def offered_bytes(self, n_tti: int) -> np.ndarray:
        if n_tti < 0:
            raise ValueError(f"n_tti must be >= 0, got {n_tti}")
        return np.zeros(n_tti, dtype=float)


class _PoissonSource:
    """Poisson arrivals of :data:`PACKET_BYTES` packets at a mean rate."""

    full_buffer = False

    def __init__(self, rate_mbps: float, seed: int, ue_id: int) -> None:
        self._lam = float(rate_mbps) * BYTES_PER_TTI_PER_MBPS / PACKET_BYTES
        self._rng = _ue_rng(seed, ue_id)

    def offered_bytes(self, n_tti: int) -> np.ndarray:
        if n_tti < 0:
            raise ValueError(f"n_tti must be >= 0, got {n_tti}")
        return self._rng.poisson(self._lam, n_tti).astype(float) * PACKET_BYTES


# -- workload models -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class FullBufferTraffic:
    """The legacy infinitely-backlogged workload."""

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _FullBufferSource()


@dataclass(frozen=True, kw_only=True)
class PoissonTraffic:
    """Poisson packet arrivals averaging ``rate_mbps`` per UE."""

    rate_mbps: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be positive, got {self.rate_mbps}")

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _PoissonSource(self.rate_mbps, seed, ue_id)


#: Workload name -> model at a per-UE mean rate (Mb/s); a full buffer
#: has no rate.
_MODELS: Dict[str, Callable[[float], object]] = {
    "full_buffer": lambda rate_mbps: FullBufferTraffic(),
    "poisson": lambda rate_mbps: PoissonTraffic(rate_mbps=rate_mbps),
}


def available_traffic_models() -> Tuple[str, ...]:
    """Workload names, sorted."""
    return tuple(sorted(_MODELS))


def make_traffic_model(name: str, rate_mbps: float = 2.0):
    """The named workload at a per-UE mean rate of ``rate_mbps``."""
    try:
        factory = _MODELS[name]
    except KeyError:
        known = ", ".join(available_traffic_models())
        raise ValueError(f"unknown traffic model {name!r} (known: {known})") from None
    return factory(rate_mbps)
