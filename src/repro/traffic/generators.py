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
* deterministic sources (``full_buffer``, ``cbr``) create **no**
  generator and consume no entropy at all.

Workload models register under a string name — mirroring the REM
interpolator registry — so :class:`~repro.core.config.SkyRANConfig`
carries the choice as configuration.
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


class _CBRSource:
    """Constant bit rate: the same byte count every TTI, no randomness."""

    full_buffer = False

    def __init__(self, rate_mbps: float) -> None:
        self._bytes_per_tti = float(rate_mbps) * BYTES_PER_TTI_PER_MBPS

    def offered_bytes(self, n_tti: int) -> np.ndarray:
        if n_tti < 0:
            raise ValueError(f"n_tti must be >= 0, got {n_tti}")
        return np.full(n_tti, self._bytes_per_tti, dtype=float)


class _PoissonSource:
    """Poisson packet arrivals at a mean rate, fixed packet size."""

    full_buffer = False

    def __init__(self, rate_mbps: float, packet_bytes: float, seed: int, ue_id: int) -> None:
        self._packet_bytes = float(packet_bytes)
        self._lam = float(rate_mbps) * BYTES_PER_TTI_PER_MBPS / self._packet_bytes
        self._rng = _ue_rng(seed, ue_id)

    def offered_bytes(self, n_tti: int) -> np.ndarray:
        if n_tti < 0:
            raise ValueError(f"n_tti must be >= 0, got {n_tti}")
        return self._rng.poisson(self._lam, n_tti).astype(float) * self._packet_bytes


class _OnOffSource:
    """ON-OFF video-style bursts: CBR at the peak rate during ON spells.

    ON and OFF spell lengths are exponential (means in seconds); the
    initial state is drawn with the stationary ON probability so a
    fresh source is statistically mid-stream rather than always
    starting silent.  Spell boundaries carry float TTI precision across
    batch calls, so batching never quantizes the duty cycle.
    """

    full_buffer = False

    def __init__(
        self,
        rate_mbps: float,
        mean_on_s: float,
        mean_off_s: float,
        seed: int,
        ue_id: int,
    ) -> None:
        self._bytes_per_tti = float(rate_mbps) * BYTES_PER_TTI_PER_MBPS
        self._mean_on_tti = float(mean_on_s) * 1000.0
        self._mean_off_tti = float(mean_off_s) * 1000.0
        self._rng = _ue_rng(seed, ue_id)
        p_on = self._mean_on_tti / (self._mean_on_tti + self._mean_off_tti)
        self._on = bool(self._rng.random() < p_on)
        self._remaining_tti = self._draw_spell()

    def _draw_spell(self) -> float:
        mean = self._mean_on_tti if self._on else self._mean_off_tti
        return float(self._rng.exponential(mean))

    def offered_bytes(self, n_tti: int) -> np.ndarray:
        if n_tti < 0:
            raise ValueError(f"n_tti must be >= 0, got {n_tti}")
        out = np.zeros(n_tti, dtype=float)
        t = 0
        while t < n_tti:
            span = min(n_tti - t, int(np.ceil(self._remaining_tti)))
            span = max(span, 1)
            if self._on:
                out[t : t + span] = self._bytes_per_tti
            self._remaining_tti -= span
            t += span
            if self._remaining_tti <= 0:
                self._on = not self._on
                self._remaining_tti += self._draw_spell()
        return out


# -- factories (the registry's values) -----------------------------------------


@dataclass(frozen=True, kw_only=True)
class FullBufferTraffic:
    """The legacy infinitely-backlogged workload."""

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _FullBufferSource()


@dataclass(frozen=True, kw_only=True)
class CBRTraffic:
    """Constant bit rate at ``rate_mbps`` per UE."""

    rate_mbps: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be positive, got {self.rate_mbps}")

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _CBRSource(self.rate_mbps)


@dataclass(frozen=True, kw_only=True)
class PoissonTraffic:
    """Poisson packet arrivals averaging ``rate_mbps`` per UE."""

    rate_mbps: float = 2.0
    packet_bytes: float = 1500.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be positive, got {self.rate_mbps}")
        if self.packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be positive, got {self.packet_bytes}")

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _PoissonSource(self.rate_mbps, self.packet_bytes, seed, ue_id)


@dataclass(frozen=True, kw_only=True)
class OnOffVideoTraffic:
    """Bursty video: ``rate_mbps`` peak during exponential ON spells."""

    rate_mbps: float = 4.0
    mean_on_s: float = 4.0
    mean_off_s: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be positive, got {self.rate_mbps}")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError("mean_on_s and mean_off_s must be positive")

    def source(self, ue_id: int, seed: int = 0) -> TrafficSource:
        return _OnOffSource(self.rate_mbps, self.mean_on_s, self.mean_off_s, seed, ue_id)


_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_traffic_model(name: str, factory: Callable[..., object]) -> None:
    """Register a traffic-model factory under a string name."""
    if not name:
        raise ValueError("traffic model name must be non-empty")
    _REGISTRY[name] = factory


def available_traffic_models() -> Tuple[str, ...]:
    """Registered workload names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_traffic_model(name: str, **params):
    """Instantiate a registered traffic model by name.

    Unknown keyword parameters are ignored for dataclass factories so
    one config can carry the union
    of every model's knobs (``packet_bytes`` means nothing to CBR and
    is silently unused by it).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_traffic_models())
        raise ValueError(f"unknown traffic model {name!r} (known: {known})") from None
    accepted = getattr(factory, "__dataclass_fields__", None)
    if accepted is not None:
        params = {k: v for k, v in params.items() if k in accepted}
    return factory(**params)


register_traffic_model("full_buffer", FullBufferTraffic)
register_traffic_model("cbr", CBRTraffic)
register_traffic_model("poisson", PoissonTraffic)
register_traffic_model("onoff_video", OnOffVideoTraffic)
