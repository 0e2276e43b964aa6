"""Dynamic epoch triggering (paper Section 3.5).

SkyRAN does not chase individual UE movements.  A new epoch — with its
localization + measurement overhead — is triggered only when the
*aggregate* performance at the current UAV position drops below a
configured fraction of what it was when the position was chosen.
Fig. 12 shows a 10% margin buys ~10-minute epochs under pedestrian
mobility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.perf import perf


@dataclass
class EpochTrigger:
    """Monitors aggregate performance and decides when to re-plan.

    Attributes
    ----------
    margin:
        Tolerated fractional drop (0.1 = re-plan on a 10% drop).
    debounce:
        Consecutive breaching samples required before the trigger
        fires.  1 reproduces the paper's instant trigger; higher values
        are the degraded-mode defence against transiently corrupted
        KPI samples re-triggering (and re-paying for) epochs.
    reference:
        Aggregate performance recorded right after placement.
    history:
        (time, value) samples seen since the last reset, for benches
        that plot the decay.  Bounded: only the most recent
        ``history_maxlen`` samples are retained, so long event-driven
        serving phases (hours of KPI ticks between re-plans) cannot
        grow memory without bound.
    history_maxlen:
        Cap on retained history samples; older samples are dropped
        (and counted in ``history_dropped``) as new ones arrive.
    history_dropped:
        Samples evicted from ``history`` since the last reset.
    metric:
        What the samples *are*: ``"capacity"`` (full-cell mean
        throughput at the current position — the legacy KPI, blind to
        load), ``"served"`` (aggregate served rate from the traffic
        MAC simulation, which only drops when users actually lose
        throughput).  The reactive arithmetic is identical; the field
        exists so records and logs can say which signal armed it and
        so the controller knows which KPI to feed in.
    predictor:
        Optional :class:`repro.learn.trigger.CollapsePredictor` (duck
        typed: anything with ``should_fire(ratios) -> bool``).
        Consulted only on samples where the reactive rule declines —
        so with ``predictor=None`` (the default) behaviour is exactly
        the reactive Section 3.5 trigger, sample for sample.
    """

    margin: float = 0.1
    debounce: int = 1
    reference: Optional[float] = None
    history: List[tuple] = field(default_factory=list)
    metric: str = "capacity"
    history_maxlen: int = 512
    history_dropped: int = 0
    predictor: Optional[object] = field(default=None, repr=False)
    _breach_streak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.margin < 1.0:
            raise ValueError(f"margin must be in (0, 1), got {self.margin}")
        if self.debounce < 1:
            raise ValueError(f"debounce must be >= 1, got {self.debounce}")
        if self.metric not in ("capacity", "served"):
            raise ValueError(
                f"metric must be 'capacity' or 'served', got {self.metric!r}"
            )
        if self.history_maxlen < 1:
            raise ValueError(
                f"history_maxlen must be >= 1, got {self.history_maxlen}"
            )

    def reset(self, reference: float) -> None:
        """Start a new epoch with a fresh performance reference."""
        if reference < 0:
            raise ValueError(f"reference must be >= 0, got {reference}")
        self.reference = reference
        self.history = []
        self.history_dropped = 0
        self._breach_streak = 0

    def update(self, value: float, t_s: float = 0.0) -> bool:
        """Record a performance sample; True means trigger a new epoch.

        With no reference yet (cold start), any sample triggers.  A
        breach only fires after ``debounce`` consecutive breaching
        samples; suppressed breaches bump ``fallback.epoch_debounced``.
        A fire clears the streak, so a caller that keeps sampling
        without an intervening :meth:`reset` (the event-driven serving
        loop caps its re-plans) must accumulate ``debounce`` fresh
        breaches before the trigger fires again.

        When a ``predictor`` is wired in, it is consulted exactly on
        the samples where the reactive rule declines; a predictive
        fire also clears the streak.
        """
        self.history.append((t_s, value))
        if len(self.history) > self.history_maxlen:
            del self.history[0]
            self.history_dropped += 1
        if self.reference is None:
            self._breach_streak = 0
            return True
        if self.reference <= 0:
            # A dead reference epoch can only improve: re-plan.
            self._breach_streak = 0
            return True
        breach = value < (1.0 - self.margin) * self.reference
        if not breach:
            self._breach_streak = 0
            return self._consult_predictor()
        self._breach_streak += 1
        if self._breach_streak < self.debounce:
            perf.count("fallback.epoch_debounced")
            return self._consult_predictor()
        self._breach_streak = 0
        return True

    def _consult_predictor(self) -> bool:
        """Ask the collapse predictor (if any) on a reactive decline."""
        if self.predictor is None:
            return False
        ratios = [v / self.reference for _, v in self.history]
        if not self.predictor.should_fire(ratios):
            return False
        self._breach_streak = 0
        return True
