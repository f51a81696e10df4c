"""Fault injection for the black-box DBMS substrate.

Engines the scheduler does not control fail: queries error out mid-flight,
turn into stragglers that hang far past their expected runtime, and whole
instances drop out of the fleet for maintenance windows or crashes.  A
:class:`FailureProfile` describes those behaviours declaratively.  A profile
enters a round only through the backend's ``new_session(faults=)``, which
:class:`~repro.runtime.ExecutionRuntime` passes; history and pre-training
rounds open fault-free, and the learned simulator refuses a profile.

Everything is drawn from a *dedicated* per-round RNG stream
(``SeedSpawner(...).derive(round_id, FAULT_STREAM)``), never from the
engine's noise stream: a session with no profile attached performs zero
extra draws and stays bit-for-bit identical to the fault-free tree, and a
session with one reproduces the same failure sequence seed-for-seed.

Failure *fates* are drawn at submission time, in submission order — two
draws per submit (error, then hang) — so a retried query re-rolls its fate:
transient errors really are transient.

When an instance is down is answered in one place, :class:`InstanceWindows`:
one per instance of every backend session, holding the profile's outage
windows for that instance plus the open-ended window of an autoscale park.
The engine's sessions ask it about both; a simulated instance, whose rounds
are fault-free, asks it only about parks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "FailureProfile",
    "InstanceWindows",
    "OutageWindow",
    "QueryFate",
    "FAILURE_ERROR",
    "FAILURE_TIMEOUT",
    "FAILURE_OUTAGE",
    "FAULT_STREAM",
]

#: Entropy tag of the per-round fault stream (disjoint from the engine's
#: 0x5EED noise stream and the runtime's 0xA881 arrival stream).
FAULT_STREAM = 0xFA17

#: Failure reasons carried by failed completion events.
FAILURE_ERROR = "error"
FAILURE_TIMEOUT = "timeout"
FAILURE_OUTAGE = "outage"


@dataclass(frozen=True)
class OutageWindow:
    """One engine instance is down during ``[start, start + duration)``.

    Queries in flight on the instance when the window opens are killed (they
    surface as ``outage`` failures the runtime requeues elsewhere); the
    instance accepts no submissions until the window closes.
    """

    instance: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.instance < 0:
            raise ConfigurationError("outage instance must be >= 0")
        if self.start < 0:
            raise ConfigurationError("outage start must be >= 0")
        if self.duration <= 0:
            raise ConfigurationError("outage duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class QueryFate:
    """The failure fate drawn for one submission attempt."""

    error: bool = False
    hang: bool = False


@dataclass(frozen=True)
class FailureProfile:
    """Declarative fault injection for one engine (or one fleet).

    Attributes
    ----------
    error_rate:
        Per-submission probability that the attempt errors out.  An errored
        attempt consumes ``error_work_fraction`` of the query's work (the
        engine wasted that time) and surfaces as a failed completion.
    error_work_fraction:
        Fraction of the query's (noisy) work executed before the error
        fires, in ``(0, 1]``.
    hang_rate:
        Per-submission probability that the attempt becomes a straggler:
        its work is multiplied by ``hang_factor``.  Stragglers *do* finish
        eventually — killing them early is the runtime's
        ``RetryPolicy.timeout`` job, not the engine's.
    hang_factor:
        Work multiplier applied to hung attempts (> 1).
    outages:
        Per-instance downtime windows (see :class:`OutageWindow`).  On a
        single engine only instance-0 windows apply.
    """

    error_rate: float = 0.0
    error_work_fraction: float = 0.5
    hang_rate: float = 0.0
    hang_factor: float = 4.0
    outages: tuple[OutageWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigurationError("error_rate must be in [0, 1]")
        if not 0.0 < self.error_work_fraction <= 1.0:
            raise ConfigurationError("error_work_fraction must be in (0, 1]")
        if not 0.0 <= self.hang_rate <= 1.0:
            raise ConfigurationError("hang_rate must be in [0, 1]")
        if self.hang_factor <= 1.0:
            raise ConfigurationError("hang_factor must be > 1")
        object.__setattr__(self, "outages", tuple(self.outages))

    # ------------------------------------------------------------------ #
    # Fate draws
    # ------------------------------------------------------------------ #
    @property
    def has_random_faults(self) -> bool:
        """Whether any per-submission randomness is configured."""
        return self.error_rate > 0.0 or self.hang_rate > 0.0

    def draw_fate(self, rng: np.random.Generator) -> QueryFate:
        """Draw one submission attempt's fate (two draws, fixed order)."""
        if not self.has_random_faults:
            return QueryFate()
        error = bool(rng.random() < self.error_rate)
        hang = bool(rng.random() < self.hang_rate)
        return QueryFate(error=error, hang=hang)

    # ------------------------------------------------------------------ #
    # Outage windows
    # ------------------------------------------------------------------ #
    def windows_for(self, instance: int) -> tuple[OutageWindow, ...]:
        """Outage windows applying to ``instance``, in start order."""
        return tuple(
            sorted(
                (window for window in self.outages if window.instance == instance),
                key=lambda window: window.start,
            )
        )


class InstanceWindows:
    """When one instance is down: the profile's outage windows for it, in
    start order, plus while parked an :class:`OutageWindow` from the park
    instant with no end — so a park kills in-flight work at the same kill
    instant as an outage.  Callers check :attr:`parked` before (un)parking.
    """

    __slots__ = ("instance", "windows", "_park")

    def __init__(self, instance: int, faults: FailureProfile | None = None) -> None:
        self.instance = instance
        self.windows: tuple[OutageWindow, ...] = faults.windows_for(instance) if faults is not None else ()
        self._park: OutageWindow | None = None

    @property
    def parked(self) -> bool:
        return self._park is not None

    def is_down(self, time: float) -> bool:
        """Whether a window covers ``time``."""
        if not self.windows:
            return False
        return any(window.covers(time) for window in self.windows)

    def recovers_at(self, time: float) -> float | None:
        """End of the outage covering ``time`` (``None`` when up or only parked: a park has no end)."""
        ends = [window.end for window in self.windows if window.covers(time) and math.isfinite(window.end)]
        return max(ends) if ends else None

    def kill_instant(self, now: float, until: float) -> float | None:
        """When work on the instance dies: ``now`` if a window covers it, else
        the first window start in ``(now, until]`` (``None``: none does)."""
        for window in self.windows:
            if window.covers(now):
                return now
            if now < window.start <= until:
                return window.start
        return None

    def park(self, time: float) -> None:
        """Open the park window at ``time``."""
        self._park = OutageWindow(instance=self.instance, start=time, duration=math.inf)
        self.windows = tuple(sorted((*self.windows, self._park), key=lambda window: window.start))

    def unpark(self) -> None:
        """Close the park window."""
        window = self._park
        self._park = None
        self.windows = tuple(other for other in self.windows if other is not window)
