"""Open arrival processes for streaming query workloads.

The paper's experiments are *closed*: the whole batch query set is pending at
time zero.  Production pipelines are rarely that tidy — queries trickle in
from upstream jobs, dashboards and users.  An :class:`ArrivalProcess` turns a
batch query set into an *open* stream by assigning every query an arrival
time; the event-driven runtime (:mod:`repro.runtime`) releases each query
into its tenant's pending set when the clock reaches that time, and the
scheduler keeps deciding over the growing pending set.

Three processes cover the scenarios the related open-stream schedulers train
on: Poisson arrivals (memoryless steady load), bursty arrivals (queries land
in clumps, the hard case for contention) and flash-crowd arrivals (a steady
stream with one overload window where the rate multiplies — the admission
control stress test).  A recorded submission log replays through
``ExecutionRuntime.register(arrivals=<times>)``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..exceptions import WorkloadError

__all__ = [
    "ArrivalProcess",
    "ClosedArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "FlashCrowdArrivals",
    "make_arrival_process",
]


class ArrivalProcess(abc.ABC):
    """Assigns an arrival time to each query of a batch."""

    @abc.abstractmethod
    def times(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``num_queries`` arrival times (seconds from round start)."""

    def _validate(self, num_queries: int) -> None:
        if num_queries < 1:
            raise WorkloadError("an arrival process needs at least one query")


class ClosedArrivals(ArrivalProcess):
    """The paper's closed-batch scenario: everything arrives at time zero."""

    def times(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        self._validate(num_queries)
        return np.zeros(num_queries, dtype=np.float64)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` queries per second.

    The first query arrives at time zero so a round always has work to start
    on; subsequent inter-arrival gaps are exponential with mean ``1/rate``.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        self.rate = rate

    def times(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        self._validate(num_queries)
        gaps = rng.exponential(1.0 / self.rate, size=num_queries)
        gaps[0] = 0.0
        return np.cumsum(gaps)


class BurstyArrivals(ArrivalProcess):
    """Arrivals in bursts of ``burst_size`` queries.

    Burst epochs follow a Poisson process whose rate is scaled so the
    *long-run query rate* still equals ``rate``; every query of a burst lands
    at the same instant.  This is the contention-heavy open scenario: the
    scheduler suddenly has ``burst_size`` new pending queries to order.
    """

    def __init__(self, rate: float, burst_size: int = 4) -> None:
        if rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        if burst_size < 1:
            raise WorkloadError("burst_size must be >= 1")
        self.rate = rate
        self.burst_size = burst_size

    def times(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        self._validate(num_queries)
        num_bursts = -(-num_queries // self.burst_size)
        gaps = rng.exponential(self.burst_size / self.rate, size=num_bursts)
        gaps[0] = 0.0
        epochs = np.cumsum(gaps)
        return np.repeat(epochs, self.burst_size)[:num_queries]


class FlashCrowdArrivals(ArrivalProcess):
    """A steady stream with one overload window where the rate multiplies.

    Outside ``[burst_start, burst_start + burst_duration)`` queries arrive as
    a Poisson process at ``rate``; inside the window the instantaneous rate
    jumps to ``rate * burst_factor`` (the flash crowd).  Sampling inverts the
    piecewise-linear cumulative intensity of the inhomogeneous Poisson
    process: unit-rate exponential gaps are accumulated and each cumulative
    intensity value is mapped back to wall-clock time through the three
    linear segments (before / inside / after the window).  The first arrival
    is pinned at time zero, like every open process here, so a round always
    has work to start on.

    A ``burst_factor`` of 1 degenerates to :class:`PoissonArrivals` exactly
    (all three segments share one slope); a window that ends before the
    second arrival simply leaves every arrival on the post-window segment.
    This is the admission-control stress scenario: a 100x flash crowd buries
    an uncontrolled service, while a controlled one sheds low-priority work
    and keeps its interactive tier inside the SLO.
    """

    def __init__(
        self,
        rate: float,
        burst_factor: float = 10.0,
        burst_start: float = 0.0,
        burst_duration: float = 1.0,
    ) -> None:
        if rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        if burst_factor < 1:
            raise WorkloadError("burst_factor must be >= 1")
        if burst_start < 0:
            raise WorkloadError("burst_start must be >= 0")
        if burst_duration <= 0:
            raise WorkloadError("burst_duration must be positive")
        self.rate = rate
        self.burst_factor = burst_factor
        self.burst_start = burst_start
        self.burst_duration = burst_duration

    def times(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        self._validate(num_queries)
        gaps = rng.exponential(1.0, size=num_queries)
        gaps[0] = 0.0
        intensity = np.cumsum(gaps)
        # Cumulative intensity at the window edges: Lambda(burst_start) and
        # Lambda(burst_start + burst_duration).
        at_start = self.rate * self.burst_start
        at_end = at_start + self.rate * self.burst_factor * self.burst_duration
        before = intensity / self.rate
        inside = self.burst_start + (intensity - at_start) / (self.rate * self.burst_factor)
        after = self.burst_start + self.burst_duration + (intensity - at_end) / self.rate
        result: np.ndarray = np.where(
            intensity < at_start, before, np.where(intensity < at_end, inside, after)
        )
        return result


def make_arrival_process(
    name: str,
    rate: float = 2.0,
    burst_size: int = 4,
) -> ArrivalProcess:
    """Build an arrival process from its configuration name.

    ``"flash-crowd"`` is :class:`FlashCrowdArrivals` at its default window;
    to shape a crowd, build :class:`FlashCrowdArrivals` directly.
    """
    name = name.lower()
    if name == "closed":
        return ClosedArrivals()
    if name == "poisson":
        return PoissonArrivals(rate)
    if name == "bursty":
        return BurstyArrivals(rate, burst_size=burst_size)
    if name in ("flash-crowd", "flash_crowd", "flashcrowd"):
        return FlashCrowdArrivals(rate)
    raise WorkloadError(
        f"unknown arrival process {name!r}; expected closed, poisson, bursty or flash-crowd"
    )
