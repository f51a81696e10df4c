"""Small measurement helpers of the ledger: percentiles, the reference cell, the machine-speed timeline."""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: A tail percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (pinned method: bit-stable across NumPy versions)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q, method="linear"))


def supported_tail(num_samples: int, wanted: float = 99.0) -> float:
    """The highest percentile ``<= wanted`` with :data:`MIN_SAMPLES_BEYOND` samples beyond it.

    ``p99`` of 400 samples would rest on 4 of them; the helper then falls
    back to ``p95`` (20 beyond).  With fewer than 20 samples only the median
    is left.
    """
    for q in _TAILS:
        if q <= wanted and num_samples * (100.0 - q) + 1e-9 >= MIN_SAMPLES_BEYOND * 100.0:
            return q
    return 50.0


_CELL_A = np.random.default_rng(12345).standard_normal((96, 48))
_CELL_B = np.random.default_rng(54321).standard_normal((48, 48)) / 7.0


def reference_cell() -> float:
    """Seconds for one fixed pure-NumPy + Python-loop cell (about 3 ms on the reference box).

    The cell mixes what the system mixes — small GEMMs, element-wise NumPy
    and interpreter bytecode — so its duration moves with whatever slows the
    workload down (a busy SMT sibling, a throttled host).
    """
    started = time.perf_counter()
    x = _CELL_A
    for _ in range(90):
        x = np.tanh(x @ _CELL_B)
    acc = 0.0
    for i in range(24_000):
        acc += (i % 7) * 0.5
    if not (math.isfinite(acc) and np.isfinite(x).all()):
        raise RuntimeError("reference cell produced a non-finite value")
    return time.perf_counter() - started


#: One :func:`reference_cell` on the quiet reference box.  It only fixes the
#: unit of the normalised seconds; comparisons between commits never depend on it.
NOMINAL_CELL_S = 0.0030


class MachineTimeline:
    """Machine speed over a run, from timed reference cells; converts wall intervals to normalised seconds.

    ``slowdown(t) = cell(t) / NOMINAL_CELL_S`` is piecewise constant between
    probes (readings smoothed by a running median), and
    :meth:`normalised_seconds` integrates ``dt / slowdown(t)`` over a wall
    interval, leaving out the time spent inside the probes themselves.  On a
    machine that always runs the cell in ``NOMINAL_CELL_S`` this is the wall
    interval minus the probes.
    """

    #: A run is flagged noisy when this share of it ran more than 10% slower than its own quiet state.
    NOISY_SHARE = 0.10

    def __init__(self, probes: "list[tuple[float, float]]", smooth: int = 5) -> None:
        starts, ends = np.asarray(probes, dtype=np.float64).T
        cells = ends - starts
        half = smooth // 2
        padded = np.concatenate([np.repeat(cells[0], half), cells, np.repeat(cells[-1], half)])
        smoothed = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1), axis=1)
        #: The run's own quiet state: a low percentile of the readings.
        self.quiet_cell_s = percentile(smoothed, 10.0)
        slowdown = smoothed / NOMINAL_CELL_S
        # Normalised time accrues at rate 0 inside probe k and at
        # 1/slowdown[k] from its end to the start of probe k+1, so the
        # cumulative function is piecewise linear with knots at every probe
        # start and end.
        gaps = starts[1:] - ends[:-1]
        self._knots = np.empty(2 * len(starts))
        self._knots[0::2], self._knots[1::2] = starts, ends
        increments = np.zeros(2 * len(starts))
        increments[2::2] = gaps / slowdown[:-1]
        self._normalised_at_knots = np.cumsum(increments)
        slow = smoothed[:-1] > 1.10 * self.quiet_cell_s
        self.slow_share = float(gaps[slow].sum() / gaps.sum()) if gaps.sum() > 0 else 0.0

    @property
    def noisy(self) -> bool:
        return self.slow_share > self.NOISY_SHARE

    def normalised_seconds(self, starts, ends) -> np.ndarray:
        """Machine-normalised seconds of the wall intervals ``[starts, ends]`` (``perf_counter`` stamps)."""
        position = np.interp(np.asarray(ends, dtype=np.float64), self._knots, self._normalised_at_knots)
        return position - np.interp(np.asarray(starts, dtype=np.float64), self._knots, self._normalised_at_knots)


class MachineClock:
    """Times one :func:`reference_cell` every ``interval`` seconds while a workload runs.

    The reference box is a shared micro-VM whose speed moves by 30-50% on a
    scale of seconds to minutes, more than any regression bound.  A timer
    signal interrupts the (single) main thread to run the probe, so no thread
    is started; :meth:`stop` returns the :class:`MachineTimeline` of the run.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self._probes: list[tuple[float, float]] = []
        self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_cell()
        self._probes.append((started, time.perf_counter()))

    def start(self) -> None:
        self._tick(None, None)
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> MachineTimeline:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._tick(None, None)
        return MachineTimeline(self._probes)
