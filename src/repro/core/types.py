"""Result types shared across schedulers and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dbms import RoundLog

__all__ = ["SchedulingResult", "StrategyEvaluation"]


@dataclass
class SchedulingResult:
    """Outcome of one scheduling round."""

    strategy: str
    makespan: float
    round_log: RoundLog
    total_reward: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.round_log)

    def query_finish_times(self) -> dict[int, float]:
        """Finish time per query id."""
        return {record.query_id: record.finish_time for record in self.round_log}

    def connection_timeline(self) -> dict[int, list[tuple[int, float, float]]]:
        """Per connection, the (query_id, start, end) bars of the Gantt chart (Figure 9)."""
        timeline: dict[int, list[tuple[int, float, float]]] = {}
        for record in sorted(self.round_log, key=lambda r: r.submit_time):
            timeline.setdefault(record.connection, []).append(
                (record.query_id, record.submit_time, record.finish_time)
            )
        return timeline


@dataclass
class StrategyEvaluation:
    """Mean / standard deviation of makespan over ``m`` scheduling rounds.

    These are the paper's efficiency (t̄_ov) and stability (σ_ov) metrics.
    """

    strategy: str
    makespans: list[float] = field(default_factory=list)

    def add(self, makespan: float) -> None:
        self.makespans.append(float(makespan))

    @property
    def mean(self) -> float:
        return float(np.mean(self.makespans)) if self.makespans else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.makespans)) if self.makespans else float("nan")

    def __repr__(self) -> str:
        return f"StrategyEvaluation({self.strategy}: {self.mean:.2f} ± {self.std:.2f} over {len(self.makespans)} rounds)"
