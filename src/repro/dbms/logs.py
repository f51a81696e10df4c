"""Execution logs.

Logs are the only feedback channel a non-intrusive scheduler has: per-query
submit and finish times across historical scheduling rounds.  Everything the
paper derives from logs is implemented on top of :class:`ExecutionLog`:

* average execution times (MCF ordering, running-state features ``t_i|R_i``),
* per-configuration execution times (adaptive masking),
* pairwise concurrency overlaps (scheduling gain),
* concurrent-state snapshots (training data for the learned simulator and
  the IQ-PPO auxiliary task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .params import RunningParameters

__all__ = ["QueryExecutionRecord", "RoundLog", "ExecutionLog", "ConcurrencySnapshot"]


@dataclass(frozen=True)
class QueryExecutionRecord:
    """One query execution inside one scheduling round.

    ``instance`` identifies the engine instance the query ran on; plain
    single-engine rounds always record instance 0, cluster rounds record the
    placement chosen at submit time.  The tag is what lets the performance
    model reconstruct *per-instance* concurrency snapshots from fleet logs.
    """

    query_id: int
    query_name: str
    template_id: int
    connection: int
    parameters: RunningParameters
    submit_time: float
    finish_time: float
    instance: int = 0

    def __post_init__(self) -> None:
        if self.finish_time < self.submit_time:
            raise ValueError(
                f"query {self.query_name} finishes ({self.finish_time}) before it starts ({self.submit_time})"
            )

    @property
    def execution_time(self) -> float:
        return self.finish_time - self.submit_time


@dataclass(frozen=True)
class ConcurrencySnapshot:
    """The state of all in-flight queries at one submission instant.

    ``elapsed`` holds, per running query, how long it has already been
    executing; ``earliest_index`` points at the running query that actually
    finished first after this instant, and ``earliest_remaining`` is how much
    longer it ran — the two supervision targets of the learned simulator.
    """

    time: float
    running_query_ids: tuple[int, ...]
    parameters: tuple[RunningParameters, ...]
    elapsed: tuple[float, ...]
    earliest_index: int
    earliest_remaining: float
    instance: int = 0


@dataclass
class RoundLog:
    """All query executions of a single scheduling round."""

    round_id: int
    strategy: str = ""
    records: list[QueryExecutionRecord] = field(default_factory=list)

    def add(self, record: QueryExecutionRecord) -> None:
        self.records.append(record)

    @property
    def makespan(self) -> float:
        """Latest finish time minus earliest submit time of the round."""
        if not self.records:
            return 0.0
        start = min(r.submit_time for r in self.records)
        end = max(r.finish_time for r in self.records)
        return end - start

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QueryExecutionRecord]:
        return iter(self.records)

    def concurrency_snapshots(self, per_instance: bool = False) -> list[ConcurrencySnapshot]:
        """Reconstruct the concurrent-query state at every submission instant.

        With ``per_instance=True`` the reconstruction runs within each engine
        instance's records separately (queries placed on different instances
        of a fleet do not share resources), tagging every snapshot with its
        instance — the training examples of a cluster-capable performance
        model.  The default keeps the historical whole-round stream, which is
        identical on single-engine logs (everything is instance 0).
        """
        if not per_instance:
            return self._snapshots_of(sorted(self.records, key=lambda r: r.submit_time), instance=0)
        snapshots: list[ConcurrencySnapshot] = []
        by_instance: dict[int, list[QueryExecutionRecord]] = {}
        for record in self.records:
            by_instance.setdefault(record.instance, []).append(record)
        for instance in sorted(by_instance):
            records = sorted(by_instance[instance], key=lambda r: r.submit_time)
            snapshots.extend(self._snapshots_of(records, instance=instance))
        return snapshots

    @staticmethod
    def _snapshots_of(records: list[QueryExecutionRecord], instance: int) -> list[ConcurrencySnapshot]:
        snapshots: list[ConcurrencySnapshot] = []
        for record in records:
            now = record.submit_time
            running = [r for r in records if r.submit_time <= now < r.finish_time]
            if not running:
                continue
            remaining = [r.finish_time - now for r in running]
            earliest = int(np.argmin(remaining))
            snapshots.append(
                ConcurrencySnapshot(
                    time=now,
                    running_query_ids=tuple(r.query_id for r in running),
                    parameters=tuple(r.parameters for r in running),
                    elapsed=tuple(now - r.submit_time for r in running),
                    earliest_index=earliest,
                    earliest_remaining=float(remaining[earliest]),
                    instance=instance,
                )
            )
        return snapshots


class ExecutionLog:
    """A collection of :class:`RoundLog` entries across scheduling rounds."""

    def __init__(self) -> None:
        self._rounds: list[RoundLog] = []

    def add_round(self, round_log: RoundLog) -> None:
        self._rounds.append(round_log)

    def extend(self, other: "ExecutionLog") -> None:
        """Append all rounds of ``other`` (online / incremental log growth)."""
        self._rounds.extend(other.rounds)

    @property
    def rounds(self) -> list[RoundLog]:
        return list(self._rounds)

    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[RoundLog]:
        return iter(self._rounds)

    def all_records(self) -> list[QueryExecutionRecord]:
        return [record for round_log in self._rounds for record in round_log]

    # ------------------------------------------------------------------ #
    # Aggregations used by heuristics, masking and clustering
    # ------------------------------------------------------------------ #
    def average_execution_times(self) -> dict[int, float]:
        """Mean execution time per query id over all rounds (MCF's cost table)."""
        totals: dict[int, list[float]] = {}
        for record in self.all_records():
            totals.setdefault(record.query_id, []).append(record.execution_time)
        return {query_id: float(np.mean(times)) for query_id, times in totals.items()}

    def execution_times_by_configuration(self) -> dict[int, dict[RunningParameters, float]]:
        """Mean execution time per (query id, configuration) — masking knowledge."""
        buckets: dict[int, dict[RunningParameters, list[float]]] = {}
        for record in self.all_records():
            buckets.setdefault(record.query_id, {}).setdefault(record.parameters, []).append(
                record.execution_time
            )
        return {
            query_id: {params: float(np.mean(times)) for params, times in by_params.items()}
            for query_id, by_params in buckets.items()
        }

    def overlapping_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every concurrent execution of two records of one round, as arrays.

        Returns ``(query_i, query_j, overlap, time_i, time_j)``, one entry per
        record pair that overlapped in wall-clock time, in log order (rounds
        in turn, record pairs ``a < b`` of a round row by row): the lower and
        the higher query id (the earlier record first on a tie), the
        overlap, and the two execution times in the same order.
        """
        parts: list[tuple[np.ndarray, ...]] = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),) * 3]
        for round_log in self._rounds:
            records = round_log.records
            ids = np.array([record.query_id for record in records], dtype=np.int64)
            submit = np.array([record.submit_time for record in records], dtype=np.float64)
            finish = np.array([record.finish_time for record in records], dtype=np.float64)
            times = finish - submit
            first, second = np.triu_indices(len(records), k=1)
            overlap = np.minimum(finish[first], finish[second]) - np.maximum(submit[first], submit[second])
            kept = overlap > 0
            first, second = first[kept], second[kept]
            swapped = ids[first] > ids[second]
            low, high = np.where(swapped, second, first), np.where(swapped, first, second)
            parts.append((ids[low], ids[high], overlap[kept], times[low], times[high]))
        query_i, query_j, overlap, time_i, time_j = (np.concatenate(column) for column in zip(*parts))
        return query_i, query_j, overlap, time_i, time_j

    def makespans(self) -> list[float]:
        return [round_log.makespan for round_log in self._rounds]

    def concurrency_snapshots(self, per_instance: bool = False) -> list[ConcurrencySnapshot]:
        """All concurrent-state snapshots across rounds (simulator training data)."""
        snapshots: list[ConcurrencySnapshot] = []
        for round_log in self._rounds:
            snapshots.extend(round_log.concurrency_snapshots(per_instance=per_instance))
        return snapshots
