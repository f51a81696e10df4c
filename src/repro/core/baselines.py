"""Heuristic scheduling baselines: Random, FIFO, MCF.

These are the strategies pipeline tools such as DBT use today (Section I).
They pick the next query to submit without modelling resource sharing or
contention, and always use the default running parameters — exactly how a
parameter-oblivious pipeline runner behaves.
"""

from __future__ import annotations

import abc

import numpy as np

from ..dbms.engine import next_instance_in_rotation
from ..encoder import SnapshotArrays
from ..exceptions import SchedulingError
from ..perf import PerformanceEstimator
from .env import SchedulingEnv, greedy_cost_instance
from .types import SchedulingResult, StrategyEvaluation

__all__ = [
    "BaseScheduler",
    "RandomScheduler",
    "FIFOScheduler",
    "MCFScheduler",
    "RoundRobinPlacementScheduler",
    "LeastOutstandingWorkScheduler",
    "GreedyCostPlacementScheduler",
]


class BaseScheduler(abc.ABC):
    """Common interface of every scheduling strategy in the repository."""

    name: str = "base"

    @abc.abstractmethod
    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        """Return the flat action to take in ``env`` given the current ``snapshot``."""

    def on_round_start(self, env: SchedulingEnv) -> None:
        """Hook called after ``env.reset``; heuristics that precompute an order use it."""

    def run_round(self, env: SchedulingEnv, round_id: int | None = None) -> SchedulingResult:
        """Schedule one complete round and return the result."""
        snapshot = env.reset(round_id=round_id, strategy=self.name)
        self.on_round_start(env)
        done = False
        total_reward = 0.0
        while not done:
            action = self.select_action(env, snapshot)
            step = env.step(action)
            snapshot = step.snapshot
            total_reward += step.reward
            done = step.done
        result = env.result()
        result.strategy = self.name
        result.total_reward = total_reward
        return result

    def evaluate(self, env: SchedulingEnv, rounds: int = 5, base_round_id: int = 0) -> StrategyEvaluation:
        """Run ``rounds`` scheduling rounds and collect efficiency / stability metrics."""
        if rounds < 1:
            raise SchedulingError("rounds must be >= 1")
        evaluation = StrategyEvaluation(strategy=self.name)
        for offset in range(rounds):
            result = self.run_round(env, round_id=base_round_id + offset)
            evaluation.add(result.makespan)
        return evaluation


class _HeuristicScheduler(BaseScheduler):
    """Shared machinery: pick a pending query by some key, default configuration."""

    def _pending_slots(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> list[int]:
        if env.cluster_mode:
            raise SchedulingError(f"{self.name} operates on query-level environments only")
        if env.num_instances > 1:
            raise SchedulingError(
                f"{self.name} is placement-oblivious; use a placement-aware scheduler "
                "(RoundRobinPlacementScheduler & friends) on multi-instance fleets"
            )
        pending = snapshot.pending_ids
        if not pending:
            raise SchedulingError("no pending query to schedule")
        return pending

    def _default_config(self, env: SchedulingEnv, query_id: int) -> int:
        allowed = env.mask.allowed_configs(query_id)
        return allowed[0] if allowed else 0


class RandomScheduler(_HeuristicScheduler):
    """Submit pending queries in uniformly random order."""

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        pending = self._pending_slots(env, snapshot)
        query_id = int(self._rng.choice(pending))
        return env.encode_action(query_id, self._default_config(env, query_id))


class FIFOScheduler(_HeuristicScheduler):
    """Submit queries in their original (template) order — what DBT does."""

    name = "FIFO"

    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        pending = self._pending_slots(env, snapshot)
        query_id = min(pending)
        return env.encode_action(query_id, self._default_config(env, query_id))


class MCFScheduler(_HeuristicScheduler):
    """Maximum Cost First: submit the slowest pending query first.

    Costs come from the environment's external knowledge (log-derived average
    execution times), which mirrors extracting them from historical logs.
    """

    name = "MCF"

    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        pending = self._pending_slots(env, snapshot)
        query_id = max(pending, key=lambda qid: env.knowledge.average_time(qid))
        return env.encode_action(query_id, self._default_config(env, query_id))


class _PlacementScheduler(_HeuristicScheduler):
    """Shared machinery of the placement baselines.

    Query *ordering* follows the pipeline default (FIFO, or MCF when
    ``order = "mcf"``); the subclass decides the *placement* among the
    instances that currently have an idle connection.  This is exactly how a
    placement heuristic bolts onto a parameter-oblivious pipeline runner.  On
    a single engine (a fleet of one) every placement is instance 0, so each
    baseline schedules exactly as its query order does.

    Cost estimates resolve through :meth:`_estimator`: the environment's
    log/probe-derived knowledge by default, or any
    :class:`~repro.perf.PerformanceEstimator` (e.g. a learned
    :class:`~repro.perf.PerformanceModel`) supplied by the subclass.
    """

    order = "fifo"
    #: Optional estimator overriding the environment's external knowledge.
    perf: "PerformanceEstimator | None" = None

    def _estimator(self, env: SchedulingEnv) -> PerformanceEstimator:
        return self.perf if self.perf is not None else env.knowledge

    def _pick_query(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        pending = snapshot.pending_ids
        if not pending:
            raise SchedulingError("no pending query to schedule")
        if self.order == "mcf":
            estimator = self._estimator(env)
            return max(pending, key=lambda qid: estimator.average_time(qid))
        return min(pending)

    def _pick_instance(self, env: SchedulingEnv, query_id: int, available: list[int]) -> int:
        raise NotImplementedError

    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        if env.cluster_mode:
            raise SchedulingError(
                f"{self.name} places individual queries; a gain-clustered environment "
                "schedules (cluster, instance, configuration) actions"
            )
        available = env.available_instances()
        if not available:
            raise SchedulingError("no instance has an idle connection")
        query_id = self._pick_query(env, snapshot)
        instance = self._pick_instance(env, query_id, available)
        return env.encode_placement(query_id, instance, self._default_config(env, query_id))


class RoundRobinPlacementScheduler(_PlacementScheduler):
    """Rotate submissions across instances, skipping saturated ones."""

    name = "RR-placement"

    def __init__(self) -> None:
        self._cursor = 0

    def on_round_start(self, env: SchedulingEnv) -> None:
        self._cursor = 0

    def _pick_instance(self, env: SchedulingEnv, query_id: int, available: list[int]) -> int:
        instance = next_instance_in_rotation(available, self._cursor, env.num_instances)
        self._cursor = (instance + 1) % env.num_instances
        return instance


class LeastOutstandingWorkScheduler(_PlacementScheduler):
    """Place on the instance with the least expected outstanding work.

    Outstanding work is measured in reference-instance seconds (log-derived
    expected times minus elapsed), i.e. the heuristic balances *work*, not
    hardware-adjusted completion time — the classic load balancer that a
    heterogeneous fleet defeats.
    """

    name = "LOW-placement"

    def _pick_instance(self, env: SchedulingEnv, query_id: int, available: list[int]) -> int:
        outstanding = env.instance_outstanding_work()
        return min(available, key=lambda index: (outstanding[index], index))


class GreedyCostPlacementScheduler(_PlacementScheduler):
    """Greedy expected-completion placement, MCF query order.

    Picks the instance minimising ``(outstanding + expected) / speed`` — the
    strongest myopic heuristic: speed-aware, load-aware, but blind to data
    sharing, buffer warmth and long-tail interactions.

    Costs come from the :class:`~repro.perf.PerformanceEstimator` interface:
    by default the environment's log/probe knowledge, or pass a learned
    :class:`~repro.perf.PerformanceModel` as ``perf`` to price queries from
    the trained prediction model instead of private engine estimates.
    """

    name = "GreedyCost-placement"
    order = "mcf"

    def __init__(self, perf: "PerformanceEstimator | None" = None) -> None:
        self.perf = perf

    def _pick_instance(self, env: SchedulingEnv, query_id: int, available: list[int]) -> int:
        return greedy_cost_instance(
            available,
            env.instance_outstanding_work(),
            env.instance_speed_factors(),
            self._estimator(env).average_time(query_id),
        )
