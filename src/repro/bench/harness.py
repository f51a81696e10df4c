"""Experiment harness reproducing the paper's tables and figures.

Every benchmark in ``benchmarks/`` calls into this module.  Two effort
profiles are supported via the ``REPRO_BENCH_PROFILE`` environment variable:

* ``quick`` (default) — small training budgets so the whole suite finishes on
  a laptop CPU in minutes; the strategy *ordering* is still expected to hold.
* ``full`` — larger budgets closer to a converged RL policy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..config import BQSchedConfig
from ..core import (
    AdaptiveMask,
    BQSched,
    BaseScheduler,
    FIFOScheduler,
    GreedyCostPlacementScheduler,
    LeastOutstandingWorkScheduler,
    LSchedScheduler,
    MCFScheduler,
    RandomScheduler,
    RLSchedulerBase,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
    StrategyEvaluation,
)
from ..core.knowledge import ExternalKnowledge
from ..dbms import Cluster, ConfigurationSpace, DatabaseEngine, DBMSProfile
from ..runtime import ServiceReport
from ..workloads import Workload, make_arrival_process, make_workload

__all__ = [
    "BenchProfile",
    "Scenario",
    "heuristic_env",
    "get_profile",
    "evaluate_heuristics",
    "evaluate_placement_baselines",
    "evaluate_rl",
    "evaluate_service",
    "run_strategy_comparison",
]

HEURISTICS = ("Random", "FIFO", "MCF")


@dataclass(frozen=True)
class BenchProfile:
    """Effort profile controlling training budgets and evaluation rounds."""

    name: str
    train_updates: int
    pretrain_updates: int
    history_rounds: int
    evaluation_rounds: int
    num_connections: int

    @classmethod
    def quick(cls) -> "BenchProfile":
        return cls(
            name="quick",
            train_updates=4,
            pretrain_updates=4,
            history_rounds=2,
            evaluation_rounds=3,
            num_connections=8,
        )

    @classmethod
    def full(cls) -> "BenchProfile":
        return cls(
            name="full",
            train_updates=20,
            pretrain_updates=20,
            history_rounds=4,
            evaluation_rounds=5,
            num_connections=12,
        )


def get_profile() -> BenchProfile:
    """Read the effort profile from ``REPRO_BENCH_PROFILE`` (quick / full)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    return BenchProfile.full() if name == "full" else BenchProfile.quick()


@dataclass
class Scenario:
    """A (benchmark, DBMS, scale) experiment cell."""

    benchmark: str
    dbms: str
    data_scale: float = 1.0
    query_scale: float = 1.0
    seed: int = 0
    profile: BenchProfile = field(default_factory=get_profile)

    def build(self) -> tuple[Workload, DatabaseEngine, BQSchedConfig]:
        workload = make_workload(
            self.benchmark, scale_factor=self.data_scale, query_scale=self.query_scale, seed=self.seed
        )
        engine = DatabaseEngine(DBMSProfile.by_name(self.dbms), seed=self.seed)
        config = BQSchedConfig.small(seed=self.seed)
        config.scheduler.num_connections = self.profile.num_connections
        config.scheduler.evaluation_rounds = self.profile.evaluation_rounds
        return workload, engine, config

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.dbms} (data {self.data_scale}x, query {self.query_scale}x)"


def heuristic_env(workload: Workload, backend: "DatabaseEngine | Cluster", config: BQSchedConfig) -> SchedulingEnv:
    """An unmasked environment over ``backend`` (probed knowledge) for the heuristic baselines.

    On a :class:`~repro.dbms.Cluster` its actions place queries across the
    fleet (the placement baselines); on a single engine, the one instance.
    """
    batch = workload.batch_query_set()
    config_space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(backend, batch, config_space)
    return SchedulingEnv(
        batch=batch,
        backend=backend,
        scheduler_config=config.scheduler,
        config_space=config_space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(config_space)),
        strategy_name="heuristic",
    )


def evaluate_heuristics(
    workload: Workload,
    engine: DatabaseEngine,
    config: BQSchedConfig,
    rounds: int,
    seed: int = 0,
) -> dict[str, StrategyEvaluation]:
    """Evaluate Random / FIFO / MCF on one scenario."""
    env = heuristic_env(workload, engine, config)
    schedulers: list[BaseScheduler] = [RandomScheduler(seed=seed), FIFOScheduler(), MCFScheduler()]
    return {scheduler.name: scheduler.evaluate(env, rounds=rounds) for scheduler in schedulers}


def evaluate_placement_baselines(
    workload: Workload,
    cluster: Cluster,
    config: BQSchedConfig,
    rounds: int,
) -> dict[str, StrategyEvaluation]:
    """Evaluate the placement heuristics (RR / LOW / greedy-cost) on a fleet."""
    env = heuristic_env(workload, cluster, config)
    schedulers: list[BaseScheduler] = [
        RoundRobinPlacementScheduler(),
        LeastOutstandingWorkScheduler(),
        GreedyCostPlacementScheduler(),
    ]
    return {scheduler.name: scheduler.evaluate(env, rounds=rounds) for scheduler in schedulers}


def evaluate_rl(
    workload: Workload,
    engine: DatabaseEngine,
    config: BQSchedConfig,
    scheduler_cls: type[RLSchedulerBase],
    profile: BenchProfile,
    rounds: int,
) -> tuple[StrategyEvaluation, RLSchedulerBase]:
    """Train and evaluate an RL scheduler (BQSched or LSched) on one scenario."""
    scheduler = scheduler_cls(workload, engine, config)
    pretrain = profile.pretrain_updates if scheduler.use_simulator else 0
    scheduler.train(
        num_updates=profile.train_updates,
        pretrain_updates=pretrain,
        history_rounds=profile.history_rounds,
    )
    evaluation = scheduler.evaluate_policy(rounds=rounds)
    evaluation.strategy = scheduler.name
    return evaluation, scheduler


def evaluate_service(
    scheduler: RLSchedulerBase,
    num_tenants: int,
    arrival_process: str = "poisson",
    arrival_rate: float = 2.0,
    burst_size: int = 4,
    num_connections: int | None = None,
    round_id: int = 80_000,
) -> ServiceReport:
    """Serve a (trained) RL scheduler over a multi-tenant streaming round.

    This is the event-driven serving scenario: ``num_tenants`` copies of the
    scheduler's batch share one engine, each arriving as a stream described
    by ``arrival_process`` (``closed`` / ``poisson`` / ``bursty``).
    """
    arrivals = make_arrival_process(arrival_process, rate=arrival_rate, burst_size=burst_size)
    return scheduler.serve(
        num_tenants=num_tenants,
        arrivals=arrivals,
        num_connections=num_connections,
        round_id=round_id,
    )


def run_strategy_comparison(
    scenario: Scenario,
    include_rl: bool = True,
    rl_classes: tuple[type[RLSchedulerBase], ...] = (LSchedScheduler, BQSched),
) -> dict[str, StrategyEvaluation]:
    """Evaluate all five strategies of Table I on one scenario."""
    workload, engine, config = scenario.build()
    rounds = scenario.profile.evaluation_rounds
    results = evaluate_heuristics(workload, engine, config, rounds=rounds, seed=scenario.seed)
    if include_rl:
        for scheduler_cls in rl_classes:
            evaluation, _ = evaluate_rl(workload, engine, config, scheduler_cls, scenario.profile, rounds)
            results[evaluation.strategy] = evaluation
    return results
