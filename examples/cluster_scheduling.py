"""Joint query placement + ordering on a heterogeneous engine cluster.

Builds a mixed X/Y/Z fleet, compares the placement heuristics (round-robin,
least-outstanding-work, greedy expected-cost), trains a small RL policy whose
flat action space jointly picks (query, instance, configuration), and runs it
both as closed-batch rounds and as a two-tenant streaming service sharing
the fleet.

Run with::

    PYTHONPATH=src python examples/cluster_scheduling.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import BQSchedConfig, Cluster, LSchedScheduler, make_workload
from repro.core import (
    GreedyCostPlacementScheduler,
    LeastOutstandingWorkScheduler,
    RoundRobinPlacementScheduler,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from harness.harness import heuristic_env  # noqa: E402


def main() -> None:
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 2  # per instance

    fleet = Cluster.from_names(("x", "y", "z"), seed=0)
    print(f"fleet: {fleet}")
    print(f"relative speeds: {[round(s, 2) for s in fleet.speed_factors()]}")

    env = heuristic_env(workload, fleet, config)
    print("\nPlacement heuristics (3 rounds each):")
    for scheduler in (
        RoundRobinPlacementScheduler(),
        LeastOutstandingWorkScheduler(),
        GreedyCostPlacementScheduler(),
    ):
        evaluation = scheduler.evaluate(env, rounds=3)
        print(f"  {scheduler.name:24s} makespan {evaluation.mean:6.2f} ± {evaluation.std:.2f} s")

    print("\nTraining LSched on the fleet (joint placement + ordering)...")
    scheduler = LSchedScheduler(workload, fleet, config)
    scheduler.prepare(history_rounds=2)
    scheduler.train(num_updates=3)
    evaluation = scheduler.evaluate_policy(rounds=3)
    print(f"  {scheduler.name:24s} makespan {evaluation.mean:6.2f} ± {evaluation.std:.2f} s")

    print("\nServing two streaming tenants on the shared fleet:")
    report = scheduler.serve(num_tenants=2, arrivals="poisson")
    print(report)


if __name__ == "__main__":
    main()
