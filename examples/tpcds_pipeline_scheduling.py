"""Scheduling a nightly TPC-DS reporting pipeline (the paper's motivating case).

99 analytical queries arrive as one dependency-free batch every night; the
goal is to finish the batch as early as possible on a fixed-size DBMS.  The
example compares FIFO (what DBT does), MCF, and BQSched, then prints the
learned Gantt chart and the per-configuration choices BQSched made.

Run with::

    python examples/tpcds_pipeline_scheduling.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import FIFOScheduler, MCFScheduler

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from harness.reporting import render_gantt  # noqa: E402


def main() -> None:
    workload = make_workload("tpcds", scale_factor=1.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 12

    scheduler = BQSched(workload, engine, config)
    print(f"Batch: {workload.num_queries} TPC-DS queries, "
          f"{config.scheduler.num_connections} connections, "
          f"{len(scheduler.config_space)} running-parameter configurations")
    print(f"Adaptive masking prunes {scheduler.mask.masked_fraction():.0%} of the action space")

    fifo = FIFOScheduler().evaluate(scheduler.env, rounds=3)
    mcf = MCFScheduler().evaluate(scheduler.env, rounds=3)

    scheduler.train(num_updates=6, pretrain_updates=6)
    learned = scheduler.evaluate_policy(rounds=3)

    print("\nNightly batch makespan (mean ± std over 3 rounds):")
    for evaluation in (fifo, mcf, learned):
        print(f"  {evaluation.strategy:<8} {evaluation.mean:6.2f} s ± {evaluation.std:.2f}")
    print(f"\nImprovement over FIFO: {1 - learned.mean / fifo.mean:.0%}")

    result = scheduler.schedule(round_id=0)
    print("\nLearned scheduling plan (query ids on connections):")
    print(render_gantt(result.connection_timeline(), width=90))

    configs = Counter(str(record.parameters) for record in result.round_log)
    print("\nRunning-parameter configurations chosen by the policy:")
    for params, count in configs.most_common():
        print(f"  {params:<10} x{count}")


if __name__ == "__main__":
    main()
