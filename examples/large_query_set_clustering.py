"""Scaling to large query sets with scheduling-gain based clustering.

When the batch grows to hundreds of queries (here: a 2x TPC-DS query set,
198 queries) the scheduling space explodes.  This example shows how BQSched
extracts pairwise scheduling gains from historical logs, clusters the
queries, and schedules at cluster granularity — plus how the learned
simulator keeps most training off the DBMS.

Run with::

    python examples/large_query_set_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import BQSched, FIFOScheduler, compute_scheduling_gains


def main() -> None:
    workload = make_workload("tpcds", scale_factor=1.0, query_scale=2.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 12
    config.clustering.num_clusters = 25

    scheduler = BQSched(workload, engine, config)
    print(f"Batch of {workload.num_queries} queries -> clustering is "
          f"{'enabled' if scheduler.use_clustering else 'disabled'}")

    # Collect history and build the gain-based clusters.
    scheduler.prepare(history_rounds=3)
    gains, observed = compute_scheduling_gains(scheduler.history_log, scheduler.batch)
    print(f"Observed concurrent pairs in logs: {observed.sum() // 2} "
          f"(mean gain {gains[observed].mean():+.3f})")
    clusters = scheduler.clusters
    print(f"Clusters: {clusters.num_clusters}, sizes min/median/max = "
          f"{min(clusters.sizes())}/{int(np.median(clusters.sizes()))}/{max(clusters.sizes())}")
    print(f"Action space: {scheduler.env.action_dim} (vs "
          f"{len(scheduler.batch) * len(scheduler.config_space)} at query granularity)")

    # Train (pre-training happens on the learned simulator) and compare to FIFO.
    scheduler.train(num_updates=4, pretrain_updates=4)
    learned = scheduler.evaluate_policy(rounds=3)

    # FIFO needs a query-level environment; build one without clusters.
    from repro.core import SchedulingEnv, AdaptiveMask

    query_env = SchedulingEnv(
        batch=scheduler.batch,
        backend=engine,
        scheduler_config=config.scheduler,
        config_space=scheduler.config_space,
        knowledge=scheduler.knowledge,
        mask=AdaptiveMask.unmasked(len(scheduler.batch), len(scheduler.config_space)),
    )
    fifo = FIFOScheduler().evaluate(query_env, rounds=3)

    print(f"\nFIFO    : {fifo.mean:6.2f} s ± {fifo.std:.2f}")
    print(f"BQSched : {learned.mean:6.2f} s ± {learned.std:.2f} (cluster-level scheduling)")
    print(f"Training wall-clock: {scheduler.timings['train_total']:.1f} s "
          f"({scheduler.timings.get('pretrain', 0.0):.1f} s of which on the simulator)")


if __name__ == "__main__":
    main()
