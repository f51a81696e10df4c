"""Training learns: a few seconds of fine-tuning beat the initialisation and MCF.

Every other trainer test pins "nothing changed" or gradient parity, so a
learner that stopped learning (a flipped advantage sign, a zeroed policy-head
gradient) would pass them all.  This cell is cheap and far from its
initialisation: TPC-H's first 8 templates on 2 connections, where 64
fine-tuning updates move the greedy mean makespan on 8 fixed round ids from
6.56 s to 5.87 s, and MCF reads 7.01 s on the same ids.  Keep-best is off, so
the test sees the learner, not the selector.
"""

from __future__ import annotations

from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import SchedulerConfig
from repro.core import MCFScheduler

ROUNDS, BASE_ROUND_ID = 8, 5000


def test_fine_tuning_beats_the_initialisation_and_mcf():
    workload = make_workload("tpch", query_scale=0.35, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    scheduler = BQSched(workload, engine, BQSchedConfig(scheduler=SchedulerConfig(num_connections=2), seed=0))
    scheduler.prepare(3)
    assert len(scheduler.batch) == 8

    untrained = scheduler.evaluate(scheduler.env, rounds=ROUNDS, base_round_id=BASE_ROUND_ID).mean
    mcf = MCFScheduler().evaluate(scheduler.env, rounds=ROUNDS, base_round_id=BASE_ROUND_ID).mean
    scheduler.train(64, 0, keep_best=False)
    trained = scheduler.evaluate(scheduler.env, rounds=ROUNDS, base_round_id=BASE_ROUND_ID).mean

    assert trained < untrained, f"trained {trained:.3f} s is not below the untrained policy's {untrained:.3f} s"
    assert trained < mcf, f"trained {trained:.3f} s is not below MCF's {mcf:.3f} s"
