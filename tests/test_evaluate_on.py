"""``evaluate_on`` is one batch context plus ``evaluate()``.

Before it ran the scheduler's one greedy loop, ``evaluate_on`` rebuilt the
embeddings, knowledge and mask by hand and stepped the policy in a loop of its
own.  That loop is kept here as the oracle: on a perturbed workload, on one
engine and on a three-instance fleet, the surviving path must return the same
makespans bit for bit.
"""

from __future__ import annotations

import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import AdaptiveMask, BQSched, ExternalKnowledge, LSchedScheduler, SchedulingEnv, StrategyEvaluation
from repro.core.bqsched import EVALUATE_ON_BASE_ROUND_ID
from repro.dbms import Cluster
from repro.encoder import PlanEmbeddingCache
from repro.workloads import perturb_workload


def legacy_evaluate_on(scheduler, workload, engine, rounds, base_round_id) -> StrategyEvaluation:
    """The hand-written loop ``evaluate_on`` ran before it became ``evaluate()``."""
    batch = workload.batch_query_set()
    plan_embeddings = PlanEmbeddingCache(scheduler.queryformer).embeddings_for(batch)
    knowledge = ExternalKnowledge.from_probes(engine, batch, scheduler.config_space)
    mask = (
        AdaptiveMask.build(batch, knowledge, scheduler.config_space, scheduler.config.masking)
        if scheduler.use_masking
        else AdaptiveMask.unmasked(len(batch), len(scheduler.config_space))
    )
    env = SchedulingEnv(
        batch=batch,
        backend=engine,
        scheduler_config=scheduler.config.scheduler,
        config_space=scheduler.config_space,
        knowledge=knowledge,
        mask=mask,
        strategy_name=scheduler.name,
    )
    evaluation = StrategyEvaluation(strategy=scheduler.name)
    for offset in range(rounds):
        snapshot = env.reset(round_id=base_round_id + offset)
        done = False
        while not done:
            step = env.step(scheduler.policy.greedy_action(plan_embeddings, snapshot, env.action_mask()))
            snapshot, done = step.snapshot, step.done
        evaluation.add(env.result().makespan)
    return evaluation


@pytest.fixture(scope="module")
def workloads():
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    return workload, perturb_workload(workload, data_factor=1.1, query_factor=1.2)


def _assert_same(scheduler, perturbed, backend):
    expected = legacy_evaluate_on(scheduler, perturbed, backend, rounds=2, base_round_id=EVALUATE_ON_BASE_ROUND_ID)
    evaluation = scheduler.evaluate_on(perturbed, backend, rounds=2)
    assert evaluation.strategy == expected.strategy == scheduler.name
    assert [m.hex() for m in evaluation.makespans] == [m.hex() for m in expected.makespans]


def test_evaluate_on_matches_the_hand_loop_on_one_engine(workloads):
    workload, perturbed = workloads
    assert len(perturbed.batch_query_set()) != len(workload.batch_query_set())
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    scheduler = BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), config)
    _assert_same(scheduler, perturbed, DatabaseEngine(DBMSProfile.dbms_x(), seed=1))


def test_evaluate_on_matches_the_hand_loop_on_a_fleet(workloads):
    workload, perturbed = workloads
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 2
    scheduler = LSchedScheduler(workload, Cluster.from_names(["x", "y", "z"], seed=0), config)
    _assert_same(scheduler, perturbed, Cluster.from_names(["x", "x", "y"], seed=1))
