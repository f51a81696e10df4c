"""Differential parity: one engine scheduled directly and as a fleet of one.

``SchedulingEnv`` over a :class:`~repro.dbms.DatabaseEngine` and over a
:class:`~repro.dbms.Cluster` wrapping that same engine must be the same
decision process: at every decision the action masks and the observable
snapshot columns agree, and the finished rounds hash to the same log
digest.  The strategies cover query-level heuristics (FIFO, MCF, Random)
and a gain-clustered drain driven by random valid actions.  Under faults
(errors, hangs, an outage, retries with a timeout) the runtime over the
engine and over the fleet of one must see the same state after every event.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    FIFOScheduler,
    MCFScheduler,
    RandomScheduler,
    SchedulingEnv,
    cluster_queries,
)
from repro.config import RetryPolicy
from repro.dbms import Cluster, ConfigurationSpace, FailureProfile, OutageWindow
from repro.runtime import ControlPlane, ExecutionRuntime, QueryFailure

from snapshot_oracle import instance_health

#: The observable per-query columns the policy featurizes.
_COLUMNS = ("status", "config_index", "elapsed", "expected_time", "available")


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


@pytest.fixture(scope="module")
def parts():
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 2
    space = ConfigurationSpace(config.scheduler)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    mask = AdaptiveMask.build(batch, knowledge, space, config.masking)
    n = len(batch)
    clusters = cluster_queries(batch, np.random.default_rng(3).random((n, n)), 5, knowledge=knowledge)
    return batch, config, space, engine, knowledge, mask, clusters


def _env_pair(parts, clusters=None) -> tuple[SchedulingEnv, SchedulingEnv]:
    batch, config, space, engine, knowledge, mask, _ = parts
    return tuple(  # type: ignore[return-value]
        SchedulingEnv(
            batch=batch,
            backend=backend,
            scheduler_config=config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=mask,
            clusters=clusters,
        )
        for backend in (engine, Cluster([engine]))
    )


def _drive(env: SchedulingEnv, choose, round_id: int):
    """Run one round; record the mask and snapshot columns at every decision."""
    snapshot = env.reset(round_id=round_id, strategy="parity")
    decisions = []
    done = False
    while not done:
        assert env.can_decide()
        mask = env.action_mask()
        columns = {name: np.array(getattr(snapshot, name)) for name in _COLUMNS}
        columns["attempts"] = env.session.failed_attempts.copy()
        decisions.append((mask.copy(), columns))
        step = env.step(choose(env, snapshot, mask))
        snapshot, done = step.snapshot, step.done
    return decisions, _digest(env.result().round_log)


def _assert_same_process(engine_env: SchedulingEnv, fleet_env: SchedulingEnv, make_chooser, round_id: int):
    assert engine_env.action_dim == fleet_env.action_dim
    engine_run = _drive(engine_env, make_chooser(), round_id)
    fleet_run = _drive(fleet_env, make_chooser(), round_id)
    engine_decisions, engine_digest = engine_run
    fleet_decisions, fleet_digest = fleet_run
    assert len(engine_decisions) == len(fleet_decisions)
    for index, ((engine_mask, engine_cols), (fleet_mask, fleet_cols)) in enumerate(
        zip(engine_decisions, fleet_decisions)
    ):
        assert engine_mask.tobytes() == fleet_mask.tobytes(), f"mask differs at decision {index}"
        for name in (*_COLUMNS, "attempts"):
            assert engine_cols[name].dtype == fleet_cols[name].dtype, (index, name)
            assert engine_cols[name].tobytes() == fleet_cols[name].tobytes(), (index, name)
    assert engine_digest == fleet_digest


def _heuristic(scheduler_factory):
    def make_chooser():
        scheduler = scheduler_factory()
        return lambda env, snapshot, mask: scheduler.select_action(env, snapshot)

    return make_chooser


@pytest.mark.parametrize(
    "name, factory, round_id",
    [
        ("FIFO", FIFOScheduler, 0),
        ("MCF", MCFScheduler, 1),
        ("Random", lambda: RandomScheduler(seed=7), 2),
    ],
)
def test_heuristic_rounds_match_on_a_fleet_of_one(parts, name, factory, round_id):
    engine_env, fleet_env = _env_pair(parts)
    _assert_same_process(engine_env, fleet_env, _heuristic(factory), round_id)


def test_gain_clustered_random_drain_matches_on_a_fleet_of_one(parts):
    clusters = parts[-1]
    engine_env, fleet_env = _env_pair(parts, clusters=clusters)
    assert engine_env.cluster_mode and fleet_env.cluster_mode

    def make_chooser():
        rng = np.random.default_rng(11)
        return lambda env, snapshot, mask: int(rng.choice(np.flatnonzero(mask)))

    _assert_same_process(engine_env, fleet_env, make_chooser, round_id=3)


#: Errors, stragglers and an outage of the (only) instance while work runs.
_FAULTS = FailureProfile(error_rate=0.2, hang_rate=0.1, outages=(OutageWindow(0, 1.0, 2.5),))


def _faulty_fifo_trace(backend, batch, space):
    """FIFO through the runtime, which opens the round with ``_FAULTS``; the observable state after every
    runtime event."""
    runtime = ExecutionRuntime(backend, faults=_FAULTS, control=ControlPlane(retry=RetryPolicy(3, timeout=8.0)))
    session = runtime.register("t", batch).new_session(batch, num_connections=3, round_id=0)
    shared = runtime.shared_session
    trace = []
    while not runtime.is_done:
        while session.pending and session.has_idle_connection:
            session.submit(session.pending[0], space[0])
        if runtime.is_done:
            break
        event = runtime.advance()
        trace.append(
            (
                event,
                list(session.pending),
                list(shared.pending),
                session.soa_status.tobytes(),
                shared.num_running,
                shared.instance_num_running(),
                instance_health(shared),
            )
        )
    return trace


@pytest.mark.parametrize("seed", range(6))
def test_faulty_runtime_matches_on_a_fleet_of_one(parts, seed):
    batch, _, space = parts[:3]
    engine_trace = _faulty_fifo_trace(DatabaseEngine(DBMSProfile.dbms_x(), seed=seed), batch, space)
    fleet_trace = _faulty_fifo_trace(Cluster([DatabaseEngine(DBMSProfile.dbms_x(), seed=seed)]), batch, space)
    assert any(isinstance(entry[0], QueryFailure) for entry in engine_trace)
    assert len(engine_trace) == len(fleet_trace)
    for index, (engine_entry, fleet_entry) in enumerate(zip(engine_trace, fleet_trace)):
        assert engine_entry == fleet_entry, f"runtime state differs after event {index}"
