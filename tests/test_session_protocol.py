"""Conformance tests for the tightened ``SessionBackend`` protocol.

The environment is backend-agnostic through two typed protocols in
``repro.core.env``: ``SessionBackend`` (things that open rounds) and
``SchedulingSession`` (the live rounds themselves).  These tests pin the
signature and assert that every production implementation — the real engine,
the learned simulator, their fleet counterparts and the runtime tenant —
actually satisfies both, and that the four backend sessions share the
``BackendSession`` transitions and single-instance answers.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import ExternalKnowledge, SchedulingSession, SessionBackend
from repro.core.simulator import LearnedSimulator, SimulatedSession
from repro.dbms import Cluster, ClusterSession, ConfigurationSpace, RunningParameters
from repro.dbms.engine import ExecutionSession
from repro.dbms.soa import SOA_DEFERRED, SOA_FAILED, SOA_PENDING, BackendSession
from repro.encoder import PlanEmbeddingCache, QueryFormer
from repro.perf import PerformanceModel, SimulatedCluster, SimulatedClusterSession
from repro.plans import PlanFeaturizer
from repro.runtime import ExecutionRuntime, RuntimeTenant, TenantSession

_PROTOCOL_PARAMETERS = {
    "batch": inspect.Parameter.empty,
    "num_connections": None,
    "strategy": "",
    "round_id": None,
}


@pytest.fixture(scope="module")
def parts():
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    rng = np.random.default_rng(0)
    queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config.encoder, rng)
    embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)
    simulator = LearnedSimulator(batch, embeddings, knowledge, space, config.simulator, seed=0)
    sim_cluster = SimulatedCluster(
        PerformanceModel(
            batch=batch, plan_embeddings=embeddings, knowledge=knowledge,
            config_space=space, config=config.simulator, seed=0,
            instance_speeds=(1.0, 1.0),
        ),
        [3, 3],
    )
    return batch, engine, simulator, space, sim_cluster


def _check_new_session_signature(backend_cls) -> None:
    signature = inspect.signature(backend_cls.new_session)
    parameters = dict(signature.parameters)
    parameters.pop("self", None)
    for name, default in _PROTOCOL_PARAMETERS.items():
        assert name in parameters, f"{backend_cls.__name__}.new_session is missing {name!r}"
        parameter = parameters.pop(name)
        assert parameter.default == default, (
            f"{backend_cls.__name__}.new_session({name}) default is {parameter.default!r}, "
            f"protocol requires {default!r}"
        )
    # Extra parameters beyond the protocol must be optional, so a protocol-only
    # caller (the environment, the runtime) can always invoke the backend.
    for name, parameter in parameters.items():
        assert parameter.default is not inspect.Parameter.empty, (
            f"{backend_cls.__name__}.new_session has a required extra parameter {name!r}"
        )


class TestBackendConformance:
    def test_signatures(self):
        for backend_cls in (DatabaseEngine, LearnedSimulator, RuntimeTenant, Cluster, SimulatedCluster):
            _check_new_session_signature(backend_cls)

    def test_engine_satisfies_protocol(self, parts):
        batch, engine, _, _, _ = parts
        assert isinstance(engine, SessionBackend)
        session = engine.new_session(batch, num_connections=4, strategy="probe", round_id=0)
        assert isinstance(session, ExecutionSession)
        assert isinstance(session, SchedulingSession)

    def test_simulator_satisfies_protocol(self, parts):
        batch, _, simulator, _, _ = parts
        assert isinstance(simulator, SessionBackend)
        session = simulator.new_session(batch, num_connections=4, strategy="probe", round_id=0)
        assert isinstance(session, SimulatedSession)
        assert isinstance(session, SchedulingSession)

    def test_runtime_tenant_satisfies_protocol(self, parts):
        batch, engine, _, _, _ = parts
        tenant = ExecutionRuntime(engine).register("t", batch)
        assert isinstance(tenant, SessionBackend)
        session = tenant.new_session(batch, num_connections=4, strategy="probe", round_id=0)
        assert isinstance(session, TenantSession)
        assert isinstance(session, SchedulingSession)

    def test_cluster_satisfies_protocol(self, parts):
        batch, _, _, _, _ = parts
        cluster = Cluster.from_names(["x", "y"], seed=0)
        assert isinstance(cluster, SessionBackend)
        session = cluster.new_session(batch, num_connections=2, strategy="probe", round_id=0)
        assert isinstance(session, ClusterSession)
        assert isinstance(session, SchedulingSession)

    def test_simulated_cluster_satisfies_protocol(self, parts):
        batch, _, _, _, sim_cluster = parts
        assert isinstance(sim_cluster, SessionBackend)
        session = sim_cluster.new_session(batch, num_connections=2, strategy="probe", round_id=0)
        assert isinstance(session, SimulatedClusterSession)
        assert isinstance(session, SchedulingSession)


class TestSessionBehaviouralParity:
    """The protocol is behavioural, not just structural: every implementation
    must run one round the same way from the environment's point of view."""

    @pytest.mark.parametrize("kind", ["engine", "simulator", "tenant", "cluster", "simulated-cluster"])
    def test_round_trip(self, parts, kind):
        batch, engine, simulator, space, sim_cluster = parts
        if kind == "engine":
            session = engine.new_session(batch, num_connections=3, round_id=5)
        elif kind == "simulator":
            session = simulator.new_session(batch, num_connections=3, round_id=5)
        elif kind == "cluster":
            session = Cluster.from_names(["x", "y"], seed=0).new_session(
                batch, num_connections=3, round_id=5
            )
        elif kind == "simulated-cluster":
            session = sim_cluster.new_session(batch, num_connections=3, round_id=5)
        else:
            runtime = ExecutionRuntime(engine)
            session = runtime.register("t", batch).new_session(batch, num_connections=3, round_id=5)
        # The backend session under test: a tenant's is the runtime's shared one.
        backend = runtime.shared_session if kind == "tenant" else session
        assert isinstance(backend, BackendSession)
        assert session.log.round_id == 5
        assert not session.is_done and session.has_pending and session.has_idle_connection
        assert session.unarrived_ids() == ()
        assert session.arrival_time(0) == 0.0
        parameters = RunningParameters(1, 64)
        connection = session.submit(0, parameters)
        assert isinstance(connection, int) and session.num_running == 1
        assert 0 not in session.pending
        states = session.running_states()
        assert len(states) == 1 and states[0].query.query_id == 0
        session.advance()
        assert session.finished and session.current_time > 0
        assert session.makespan == max(session.finished.values())

        # The shared transitions: defer -> release -> mark_failed.
        status = backend.state_arrays.status
        backend.defer([1])
        assert 1 in backend.deferred and 1 not in backend.pending and status[1] == SOA_DEFERRED
        assert backend.unarrived_ids() == (1,)
        backend.release(1)
        assert 1 in backend.pending and not backend.deferred and status[1] == SOA_PENDING
        backend.mark_failed(1)
        assert 1 in backend.failed and 1 not in backend.pending and status[1] == SOA_FAILED
        with pytest.raises(backend.error):
            backend.release(1)

        # Cancelling a running query frees its connection and requeues it;
        # the resubmission then runs to completion.
        connection = backend.submit(2, parameters)
        assert backend.cancel(2) == connection
        assert 2 in backend.pending and 2 not in backend.running and status[2] == SOA_PENDING
        assert backend.num_running == 0 and backend.has_idle_connection
        backend.submit(2, parameters)
        while 2 not in backend.finished:
            backend.advance()

        if kind in ("engine", "simulator", "tenant"):
            for view in (session, backend):
                assert view.num_instances == 1
                assert view.idle_instances() == [0]
                assert view.instance_of(0) == 0 and view.instance_of(3) == -1
                assert view.instance_health() == [True]
            assert backend.next_fault_wakeup() is None
