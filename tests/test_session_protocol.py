"""Conformance tests for the tightened ``SessionBackend`` protocol.

The environment is backend-agnostic through two typed protocols in
``repro.core.env``: ``SessionBackend`` (things that open rounds) and
``SchedulingSession`` (the live rounds themselves).  These tests pin the
signature and assert that every production implementation — the real engine,
the real cluster, the learned simulator (a simulated fleet, of one on a single
engine) and the runtime tenant — actually satisfies both, and that every
backend session is a ``FleetSession`` (a single engine's is a fleet of one)
with one copy of the round transitions and fleet answers.
"""

from __future__ import annotations

import inspect
import re

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import AutoscalePolicy
from repro.core import ExternalKnowledge, SchedulingSession, SessionBackend
from repro.dbms import INSTANCE_FEATURE_DIM, Cluster, ClusterSession, ConfigurationSpace, RunningParameters
from repro.dbms.soa import SOA_DEFERRED, SOA_FAILED, SOA_PENDING, FleetSession
from repro.encoder import PlanEmbeddingCache, QueryFormer
from repro.perf import PerformanceModel, SimulatedCluster, SimulatedClusterSession
from repro.plans import PlanFeaturizer
from repro.dbms.faults import FAILURE_OUTAGE, FailureProfile, OutageWindow
from repro.runtime import ControlPlane, ExecutionRuntime, RuntimeTenant, TenantSession
from repro.runtime import controlplane as controlplane_module
from repro.runtime import runtime as runtime_module

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
    simulator = SimulatedCluster(
        PerformanceModel(
            batch=batch, plan_embeddings=embeddings, knowledge=knowledge,
            config_space=space, config=config.simulator, seed=0,
        ),
        [engine.profile.default_connections],
    )
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
        for backend_cls in (DatabaseEngine, RuntimeTenant, Cluster, SimulatedCluster):
            _check_new_session_signature(backend_cls)

    def test_engine_satisfies_protocol(self, parts):
        batch, engine, _, _, _ = parts
        assert isinstance(engine, SessionBackend)
        session = engine.new_session(batch, num_connections=4, strategy="probe", round_id=0)
        assert isinstance(session, ClusterSession) and session.num_instances == 1
        assert isinstance(session, SchedulingSession)

    def test_simulator_satisfies_protocol(self, parts):
        batch, _, simulator, _, _ = parts
        assert isinstance(simulator, SessionBackend)
        session = simulator.new_session(batch, num_connections=4, strategy="probe", round_id=0)
        assert isinstance(session, SimulatedClusterSession) and session.num_instances == 1
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
        assert isinstance(backend, FleetSession)
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


class TestSubmitPlacementContract:
    """One ``submit`` signature across every backend session: ``instance``
    defaults to 0, and an instance the backend does not have is rejected
    with the backend's error type before the round changes."""

    def test_every_session_submit_takes_an_instance(self):
        for session_cls in (ClusterSession, SimulatedClusterSession, TenantSession):
            parameter = inspect.signature(session_cls.submit).parameters.get("instance")
            assert parameter is not None, session_cls.__name__
            assert parameter.default == 0, session_cls.__name__
        parameter = inspect.signature(SchedulingSession.submit).parameters["instance"]
        assert parameter.default == 0

    @pytest.mark.parametrize(
        "kind", ["engine", "cluster-of-one", "cluster", "simulated-fleet-of-one", "simulated-fleet", "tenant"]
    )
    def test_accepts_instance_zero_and_rejects_out_of_range(self, parts, kind):
        batch, engine, simulator, space, sim_cluster = parts
        if kind == "tenant":
            session = ExecutionRuntime(engine).register("t", batch).new_session(batch, num_connections=3, round_id=7)
            error = engine.new_session(batch, round_id=7).error
        else:
            backend = {
                "engine": engine,
                "cluster-of-one": Cluster([DatabaseEngine(DBMSProfile.dbms_x(), seed=0)]),
                "cluster": Cluster.from_names(["x", "y"], seed=0),
                "simulated-fleet-of-one": simulator,
                "simulated-fleet": sim_cluster,
            }[kind]
            session = backend.new_session(batch, num_connections=3, round_id=7)
            error = session.error
        parameters = RunningParameters(1, 64)
        out_of_range = [-1, session.num_instances]
        if session.num_instances == 1:
            assert out_of_range == [-1, 1]
        for instance in out_of_range:
            with pytest.raises(error, match="instance"):
                session.submit(0, parameters, instance=instance)
            assert 0 in session.pending and session.num_running == 0
        session.submit(0, parameters, instance=0)
        assert 0 not in session.pending and session.num_running == 1
        assert session.instance_of(0) == 0


class TestConnectionOccupancy:
    """A submission takes an idle connection: no two running queries ever
    share an ``(instance, connection)`` on any backend session."""

    @pytest.mark.parametrize("kind", ["engine", "cluster", "simulated-fleet"])
    def test_fifo_round_never_shares_a_connection(self, parts, kind):
        batch, engine, _, _, sim_cluster = parts
        backend = {
            "engine": engine,
            "cluster": Cluster.from_names(["x", "y"], seed=0),
            "simulated-fleet": sim_cluster,
        }[kind]
        session = backend.new_session(batch, num_connections=3, round_id=0)
        parameters = RunningParameters(1, 64)
        states = 0
        while not session.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], parameters, instance=session.idle_instances()[0])
                held = [(session.instance_of(q), s.connection) for q, s in session.running.items()]
                assert len(held) == len(set(held)), held
                states += 1
            session.advance()
        assert states == len(batch) and len(session.finished) == len(batch)


#: Members the runtime calls only while the shared session ``supports_lockstep``.
_LOCKSTEP_MEMBERS = {"advance_features", "apply_advance", "perf"}


def _members_called_on_the_shared_session() -> set[str]:
    """Every attribute the runtime and the control plane read off the shared session."""
    source = inspect.getsource(runtime_module) + inspect.getsource(controlplane_module)
    pattern = r"(?:self\._shared_session|self\._shared|self\.shared_session|\bshared)\.([a-z_]+)"
    return set(re.findall(pattern, source))


class TestMemberCheck:
    """Every backend session answers every member the runtime and the control plane call."""

    def test_the_member_list_is_read_from_the_callers(self):
        members = _members_called_on_the_shared_session()
        assert {"park_instance", "unpark_instance", "parked_instances", "instance_context"} <= members
        assert {"submit", "advance", "cancel", "instance_of", "next_fault_wakeup"} <= members
        assert _LOCKSTEP_MEMBERS <= members

    @pytest.mark.parametrize("kind", ["engine", "cluster", "simulated-fleet"])
    def test_every_session_answers_every_member(self, parts, kind):
        batch, engine, _, _, sim_cluster = parts
        backend = {
            "engine": engine,
            "cluster": Cluster.from_names(["x", "y"], seed=0),
            "simulated-fleet": sim_cluster,
        }[kind]
        session = backend.new_session(batch, num_connections=3, round_id=0)
        for name in sorted(_members_called_on_the_shared_session()):
            if name in _LOCKSTEP_MEMBERS and not session.supports_lockstep:
                continue
            assert hasattr(session, name), f"{type(session).__name__} does not answer {name!r}"
        n = session.num_instances
        assert session.idle_instances() == list(range(n))
        assert session.instance_health() == [True] * n
        assert session.instance_num_running() == [0] * n
        assert len(session.speed_factors()) == n
        assert session.instance_context().shape == (n, INSTANCE_FEATURE_DIM)
        assert session.next_fault_wakeup() is None and session.parked_instances() == []
        parameters = RunningParameters(1, 64)
        last = n - 1
        session.submit(0, parameters, instance=last)
        session.park_instance(last)
        assert session.parked_instances() == [last]
        assert not session.instance_health()[last] and last not in session.idle_instances()
        assert session.next_fault_wakeup() is None  # a park has no scheduled end
        with pytest.raises(session.error):
            session.park_instance(last)
        with pytest.raises(session.error):
            session.submit(1, parameters, instance=last)
        event = session.advance()  # the parked instance's work dies as an outage kill
        assert event.failed and event.failure == FAILURE_OUTAGE and event.instance == last
        assert event.query_id == 0 and 0 in session.pending
        session.unpark_instance(last)
        assert session.parked_instances() == [] and last in session.idle_instances()
        with pytest.raises(session.error):
            session.unpark_instance(last)

    def test_autoscaled_runtime_over_simulated_fleet_drains(self, parts):
        batch, _, _, space, sim_cluster = parts
        control = ControlPlane(autoscale=AutoscalePolicy(initial_instances=1))
        runtime = ExecutionRuntime(sim_cluster, control=control)
        session = runtime.register("t", batch).new_session(batch, num_connections=3, round_id=0)
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0], instance=session.idle_instances()[0])
            if runtime.is_done:
                break
            runtime.advance()
        actions = [event.action for event in control.fleet.events]
        assert actions[0] == "park" and "unpark" in actions
        assert session.is_done and len(session.finished) == len(batch)


class TestOneBusyCountPerInstance:
    """A killed query whose failure is still buffered counts as running on its
    instance, on the engine fleet and the simulated fleet alike."""

    @pytest.mark.parametrize("kind", ["cluster", "simulated-fleet"])
    def test_outage_victims_count_on_their_instance_until_delivered(self, parts, kind):
        batch, _, _, _, sim_cluster = parts
        backend = Cluster.from_names(["x", "y"], seed=0) if kind == "cluster" else sim_cluster
        faults = FailureProfile(outages=(OutageWindow(1, 1e-3, 10.0),))
        session = backend.new_session(batch, num_connections=3, round_id=0, faults=faults)
        parameters = RunningParameters(1, 64)
        session.submit(0, parameters, instance=0)
        for query_id in (1, 2, 3):
            session.submit(query_id, parameters, instance=1)
        first = session.advance()
        assert first.failed and first.failure == FAILURE_OUTAGE and first.instance == 1
        assert session.instance_num_running() == [1, 2] and session.num_running == 3
        assert session.instance_context()[1, 1] == 2 / 3
        victims = [query_id for query_id in (1, 2, 3) if query_id != first.query_id]
        assert all(session.state_arrays.status[v] == SOA_PENDING for v in victims)
        delivered = [session.advance(), session.advance()]
        assert sorted(event.query_id for event in delivered) == victims
        assert session.instance_num_running() == [1, 0] and session.num_running == 1
        assert {1, 2, 3} <= set(session.pending)
