"""Production serving control plane: SLO classes, admission, elastic fleets.

Covers the PR-10 acceptance bars:

* policy/config validation for the new control-plane dataclasses,
* token-bucket admission with priority exemption,
* shed arrivals drain the round (never deadlock it) and are named by the
  deadlock diagnostic,
* park/unpark elastic sizing reuses the outage kill/recovery machinery,
* the legacy retry arithmetic reproduces bit-for-bit through the control
  plane, and a default control plane leaves round logs bit-identical,
* a tenant class steers admission only: the policy observes the same rows and
  is rewarded the same ``-elapsed`` with or without one, and a clone observes
  and is rewarded like its template,
* arrival-process edge cases (empty trace, zero rate, degenerate burst
  windows) fail loudly or behave sanely.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import (
    AdmissionPolicy,
    AutoscalePolicy,
    RetryPolicy,
    SchedulerConfig,
)
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    LSchedScheduler,
    SchedulingEnv,
    VectorSchedulingEnv,
)
from repro.dbms import Cluster, ConfigurationSpace
from repro.dbms.faults import FAILURE_ERROR, FAILURE_OUTAGE
from repro.encoder import PlanEmbeddingCache, QueryFormer, RunStateFeaturizer
from repro.exceptions import ConfigurationError, SchedulingError, WorkloadError
from repro.perf import PerformanceModel, SimulatedCluster
from repro.plans import PlanFeaturizer
from repro.runtime import (
    AdmissionController,
    ControlPlane,
    ExecutionRuntime,
    FleetController,
    QueryShed,
    ServiceReport,
    TenantClass,
    TokenBucket,
)
from repro.workloads import (
    FlashCrowdArrivals,
    PoissonArrivals,
    make_arrival_process,
)
from snapshot_oracle import featurize_aos, instance_health, kept_columns, snapshot_aos


@pytest.fixture(scope="module")
def fixture_batch():
    return make_workload("tpch", scale_factor=1.0, seed=0).batch_query_set()


@pytest.fixture(scope="module")
def small_config():
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    return config


@pytest.fixture(scope="module")
def fleet_of(fixture_batch, small_config):
    """``fleet_of(kind, size)``: a ``size``-instance fleet of engines or of the learned simulator,
    or (``"engine"``) a single engine, a fleet of one."""
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    space = ConfigurationSpace()
    knowledge = ExternalKnowledge.from_probes(DatabaseEngine(DBMSProfile.dbms_x(), seed=0), fixture_batch, space)
    queryformer = QueryFormer(PlanFeaturizer(workload.catalog), small_config.encoder, np.random.default_rng(0))
    embeddings = PlanEmbeddingCache(queryformer).embeddings_for(fixture_batch)

    def build(kind, size):
        if kind == "engine":
            assert size == 1, "a single engine is a fleet of one"
            return DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        if kind == "cluster":
            return Cluster.from_names(("x",) * size, seed=0)
        perf = PerformanceModel(
            batch=fixture_batch, plan_embeddings=embeddings, knowledge=knowledge,
            config_space=space, config=small_config.simulator, seed=0, instance_speeds=(1.0,) * size,
        )
        return SimulatedCluster(perf, [DBMSProfile.dbms_x().default_connections] * size)

    return build


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


class TestPolicyValidation:
    def test_tenant_class(self):
        with pytest.raises(ConfigurationError):
            TenantClass("")
        with pytest.raises(ConfigurationError):
            TenantClass("a", latency_slo=0.0)
        with pytest.raises(ConfigurationError):
            TenantClass("a", deadline=-1.0)
        cls = TenantClass("interactive", priority=2.0, latency_slo=10.0, deadline=60.0)
        assert cls.priority == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"priority": float("nan")}, id="priority=nan"),
            pytest.param({"priority": float("inf")}, id="priority=inf"),
            pytest.param({"priority": float("-inf")}, id="priority=-inf"),
            pytest.param({"latency_slo": float("nan")}, id="latency_slo=nan"),
            pytest.param({"deadline": float("nan")}, id="deadline=nan"),
        ],
    )
    def test_tenant_class_rejects_nan_targets_and_a_non_finite_priority(self, kwargs):
        """A NaN SLO grades every completion a miss and a NaN deadline never vetoes a retry."""
        with pytest.raises(ConfigurationError):
            TenantClass("a", **kwargs)

    def test_admission_policy(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(burst=0.5)

    def test_autoscale_policy(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_backlog=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(low_water=9.0, target_backlog=8.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(initial_instances=0)

    def test_scheduler_shaping_knobs(self):
        """The reward is ``-elapsed`` alone: the scheduler config has no shaping knob."""
        for knob in ("failure_penalty", "slo_penalty", "fairness_weight"):
            with pytest.raises(TypeError):
                SchedulerConfig(**{knob: 0.1})
        assert [f.name for f in fields(SchedulerConfig)] == ["num_connections"]

    def test_service_config_control_knobs(self, fixture_batch):
        """Each serving knob is checked where it lands: a policy of the wrong type in
        ``ControlPlane`` (and so in ``serve()``), a tenant class in ``register``, a
        negative round id where the runtime opens the round."""
        for knob in ("retry", "admission", "autoscale"):
            with pytest.raises(ConfigurationError, match="expected a"):
                ControlPlane(**{knob: "nope"})
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        scheduler = LSchedScheduler(workload, Cluster.from_names(("x", "x"), seed=0), BQSchedConfig.small(seed=0))
        for knob in ("admission", "autoscale"):
            with pytest.raises(ConfigurationError, match="expected a"):
                scheduler.serve(**{knob: "nope"})
        with pytest.raises(SchedulingError, match="TenantClass"):
            scheduler.serve(tenant_classes=("not-a-class",))
        with pytest.raises(SchedulingError, match="round_id must be >= 0"):
            scheduler.serve(round_id=-1)
        with pytest.raises(SchedulingError, match="TenantClass"):
            ExecutionRuntime(DatabaseEngine(DBMSProfile.dbms_x(), seed=0)).register(
                "t", fixture_batch, tenant_class="not-a-class"
            )
        plane = ControlPlane(retry=RetryPolicy(), admission=AdmissionPolicy(), autoscale=AutoscalePolicy())
        assert plane.admission is not None and plane.fleet is not None


class TestTokenBucket:
    def test_starts_full_and_depletes(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_in_simulated_time(self):
        bucket = TokenBucket(rate=2.0, capacity=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(0.5)  # 0.4s * 2/s = 0.8 + 0.2 leftover
        assert bucket.tokens < 1.0

    def test_capacity_caps_refill(self):
        bucket = TokenBucket(rate=100.0, capacity=1.0)
        assert bucket.try_take(0.0)
        bucket.try_take(1000.0)
        assert bucket.tokens <= 1.0


class TestAdmissionController:
    def test_priority_exemption_bypasses_bucket(self):
        controller = AdmissionController(AdmissionPolicy(rate=1.0, burst=1.0, exempt_priority=2.0))
        vip = TenantClass("vip", priority=2.0)
        assert [controller.admit(vip, now=0.0) for _ in range(3)] == [True, True, True]
        # The exemptions took no token: the bucket still admits one classless arrival.
        assert [controller.admit(None, now=0.0) for _ in range(2)] == [True, False]

    def test_bucket_exhaustion_sheds_and_reset_clears(self):
        controller = AdmissionController(AdmissionPolicy(rate=0.001, burst=1.0))
        assert controller.admit(None, now=0.0)
        assert not controller.admit(None, now=0.0)
        controller.reset()
        assert controller.admit(None, now=0.0)
        assert not controller.admit(None, now=0.0)


class TestRetryDecisions:
    def test_outage_always_requeues_immediately(self):
        plane = ControlPlane()  # no retry policy at all
        decision = plane.decide_retry(FAILURE_OUTAGE, attempt=7, outage_kills=6)
        assert decision.will_retry and decision.delay == 0.0

    def test_legacy_arithmetic_reproduced(self):
        retry = RetryPolicy(max_attempts=3, backoff=0.5)
        plane = ControlPlane(retry=retry)
        # consumed = attempt - outage_kills; retried while consumed < max.
        assert plane.decide_retry(FAILURE_ERROR, attempt=1, outage_kills=0) == (
            True,
            retry.delay_for(1),
        )
        assert plane.decide_retry(FAILURE_ERROR, attempt=4, outage_kills=2) == (
            True,
            retry.delay_for(2),
        )
        assert not plane.decide_retry(FAILURE_ERROR, attempt=3, outage_kills=0).will_retry
        # Outage kills never consume budget: attempt 5 with 4 kills is consumed=1.
        assert plane.decide_retry(FAILURE_ERROR, attempt=5, outage_kills=4).will_retry

    def test_no_retry_policy_means_terminal(self):
        assert not ControlPlane().decide_retry(FAILURE_ERROR, attempt=1, outage_kills=0).will_retry

    def test_deadline_vetoes_retry(self):
        plane = ControlPlane(retry=RetryPolicy(max_attempts=5))
        assert plane.decide_retry(
            FAILURE_ERROR, attempt=1, outage_kills=0, time=10.0, give_up_at=20.0
        ).will_retry
        assert not plane.decide_retry(
            FAILURE_ERROR, attempt=1, outage_kills=0, time=20.0, give_up_at=20.0
        ).will_retry


class TestParkUnpark:
    @pytest.mark.parametrize("kind, size", [("engine", 1), ("cluster", 2), ("simulated", 2)])
    def test_cluster_park_excludes_instance(self, fixture_batch, fleet_of, kind, size):
        session = fleet_of(kind, size).new_session(fixture_batch, num_connections=4)
        last = size - 1
        assert session.parked_instances() == []
        session.park_instance(last)
        assert session.parked_instances() == [last]
        assert not instance_health(session)[last]
        assert session.idle_instances() == list(range(last))
        assert session.has_idle_connection == (size > 1)
        # Parked is not an outage with a known end: no autonomous recovery.
        assert session.next_fault_wakeup() is None
        with pytest.raises(session.error):
            session.park_instance(last)
        session.unpark_instance(last)
        assert session.parked_instances() == []
        assert all(instance_health(session)) and session.has_idle_connection
        with pytest.raises(session.error):
            session.unpark_instance(last)
        with pytest.raises(session.error):
            session.park_instance(5)

    @pytest.mark.parametrize("kind", ["cluster", "simulated"])
    def test_fleet_controller_initial_size_and_scaling(self, fixture_batch, fleet_of, kind):
        session = fleet_of(kind, 3).new_session(fixture_batch, num_connections=2)
        fleet = FleetController(AutoscalePolicy(target_backlog=4.0, low_water=1.0, initial_instances=1))
        fleet.on_round_open(session)
        assert session.parked_instances() == [1, 2]
        assert [e.action for e in fleet.events] == ["park", "park"]
        # High backlog unparks the lowest-index parked instance...
        event = fleet.tick(session, backlog=100, now=1.0)
        assert event.action == "unpark" and event.instance == 1
        assert session.parked_instances() == [2]
        # ... and an idle fleet parks back down to MIN_INSTANCES.
        event = fleet.tick(session, backlog=0, now=1.0 + FleetController.COOLDOWN)
        assert event.action == "park" and event.instance == 1
        assert fleet.tick(session, backlog=0, now=1.0 + 2 * FleetController.COOLDOWN) is None  # already at min

    @pytest.mark.parametrize("kind", ["cluster", "simulated"])
    def test_cooldown_holds_scaling(self, fixture_batch, fleet_of, kind):
        session = fleet_of(kind, 2).new_session(fixture_batch, num_connections=2)
        fleet = FleetController(AutoscalePolicy(target_backlog=2.0, low_water=0.5, initial_instances=1))
        fleet.on_round_open(session)
        # on_round_open does not arm the cooldown: the very first tick may
        # scale, then the cooldown window holds further actions.
        event = fleet.tick(session, backlog=100, now=0.0)
        assert event is not None and event.action == "unpark"
        assert fleet.tick(session, backlog=0, now=FleetController.COOLDOWN / 2) is None
        assert fleet.tick(session, backlog=0, now=FleetController.COOLDOWN) is not None

    @pytest.mark.parametrize("kind", ["cluster", "simulated"])
    def test_fleet_bounds_hold_scaling(self, fixture_batch, fleet_of, kind):
        """The whole fleet is the most that can be up and ``MIN_INSTANCES`` the least."""
        session = fleet_of(kind, 2).new_session(fixture_batch, num_connections=2)
        fleet = FleetController(AutoscalePolicy(target_backlog=2.0, low_water=0.5))
        fleet.on_round_open(session)
        assert session.parked_instances() == [] and fleet.events == []
        assert fleet.tick(session, backlog=100, now=0.0) is None  # nothing parked to unpark
        assert fleet.tick(session, backlog=0, now=0.0).action == "park"
        assert fleet.tick(session, backlog=0, now=FleetController.COOLDOWN) is None
        assert len(session.parked_instances()) == 2 - FleetController.MIN_INSTANCES


class TestShedBehaviour:
    def _serve(self, admission, tenant_classes=()):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        scheduler = LSchedScheduler(workload, engine, BQSchedConfig.small(seed=0))
        return scheduler.serve(
            num_tenants=2,
            arrivals=PoissonArrivals(rate=6.0),
            admission=admission,
            tenant_classes=tenant_classes,
        )

    def test_shed_arrivals_drain_the_round(self):
        report = self._serve(AdmissionPolicy(rate=1.0, burst=2.0))
        assert report.total_shed > 0
        for tenant in report.tenants:
            # Shed queries are terminally failed, never pending forever.
            assert tenant.num_queries + tenant.num_failed == 22
            assert tenant.num_failed >= tenant.num_shed

    def test_priority_class_never_sheds(self):
        classes = (
            TenantClass("interactive", priority=2.0, latency_slo=15.0),
            TenantClass("batch", priority=0.0, latency_slo=15.0),
        )
        report = self._serve(
            AdmissionPolicy(rate=1.0, burst=2.0, exempt_priority=1.0), tenant_classes=classes
        )
        interactive = report.class_report("interactive")
        batch = report.class_report("batch")
        assert interactive.num_shed == 0
        assert batch.num_shed > 0
        assert interactive.slo_attainment >= batch.slo_attainment
        assert report.total_shed == batch.num_shed
        document = report.as_dict()
        assert document["total_shed"] == report.total_shed
        assert {entry["tenant_class"] for entry in document["classes"]} == {"interactive", "batch"}

    def test_deadlock_diagnostic_names_shed_queries(self, fixture_batch):
        # A scheduler that never submits the few admitted queries deadlocks
        # the round; the diagnostic must blame the admission policy too.
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        control = ControlPlane(admission=AdmissionPolicy(rate=0.001, burst=1.0))
        runtime = ExecutionRuntime(engine, control=control)
        runtime.register("starved", fixture_batch, arrivals=PoissonArrivals(rate=50.0)).new_session(
            fixture_batch, num_connections=4, round_id=0
        )
        with pytest.raises(SchedulingError, match="Admission control shed") as err:
            while not runtime.is_done:
                runtime.advance()
        assert "'starved'" in str(err.value)
        assert "never become pending" in str(err.value)

    def test_shed_event_surfaces_from_advance(self, fixture_batch, small_config):
        space = ConfigurationSpace()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        control = ControlPlane(admission=AdmissionPolicy(rate=0.001, burst=1.0))
        runtime = ExecutionRuntime(engine, control=control)
        tenant = runtime.register("t", fixture_batch, arrivals=PoissonArrivals(rate=50.0))
        session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        events = []
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0])
            if runtime.is_done:
                break
            events.append(runtime.advance())
        shed = [e for e in events if isinstance(e, QueryShed)]
        assert shed, "an almost-empty bucket must shed at this arrival rate"
        assert {e.query_id for e in shed} <= set(session.shed)
        assert set(session.shed) <= set(session.failed)
        assert session.num_shed == len(session.shed)


class TestSimulatorBackedRuntime:
    """Shedding and timeouts on a runtime over the single-engine simulator (a fleet of one)."""

    def _simulator(self, batch, small_config):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        space = ConfigurationSpace()
        knowledge = ExternalKnowledge.from_probes(DatabaseEngine(DBMSProfile.dbms_x(), seed=0), batch, space)
        queryformer = QueryFormer(PlanFeaturizer(workload.catalog), small_config.encoder, np.random.default_rng(0))
        embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)
        perf = PerformanceModel(
            batch=batch, plan_embeddings=embeddings, knowledge=knowledge,
            config_space=space, config=small_config.simulator, seed=0,
        )
        return SimulatedCluster(perf, [DBMSProfile.dbms_x().default_connections]), space

    def _drain(self, runtime, batch, space, arrivals=None):
        session = runtime.register("t", batch, arrivals=arrivals).new_session(
            batch, num_connections=2, round_id=0
        )
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0])
            if runtime.is_done:
                break
            runtime.advance()
        assert len(session.finished) + len(session.failed) == len(batch)
        return session

    def test_shed_and_timeout_rounds_drain(self, fixture_batch, small_config):
        simulator, space = self._simulator(fixture_batch, small_config)
        control = ControlPlane(admission=AdmissionPolicy(rate=1.0, burst=1.0))
        arrivals = [0.01 * i for i in range(len(fixture_batch))]
        shedding = self._drain(ExecutionRuntime(simulator, control=control), fixture_batch, space, arrivals)
        assert shedding.shed and set(shedding.shed) <= set(shedding.failed)
        retry = RetryPolicy(timeout=1e-3, max_attempts=2)
        timing_out = self._drain(ExecutionRuntime(simulator, control=ControlPlane(retry=retry)), fixture_batch, space)
        assert timing_out.num_timeouts > 0


class TestAutoscaledServing:
    def test_round_completes_with_elastic_fleet(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        fleet = Cluster.from_names(("x", "x", "x"), seed=0)
        scheduler = LSchedScheduler(workload, fleet, BQSchedConfig.small(seed=0))
        report = scheduler.serve(
            num_tenants=2,
            arrivals=PoissonArrivals(rate=4.0),
            autoscale=AutoscalePolicy(target_backlog=4.0, low_water=1.0, initial_instances=1),
        )
        assert all(t.num_queries == 22 for t in report.tenants)
        # Park kills requeue for free: no terminal failures from scaling.
        assert report.total_failed == 0

    def test_autoscale_requires_cluster(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        scheduler = LSchedScheduler(workload, engine, BQSchedConfig.small(seed=0))
        with pytest.raises(SchedulingError, match="Cluster"):
            scheduler.serve(num_tenants=2, autoscale=AutoscalePolicy())

    def test_scale_events_recorded(self, fixture_batch, small_config):
        space = ConfigurationSpace()
        fleet = Cluster.from_names(("x", "x", "x"), seed=0)
        control = ControlPlane(
            autoscale=AutoscalePolicy(target_backlog=2.0, low_water=0.5, initial_instances=1)
        )
        runtime = ExecutionRuntime(fleet, control=control)
        tenant = runtime.register("t", fixture_batch, arrivals=PoissonArrivals(rate=8.0))
        session = tenant.new_session(fixture_batch, num_connections=6, round_id=0)
        shared = runtime.shared_session

        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0], instance=shared.idle_instances()[0])
            if runtime.is_done:
                break
            runtime.advance()
        events = control.fleet.events
        assert [e.action for e in events[:2]] == ["park", "park"]  # initial sizing
        assert any(e.action == "unpark" for e in events), "the burst must trigger a scale-up"
        assert session.is_done and len(session.finished) == 22


class TestDefaultPathEquivalence:
    def test_default_control_plane_is_bit_identical(self, fixture_batch, small_config):
        space = ConfigurationSpace()
        logs = []
        for control in (None, ControlPlane()):
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
            runtime = ExecutionRuntime(engine, control=control)
            tenant = runtime.register("t", fixture_batch, arrivals=PoissonArrivals(rate=3.0))
            session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
            while not runtime.is_done:
                while session.pending and session.has_idle_connection:
                    session.submit(session.pending[0], space[0])
                if runtime.is_done:
                    break
                runtime.advance()
            logs.append(_digest(session.log))
        assert logs[0] == logs[1]

    def test_the_control_plane_is_the_one_owner_of_the_retry_policy(self):
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        with pytest.raises(TypeError):
            ExecutionRuntime(engine, retry=RetryPolicy(max_attempts=3))
        retry = RetryPolicy(max_attempts=2)
        control = ControlPlane(retry=retry)
        runtime = ExecutionRuntime(engine, control=control)
        assert runtime.control is control and control.retry is retry
        assert ExecutionRuntime(engine).control.retry is None


class TestTenantClassStaysOutOfThePolicy:
    """A tenant class (priority, latency SLO, deadline) steers the control plane only:
    the policy's rows are the paper's features and its reward is ``-elapsed``."""

    @staticmethod
    def _env(batch, scheduler_config, tenant_class):
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        space = ConfigurationSpace()
        return SchedulingEnv(
            batch=batch,
            backend=ExecutionRuntime(engine).register("t", batch, tenant_class=tenant_class),
            scheduler_config=scheduler_config,
            config_space=space,
            knowledge=ExternalKnowledge.from_probes(engine, batch, space),
            mask=AdaptiveMask.unmasked(len(batch), len(space)),
        )

    @staticmethod
    def _drive(env) -> tuple[list[bytes], list[float]]:
        """One round on the first allowed action: per decision the feature rows' bytes,
        and per step the reward."""
        snapshot, done = env.reset(round_id=0), False
        context = snapshot.instance_context_array
        featurizer = RunStateFeaturizer(
            num_configs=env.configs_per_slot, instance_context_dim=0 if context is None else context.size
        )
        rows, rewards = [], []
        while not done:
            rows.append(featurizer.featurize_arrays_stack([snapshot])[0].tobytes())
            step = env.step(int(np.flatnonzero(env.action_mask())[0]))
            snapshot, done = step.snapshot, step.done
            rewards.append(step.reward)
        return rows, rewards

    def test_class_leaves_the_rows_unchanged(self, fixture_batch, small_config):
        vip = TenantClass("vip", priority=2.0, latency_slo=10.0, deadline=30.0)
        classed = self._drive(self._env(fixture_batch, small_config.scheduler, vip))
        plain = self._drive(self._env(fixture_batch, small_config.scheduler, None))
        assert len(classed[0]) >= len(fixture_batch)
        assert classed[0] == plain[0]

    def test_classed_rows_are_the_oracles_kept_columns(self, fixture_batch, small_config):
        """On a classed round the library's rows are exactly the per-query oracle's
        rows without its priority and deadline-slack columns, at every decision."""
        vip = TenantClass("vip", priority=2.0, latency_slo=10.0, deadline=30.0)
        env = self._env(fixture_batch, small_config.scheduler, vip)
        featurizer = RunStateFeaturizer(num_configs=env.num_configs)
        kept = kept_columns(featurizer, slo=True)
        snapshot, done, decisions = env.reset(round_id=0), False, 0
        while not done:
            reference = featurize_aos(featurizer, snapshot_aos(env), slo=True)
            assert reference.shape[1] == featurizer.feature_dim + 2
            library = featurizer.featurize_arrays_stack([snapshot])[0]
            assert library.tobytes() == np.ascontiguousarray(reference[:, kept]).tobytes()
            step = env.step(int(np.flatnonzero(env.action_mask())[0]))
            snapshot, done, decisions = step.snapshot, step.done, decisions + 1
        assert decisions >= len(fixture_batch)

    def test_slo_misses_cost_only_their_time(self, fixture_batch, small_config):
        # An impossible SLO makes every completion a miss.
        vip = TenantClass("vip", priority=1.0, latency_slo=1e-6)
        env = self._env(fixture_batch, small_config.scheduler, vip)
        _, missed = self._drive(env)
        assert env.session.num_slo_misses == len(fixture_batch)
        _, plain = self._drive(self._env(fixture_batch, small_config.scheduler, None))
        assert missed == plain
        assert sum(missed) == pytest.approx(-env.result().makespan)

    def test_priority_backlog_costs_nothing(self, fixture_batch, small_config):
        rewards = [
            self._drive(self._env(fixture_batch, small_config.scheduler, tenant_class))[1]
            for tenant_class in (TenantClass("vip", priority=2.0), TenantClass("batch", priority=0.0), None)
        ]
        assert rewards[0] == rewards[1] == rewards[2]

    @pytest.mark.parametrize("fleet", [None, ("x", "y")])
    def test_clone_observes_and_is_rewarded_like_its_template(self, fleet):
        """Lock-step sub-envs of one trainer must not disagree on what the policy
        sees or on what a round costs."""
        config = BQSchedConfig.small(seed=0).scheduler
        batch = make_workload("tpch", scale_factor=1.0, seed=0).batch_query_set()
        backend = Cluster.from_names(list(fleet), seed=0) if fleet else DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        space = ConfigurationSpace()
        template = SchedulingEnv(
            batch=batch,
            backend=backend,
            scheduler_config=config,
            config_space=space,
            knowledge=ExternalKnowledge.from_probes(backend, batch, space),
        )
        first, clone = VectorSchedulingEnv.from_template(template, 2).envs
        assert first is template and type(clone) is type(template) and clone is not template
        runs = [self._drive(env) for env in (template, clone)]
        assert runs[0] == runs[1]
        for env, (_, rewards) in zip((template, clone), runs):
            assert sum(rewards) == pytest.approx(-env.result().makespan)


class TestArrivalEdges:
    def test_empty_trace_rejected(self, tpch_batch):
        runtime = ExecutionRuntime(DatabaseEngine(DBMSProfile.dbms_x(), seed=0))
        with pytest.raises(SchedulingError, match="one time per query"):
            runtime.register("t", tpch_batch, arrivals=[])

    def test_zero_rate_poisson_rejected(self):
        with pytest.raises(WorkloadError, match="must be positive"):
            PoissonArrivals(0.0)
        with pytest.raises(WorkloadError, match="must be positive"):
            FlashCrowdArrivals(rate=0.0)

    def test_flash_crowd_validation(self):
        with pytest.raises(WorkloadError):
            FlashCrowdArrivals(rate=1.0, burst_factor=0.5)
        with pytest.raises(WorkloadError):
            FlashCrowdArrivals(rate=1.0, burst_start=-1.0)
        with pytest.raises(WorkloadError):
            FlashCrowdArrivals(rate=1.0, burst_duration=0.0)

    def test_burst_window_ending_before_first_gap(self):
        # A vanishingly small window right at t=0 ends before the second
        # arrival lands: everything sits on the post-window segment, the
        # stream stays pinned at zero and monotone.
        process = FlashCrowdArrivals(rate=2.0, burst_factor=100.0, burst_start=0.0, burst_duration=1e-9)
        times = process.times(50, np.random.default_rng(0))
        assert times[0] == 0.0
        assert (np.diff(times) >= 0).all()
        assert np.isfinite(times).all()

    def test_unit_factor_degenerates_to_poisson(self):
        flash = FlashCrowdArrivals(rate=3.0, burst_factor=1.0, burst_start=5.0, burst_duration=2.0)
        poisson = PoissonArrivals(rate=3.0)
        a = flash.times(200, np.random.default_rng(7))
        b = poisson.times(200, np.random.default_rng(7))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_burst_window_compresses_arrivals(self):
        process = FlashCrowdArrivals(rate=1.0, burst_factor=100.0, burst_start=2.0, burst_duration=1.0)
        times = process.times(400, np.random.default_rng(1))
        inside = ((times >= 2.0) & (times < 3.0)).sum()
        # The window holds ~100 expected arrivals vs ~1 outside per second.
        assert inside > 50
        assert (np.diff(times) >= 0).all()

    def test_make_arrival_process_flash_crowd(self):
        process = make_arrival_process("flash-crowd", rate=2.0)
        assert isinstance(process, FlashCrowdArrivals)
        times = process.times(50, np.random.default_rng(0))
        assert times.tobytes() == FlashCrowdArrivals(2.0).times(50, np.random.default_rng(0)).tobytes()
        with pytest.raises(WorkloadError, match="flash-crowd"):
            make_arrival_process("tsunami")


class TestReportRollups:
    def test_percentiles_pinned_to_linear(self, fixture_batch, small_config):
        space = ConfigurationSpace()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine)
        tenant = runtime.register("t", fixture_batch)
        session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0])
            if runtime.is_done:
                break
            runtime.advance()
        report = ServiceReport.from_runtime(runtime)
        latencies = np.array(sorted(session.latencies().values()))
        for quantile, value in ((50, report.tenants[0].p50_latency), (99, report.tenants[0].p99_latency)):
            assert value == float(np.percentile(latencies, quantile, method="linear"))

    def test_attainment_defaults_and_math(self):
        from repro.runtime import TenantReport

        graded = TenantReport(
            tenant="t",
            num_queries=8,
            makespan=1.0,
            mean_latency=0.0,
            p50_latency=0.0,
            p90_latency=0.0,
            p99_latency=0.0,
            num_slo_met=6,
            num_slo_eligible=10,
            num_shed=2,
        )
        assert graded.slo_attainment == 0.6
        ungraded = TenantReport(
            tenant="t",
            num_queries=0,
            makespan=0.0,
            mean_latency=0.0,
            p50_latency=0.0,
            p90_latency=0.0,
            p99_latency=0.0,
        )
        assert ungraded.slo_attainment == 1.0

    def test_class_report_lookup_raises_for_unknown(self):
        report = ServiceReport(strategy="s", total_time=1.0)
        with pytest.raises(SchedulingError):
            report.class_report("nope")

    def test_classless_report_keeps_legacy_payload_shape(self):
        report = ServiceReport(strategy="s", total_time=1.0)
        document = report.as_dict()
        assert "classes" not in document and "total_shed" not in document
