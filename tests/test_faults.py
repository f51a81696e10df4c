"""Fault-tolerant serving: failure injection, retries, timeouts, outages.

Covers the PR-5 acceptance bars:

* seed-for-seed determinism of injected failure sequences,
* retry exhaustion marks the query failed without hanging the round,
* an instance outage never strands an in-flight query,
* the closed *and* streaming fault-free paths stay digest-pinned
  bit-for-bit against the PR-4 tree,
* ``ServiceReport.from_runtime`` stays well-formed for tenants with zero
  completed queries (the confirmed ``np.percentile([])`` crash).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import RetryPolicy
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    FIFOScheduler,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
)
from repro.dbms import (
    FAILURE_ERROR,
    FAILURE_OUTAGE,
    Cluster,
    ConfigurationSpace,
    FailureProfile,
    InstanceWindows,
    OutageWindow,
)
from repro.exceptions import ConfigurationError, SchedulingError, SimulationError
from repro.perf import PerformanceModel, SimulatedCluster
from repro.runtime import (
    ControlPlane,
    ExecutionRuntime,
    InstanceRecovery,
    QueryFailure,
    QueryRetry,
    ServiceReport,
    TenantClass,
)
from repro.workloads import BatchQuerySet, PoissonArrivals
from snapshot_oracle import instance_health, retry_time, snapshot_aos

# SHA-256 of fault-free round logs produced by the PR-4 tree (commit c1b0f24)
# for the fixture scenarios below.  With no FailureProfile/RetryPolicy
# configured, the fault-aware tree must reproduce them bit-for-bit.
_PR4_STREAMING_FIFO = "2a63b9335784dfe9950e4b36f0d8b25269e050166af11383b7e2b5d20bc6dce7"
_PR4_CLUSTER_RR = "edda07f1b2eb3136892f2709ab9a8384f8bb46d32f429071ef2942a5ba2436ed"


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


@pytest.fixture(scope="module")
def fixture_batch():
    return make_workload("tpch", scale_factor=1.0, seed=0).batch_query_set()


@pytest.fixture(scope="module")
def small_config():
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    return config


def _drive(batch, space, faults, retry, num_connections=4, round_id=0, seed=0):
    """FIFO-drive one single-tenant round through the runtime; return the session."""
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=seed)
    runtime = ExecutionRuntime(engine, faults=faults, control=ControlPlane(retry=retry))
    tenant = runtime.register("t", batch)
    session = tenant.new_session(batch, num_connections=num_connections, round_id=round_id)
    events = []
    while not runtime.is_done:
        while session.pending and session.has_idle_connection:
            session.submit(session.pending[0], space[0])
        if runtime.is_done:
            break
        events.append(runtime.advance())
    return session, events


class TestFailureProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureProfile(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FailureProfile(error_work_fraction=0.0)
        with pytest.raises(ConfigurationError):
            FailureProfile(hang_factor=1.0)
        with pytest.raises(ConfigurationError):
            OutageWindow(instance=0, start=-1.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            OutageWindow(instance=0, start=0.0, duration=0.0)

    def test_outage_windows(self):
        profile = FailureProfile(
            outages=(OutageWindow(1, 5.0, 2.0), OutageWindow(0, 1.0, 1.0), OutageWindow(1, 1.0, 1.0))
        )
        assert profile.windows_for(1) == (OutageWindow(1, 1.0, 1.0), OutageWindow(1, 5.0, 2.0))
        zero, one = InstanceWindows(0, profile), InstanceWindows(1, profile)
        assert one.windows == profile.windows_for(1)
        assert one.is_down(5.0) and not one.is_down(7.0)
        assert zero.is_down(1.5) and not zero.is_down(2.0)
        # The next outage start after 2.0 is where work running at 2.0 dies.
        assert one.kill_instant(2.0, math.inf) == 5.0 and one.kill_instant(2.0, 4.9) is None
        assert zero.kill_instant(2.0, math.inf) is None
        assert one.kill_instant(5.5, 6.0) == 5.5  # down now: work dies now
        assert one.recovers_at(5.5) == 7.0
        assert one.recovers_at(4.0) is None
        assert not InstanceWindows(0).windows and not InstanceWindows(0).is_down(0.0)

    def test_park_window(self):
        windows = InstanceWindows(1, FailureProfile(outages=(OutageWindow(1, 5.0, 2.0),)))
        assert not windows.parked
        windows.park(5.5)  # parked inside an outage window
        assert windows.parked and windows.is_down(5.5) and windows.is_down(1e9)
        assert windows.recovers_at(5.5) == 7.0  # finite ends only: the outage's
        assert windows.recovers_at(7.5) is None  # a park has no scheduled end
        assert windows.kill_instant(7.5, 8.0) == 7.5
        assert not windows.is_down(4.0) and windows.kill_instant(4.0, 5.2) == 5.0
        windows.unpark()
        assert not windows.parked and not windows.is_down(7.5)
        assert windows.windows == (OutageWindow(1, 5.0, 2.0),)
        windows.park(0.0)
        assert windows.kill_instant(0.0, 1.0) == 0.0 and windows.recovers_at(3.0) is None

    def test_fate_draws_only_with_random_faults(self):
        rng = np.random.default_rng(0)
        assert not FailureProfile().has_random_faults
        fate = FailureProfile().draw_fate(rng)
        assert not fate.error and not fate.hang
        fate = FailureProfile(error_rate=1.0, hang_rate=1.0).draw_fate(rng)
        assert fate.error and fate.hang

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)
        policy = RetryPolicy(backoff=0.5, backoff_factor=2.0)
        assert policy.delay_for(1) == 0.5
        assert policy.delay_for(3) == 2.0


class TestEngineFaults:
    def test_error_fate_fails_without_logging(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        session = engine.new_session(
            fixture_batch, num_connections=4, round_id=0, faults=FailureProfile(error_rate=1.0)
        )
        session.submit(fixture_batch[0].query_id, space[0])
        event = session.advance()
        assert event.failed and event.failure == "error"
        assert event.query_id == fixture_batch[0].query_id
        assert not session.log.records and not session.finished
        assert event.query_id in session.pending  # resubmittable
        assert session.has_idle_connection

    def test_mark_failed_and_cancel(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        session = engine.new_session(fixture_batch, num_connections=4, round_id=0)
        qid = fixture_batch[0].query_id
        session.submit(qid, space[0])
        session.cancel(qid)
        assert qid in session.pending and not session.running
        with pytest.raises(SchedulingError):
            session.cancel(qid)
        session.mark_failed(qid)
        assert qid in session.failed and qid not in session.pending
        with pytest.raises(SchedulingError):
            session.mark_failed(qid)

    def test_outage_kills_running_and_blocks_submissions(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(outages=(OutageWindow(0, 1.0, 2.0),))
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        session = engine.new_session(fixture_batch, num_connections=2, round_id=0, faults=faults)
        ids = [q.query_id for q in fixture_batch[:2]]
        for qid in ids:
            session.submit(qid, space[0])
        # query 1 finishes before the window opens; query 0 is still in
        # flight at t=1.0 and dies with the instance.
        events = [session.advance(), session.advance()]
        killed = [event for event in events if event.failed]
        assert len(killed) == 1 and killed[0].failure == "outage"
        assert killed[0].finish_time == 1.0
        assert session.current_time == 1.0
        assert killed[0].query_id in session.pending
        assert not instance_health(session)[0] and not session.has_idle_connection
        assert instance_health(session) == [False]
        with pytest.raises(SchedulingError):
            session.submit(ids[0], space[0])
        assert session.next_fault_wakeup() == 3.0
        session.advance(limit=3.0)
        assert instance_health(session)[0] and session.has_idle_connection


class TestDeterminism:
    def test_failure_sequences_are_seed_reproducible(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(
            error_rate=0.2,
            hang_rate=0.15,
            hang_factor=6.0,
            outages=(OutageWindow(0, 3.0, 2.0),),
        )
        retry = RetryPolicy(max_attempts=3, backoff=0.2, timeout=15.0)
        first, events_a = _drive(fixture_batch, space, faults, retry)
        second, events_b = _drive(fixture_batch, space, faults, retry)
        assert first.finished == second.finished
        assert first.failed == second.failed
        assert first.num_failed_attempts == second.num_failed_attempts
        assert first.failure_counts() == second.failure_counts()
        assert [type(e).__name__ for e in events_a] == [type(e).__name__ for e in events_b]
        assert any(isinstance(e, QueryFailure) for e in events_a)
        assert any(isinstance(e, QueryRetry) for e in events_a)
        assert any(isinstance(e, InstanceRecovery) for e in events_a)
        # a different engine seed draws a different failure sequence
        third, _ = _drive(fixture_batch, space, faults, retry, seed=1)
        assert third.finished != first.finished

    def test_faults_do_not_perturb_noise_stream(self, fixture_batch, small_config):
        """Queries that neither error nor hang keep their fault-free durations."""
        space = ConfigurationSpace(small_config.scheduler)
        clean, _ = _drive(fixture_batch, space, None, None)
        outage_only = FailureProfile(outages=(OutageWindow(0, 1e9, 1.0),))
        shadowed, _ = _drive(fixture_batch, space, outage_only, None)
        assert clean.finished == shadowed.finished


class TestRetrySemantics:
    def test_retry_exhaustion_fails_query_without_hanging_round(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(error_rate=1.0)  # every attempt dies
        retry = RetryPolicy(max_attempts=3, backoff=0.1)
        session, events = _drive(fixture_batch, space, faults, retry)
        assert session.is_done
        assert not session.finished
        assert len(session.failed) == len(fixture_batch)
        # every query burned exactly its attempt budget
        assert all(count == 3 for count in session.failure_counts().values())
        assert session.num_retries == 2 * len(fixture_batch)

    def test_no_retry_policy_means_terminal_errors(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        session, _ = _drive(fixture_batch, space, FailureProfile(error_rate=1.0), None)
        assert session.is_done and not session.finished
        assert len(session.failed) == len(fixture_batch)
        assert session.num_retries == 0

    def test_timeout_kills_and_requeues_stragglers(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(hang_rate=0.4, hang_factor=20.0)
        with_timeout, _ = _drive(
            fixture_batch, space, faults, RetryPolicy(max_attempts=6, backoff=0.1, timeout=8.0)
        )
        without_timeout, _ = _drive(
            fixture_batch, space, faults, RetryPolicy(max_attempts=6, backoff=0.1)
        )
        assert len(with_timeout.finished) == len(fixture_batch)
        assert len(without_timeout.finished) == len(fixture_batch)
        assert with_timeout.num_timeouts > 0
        assert with_timeout.makespan < without_timeout.makespan

    def test_stale_pre_outage_timeout_never_kills_fresh_attempt(self, fixture_batch, small_config):
        """Regression: outage kills must not reuse attempt numbers.

        An outage-killed attempt's straggler timer is stale; if the requeued
        submission reused the attempt number, the timer would pass the
        staleness guard and kill a perfectly healthy attempt."""
        space = ConfigurationSpace(small_config.scheduler)
        batch = BatchQuerySet([fixture_batch[0]])
        clean, _ = _drive(batch, space, None, None, num_connections=1)
        duration = clean.makespan
        faults = FailureProfile(
            outages=(OutageWindow(instance=0, start=0.1 * duration, duration=0.1 * duration),)
        )
        retry = RetryPolicy(max_attempts=3, backoff=0.0, timeout=1.05 * duration)
        session, _ = _drive(batch, space, faults, retry, num_connections=1)
        # the stale timer fires at 1.05*duration, mid-flight of the healthy
        # post-outage attempt — it must be skipped, not kill it
        assert session.num_timeouts == 0
        assert len(session.finished) == 1 and not session.failed
        assert session.makespan == pytest.approx(1.2 * duration, rel=1e-6)

    def test_retry_failure_event_carries_retry_time_and_snapshot_uses_it(
        self, fixture_batch, small_config
    ):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(error_rate=1.0)
        retry = RetryPolicy(max_attempts=2, backoff=5.0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine, faults=faults, control=ControlPlane(retry=retry))
        tenant = runtime.register("t", fixture_batch)
        session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        session.submit(session.pending[0], space[0])
        failure = runtime.advance()
        assert isinstance(failure, QueryFailure) and failure.will_retry
        assert failure.retry_at == pytest.approx(failure.time + 5.0)
        assert retry_time(session, failure.query_id) == failure.retry_at
        # a backing-off query is pending-but-unavailable until its retry
        assert failure.query_id in session.retrying_ids()

    def test_attempts_are_exposed_per_query(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(error_rate=0.3, outages=(OutageWindow(0, 1.0, 1.0),))
        session, events = _drive(fixture_batch, space, faults, RetryPolicy(max_attempts=4, backoff=0.1))
        failures = [event for event in events if isinstance(event, QueryFailure)]
        assert max(event.attempt for event in failures) > 1  # something retried
        assert {event.reason for event in failures} == {FAILURE_ERROR, FAILURE_OUTAGE}
        # one count per failed attempt, read off the snapshot's attempts column
        counts = session.failure_counts()
        assert counts == Counter(event.query_id for event in failures)
        assert counts == {q: int(n) for q, n in enumerate(session.failed_attempts) if n}


class TestClusterOutage:
    def _cluster_round(self, fixture_batch, small_config, faults, retry=None):
        space = ConfigurationSpace(small_config.scheduler)
        cluster = Cluster.from_names(("x", "x"), seed=0)
        runtime = ExecutionRuntime(cluster, faults=faults, control=ControlPlane(retry=retry))
        tenant = runtime.register("t", fixture_batch)
        session = tenant.new_session(fixture_batch, num_connections=2, round_id=0)
        scheduler_cursor = 0
        requeues = 0
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                idle = session.idle_instances()
                instance = idle[scheduler_cursor % len(idle)]
                scheduler_cursor += 1
                session.submit(session.pending[0], space[0], instance=instance)
            if runtime.is_done:
                break
            event = runtime.advance()
            if isinstance(event, QueryFailure):
                assert event.reason == "outage"
                assert event.will_retry  # outage kills always requeue
                requeues += 1
        return session, requeues

    def test_outage_never_strands_in_flight_queries(self, fixture_batch, small_config):
        faults = FailureProfile(outages=(OutageWindow(instance=1, start=2.0, duration=3.0),))
        session, requeues = self._cluster_round(fixture_batch, small_config, faults)
        assert session.is_done
        assert len(session.finished) == len(fixture_batch)
        assert not session.failed
        assert requeues > 0
        assert session.num_failed_attempts == requeues

    def test_downed_instance_is_never_selectable(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        faults = FailureProfile(outages=(OutageWindow(instance=0, start=0.0, duration=5.0),))
        cluster = Cluster.from_names(("x", "x"), seed=0)
        knowledge = ExternalKnowledge.from_probes(cluster, fixture_batch, space)
        env = SchedulingEnv(
            batch=fixture_batch,
            backend=ExecutionRuntime(cluster, faults=faults).register("env", fixture_batch),
            scheduler_config=small_config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
        )
        snapshot = env.reset(round_id=0)
        assert instance_health(env.runtime.shared_session) == [False, True]
        assert env.available_instances() == [1]
        mask = env.action_mask()
        assert mask.any()
        for action in np.nonzero(mask)[0]:
            _, instance, _ = env.decode_placement(int(action))
            assert instance == 1  # the downed instance is fully masked
        with pytest.raises(SchedulingError):
            env.session.submit(fixture_batch[0].query_id, space[0], instance=0)

    def test_fleetwide_outage_recovers_instead_of_deadlocking(self, fixture_batch, small_config):
        faults = FailureProfile(
            outages=(
                OutageWindow(instance=0, start=1.0, duration=2.0),
                OutageWindow(instance=1, start=1.0, duration=2.5),
            )
        )
        session, requeues = self._cluster_round(fixture_batch, small_config, faults)
        assert session.is_done and len(session.finished) == len(fixture_batch)
        assert requeues > 0


class TestSimulatedClusterFaults:
    @pytest.fixture(scope="class")
    def sim(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        cluster = Cluster.from_names(("x", "x"), seed=0)
        knowledge = ExternalKnowledge.from_probes(cluster, fixture_batch, space)
        from repro.encoder import PlanEmbeddingCache, QueryFormer
        from repro.plans import PlanFeaturizer

        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        queryformer = QueryFormer(
            PlanFeaturizer(workload.catalog), small_config.encoder, np.random.default_rng(0)
        )
        embeddings = PlanEmbeddingCache(queryformer).embeddings_for(fixture_batch)
        perf = PerformanceModel(
            batch=fixture_batch,
            plan_embeddings=embeddings,
            knowledge=knowledge,
            config_space=space,
            config=small_config.simulator,
            seed=0,
            instance_speeds=cluster.speed_factors(),
        )
        return perf, cluster

    def test_simulated_fleet_mirrors_failures(self, sim, fixture_batch):
        """The simulated fleet is fault-free by construction: it refuses a failure
        profile, opened directly or through a faulty runtime's first round."""
        perf, cluster = sim
        faults = FailureProfile(error_rate=0.3)
        sim_cluster = SimulatedCluster.for_cluster(perf, cluster)
        with pytest.raises(SimulationError, match="fault-free"):
            sim_cluster.new_session(fixture_batch, num_connections=2, round_id=0, faults=faults)
        runtime = ExecutionRuntime(sim_cluster, faults=faults)
        tenant = runtime.register("t", fixture_batch)
        with pytest.raises(SimulationError, match="fault-free"):
            tenant.new_session(fixture_batch, num_connections=2, round_id=0)
        assert sim_cluster.new_session(fixture_batch, num_connections=2, round_id=0).supports_lockstep


class TestFaultFreeDigestPins:
    def test_streaming_round_matches_pr4_tree(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        knowledge = ExternalKnowledge.from_probes(engine, fixture_batch, space)
        env = SchedulingEnv(
            batch=fixture_batch,
            backend=ExecutionRuntime(engine).register("env", fixture_batch, arrivals=PoissonArrivals(rate=3.0)),
            scheduler_config=small_config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
        )
        result = FIFOScheduler().run_round(env, round_id=0)
        assert _digest(result.round_log) == _PR4_STREAMING_FIFO

    def test_cluster_round_matches_pr4_tree(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        cluster = Cluster.from_names(("x", "y"), seed=0)
        knowledge = ExternalKnowledge.from_probes(cluster, fixture_batch, space)
        env = SchedulingEnv(
            batch=fixture_batch,
            backend=cluster,
            scheduler_config=small_config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
        )
        result = RoundRobinPlacementScheduler().run_round(env, round_id=0)
        assert _digest(result.round_log) == _PR4_CLUSTER_RR


class TestServiceReportFaults:
    def test_zero_completion_tenant_reports_zeroed_latencies(self, fixture_batch, small_config):
        """Regression: ``np.percentile([])`` raised IndexError and the mean
        emitted NaN for any tenant that completed no queries."""
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine, faults=FailureProfile(error_rate=1.0))
        tenant = runtime.register("doomed", fixture_batch)
        session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0])
            if runtime.is_done:
                break
            runtime.advance()
        report = ServiceReport.from_runtime(runtime, strategy="doomed")
        (doomed,) = report.tenants
        assert doomed.num_queries == 0
        assert doomed.num_failed == len(fixture_batch)
        for value in (
            doomed.mean_latency,
            doomed.p50_latency,
            doomed.p90_latency,
            doomed.p99_latency,
            doomed.goodput,
        ):
            assert value == 0.0 and not math.isnan(value)
        assert report.goodput == 0.0 and report.total_failed == len(fixture_batch)

    def test_failure_ledger_in_report_and_str(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(
            engine,
            faults=FailureProfile(error_rate=0.3),
            control=ControlPlane(retry=RetryPolicy(max_attempts=4, backoff=0.1)),
        )
        tenant = runtime.register("t", fixture_batch)
        session = tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        while not runtime.is_done:
            while session.pending and session.has_idle_connection:
                session.submit(session.pending[0], space[0])
            if runtime.is_done:
                break
            runtime.advance()
        report = ServiceReport.from_runtime(runtime)
        as_dict = report.as_dict()
        assert as_dict["total_failed_attempts"] == session.num_failed_attempts > 0
        assert as_dict["total_retries"] == session.num_retries > 0
        assert as_dict["goodput"] == pytest.approx(len(session.finished) / report.total_time)
        assert "faults:" in str(report)


class TestRuntimeDiagnostics:
    def test_deadlock_error_names_undrained_tenants(self, fixture_batch):
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine)
        tenant = runtime.register("stalled", fixture_batch)
        tenant.new_session(fixture_batch, num_connections=4, round_id=0)
        with pytest.raises(SchedulingError) as excinfo:
            runtime.advance()
        message = str(excinfo.value)
        assert "deadlocked" in message
        assert "'stalled'" in message
        assert f"pending={len(fixture_batch)}" in message


class TestRewardAndAttempts:
    @staticmethod
    def _rewards_and_elapsed(env) -> list[tuple[float, float]]:
        """Drive one FIFO round; per step, the reward and ``-(Δ info["time"])``."""
        env.reset(round_id=0)
        steps, last_time, done = [], 0.0, False
        while not done:
            step = env.step(env.encode_action(env.session.pending[0], 0))
            steps.append((step.reward, -(step.info["time"] - last_time)))
            last_time, done = step.info["time"], step.done
        return steps

    def test_every_step_is_rewarded_minus_elapsed(self, fixture_batch, small_config):
        """Failed attempts and SLO misses cost exactly the time they took: on a faulty
        engine round and on a classed round with an impossible SLO, every step's
        reward is ``-(Δ info["time"])``, bit for bit."""
        space = ConfigurationSpace(small_config.scheduler)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 4
        faulty = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        classed = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        rounds = {
            "faulty": ExecutionRuntime(
                faulty,
                faults=FailureProfile(error_rate=0.4),
                control=ControlPlane(retry=RetryPolicy(max_attempts=3, backoff=0.1)),
            ).register("env", fixture_batch),
            # An impossible SLO makes every completion a miss.
            "classed": ExecutionRuntime(classed).register(
                "env", fixture_batch, tenant_class=TenantClass("vip", priority=2.0, latency_slo=1e-6, deadline=60.0)
            ),
        }
        for name, tenant in rounds.items():
            env = SchedulingEnv(
                batch=fixture_batch,
                backend=tenant,
                scheduler_config=config.scheduler,
                config_space=space,
                knowledge=ExternalKnowledge.from_probes(tenant.runtime.backend, fixture_batch, space),
                mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
            )
            steps = self._rewards_and_elapsed(env)
            assert len(steps) >= len(fixture_batch), name
            assert [reward for reward, _ in steps] == [elapsed for _, elapsed in steps], name
            if name == "faulty":
                assert env.session.num_failed_attempts > 0
            else:
                assert env.session.num_slo_misses == len(fixture_batch)

    def test_snapshot_exposes_attempts(self, fixture_batch, small_config):
        space = ConfigurationSpace(small_config.scheduler)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 4
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        knowledge = ExternalKnowledge.from_probes(engine, fixture_batch, space)
        runtime = ExecutionRuntime(
            engine,
            faults=FailureProfile(error_rate=0.5, outages=(OutageWindow(0, 1.0, 1.0),)),
            control=ControlPlane(retry=RetryPolicy(max_attempts=3, backoff=0.1)),
        )
        env = SchedulingEnv(
            batch=fixture_batch,
            backend=runtime.register("env", fixture_batch),
            scheduler_config=config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
        )
        env.reset(round_id=0)
        done = False
        saw_attempts = False
        while not done:
            pending = env.session.pending
            step = env.step(env.encode_action(pending[0], 0))
            if any(info.attempts > 0 for info in snapshot_aos(env).infos):
                saw_attempts = True
            done = step.done
        assert saw_attempts
        counts = env.session.failure_counts()
        for info in snapshot_aos(env).infos:
            assert info.attempts == counts.get(info.query_id, 0)
        assert counts == {q: int(n) for q, n in enumerate(env.session.failed_attempts) if n}
        assert env.session.num_failed_attempts == sum(counts.values())


class TestAttemptCounts:
    def test_attempts_are_one_in_place_counter(self, fixture_batch, small_config):
        """A round's failed attempts live in one session array, counted up in place:
        after every step it is the same array, it never counts down, and
        ``failure_counts()`` and the per-query oracle read exactly it."""
        space = ConfigurationSpace(small_config.scheduler)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        env = SchedulingEnv(
            batch=fixture_batch,
            backend=ExecutionRuntime(
                engine,
                faults=FailureProfile(error_rate=0.4),
                control=ControlPlane(retry=RetryPolicy(max_attempts=3, backoff=0.1)),
            ).register("env", fixture_batch),
            scheduler_config=small_config.scheduler,
            config_space=space,
            knowledge=ExternalKnowledge.from_probes(engine, fixture_batch, space),
            mask=AdaptiveMask.unmasked(len(fixture_batch), len(space)),
        )
        env.reset(round_id=0)
        counter = env.session.failed_attempts
        previous, done = counter.copy(), False
        while not done:
            done = env.step(env.encode_action(env.session.pending[0], 0)).done
            assert env.session.failed_attempts is counter
            assert (counter >= previous).all()
            assert env.session.failure_counts() == {q: int(n) for q, n in enumerate(counter) if n}
            assert [info.attempts for info in snapshot_aos(env).infos] == counter.tolist()
            previous = counter.copy()
        assert counter.sum() == env.session.num_failed_attempts > 0

    def test_attempts_validation(self):
        from snapshot_oracle import QueryRuntimeInfo, QueryStatus

        with pytest.raises(SchedulingError):
            QueryRuntimeInfo(query_id=0, status=QueryStatus.PENDING, attempts=-1)
