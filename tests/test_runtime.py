"""Tests for the event-driven runtime: queue, arrivals, tenants, digests."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    FIFOScheduler,
    LSchedScheduler,
    MCFScheduler,
    RandomScheduler,
    SchedulingEnv,
    drive_service,
)
from repro.dbms import ConfigurationSpace
from repro.exceptions import SchedulingError, WorkloadError
from repro.runtime.report import _linear_percentile
from repro.runtime import (
    EventQueue,
    ExecutionRuntime,
    QueryArrival,
    QueryCompletion,
    ServiceReport,
    TenantSession,
)
from repro.workloads import (
    BurstyArrivals,
    ClosedArrivals,
    PoissonArrivals,
    make_arrival_process,
)

# SHA-256 of the per-round execution logs produced by the PRE-REFACTOR tree
# (commit 5173d00) for the fixture scenario below: TPC-H sf1 seed 0 on DBMS-X
# seed 0, 4 connections, unmasked small config.  The event-driven runtime must
# reproduce these bit-for-bit on the single-tenant closed-batch path.
_PRE_REFACTOR_DIGESTS = {
    ("FIFO", 0): "0b624001a42f4fca04ac3d0e35cba535f3577af4bf95f48380249474d9d37a9a",
    ("MCF", 1): "94765968bbc02a8497ef4d71b9497f499ff39c286d473f9fd642166168001073",
    ("Random", 2): "53fc6f72815f3e4cfc181557a35a0f180209465b6467be0eed077ba88f922b8a",
}

# SHA-256 of ``repr(serve().as_dict())`` for an untrained LSched on TPC-H sf1
# seed 0 over DBMS-X seed 0 (small config), as the tree that read serve()'s
# defaults from a service config section produced it: two closed tenants,
# round 80000.
_DEFAULT_SERVE_REPORT = "11b28f8433d7a1f82446071698c49c22adb7528a5ee4ced3981ce470b5ece409"


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


@pytest.fixture()
def digest_env():
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    space = ConfigurationSpace()
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    return SchedulingEnv(
        batch=batch,
        backend=engine,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
    )


class TestEventQueue:
    def test_orders_by_time_then_insertion(self):
        queue = EventQueue()
        queue.push(QueryArrival(time=2.0, tenant="a", query_id=0))
        queue.push(QueryArrival(time=1.0, tenant="b", query_id=1))
        queue.push(QueryArrival(time=1.0, tenant="c", query_id=2))
        assert queue.peek_time() == 1.0
        assert queue.pop().tenant == "b"
        assert queue.pop().tenant == "c"
        assert queue.pop().tenant == "a"
        assert not queue
        assert queue.peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(QueryArrival(time=-1.0, tenant="a", query_id=0))

    def test_clear_and_len(self):
        queue = EventQueue()
        for i in range(5):
            queue.push(QueryArrival(time=float(i), tenant="a", query_id=i))
        assert len(queue) == 5
        queue.clear()
        assert len(queue) == 0


class TestArrivalProcesses:
    def test_closed_is_all_zero(self):
        times = ClosedArrivals().times(7, np.random.default_rng(0))
        assert times.shape == (7,) and (times == 0).all()

    def test_poisson_is_reproducible_and_monotone(self):
        process = PoissonArrivals(rate=2.0)
        a = process.times(50, np.random.default_rng(3))
        b = process.times(50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a[0] == 0.0
        assert (np.diff(a) >= 0).all()
        # mean inter-arrival ~ 1/rate
        assert 0.2 < np.diff(a).mean() < 1.2

    def test_bursty_groups_queries(self):
        process = BurstyArrivals(rate=4.0, burst_size=3)
        times = process.times(9, np.random.default_rng(0))
        assert times.shape == (9,)
        # queries within one burst share an arrival instant
        assert times[0] == times[1] == times[2] == 0.0
        assert len(set(times.tolist())) == 3

    def test_recorded_arrival_times_replay_through_register(self, tpch_batch):
        """A recorded submission log is a tenant's explicit arrival times, one per query and none negative."""
        times = np.linspace(0.0, 4.0, len(tpch_batch))
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        tenant = ExecutionRuntime(engine).register("t", tpch_batch, arrivals=times)
        session = tenant.new_session(tpch_batch, num_connections=2)
        assert [session.arrival_time(query.query_id) for query in tpch_batch] == times.tolist()
        assert session.pending == [0] and session.unarrived_ids()
        with pytest.raises(SchedulingError, match="one time per query"):
            ExecutionRuntime(engine).register("t", tpch_batch, arrivals=times[:-1])
        with pytest.raises(SchedulingError, match=">= 0"):
            ExecutionRuntime(engine).register("t", tpch_batch, arrivals=-times)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_non_finite_arrival_time_is_refused(self, tpch_batch, bad):
        """A NaN time put its query in neither the pending nor the unarrived set (the tenant finished
        without it), and an infinite one deferred it past every event."""
        times = np.linspace(0.0, 4.0, len(tpch_batch))
        times[3] = bad
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        with pytest.raises(SchedulingError, match="arrival times must be finite"):
            ExecutionRuntime(engine).register("t", tpch_batch, arrivals=times)

    def test_factory(self):
        assert isinstance(make_arrival_process("closed"), ClosedArrivals)
        assert isinstance(make_arrival_process("poisson", rate=1.0), PoissonArrivals)
        assert isinstance(make_arrival_process("bursty", rate=1.0, burst_size=2), BurstyArrivals)
        with pytest.raises(WorkloadError):
            make_arrival_process("weibull")
        with pytest.raises(WorkloadError):
            PoissonArrivals(rate=0.0)


class TestSingleTenantDigest:
    def test_closed_batch_through_runtime_matches_pre_refactor_tree(self, digest_env):
        """The tentpole acceptance bar: the runtime path is bit-for-bit identical."""
        schedulers = {
            ("FIFO", 0): FIFOScheduler(),
            ("MCF", 1): MCFScheduler(),
            ("Random", 2): RandomScheduler(seed=7),
        }
        for (name, round_id), scheduler in schedulers.items():
            result = scheduler.run_round(digest_env, round_id=round_id)
            assert isinstance(digest_env.session, TenantSession)
            assert _digest(result.round_log) == _PRE_REFACTOR_DIGESTS[(name, round_id)], name

    def test_runtime_session_equals_direct_engine_session(self, digest_env):
        """Driving the engine directly (no runtime) gives the identical log."""
        result = FIFOScheduler().run_round(digest_env, round_id=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        direct = engine.execute_order(
            digest_env.batch,
            [q.query_id for q in digest_env.batch],
            digest_env.config_space.default,
            num_connections=4,
            round_id=0,
        )
        assert _digest(direct) == _digest(result.round_log)


class _FirstPendingPolicy:
    """Deterministic stand-in scheduler: first arrived pending query, config 0."""

    def act(self, env):
        query_id = env.snapshot().pending_ids[0]
        return env.encode_action(query_id, 0)


def _drive_shared_round(runtime, envs):
    """The serve loop: at every event, every tenant that can decide does."""
    drive_service(runtime, envs, _FirstPendingPolicy().act)


def _make_env(batch, tenant, config, space, knowledge):
    return SchedulingEnv(
        batch=batch,
        backend=tenant,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
        strategy_name="integration",
    )


class TestMultiTenantIntegration:
    def test_two_closed_tenants_plus_poisson_stream_share_one_engine(self):
        """Acceptance: >= 2 tenants + a Poisson stream, disjoint complete logs."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 6
        space = ConfigurationSpace()
        knowledge = ExternalKnowledge.from_probes(engine, batch, space)

        runtime = ExecutionRuntime(engine)
        tenants = [
            runtime.register("closed-a", batch),
            runtime.register("closed-b", batch),
            runtime.register("stream", batch, arrivals=PoissonArrivals(rate=4.0)),
        ]
        envs = [_make_env(batch, tenant, config, space, knowledge) for tenant in tenants]
        for env in envs:
            env.reset(round_id=0)
        _drive_shared_round(runtime, envs)

        sessions = runtime.sessions()
        shared_log = runtime.shared_session.log

        # Complete: every tenant ran its whole batch exactly once, in its own
        # local id space, and the round is fully drained.
        assert runtime.is_done
        for session in sessions.values():
            assert session.is_done
            assert sorted(r.query_id for r in session.log.records) == sorted(
                q.query_id for q in batch
            )
            assert len(session.finished) == len(batch)
            assert session.makespan > 0

        # Disjoint: the tenant logs partition the shared engine log — every
        # execution belongs to exactly one tenant.
        shared_keys = sorted((r.submit_time, r.finish_time, r.connection) for r in shared_log)
        tenant_keys = sorted(
            (r.submit_time, r.finish_time, r.connection)
            for session in sessions.values()
            for r in session.log.records
        )
        assert len(shared_log) == 3 * len(batch)
        assert tenant_keys == shared_keys

        # The streaming tenant really streamed: its queries arrived over time
        # and latency is measured from arrival, not round start.
        stream = sessions["stream"]
        assert max(stream.arrival_time(q.query_id) for q in batch) > 0
        latencies = stream.latencies()
        assert all(lat >= 0 for lat in latencies.values())
        report = ServiceReport.from_runtime(runtime, strategy="integration")
        assert len(report.tenants) == 3
        assert report.max_makespan == pytest.approx(runtime.current_time)

    def test_shared_contention_slows_tenants_down(self):
        """Two tenants on one engine interfere; makespans exceed a lone round."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 6
        space = ConfigurationSpace()

        def run(num_tenants):
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
            knowledge = ExternalKnowledge.from_probes(engine, batch, space)
            runtime = ExecutionRuntime(engine)
            tenants = [runtime.register(f"t{i}", batch) for i in range(num_tenants)]
            envs = [_make_env(batch, tenant, config, space, knowledge) for tenant in tenants]
            for env in envs:
                env.reset(round_id=0)
            _drive_shared_round(runtime, envs)
            return max(session.makespan for session in runtime.sessions().values())

        assert run(2) > run(1)

    def test_reopen_rules(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine)
        tenant_a = runtime.register("a", batch)
        tenant_b = runtime.register("b", batch)
        session_a = tenant_a.new_session(batch, num_connections=4, round_id=0)
        session_b = tenant_b.new_session(batch, num_connections=4, round_id=0)
        assert session_a is not session_b
        # a cannot reopen while b is still mid-round
        session_a.submit(0, ConfigurationSpace()[0])
        with pytest.raises(SchedulingError):
            tenant_a.new_session(batch, num_connections=4, round_id=1)
        # registration after the round opened is rejected
        with pytest.raises(SchedulingError):
            runtime.register("late", batch)

    def test_drive_service_refuses_an_env_of_another_runtime(self):
        """An env on its own runtime would never advance: the loop used to return with it half done."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 4
        space = ConfigurationSpace()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        knowledge = ExternalKnowledge.from_probes(engine, batch, space)
        runtime = ExecutionRuntime(engine)
        bound = _make_env(batch, runtime.register("a", batch), config, space, knowledge)
        stray = _make_env(batch, DatabaseEngine(DBMSProfile.dbms_x(), seed=1), config, space, knowledge)
        for env in (bound, stray):
            env.reset(round_id=0)
        with pytest.raises(SchedulingError, match="environment 1 is not a tenant"):
            _drive_shared_round(runtime, [bound, stray])
        # Refused on entry: neither round has moved.
        assert bound.session.current_time == stray.session.current_time == 0.0
        assert len(bound.session.pending) == len(stray.session.pending) == len(batch)
        _drive_shared_round(stray.runtime, [stray])
        assert stray.session.is_done and len(stray.session.finished) == len(batch)

    def test_advance_without_work_raises(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine)
        tenant = runtime.register("solo", batch)
        tenant.new_session(batch, num_connections=4, round_id=0)
        with pytest.raises(SchedulingError):
            runtime.advance()


class TestStreamingEnv:
    def test_open_round_through_env_step_loop(self):
        """A single streaming tenant works through the plain env.step loop."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        space = ConfigurationSpace()
        knowledge = ExternalKnowledge.from_probes(engine, batch, space)
        env = SchedulingEnv(
            batch=batch,
            backend=ExecutionRuntime(engine).register("env", batch, arrivals=PoissonArrivals(rate=3.0)),
            scheduler_config=config.scheduler,
            config_space=space,
            knowledge=knowledge,
            mask=AdaptiveMask.unmasked(len(batch), len(space)),
        )
        snapshot = env.reset(round_id=0)
        assert len(snapshot.pending_ids) + len(snapshot.unarrived_ids) == len(batch)
        assert snapshot.unarrived_ids, "a Poisson stream must defer most arrivals"
        assert all(env.session.arrival_time(query_id) > snapshot.time for query_id in snapshot.unarrived_ids)
        # the action mask only exposes arrived queries
        mask = env.action_mask()
        exposed = {action // env.num_configs for action in np.nonzero(mask)[0]}
        assert exposed == set(snapshot.pending_ids)

        result = FIFOScheduler().run_round(env, round_id=1)
        assert len(result.round_log) == len(batch)
        # streaming stretches the round: it cannot finish before the last arrival
        last_arrival = max(env.session.arrival_time(q.query_id) for q in batch)
        assert result.makespan >= last_arrival

    def test_arrival_times_resample_per_round(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        space = ConfigurationSpace()
        knowledge = ExternalKnowledge.from_probes(engine, batch, space)
        env = SchedulingEnv(
            batch=batch,
            backend=ExecutionRuntime(engine).register("env", batch, arrivals=PoissonArrivals(rate=3.0)),
            scheduler_config=config.scheduler,
            config_space=space,
            knowledge=knowledge,
        )
        env.reset(round_id=0)
        first = [env.session.arrival_time(q.query_id) for q in batch]
        FIFOScheduler().run_round(env, round_id=0)
        env.reset(round_id=1)
        second = [env.session.arrival_time(q.query_id) for q in batch]
        assert first != second
        env.reset(round_id=0)
        assert [env.session.arrival_time(q.query_id) for q in batch] == first


class TestServeFacade:
    def test_serve_closed_and_streaming(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 8
        scheduler = LSchedScheduler(workload, engine, config)
        report = scheduler.serve(num_tenants=2, arrivals=None)
        assert len(report.tenants) == 2
        for tenant in report.tenants:
            assert tenant.num_queries == len(scheduler.batch)
            assert tenant.p50_latency <= tenant.p90_latency <= tenant.p99_latency
        streamed = scheduler.serve(num_tenants=2, arrivals="poisson")
        assert len(streamed.tenants) == 2
        assert streamed.total_time > 0
        as_dict = streamed.as_dict()
        assert {t["tenant"] for t in as_dict["tenants"]} == {"tenant-0", "tenant-1"}

    @staticmethod
    def _untrained_lsched():
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        return LSchedScheduler(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), BQSchedConfig.small(seed=0))

    def test_serve_defaults_reproduce_the_service_config_report(self):
        """``serve()``'s own defaults are the settings its config section held, byte for byte."""
        report = self._untrained_lsched().serve()
        assert [tenant.tenant for tenant in report.tenants] == ["tenant-0", "tenant-1"]
        assert hashlib.sha256(repr(report.as_dict()).encode()).hexdigest() == _DEFAULT_SERVE_REPORT

    def test_a_process_name_builds_the_default_process(self):
        """A process name is ``make_arrival_process`` at its defaults: 2 queries/s, bursts of 4."""
        scheduler = self._untrained_lsched()
        for name, process in (("poisson", PoissonArrivals(2.0)), ("bursty", BurstyArrivals(2.0, burst_size=4))):
            by_name = scheduler.serve(arrivals=name)
            assert by_name.total_time > 0
            assert repr(by_name.as_dict()) == repr(scheduler.serve(arrivals=process).as_dict()), name

    def test_latency_percentiles_are_numpys_linear_bit_for_bit(self):
        rng = np.random.default_rng(0)
        arrays = [np.array([3.25]), np.array([1.0, 1.0]), np.array([0.5, 7.0])]
        arrays += [np.sort(rng.exponential(30.0, size)) for size in rng.integers(3, 400, size=200)]
        arrays += [np.sort(rng.integers(0, 4, size).astype(float)) for size in rng.integers(2, 50, size=50)]
        for latencies in arrays:
            for q in (0, 25, 50, 90, 99, 100, float(rng.uniform(0, 100))):
                expected = float(np.percentile(latencies, q, method="linear"))
                assert _linear_percentile(latencies, q).hex() == expected.hex(), (latencies.size, q)

    def test_serve_leaves_numpy_ma_unimported(self):
        """The report's percentiles do not pull in numpy.ma (np.percentile's first call does)."""
        script = textwrap.dedent(
            """
            import sys
            import repro
            workload = repro.make_workload("tpch", scale_factor=1.0, seed=0)
            engine = repro.DatabaseEngine(repro.DBMSProfile.dbms_x(), seed=0)
            config = repro.BQSchedConfig.small(seed=0)
            config.scheduler.num_connections = 8
            scheduler = repro.BQSched(workload, engine, config)
            report = scheduler.serve(num_tenants=2, arrivals="poisson")
            assert report.tenants[0].p99_latency > 0
            print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_serve_rejects_bad_tenant_count(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        scheduler = LSchedScheduler(workload, engine, BQSchedConfig.small(seed=0))
        with pytest.raises(SchedulingError):
            scheduler.serve(num_tenants=0)


class TestBatchContextRows:
    def test_env_rejects_a_mask_or_embeddings_of_another_size(self, digest_env):
        """The mask and the plan embeddings are the batch's rows: any other count raises."""
        batch = digest_env.batch
        components = dict(
            batch=batch,
            backend=DatabaseEngine(DBMSProfile.dbms_x(), seed=0),
            scheduler_config=digest_env.scheduler_config,
            config_space=digest_env.config_space,
            knowledge=digest_env.knowledge,
        )
        num_configs = digest_env.num_configs
        for rows in (2, len(batch) + 1):
            with pytest.raises(SchedulingError, match=f"mask covers {rows} queries but the batch has {len(batch)}"):
                SchedulingEnv(**components, mask=AdaptiveMask.unmasked(rows, num_configs))
            with pytest.raises(SchedulingError, match=f"plan_embeddings has {rows} rows"):
                SchedulingEnv(**components, plan_embeddings=np.zeros((rows, 4)))
        env = SchedulingEnv(
            **components,
            mask=AdaptiveMask.unmasked(len(batch), num_configs),
            plan_embeddings=np.zeros((len(batch), 4)),
        )
        assert env.clone().plan_embeddings is env.plan_embeddings
