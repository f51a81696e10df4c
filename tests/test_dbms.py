"""Tests for the DBMS substrate: profiles, params, buffer, engine, logs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExternalKnowledge
from repro.dbms import (
    BufferPool,
    ConfigurationSpace,
    DBMSProfile,
    ExecutionLog,
    QueryExecutionRecord,
    RoundLog,
    RunningParameters,
)
from repro.exceptions import ConfigurationError, SchedulingError, SimulationError
from engine_oracle import cached_fraction
from gain_oracle import grouped_overlaps, overlap


class TestProfiles:
    def test_canonical_profiles_exist(self):
        for name in ("x", "y", "z"):
            profile = DBMSProfile.by_name(name)
            assert profile.cpu_capacity > 0

    def test_by_name_accepts_full_names(self):
        assert DBMSProfile.by_name("DBMS-Z").name == "DBMS-Z"

    def test_by_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            DBMSProfile.by_name("dbms-q")

    def test_dbms_z_is_fastest_and_smoothed(self):
        x, z = DBMSProfile.dbms_x(), DBMSProfile.dbms_z()
        assert z.speed > x.speed
        assert z.contention_smoothing > x.contention_smoothing

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            DBMSProfile(
                name="bad", cpu_capacity=0, io_capacity=1, memory_capacity_mb=1, buffer_pool_rows=1,
                sharing_strength=0.1, contention_smoothing=0.1, speed=1, noise=0.1, default_connections=1,
            )


class TestRunningParameters:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunningParameters(workers=0)
        with pytest.raises(ConfigurationError):
            RunningParameters(memory_mb=0)

    def test_str(self):
        assert str(RunningParameters(2, 256)) == "2w/256MB"

    def test_configuration_space_enumeration(self):
        space = ConfigurationSpace()
        assert len(space) == 4
        assert space.default == RunningParameters(1, 64)
        assert space[len(space) - 1] == RunningParameters(2, 256)
        assert space.index_of(RunningParameters(2, 64)) == 2

    def test_configuration_space_unknown_config(self):
        space = ConfigurationSpace()
        with pytest.raises(ConfigurationError):
            space.index_of(RunningParameters(16, 4096))

    def test_closest_to_respects_allowed(self):
        space = ConfigurationSpace()
        closest = space.closest_to(RunningParameters(2, 256), allowed=[0, 1])
        assert closest == RunningParameters(1, 256)


class TestBufferPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            BufferPool(0)

    def test_cached_fraction_grows_with_touch(self):
        pool = BufferPool(1000)
        assert cached_fraction(pool, "t", 100) == 0.0
        pool.touch("t", 50, now=1.0)
        assert cached_fraction(pool, "t", 100) == pytest.approx(0.5)

    def test_eviction_respects_capacity(self):
        pool = BufferPool(100)
        pool.touch("a", 80, now=1.0)
        pool.touch("b", 80, now=2.0)
        assert pool.used_rows <= 100 + 1e-9
        # the older table was evicted first
        assert cached_fraction(pool, "b", 80) > cached_fraction(pool, "a", 80)

    def test_negative_touch_rejected(self):
        with pytest.raises(SimulationError):
            BufferPool(10).touch("t", -1, now=0.0)

    def test_clear(self):
        pool = BufferPool(100)
        pool.touch("t", 10, now=0.0)
        pool.clear()
        assert pool.used_rows == 0.0


class TestExecutionSession:
    def test_submit_and_advance_complete_batch(self, tpch_batch, engine_x):
        session = engine_x.new_session(tpch_batch, num_connections=4, round_id=0)
        for query in list(tpch_batch)[:4]:
            session.submit(query.query_id, RunningParameters(1, 64))
        assert not session.has_idle_connection
        event = session.advance()
        assert event.finish_time > 0
        assert session.has_idle_connection

    def test_submit_rejects_non_pending(self, tpch_batch, engine_x):
        session = engine_x.new_session(tpch_batch, num_connections=2)
        session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SchedulingError):
            session.submit(0, RunningParameters(1, 64))

    def test_submit_rejects_without_idle_connection(self, tpch_batch, engine_x):
        session = engine_x.new_session(tpch_batch, num_connections=1)
        session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SchedulingError):
            session.submit(1, RunningParameters(1, 64))

    def test_advance_requires_running_query(self, tpch_batch, engine_x):
        session = engine_x.new_session(tpch_batch, num_connections=1)
        with pytest.raises(SimulationError):
            session.advance()

    def test_finish_times_monotone(self, tpch_batch, engine_x):
        order = [q.query_id for q in tpch_batch]
        log = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=4)
        finishes = [r.finish_time for r in sorted(log, key=lambda r: r.finish_time)]
        assert all(b >= a for a, b in zip(finishes, finishes[1:]))
        assert len(log) == len(tpch_batch)

    def test_execute_order_validates_permutation(self, tpch_batch, engine_x):
        with pytest.raises(SchedulingError):
            engine_x.execute_order(tpch_batch, [0, 1, 2], RunningParameters(1, 64))

    def test_rounds_are_reproducible_per_round_id(self, tpch_batch, engine_x):
        order = [q.query_id for q in tpch_batch]
        log_a = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=4, round_id=7)
        log_b = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=4, round_id=7)
        assert log_a.makespan == pytest.approx(log_b.makespan)

    def test_noise_differs_across_rounds(self, tpch_batch, engine_x):
        order = [q.query_id for q in tpch_batch]
        makespans = {
            engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=4, round_id=r).makespan
            for r in range(3)
        }
        assert len(makespans) == 3

    def test_more_connections_do_not_slow_things_down_dramatically(self, tpch_batch, engine_x):
        order = [q.query_id for q in tpch_batch]
        narrow = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=1, round_id=0)
        wide = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=8, round_id=0)
        assert wide.makespan < narrow.makespan

    def test_isolated_probe_parallelism_speedup(self, tpch_batch, engine_x):
        query = max(tpch_batch, key=lambda q: q.cpu_work)
        single = engine_x.estimate_isolated_time(query, RunningParameters(1, 256))
        parallel = engine_x.estimate_isolated_time(query, RunningParameters(2, 256))
        assert parallel < single

    def test_isolated_probe_memory_speedup(self, tpch_batch, engine_x):
        query = max(tpch_batch, key=lambda q: q.memory_sensitivity * q.total_work)
        small_memory = engine_x.estimate_isolated_time(query, RunningParameters(1, 64))
        big_memory = engine_x.estimate_isolated_time(query, RunningParameters(1, 256))
        assert big_memory <= small_memory

    def test_isolated_probe_is_deterministic(self, tpch_batch, engine_x):
        query = tpch_batch[0]
        a = engine_x.estimate_isolated_time(query, RunningParameters(1, 64))
        b = engine_x.estimate_isolated_time(query, RunningParameters(1, 64))
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("bench_name", ["tpch", "job", "tpcds"])
    def test_isolated_probe_is_a_one_query_round(self, bench_name):
        """The probe's float is the finish time of a noise-free, one-connection round of that query alone."""
        from repro.dbms import DatabaseEngine, ExecutionSession
        from repro.workloads import BatchQuerySet, make_workload

        space = ConfigurationSpace()
        batch = make_workload(bench_name, scale_factor=1.0, seed=0).batch_query_set()
        for name in ("x", "y", "z"):
            engine = DatabaseEngine(DBMSProfile.by_name(name), seed=0)
            for query in batch:
                for parameters in space:
                    unit = ExecutionSession(engine.profile, BatchQuerySet([query]), 1, np.random.default_rng(0))
                    unit._noise = {0: 1.0}
                    unit.submit(0, parameters)
                    expected = unit.advance()[0].finish_time
                    assert engine.estimate_isolated_time(query, parameters).hex() == expected.hex()

    def test_contention_slows_concurrent_execution_on_average(self, tpch_batch, engine_x):
        # On average, queries under heavy concurrency take longer than in
        # isolation (individual queries may still speed up via data sharing).
        isolated = {
            q.query_id: engine_x.estimate_isolated_time(q, RunningParameters(1, 64)) for q in tpch_batch
        }
        order = [q.query_id for q in tpch_batch]
        log = engine_x.execute_order(
            tpch_batch, order, RunningParameters(1, 64), num_connections=len(tpch_batch), round_id=0
        )
        slowdowns = [r.execution_time / isolated[r.query_id] for r in log]
        assert np.mean(slowdowns) > 1.0

    def test_dbms_z_is_faster_than_x(self, tpch_batch, engine_x, engine_z):
        order = [q.query_id for q in tpch_batch]
        x_makespan = engine_x.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=6, round_id=0).makespan
        z_makespan = engine_z.execute_order(tpch_batch, order, RunningParameters(1, 64), num_connections=6, round_id=0).makespan
        assert z_makespan < x_makespan

    def test_collect_logs_round_count(self, tpch_batch, engine_x):
        orders = [[q.query_id for q in tpch_batch] for _ in range(3)]
        log = engine_x.collect_logs(tpch_batch, orders, RunningParameters(1, 64), num_connections=4)
        assert len(log) == 3
        assert len(log.all_records()) == 3 * len(tpch_batch)


class TestLogs:
    def _record(self, query_id, start, end, connection=0, params=RunningParameters(1, 64)):
        return QueryExecutionRecord(
            query_id=query_id, query_name=f"q{query_id}", template_id=query_id,
            connection=connection, parameters=params, submit_time=start, finish_time=end,
        )

    def test_record_validation(self):
        with pytest.raises(ValueError):
            self._record(0, 5.0, 1.0)

    def test_overlap_computation(self):
        a = self._record(0, 0.0, 10.0)
        b = self._record(1, 5.0, 15.0)
        c = self._record(2, 12.0, 20.0)
        assert overlap(a, b) == pytest.approx(5.0)
        assert overlap(b, a) == pytest.approx(5.0)
        assert overlap(a, c) == 0.0

    def test_round_log_makespan(self):
        round_log = RoundLog(round_id=0)
        round_log.add(self._record(0, 0.0, 4.0))
        round_log.add(self._record(1, 1.0, 9.0))
        assert round_log.makespan == pytest.approx(9.0)

    def test_concurrency_snapshots_targets(self):
        round_log = RoundLog(round_id=0)
        round_log.add(self._record(0, 0.0, 10.0))
        round_log.add(self._record(1, 2.0, 6.0, connection=1))
        snapshots = round_log.concurrency_snapshots()
        # snapshot at t=2 sees both queries running; query 1 finishes first
        last = snapshots[-1]
        assert set(last.running_query_ids) == {0, 1}
        assert last.running_query_ids[last.earliest_index] == 1
        assert last.earliest_remaining == pytest.approx(4.0)

    def test_execution_log_aggregations(self):
        log = ExecutionLog()
        for round_id in range(2):
            round_log = RoundLog(round_id=round_id)
            round_log.add(self._record(0, 0.0, 4.0 + round_id))
            round_log.add(self._record(1, 1.0, 3.0, connection=1, params=RunningParameters(2, 64)))
            log.add_round(round_log)
        averages = log.average_execution_times()
        assert averages[0] == pytest.approx(4.5)
        knowledge = ExternalKnowledge(config_space=ConfigurationSpace())
        knowledge.update_from_log(log)
        assert knowledge.config_times[1] == {2: pytest.approx(2.0)}  # index 2 is RunningParameters(2, 64)
        assert (0, 1) in grouped_overlaps(log)
        assert log.makespans() == [pytest.approx(4.0), pytest.approx(5.0)]

    def test_execution_log_extend(self):
        log_a, log_b = ExecutionLog(), ExecutionLog()
        round_log = RoundLog(round_id=0)
        round_log.add(self._record(0, 0.0, 1.0))
        log_b.add_round(round_log)
        log_a.extend(log_b)
        assert len(log_a) == 1
