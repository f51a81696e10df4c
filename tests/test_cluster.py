"""Tests for heterogeneous cluster scheduling: dbms, runtime, env, baselines."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, LSchedScheduler, make_workload
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    FIFOScheduler,
    GreedyCostPlacementScheduler,
    LeastOutstandingWorkScheduler,
    MCFScheduler,
    RandomScheduler,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
    VectorSchedulingEnv,
)
from repro.dbms import Cluster, ConfigurationSpace, INSTANCE_FEATURE_DIM
from repro.dbms.engine import CompletionEvent
from repro.exceptions import ConfigurationError, SchedulingError
from repro.runtime import ExecutionRuntime
from repro.workloads import PoissonArrivals
from snapshot_oracle import to_snapshot

# Same pre-refactor digests as tests/test_runtime.py (commit 5173d00): the
# num_instances=1 cluster path must reproduce the single-engine tree
# bit-for-bit — per-round noise, connection allocation, submit/finish floats.
_PRE_REFACTOR_DIGESTS = {
    ("FIFO", 0): "0b624001a42f4fca04ac3d0e35cba535f3577af4bf95f48380249474d9d37a9a",
    ("MCF", 1): "94765968bbc02a8497ef4d71b9497f499ff39c286d473f9fd642166168001073",
    ("Random", 2): "53fc6f72815f3e4cfc181557a35a0f180209465b6467be0eed077ba88f922b8a",
}


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


def _cluster_env(cluster, num_connections=4, mask=None, arrivals=None):
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = num_connections
    space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(cluster, batch, space)
    return SchedulingEnv(
        batch=batch,
        backend=cluster,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=mask if mask is not None else AdaptiveMask.unmasked(len(batch), len(space)),
        arrivals=arrivals,
    )


@pytest.fixture()
def hetero_cluster():
    return Cluster.from_names(["x", "y", "z"], seed=0)


class TestSingleInstanceDigest:
    def test_one_instance_cluster_matches_pre_refactor_tree(self):
        """The tentpole acceptance bar: num_instances=1 is bit-for-bit pinned."""
        cluster = Cluster([DatabaseEngine(DBMSProfile.dbms_x(), seed=0)])
        env = _cluster_env(cluster, num_connections=4)
        schedulers = {
            ("FIFO", 0): FIFOScheduler(),
            ("MCF", 1): MCFScheduler(),
            ("Random", 2): RandomScheduler(seed=7),
        }
        for (name, round_id), scheduler in schedulers.items():
            result = scheduler.run_round(env, round_id=round_id)
            assert _digest(result.round_log) == _PRE_REFACTOR_DIGESTS[(name, round_id)], name

    def test_one_instance_cluster_equals_direct_engine(self):
        cluster = Cluster([DatabaseEngine(DBMSProfile.dbms_x(), seed=0)])
        env = _cluster_env(cluster, num_connections=4)
        result = FIFOScheduler().run_round(env, round_id=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        direct = engine.execute_order(
            env.batch,
            [q.query_id for q in env.batch],
            env.config_space.default,
            num_connections=4,
            round_id=0,
        )
        assert _digest(direct) == _digest(result.round_log)


class TestClusterSession:
    def test_construction_and_topology(self, hetero_cluster):
        assert hetero_cluster.num_instances == 3
        assert [p.name for p in hetero_cluster.profiles] == ["DBMS-X", "DBMS-Y", "DBMS-Z"]
        factors = hetero_cluster.speed_factors()
        assert len(factors) == 3
        assert factors[2] > factors[0]  # DBMS-Z is the fastest profile
        assert np.isclose(np.mean(factors), 1.0)
        with pytest.raises(ConfigurationError):
            Cluster([])
        with pytest.raises(ConfigurationError):
            Cluster.homogeneous(DBMSProfile.dbms_x(), 0)

    def test_per_instance_seeds_differ(self, hetero_cluster):
        seeds = {engine.seed for engine in hetero_cluster.engines}
        assert len(seeds) == 3

    def test_placement_and_global_connections(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        session = hetero_cluster.new_session(batch, num_connections=2, round_id=0)
        assert session.num_connections == 6  # per-instance connections, globalised
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        c0 = session.submit(0, space[0], instance=0)
        c1 = session.submit(1, space[0], instance=2)
        assert 0 <= c0 < 2 and 4 <= c1 < 6
        assert session.instance_of(0) == 0 and session.instance_of(1) == 2
        assert session.instance_of(5) == -1
        assert session.num_running == 2
        assert sorted(session.idle_instances()) == [0, 1, 2]
        # saturate instance 0
        session.submit(2, space[0], instance=0)
        assert sorted(session.idle_instances()) == [1, 2]
        with pytest.raises(SchedulingError):
            session.submit(3, space[0], instance=0)
        with pytest.raises(SchedulingError):
            session.submit(3, space[0], instance=9)
        with pytest.raises(SchedulingError):
            session.submit(0, space[0], instance=1)  # already running

    def test_unified_clock_and_merged_log(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        session = hetero_cluster.new_session(batch, num_connections=2, round_id=0)
        order = [q.query_id for q in batch]
        cursor = 0
        last = 0.0
        while not session.is_done:
            while order and session.has_idle_connection:
                idle = session.idle_instances()
                instance = next(i for i in [cursor % 3, (cursor + 1) % 3, (cursor + 2) % 3] if i in idle)
                session.submit(order.pop(0), space[0], instance=instance)
                cursor += 1
            event = session.advance()
            assert event.finish_time >= last
            last = event.finish_time
            # instance clocks never run ahead of the unified logical clock
            for inst in session.instances:
                assert inst.current_time <= session.current_time + 1e-12
        assert len(session.log) == len(batch)
        assert len(session.finished) == len(batch)
        # every instance executed at least one query on this fleet
        placements = {session.instance_of(q.query_id) for q in batch}
        assert placements == {0, 1, 2}
        # per-instance buffer pools warmed independently
        fills = [inst.buffer.used_rows for inst in session.instances]
        assert all(fill > 0 for fill in fills)

    def test_buffered_tie_events_drain_in_instance_order(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        session = hetero_cluster.new_session(batch, num_connections=2, round_id=0)
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        # Simulate two completions that tied with an earlier winning instant:
        # they must drain before the clock moves, lowest instance first.
        for instance, qid in ((2, 1), (1, 0)):
            event = CompletionEvent(
                query_id=qid, finish_time=session.current_time, connection=0, instance=instance
            )
            session._instance_events[instance].append((event, _fake_record(batch, qid)))
        assert session.num_running == 2  # undelivered completions count as in flight
        first = session.advance()
        second = session.advance()
        assert first.instance == 1 and second.instance == 2
        assert session.current_time == 0.0  # buffered events never move the clock

    def test_end_of_round_cross_instance_tie_is_not_dropped(self):
        """A tied completion buffered at round end must still be delivered.

        Regression: ``is_done`` used to ignore the tie buffers, so the round
        could report done with the tied query missing from finished/log."""
        profile = replace(DBMSProfile.dbms_x(), noise=0.0)
        cluster = Cluster.from_profiles([profile, profile], seed=0)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        session = cluster.new_session(batch, num_connections=1, round_id=0)
        session.pending = [0, 1]  # shrink the round to the two tied queries
        session.submit(0, space[0], instance=0)
        session.submit(1, space[0], instance=1)
        s0, s1 = session.instances
        target = s0.next_completion_time()
        # equalise instance 1's remaining work so both finish at one instant
        rate = s1._progress_rates()[1]
        s1.running[1].remaining_work = rate * (target - s1.current_time)
        if s1.next_completion_time() != target:  # float round-trip guard
            s0.running[0].remaining_work = s0._progress_rates()[0] * (
                s1.next_completion_time() - s0.current_time
            )
            target = s1.next_completion_time()
        assert s0.next_completion_time() == s1.next_completion_time() == target
        first = session.advance()
        assert first.finish_time == target
        assert not session.is_done, "tied completion still buffered: round is not done"
        assert session.num_running == 1
        second = session.advance()
        assert second.finish_time == target and second.instance != first.instance
        assert session.is_done
        assert sorted(session.finished) == [0, 1]
        assert sorted(record.query_id for record in session.log.records) == [0, 1]
        assert session.makespan == target

    def test_tied_completion_stays_visible_until_delivered(self):
        """A buffered tied completion must not resurface as PENDING.

        Regression: between delivering the tie winner and draining the
        buffer, the tied query was in no running/finished view, so env
        snapshots reported it pending-and-available and placement baselines
        crashed re-submitting it."""
        profile = replace(DBMSProfile.dbms_x(), noise=0.0)
        cluster = Cluster.from_profiles([profile, profile], seed=0)
        env = _cluster_env(cluster, num_connections=1)
        env.reset(round_id=0)
        env.begin_step(env.encode_placement(0, 0, 0))
        env.begin_step(env.encode_placement(1, 1, 0))
        shared = env.runtime.shared_session
        s0, s1 = shared.instances
        target = s0.next_completion_time()
        s1.running[1].remaining_work = s1._progress_rates()[1] * (target - s1.current_time)
        if s1.next_completion_time() != target:
            target = s1.next_completion_time()
            s0.running[0].remaining_work = s0._progress_rates()[0] * (target - s0.current_time)
        assert s0.next_completion_time() == s1.next_completion_time() == target
        env.session.advance()  # delivers the tie winner, buffers the peer
        snapshot = env.snapshot()
        statuses = {info.query_id: info.status.value for info in to_snapshot(snapshot).infos[:2]}
        assert "pending" not in statuses.values(), statuses
        assert 0 not in snapshot.pending_ids and 1 not in snapshot.pending_ids
        # the round must still drain cleanly under a FIFO placement baseline
        scheduler = RoundRobinPlacementScheduler()
        scheduler.on_round_start(env)
        while not env.session.is_done:
            while env.can_decide():
                env.begin_step(scheduler.select_action(env, env.snapshot()))
            if not env.session.is_done:
                env.session.advance()
        assert len(env.result().round_log) == len(env.batch)

    def test_same_instance_double_tie_keeps_records_aligned(self):
        """Two ties from one instance must carry their own execution records.

        Regression: the drain path used to read the instance's *last* log
        record for every buffered event, duplicating one query's record and
        losing the other's."""
        profile = replace(DBMSProfile.dbms_x(), noise=0.0)
        cluster = Cluster.from_profiles([profile, profile], seed=0)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        session = cluster.new_session(batch, num_connections=2, round_id=0)
        session.pending = [0, 1, 2]
        session.submit(0, space[0], instance=0)
        session.submit(1, space[0], instance=1)
        session.submit(2, space[0], instance=1)
        s0, s1 = session.instances
        target = s0.next_completion_time()
        rates = s1._progress_rates()
        for qid in (1, 2):
            s1.running[qid].remaining_work = rates[qid] * (target - s1.current_time)
        if s1.next_completion_time() != target:
            target = s1.next_completion_time()
            s0.running[0].remaining_work = s0._progress_rates()[0] * (target - s0.current_time)
        assert s0.next_completion_time() == target
        events = [session.advance() for _ in range(3)]
        assert [event.finish_time for event in events] == [target] * 3
        assert sorted(event.query_id for event in events) == [0, 1, 2]
        by_query = {record.query_id: record for record in session.log.records}
        assert sorted(by_query) == [0, 1, 2], "every tied query keeps its own record"
        for event in events:
            assert by_query[event.query_id].finish_time == event.finish_time
            globalised = by_query[event.query_id].connection
            assert globalised == event.connection
        assert session.is_done

    def test_advance_with_nothing_running(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        session = hetero_cluster.new_session(batch, num_connections=2, round_id=0)
        with pytest.raises(Exception):
            session.advance()
        assert session.advance(limit=3.0) is None
        assert session.current_time == 3.0
        for inst in session.instances:
            assert inst.current_time == 3.0

    def test_heterogeneous_speed_shows_in_finish_times(self):
        """The same query finishes faster on a faster instance."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        slow = replace(DBMSProfile.dbms_x(), name="slow", speed=0.5, noise=0.0)
        fast = replace(DBMSProfile.dbms_x(), name="fast", speed=2.0, noise=0.0)
        cluster = Cluster.from_profiles([slow, fast], seed=0)
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        times = {}
        for instance in (0, 1):
            session = cluster.new_session(batch, num_connections=2, round_id=0)
            session.submit(0, space[0], instance=instance)
            times[instance] = session.advance().finish_time
        assert times[1] < times[0]
        assert times[0] / times[1] == pytest.approx(4.0, rel=0.05)


def _fake_record(batch, qid):
    from repro.dbms.logs import QueryExecutionRecord
    from repro.dbms.params import RunningParameters

    return QueryExecutionRecord(
        query_id=qid,
        query_name=batch[qid].name,
        template_id=batch[qid].template_id,
        connection=0,
        parameters=RunningParameters(workers=1, memory_mb=64),
        submit_time=0.0,
        finish_time=0.0,
    )


class TestClusterEnv:
    def test_action_space_layout(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        R = env.num_configs
        assert env.configs_per_slot == 3 * R
        assert env.action_dim == len(env.batch) * 3 * R
        action = env.encode_placement(5, 2, 1)
        assert env.decode_placement(action) == (5, 2, 1)
        slot, joint = env.decode_action(action)
        assert slot == 5 and joint == 2 * R + 1
        with pytest.raises(SchedulingError):
            env.encode_placement(0, 3, 0)
        with pytest.raises(SchedulingError):
            env.encode_placement(0, 0, R)

    def test_mask_excludes_saturated_instances(self, hetero_cluster):
        env = _cluster_env(hetero_cluster, num_connections=1)
        env.reset(round_id=0)
        R = env.num_configs
        mask = env.action_mask().reshape(len(env.batch), 3, R)
        assert mask.any(axis=(0, 2)).all()  # all instances initially available
        env.step(env.encode_placement(0, 1, 0))
        mask = env.action_mask().reshape(len(env.batch), 3, R)
        assert not mask[:, 1, :].any()  # instance 1 saturated (1 connection)
        assert mask[:, 0, :].any() and mask[:, 2, :].any()
        # running/finished queries are masked everywhere
        assert not mask[0].any()

    def test_snapshot_carries_placement_and_context(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        env.reset(round_id=0)
        R = env.num_configs
        env.step(env.encode_placement(3, 2, 1))
        snapshot = to_snapshot(env.snapshot())
        info = snapshot.infos[3]
        assert info.config_index == 2 * R + 1
        assert len(snapshot.instance_context) == 3
        assert all(len(row) == INSTANCE_FEATURE_DIM for row in snapshot.instance_context)
        busy = [row[1] for row in snapshot.instance_context]
        assert busy[2] > 0 and busy[0] == 0.0
        speeds = [row[0] for row in snapshot.instance_context]
        assert speeds[2] > speeds[0]

    def test_outstanding_work_tracks_placement(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        env.reset(round_id=0)
        env.step(env.encode_placement(0, 1, 0))
        outstanding = env.instance_outstanding_work()
        assert outstanding[1] > 0
        assert outstanding[0] == 0.0 and outstanding[2] == 0.0

    def test_placement_oblivious_heuristics_are_rejected(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        env.reset(round_id=0)
        with pytest.raises(SchedulingError):
            FIFOScheduler().select_action(env, env.snapshot())

    def test_query_cluster_mode_drains_whole_fleet(self, hetero_cluster):
        """Gain clustering now works on fleets: (cluster, instance, config) actions."""
        from repro.core import cluster_queries

        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        space = ConfigurationSpace(config.scheduler)
        knowledge = ExternalKnowledge.from_probes(hetero_cluster, batch, space)
        clusters = cluster_queries(batch, np.zeros((len(batch), len(batch))), 5, knowledge=knowledge)
        env = SchedulingEnv(
            batch=batch,
            backend=hetero_cluster,
            scheduler_config=config.scheduler,
            config_space=space,
            knowledge=knowledge,
            clusters=clusters,
        )
        R = env.num_configs
        assert env.cluster_mode
        assert env.action_dim == clusters.num_clusters * 3 * R
        env.reset(round_id=0)
        rng = np.random.default_rng(0)
        steps = 0
        while True:
            mask = env.action_mask()
            assert mask.any()
            step = env.step(int(rng.choice(np.flatnonzero(mask))))
            steps += 1
            if step.done:
                break
        assert steps == clusters.num_clusters
        result = env.result()
        assert len(result.round_log) == len(batch)
        # the drain spread members across the fleet, not one instance
        placements = {record.instance for record in result.round_log.records}
        assert len(placements) > 1
        # placement baselines pick individual queries and must refuse the
        # cluster-slot action space instead of mis-encoding query ids
        env.reset(round_id=1)
        with pytest.raises(SchedulingError, match="gain-clustered"):
            RoundRobinPlacementScheduler().select_action(env, env.snapshot())

    def test_single_engine_is_a_fleet_of_one(self):
        """On a single engine the placement API answers for one instance, and
        the placement baselines schedule exactly as their query order does."""
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        env = _cluster_env(engine, num_connections=4)
        assert env.num_instances == 1 and env.configs_per_slot == env.num_configs
        for query_id, config_index in ((0, 0), (5, 1), (len(env.batch) - 1, env.num_configs - 1)):
            action = env.encode_placement(query_id, 0, config_index)
            assert action == env.encode_action(query_id, config_index)
            assert env.decode_placement(action) == (query_id, 0, config_index)
        with pytest.raises(SchedulingError):
            env.encode_placement(0, 1, 0)
        env.reset(round_id=0)
        assert env.available_instances() == [0]
        assert env.instance_speed_factors() == (1.0,)
        pairs = (
            (RoundRobinPlacementScheduler(), FIFOScheduler()),
            (LeastOutstandingWorkScheduler(), FIFOScheduler()),
            (GreedyCostPlacementScheduler(), MCFScheduler()),
        )
        for placement, query_order in pairs:
            for round_id in (0, 1):
                placed = placement.run_round(env, round_id=round_id)
                ordered = query_order.run_round(env, round_id=round_id)
                assert _digest(placed.round_log) == _digest(ordered.round_log), (placement.name, round_id)


class TestPlacementBaselines:
    def test_baselines_complete_rounds_and_order_sensibly(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        makespans = {}
        for scheduler in (
            RoundRobinPlacementScheduler(),
            LeastOutstandingWorkScheduler(),
            GreedyCostPlacementScheduler(),
        ):
            result = scheduler.run_round(env, round_id=0)
            assert len(result.round_log) == len(env.batch)
            makespans[scheduler.name] = result.makespan
        # the speed/load-aware heuristic should not lose to blind rotation
        assert makespans["GreedyCost-placement"] <= makespans["RR-placement"]

    def test_round_robin_rotates(self, hetero_cluster):
        env = _cluster_env(hetero_cluster)
        env.reset(round_id=0)
        scheduler = RoundRobinPlacementScheduler()
        scheduler.on_round_start(env)
        instances = []
        for _ in range(3):
            action = scheduler.select_action(env, env.snapshot())
            _, instance, _ = env.decode_placement(action)
            instances.append(instance)
            env.begin_step(action)
        assert instances == [0, 1, 2]

    def test_execute_order_round_robin_covers_fleet(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        log = hetero_cluster.execute_order(
            batch, [q.query_id for q in batch], space.default, num_connections=2, round_id=0
        )
        assert len(log) == len(batch)
        connections = {r.connection for r in log}
        assert connections & {0, 1} and connections & {2, 3} and connections & {4, 5}


class TestClusterRuntime:
    def test_two_tenants_share_a_heterogeneous_fleet(self, hetero_cluster):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        space = ConfigurationSpace(config.scheduler)
        knowledge = ExternalKnowledge.from_probes(hetero_cluster, batch, space)
        runtime = ExecutionRuntime(hetero_cluster)
        tenants = [
            runtime.register("a", batch),
            runtime.register("b", batch, arrivals=PoissonArrivals(rate=4.0)),
        ]
        envs = [
            SchedulingEnv(
                batch=batch,
                backend=tenant,
                scheduler_config=config.scheduler,
                config_space=space,
                knowledge=knowledge,
                mask=AdaptiveMask.unmasked(len(batch), len(space)),
            )
            for tenant in tenants
        ]
        for env in envs:
            env.reset(round_id=0)
        scheduler = RoundRobinPlacementScheduler()
        while True:
            progressed = True
            while progressed:
                progressed = False
                for env in envs:
                    while env.can_decide():
                        env.begin_step(scheduler.select_action(env, env.snapshot()))
                        progressed = True
            if runtime.is_done:
                break
            runtime.advance()
        sessions = runtime.sessions()
        for session in sessions.values():
            assert session.is_done
            assert len(session.finished) == len(batch)
            assert session.num_instances == 3
        # both tenants' queries spread across the fleet
        for name in ("a", "b"):
            session = sessions[name]
            placements = {session.instance_of(q.query_id) for q in batch}
            assert placements == {0, 1, 2}
        shared_log = runtime.shared_session.log
        assert len(shared_log) == 2 * len(batch)

    def test_outstanding_work_sees_other_tenants_load(self):
        """LOW placement must not steer into instances peers have saturated.

        Regression: outstanding work used to count only the calling tenant's
        queries, so an instance fully loaded by another tenant looked idle."""
        fleet = Cluster.from_names(["x", "x"], seed=0)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        space = ConfigurationSpace(config.scheduler)
        knowledge = ExternalKnowledge.from_probes(fleet, batch, space)
        runtime = ExecutionRuntime(fleet)
        tenants = [runtime.register("a", batch), runtime.register("b", batch)]
        envs = [
            SchedulingEnv(
                batch=batch,
                backend=tenant,
                scheduler_config=config.scheduler,
                config_space=space,
                knowledge=knowledge,
                mask=AdaptiveMask.unmasked(len(batch), len(space)),
            )
            for tenant in tenants
        ]
        for env in envs:
            env.reset(round_id=0)
        env_a, env_b = envs
        # tenant A saturates instance 0; tenant B has nothing running
        env_a.begin_step(env_a.encode_placement(0, 0, 0))
        env_a.begin_step(env_a.encode_placement(1, 0, 0))
        outstanding_b = env_b.instance_outstanding_work()
        assert outstanding_b[0] > 0, "tenant B must see tenant A's load on instance 0"
        assert outstanding_b[1] == 0.0
        scheduler = LeastOutstandingWorkScheduler()
        _, instance, _ = env_b.decode_placement(scheduler.select_action(env_b, env_b.snapshot()))
        assert instance == 1

    def test_tenant_rejects_placement_on_single_backend(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        runtime = ExecutionRuntime(engine)
        tenant = runtime.register("solo", batch)
        session = tenant.new_session(batch, num_connections=4, round_id=0)
        space = ConfigurationSpace(BQSchedConfig.small().scheduler)
        assert session.num_instances == 1
        assert session.instance_context().shape == (1, INSTANCE_FEATURE_DIM)
        assert session.speed_factors() == (1.0,)
        with pytest.raises(SchedulingError):
            session.submit(0, space[0], instance=2)
        session.submit(0, space[0], instance=0)
        assert session.instance_of(0) == 0


class TestClusterFacade:
    @pytest.fixture(scope="class")
    def trained(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        cluster = Cluster.from_names(["x", "y", "z"], seed=0)
        scheduler = LSchedScheduler(workload, cluster, config)
        scheduler.train(num_updates=1, history_rounds=1)
        return scheduler

    def test_facade_wires_cluster_dimensions(self, trained):
        assert trained.num_instances == 3
        assert trained.policy.num_configs == 3 * len(trained.config_space)
        assert trained.env.num_instances == 3
        assert trained.env.action_dim == len(trained.batch) * trained.policy.num_configs
        assert trained.use_simulator is False and trained.use_clustering is False

    def test_policy_schedules_and_serves(self, trained):
        result = trained.schedule(round_id=123)
        assert len(result.round_log) == len(trained.batch)
        report = trained.serve(num_tenants=2, arrivals="poisson")
        assert len(report.tenants) == 2
        for tenant in report.tenants:
            assert tenant.num_queries == len(trained.batch)

    def test_vectorized_training_on_cluster(self, trained):
        vec = VectorSchedulingEnv.from_template(trained.env, 2)
        assert all(env.num_instances == 3 for env in vec.envs)
        snaps = [vec.reset_at(index, round_id=300 + index) for index in range(2)]
        masks = vec.masks_for()
        assert masks.shape == (2, trained.env.action_dim)
        decisions = trained.policy.act_batch(
            trained.plan_embeddings, snaps, masks, np.random.default_rng(0)
        )
        steps = vec.step_many([0, 1], [d.action for d in decisions])
        assert len(steps) == 2

    def test_evaluate_on_skewed_fleet(self, trained):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        skewed = Cluster.from_names(["x", "x", "y"], seed=1)
        evaluation = trained.evaluate_on(workload, skewed, rounds=1)
        assert evaluation.mean > 0

    def test_evaluate_on_wrong_instance_count_raises(self, trained):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        two = Cluster.from_names(["x", "y"], seed=0)
        with pytest.raises(SchedulingError):
            trained.evaluate_on(workload, two, rounds=1)

    def test_evaluate_on_rejects_non_probe_backends(self, trained):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        runtime = ExecutionRuntime(Cluster.from_names(["x", "y", "z"], seed=0))
        tenant = runtime.register("t", batch)
        with pytest.raises(SchedulingError, match="probe-capable"):
            trained.evaluate_on(workload, tenant, rounds=1)

    def test_cluster_instance_count_resolves_through_tenants(self):
        from repro.core import cluster_instance_count

        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        fleet = Cluster.from_names(["x", "y"], seed=0)
        tenant = ExecutionRuntime(fleet).register("t", batch)
        assert cluster_instance_count(fleet) == 2
        assert cluster_instance_count(tenant) == 2
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        assert cluster_instance_count(engine) is None
        assert cluster_instance_count(ExecutionRuntime(engine).register("t", batch)) is None


class TestFactoredMaskingEdgeCases:
    """Satellite: the factored mask must never yield an all-masked state."""

    def _assert_decidable_mask_nonempty(self, env, scheduler):
        """Drive a full round asserting mask-validity at every decision point."""
        env.reset(round_id=0)
        scheduler.on_round_start(env)
        steps = 0
        while not env.session.is_done:
            while env.can_decide():
                mask = env.action_mask()
                assert mask.any(), "can_decide() implied an all-masked action space"
                action = scheduler.select_action(env, env.snapshot())
                assert mask[action], "baseline picked a masked action"
                env.begin_step(action)
                steps += 1
            if not env.session.is_done:
                assert not env.action_mask().any() or not env.can_decide()
                env.session.advance()
        assert steps == len(env.batch)

    def test_all_instances_saturated_is_not_a_decision_state(self):
        cluster = Cluster.from_names(["x", "y"], seed=0)
        env = _cluster_env(cluster, num_connections=1)
        env.reset(round_id=0)
        env.step(env.encode_placement(0, 0, 0))
        # step() auto-advanced past full saturation or left a decidable state
        assert env.can_decide() == env.action_mask().any()
        env2 = _cluster_env(cluster, num_connections=1)
        env2.reset(round_id=0)
        env2.begin_step(env2.encode_placement(0, 0, 0))
        env2.begin_step(env2.encode_placement(1, 1, 0))
        # both single-connection instances saturated: no decision possible,
        # the mask is all-False and can_decide agrees (no NaN-softmax state)
        assert not env2.can_decide()
        assert not env2.action_mask().any()
        assert env2.needs_advance()

    def test_single_connection_instance_round_completes(self):
        cluster = Cluster.from_profiles(
            [DBMSProfile.dbms_x(), replace(DBMSProfile.dbms_x(), name="tiny", default_connections=1)],
            seed=0,
        )
        # num_connections=None: instance 1 runs with its single default connection
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        space = ConfigurationSpace(config.scheduler)
        knowledge = ExternalKnowledge.from_probes(cluster, batch, space)
        session = cluster.new_session(batch, num_connections=None, round_id=0)
        assert session.instances[1].num_connections == 1
        env = _cluster_env(cluster, num_connections=1)
        self._assert_decidable_mask_nonempty(env, RoundRobinPlacementScheduler())
        assert knowledge.average_time(0) > 0

    def test_heavily_masked_queries_keep_one_config_per_instance(self):
        cluster = Cluster.from_names(["x", "y"], seed=0)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        space = ConfigurationSpace(config.scheduler)
        # adaptive mask that pins every query to exactly one configuration
        mask = AdaptiveMask(
            num_queries=len(batch),
            num_configs=len(space),
            allowed={q.query_id: [0] for q in batch},
        )
        env = _cluster_env(cluster, num_connections=2, mask=mask)
        self._assert_decidable_mask_nonempty(env, LeastOutstandingWorkScheduler())

    def test_zero_eligible_queries_masks_everything_but_stays_consistent(self):
        """An open stream where nothing has arrived: no decision, no NaN state."""
        cluster = Cluster.from_names(["x", "y"], seed=0)
        env = _cluster_env(
            cluster,
            num_connections=2,
            arrivals=[0.0] + [5.0] * 21,  # one query now, the rest much later
        )
        snapshot = env.reset(round_id=0)
        assert snapshot.pending_ids == [0]
        mask = env.action_mask().reshape(len(env.batch), 2, env.num_configs)
        assert mask[0].any() and not mask[1:].any()
        env.begin_step(env.encode_placement(0, 0, 0))
        # sole arrived query is running: zero eligible queries on every
        # instance → all-masked is consistent with can_decide() == False
        assert not env.can_decide()
        assert not env.action_mask().any()
        result = GreedyCostPlacementScheduler().run_round(env, round_id=1)
        assert len(result.round_log) == len(env.batch)
