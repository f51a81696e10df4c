"""Tests for the unified performance-model layer (repro.perf).

Covers the feature pipeline, the prediction-model fastpath parity
(bit-for-bit), the cluster-capable PerformanceModel, the SimulatedCluster
session protocol — including the digest-pinned ``num_instances=1`` path —
and the facade integration (fleet pre-training, gain clustering on fleets,
per-instance online ingestion).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import BQSched, BQSchedConfig, Cluster, DatabaseEngine, DBMSProfile, make_workload
from repro.config import PPOConfig, SimulatorConfig
from repro.core import (
    AdaptiveMask,
    ExternalKnowledge,
    FIFOScheduler,
    GreedyCostPlacementScheduler,
    MCFScheduler,
    RandomScheduler,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
    cluster_instance_count,
)
from repro.exceptions import SimulationError
from repro.nn import no_grad
from repro.perf import (
    ConcurrentPredictionModel,
    PerformanceEstimator,
    PerformanceFeaturizer,
    PerformanceModel,
    SimulatedCluster,
)
from repro.runtime import ExecutionRuntime
from simulator_oracle import tape_forward

# Digests of the single-engine simulator tree, pinned while it was a class of
# its own: a one-instance SimulatedCluster must reproduce it bit-for-bit through
# either environment — same model weights,
# same features, same predicted completions, same connection allocation,
# same float arithmetic on the clock.  Re-pinned when ``PerformanceModel.fit``
# became the fused per-example step (the commit 117efd6 pins were tape-fitted
# weights; the fused kernels differ from the tape at rounding level).  Re-pinned
# again when a simulated submission started taking the lowest idle connection
# (it used to reuse a busy one); the digests without the connection field did
# not move.
_SINGLE_ENGINE_SIM_DIGESTS = {
    ("FIFO", 0): "8ed64845fe15c7ee406725a588222320efdc046b9e2e8ef1d6358652628f35f9",
    ("MCF", 1): "3ba00840c9ae85786775dc5b90372da85a409f781d7351223300219b65a6f5a2",
    ("Random", 2): "a0bb49e4038d9dfbe66cf729586dbaac660bfbeab7decd6a512e6e3401818a99",
}


def _digest(round_log) -> str:
    sha = hashlib.sha256()
    for r in round_log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|{r.parameters.memory_mb}|"
            f"{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


def _orders(batch, count, start_seed=0):
    base = [q.query_id for q in batch]
    orders = []
    for seed in range(start_seed, start_seed + count):
        order = list(base)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    return orders


@pytest.fixture(scope="module")
def plan_embeddings(tpch_workload, tpch_batch, small_config):
    from repro.encoder import PlanEmbeddingCache, QueryFormer
    from repro.plans import PlanFeaturizer

    queryformer = QueryFormer(
        PlanFeaturizer(tpch_workload.catalog), small_config.encoder, np.random.default_rng(0)
    )
    return PlanEmbeddingCache(queryformer).embeddings_for(tpch_batch)


@pytest.fixture(scope="module")
def probe_knowledge(engine_x, tpch_batch, config_space):
    """Fresh probe-derived knowledge: the session-scoped ``tpch_knowledge``
    fixture is mutated by other test modules, and the digest pins below
    depend on the exact expected-time features."""
    return ExternalKnowledge.from_probes(engine_x, tpch_batch, config_space)


@pytest.fixture(scope="module")
def history_log(tpch_batch, engine_x, config_space):
    return engine_x.collect_logs(tpch_batch, _orders(tpch_batch, 3), config_space.default, num_connections=4)


@pytest.fixture(scope="module")
def hetero_fleet():
    return Cluster.from_names(["x", "y", "z"], seed=0)


@pytest.fixture(scope="module")
def fleet_knowledge(hetero_fleet, tpch_batch, config_space):
    return ExternalKnowledge.from_probes(hetero_fleet, tpch_batch, config_space)


@pytest.fixture(scope="module")
def fleet_log(hetero_fleet, tpch_batch, config_space):
    return hetero_fleet.collect_logs(tpch_batch, _orders(tpch_batch, 3), config_space.default, num_connections=2)


@pytest.fixture(scope="module")
def fleet_perf(hetero_fleet, tpch_batch, plan_embeddings, fleet_knowledge, config_space, fleet_log):
    perf = PerformanceModel(
        batch=tpch_batch,
        plan_embeddings=plan_embeddings,
        knowledge=fleet_knowledge,
        config_space=config_space,
        config=SimulatorConfig(hidden_dim=24, epochs=3),
        seed=0,
        instance_speeds=hetero_fleet.speed_factors(),
    )
    perf.train_from_log(fleet_log)
    return perf


# --------------------------------------------------------------------- #
# Feature pipeline
# --------------------------------------------------------------------- #
class TestPerformanceFeaturizer:
    def test_single_engine_rows_match_legacy_layout(
        self, tpch_batch, plan_embeddings, probe_knowledge, config_space
    ):
        """Bit-for-bit the historical single-engine simulator feature formula."""
        featurizer = PerformanceFeaturizer(plan_embeddings, config_space, probe_knowledge)
        query_ids = [0, 3, 7]
        params = [config_space[1]] * 3
        elapsed = [0.0, 0.4, 2.5]
        rows = featurizer.rows(query_ids, params, elapsed)
        expected = []
        for query_id, p, e in zip(query_ids, params, elapsed):
            config_index = config_space.index_of(p)
            onehot = np.zeros(len(config_space))
            onehot[config_index] = 1.0
            expected.append(
                np.concatenate(
                    [
                        plan_embeddings[query_id],
                        onehot,
                        [np.tanh(e / 10.0), np.tanh(probe_knowledge.expected_time(query_id, config_index) / 10.0)],
                    ]
                )
            )
        np.testing.assert_array_equal(rows, np.stack(expected, axis=0))
        assert featurizer.instance_channel_dim == 0
        assert featurizer.feature_dim == plan_embeddings.shape[1] + len(config_space) + 2
        assert featurizer.elapsed_column == plan_embeddings.shape[1] + len(config_space)
        with pytest.raises(SimulationError):
            featurizer.concurrency_column

    def test_fleet_rows_carry_instance_channel(
        self, tpch_batch, plan_embeddings, probe_knowledge, config_space
    ):
        speeds = (0.5, 1.0, 1.5)
        featurizer = PerformanceFeaturizer(plan_embeddings, config_space, probe_knowledge, instance_speeds=speeds)
        assert featurizer.instance_channel_dim == 2
        assert featurizer.num_instances == 3
        rows = featurizer.rows([0, 1], [config_space[0]] * 2, [0.0, 1.0], instance=2)
        assert rows.shape == (2, featurizer.feature_dim)
        np.testing.assert_allclose(rows[:, -2], speeds[2])
        np.testing.assert_allclose(rows[:, -1], np.tanh(2 / 8.0))
        # dynamic rewrite refreshes elapsed and concurrency in place
        featurizer.rewrite_dynamic_columns(rows, np.array([3.0, 4.0]))
        np.testing.assert_allclose(rows[:, featurizer.elapsed_column], np.tanh(np.array([3.0, 4.0]) / 10.0))
        with pytest.raises(SimulationError):
            featurizer.speed_of(3)

    def test_estimator_protocol(self, probe_knowledge):
        assert isinstance(probe_knowledge, PerformanceEstimator)


# --------------------------------------------------------------------- #
# Fastpath parity (satellite): predict over rows and over stacks vs the tape
# --------------------------------------------------------------------- #
class TestPredictionParity:
    @pytest.mark.parametrize("use_attention", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_predict_and_batched_bit_identical_to_forward(self, use_attention, k):
        rng = np.random.default_rng(3)
        model = ConcurrentPredictionModel(feature_dim=11, hidden_dim=16, rng=rng, use_attention=use_attention)
        features = np.random.default_rng(5).normal(size=(k, 11))
        with no_grad():
            ref_logits, ref_times = tape_forward(model, features)
        fast_logits, fast_times = model.predict(features)
        np.testing.assert_array_equal(fast_logits, ref_logits.data)
        np.testing.assert_array_equal(fast_times, ref_times.data)
        # batched over a stack of groups: every row bit-identical to the tape forward
        other = np.random.default_rng(6).normal(size=(k, 11))
        batched_logits, batched_times = model.predict(np.stack([features, other], axis=0))
        for row, group in enumerate((features, other)):
            with no_grad():
                row_logits, row_times = tape_forward(model, group)
            np.testing.assert_array_equal(batched_logits[row], row_logits.data)
            np.testing.assert_array_equal(batched_times[row], row_times.data)
        # a later predict hands out no buffer an earlier one returned
        np.testing.assert_array_equal(fast_logits, ref_logits.data)

    def test_singleton_batch_matches_predict(self):
        rng = np.random.default_rng(9)
        model = ConcurrentPredictionModel(feature_dim=7, hidden_dim=8, rng=rng)
        features = np.random.default_rng(1).normal(size=(1, 3, 7))
        logits, times = model.predict(features)
        ref_logits, ref_times = model.predict(features[0])
        assert logits.shape == times.shape == (1, 3) and ref_logits.shape == ref_times.shape == (3,)
        np.testing.assert_array_equal(logits[0], ref_logits)
        np.testing.assert_array_equal(times[0], ref_times)

    def test_a_later_predict_hands_out_no_earlier_result(self):
        """Each call runs a fresh arena, so returned rows survive the next call of the same shape."""
        model = ConcurrentPredictionModel(feature_dim=7, hidden_dim=8, rng=np.random.default_rng(3))
        draw = np.random.default_rng(4)
        for shape in ((4, 7), (2, 4, 7)):
            first = model.predict(draw.normal(size=shape))
            kept = [array.copy() for array in first]
            second = model.predict(draw.normal(size=shape))
            for array, copy, later in zip(first, kept, second):
                assert array.shape == shape[:-1] and not np.shares_memory(array, later)
                np.testing.assert_array_equal(array, copy)


# --------------------------------------------------------------------- #
# PerformanceModel on fleets
# --------------------------------------------------------------------- #
class TestPerformanceModel:
    def test_per_instance_examples_from_tagged_logs(self, fleet_perf, fleet_log):
        assert fleet_perf.per_instance and fleet_perf.num_instances == 3
        examples = fleet_perf.examples_from_log(fleet_log)
        instances = {example.instance for example in examples}
        assert instances == {0, 1, 2}
        # every example's rows carry that instance's speed in the channel
        speeds = fleet_perf.featurizer.instance_speeds
        for example in examples:
            np.testing.assert_allclose(example.features[:, -2], speeds[example.instance])

    def test_metrics_by_instance(self, fleet_perf, fleet_log):
        metrics = fleet_perf.metrics_by_instance(fleet_log)
        assert set(metrics) == {0, 1, 2}
        assert sum(m.num_examples for m in metrics.values()) == len(fleet_perf.examples_from_log(fleet_log))
        for m in metrics.values():
            assert 0.0 <= m.accuracy <= 1.0 and np.isfinite(m.mse)

    def test_update_from_log_fine_tunes(self, fleet_perf, hetero_fleet, tpch_batch, config_space):
        online = hetero_fleet.collect_logs(
            tpch_batch, _orders(tpch_batch, 1, start_seed=50), config_space.default, num_connections=2
        )
        before = fleet_perf.model.input_proj.weight.data.copy()
        metrics = fleet_perf.update_from_log(online)
        assert metrics.num_examples > 0
        assert not np.array_equal(before, fleet_perf.model.input_proj.weight.data)

    def test_default_and_one_instance_speeds_fit_bit_identically(
        self, tpch_batch, plan_embeddings, probe_knowledge, config_space, history_log
    ):
        """A single engine's model (default speeds) is a one-instance fleet's."""
        models = [
            PerformanceModel(
                batch=tpch_batch, plan_embeddings=plan_embeddings, knowledge=probe_knowledge,
                config_space=config_space, config=SimulatorConfig(hidden_dim=24, epochs=3),
                seed=0, instance_speeds=speeds,
            )
            for speeds in ((), (1.0,))
        ]
        metrics = [model.train_from_log(history_log) for model in models]
        assert metrics[0] == metrics[1]
        for (name_a, param_a), (name_b, param_b) in zip(
            sorted(models[0].model.named_parameters()), sorted(models[1].model.named_parameters())
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(param_a.data, param_b.data)


# Fitted weights, pinned while ``PerformanceModel.fit`` was a per-example loop
# of ``Adam.step`` calls: the fit program must reproduce them bit for bit.
_FITTED_WEIGHT_DIGESTS = {
    ("engine", True, True): "ffca138d12a5e8156155972069e2b02bf66f399eb103b79baadc43144d0ce58a",
    ("engine", True, False): "6619c1ebe0979f2d2cf888a7f5e81c550e8054ec036154a0b04ac880e6b1abd4",
    ("engine", False, True): "0490b07bae709665d1a7fde4d292902bdc296004ebb2d6f8abeabea1a6beda63",
    ("engine", False, False): "a92d0f1945df3280c717661e66d83f8af7fc3f03dde7a97c28e825014c03ab05",
    ("fleet", True, True): "3f0adf2a6887b0c2daa2eb3a6d934bd9242adf6bd76753b86e7719e47dd66fe4",
    ("fleet", True, False): "d02a3a1087f03ae924d3fcd60e453c2db62cfd6cc1bc191f4aee886f1a350d4b",
    ("fleet", False, True): "6a37a7d52adc6ac131d71f4a288cec3b0e8853c14553c0a76f6d1d48c3618d9a",
    ("fleet", False, False): "466fe32669441622d38c97cad78a0f2f2bd973d6e68bee102211bf4631e22305",
}


def _state_digest(model) -> str:
    sha = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        sha.update(f"{name}{array.shape}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


class TestFittedWeightsPinned:
    """``train_from_log`` then ``update_from_log``: weights, moments and step
    count carry from the first fit into the second."""

    @pytest.mark.parametrize("use_multitask", [True, False])
    @pytest.mark.parametrize("use_attention", [True, False])
    @pytest.mark.parametrize("topology", ["engine", "fleet"])
    def test_fitted_weights_are_pinned(
        self, topology, use_attention, use_multitask, tpch_batch, plan_embeddings, config_space
    ):
        # Fresh backends: the shared fixtures' engines advance their noise streams.
        if topology == "engine":
            backend, speeds, connections = DatabaseEngine(DBMSProfile.dbms_x(), seed=0), (), 4
        else:
            backend = Cluster.from_names(["x", "y", "z"], seed=0)
            speeds, connections = backend.speed_factors(), 2
        knowledge = ExternalKnowledge.from_probes(backend, tpch_batch, config_space)
        log = backend.collect_logs(tpch_batch, _orders(tpch_batch, 3), config_space.default, num_connections=connections)
        perf = PerformanceModel(
            batch=tpch_batch, plan_embeddings=plan_embeddings, knowledge=knowledge,
            config_space=config_space,
            config=SimulatorConfig(
                hidden_dim=16, epochs=2, incremental_epochs=2,
                use_attention=use_attention, use_multitask=use_multitask,
            ),
            seed=3, instance_speeds=speeds,
        )
        perf.train_from_log(log)
        online = backend.collect_logs(
            tpch_batch, _orders(tpch_batch, 1, start_seed=60), config_space.default, num_connections=connections
        )
        perf.update_from_log(online)
        assert _state_digest(perf.model) == _FITTED_WEIGHT_DIGESTS[(topology, use_attention, use_multitask)]


class TestFitBoundary:
    """The fit's slabs stay inside a fit: no parameter aliases them afterwards,
    and ``predict`` (whose fused Q/K/V block is cached by array identity) reads
    the fitted weights, not a block concatenated before or during the fit."""

    def test_no_slab_alias_and_no_stale_fused_qkv_after_fits(
        self, tpch_batch, plan_embeddings, probe_knowledge, config_space, history_log
    ):
        perf = PerformanceModel(
            batch=tpch_batch, plan_embeddings=plan_embeddings, knowledge=probe_knowledge,
            config_space=config_space, config=SimulatorConfig(hidden_dim=16, use_attention=True), seed=0,
        )
        examples = perf.examples_from_log(history_log)
        warm, fresh = (np.random.default_rng(seed).normal(size=(3, perf.featurizer.feature_dim)) for seed in (7, 8))
        perf.model.predict(warm)  # caches the fused Q/K/V block of the initial weights
        for _ in range(2):
            perf.fit(examples, 1)
            program = perf._program
            slabs = (program._theta, program._grad, program.m, program.v)
            for name, param in perf.model.named_parameters():
                assert not any(np.shares_memory(param.data, slab) for slab in slabs), name
            logits, times = perf.model.predict(fresh)
            with no_grad():
                ref_logits, ref_times = tape_forward(perf.model, fresh)
            np.testing.assert_array_equal(logits, ref_logits.data)
            np.testing.assert_array_equal(times, ref_times.data)


# --------------------------------------------------------------------- #
# SimulatedCluster sessions
# --------------------------------------------------------------------- #
def _single_engine_sim_cluster(tpch_batch, plan_embeddings, probe_knowledge, config_space, history_log):
    """The simulator the facade builds for a single engine: a fleet of one."""
    perf = PerformanceModel(
        batch=tpch_batch, plan_embeddings=plan_embeddings, knowledge=probe_knowledge,
        config_space=config_space, config=SimulatorConfig(hidden_dim=24, epochs=3), seed=0,
    )
    perf.train_from_log(history_log)
    return SimulatedCluster(perf, [4])


class TestSimulatedClusterDigest:
    def test_one_instance_simulated_fleet_matches_single_engine_tree(
        self, tpch_batch, plan_embeddings, probe_knowledge, config_space, history_log, small_config
    ):
        """A fleet of one is bit-for-bit pinned through the one env (which
        single-engine pre-training uses)."""
        sim_cluster = _single_engine_sim_cluster(
            tpch_batch, plan_embeddings, probe_knowledge, config_space, history_log
        )
        assert cluster_instance_count(sim_cluster) == 1
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=sim_cluster,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=probe_knowledge,
            mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
        )
        schedulers = {
            ("FIFO", 0): FIFOScheduler(),
            ("MCF", 1): MCFScheduler(),
            ("Random", 2): RandomScheduler(seed=7),
        }
        for (name, round_id), scheduler in schedulers.items():
            result = scheduler.run_round(env, round_id=round_id)
            assert _digest(result.round_log) == _SINGLE_ENGINE_SIM_DIGESTS[(name, round_id)], name


@pytest.fixture(scope="module")
def sim_fleet(fleet_perf):
    return SimulatedCluster(fleet_perf, [2, 2, 2], name="sim-xyz")


class TestSimulatedClusterSession:
    def test_topology_and_validation(self, fleet_perf):
        with pytest.raises(SimulationError):
            SimulatedCluster(fleet_perf, [])
        with pytest.raises(SimulationError):
            SimulatedCluster(fleet_perf, [2, 2])  # model covers 3 instances
        sim = SimulatedCluster(fleet_perf, [2, 2, 2])
        assert sim.num_instances == 3
        assert len(sim.speed_factors()) == 3

    def test_placement_and_global_connections(self, sim_fleet, tpch_batch, config_space):
        session = sim_fleet.new_session(tpch_batch, num_connections=2, round_id=0)
        assert session.num_connections == 6
        c0 = session.submit(0, config_space[0], instance=0)
        c1 = session.submit(1, config_space[0], instance=2)
        assert 0 <= c0 < 2 and 4 <= c1 < 6
        assert session.instance_of(0) == 0 and session.instance_of(1) == 2
        assert session.instance_of(5) == -1
        assert session.num_running == 2 and session.instance_num_running() == [1, 0, 1]
        session.submit(2, config_space[0], instance=0)
        assert sorted(session.idle_instances()) == [1, 2]
        with pytest.raises(SimulationError):
            session.submit(3, config_space[0], instance=0)
        with pytest.raises(SimulationError):
            session.submit(3, config_space[0], instance=9)
        with pytest.raises(SimulationError):
            session.submit(0, config_space[0], instance=1)  # already running
        context = session.instance_context()
        assert context.shape == (3, 4)
        assert context[0, 1] == 1.0 and context[1, 1] == 0.0  # busy fractions

    def test_feature_rows_are_cached_per_instance(self, sim_fleet, config_space):
        params = config_space[0]
        rows = [sim_fleet.feature_row(instance, 5, params) for instance in range(3)]
        for instance, row in enumerate(rows):
            assert sim_fleet.feature_row(instance, 5, params) is row
            expected = sim_fleet.perf.featurizer.rows([5], [params], [0.0], instance=instance)[0]
            np.testing.assert_array_equal(row, expected)
        assert len({row[-2] for row in rows}) == 3  # each instance's own speed

    def test_unified_clock_and_instance_tagged_log(self, sim_fleet, tpch_batch, config_space):
        session = sim_fleet.new_session(tpch_batch, num_connections=2, round_id=1)
        order = [q.query_id for q in tpch_batch]
        cursor = 0
        last = 0.0
        while not session.is_done:
            while order and session.has_idle_connection:
                idle = session.idle_instances()
                instance = next(i for i in [cursor % 3, (cursor + 1) % 3, (cursor + 2) % 3] if i in idle)
                session.submit(order.pop(0), config_space[0], instance=instance)
                cursor += 1
            event = session.advance()
            assert event.finish_time >= last
            last = event.finish_time
        assert len(session.log) == len(tpch_batch)
        assert len(session.finished) == len(tpch_batch)
        instances = {record.instance for record in session.log.records}
        assert instances == {0, 1, 2}
        for record in session.log.records:
            assert record.instance == session.instance_of(record.query_id)

    def test_bounded_advance_and_idle_clock(self, sim_fleet, tpch_batch, config_space):
        session = sim_fleet.new_session(tpch_batch, num_connections=2, round_id=2)
        with pytest.raises(SimulationError):
            session.advance()
        assert session.advance(limit=3.0) is None
        assert session.current_time == 3.0
        session.submit(0, config_space[0], instance=1)
        assert session.advance(limit=3.0 + 1e-9) is None  # completion beyond the limit
        assert session.current_time == 3.0 + 1e-9
        event = session.advance()
        assert event is not None and event.instance == 1
        assert event.finish_time > 3.0

    def test_defer_release(self, sim_fleet, tpch_batch, config_space):
        session = sim_fleet.new_session(tpch_batch, num_connections=2, round_id=3)
        session.defer([0, 1])
        assert session.unarrived_ids() == (0, 1)
        assert not session.is_done
        with pytest.raises(SimulationError):
            session.submit(0, config_space[0], instance=0)
        session.release(0)
        assert 0 in session.pending
        with pytest.raises(SimulationError):
            session.release(0)

    def test_runtime_and_env_run_on_simulated_fleet(self, sim_fleet, tpch_batch, config_space, small_config):
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=sim_fleet,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=sim_fleet.perf.knowledge,
            mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
        )
        result = RoundRobinPlacementScheduler().run_round(env, round_id=4)
        assert len(result.round_log) == len(tpch_batch)
        assert {r.instance for r in result.round_log.records} == {0, 1, 2}
        result = GreedyCostPlacementScheduler().run_round(env, round_id=5)
        assert len(result.round_log) == len(tpch_batch)

    def test_single_tenant_runtime_round_trip(self, sim_fleet, tpch_batch, config_space, small_config):
        """The env's private runtime drives the simulated fleet like any backend.

        (Multi-tenant rounds re-id queries into a union batch; the
        performance model's feature table is keyed by the training batch's
        query ids, so simulated backends serve single-tenant pre-training
        rounds only.)
        """
        runtime = ExecutionRuntime(sim_fleet)
        tenant = runtime.register("solo", tpch_batch)
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=tenant,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=sim_fleet.perf.knowledge,
            mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
        )
        result = RoundRobinPlacementScheduler().run_round(env, round_id=6)
        assert len(result.round_log) == len(tpch_batch)
        assert runtime.is_done


# --------------------------------------------------------------------- #
# Facade integration: fleet pre-training, clustering, online ingestion
# --------------------------------------------------------------------- #
class TestClusterFacadeSimulation:
    @pytest.fixture(scope="class")
    def fleet_bqsched(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        fleet = Cluster.from_names(["x", "y", "z"], seed=0)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        config.ppo = PPOConfig(
            rollouts_per_update=1, epochs_per_update=1, minibatch_size=8, aux_every=2, aux_epochs=1
        )
        scheduler = BQSched(workload, fleet, config)
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1, pretrain_updates=1)
        return scheduler

    def test_simulator_and_clustering_enabled_by_default_on_fleets(self, fleet_bqsched):
        assert fleet_bqsched.use_simulator
        assert fleet_bqsched.num_instances == 3
        assert isinstance(fleet_bqsched.simulator, SimulatedCluster)
        assert fleet_bqsched.perf_model is not None and fleet_bqsched.perf_model.per_instance
        assert "pretrain" in fleet_bqsched.timings

    def test_policy_schedules_after_fleet_pretraining(self, fleet_bqsched):
        result = fleet_bqsched.schedule(round_id=321)
        assert len(result.round_log) == len(fleet_bqsched.batch)
        assert {r.instance for r in result.round_log.records} <= {0, 1, 2}

    def test_ingest_online_log_updates_perf_model_and_knowledge(self, fleet_bqsched):
        """Satellite: cluster facades no longer skip simulator/knowledge updates."""
        fleet = fleet_bqsched.engine
        batch = fleet_bqsched.batch
        log = fleet.collect_logs(
            batch, _orders(batch, 1, start_seed=77), fleet_bqsched.config_space.default, num_connections=2
        )
        rounds_before = len(fleet_bqsched.history_log)
        weights_before = fleet_bqsched.perf_model.model.input_proj.weight.data.copy()
        averages_before = dict(fleet_bqsched.knowledge.average_times)
        fleet_bqsched.ingest_online_log(log)
        assert len(fleet_bqsched.history_log) == rounds_before + 1
        assert not np.array_equal(weights_before, fleet_bqsched.perf_model.model.input_proj.weight.data)
        assert fleet_bqsched.knowledge.average_times != averages_before
        # instance-tagged records became per-instance training examples
        examples = fleet_bqsched.perf_model.examples_from_log(log)
        assert {example.instance for example in examples} == {0, 1, 2}

    def test_gain_clustering_on_fleet(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        fleet = Cluster.from_names(["x", "y"], seed=0)
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 2
        config.ppo = PPOConfig(
            rollouts_per_update=1, epochs_per_update=1, minibatch_size=8, aux_every=2, aux_epochs=1
        )
        config.clustering.num_clusters = 6
        scheduler = BQSched(workload, fleet, config)
        scheduler.use_clustering = True
        scheduler.prepare(history_rounds=2)
        assert scheduler.clusters is not None
        assert scheduler.env.cluster_mode
        result = scheduler.schedule(round_id=11)
        assert len(result.round_log) == len(scheduler.batch)
