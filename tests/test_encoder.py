"""Tests for the QueryFormer plan encoder and the attention-based state encoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BQSchedConfig, make_workload
from repro.config import TIME_SCALE, EncoderConfig
from repro.dbms import ConfigurationSpace
from repro.encoder import (
    PlanEmbeddingCache,
    QueryFormer,
    RunStateFeaturizer,
    SnapshotArrays,
    StateEncoder,
)
from repro.exceptions import SchedulingError
from repro.nn import BatchNorm, Tensor, fastgrad
from repro.perf import PerformanceFeaturizer
from repro.perf import TIME_SCALE as perf_time_scale
from repro.plans import PlanFeaturizer
from queryformer_oracle import tape_embedding
from snapshot_oracle import QueryRuntimeInfo, QueryStatus, snapshot_arrays, to_snapshot


@pytest.fixture(scope="module")
def encoder_config() -> EncoderConfig:
    return EncoderConfig(
        plan_embedding_dim=16, node_hidden_dim=16, tree_heads=2, tree_layers=1,
        state_dim=24, state_heads=2, state_layers=1,
    )


@pytest.fixture(scope="module")
def queryformer(tpch_workload, encoder_config):
    featurizer = PlanFeaturizer(tpch_workload.catalog)
    return QueryFormer(featurizer, encoder_config, np.random.default_rng(0))


class TestRunStateFeatures:
    def test_feature_dim(self):
        featurizer = RunStateFeaturizer(num_configs=4)
        assert featurizer.feature_dim == 3 + 4 + 2

    def test_status_one_hot(self):
        featurizer = RunStateFeaturizer(num_configs=2)
        pending, running = featurizer.featurize_arrays_stack(
            [snapshot_arrays([0, 1], config_index=[-1, 1], elapsed=[0.0, 2.0])]
        )[0]
        assert pending[0] == 1.0 and running[1] == 1.0
        assert running[3 + 1] == 1.0  # configuration one-hot

    def test_pending_has_no_config(self):
        featurizer = RunStateFeaturizer(num_configs=2)
        vector = featurizer.featurize_arrays_stack([snapshot_arrays([0])])[0, 0]
        assert vector[3:5].sum() == 0.0

    def test_elapsed_normalised_bounded(self):
        featurizer = RunStateFeaturizer(num_configs=2)
        vector = featurizer.featurize_arrays_stack([snapshot_arrays([1], elapsed=1e6, expected_time=1e6)])[0, 0]
        assert np.all(np.abs(vector) <= 1.0)

    def test_layout_follows_the_switched_on_channels(self):
        featurizer = RunStateFeaturizer(num_configs=4, instance_context_dim=6)
        assert featurizer.layout == {"status": 0, "config": 3, "elapsed": 7, "expected": 8, "context": 9}
        assert featurizer.feature_dim == 15
        assert "context" not in RunStateFeaturizer(num_configs=4).layout

    def test_one_time_scale_for_the_policy_and_the_simulator(self):
        """The run-state rows and the simulator's rows squash seconds by the same
        ``TIME_SCALE``, so a query's elapsed time reads the same to both."""
        assert perf_time_scale is TIME_SCALE
        seconds = np.array([0.0, 3.0, 25.0, 400.0])
        featurizer = RunStateFeaturizer(num_configs=2)
        rows = featurizer.featurize_arrays_stack(
            [snapshot_arrays([1, 1, 1, 1], config_index=0, elapsed=seconds, expected_time=seconds[::-1])]
        )[0]
        np.testing.assert_array_equal(rows[:, featurizer.layout["elapsed"]], np.tanh(seconds / TIME_SCALE))
        np.testing.assert_array_equal(rows[:, featurizer.layout["expected"]], np.tanh(seconds[::-1] / TIME_SCALE))
        space = ConfigurationSpace(BQSchedConfig.small(seed=0).scheduler)
        simulator = PerformanceFeaturizer(np.zeros((4, 3)), space, estimator=None)
        features = np.zeros((4, simulator.feature_dim))
        simulator.rewrite_dynamic_columns(features, seconds)
        np.testing.assert_array_equal(features[:, simulator.elapsed_column], rows[:, featurizer.layout["elapsed"]])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SchedulingError):
            QueryRuntimeInfo(0, QueryStatus.RUNNING, config_index=-1)
        with pytest.raises(SchedulingError):
            QueryRuntimeInfo(0, QueryStatus.PENDING, elapsed=-1.0)
        with pytest.raises(SchedulingError):
            RunStateFeaturizer(num_configs=0)
        featurizer = RunStateFeaturizer(num_configs=2)
        with pytest.raises(SchedulingError, match="config index 5"):
            featurizer.featurize_arrays_stack([snapshot_arrays([1], config_index=5)])

    def test_snapshot_helpers(self):
        arrays = snapshot_arrays([0, 1, 2], time=3.0, elapsed=[0.0, 1.0, 0.0])
        view = to_snapshot(arrays)
        for snapshot in (arrays, view):
            assert snapshot.pending_ids == [0]
            assert snapshot.running_ids == [1]
            assert snapshot.num_queries == 3
        assert view.finished_ids == [2]
        assert view.infos[1] == QueryRuntimeInfo(1, QueryStatus.RUNNING, config_index=0, elapsed=1.0)


class TestQueryFormer:
    def test_embedding_shape(self, queryformer, tpch_batch, encoder_config):
        embedding = queryformer(tpch_batch[0].plan)
        assert embedding.shape == (encoder_config.plan_embedding_dim,)

    def test_embedding_deterministic(self, queryformer, tpch_batch):
        a = queryformer(tpch_batch[3].plan)
        b = queryformer(tpch_batch[3].plan)
        assert a.tobytes() == b.tobytes()

    def test_different_plans_embed_differently(self, queryformer, tpch_batch):
        a = queryformer(tpch_batch[0].plan)
        b = queryformer(tpch_batch[8].plan)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "bench_name, query_scale", [("tpch", 1.0), ("job", 1.0), ("tpcds", 1.0), ("tpcds", 1.6)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_embedding_is_the_tape_forward_bit_for_bit(self, bench_name, query_scale, seed):
        workload = make_workload(bench_name, scale_factor=1.0, query_scale=query_scale, seed=seed)
        config = BQSchedConfig(seed=seed).encoder
        queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config, np.random.default_rng(seed))
        for query in workload.batch_query_set():
            assert queryformer(query.plan).tobytes() == tape_embedding(queryformer, query.plan).tobytes()

    def test_embedding_writes_no_running_statistics(self, queryformer, tpch_batch):
        """Embedding a plan adds no attribute to a token norm and rebinds or changes none of its parameters."""
        norms = [norm for block in queryformer.encoder._modules.values() for norm in (block.norm1, block.norm2)]
        before = [(dict(vars(n)), [(p.data, p.data.copy()) for p in n.parameters()]) for n in norms]
        queryformer(tpch_batch[0].plan)
        assert all(isinstance(norm, BatchNorm) for norm in norms)
        for norm, (attributes, arrays) in zip(norms, before):
            assert vars(norm).keys() == attributes.keys()
            assert all(vars(norm)[name] is value for name, value in attributes.items())
            for param, (array, values) in zip(norm.parameters(), arrays):
                assert param.data is array and np.array_equal(array, values)

    def test_cache_memoises(self, queryformer, tpch_batch):
        cache = PlanEmbeddingCache(queryformer)
        matrix = cache.embeddings_for(tpch_batch)
        assert matrix.shape == (len(tpch_batch), queryformer.config.plan_embedding_dim)
        assert len(cache) == len(tpch_batch)
        again = cache.embeddings_for(tpch_batch)
        np.testing.assert_allclose(matrix, again)
        cache.clear()
        assert len(cache) == 0

    def test_embedding_is_no_buffer_a_later_call_hands_out(self, queryformer, tpch_batch):
        first = queryformer(tpch_batch[0].plan)
        kept = first.copy()
        second = queryformer(tpch_batch[8].plan)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


class TestFloat64TokenNorm:
    """``fastgrad``'s BatchNorm kernel, which QueryFormer's embedding runs, is the tape's per-state token norm."""

    def test_batch_statistics_match_the_tape(self):
        norm = BatchNorm(6)
        norm.gamma.data = np.linspace(0.5, 1.5, 6)
        norm.beta.data = np.linspace(-0.2, 0.3, 6)
        x = np.random.default_rng(0).normal(size=(5, 6))
        out, _ = fastgrad.batch_norm_forward(norm, x, fastgrad.Arena())
        assert out.tobytes() == norm(Tensor(x)).data.tobytes()

    def test_one_token_is_refused(self):
        # One token has no batch statistics; the tape refuses it too.
        norm, x = BatchNorm(4), np.ones((1, 4))
        for forward in (lambda: fastgrad.batch_norm_forward(norm, x, fastgrad.Arena()), lambda: norm(Tensor(x))):
            with pytest.raises(ValueError, match=r"at least two tokens, not shape \(1, 4\)"):
                forward()

    def test_a_stack_normalises_each_state_alone(self):
        norm = BatchNorm(6)
        norm.gamma.data = np.linspace(0.5, 1.5, 6)
        norm.beta.data = np.linspace(-0.2, 0.3, 6)
        x = np.random.default_rng(1).normal(size=(3, 5, 6))
        out, _ = fastgrad.batch_norm_forward(norm, x, fastgrad.Arena())
        assert out.tobytes() == norm(Tensor(x)).data.tobytes()
        for state, row in zip(x, out):
            assert fastgrad.batch_norm_forward(norm, state, fastgrad.Arena())[0].tobytes() == row.tobytes()


class TestStateEncoder:
    def _snapshot(self, n: int) -> SnapshotArrays:
        status = np.arange(n) % 3  # pending, running, finished, pending, ...
        return snapshot_arrays(status, time=1.0, elapsed=np.where(status == 1, 0.5, 0.0), expected_time=1.0)

    def _build(self, encoder_config, use_attention=True):
        featurizer = RunStateFeaturizer(num_configs=4)
        return StateEncoder(
            plan_embedding_dim=16,
            run_state_featurizer=featurizer,
            config=encoder_config,
            rng=np.random.default_rng(0),
            use_attention=use_attention,
        )

    def test_output_shapes(self, encoder_config):
        encoder = self._build(encoder_config)
        n = 7
        representation = encoder(np.random.default_rng(0).normal(size=(n, 16)), self._snapshot(n))
        assert representation.per_query.shape == (n, encoder_config.state_dim)
        assert representation.global_state.shape == (encoder_config.state_dim,)

    def test_handles_variable_batch_sizes(self, encoder_config):
        encoder = self._build(encoder_config)
        for n in (2, 5, 11):
            representation = encoder(np.zeros((n, 16)), self._snapshot(n))
            assert representation.num_queries == n

    def test_mismatched_inputs_rejected(self, encoder_config):
        encoder = self._build(encoder_config)
        with pytest.raises(ValueError):
            encoder(np.zeros((3, 16)), self._snapshot(4))

    def test_attention_variant_differs_from_flat(self, encoder_config):
        snapshot = self._snapshot(6)
        plan_embeddings = np.random.default_rng(1).normal(size=(6, 16))
        with_attention = self._build(encoder_config, use_attention=True)(plan_embeddings, snapshot)
        without_attention = self._build(encoder_config, use_attention=False)(plan_embeddings, snapshot)
        assert not np.allclose(with_attention.per_query.data, without_attention.per_query.data)

    def test_gradients_reach_super_query(self, encoder_config):
        encoder = self._build(encoder_config)
        representation = encoder(np.zeros((4, 16)), self._snapshot(4))
        representation.global_state.sum().backward()
        assert encoder.super_query.grad is not None
