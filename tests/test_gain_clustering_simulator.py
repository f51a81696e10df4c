"""Tests for scheduling gain, query clustering and the learned simulator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BatchQuerySet, BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import SimulatorConfig
from repro.core import (
    AdaptiveMask,
    FIFOScheduler,
    GainModel,
    SchedulingEnv,
    build_gain_matrix,
    cluster_queries,
    compute_scheduling_gains,
)
from repro.core.clustering import _average_linkage
from repro.core.gain import GAIN_BATCH_SIZE
from repro.dbms import ExecutionLog, QueryExecutionRecord, RoundLog, RunningParameters
from repro.exceptions import SchedulingError, SimulationError
from repro.nn import Adam, AdamSlabs, fastgrad
from repro.perf import PerformanceModel, SimulatedCluster
from repro.core import gain as gain_module
from gain_oracle import adam_fit, grouped_overlaps, loop_overlaps, loop_scheduling_gains, tape_gain, tape_predict
from tape_losses import mse_loss


@pytest.fixture(scope="module")
def history_log(tpch_batch, engine_x, config_space):
    orders = []
    base = [q.query_id for q in tpch_batch]
    for seed in range(3):
        order = list(base)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    return engine_x.collect_logs(tpch_batch, orders, config_space.default, num_connections=6)


@pytest.fixture(scope="module")
def plan_embeddings(tpch_workload, tpch_batch, small_config):
    from repro.encoder import PlanEmbeddingCache, QueryFormer
    from repro.plans import PlanFeaturizer

    queryformer = QueryFormer(PlanFeaturizer(tpch_workload.catalog), small_config.encoder, np.random.default_rng(0))
    return PlanEmbeddingCache(queryformer).embeddings_for(tpch_batch)


def _upper_pairs(observed):
    n = observed.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if observed[i, j]]


def _reference_fit(model, embeddings, gains, observed, epochs=30, learning_rate=1e-2, seed=0):
    """The per-pair autograd loop ``GainModel.fit`` replaced: one Adam step per observed pair."""
    pairs = _upper_pairs(observed)
    optimizer = Adam(model.parameters(), lr=learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        rng.shuffle(pairs)
        for i, j in pairs:
            loss = mse_loss(tape_gain(model, embeddings[i], embeddings[j]), np.array([gains[i, j]]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()


def _observed_mse(model, embeddings, gains, observed):
    rows, cols = np.array(_upper_pairs(observed)).T
    errors = model.predict_pairs(embeddings, rows, cols) - gains[rows, cols]
    return float(np.mean(np.square(errors)))


def _random_gains(n, rng):
    gains = rng.normal(0, 0.1, size=(n, n))
    return (gains + gains.T) / 2


class TestSchedulingGain:
    def test_gain_matrix_symmetric(self, history_log, tpch_batch):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        np.testing.assert_allclose(gains, gains.T)
        assert observed.any()
        assert gains.shape == (len(tpch_batch), len(tpch_batch))

    def test_unobserved_pairs_are_zero(self, history_log, tpch_batch):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        assert np.all(gains[~observed] == 0.0)

    def test_gain_values_bounded(self, history_log, tpch_batch):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        assert np.all(gains <= 1.0 + 1e-9)

    def test_gain_model_fits_and_predicts_symmetrically(self, plan_embeddings):
        rng = np.random.default_rng(0)
        model = GainModel(plan_embeddings.shape[1], 16, rng)
        n = plan_embeddings.shape[0]
        gains = rng.normal(0, 0.1, size=(n, n))
        gains = (gains + gains.T) / 2
        observed = np.ones((n, n), dtype=bool)
        losses = model.fit(plan_embeddings, gains, observed, epochs=3)
        assert losses[-1] <= losses[0] * 1.5
        a, b = model.predict_pairs(plan_embeddings, np.array([0, 1]), np.array([1, 0]))
        assert a == pytest.approx(b, abs=1e-9)

    def test_build_gain_matrix_fills_unobserved(self, history_log, tpch_batch, plan_embeddings):
        """One batched completion == the per-pair ``predict`` loop it replaced."""
        completed = build_gain_matrix(history_log, tpch_batch, plan_embeddings, hidden_dim=16, epochs=2)
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        assert observed.any() and not observed[np.triu_indices(len(tpch_batch), k=1)].all()
        model = GainModel(plan_embeddings.shape[1], 16, np.random.default_rng(0))
        model.fit(plan_embeddings, gains, observed, epochs=2, seed=0)
        np.testing.assert_array_equal(completed, completed.T)
        np.testing.assert_array_equal(completed[observed], gains[observed])
        np.testing.assert_array_equal(np.diag(completed), 0.0)
        for i, j in _upper_pairs(~observed):
            assert abs(completed[i, j] - tape_predict(model, plan_embeddings[i], plan_embeddings[j])) <= 1e-12

    @pytest.mark.parametrize("case", ["single", "ragged_tail", "repeated_pair"])
    def test_minibatch_step_gradients_match_tape(self, plan_embeddings, case):
        n = plan_embeddings.shape[0]
        every = _upper_pairs(np.ones((n, n), dtype=bool))
        tail = every[len(every) - len(every) % GAIN_BATCH_SIZE :]
        assert 1 < len(tail) < GAIN_BATCH_SIZE
        pairs = {"single": [(0, 1)], "ragged_tail": tail, "repeated_pair": [(0, 1), (2, 3), (0, 1)]}[case]
        gains = _random_gains(n, np.random.default_rng(1))
        model = GainModel(plan_embeddings.shape[1], 16, np.random.default_rng(0))

        losses = [
            mse_loss(tape_gain(model, plan_embeddings[i], plan_embeddings[j]), np.array([gains[i, j]])) for i, j in pairs
        ]
        mean_loss = sum(losses[1:], losses[0]) * (1.0 / len(pairs))
        model.zero_grad()
        mean_loss.backward()
        tape_grads = [parameter.grad.copy() for parameter in model.parameters()]

        model.zero_grad()
        rows, cols = np.array(pairs).T
        fused_loss = model.minibatch_step(plan_embeddings, rows, cols, gains[rows, cols], fastgrad.Arena())
        assert abs(fused_loss - float(mean_loss.data)) <= 1e-12
        for parameter, expected in zip(model.parameters(), tape_grads):
            assert np.max(np.abs(parameter.grad - expected)) <= 1e-12

    def test_fit_needs_an_observed_pair_and_handles_exactly_one(self, plan_embeddings):
        n = plan_embeddings.shape[0]
        gains = _random_gains(n, np.random.default_rng(2))
        observed = np.zeros((n, n), dtype=bool)
        model = GainModel(plan_embeddings.shape[1], 16, np.random.default_rng(0))
        with pytest.raises(SchedulingError):
            model.fit(plan_embeddings, gains, observed)
        observed[3, 7] = observed[7, 3] = True
        losses = model.fit(plan_embeddings, gains, observed, epochs=200)
        assert len(losses) == 200 and losses[-1] < losses[0]
        (predicted,) = model.predict_pairs(plan_embeddings, np.array([3]), np.array([7]))
        assert predicted == pytest.approx(gains[3, 7], abs=0.01)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_minibatched_fit_is_no_worse_than_per_pair_loop_at_158_queries(self, seed):
        """Fit quality on the large-query-set ``prepare(2)`` data (the ledger's clustered workload)."""
        workload = make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=seed)
        scheduler = BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=seed), BQSchedConfig(seed=seed))
        scheduler.use_simulator = False  # only the gain fit and the clustering are under test
        scheduler.prepare(history_rounds=2)
        assert len(scheduler.batch) == 158 and scheduler.clusters.num_clusters == 100

        embeddings = scheduler.plan_embeddings
        gains, observed = compute_scheduling_gains(scheduler.history_log, scheduler.batch)
        hidden = scheduler.config.clustering.gain_model_hidden
        fitted = GainModel(embeddings.shape[1], hidden, np.random.default_rng(seed))
        fitted.fit(embeddings, gains, observed, seed=seed)
        reference = GainModel(embeddings.shape[1], hidden, np.random.default_rng(seed))
        _reference_fit(reference, embeddings, gains, observed, seed=seed)
        fitted_mse = _observed_mse(fitted, embeddings, gains, observed)
        assert fitted_mse <= _observed_mse(reference, embeddings, gains, observed)


@pytest.fixture(scope="module")
def large_prepared():
    """The large-query-set path's ``prepare(2)`` inputs on seed 0: the 158-query batch, its plan
    embeddings and history log (clustering off: the gain fit under test runs in the tests)."""
    workload = make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0)
    scheduler = BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), BQSchedConfig(seed=0))
    scheduler.use_clustering = False
    scheduler.prepare(history_rounds=2)
    assert len(scheduler.batch) == 158
    return scheduler


def _hex(values):
    return [float(value).hex() for value in values]


class TestByteIdenticalToTheLoops:
    """The array gain inputs equal the Python pair loops, and the slab gain fit equals the
    ``Adam`` loop, byte for byte (``gain_oracle``)."""

    @pytest.mark.parametrize("rounds", [2, 3, 10])
    def test_gains_and_overlaps_equal_the_pair_loops(self, large_prepared, rounds):
        batch, engine = large_prepared.batch, large_prepared.engine
        base = [query.query_id for query in batch]
        orders = []
        for index in range(rounds):
            order = list(base)
            np.random.default_rng((7, index)).shuffle(order)
            orders.append(order)
        connections = large_prepared.config.scheduler.num_connections
        log = engine.collect_logs(batch, orders, large_prepared.config_space.default, num_connections=connections)
        expected = loop_overlaps(log)
        assert grouped_overlaps(log) == expected
        # Ten rounds put 8 or more terms under one np.mean: its pairwise sum, not a running sum.
        assert max(len(executions) for executions in expected.values()) >= (8 if rounds == 10 else rounds)
        gains, observed = compute_scheduling_gains(log, batch)
        want_gains, want_observed = loop_scheduling_gains(log, batch)
        assert gains.tobytes() == want_gains.tobytes() and observed.tobytes() == want_observed.tobytes()

    def test_repeated_queries_in_a_round_equal_the_pair_loops(self, tpch_batch):
        """A round may run a query twice (a pair of a query with itself) and hold zero-length runs."""
        log = ExecutionLog()
        rng = np.random.default_rng(4)
        for round_id in range(12):
            round_log = RoundLog(round_id=round_id)
            for query_id in rng.integers(0, 6, size=9).tolist():
                submit = float(rng.uniform(0.0, 5.0))
                length = float(rng.choice([0.0, rng.uniform(0.5, 4.0)], p=[0.1, 0.9]))
                record = QueryExecutionRecord(
                    query_id, f"q{query_id}", 0, 0, RunningParameters(1, 64), submit, submit + length
                )
                round_log.add(record)
            log.add_round(round_log)
        assert grouped_overlaps(log) == loop_overlaps(log)
        gains, observed = compute_scheduling_gains(log, tpch_batch)
        want_gains, want_observed = loop_scheduling_gains(log, tpch_batch)
        assert observed.diagonal().any()
        assert gains.tobytes() == want_gains.tobytes() and observed.tobytes() == want_observed.tobytes()

    def test_an_empty_log_observes_nothing(self, tpch_batch):
        gains, observed = compute_scheduling_gains(ExecutionLog(), tpch_batch)
        assert not gains.any() and not observed.any()

    def test_slab_fit_equals_the_adam_loop_on_the_tpch_fixture(
        self, monkeypatch, history_log, tpch_batch, plan_embeddings
    ):
        gains, observed = compute_scheduling_gains(history_log, tpch_batch)
        assert np.triu(observed, k=1).sum() % GAIN_BATCH_SIZE  # a ragged last minibatch
        made = []

        class RecordingSlabs(AdamSlabs):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(gain_module, "AdamSlabs", RecordingSlabs)
        fitted = GainModel(plan_embeddings.shape[1], 16, np.random.default_rng(0))
        reference = GainModel(plan_embeddings.shape[1], 16, np.random.default_rng(0))
        losses = fitted.fit(plan_embeddings, gains, observed, epochs=5, seed=3)
        assert _hex(losses) == _hex(adam_fit(reference, plan_embeddings, gains, observed, epochs=5, seed=3))
        for (name, param), want in zip(fitted.named_parameters(), reference.parameters()):
            assert param.data.tobytes() == want.data.tobytes(), name
        (optimizer,) = made
        slabs = (optimizer._theta, optimizer._grad, optimizer._buf, optimizer.m, optimizer.v)
        for name, param in fitted.named_parameters():
            assert not any(np.shares_memory(param.data, slab) for slab in slabs), name

    def test_slab_fit_and_gain_matrix_equal_the_loops_at_158_queries(self, large_prepared):
        scheduler = large_prepared
        embeddings, log, batch = scheduler.plan_embeddings, scheduler.history_log, scheduler.batch
        hidden = scheduler.config.clustering.gain_model_hidden
        gains, observed = loop_scheduling_gains(log, batch)
        fitted = GainModel(embeddings.shape[1], hidden, np.random.default_rng(0))
        reference = GainModel(embeddings.shape[1], hidden, np.random.default_rng(0))
        losses = fitted.fit(embeddings, gains, observed, seed=0)
        assert _hex(losses) == _hex(adam_fit(reference, embeddings, gains, observed, seed=0))
        for (name, param), want in zip(fitted.named_parameters(), reference.parameters()):
            assert param.data.tobytes() == want.data.tobytes(), name

        rows, cols = np.nonzero(np.triu(~observed, k=1))
        expected = gains.copy()
        expected[rows, cols] = expected[cols, rows] = reference.predict_pairs(embeddings, rows, cols)
        completed = build_gain_matrix(log, batch, plan_embeddings=embeddings, hidden_dim=hidden, seed=0)
        assert completed.tobytes() == expected.tobytes()


class TestClustering:
    def test_cluster_count_and_coverage(self, history_log, tpch_batch, tpch_knowledge):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=5, knowledge=tpch_knowledge)
        assert clusters.num_clusters <= 5
        covered = sorted(qid for c in range(clusters.num_clusters) for qid in clusters.members(c))
        assert covered == list(range(len(tpch_batch)))

    def test_intra_order_mcf_is_descending(self, history_log, tpch_batch, tpch_knowledge):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=4, knowledge=tpch_knowledge)
        for cluster_id in range(clusters.num_clusters):
            times = [tpch_knowledge.average_time(qid) for qid in clusters.members(cluster_id)]
            assert times == sorted(times, reverse=True)

    def test_one_cluster_per_query_is_identity(self, tpch_batch):
        n = len(tpch_batch)
        clusters = cluster_queries(tpch_batch, np.zeros((n, n)), num_clusters=n)
        assert clusters.num_clusters == n
        assert all(len(clusters.members(c)) == 1 for c in range(n))

    def test_invalid_inputs_rejected(self, tpch_batch):
        n = len(tpch_batch)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((2, 2)), num_clusters=2)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((n, n)), num_clusters=0)

    def test_assignments_match_members(self, history_log, tpch_batch):
        gains, _ = compute_scheduling_gains(history_log, tpch_batch)
        clusters = cluster_queries(tpch_batch, gains, num_clusters=3)
        for cluster_id in range(clusters.num_clusters):
            for qid in clusters.members(cluster_id):
                assert clusters.assignments[qid] == cluster_id

    def test_all_equal_gains_give_one_cluster(self, tpch_batch):
        n = len(tpch_batch)
        for k in (1, 5, n - 1):
            assert cluster_queries(tpch_batch, np.full((n, n), 0.25), num_clusters=k).num_clusters == 1

    def test_exact_ties_are_deterministic_and_a_valid_cut(self, tpch_batch):
        n = len(tpch_batch)
        block, group = np.arange(n) // 4, np.arange(n) // 8  # six blocks in three groups: three tied gain levels
        gains = 1.0 + (block[:, None] == block[None, :]) + (group[:, None] == group[None, :])
        children, heights = _average_linkage(_distance(gains))
        tree_leaves = _leaf_sets(children, n)
        for k in (1, 2, 3, 5, 6, 9, n - 1):
            labels = cluster_queries(tpch_batch, gains, num_clusters=k).assignments
            assert np.array_equal(labels, cluster_queries(tpch_batch, gains.copy(), num_clusters=k).assignments)
            assert sorted(set(labels.tolist())) == list(range(labels.max() + 1)) and labels.max() < k
            within = [len(set(labels[leaves].tolist())) == 1 for leaves in tree_leaves]
            assert sum(within) == n - (labels.max() + 1)
            assert heights[within].max() <= heights[np.logical_not(within)].min(initial=np.inf)
        for k, expected in ((2, np.zeros(n, dtype=int)), (5, group), (6, block)):  # the partition, in any numbering
            labels = cluster_queries(tpch_batch, gains, num_clusters=k).assignments
            assert len(set(zip(labels.tolist(), expected.tolist()))) == labels.max() + 1 == expected.max() + 1

    def test_asymmetric_gains_cluster_as_their_symmetrisation(self, tpch_batch):
        n = len(tpch_batch)
        gains = np.random.default_rng(3).normal(size=(n, n))
        symmetric = (gains + gains.T) / 2.0
        for k in (3, 14):
            assert np.array_equal(
                cluster_queries(tpch_batch, gains, num_clusters=k).assignments,
                cluster_queries(tpch_batch, symmetric, num_clusters=k).assignments,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_is_a_scheduling_error(self, tpch_batch, bad):
        n = len(tpch_batch)
        gains = np.random.default_rng(0).normal(size=(n, n))
        gains[4, 9] = gains[11, 2] = bad
        with pytest.raises(SchedulingError, match=rf"\(4, 9\) is {bad}"):
            cluster_queries(tpch_batch, gains, num_clusters=5)

    def test_label_vector_pin_at_158_queries(self, large_batch):
        """Parity with SciPy on a machine without it: pinned while ``TestSciPyOracle`` agreed."""
        labels = cluster_queries(large_batch, _seeded_gains(158, seed=158), num_clusters=100).assignments
        assert labels.max() == 99
        digest = hashlib.sha256(labels.tobytes()).hexdigest()
        assert digest == "d4ddca25252880b9140aff27fac2365230b39a682a352a442879f497a9531521"


@pytest.fixture(scope="module")
def large_batch():
    return make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0).batch_query_set()


def _seeded_gains(n, seed):
    """A continuous (tie-free) asymmetric gain matrix."""
    return np.random.default_rng(seed).normal(size=(n, n))


def _distance(gains):
    """The distance ``cluster_queries`` derives from a gain matrix."""
    symmetric = (gains + gains.T) / 2.0
    distance = symmetric.max() - symmetric
    np.fill_diagonal(distance, 0.0)
    return distance


def _leaf_sets(children, n):
    """Leaf ids under each merge of an ``_average_linkage`` tree."""
    leaves = [[leaf] for leaf in range(n)]
    for left, right in children:
        leaves.append(leaves[left] + leaves[right])
    return leaves[n:]


class TestSciPyOracle:
    """SciPy is the reference the in-repo linkage kernel must match label for label, number for number."""

    @staticmethod
    def _oracle(gains, k):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        tree = hierarchy.linkage(squareform(_distance(gains), checks=False), method="average")
        return hierarchy.fcluster(tree, t=k, criterion="maxclust") - 1

    @pytest.mark.parametrize("n", [3, 22, 99, 158])
    def test_labels_and_numbering_match_scipy(self, large_batch, n):
        batch = BatchQuerySet(large_batch.queries[:n])
        for seed in range(3):
            gains = _seeded_gains(n, seed=1000 * n + seed)
            for k in sorted({1, 2, max(1, n // 3), round(0.63 * n), n - 1}):
                labels = cluster_queries(batch, gains, num_clusters=k).assignments
                assert np.array_equal(labels, self._oracle(gains, k)), (n, seed, k)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_small_matrices_match_scipy(self, large_batch, n, seed, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        gains = _seeded_gains(n, seed)
        labels = cluster_queries(BatchQuerySet(large_batch.queries[:n]), gains, num_clusters=k).assignments
        assert np.array_equal(labels, self._oracle(gains, k))


def _perf_model(batch, plan_embeddings, knowledge, config_space, config, seed):
    return PerformanceModel(
        batch=batch, plan_embeddings=plan_embeddings, knowledge=knowledge,
        config_space=config_space, config=config, seed=seed,
    )


@pytest.fixture(scope="module")
def simulator(tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
    """The single-engine simulator the facade builds: a simulated fleet of one."""
    perf = _perf_model(tpch_batch, plan_embeddings, tpch_knowledge, config_space, SimulatorConfig(hidden_dim=24, epochs=3), 0)
    perf.train_from_log(history_log)
    return SimulatedCluster(perf, [6])


class TestSingleEngineSimulator:
    def test_training_reports_metrics(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
        perf = _perf_model(tpch_batch, plan_embeddings, tpch_knowledge, config_space, SimulatorConfig(hidden_dim=16, epochs=2), 1)
        metrics = perf.train_from_log(history_log)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.mse >= 0.0
        assert metrics.num_examples > 0

    def test_attention_and_multitask_flags_change_model(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space, history_log):
        base = SimulatorConfig(hidden_dim=16, epochs=2)
        no_attention = SimulatorConfig(hidden_dim=16, epochs=2, use_attention=False)
        perf_a = _perf_model(tpch_batch, plan_embeddings, tpch_knowledge, config_space, base, 2)
        perf_b = _perf_model(tpch_batch, plan_embeddings, tpch_knowledge, config_space, no_attention, 2)
        metrics_a = perf_a.train_from_log(history_log)
        metrics_b = perf_b.train_from_log(history_log)
        assert metrics_a.num_examples == metrics_b.num_examples

    def test_update_from_log_runs(self, simulator, history_log):
        metrics = simulator.perf.update_from_log(history_log)
        assert metrics.num_examples > 0

    def test_untrained_simulator_rejects_empty_log(self, tpch_batch, plan_embeddings, tpch_knowledge, config_space):
        from repro.dbms import ExecutionLog

        perf = _perf_model(tpch_batch, plan_embeddings, tpch_knowledge, config_space, SimulatorConfig(hidden_dim=16), 0)
        with pytest.raises(SimulationError):
            perf.train_from_log(ExecutionLog())

    def test_feature_rows_are_cached_until_the_estimates_move(self, simulator, config_space):
        knowledge = simulator.perf.knowledge
        params = config_space[1]
        row = simulator.feature_row(0, 3, params)
        assert simulator.feature_row(0, 3, params) is row
        np.testing.assert_array_equal(row, simulator.perf.featurizer.rows([3], [params], [0.0])[0])
        assert simulator.feature_row(0, 3, config_space[0]) is not row
        knowledge.config_times[3][1] *= 2.0
        knowledge.version += 1
        try:
            fresh = simulator.feature_row(0, 3, params)
            assert fresh is not row and not np.array_equal(fresh, row)
            np.testing.assert_array_equal(fresh, simulator.perf.featurizer.rows([3], [params], [0.0])[0])
        finally:
            knowledge.config_times[3][1] /= 2.0
            knowledge.version += 1

    def test_simulated_session_protocol(self, simulator, tpch_batch):
        session = simulator.new_session(tpch_batch, num_connections=3, round_id=0)
        assert session.has_idle_connection and session.has_pending and not session.is_done
        session.submit(0, RunningParameters(1, 64))
        session.submit(1, RunningParameters(2, 256))
        assert session.num_running == 2
        session.advance()
        assert len(session.finished) == 1
        assert session.current_time > 0
        assert session.makespan == session.current_time

    def test_simulated_session_validation(self, simulator, tpch_batch):
        session = simulator.new_session(tpch_batch, num_connections=1)
        with pytest.raises(SimulationError):
            session.advance()
        session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SimulationError):
            session.submit(0, RunningParameters(1, 64))
        with pytest.raises(SimulationError):
            session.submit(1, RunningParameters(1, 64))

    def test_full_episode_on_simulator_backend(self, simulator, tpch_batch, small_config, config_space, tpch_knowledge):
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=simulator,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=tpch_knowledge,
            mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
        )
        result = FIFOScheduler().run_round(env, round_id=0)
        assert result.num_queries == len(tpch_batch)
        assert result.makespan > 0
