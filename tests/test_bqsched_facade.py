"""End-to-end tests of the BQSched / LSched facades on a small query subset."""

from __future__ import annotations

import copy
import gc
import weakref

import pytest

from repro import BQSched, BQSchedConfig, Cluster, DatabaseEngine, DBMSProfile, make_workload
from repro.config import PPOConfig
from repro.core import BaseScheduler, LSchedScheduler, FIFOScheduler
from repro.core.ppo import PPOTrainer
from repro.nn import Adam, AdamSlabs
from repro.perf import PerformanceModel, SimulatedCluster


@pytest.fixture(scope="module")
def tiny_setup():
    """A 22-query TPC-H workload with minimal training budgets."""
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    config.ppo = PPOConfig(rollouts_per_update=1, epochs_per_update=1, minibatch_size=8, aux_every=2, aux_epochs=1)
    return workload, engine, config


@pytest.fixture(scope="module")
def trained_bqsched(tiny_setup):
    workload, engine, config = tiny_setup
    scheduler = BQSched(workload, engine, config)
    scheduler.prepare(history_rounds=2)
    scheduler.train(num_updates=2, pretrain_updates=1)
    return scheduler


class TestBQSchedFacade:
    def test_components_built(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        assert scheduler.plan_embeddings.shape[0] == workload.num_queries
        assert scheduler.use_masking and scheduler.use_simulator
        assert scheduler.mask.masked_fraction() > 0.0
        assert not scheduler.use_clustering  # only 22 queries

    def test_prepare_builds_simulator_and_refreshes_knowledge(self, trained_bqsched):
        assert trained_bqsched.simulator is not None
        assert len(trained_bqsched.history_log) >= 2

    def test_training_records_timings(self, trained_bqsched):
        assert "pretrain" in trained_bqsched.timings
        assert "finetune" in trained_bqsched.timings
        assert trained_bqsched.timings["train_total"] > 0

    def test_schedule_produces_complete_plan(self, trained_bqsched, tiny_setup):
        workload, _, _ = tiny_setup
        result = trained_bqsched.schedule(round_id=123)
        assert result.num_queries == workload.num_queries
        assert result.makespan > 0
        assert result.strategy == "BQSched"

    def test_evaluation_is_reasonable_vs_heuristics(self, trained_bqsched, tiny_setup):
        _, _, config = tiny_setup
        evaluation = trained_bqsched.evaluate_policy(rounds=2)
        fifo = FIFOScheduler().evaluate(trained_bqsched.env, rounds=2)
        # Even a lightly trained policy (with masking and best-checkpoint
        # selection) must not be dramatically worse than FIFO.
        assert evaluation.mean < 1.5 * fifo.mean

    def test_ingest_online_log_updates_simulator(self, trained_bqsched, tiny_setup):
        workload, engine, config = tiny_setup
        batch = trained_bqsched.batch
        order = [q.query_id for q in batch]
        log = engine.collect_logs(batch, [order], trained_bqsched.config_space.default, num_connections=4)
        trained_bqsched.ingest_online_log(log)
        assert len(trained_bqsched.history_log) >= 3


def _eager_perf_model(scheduler) -> PerformanceModel:
    """The model an eager ``prepare()`` fitted: the facade's arguments, fitted on its log now."""
    fleet = isinstance(scheduler.engine, Cluster)
    model = PerformanceModel(
        batch=scheduler.batch,
        plan_embeddings=scheduler.plan_embeddings,
        knowledge=scheduler.knowledge,
        config_space=scheduler.config_space,
        config=scheduler.config.simulator,
        seed=scheduler.config.seed,
        instance_speeds=scheduler.engine.speed_factors() if fleet else (),
    )
    model.train_from_log(scheduler.history_log)
    return model


def _assert_same_weights(expected: PerformanceModel, actual: PerformanceModel) -> None:
    want, got = dict(expected.model.named_parameters()), dict(actual.model.named_parameters())
    assert want.keys() == got.keys() and want
    for name, param in want.items():
        assert param.data.dtype == got[name].data.dtype and param.data.shape == got[name].data.shape, name
        assert param.data.tobytes() == got[name].data.tobytes(), name


class TestLazySimulatorFit:
    """``prepare()`` fits no simulator; the first read of ``simulator`` fits the eager model."""

    @staticmethod
    def _count_fits(monkeypatch) -> list[int]:
        fits = [0]
        train_from_log = PerformanceModel.train_from_log

        def counting(self, *args, **kwargs):
            fits[0] += 1
            return train_from_log(self, *args, **kwargs)

        monkeypatch.setattr(PerformanceModel, "train_from_log", counting)
        return fits

    @staticmethod
    def _fleet_setup(tiny_setup):
        workload, _, config = tiny_setup
        return workload, Cluster.from_names(["x", "y", "z"], seed=0), config

    def test_only_pretraining_fits(self, monkeypatch, tiny_setup):
        fits = self._count_fits(monkeypatch)
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        assert scheduler.simulator is None and scheduler.perf_model is None  # nothing to fit on yet
        scheduler.prepare(history_rounds=2)
        assert fits[0] == 0, "prepare"
        scheduler.train(num_updates=0, pretrain_updates=0, keep_best=False)
        assert fits[0] == 0, "train(0, 0)"
        assert scheduler.schedule(round_id=0).makespan > 0
        assert len(scheduler.serve(num_tenants=2).tenants) == 2
        assert fits[0] == 0, "schedule / serve"
        scheduler.train(num_updates=1, pretrain_updates=1)
        assert fits[0] == 1 and "pretrain" in scheduler.timings
        assert isinstance(scheduler.simulator, SimulatedCluster)
        assert scheduler.perf_model is scheduler.simulator.perf
        assert fits[0] == 1

    def test_lsched_never_fits(self, monkeypatch, tiny_setup):
        fits = self._count_fits(monkeypatch)
        workload, engine, config = tiny_setup
        scheduler = LSchedScheduler(workload, engine, config)
        assert scheduler.simulator is None
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1, pretrain_updates=1)
        assert scheduler.simulator is None and scheduler.perf_model is None
        assert fits[0] == 0

    @pytest.mark.parametrize("fleet", [False, True], ids=["engine", "fleet3"])
    def test_first_read_equals_eager_fit(self, tiny_setup, fleet):
        workload, engine, config = self._fleet_setup(tiny_setup) if fleet else tiny_setup
        scheduler = BQSched(workload, engine, config).prepare(history_rounds=2)
        expected = _eager_perf_model(scheduler)
        assert scheduler.simulator.num_instances == (3 if fleet else 1)
        _assert_same_weights(expected, scheduler.perf_model)
        assert scheduler.perf_model._program._step_count == expected._program._step_count

    @pytest.mark.parametrize("fleet", [False, True], ids=["engine", "fleet3"])
    def test_ingest_before_first_read_equals_eager_fit_then_update(self, tiny_setup, fleet):
        workload, engine, config = self._fleet_setup(tiny_setup) if fleet else tiny_setup
        scheduler = BQSched(workload, engine, config).prepare(history_rounds=2)
        expected = _eager_perf_model(scheduler)
        batch = scheduler.batch
        log = engine.collect_logs(
            batch, [[q.query_id for q in batch]], scheduler.config_space.default, num_connections=2
        )
        scheduler.ingest_online_log(log)
        expected.update_from_log(log)
        _assert_same_weights(expected, scheduler.perf_model)

    def test_prepare_twice_then_read_fits_once_after_the_second(self, monkeypatch, tiny_setup):
        fits = self._count_fits(monkeypatch)
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        scheduler.prepare(history_rounds=2)
        scheduler.prepare(history_rounds=2)
        assert fits[0] == 0 and len(scheduler.history_log) == 4
        model = scheduler.perf_model
        assert fits[0] == 1
        _assert_same_weights(_eager_perf_model(scheduler), model)

    def test_prepare_drops_a_fitted_model(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        scheduler.prepare(history_rounds=2)
        first = scheduler.perf_model
        scheduler.prepare(history_rounds=2)
        assert scheduler.perf_model is not first
        _assert_same_weights(_eager_perf_model(scheduler), scheduler.perf_model)


class TestValidationRounds:
    def test_train_validates_on_pinned_round_ids(self, monkeypatch, tiny_setup):
        """Keep-best round ids come from ``90_000 + len(timings)``: a ``timings`` key added
        before a validation would move every validation round, and with it the policy kept."""
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        seen = []
        evaluate = scheduler.evaluate

        def recording(env, rounds=1, base_round_id=0):
            seen.append(base_round_id)
            return evaluate(env, rounds=rounds, base_round_id=base_round_id)

        monkeypatch.setattr(scheduler, "evaluate", recording)
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1, pretrain_updates=1)
        assert seen == [90_001, 90_002, 90_002]

    @pytest.mark.parametrize(
        "updates, expected",
        [((1, 0), [90_001, 90_001]), ((0, 1), [90_001, 90_002]), ((1, 1), [90_001, 90_002, 90_002])],
        ids=["finetune", "pretrain", "both"],
    )
    def test_a_start_that_trains_validates_the_initialisation_first(self, monkeypatch, tiny_setup, updates, expected):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config).prepare(history_rounds=2)
        seen = []
        evaluate = scheduler.evaluate

        def recording(env, rounds=1, base_round_id=0):
            seen.append((base_round_id, [param.data for param in scheduler.policy.parameters()]))
            return evaluate(env, rounds=rounds, base_round_id=base_round_id)

        initial = [param.data for param in scheduler.policy.parameters()]
        monkeypatch.setattr(scheduler, "evaluate", recording)
        scheduler.train(*updates)
        assert [round_id for round_id, _ in seen] == expected
        assert all(a is b for a, b in zip(seen[0][1], initial))

    @pytest.mark.parametrize("updates", [(0, 0), (0,)], ids=["train(0, 0)", "train(0)"])
    def test_a_start_that_trains_nothing_runs_no_round_and_fits_nothing(self, monkeypatch, tiny_setup, updates):
        """No validation round, no engine session, no simulator fit, no optimizer step: every
        policy parameter is still the array it was (no snapshot was loaded back)."""
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config).prepare(history_rounds=2)
        calls = []

        def forbid(owner, name):
            original = getattr(owner, name)

            def record(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, record)

        forbid(BaseScheduler, "evaluate")
        forbid(DatabaseEngine, "new_session")
        forbid(PerformanceModel, "train_from_log")
        forbid(Adam, "step")
        forbid(AdamSlabs, "step")
        initial = [param.data for param in scheduler.policy.parameters()]
        history = scheduler.train(*updates)
        assert calls == [] and history.policy_losses == []
        assert all(param.data is data for param, data in zip(scheduler.policy.parameters(), initial))
        assert scheduler.timings.keys() == {"prepare", "finetune", "train_total"}


class TestTrainingMemory:
    def test_pretrainer_is_unreachable_when_fine_tuning_starts(self, monkeypatch, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        built, seen = [], []
        make_trainer, update = BQSched._make_trainer, PPOTrainer.update

        def recording_make_trainer(self, env, num_envs=None):
            trainer = make_trainer(self, env, num_envs)
            built.append((weakref.ref(trainer), weakref.ref(trainer.optimizer), weakref.ref(trainer.vec_env)))
            return trainer

        def checking_update(self, buffer):
            if self is scheduler.trainer and not seen:
                seen.append([ref() is None for ref in built[0]])
            return update(self, buffer)

        monkeypatch.setattr(BQSched, "_make_trainer", recording_make_trainer)
        monkeypatch.setattr(PPOTrainer, "update", checking_update)
        scheduler.prepare(history_rounds=2)
        gc.disable()  # freed by reference counting, not by a collection
        try:
            scheduler.train(num_updates=1, pretrain_updates=1)
        finally:
            gc.enable()
        assert len(built) == 2 and built[1][0]() is scheduler.trainer
        assert seen == [[True, True, True]]

    def test_train_keeps_no_training_only_copy(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1, pretrain_updates=1)
        assert scheduler._best_state is None
        arena = scheduler._update_arena
        assert arena.nbytes == 0 and not arena._used and not any(arena._free.values())
        # The fine-tuner keeps the emptied pool: a further update refills it.
        assert scheduler.trainer.arena is scheduler._update_arena
        scheduler.trainer.train(1)
        assert scheduler._update_arena.nbytes > 0


class TestLSched:
    def test_lsched_disables_bqsched_features(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = LSchedScheduler(workload, engine, config)
        assert not scheduler.use_masking
        assert not scheduler.use_simulator
        assert scheduler.algorithm == "ppo"
        assert scheduler.mask.masked_fraction() == 0.0

    def test_lsched_trains_and_schedules(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = LSchedScheduler(workload, engine, config)
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1)
        result = scheduler.schedule(round_id=5)
        assert result.num_queries == workload.num_queries


class TestClusteringIntegration:
    def test_bqsched_enables_clustering_for_large_sets(self):
        workload = make_workload("tpcds", scale_factor=1.0, query_scale=2.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        config.clustering.num_clusters = 20
        scheduler = BQSched(workload, engine, config)
        assert scheduler.use_clustering

    def test_clustering_arm_leaves_the_config_alone(self):
        """Switching clustering on for a large batch is the scheduler's own arm: a later
        scheduler built from the same config clusters only if its own batch is large."""
        config = BQSchedConfig.small(seed=0)
        before = copy.deepcopy(config)
        large = BQSched(
            make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0),
            DatabaseEngine(DBMSProfile.dbms_x(), seed=0),
            config,
        )
        assert len(large.batch) == 158 and large.use_clustering
        assert config == before
        small = BQSched(
            make_workload("tpcds", scale_factor=1.0, seed=0), DatabaseEngine(DBMSProfile.dbms_x(), seed=0), config
        )
        assert len(small.batch) == 99 and not small.use_clustering

    def test_cluster_level_scheduling_completes(self, tiny_setup):
        workload, engine, config_base = tiny_setup
        config = BQSchedConfig.small(seed=0)
        config.scheduler.num_connections = 4
        config.ppo = PPOConfig(rollouts_per_update=1, epochs_per_update=1, minibatch_size=8, aux_every=2, aux_epochs=1)
        config.clustering.num_clusters = 6
        scheduler = BQSched(workload, engine, config)
        scheduler.use_clustering = True
        scheduler.prepare(history_rounds=2)
        assert scheduler.clusters is not None
        assert scheduler.env.cluster_mode
        result = scheduler.schedule(round_id=0)
        assert result.num_queries == workload.num_queries


class TestNoTapeAtRunTime:
    """The library builds no autograd tape node outside tests: set-up, prepare, train, schedule and serve."""

    @staticmethod
    def _count_tape_nodes(monkeypatch) -> list[int]:
        from repro.nn.tensor import Tensor

        made = [0]
        make_child = Tensor._make_child

        def counting(self, *args, **kwargs):
            made[0] += 1
            return make_child(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "_make_child", counting)
        return made

    @pytest.mark.parametrize("fleet", [None, ("x", "z")])
    def test_construct_prepare_train_schedule_serve(self, monkeypatch, fleet):
        from repro import Cluster

        made = self._count_tape_nodes(monkeypatch)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0) if fleet is None else Cluster.from_names(fleet, seed=0)
        scheduler = BQSched(workload, engine, BQSchedConfig.small(seed=0))
        assert made[0] == 0, "construction"
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=1, pretrain_updates=1)
        assert scheduler.schedule(round_id=0).makespan > 0
        assert len(scheduler.serve(num_tenants=2).tenants) == 2
        assert made[0] == 0

    def test_large_clustered_construct_and_prepare(self, monkeypatch):
        made = self._count_tape_nodes(monkeypatch)
        workload = make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0)
        scheduler = BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), BQSchedConfig(seed=0))
        scheduler.prepare(history_rounds=2)
        assert scheduler.clusters is not None and len(scheduler.batch) == 158
        assert made[0] == 0
