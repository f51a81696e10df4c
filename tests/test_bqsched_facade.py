"""End-to-end tests of the BQSched / LSched facades on a small query subset."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import PPOConfig
from repro.core import LSchedScheduler, FIFOScheduler
from repro.core.ppo import PPOTrainer


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
    scheduler.train(num_updates=2, pretrain_updates=1, history_rounds=2)
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

    def test_from_workload_constructor(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = LSchedScheduler.from_workload(workload, engine, config, seed=3)
        assert scheduler.config.seed == 3


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
        gc.disable()  # freed by reference counting, not by a collection
        try:
            scheduler.train(num_updates=1, pretrain_updates=1, history_rounds=2)
        finally:
            gc.enable()
        assert len(built) == 2 and built[1][0]() is scheduler.trainer
        assert seen == [[True, True, True]]

    def test_train_keeps_no_training_only_copy(self, tiny_setup):
        workload, engine, config = tiny_setup
        scheduler = BQSched(workload, engine, config)
        scheduler.train(num_updates=1, pretrain_updates=1, history_rounds=2)
        assert scheduler._best_state is None
        assert scheduler._update_arena.nbytes == 0 and scheduler._update_arena.num_buffers == 0
        # The fine-tuner keeps the emptied pool: a further update refills it.
        assert scheduler.trainer.arena is scheduler._update_arena
        scheduler.trainer.train(1, eval_every=0)
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
        scheduler.train(num_updates=1, history_rounds=2)
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
        before = config.to_dict()
        large = BQSched(
            make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0),
            DatabaseEngine(DBMSProfile.dbms_x(), seed=0),
            config,
        )
        assert len(large.batch) == 158 and large.use_clustering
        assert config.to_dict() == before
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
        scheduler.train(num_updates=1, pretrain_updates=1, history_rounds=2)
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
