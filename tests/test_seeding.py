"""Seeding audit: one SeedSpawner tree, identical config ⇒ identical results."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BQSchedConfig, Cluster, DatabaseEngine, DBMSProfile, LSchedScheduler, make_workload
from repro.core import AdaptiveMask, ExternalKnowledge, FIFOScheduler, SchedulingEnv
from repro.dbms import ConfigurationSpace
from repro.seeding import SeedSpawner, stable_tag_hash
from repro.workloads import PoissonArrivals


class TestSeedSpawner:
    def test_root_generator_matches_plain_default_rng(self):
        """SeedSpawner(s).generator() is the historical default_rng(s) stream."""
        a = SeedSpawner(7).generator().random(8)
        b = np.random.default_rng(7).random(8)
        np.testing.assert_array_equal(a, b)

    def test_derive_matches_historical_tuple_entropy(self):
        """derive(...) reproduces the ad-hoc default_rng((seed, ...)) streams."""
        a = SeedSpawner(3).derive(11, 0x5EED).random(8)
        b = np.random.default_rng((3, 11, 0x5EED)).random(8)
        np.testing.assert_array_equal(a, b)

    def test_child_extends_entropy(self):
        spawner = SeedSpawner(0)
        assert spawner.child("instance", 2).entropy == spawner.entropy + (
            stable_tag_hash("instance"),
            2,
        )
        np.testing.assert_array_equal(
            spawner.child("a").derive("b").random(4),
            spawner.derive("a", "b").random(4),
        )

    def test_string_tags_are_stable_and_distinct(self):
        assert stable_tag_hash("engine") == stable_tag_hash("engine")
        assert stable_tag_hash("engine") != stable_tag_hash("simulator")
        assert stable_tag_hash(42) == 42
        assert 0 <= stable_tag_hash("anything") < 2**32

    def test_integer_seed_deterministic_and_bounded(self):
        spawner = SeedSpawner(5)
        seed = spawner.integer_seed("instance", 0)
        assert seed == SeedSpawner(5).integer_seed("instance", 0)
        assert seed != spawner.integer_seed("instance", 1)
        assert 0 <= seed < 2**63

    def test_requires_entropy(self):
        with pytest.raises(ValueError):
            SeedSpawner()
        with pytest.raises(ValueError):
            SeedSpawner(0).child()

    def test_engine_streams_route_through_spawner(self):
        """The engine's per-round noise is the spawner-derived stream."""
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=9)
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        batch = workload.batch_query_set()
        session = engine.new_session(batch, num_connections=4, round_id=3)
        reference = SeedSpawner(9).derive(3, 0x5EED)
        expected = {
            q.query_id: float(np.exp(reference.normal(0.0, engine.profile.noise))) for q in batch
        }
        assert session.instances[0]._noise == expected

    def test_config_exposes_the_root_spawner(self):
        config = BQSchedConfig.small(seed=13)
        assert config.seed_spawner().entropy == (13,)


def _scenario(seed=0):
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    config = BQSchedConfig.small(seed=seed)
    config.scheduler.num_connections = 4
    space = ConfigurationSpace()
    return workload, batch, config, space


def _round_signature(round_log):
    return [(r.query_id, r.connection, r.submit_time, r.finish_time) for r in round_log.records]


class TestCrossPathDeterminism:
    """Regression: identical config ⇒ identical results on every path."""

    def test_env_path(self):
        signatures = []
        for _ in range(2):
            workload, batch, config, space = _scenario()
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=config.seed)
            knowledge = ExternalKnowledge.from_probes(engine, batch, space)
            env = SchedulingEnv(
                batch=batch,
                backend=engine,
                scheduler_config=config.scheduler,
                config_space=space,
                knowledge=knowledge,
                mask=AdaptiveMask.unmasked(len(batch), len(space)),
            )
            result = FIFOScheduler().run_round(env, round_id=0)
            signatures.append(_round_signature(result.round_log))
        assert signatures[0] == signatures[1]

    def test_vecenv_path(self):
        """Vectorized rollout collection is reproducible from the config alone."""
        histories = []
        for _ in range(2):
            workload, batch, config, space = _scenario()
            config.ppo.num_envs = 2
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=config.seed)
            scheduler = LSchedScheduler(workload, engine, config)
            scheduler.prepare(history_rounds=1)
            trainer = scheduler._make_trainer(scheduler.env)
            buffer = trainer.collect_rollouts(2)
            histories.append(
                (buffer.episode_makespans(), [t.action for t in buffer.transitions()])
            )
        assert histories[0] == histories[1]

    def test_runtime_path(self):
        """Streaming multi-tenant serving is reproducible from the config alone."""
        reports = []
        for _ in range(2):
            workload, batch, config, space = _scenario()
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=config.seed)
            scheduler = LSchedScheduler(workload, engine, config)
            report = scheduler.serve(num_tenants=2, arrivals=PoissonArrivals(rate=3.0))
            reports.append(report.as_dict())
        assert reports[0] == reports[1]

    def test_cluster_path(self):
        """Cluster rounds are reproducible, and per-instance seeds derive from one root."""
        signatures = []
        for _ in range(2):
            cluster = Cluster.from_names(["x", "y", "z"], seed=4)
            workload, batch, config, space = _scenario(seed=4)
            log = cluster.execute_order(
                batch, [q.query_id for q in batch], space.default, num_connections=2, round_id=0
            )
            signatures.append(_round_signature(log))
        assert signatures[0] == signatures[1]
        spawner = SeedSpawner(4)
        cluster = Cluster.from_names(["x", "y", "z"], seed=4)
        assert [engine.seed for engine in cluster.engines] == [
            spawner.integer_seed("instance", index) for index in range(3)
        ]
