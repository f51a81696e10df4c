"""Shared fixtures: a small workload, engine, knowledge and environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import AdaptiveMask, ExternalKnowledge, SchedulingEnv, ppo
from repro.dbms import ConfigurationSpace


@pytest.fixture(scope="session")
def small_config() -> BQSchedConfig:
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    return config


@pytest.fixture(scope="session")
def tpch_workload():
    return make_workload("tpch", scale_factor=1.0, seed=0)


@pytest.fixture(scope="session")
def tpcds_workload():
    return make_workload("tpcds", scale_factor=1.0, seed=0)


@pytest.fixture(scope="session")
def job_workload():
    return make_workload("job", scale_factor=1.0, seed=0)


@pytest.fixture(scope="session")
def engine_x():
    return DatabaseEngine(DBMSProfile.dbms_x(), seed=0)


@pytest.fixture(scope="session")
def engine_z():
    return DatabaseEngine(DBMSProfile.dbms_z(), seed=0)


@pytest.fixture(scope="session")
def tpch_batch(tpch_workload):
    return tpch_workload.batch_query_set()


@pytest.fixture(scope="session")
def config_space():
    return ConfigurationSpace()


@pytest.fixture(scope="session")
def tpch_knowledge(engine_x, tpch_batch, config_space):
    return ExternalKnowledge.from_probes(engine_x, tpch_batch, config_space)


@pytest.fixture()
def tpch_env(tpch_batch, engine_x, small_config, config_space, tpch_knowledge):
    return SchedulingEnv(
        batch=tpch_batch,
        backend=engine_x,
        scheduler_config=small_config.scheduler,
        config_space=config_space,
        knowledge=tpch_knowledge,
        mask=AdaptiveMask.unmasked(len(tpch_batch), len(config_space)),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def one_aux_epoch():
    """One optimizer step per PPG / IQ-PPO auxiliary phase instead of ``AUX_EPOCHS``, for a whole module:
    its trainers are sized for speed, and the pinned training digests were taken at one step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ppo, "AUX_EPOCHS", 1)
        yield
