"""Configuration dataclass validation tests."""

from __future__ import annotations

import pytest

from repro.config import (
    BQSchedConfig,
    ClusteringConfig,
    EncoderConfig,
    PPOConfig,
    SchedulerConfig,
    SimulatorConfig,
)
from repro.dbms import ConfigurationSpace
from repro.dbms.params import MEMORY_OPTIONS, WORKER_OPTIONS
from repro.exceptions import ConfigurationError


class TestEncoderConfig:
    def test_defaults_valid(self):
        EncoderConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"plan_embedding_dim": 0}, id="plan_embedding_dim=0"),
            pytest.param({"node_hidden_dim": 30, "tree_heads": 4}, id="node_hidden_dim=30,tree_heads=4"),
            pytest.param({"state_dim": 30, "state_heads": 4}, id="state_dim=30,state_heads=4"),
            pytest.param({"tree_layers": 0}, id="tree_layers=0"),
            pytest.param({"state_layers": 0}, id="state_layers=0"),
            pytest.param({"state_dim": 0}, id="state_dim=0"),
            pytest.param({"node_hidden_dim": 0}, id="node_hidden_dim=0"),
            pytest.param({"state_heads": 0}, id="state_heads=0"),
            pytest.param({"tree_heads": 0}, id="tree_heads=0"),
            pytest.param({"state_dim": -4, "state_heads": -2}, id="state_dim=-4,state_heads=-2"),
            pytest.param({"node_hidden_dim": -4, "tree_heads": -2}, id="node_hidden_dim=-4,tree_heads=-2"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EncoderConfig(**kwargs)


class TestPPOConfig:
    def test_defaults_valid(self):
        PPOConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"epochs_per_update": 0}, id="epochs_per_update=0"),
            pytest.param({"rollouts_per_update": 0}, id="rollouts_per_update=0"),
            pytest.param({"aux_every": 0}, id="aux_every=0"),
            pytest.param({"num_envs": 0}, id="num_envs=0"),
            pytest.param({"minibatch_size": 0}, id="minibatch_size=0"),
            pytest.param({"minibatch_size": -8}, id="minibatch_size=-8"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PPOConfig(**kwargs)


class TestSchedulerConfig:
    def test_num_configurations(self):
        space = ConfigurationSpace()
        assert len(space) == len(WORKER_OPTIONS) * len(MEMORY_OPTIONS) == 4
        # Ordered by (workers, memory): the engine-parity pins index configurations in this order.
        assert [(config.workers, config.memory_mb) for config in space] == [(1, 64), (1, 256), (2, 64), (2, 256)]
        assert space.index_of(space.default) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"num_connections": 0}, id="num_connections=0"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(**kwargs)


class TestOtherConfigs:
    def test_clustering_validation(self):
        ClusteringConfig()
        with pytest.raises(ConfigurationError):
            ClusteringConfig(num_clusters=0)

    def test_simulator_validation(self):
        SimulatorConfig()
        with pytest.raises(ConfigurationError):
            SimulatorConfig(hidden_dim=0)
        with pytest.raises(ConfigurationError):
            SimulatorConfig(gamma_regression=-0.5)

    def test_bqsched_config_small(self):
        config = BQSchedConfig.small(seed=7)
        assert config.seed == 7
        assert config.encoder.plan_embedding_dim == 16
        assert BQSchedConfig().encoder.plan_embedding_dim >= config.encoder.plan_embedding_dim
