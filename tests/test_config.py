"""Configuration dataclass validation tests."""

from __future__ import annotations

import pytest

from repro.config import (
    BQSchedConfig,
    ClusteringConfig,
    EncoderConfig,
    MaskingConfig,
    PPOConfig,
    SchedulerConfig,
    SimulatorConfig,
)
from repro.dbms import ConfigurationSpace
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
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PPOConfig(**kwargs)


class TestSchedulerConfig:
    def test_num_configurations(self):
        space = ConfigurationSpace(SchedulerConfig(worker_options=(1, 2, 4), memory_options=(64, 256)))
        assert len(space) == 6
        assert len({(config.workers, config.memory_mb) for config in space}) == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"num_connections": 0}, id="num_connections=0"),
            pytest.param({"worker_options": ()}, id="worker_options=()"),
            pytest.param({"memory_options": ()}, id="memory_options=()"),
            pytest.param({"worker_options": (0,)}, id="worker_options=(0,)"),
            pytest.param({"memory_options": (-64,)}, id="memory_options=(-64,)"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(**kwargs)


class TestOtherConfigs:
    def test_masking_validation(self):
        MaskingConfig()
        with pytest.raises(ConfigurationError):
            MaskingConfig(min_absolute_gain=-1.0)
        with pytest.raises(ConfigurationError):
            MaskingConfig(min_relative_gain=1.5)

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
