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
from repro.exceptions import ConfigurationError


class TestEncoderConfig:
    def test_defaults_valid(self):
        EncoderConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"plan_embedding_dim": 0},
            {"node_hidden_dim": 30, "tree_heads": 4},
            {"state_dim": 30, "state_heads": 4},
            {"tree_layers": 0},
            {"mlp_layers": 0},
            {"norm": "instance"},
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
            {"learning_rate": 0.0},
            {"gamma": 1.5},
            {"gae_lambda": -0.1},
            {"clip_epsilon": 1.0},
            {"epochs_per_update": 0},
            {"rollouts_per_update": 0},
            {"aux_every": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PPOConfig(**kwargs)


class TestSchedulerConfig:
    def test_num_configurations(self):
        config = SchedulerConfig(worker_options=(1, 2, 4), memory_options=(64, 256))
        assert config.num_configurations == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_connections": 0},
            {"worker_options": ()},
            {"memory_options": ()},
            {"worker_options": (0,)},
            {"memory_options": (-64,)},
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
        with pytest.raises(ConfigurationError):
            ClusteringConfig(intra_cluster_order="lifo")

    def test_simulator_validation(self):
        SimulatorConfig()
        with pytest.raises(ConfigurationError):
            SimulatorConfig(hidden_dim=0)
        with pytest.raises(ConfigurationError):
            SimulatorConfig(gamma_regression=-0.5)

    def test_bqsched_config_to_dict_and_small(self):
        config = BQSchedConfig.small(seed=7)
        payload = config.to_dict()
        assert payload["seed"] == 7
        assert payload["encoder"]["plan_embedding_dim"] == 16
        assert BQSchedConfig().encoder.plan_embedding_dim >= config.encoder.plan_embedding_dim
