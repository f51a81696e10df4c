"""The concurrent-query prediction network (paper Section IV-C).

A multitask model over the per-query feature rows of
:class:`~repro.perf.features.PerformanceFeaturizer`: a classifier over the
concurrent queries (which finishes first?) plus a regressor for the earliest
remaining time, optionally with an attention layer modelling the mutual
influence of the concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import AttentionEncoder, Linear, MLP, Module, fastgrad

__all__ = ["ConcurrentPredictionModel", "SimulatorMetrics"]

#: Attention heads of the simulator's one encoder layer.
NUM_HEADS = 2


@dataclass
class SimulatorMetrics:
    """Validation metrics of the prediction model (Table III)."""

    accuracy: float
    mse: float
    num_examples: int

    def __repr__(self) -> str:
        return f"SimulatorMetrics(acc={self.accuracy:.1%}, mse={self.mse:.3f}, n={self.num_examples})"


class ConcurrentPredictionModel(Module):
    """Multitask model: earliest-finisher classification + remaining-time regression."""

    def __init__(
        self,
        feature_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        use_attention: bool = True,
    ) -> None:
        super().__init__()
        self.use_attention = use_attention
        self.input_proj = Linear(feature_dim, hidden_dim, rng)
        if use_attention:
            self.encoder = AttentionEncoder(hidden_dim, NUM_HEADS, 1, rng, norm="layer")
        self.classifier = MLP([hidden_dim, hidden_dim, 1], rng, activation="tanh")
        self.regressor = MLP([hidden_dim, hidden_dim, 1], rng, activation="tanh")

    def predict(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(class_logits, remaining_times)`` of ``(k, feature_dim)`` rows, or per group of a ``(groups, k, f)`` stack.

        The rollout hot path: the ``repro.nn.fastgrad`` layer kernels run
        forward over a fresh arena, the rows as a batch of one.  One stacked
        forward serves every simulated session that needs an advance in a
        lock-step round (grouped by equal ``k``), and each group's
        predictions are bit-identical to predicting it alone, so batched
        rollouts share the sequential path's dynamics exactly.
        """
        weight, bias = self.input_proj.weight, self.input_proj.bias
        assert bias is not None  # built with one
        tokens = (features if features.ndim == 3 else features[None]) @ weight.data
        tokens += bias.data
        np.tanh(tokens, out=tokens)
        arena = fastgrad.Arena()
        if self.use_attention:
            tokens, _ = fastgrad.attention_encoder_forward(self.encoder, tokens, arena)
        logits, _ = fastgrad.mlp_forward(self.classifier, tokens, arena)
        times, _ = fastgrad.mlp_forward(self.regressor, tokens, arena)
        return logits.reshape(features.shape[:-1]), times.reshape(features.shape[:-1])
