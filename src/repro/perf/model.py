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

from ..exceptions import ConfigurationError
from ..nn import AttentionEncoder, Linear, MLP, Module, Tensor, fastinfer

__all__ = ["ConcurrentPredictionModel", "SimulatorMetrics"]


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
        num_heads: int = 2,
    ) -> None:
        super().__init__()
        self.use_attention = use_attention
        self.input_proj = Linear(feature_dim, hidden_dim, rng)
        if use_attention:
            self.encoder = AttentionEncoder(hidden_dim, num_heads, 1, rng, norm="layer")
            reason = fastinfer.fast_inference_reason(self.encoder)
            if reason is not None:
                raise ConfigurationError(f"ConcurrentPredictionModel has no tape-free forward: {reason}")
        self.classifier = MLP([hidden_dim, hidden_dim, 1], rng, activation="tanh")
        self.regressor = MLP([hidden_dim, hidden_dim, 1], rng, activation="tanh")

    def forward(self, features: np.ndarray) -> tuple[Tensor, Tensor]:
        """Return ``(class_logits, remaining_times)`` for ``(k, feature_dim)`` inputs."""
        tokens = self.input_proj(Tensor(features)).tanh()
        if self.use_attention:
            tokens = self.encoder(tokens)
        logits = self.classifier(tokens).reshape(features.shape[0])
        times = self.regressor(tokens).reshape(features.shape[0])
        return logits, times

    def predict(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free inference returning plain arrays (the rollout hot path).

        Bit-identical to :meth:`forward` but evaluated with raw NumPy, which
        is what keeps the simulator's ``advance`` cheap when N vectorized
        environments each advance their own session every decision round.
        """
        tokens = np.tanh(fastinfer.linear_forward(self.input_proj, features))
        if self.use_attention:
            tokens = fastinfer.attention_encoder_forward(self.encoder, tokens)
        logits = fastinfer.mlp_forward(self.classifier, tokens).reshape(features.shape[0])
        times = fastinfer.mlp_forward(self.regressor, tokens).reshape(features.shape[0])
        return logits, times

    def predict_batched(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free inference over a ``(groups, k, feature_dim)`` stack.

        One stacked forward serves every simulated session that needs an
        advance this lockstep round (grouped by equal ``k``), instead of one
        model call per session.  The working dtype follows the input, so
        float64 feature stacks produce predictions bit-identical to
        :meth:`predict` / :meth:`forward` row by row — batched rollouts share
        the sequential path's dynamics exactly.
        """
        groups, k = features.shape[0], features.shape[1]
        tokens = np.tanh(fastinfer.linear_forward(self.input_proj, features))
        if self.use_attention:
            tokens = fastinfer.attention_encoder_forward(self.encoder, tokens)
        logits = fastinfer.mlp_forward(self.classifier, tokens).reshape(groups, k)
        times = fastinfer.mlp_forward(self.regressor, tokens).reshape(groups, k)
        return logits, times
