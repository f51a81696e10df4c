"""Multi-head attention and the attention encoder block used by BQSched.

Two flavours of attention are needed by the paper:

* plain multi-head self-attention over the batch-query token sequence
  (Section III-A, the state representation), and
* *tree-bias* attention inside QueryFormer (Section III-A, single query
  representation), where an additive bias derived from tree distances is
  injected into the attention scores before the softmax.

Both are covered by :class:`MultiHeadAttention`, which accepts an optional
additive bias matrix.
"""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm, LayerNorm, Linear, MLP, Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "AttentionBlock", "AttentionEncoder"]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with multiple heads over one sequence.

    Input is a ``(tokens, model_dim)`` tensor; output has the same shape.
    An optional additive ``bias`` of shape ``(tokens, tokens)`` is added to
    the attention scores of every head (used for tree-bias attention).

    A 3-D input ``(batch, tokens, model_dim)`` runs one stacked forward over
    B independent sequences (the vectorized rollout/minibatch path); each
    element attends only within itself and the optional bias is shared.
    """

    def __init__(self, model_dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(f"model_dim {model_dim} must be divisible by num_heads {num_heads}")
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.query_proj = Linear(model_dim, model_dim, rng)
        self.key_proj = Linear(model_dim, model_dim, rng)
        self.value_proj = Linear(model_dim, model_dim, rng)
        self.out_proj = Linear(model_dim, model_dim, rng)

    def forward(self, x: Tensor, bias: np.ndarray | None = None) -> Tensor:
        if x.ndim == 3:
            return self._forward_batched(x, bias)
        tokens = x.shape[0]
        queries = self.query_proj(x).reshape(tokens, self.num_heads, self.head_dim).transpose(1, 0, 2)
        keys = self.key_proj(x).reshape(tokens, self.num_heads, self.head_dim).transpose(1, 0, 2)
        values = self.value_proj(x).reshape(tokens, self.num_heads, self.head_dim).transpose(1, 0, 2)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (queries @ keys.transpose(0, 2, 1)) * scale
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (tokens, tokens):
                raise ValueError(f"attention bias shape {bias.shape} != ({tokens}, {tokens})")
            scores = scores + Tensor(bias[None, :, :])
        weights = scores.softmax(axis=-1)
        mixed = weights @ values
        mixed = mixed.transpose(1, 0, 2).reshape(tokens, self.model_dim)
        return self.out_proj(mixed)

    def _forward_batched(self, x: Tensor, bias: np.ndarray | None = None) -> Tensor:
        batch, tokens = x.shape[0], x.shape[1]

        def heads(proj: Linear) -> Tensor:
            return proj(x).reshape(batch, tokens, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        queries, keys, values = heads(self.query_proj), heads(self.key_proj), heads(self.value_proj)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (queries @ keys.transpose(0, 1, 3, 2)) * scale
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (tokens, tokens):
                raise ValueError(f"attention bias shape {bias.shape} != ({tokens}, {tokens})")
            scores = scores + Tensor(bias[None, None, :, :])
        weights = scores.softmax(axis=-1)
        mixed = (weights @ values).transpose(0, 2, 1, 3).reshape(batch, tokens, self.model_dim)
        return self.out_proj(mixed)


class AttentionBlock(Module):
    """One encoder layer: MHA + feed-forward, each with skip connection + norm.

    Mirrors the paper's formulation ``x_hat = BN(x + MHA(x))`` followed by
    ``x' = BN(x_hat + FF(x_hat))``.  ``norm`` selects batch normalisation
    (paper default) or layer normalisation.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        norm: str = "batch",
    ) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(model_dim, num_heads, rng)
        self.feedforward = MLP([model_dim, 2 * model_dim, model_dim], rng, activation="relu")
        if norm == "batch":
            self.norm1: Module = BatchNorm(model_dim)
            self.norm2: Module = BatchNorm(model_dim)
        elif norm == "layer":
            self.norm1 = LayerNorm(model_dim)
            self.norm2 = LayerNorm(model_dim)
        else:
            raise ValueError(f"unknown norm {norm!r}; expected 'batch' or 'layer'")

    def forward(self, x: Tensor, bias: np.ndarray | None = None) -> Tensor:
        attended = self.norm1(x + self.attention(x, bias=bias))
        return self.norm2(attended + self.feedforward(attended))


class AttentionEncoder(Module):
    """A stack of :class:`AttentionBlock` layers sharing one bias matrix."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        num_layers: int,
        rng: np.random.Generator,
        norm: str = "batch",
    ) -> None:
        super().__init__()
        self.num_layers = num_layers
        for index in range(num_layers):
            block = AttentionBlock(model_dim, num_heads, rng, norm=norm)
            self.register_module(f"block_{index}", block)

    def forward(self, x: Tensor, bias: np.ndarray | None = None) -> Tensor:
        for index in range(self.num_layers):
            x = self._modules[f"block_{index}"](x, bias=bias)
        return x
