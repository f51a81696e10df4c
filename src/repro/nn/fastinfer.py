"""The float32 decision program: every action-sampling and greedy forward.

A ``no_grad`` forward through :mod:`repro.nn.tensor` allocates one
:class:`Tensor` per operation, which dwarfs the arithmetic at hot-path sizes.
This program (:func:`packed`, :func:`mlp32`, :func:`encoder32`) runs the
policy's forward over float32 weights copied once per parameter version
(:class:`Float32Pack`).  It normalises attention after ``P·V``, shifts
scores by their max only when they could overflow ``exp``, and takes
BatchNorm's per-state token norm over batch statistics, like the tape and
the training kernels; it agrees with the tape to float32 rounding.  Every
float64 forward (QueryFormer's plan embedding, the simulator's ``predict``,
the update steps) runs :mod:`repro.nn.fastgrad`'s layer kernels instead.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable

import numpy as np

from .attention import AttentionEncoder
from .functional import MASK_VALUE
from .layers import MLP, NORM_EPS, BatchNorm, Linear, Module, Parameter

__all__ = [
    "Float32Pack",
    "packed",
    "mlp32",
    "mlp32_shared",
    "encoder32",
    "masked_argmax",
    "masked_log_softmax_array",
    "MASK_VALUE",
]


class Float32Pack:
    """float32 copies of the parameters one decision forward reads, laid out by ``build(pack)``.

    Each copy records its :class:`Parameter` and the array it held, and
    :meth:`current` is an identity walk over that flat list: ``Adam.step``,
    ``SGD.step`` and ``load_state_dict`` (so the keep-best restore) replace
    ``param.data`` and never write into it.  Writing into one in place
    requires dropping the owner's pack.
    """

    def __init__(self, build: Callable[["Float32Pack"], Any]) -> None:
        self._params: list[Parameter] = []
        self._arrays: list[np.ndarray] = []
        self.weights = build(self)

    def current(self) -> bool:
        return all(map(operator.is_, map(operator.attrgetter("data"), self._params), self._arrays))

    def __call__(self, param: Parameter) -> np.ndarray:
        self._params.append(param)
        self._arrays.append(param.data)
        return param.data.astype(np.float32)

    def mlp(self, mlp: MLP) -> list:
        """``[weight, bias, in-place activation or None]`` per Linear."""
        layers: list = []
        for module in mlp.net:
            if isinstance(module, Linear):
                layers.append([self(module.weight), self(module.bias), None])
            else:
                layers[-1][2] = _IN_PLACE[module.name]
        return layers

    def encoder(self, encoder: AttentionEncoder) -> list:
        """``(qkv_weight, qkv_bias, out_weight, out_bias, heads, norm1, feedforward, norm2)`` per block; Q
        is pre-scaled by ``1/sqrt(head_dim)``, each head's V gets a ones column (zero weights, unit bias)."""
        blocks = []
        for index in range(encoder.num_layers):
            block = encoder._modules[f"block_{index}"]
            mha = block.attention
            heads, head_dim, width = mha.num_heads, mha.head_dim, mha.model_dim
            scale = np.float32(1.0 / np.sqrt(head_dim))
            v_weight = np.pad(self(mha.value_proj.weight).reshape(width, heads, head_dim), ((0, 0), (0, 0), (0, 1)))
            v_bias = np.pad(self(mha.value_proj.bias).reshape(heads, head_dim), ((0, 0), (0, 1)), constant_values=1)
            q_proj, k_proj = mha.query_proj, mha.key_proj
            blocks.append((
                np.concatenate([self(q_proj.weight) * scale, self(k_proj.weight), v_weight.reshape(width, -1)], axis=1),
                np.concatenate([self(q_proj.bias) * scale, self(k_proj.bias), v_bias.reshape(-1)]),
                self(mha.out_proj.weight), self(mha.out_proj.bias), heads,
                self.norm(block.norm1), self.mlp(block.feedforward), self.norm(block.norm2),
            ))  # fmt: skip
        return blocks

    def norm(self, norm: BatchNorm) -> Callable[[np.ndarray], np.ndarray]:
        return functools.partial(_norm32, gamma=self(norm.gamma), beta=self(norm.beta))


def packed(owner: Module, build: Callable[[Float32Pack], Any]) -> Any:
    """``owner``'s :class:`Float32Pack` weights, rebuilt only when a parameter was replaced."""
    pack = getattr(owner, "_float32_pack", None)
    if pack is None or not pack.current():
        pack = owner._float32_pack = Float32Pack(build)
    return pack.weights


#: The float32 program's activations, each in place on the fresh GEMM output it follows
#: (no policy MLP uses sigmoid, so it keeps its out-of-place form).
_IN_PLACE = {
    "tanh": lambda x: np.tanh(x, out=x),
    "relu": lambda x: np.maximum(x, 0, out=x),
    "sigmoid": lambda x: np.copyto(x, 1.0 / (1.0 + np.exp(-x))),
    "identity": lambda x: x,
}


def mlp32(layers: list, x: np.ndarray) -> np.ndarray:
    """A packed MLP over the last axis: one 2-D GEMM per layer whatever the leading shape."""
    lead = x.shape[:-1]
    x = x.reshape(-1, x.shape[-1])
    for weight, bias, activation in layers:
        x = x @ weight
        x += bias
        if activation is not None:
            activation(x)
    return x.reshape(*lead, x.shape[-1])


def mlp32_shared(layers: list, x: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """:func:`mlp32` whose layer 1 adds ``shared`` (bias included) in ``x``'s leading shape instead of its bias.

    ``shared`` is the part of layer 1 that rows have in common (it broadcasts
    over them), computed once by the caller: ``x`` carries only the columns
    that differ per row.
    """
    (weight, _, activation), *rest = layers
    hidden = x @ weight
    hidden += shared
    if activation is not None:
        activation(hidden)
    return mlp32(rest, hidden)


def _norm32(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """BatchNorm over each state's own tokens (axis 1 of ``(B, tokens, width)``), in place on ``x``.

    The mean and variance are scaled and rooted in place, equal bit for bit
    to ``gamma / (var + NORM_EPS) ** 0.5``.
    """
    inv_count = 1.0 / x.shape[1]
    mean = x.sum(axis=1, keepdims=True)
    mean *= inv_count
    x -= mean
    var = (x * x).sum(axis=1, keepdims=True)
    var *= inv_count
    var += NORM_EPS
    np.sqrt(var, out=var)
    x *= gamma / var
    x += beta
    return x


#: Largest score magnitude the float32 softmax exponentiates without the shift
#: by max.  e^±60 is a normal float32 (1.1e26 and 8.8e-27, against the 3.4e38
#: maximum and the 1.2e-38 smallest normal), so with every score inside ±60
#: each denominator is > 0 without the ``exp(0)`` the max used to contribute,
#: and a sum of n terms, each at most e^60 times |v|, stays far below overflow.
_EXP_SAFE = 60.0


def _needs_shift(scores: np.ndarray) -> bool:
    """Whether some score lies outside ±:data:`_EXP_SAFE` (two read-only reductions)."""
    return bool(scores.max() > _EXP_SAFE or scores.min() < -_EXP_SAFE)


def _attention32(qkv: np.ndarray, heads: int, batch: int, tokens: int, width: int) -> np.ndarray:
    """Attention over packed ``(batch*tokens, [Q | K | V,1 per head])`` rows, out as ``(batch*tokens, width)``.

    Key-major scores make the per-query max a column reduce, taken only when
    a score lies outside ±:data:`_EXP_SAFE` (both forms compute the same
    softmax); one ``Eᵀ·[V | 1]`` GEMM yields each numerator with its softmax
    denominator (> 0 either way).  Its own function so a block's scores die
    before the next block's: two alive at once let glibc trim and re-fault
    them per call.
    """
    head_dim = width // heads
    queries, keys, values = (
        qkv[:, columns].reshape(batch, tokens, heads, -1).transpose(0, 2, 1, 3)
        for columns in (slice(0, width), slice(width, 2 * width), slice(2 * width, None))
    )
    scores = keys @ queries.transpose(0, 1, 3, 2)
    if _needs_shift(scores):
        scores -= scores.max(axis=2, keepdims=True)
    np.exp(scores, out=scores)
    mixed = scores.transpose(0, 1, 3, 2) @ values
    normalised = np.empty((batch, tokens, heads, head_dim), dtype=np.float32)
    np.divide(mixed[..., :head_dim], mixed[..., head_dim:], out=normalised.transpose(0, 2, 1, 3))
    return normalised.reshape(batch * tokens, width)


def encoder32(blocks: list, x: np.ndarray) -> np.ndarray:
    """The packed attention stack over ``(batch, tokens, width)``; no blocks returns ``x``."""
    for qkv_weight, qkv_bias, out_weight, out_bias, heads, norm1, feedforward, norm2 in blocks:
        batch, tokens, width = x.shape
        qkv = x.reshape(batch * tokens, width) @ qkv_weight
        qkv += qkv_bias
        attended = _attention32(qkv, heads, batch, tokens, width) @ out_weight
        attended += out_bias
        attended = attended.reshape(batch, tokens, width)
        attended += x
        attended = norm1(attended)
        x = mlp32(feedforward, attended)
        x += attended
        x = norm2(x)
    return x


def _checked_mask(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask`` as booleans, after checking its shape and that every row allows something."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    empty = ~mask.any(axis=-1).reshape(-1)
    if empty.any():
        row = int(np.argmax(empty))
        raise ValueError(f"masked_log_softmax requires at least one unmasked entry; row {row} of {empty.size} has none")
    return mask


def masked_argmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row index of the largest allowed logit (the first one on a tie), under the same mask checks."""
    mask = _checked_mask(logits, mask)
    return np.argmax(np.where(mask, logits, -np.inf), axis=-1)


def masked_log_softmax_array(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """NumPy twin of :func:`repro.nn.masked_log_softmax` (last-axis rows)."""
    mask = _checked_mask(logits, mask)
    zero = logits.dtype.type(0.0)
    shifted = logits + np.where(mask, zero, logits.dtype.type(MASK_VALUE))
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
