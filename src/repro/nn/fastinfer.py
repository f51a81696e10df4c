"""Tape-free NumPy inference for small modules (the rollout hot path).

Building even a ``no_grad`` forward through :mod:`repro.nn.tensor` allocates
one :class:`Tensor` per operation, and for the tiny inputs of the rollout hot
path (a handful of concurrent queries) that Python overhead dwarfs the
arithmetic.  These helpers evaluate the same modules with raw NumPy, reading
parameter arrays directly, and are written to be bit-identical to the tensor
forward: same operation order, same shift-by-max softmax, same ``x * (x > 0)``
ReLU.

BatchNorm is supported too: its forward mutates running statistics, so
:func:`batch_norm_forward` replicates that side effect with the exact same
update expressions as the tensor path — skipping it would silently change
training behaviour.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionBlock, AttentionEncoder, MultiHeadAttention
from .layers import MLP, Activation, BatchNorm, LayerNorm, Linear

__all__ = [
    "linear_forward",
    "mlp_forward",
    "layer_norm_forward",
    "batch_norm_forward",
    "attention_forward",
    "attention_forward_batched",
    "attention_encoder_forward",
    "attention_encoder_forward_batched",
    "masked_log_softmax_array",
    "fast_inference_reason",
]


_F32_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _float32(array: np.ndarray) -> np.ndarray:
    """Cached ``float32`` copy of a parameter array.

    Keyed by the array's identity and holding a reference to it, so an
    optimizer step (which installs fresh arrays) can never alias a stale
    entry; the cache is rebuilt lazily after each update.
    """
    entry = _F32_CACHE.get(id(array))
    if entry is not None and entry[0] is array:
        return entry[1]
    copy = array.astype(np.float32)
    if len(_F32_CACHE) > 4096:
        _F32_CACHE.clear()
    _F32_CACHE[id(array)] = (array, copy)
    return copy


def _param(array: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Parameter array in the working dtype of ``like`` (float32 fast path)."""
    return _float32(array) if like.dtype == np.float32 else array


def linear_forward(layer: Linear, x: np.ndarray) -> np.ndarray:
    """``y = x W + b`` without tape bookkeeping (dtype follows ``x``).

    Batched ``(batch, tokens, dim)`` inputs in the float32 *sampling* path
    are flattened to one ``(batch*tokens, dim)`` GEMM: NumPy would otherwise
    loop ``batch`` tiny BLAS calls, and for rollout-sized tensors the
    per-call overhead dwarfs the arithmetic.  The float64 path keeps the
    strided form untouched — BLAS may pick a different kernel for the merged
    shape, and the simulator's ``predict_batched`` promises bit-identical
    rows to the sequential forward.  Sampling only promises tolerance-level
    agreement with the scalar tensor path, so the relayout is safe there.
    """
    weight = _param(layer.weight.data, x)
    if x.ndim == 3 and x.dtype == np.float32:
        batch, tokens, dim = x.shape
        out = (x.reshape(batch * tokens, dim) @ weight).reshape(batch, tokens, weight.shape[1])
    else:
        out = x @ weight
    if layer.bias is not None:
        out += _param(layer.bias.data, x)
    return out


_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: x * (x > 0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "identity": lambda x: x,
}


def mlp_forward(mlp: MLP, x: np.ndarray) -> np.ndarray:
    """Evaluate an :class:`MLP` (Linear/Activation stack) with raw NumPy."""
    for module in mlp.net:
        if isinstance(module, Linear):
            x = linear_forward(module, x)
        elif isinstance(module, Activation):
            x = _ACTIVATIONS[module.name](x)
        else:  # pragma: no cover - MLP only builds the two kinds above
            raise TypeError(f"unsupported module in MLP fast path: {type(module).__name__}")
    return x


def layer_norm_forward(norm: LayerNorm, x: np.ndarray) -> np.ndarray:
    """Layer normalisation over the last axis, matching the tensor forward.

    ``Tensor.mean`` evaluates ``sum * (1/n)``, so the same expression is used
    here (rather than ``np.mean``) to stay bit-identical.
    """
    inv_count = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_count
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    normed = centered / ((var + norm.eps) ** 0.5)
    np.multiply(normed, _param(norm.gamma.data, x), out=normed)
    normed += _param(norm.beta.data, x)
    return normed


def batch_norm_forward(norm: BatchNorm, x: np.ndarray) -> np.ndarray:
    """BatchNorm forward, replicating the tensor path *including* the
    running-statistics update (``Tensor.mean`` = ``sum * (1/n)``).

    Running statistics are always accumulated in float64, even when the
    working dtype is float32 (the vectorized sampling path).
    """
    centered = None
    if x.ndim == 3:
        if norm.training and x.shape[1] > 1:
            inv_count = 1.0 / x.shape[1]
            mu = x.sum(axis=1, keepdims=True) * inv_count
            centered = x - mu
            var = (centered * centered).sum(axis=1, keepdims=True) * inv_count
            # ``sum / count`` is what ``ndarray.mean`` evaluates (same float64
            # accumulation, same divide), minus its Python-level wrapper.
            batch_mean = np.add.reduce(mu.reshape(x.shape[0], -1), axis=0, dtype=np.float64) / x.shape[0]
            batch_var = np.add.reduce(var.reshape(x.shape[0], -1), axis=0, dtype=np.float64) / x.shape[0]
            norm.running_mean = (1 - norm.momentum) * norm.running_mean + norm.momentum * batch_mean
            norm.running_var = (1 - norm.momentum) * norm.running_var + norm.momentum * batch_var
        else:
            mu = _param(norm.running_mean, x).reshape(1, 1, -1)
            var = _param(norm.running_var, x).reshape(1, 1, -1)
    else:
        if norm.training and x.shape[0] > 1:
            inv_count = 1.0 / x.shape[0]
            mu = x.sum(axis=0, keepdims=True) * inv_count
            centered = x - mu
            var = (centered * centered).sum(axis=0, keepdims=True) * inv_count
            norm.running_mean = (1 - norm.momentum) * norm.running_mean + norm.momentum * mu.reshape(-1).astype(np.float64)
            norm.running_var = (1 - norm.momentum) * norm.running_var + norm.momentum * var.reshape(-1).astype(np.float64)
        else:
            mu = _param(norm.running_mean, x).reshape(1, -1)
            var = _param(norm.running_var, x).reshape(1, -1)
    if x.dtype == np.float32:
        # Sampling path: fold 1/denom and gamma into one per-feature scale so
        # the big tensor sees two passes (multiply, add) instead of four.  The
        # reassociation is float32-rounding-level different from the tensor
        # forward, which the sampling path tolerates; float64 callers (the
        # simulator's bit-parity path) keep the exact op order below.
        scale = _param(norm.gamma.data, x) / ((var + norm.eps) ** 0.5)
        if centered is not None:
            normed = centered * scale
            normed += _param(norm.beta.data, x)
        else:
            normed = x * scale
            normed += _param(norm.beta.data, x) - mu * scale
        return normed
    # ``centered`` already holds x - mu in the training branches; reusing it
    # (and applying the affine in place on the fresh quotient) skips two
    # full-tensor temporaries without changing a single arithmetic op.
    normed = (centered if centered is not None else x - mu) / ((var + norm.eps) ** 0.5)
    np.multiply(normed, _param(norm.gamma.data, x), out=normed)
    normed += _param(norm.beta.data, x)
    return normed


def _norm_forward(norm, x: np.ndarray) -> np.ndarray:
    if isinstance(norm, LayerNorm):
        return layer_norm_forward(norm, x)
    if isinstance(norm, BatchNorm):
        return batch_norm_forward(norm, x)
    raise TypeError(f"unsupported norm in fast path: {type(norm).__name__}")


def attention_forward(attention: MultiHeadAttention, x: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Multi-head self-attention over one ``(tokens, model_dim)`` sequence."""
    tokens = x.shape[0]
    heads, head_dim = attention.num_heads, attention.head_dim
    qkv_weight, qkv_bias = _fused_qkv(attention)
    qkv = (x @ _param(qkv_weight, x) + _param(qkv_bias, x)).reshape(tokens, 3, heads, head_dim)
    queries = qkv[:, 0].transpose(1, 0, 2)
    keys = qkv[:, 1].transpose(1, 0, 2)
    values = qkv[:, 2].transpose(1, 0, 2)
    scores = (queries @ keys.transpose(0, 2, 1)) * (1.0 / float(np.sqrt(head_dim)))
    if bias is not None:
        scores = scores + np.asarray(bias, dtype=np.float64)[None, :, :]
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=-1, keepdims=True)
    mixed = (weights @ values).transpose(1, 0, 2).reshape(tokens, attention.model_dim)
    return linear_forward(attention.out_proj, mixed)


def _fused_qkv(attention: MultiHeadAttention) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``(model_dim, 3*model_dim)`` Q/K/V projection.

    Cached on the module keyed by the identity of the source arrays; the
    cache holds references to them, so after an optimizer step (which
    installs fresh arrays) the ids cannot be reused and the fusion rebuilds.
    """
    projections = (attention.query_proj, attention.key_proj, attention.value_proj)
    sources = tuple(p.weight.data for p in projections) + tuple(p.bias.data for p in projections)
    key = tuple(id(array) for array in sources)
    cached = getattr(attention, "_fastinfer_qkv", None)
    if cached is not None and cached[0] == key:
        return cached[1], cached[2]
    weight = np.concatenate([p.weight.data for p in projections], axis=1)
    bias = np.concatenate([p.bias.data for p in projections], axis=0)
    attention._fastinfer_qkv = (key, weight, bias, sources)
    return weight, bias


def attention_forward_batched(
    attention: MultiHeadAttention, x: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Multi-head self-attention over ``(batch, tokens, model_dim)`` stacks."""
    batch, tokens = x.shape[0], x.shape[1]
    heads, head_dim = attention.num_heads, attention.head_dim
    qkv_weight, qkv_bias = _fused_qkv(attention)
    if x.dtype == np.float32:
        # Same flatten-to-one-GEMM trick as linear_forward (float32 only).
        qkv = x.reshape(batch * tokens, x.shape[2]) @ _param(qkv_weight, x)
        qkv += _param(qkv_bias, x)
        qkv = qkv.reshape(batch, tokens, 3, heads, head_dim)
    else:
        qkv = (x @ _param(qkv_weight, x) + _param(qkv_bias, x)).reshape(batch, tokens, 3, heads, head_dim)
    queries = qkv[:, :, 0].transpose(0, 2, 1, 3)
    keys = qkv[:, :, 1].transpose(0, 2, 1, 3)
    values = qkv[:, :, 2].transpose(0, 2, 1, 3)
    scores = queries @ keys.transpose(0, 1, 3, 2)
    scores *= 1.0 / float(np.sqrt(head_dim))
    if bias is not None:
        scores += np.asarray(bias, dtype=x.dtype)[None, None, :, :]
    # Softmax reductions over a 2-D view of the same contiguous rows: the
    # last-axis max/sum see identical element sequences, so results match the
    # 4-D form bit for bit while skipping the high-rank reduce overhead.
    flat = scores.reshape(batch * heads * tokens, tokens)
    flat -= flat.max(axis=-1, keepdims=True)
    np.exp(flat, out=flat)
    flat /= flat.sum(axis=-1, keepdims=True)
    mixed = (scores @ values).transpose(0, 2, 1, 3).reshape(batch, tokens, attention.model_dim)
    return linear_forward(attention.out_proj, mixed)


def _block_forward(block: AttentionBlock, x: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    mha = attention_forward_batched if x.ndim == 3 else attention_forward
    attended = _norm_forward(block.norm1, x + mha(block.attention, x, bias))
    return _norm_forward(block.norm2, attended + mlp_forward(block.feedforward, attended))


def attention_encoder_forward(
    encoder: AttentionEncoder, x: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate an :class:`AttentionEncoder` stack with raw NumPy."""
    for index in range(encoder.num_layers):
        x = _block_forward(encoder._modules[f"block_{index}"], x, bias)
    return x


attention_encoder_forward_batched = attention_encoder_forward


def masked_log_softmax_array(logits: np.ndarray, mask: np.ndarray, mask_value: float = -1e8) -> np.ndarray:
    """NumPy twin of :func:`repro.nn.masked_log_softmax` (last-axis rows)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if not np.all(mask.any(axis=-1)):
        raise ValueError("masked_log_softmax requires at least one unmasked entry")
    zero = logits.dtype.type(0.0)
    shifted = logits + np.where(mask, zero, logits.dtype.type(mask_value))
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def fast_inference_reason(encoder: AttentionEncoder) -> str | None:
    """Why ``encoder`` cannot run on the tape-free fast path, or ``None``.

    Each attention block's norms must be one of the kinds the fast forwards
    replicate bit-for-bit; ``ConcurrentPredictionModel.__init__`` names the
    reason in the ``ConfigurationError`` it raises.
    """
    for index in range(encoder.num_layers):
        block = encoder._modules[f"block_{index}"]
        for which, norm in (("norm1", block.norm1), ("norm2", block.norm2)):
            if not isinstance(norm, (LayerNorm, BatchNorm)):
                return (
                    f"block {index} {which} is {type(norm).__name__}; the fast "
                    "path only replicates LayerNorm and BatchNorm"
                )
    return None
