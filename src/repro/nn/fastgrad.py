"""Tape-free float64 layer kernels: stacked forward + analytic backward.

Every float64 forward of the library runs here: the policy update, the
simulator fit (``repro.perf.fit``), and the inference forwards that take no
backward (QueryFormer's plan embedding, the simulator's ``predict``, the
gain model's completion, :func:`policy_log_probs`).  Each kernel runs its
stacked forward as a flat sequence of fused NumPy ops, saves only the
activations its hand-derived backward needs (in preallocated :class:`Arena`
buffers), and the matching ``*_backward`` puts analytic gradients where its
arena says (:meth:`Arena.grad`) — no per-op closures, no tape walk, no
per-primitive temporaries.  An inference caller runs the forward over a fresh
arena and never resets it, so what it returns is no buffer a later call
hands out.  A policy step takes its minibatch as consecutive *slabs* of
samples (forward, loss terms and backward of one slab, then the next:
:func:`_encoded_slabs`), so what is live at once is one slab's activations,
not the minibatch's; the whole-minibatch step is the same loop with one slab.

Every kernel replicates the tape's forward expression order (``sum * (1/n)``
means, shift-by-max softmax, centered-square variances), so forwards agree
with the define-by-run path to rounding and gradients match the tape at
``atol=1e-9`` in float64 (pinned in ``tests/test_fastgrad.py``, together
with central-difference gradchecks).  The float32 decision program is the
one forward that is not here: :mod:`repro.nn.fastinfer`.

* layer kernels — linear+activation MLP blocks, layer/batch norm,
  fused-QKV multi-head attention (with an optional additive score bias),
  masked log-softmax;
* the encoder kernel — :func:`encode_state_batch` mirrors
  ``StateEncoder.encode_batch``;
* trainer steps — :func:`ppo_minibatch_step`, :func:`ppg_aux_step` and
  :func:`iq_ppo_aux_step` fuse the loss forward + backward of one optimizer
  step (query- or cluster-level actions); :func:`policy_log_probs` is the
  policy steps' forward alone;
* a ``why_slow``-style gate — :func:`fused_training_reason` /
  :func:`perfmodel_training_reason` return a human-readable reason when a
  module configuration is not covered.  These kernels are the only update
  paths, so callers raise on a reason instead of falling back.

Gradient-ownership contract.  A gradient goes to one of two destinations,
chosen by the arena the kernel is handed:

* :class:`Arena` accumulates it into ``Parameter.grad`` (the policy updates
  and the gain-model fit).  These gradients are always freshly owned arrays
  (or disjoint views of one), never arena buffers, because the arena
  recycles its buffers at :meth:`Arena.reset` — after every slab — while
  grads accumulate across slabs and must survive until the optimizer step
  (and are scaled in place by ``clip_grad_norm``).  Parameters that receive
  no gradient flow keep ``grad is None`` — exactly like the tape — so
  ``Adam`` skips them instead of decaying their moments.
* The simulator fit's arena (``repro.perf.fit``) writes it once, with
  ``out=``, into the parameter's view of the fit's gradient slab, and never
  touches ``Parameter.grad``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from . import fastinfer
from .attention import AttentionBlock, AttentionEncoder, MultiHeadAttention
from .layers import MLP, NORM_EPS, Activation, BatchNorm, LayerNorm, Linear, Parameter

__all__ = [
    "Arena",
    "mlp_forward",
    "mlp_backward",
    "layer_norm_forward",
    "batch_norm_forward",
    "mha_forward",
    "mha_backward",
    "attention_encoder_forward",
    "attention_encoder_backward",
    "masked_log_softmax_forward",
    "masked_log_softmax_backward",
    "encode_state_batch",
    "encode_state_batch_backward",
    "action_logits_forward",
    "action_logits_backward",
    "fused_training_reason",
    "perfmodel_training_reason",
    "policy_log_probs",
    "ppo_minibatch_step",
    "ppg_aux_step",
    "iq_ppo_aux_step",
]


class Arena:
    """Where the kernels take scratch from and put gradients.

    This class is a recycling pool of preallocated float64 buffers, sized by
    one slab of a step.  ``empty(shape)`` hands out a buffer (reusing a
    previously returned one of the same shape when available, else the
    leading rows of a longer one, which is how a minibatch's short last slab
    runs in the full slab's buffers); ``reset()`` returns every outstanding
    buffer to the pool.  Saved activations live in
    arena buffers, parameter gradients never do: :meth:`grad` accumulates
    them into ``Parameter.grad`` (see the module docstring contract).  The
    policy steps reset the arena themselves, after the backward of every
    slab, so their callers hold no arena buffer when a step returns; the
    caller of the bare MLP kernels (the gain model's completion) resets once
    per block.
    ``release(buf)`` hands one buffer back before the reset: backward-only
    scratch, and a saved activation whose backward has run, are dead within
    the slab, so the next layer's backward reuses them and the pool holds one
    attention gradient instead of one per layer.  ``owned(shape)`` is a fresh
    array the pool never holds: an input gradient a kernel returns (its
    caller may keep it past the reset), or a transient that dies within the
    layer, so the pool does not grow by it.

    The kernels call only ``empty``, ``owned``, ``release`` and ``grad``;
    ``reset``, ``clear`` and the pool sizes are for the callers that own this pool.
    The small fits (the simulator's and the gain model's, through
    ``repro.nn.optim.AdamSlabs``) run the same kernels with a subclass that
    hands out every buffer, owned ones included, in call order and writes
    each gradient into its slab view instead.
    """

    def __init__(self) -> None:
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._used: dict[int, np.ndarray] = {}

    def empty(self, shape: Sequence[int]) -> np.ndarray:
        shape = tuple(shape)
        pool = self._free.get(shape)
        buf = pool.pop() if pool else self._leading_rows(shape)
        self._used[id(buf)] = buf
        return buf

    def _leading_rows(self, shape: tuple[int, ...]) -> np.ndarray:
        """The first ``shape[0]`` rows of the shortest free buffer that has them, else a new buffer.

        A short last slab asks for the full slab's shapes with fewer leading
        rows; taking them from the full slab's buffers keeps the pool at one
        slab.  A view goes back to the pool as its base.
        """
        fits = [
            key
            for key, pool in self._free.items()
            if pool and len(key) == len(shape) > 0 and key[0] > shape[0] and key[1:] == shape[1:]
        ]
        if not fits:
            return np.empty(shape)
        return self._free[min(fits)].pop()[: shape[0]]

    def owned(self, shape: Sequence[int]) -> np.ndarray:
        return np.empty(shape)

    def _give_back(self, buf: np.ndarray) -> None:
        whole = _whole(buf)
        self._free.setdefault(whole.shape, []).append(whole)

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` (exactly as :meth:`empty` handed it out) to the pool now."""
        self._give_back(self._used.pop(id(buf)))

    def reset(self) -> None:
        for buf in self._used.values():
            self._give_back(buf)
        self._used.clear()

    def grad(self, params: "tuple[Parameter, ...]", op: Any, a: Any, b: Any) -> None:
        """Put ``op(a, b)``, the gradient of ``params`` side by side on its last axis.

        Each parameter gets its column block of the result accumulated into
        ``Parameter.grad`` as a freshly owned array (a disjoint view of it).
        ``op`` is ``np.matmul`` or ``np.add.reduce`` (``b`` the axes), which
        take ``out=``, so a subclass can write the gradient into a buffer of
        its own instead.
        """
        value = op(a, b)
        if len(params) == 1:
            _accum(params[0], value)
            return
        width = value.shape[-1] // len(params)
        for index, param in enumerate(params):
            _accum(param, value[..., index * width : (index + 1) * width])

    def clear(self) -> None:
        """Drop every buffer, outstanding and free: the pool holds nothing until it is used again."""
        self._free.clear()
        self._used.clear()

    @property
    def nbytes(self) -> int:
        """Bytes held by the pool, outstanding and free."""
        outstanding = sum(_whole(buf).nbytes for buf in self._used.values())
        return outstanding + sum(buf.nbytes for pool in self._free.values() for buf in pool)


def _whole(buf: np.ndarray) -> np.ndarray:
    """The pool buffer behind what :meth:`Arena.empty` handed out: itself, or the base of its leading rows."""
    return buf if buf.base is None else buf.base


def _accum(param: Parameter, grad: np.ndarray) -> None:
    """Accumulate ``grad`` into ``param.grad`` (fresh-array semantics).

    ``grad`` must be freshly owned by the caller (a matmul/ufunc result or a
    disjoint view of one) — it is installed directly on first accumulation.
    """
    if param.grad is None:
        param.grad = grad
    else:
        param.grad += grad


# --------------------------------------------------------------------------- #
# MLP blocks (fused linear + activation)
# --------------------------------------------------------------------------- #

_SUPPORTED_ACTIVATIONS = ("tanh", "relu", "sigmoid", "identity")


def _mlp_blocks(mlp: MLP) -> "list[tuple[Linear, str | None]]":
    """Parse an MLP's Sequential into ``(linear, activation_name)`` blocks.

    The parse is cached on the MLP instance — layer structure is fixed after
    construction, and the cache holds the Linear modules themselves (not
    their arrays), so parameter updates never invalidate it.
    """
    cached = getattr(mlp, "_fastgrad_blocks", None)
    if cached is not None:
        return cached
    blocks: list[tuple[Linear, str | None]] = []
    for module in mlp.net:
        if isinstance(module, Linear):
            blocks.append((module, None))
        elif isinstance(module, Activation):
            if not blocks or blocks[-1][1] is not None:
                raise ValueError("activation without a preceding linear layer")
            linear, _ = blocks[-1]
            blocks[-1] = (linear, None if module.name == "identity" else module.name)
        else:
            raise ValueError(f"unsupported module inside MLP: {type(module).__name__}")
    mlp._fastgrad_blocks = blocks
    return blocks


def mlp_forward(mlp: MLP, x: np.ndarray, arena: Arena) -> "tuple[np.ndarray, list]":
    """Stacked MLP forward; returns ``(output, ctx)`` for :func:`mlp_backward`.

    ``ctx`` saves, per block, the block input and the post-activation output —
    all the analytic backward needs (tanh/relu/sigmoid derivatives are
    expressible from the output alone).
    """
    ctx = []
    for linear, act in _mlp_blocks(mlp):
        weight = linear.weight.data
        pre = np.matmul(x, weight, out=arena.empty(x.shape[:-1] + (weight.shape[1],)))
        pre += linear.bias.data
        if act == "tanh":
            y = np.tanh(pre, out=pre)
        elif act == "relu":
            y = np.multiply(pre, pre > 0, out=pre)
        elif act == "sigmoid":
            np.negative(pre, out=pre)
            np.exp(pre, out=pre)
            pre += 1.0
            y = np.reciprocal(pre, out=pre)
        else:
            y = pre
        ctx.append((x, y))
        x = y
    return x, ctx


def mlp_backward(
    mlp: MLP,
    ctx: list,
    g: np.ndarray,
    arena: Arena,
    need_input_grad: bool = True,
) -> "np.ndarray | None":
    """Analytic MLP backward; puts weight/bias grads through ``arena``, returns ``g_x``.

    Never mutates ``g`` (callers reuse it for residual branches).
    """
    blocks = _mlp_blocks(mlp)
    for index in range(len(blocks) - 1, -1, -1):
        linear, act = blocks[index]
        x, y = ctx[index]
        scratch = None if act is None else arena.empty(y.shape)
        if act == "tanh":
            d = np.multiply(y, y, out=scratch)
            np.subtract(1.0, d, out=d)
            g = np.multiply(g, d, out=d)
        elif act == "relu":
            g = np.multiply(g, y > 0, out=scratch)
        elif act == "sigmoid":
            d = np.subtract(1.0, y, out=scratch)
            d *= y
            g = np.multiply(g, d, out=d)
        if g.ndim > 2:
            gf = g.reshape(-1, g.shape[-1])
            xf = x.reshape(-1, x.shape[-1])
        else:
            gf, xf = g, x
        arena.grad((linear.weight,), np.matmul, xf.T, gf)
        arena.grad((linear.bias,), np.add.reduce, gf, 0)
        if index > 0 or need_input_grad:
            g = np.matmul(gf, linear.weight.data.T, out=arena.owned(xf.shape)).reshape(x.shape)
        if scratch is not None:
            arena.release(scratch)
    return g if need_input_grad else None


# --------------------------------------------------------------------------- #
# Normalisation layers
# --------------------------------------------------------------------------- #

def _normalise(norm: "LayerNorm | BatchNorm", x: np.ndarray, arena: Arena, axis: int) -> "tuple[np.ndarray, tuple]":
    """``(x - mean) / (var + eps) ** 0.5 * gamma + beta`` over ``axis``; tape-identical expression order."""
    inv_n = 1.0 / x.shape[axis]
    mu = x.sum(axis=axis, keepdims=True) * inv_n
    centered = x - mu
    var = (centered * centered).sum(axis=axis, keepdims=True) * inv_n
    denom = (var + NORM_EPS) ** 0.5
    x_hat = np.divide(centered, denom, out=centered)
    out = arena.empty(x.shape)
    np.multiply(x_hat, norm.gamma.data, out=out)
    out += norm.beta.data
    return out, (x_hat, 1.0 / denom, inv_n, axis)


def layer_norm_forward(norm: LayerNorm, x: np.ndarray, arena: Arena) -> "tuple[np.ndarray, tuple]":
    """LayerNorm over the last axis."""
    return _normalise(norm, x, arena, -1)


def batch_norm_forward(norm: BatchNorm, x: np.ndarray, arena: Arena) -> "tuple[np.ndarray, tuple]":
    """BatchNorm over each state's own tokens: axis 0 of a ``(tokens, dim)`` sequence, axis 1 of a stack.

    Statistics come from the tokens alone, so a sequence needs two of them
    (every state has its queries plus the super token); one raises.
    """
    axis = 1 if x.ndim == 3 else 0
    if x.shape[axis] < 2:
        raise ValueError(f"BatchNorm normalises over at least two tokens, not shape {x.shape}")
    return _normalise(norm, x, arena, axis)


def _norm_backward(norm: "LayerNorm | BatchNorm", ctx: tuple, g: np.ndarray, arena: Arena) -> np.ndarray:
    """Backward of :func:`layer_norm_forward` and :func:`batch_norm_forward`."""
    x_hat, inv_std, inv_count, axis = ctx
    reduce_axes = tuple(range(g.ndim - 1))
    arena.grad((norm.gamma,), np.add.reduce, g * x_hat, reduce_axes)
    arena.grad((norm.beta,), np.add.reduce, g, reduce_axes)
    g_xhat = g * norm.gamma.data
    mean_g = g_xhat.sum(axis=axis, keepdims=True) * inv_count
    mean_gx = (g_xhat * x_hat).sum(axis=axis, keepdims=True) * inv_count
    g_xhat -= mean_g
    g_xhat -= x_hat * mean_gx
    return np.multiply(g_xhat, inv_std, out=g_xhat)


def _norm_forward(norm: Any, x: np.ndarray, arena: Arena) -> "tuple[np.ndarray, tuple]":
    if isinstance(norm, LayerNorm):
        return layer_norm_forward(norm, x, arena)
    if isinstance(norm, BatchNorm):
        return batch_norm_forward(norm, x, arena)
    raise TypeError(f"unsupported norm {type(norm).__name__}")


# --------------------------------------------------------------------------- #
# Multi-head attention (fused QKV)
# --------------------------------------------------------------------------- #

def _split_heads(qkv: np.ndarray, heads: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(B, H, T, head_dim)`` query / key / value views of a fused ``(B, T, 3D)`` buffer."""
    batch, tokens, width = qkv.shape
    split = qkv.reshape(batch, tokens, 3, heads, width // (3 * heads)).transpose(2, 0, 3, 1, 4)
    return split[0], split[1], split[2]


def _qkv_sources(attention: MultiHeadAttention) -> tuple[np.ndarray, ...]:
    query, key, value = attention.query_proj, attention.key_proj, attention.value_proj
    return query.weight.data, key.weight.data, value.weight.data, query.bias.data, key.bias.data, value.bias.data


def _fused_qkv(attention: MultiHeadAttention) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``(model_dim, 3*model_dim)`` Q/K/V projection.

    Cached on the module keyed by the identity of the source arrays; the
    cache holds references to them, so after an optimizer step (which
    installs fresh arrays) the ids cannot be reused and the fusion rebuilds.
    """
    sources = _qkv_sources(attention)
    cached = getattr(attention, "_fastgrad_qkv", None)
    if cached is None or cached[0] != tuple(map(id, sources)):
        cached = _pin_fused_qkv(attention, np.concatenate(sources[:3], axis=1), np.concatenate(sources[3:]))
    return cached[1], cached[2]


def _pin_fused_qkv(attention: MultiHeadAttention, weight: np.ndarray, bias: np.ndarray) -> tuple:
    """Have :func:`_fused_qkv` return ``weight`` / ``bias`` until a projection array is rebound.

    The simulator fit points the projections at column views of a fused
    block that it updates in place, and pins that block: a concatenated copy
    would go stale at the fit's first Adam step.
    """
    sources = _qkv_sources(attention)
    attention._fastgrad_qkv = cached = (tuple(map(id, sources)), weight, bias, sources)
    return cached


def mha_forward(
    attention: MultiHeadAttention, x: np.ndarray, arena: Arena, bias: "np.ndarray | None" = None
) -> "tuple[np.ndarray, tuple]":
    """Batched ``(B, tokens, D)`` self-attention with one fused QKV GEMM.

    ``bias`` is a ``(tokens, tokens)`` matrix added to every head's scaled
    scores before the softmax (QueryFormer's tree bias); a constant, so the
    backward does not see it.
    """
    batch, tokens, model_dim = x.shape
    heads, head_dim = attention.num_heads, attention.head_dim
    qkv_weight, qkv_bias = _fused_qkv(attention)
    x2 = x.reshape(batch * tokens, model_dim)
    # Strided (not flattened) float64 GEMM, matching the tape's `x @ W` dispatch exactly.
    qkv = arena.empty((batch, tokens, 3 * model_dim))
    np.matmul(x, qkv_weight, out=qkv)
    qkv += qkv_bias
    queries, keys, values = _split_heads(qkv, heads)
    scale = 1.0 / math.sqrt(head_dim)
    # The (B, H, T, T) softmax is the slab's largest tensor: built in place in
    # one arena buffer instead of three temporaries.
    weights = arena.empty((batch, heads, tokens, tokens))
    np.matmul(queries, keys.transpose(0, 1, 3, 2), out=weights)
    weights *= scale
    if bias is not None:
        weights += bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = (weights @ values).transpose(0, 2, 1, 3).reshape(batch, tokens, model_dim)
    out = arena.empty(x.shape)
    np.matmul(mixed, attention.out_proj.weight.data, out=out)
    out += attention.out_proj.bias.data
    return out, (x2, qkv_weight, qkv, weights, mixed, scale)


def mha_backward(
    attention: MultiHeadAttention, ctx: tuple, g: np.ndarray, arena: Arena
) -> np.ndarray:
    x2, qkv_weight, qkv, weights, mixed, scale = ctx
    batch, tokens, model_dim = g.shape
    heads = attention.num_heads
    queries, keys, values = _split_heads(qkv, heads)
    g2 = g.reshape(batch * tokens, model_dim)
    mixed2 = mixed.reshape(batch * tokens, model_dim)
    arena.grad((attention.out_proj.weight,), np.matmul, mixed2.T, g2)
    arena.grad((attention.out_proj.bias,), np.add.reduce, g2, 0)
    g_mixed = np.matmul(g2, attention.out_proj.weight.data.T, out=arena.owned(g2.shape))
    g_mixed = g_mixed.reshape(batch, tokens, heads, attention.head_dim).transpose(0, 2, 1, 3)
    g_scores = np.matmul(g_mixed, values.swapaxes(-1, -2), out=arena.empty(weights.shape))
    g_values = weights.swapaxes(-1, -2) @ g_mixed
    # Softmax backward: P * (g - <g, P>), in place over the incoming gradient
    # with one sample of scratch for <g, P>.
    product = arena.empty(weights.shape[1:])
    for g_row, p_row in zip(g_scores, weights):
        np.multiply(g_row, p_row, out=product)
        g_row -= product.sum(axis=-1, keepdims=True)
    arena.release(product)
    g_scores *= weights
    arena.release(weights)
    g_scores *= scale
    g_queries = g_scores @ keys
    g_keys = g_scores.swapaxes(-1, -2) @ queries
    arena.release(g_scores)
    # q, k and v are dead: the gradient of the fused projection reuses their buffer.
    arena.release(qkv)
    g_qkv = arena.empty(qkv.shape)
    for part, grad in zip(_split_heads(g_qkv, heads), (g_queries, g_keys, g_values)):
        part[...] = grad
    gf = g_qkv.reshape(batch * tokens, 3 * model_dim)
    query, key, value = attention.query_proj, attention.key_proj, attention.value_proj
    arena.grad((query.weight, key.weight, value.weight), np.matmul, x2.T, gf)
    arena.grad((query.bias, key.bias, value.bias), np.add.reduce, gf, 0)
    g_x = np.matmul(gf, qkv_weight.T, out=arena.owned(x2.shape)).reshape(batch, tokens, model_dim)
    arena.release(g_qkv)
    return g_x


# --------------------------------------------------------------------------- #
# Attention encoder (block = MHA + FF, residual + norm)
# --------------------------------------------------------------------------- #

def _attention_block_forward(
    block: AttentionBlock, x: np.ndarray, arena: Arena, bias: "np.ndarray | None" = None
) -> "tuple[np.ndarray, tuple]":
    pre1, mha_ctx = mha_forward(block.attention, x, arena, bias)
    pre1 += x
    normed1, n1_ctx = _norm_forward(block.norm1, pre1, arena)
    ff_out, ff_ctx = mlp_forward(block.feedforward, normed1, arena)
    pre2 = np.add(normed1, ff_out, out=arena.owned(ff_out.shape))
    out, n2_ctx = _norm_forward(block.norm2, pre2, arena)
    return out, (mha_ctx, n1_ctx, ff_ctx, n2_ctx)


def _attention_block_backward(
    block: AttentionBlock, ctx: tuple, g: np.ndarray, arena: Arena
) -> np.ndarray:
    mha_ctx, n1_ctx, ff_ctx, n2_ctx = ctx
    g_pre2 = _norm_backward(block.norm2, n2_ctx, g, arena)
    # Both kernels return freshly owned input gradients, so the residual adds in place.
    g_normed1 = mlp_backward(block.feedforward, ff_ctx, g_pre2, arena)
    g_normed1 += g_pre2
    g_pre1 = _norm_backward(block.norm1, n1_ctx, g_normed1, arena)
    g_x = mha_backward(block.attention, mha_ctx, g_pre1, arena)
    g_x += g_pre1
    return g_x


def attention_encoder_forward(
    encoder: AttentionEncoder, x: np.ndarray, arena: Arena, bias: "np.ndarray | None" = None
) -> "tuple[np.ndarray, list]":
    """Every block over ``(B, tokens, D)``, each adding ``bias`` to its attention scores (see :func:`mha_forward`)."""
    ctx = []
    for index in range(encoder.num_layers):
        block = encoder._modules[f"block_{index}"]
        x, block_ctx = _attention_block_forward(block, x, arena, bias)
        ctx.append(block_ctx)
    return x, ctx


def attention_encoder_backward(
    encoder: AttentionEncoder, ctx: list, g: np.ndarray, arena: Arena
) -> np.ndarray:
    for index in range(encoder.num_layers - 1, -1, -1):
        block = encoder._modules[f"block_{index}"]
        g = _attention_block_backward(block, ctx[index], g, arena)
    return g


# --------------------------------------------------------------------------- #
# Masked log-softmax
# --------------------------------------------------------------------------- #

def masked_log_softmax_forward(logits: np.ndarray, mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Returns ``(log_probs, softmax)``; ``softmax`` is the backward ctx."""
    mask = fastinfer._checked_mask(logits, mask)
    offset = np.where(mask, 0.0, fastinfer.MASK_VALUE)
    data = logits + offset
    shifted = data - data.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_sum
    return log_probs, np.exp(log_probs)


def masked_log_softmax_backward(softmax: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The mask offset is additive, so the gradient w.r.t. logits is direct."""
    return g - softmax * g.sum(axis=-1, keepdims=True)


# --------------------------------------------------------------------------- #
# State-encoder kernel (mirrors StateEncoder.encode_batch)
# --------------------------------------------------------------------------- #

def encode_state_batch(
    encoder: Any,
    plan_embeddings: np.ndarray,
    snapshots: list,
    arena: Arena,
    need_global: bool = True,
) -> "tuple[np.ndarray, np.ndarray | None, tuple]":
    """Fused twin of ``StateEncoder.encode_batch``.

    Returns ``(per_query, global_state, ctx)``.  When ``need_global`` is
    False the global MLP forward is skipped entirely (its output receives no
    gradient in the PPG/IQ-PPO aux phases and the MLP is stateless, so
    skipping it is unobservable).
    """
    inputs, run_features, pooled_all, pooled_running = encoder._batch_inputs(
        plan_embeddings, snapshots
    )
    batch, num_queries = run_features.shape[0], run_features.shape[1]
    state_dim = encoder.super_query.data.shape[1]
    tokens, qm_ctx = mlp_forward(encoder.query_mlp, inputs, arena)
    sequence = arena.empty((batch, num_queries + 1, state_dim))
    sequence[:, :num_queries] = tokens
    sequence[:, num_queries] = encoder.super_query.data.reshape(1, -1)
    if encoder.use_attention:
        encoded, att_ctx = attention_encoder_forward(encoder.attention, sequence, arena)
    else:
        encoded, att_ctx = sequence, None
    encoded_queries = encoded[:, :num_queries]
    encoded_super = encoded[:, num_queries]
    if need_global:
        global_in = np.concatenate([encoded_super, pooled_all], axis=1)
        global_state, gm_ctx = mlp_forward(encoder.global_mlp, global_in, arena)
    else:
        global_state, gm_ctx = None, None
    pooled_dim = pooled_running.shape[1]
    pq_in = arena.empty((batch, num_queries, 2 * state_dim + pooled_dim))
    pq_in[:, :, :state_dim] = encoded_queries
    pq_in[:, :, state_dim : 2 * state_dim] = encoded_super[:, None, :]
    pq_in[:, :, 2 * state_dim :] = pooled_running[:, None, :]
    per_query, qo_ctx = mlp_forward(encoder.query_out_mlp, pq_in, arena)
    ctx = (qm_ctx, att_ctx, gm_ctx, qo_ctx, batch, num_queries, state_dim)
    return per_query, global_state, ctx


def encode_state_batch_backward(
    encoder: Any,
    ctx: tuple,
    g_per_query: np.ndarray,
    g_global: "np.ndarray | None",
    arena: Arena,
) -> None:
    qm_ctx, att_ctx, gm_ctx, qo_ctx, batch, num_queries, state_dim = ctx
    g_pq_in = mlp_backward(encoder.query_out_mlp, qo_ctx, g_per_query, arena)
    g_encoded = arena.empty((batch, num_queries + 1, state_dim))
    g_encoded[:, :num_queries] = g_pq_in[:, :, :state_dim]
    g_super = g_pq_in[:, :, state_dim : 2 * state_dim].sum(axis=1)
    if g_global is not None:
        g_global_in = mlp_backward(encoder.global_mlp, gm_ctx, g_global, arena)
        g_super = g_super + g_global_in[:, :state_dim]
    g_encoded[:, num_queries] = g_super
    if att_ctx is not None:
        g_sequence = attention_encoder_backward(encoder.attention, att_ctx, g_encoded, arena)
    else:
        g_sequence = g_encoded
    arena.grad((encoder.super_query,), np.add.reduce, g_sequence[:, num_queries : num_queries + 1], 0)
    mlp_backward(
        encoder.query_mlp, qm_ctx, g_sequence[:, :num_queries], arena, need_input_grad=False
    )


# --------------------------------------------------------------------------- #
# Support gates (the why_slow of training)
# --------------------------------------------------------------------------- #

def _mlp_reason(mlp: Any, name: str) -> "str | None":
    if not isinstance(mlp, MLP):
        return f"{name} is {type(mlp).__name__}, not MLP"
    try:
        blocks = _mlp_blocks(mlp)
    except ValueError as exc:
        return f"{name}: {exc}"
    for _, act in blocks:
        if act is not None and act not in ("tanh", "relu", "sigmoid"):
            return f"{name} uses unsupported activation {act!r}"
    return None


def _encoder_reason(encoder: Any) -> "str | None":
    if not isinstance(encoder, AttentionEncoder):
        return f"attention encoder is {type(encoder).__name__}"
    for index in range(encoder.num_layers):
        block = encoder._modules.get(f"block_{index}")
        if not isinstance(block, AttentionBlock):
            return f"block_{index} is {type(block).__name__}"
        if not isinstance(block.norm1, (LayerNorm, BatchNorm)) or not isinstance(
            block.norm2, (LayerNorm, BatchNorm)
        ):
            return f"block_{index} uses an unsupported norm"
        reason = _mlp_reason(block.feedforward, f"block_{index}.feedforward")
        if reason:
            return reason
    return None


def fused_training_reason(policy: Any) -> "str | None":
    """Why the fused update kernels cannot train this policy (None = they can).

    There is no other update path, so trainers turn a non-None reason into a
    ``ConfigurationError`` at construction.
    """
    encoder = policy.state_encoder
    if getattr(encoder, "use_attention", True):
        reason = _encoder_reason(encoder.attention)
        if reason:
            return reason
    for name in ("query_mlp", "global_mlp", "query_out_mlp"):
        reason = _mlp_reason(getattr(encoder, name), name)
        if reason:
            return reason
    for name in ("policy_head", "value_head", "aux_head"):
        reason = _mlp_reason(getattr(policy, name), name)
        if reason:
            return reason
    return None


def perfmodel_training_reason(model: Any) -> "str | None":
    """Why the simulator fit (``repro.perf.fit.FitProgram``) cannot train a
    ``ConcurrentPredictionModel`` (None = it can); the program raises on a reason."""
    mlps = [("classifier", model.classifier), ("regressor", model.regressor)]
    if getattr(model, "use_attention", False):
        reason = _encoder_reason(model.encoder)
        if reason:
            return reason
        for index in range(model.encoder.num_layers):
            mlps.append((f"block_{index}.feedforward", model.encoder._modules[f"block_{index}"].feedforward))
    for name, mlp in mlps:
        reason = _mlp_reason(mlp, name)
        if reason:
            return reason
    return None


# --------------------------------------------------------------------------- #
# Trainer-level fused steps
# --------------------------------------------------------------------------- #

def action_logits_forward(
    policy: Any, per_query: np.ndarray, snapshots: list, clusters: Any, arena: Arena
) -> "tuple[np.ndarray, tuple]":
    """Flat ``(batch, action_dim)`` policy logits from the per-query rows.

    With ``clusters`` the rows are first mean-pooled into cluster tokens by
    ``QueryClusters.pool_weights``' ``(batch, num_clusters, n)`` matrix; the
    backward of that GEMM is its transpose.
    """
    batch = per_query.shape[0]
    weights = None
    if clusters is not None:
        weights = clusters.pool_weights(
            clusters.pending_flags(snapshots),
            out=arena.empty((batch, clusters.num_clusters, per_query.shape[1])),
        )
        per_query = np.matmul(weights, per_query, out=arena.empty(weights.shape[:2] + per_query.shape[2:]))
    logits3, head_ctx = mlp_forward(policy.policy_head, per_query, arena)
    return logits3.reshape(batch, -1), (head_ctx, weights, logits3.shape)


def action_logits_backward(policy: Any, ctx: tuple, g_logits: np.ndarray, arena: Arena) -> np.ndarray:
    """Gradient w.r.t. the per-query rows (a freshly owned array)."""
    head_ctx, weights, shape = ctx
    g_tokens = mlp_backward(policy.policy_head, head_ctx, g_logits.reshape(shape), arena)
    return g_tokens if weights is None else weights.transpose(0, 2, 1) @ g_tokens


#: Arena bytes one slab of a policy step may keep live.  The steps below run a
#: minibatch as consecutive slabs of as many samples as :func:`_slab_bytes`
#: fits in this budget: 2 at paper size (n=99, 4.7 MB held), 1 at n=158 with
#: 100 clusters (5.3 MB), the whole minibatch when the inputs are small.  It is
#: the smallest budget at which the step time is flat: one ``ppo_minibatch_step``
#: (B=64) at n=99 takes no less CPU time at 4 or 8 samples a slab than at 2, and
#: ~16% more at 1, while the pool, and with it the process's peak RSS, grows
#: with every sample (8 samples held 17.9 MB).
_SLAB_BYTES = 5 * 2**20


def _sample_bytes(policy: Any, num_queries: int, clusters: Any) -> int:
    """Arena bytes one sample of a policy step keeps live, read off the model's shape.

    Per token, the float64 rows the forward saves (MLP block outputs, the
    sequence and its gradient, per layer the fused QKV, the attention output
    and the two norm outputs), and per row shape one backward scratch of each
    activated width; per layer one ``(heads, tokens, tokens)`` softmax, plus
    the one gradient of that shape the backward holds at a time.  Both heads
    count, since the PPO and auxiliary steps share one arena.  With
    ``clusters`` the policy head runs over cluster rows, each with its
    pooling-matrix row and pooled token.
    """
    encoder = policy.state_encoder
    width = encoder.super_query.data.shape[1]

    def saved(*mlps: MLP) -> int:
        blocks = [block for mlp in mlps for block in _mlp_blocks(mlp)]
        outputs = sum(linear.weight.data.shape[1] for linear, _ in blocks)
        return outputs + sum({linear.weight.data.shape[1] for linear, act in blocks if act is not None})

    query_mlps = [encoder.query_mlp, encoder.query_out_mlp, policy.aux_head]
    if clusters is None:
        query_mlps.append(policy.policy_head)
        per_sample = 0
    else:
        per_sample = clusters.num_clusters * (saved(policy.policy_head) + num_queries + width)
    query_out_in = _mlp_blocks(encoder.query_out_mlp)[0][0].weight.data.shape[0]
    per_sample += num_queries * (saved(*query_mlps) + query_out_in) + saved(encoder.global_mlp, policy.value_head)
    tokens = num_queries + 1
    token_row = 2 * width
    if encoder.use_attention:
        blocks = [encoder.attention._modules[f"block_{index}"] for index in range(encoder.attention.num_layers)]
        token_row += 6 * width * len(blocks) + saved(*(block.feedforward for block in blocks))
        per_sample += (len(blocks) + 1) * blocks[0].attention.num_heads * tokens * tokens
    return 8 * (per_sample + tokens * token_row)


def _slab_bytes(policy: Any, num_queries: int, samples: int, clusters: Any) -> int:
    """Arena bytes a slab of ``samples`` samples keeps live: :func:`_sample_bytes` each,
    plus the one sample of ``(heads, tokens, tokens)`` scratch of the softmax backward."""
    encoder = policy.state_encoder
    fixed = 0
    if encoder.use_attention:
        tokens = num_queries + 1
        fixed = 8 * encoder.attention._modules["block_0"].attention.num_heads * tokens * tokens
    return fixed + samples * _sample_bytes(policy, num_queries, clusters)


def _encoded_slabs(
    policy: Any, plan_embeddings: np.ndarray, snapshots: list, arena: Arena, need_global: bool, clusters: Any
):
    """Cut the samples of one policy step into consecutive slabs and encode each.

    Yields ``(rows, per_query, global_state, enc_ctx)``: the slice of samples
    to take through loss terms and backward, and :func:`encode_state_batch`
    of their snapshots.  Samples are independent in the forward; what couples
    them is kept whole: callers weigh every slab by the whole-batch
    ``1 / batch`` so the gradients the arena adds up are the minibatch
    gradient (ragged last slab included).  The arena is reset after every slab, so it grows to one slab and the
    caller holds no arena buffer afterwards.
    """
    batch, num_queries = len(snapshots), len(plan_embeddings)
    spare = _SLAB_BYTES - _slab_bytes(policy, num_queries, 0, clusters)
    size = min(batch, max(1, spare // _sample_bytes(policy, num_queries, clusters)))
    for start in range(0, batch, size):
        rows = slice(start, start + size)
        yield rows, *encode_state_batch(
            policy.state_encoder, plan_embeddings, snapshots[rows], arena, need_global=need_global
        )
        arena.reset()


def policy_log_probs(
    policy: Any,
    plan_embeddings: np.ndarray,
    snapshots: list,
    masks: np.ndarray,
    arena: Arena,
    clusters: Any = None,
) -> np.ndarray:
    """Full ``(batch, action_dim)`` masked log-probabilities, forward only.

    The float64 forward of the step functions below without their backward:
    what the auxiliary phases snapshot as ``pi_old`` before they start.
    """
    log_probs = []
    for rows, per_query, _, _ in _encoded_slabs(
        policy, plan_embeddings, snapshots, arena, need_global=False, clusters=clusters
    ):
        logits, _ = action_logits_forward(policy, per_query, snapshots[rows], clusters, arena)
        log_probs.append(masked_log_softmax_forward(logits, masks[rows])[0])
    return np.concatenate(log_probs)


def ppo_minibatch_step(
    policy: Any,
    plan_embeddings: np.ndarray,
    snapshots: list,
    actions: np.ndarray,
    masks: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    clip_epsilon: float,
    value_coef: float,
    entropy_coef: float,
    arena: Arena,
    clusters: Any = None,
) -> "tuple[float, float]":
    """One fused PPO minibatch forward + backward, slab by slab.

    Accumulates gradients into the policy parameters (the caller zeroes
    grads before and clips/steps after) and returns
    ``(policy_loss, value_loss)`` as floats.  The aux head receives no
    gradient, matching the tape (its ``grad`` stays ``None``).
    """
    batch = len(snapshots)
    actions = np.asarray(actions, dtype=np.int64)
    encoder = policy.state_encoder
    inv_b = 1.0 / batch
    surrogate = squared_error = 0.0
    for rows, per_query, global_state, enc_ctx in _encoded_slabs(
        policy, plan_embeddings, snapshots, arena, need_global=True, clusters=clusters
    ):
        slab_actions, slab_advantages = actions[rows], advantages[rows]
        index = np.arange(len(slab_actions))
        logits, logits_ctx = action_logits_forward(policy, per_query, snapshots[rows], clusters, arena)
        log_probs, softmax = masked_log_softmax_forward(logits, masks[rows])
        taken = log_probs[index, slab_actions]
        values3, vh_ctx = mlp_forward(policy.value_head, global_state, arena)
        values = values3.reshape(-1)

        ratio = np.exp(taken - old_log_probs[rows])
        surrogate1 = ratio * slab_advantages
        clipped_ratio = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
        surrogate2 = clipped_ratio * slab_advantages
        choose1 = surrogate1 <= surrogate2
        surrogate += float(np.where(choose1, surrogate1, surrogate2).sum())
        value_error = values - value_targets[rows]
        squared_error += float((value_error * value_error).sum())

        # d/d ratio of the clipped surrogate: through surrogate1 where it is the
        # min, through surrogate2 only where the clip is inactive.
        in_range = (ratio >= 1.0 - clip_epsilon) & (ratio <= 1.0 + clip_epsilon)
        g_ratio = np.where(choose1, slab_advantages, slab_advantages * in_range) * (-inv_b)
        g_taken = g_ratio * ratio
        # Entropy bonus: d/d log_probs of -c_e * mean(-(p * lp).sum()) with
        # p = exp(lp) gives +c_e/B * p * (lp + 1).
        g_log_probs = (entropy_coef * inv_b) * (softmax * (log_probs + 1.0))
        g_log_probs[index, slab_actions] += g_taken
        g_logits = masked_log_softmax_backward(softmax, g_log_probs)
        g_per_query = action_logits_backward(policy, logits_ctx, g_logits, arena)
        g_values = (value_coef * inv_b) * value_error
        g_global = mlp_backward(policy.value_head, vh_ctx, g_values.reshape(-1, 1), arena)
        encode_state_batch_backward(encoder, enc_ctx, g_per_query, g_global, arena)
    return -(surrogate / batch), 0.5 * (squared_error / batch)


def _clone_step(
    policy: Any,
    per_query: np.ndarray,
    snapshots: list,
    masks: np.ndarray,
    old_log_probs: np.ndarray,
    beta_clone: float,
    batch: int,
    clusters: Any,
    arena: Arena,
) -> "tuple[float, np.ndarray]":
    """Behaviour-cloning term ``beta * mean(KL(pi_old || pi_new))`` of both aux phases, for one slab.

    Returns the slab's sum of ``KL(pi_old || pi_new)`` and the gradient of the
    term (a mean over the whole ``batch``) w.r.t. the per-query rows.
    """
    logits, logits_ctx = action_logits_forward(policy, per_query, snapshots, clusters, arena)
    new_log_probs, softmax = masked_log_softmax_forward(logits, masks)
    p_old = np.exp(old_log_probs)
    divergence = float((p_old * (old_log_probs - new_log_probs)).sum(axis=-1).sum())
    g_logits = masked_log_softmax_backward(softmax, (-beta_clone / batch) * p_old)
    return divergence, action_logits_backward(policy, logits_ctx, g_logits, arena)


def ppg_aux_step(
    policy: Any,
    plan_embeddings: np.ndarray,
    snapshots: list,
    masks: np.ndarray,
    old_log_probs: np.ndarray,
    value_targets: np.ndarray,
    beta_clone: float,
    arena: Arena,
    clusters: Any = None,
) -> float:
    """One fused PPG auxiliary epoch step (aux value distillation + clone), slab by slab.

    Value head and global MLP receive no gradient (their grads stay None),
    matching the tape where the aux loss never touches the value path.
    """
    batch = len(snapshots)
    encoder = policy.state_encoder
    squared_error = divergence = 0.0
    for rows, per_query, _, enc_ctx in _encoded_slabs(
        policy, plan_embeddings, snapshots, arena, need_global=False, clusters=clusters
    ):
        size, num_queries = per_query.shape[:2]
        predicted3, ah_ctx = mlp_forward(policy.aux_head, per_query, arena)
        inv_n = 1.0 / num_queries
        value_predictions = predicted3.reshape(size, num_queries).sum(axis=-1) * inv_n
        aux_error = value_predictions - value_targets[rows]
        squared_error += float((aux_error * aux_error).sum())
        slab_divergence, g_per_query = _clone_step(
            policy, per_query, snapshots[rows], masks[rows], old_log_probs[rows], beta_clone, batch, clusters, arena
        )
        divergence += slab_divergence

        g_vp = aux_error * (1.0 / batch)
        g_predicted = np.broadcast_to((g_vp * inv_n)[:, None, None], (size, num_queries, 1))
        g_per_query += mlp_backward(policy.aux_head, ah_ctx, g_predicted, arena)
        encode_state_batch_backward(encoder, enc_ctx, g_per_query, None, arena)
    return 0.5 * (squared_error / batch) + beta_clone * (divergence / batch)


def iq_ppo_aux_step(
    policy: Any,
    plan_embeddings: np.ndarray,
    snapshots: list,
    query_ids: np.ndarray,
    masks: np.ndarray,
    old_log_probs: np.ndarray,
    time_targets: np.ndarray,
    beta_clone: float,
    arena: Arena,
    clusters: Any = None,
) -> float:
    """One fused IQ-PPO auxiliary step (finish-time regression + clone), slab by slab."""
    batch = len(snapshots)
    query_ids = np.asarray(query_ids, dtype=np.int64)
    encoder = policy.state_encoder
    squared_error = divergence = 0.0
    for rows, per_query, _, enc_ctx in _encoded_slabs(
        policy, plan_embeddings, snapshots, arena, need_global=False, clusters=clusters
    ):
        size, num_queries = per_query.shape[:2]
        index = np.arange(size)
        times3, ah_ctx = mlp_forward(policy.aux_head, per_query, arena)
        aux_error = times3.reshape(size, num_queries)[index, query_ids[rows]] - time_targets[rows]
        squared_error += float((aux_error * aux_error).sum())
        slab_divergence, g_per_query = _clone_step(
            policy, per_query, snapshots[rows], masks[rows], old_log_probs[rows], beta_clone, batch, clusters, arena
        )
        divergence += slab_divergence

        g_times = np.zeros((size, num_queries))
        g_times[index, query_ids[rows]] = aux_error * (1.0 / batch)
        g_per_query += mlp_backward(policy.aux_head, ah_ctx, g_times.reshape(size, num_queries, 1), arena)
        encode_state_batch_backward(encoder, enc_ctx, g_per_query, None, arena)
    return 0.5 * (squared_error / batch) + beta_clone * (divergence / batch)
