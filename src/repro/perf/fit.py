"""The simulator fit: one float64 program over a parameter slab (paper §IV-C).

:class:`FitProgram` trains a :class:`~repro.perf.model.ConcurrentPredictionModel`
one example at a time: cross-entropy over which running query finishes
first, plus (multitask) the squared error of that query's remaining time,
then one Adam step.  For the length of a fit the network's parameters,
their gradients and the two Adam moments live in flat float64 slabs:

* the query / key / value projections of an attention block are one fused
  ``(H, 3H)`` weight block and one ``3H`` bias block, so the fused QKV GEMM
  reads the slab directly;
* the regressor comes last, so an example without a regression target
  updates a prefix of the slabs and leaves the regressor's weights and
  moments untouched (as Adam skips a parameter that got no gradient);
* every gradient is written once per example, straight into its slab view
  (``np.matmul(..., out=)``, ``np.add.reduce(..., out=)``), and the
  activations reuse one set of buffers per token count;
* Adam runs as ``Adam.step``'s fourteen in-place passes
  (``repro.nn.optim.adam_passes``) over the slabs.

Every operation keeps the expression order of the ``repro.nn.fastgrad``
layer kernels and ``repro.nn.optim.Adam``, and Adam's passes are
elementwise, so the slab layout changes no bit: the fitted weights are
those of the layer kernels followed by ``Adam.step`` (pinned in
``tests/test_perf.py``), and per-example gradients match the tape
(``tests/test_fastgrad.py``).

Weights are gathered from ``param.data`` when a fit starts and installed as
fresh arrays when it ends, so no alias outlives a fit and the inference
caches keyed by array identity (``fastinfer._fused_qkv``) stay correct.  The
moments and the step count carry over from one fit to the next, from
``train_from_log`` into every ``update_from_log``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import MLP, AttentionBlock, LayerNorm, Linear, Parameter, fastgrad
from ..nn.optim import adam_passes
from .model import ConcurrentPredictionModel

__all__ = ["FitProgram"]

#: Adam's moment decay rates and denominator epsilon: ``repro.nn.optim.Adam``'s defaults.
_BETAS = (0.9, 0.999)
_EPS = 1e-8

#: ``(weight, bias, weight gradient, bias gradient)`` slab views of one affine map.
_Affine = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: An MLP block: its affine map and the activation after it (``None`` = identity).
_Layer = tuple[_Affine, str | None]
#: A LayerNorm: ``(gamma, beta, gamma gradient, beta gradient)`` views and ``eps``.
_Norm = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]


def _bias(linear: Linear) -> Parameter:
    assert linear.bias is not None  # the training gate refuses bias-free layers
    return linear.bias


class _Block:
    """Slab views of one attention block (fused-QKV attention, feed-forward, two norms)."""

    __slots__ = ("qkv", "out", "norm1", "feedforward", "norm2", "heads", "head_dim", "scale")

    def __init__(
        self, qkv: _Affine, out: _Affine, norm1: _Norm, feedforward: list[_Layer], norm2: _Norm, heads: int
    ) -> None:
        self.qkv, self.out, self.norm1, self.feedforward, self.norm2 = qkv, out, norm1, feedforward, norm2
        self.heads = heads
        self.head_dim = out[0].shape[0] // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)

    def split_heads(self, qkv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(1, heads, k, head_dim)`` query / key / value views of a fused ``(1, k, 3H)`` buffer."""
        batch, tokens, _ = qkv.shape
        split = qkv.reshape(batch, tokens, 3, self.heads, self.head_dim).transpose(2, 0, 3, 1, 4)
        return split[0], split[1], split[2]


class FitProgram:
    """Per-example Adam fitting of a ``ConcurrentPredictionModel`` over flat slabs.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the reason
    when ``fastgrad.perfmodel_training_reason`` rejects the model.
    """

    def __init__(self, model: ConcurrentPredictionModel, lr: float) -> None:
        reason = fastgrad.perfmodel_training_reason(model)
        if reason is not None:
            raise ConfigurationError(f"the simulator fit cannot train this model: {reason}")
        self.lr = lr
        #: Adam steps taken over all fits so far.
        self._step_count = 0
        total = sum(param.data.size for param in model.parameters())
        self._theta, self._grad, self._buf = np.empty(total), np.zeros(total), np.empty(total)
        self.m, self.v = np.zeros(total), np.zeros(total)
        #: ``(offset, block shape, parameters)``: the parameters split the block's last axis evenly.
        self._entries: list[tuple[int, tuple[int, ...], list[Parameter]]] = []
        self._cursor = 0

        self._input = self._affine(model.input_proj)
        self._blocks: list[_Block] = []
        if model.use_attention:
            for index in range(model.encoder.num_layers):
                block = model.encoder._modules[f"block_{index}"]
                # The training gate admits LayerNorm attention blocks only.
                assert isinstance(block, AttentionBlock)
                assert isinstance(block.norm1, LayerNorm) and isinstance(block.norm2, LayerNorm)
                attention = block.attention
                projections = (attention.query_proj, attention.key_proj, attention.value_proj)
                qkv = self._carve([p.weight for p in projections]) + self._carve([_bias(p) for p in projections])
                self._blocks.append(
                    _Block(
                        (qkv[0], qkv[2], qkv[1], qkv[3]),
                        self._affine(attention.out_proj),
                        self._norm(block.norm1),
                        self._mlp(block.feedforward),
                        self._norm(block.norm2),
                        attention.num_heads,
                    )
                )
        self._classifier = self._mlp(model.classifier)
        #: Slab elements before the regressor: the span a classification-only step updates.
        self._shared = self._cursor
        self._regressor = self._mlp(model.regressor)
        covered = {id(param) for _, _, params in self._entries for param in params}
        if self._cursor != total or covered != {id(param) for param in model.parameters()}:
            raise ConfigurationError("the simulator fit's slab layout does not cover the model's parameters")
        self._spans = {
            end: (self._theta[:end], self._grad[:end], self.m[:end], self.v[:end], self._buf[:end])
            for end in (self._shared, total)
        }
        #: Activation buffers per ``(token count, has regression target)``, handed out in call order.
        self._scratch: dict[tuple[int, bool], list[np.ndarray]] = {}
        self._current: list[np.ndarray] = []
        self._taken = 0

    # ------------------------------------------------------------------ #
    # Slab layout
    # ------------------------------------------------------------------ #
    def _carve(self, params: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
        """Next slab block holding ``params`` side by side; its (weights, gradient) views."""
        first = params[0].data.shape
        shape = first[:-1] + (first[-1] * len(params),)
        start, size = self._cursor, int(np.prod(shape))
        self._entries.append((start, shape, params))
        self._cursor += size
        return self._theta[start : start + size].reshape(shape), self._grad[start : start + size].reshape(shape)

    def _affine(self, linear: Linear) -> _Affine:
        weight, grad_weight = self._carve([linear.weight])
        bias, grad_bias = self._carve([_bias(linear)])
        return weight, bias, grad_weight, grad_bias

    def _mlp(self, mlp: MLP) -> list[_Layer]:
        return [(self._affine(linear), act) for linear, act in fastgrad._mlp_blocks(mlp)]

    def _norm(self, norm: LayerNorm) -> _Norm:
        gamma, grad_gamma = self._carve([norm.gamma])
        beta, grad_beta = self._carve([norm.beta])
        return gamma, beta, grad_gamma, grad_beta, norm.eps

    def parameter_views(self, slab: np.ndarray) -> Iterator[tuple[Parameter, np.ndarray]]:
        """Each parameter's view into a slab laid out like this program's."""
        for start, shape, params in self._entries:
            block = slab[start : start + int(np.prod(shape))].reshape(shape)
            width = shape[-1] // len(params)
            for index, param in enumerate(params):
                yield param, block[..., index * width : (index + 1) * width]

    def _gather(self) -> None:
        for param, view in self.parameter_views(self._theta):
            view[...] = param.data

    def _install(self) -> None:
        # Fresh arrays on purpose: the inference caches key off param.data identity.
        for param, view in self.parameter_views(self._theta):
            param.data = view.copy()

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        features: Sequence[np.ndarray],
        labels: Sequence[int],
        targets: "Sequence[float | None]",
        gamma: float,
        epochs: int,
        rng: np.random.Generator,
    ) -> None:
        """``epochs`` shuffled passes, one Adam step per example.

        ``targets`` holds each example's scaled remaining time, or ``None``
        for a classification-only step.
        """
        features = [np.asarray(rows, dtype=np.float64) for rows in features]
        order = list(range(len(features)))
        self._gather()
        for _ in range(epochs):
            rng.shuffle(order)
            for index in order:
                target = targets[index]
                self._example(features[index], labels[index], target, gamma)
                self._adam(len(self._theta) if target is not None else self._shared)
        self._install()

    def gradient(self, features: np.ndarray, label: int, target: "float | None", gamma: float) -> np.ndarray:
        """One example's gradient slab at the model's current weights (no update).

        A classification-only example leaves the regressor's span zero.
        """
        self._grad[self._shared :] = 0.0
        self._gather()
        self._example(np.asarray(features, dtype=np.float64), label, target, gamma)
        return self._grad.copy()

    def _adam(self, end: int) -> None:
        """One Adam step over the first ``end`` slab elements."""
        self._step_count += 1
        bias1 = 1.0 - _BETAS[0] ** self._step_count
        bias2 = 1.0 - _BETAS[1] ** self._step_count
        theta, grad, m, v, buf = self._spans[end]
        adam_passes(grad, m, v, buf, self.lr, _BETAS, _EPS, bias1, bias2)
        theta -= buf

    def _take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next activation buffer of this example (allocated on first use)."""
        buffers, taken = self._current, self._taken
        if taken == len(buffers):
            buffers.append(np.empty(shape))
        self._taken = taken + 1
        return buffers[taken]

    def _example(self, x: np.ndarray, label: int, target: "float | None", gamma: float) -> None:
        """Forward and backward of one example; writes every gradient of its span."""
        k = x.shape[0]
        self._current = self._scratch.setdefault((k, target is not None), [])
        self._taken = 0
        weight, bias, grad_weight, grad_bias = self._input
        pre = np.matmul(x, weight, out=self._take((k, weight.shape[1])))
        pre += bias
        tokens0 = np.tanh(pre, out=self._take(pre.shape))
        tokens = tokens0
        contexts: list[tuple] = []
        if self._blocks:
            # A batch of one: the attention kernels' 3-D shapes and GEMM dispatch.
            stacked = tokens0[None]
            for block in self._blocks:
                stacked, context = self._block_forward(block, stacked)
                contexts.append(context)
            tokens = stacked[0]
        logits, classifier_ctx = self._mlp_forward(self._classifier, tokens)
        logits = logits.reshape(k)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        g_logits = np.exp(shifted - log_sum)
        g_logits[label] -= 1.0
        g_tokens = self._mlp_backward(self._classifier, classifier_ctx, g_logits.reshape(k, 1))
        if target is not None:
            times, regressor_ctx = self._mlp_forward(self._regressor, tokens)
            residual = times.reshape(k)[label] - target
            g_times = self._take((k, 1))
            g_times.fill(0.0)
            g_times[label, 0] = gamma * 2.0 * residual
            g_tokens += self._mlp_backward(self._regressor, regressor_ctx, g_times)
        if self._blocks:
            g_stacked = g_tokens[None]
            for block, context in zip(reversed(self._blocks), reversed(contexts)):
                g_stacked = self._block_backward(block, context, g_stacked)
            g_tokens = g_stacked[0]
        g_pre = np.multiply(tokens0, tokens0, out=self._take(tokens0.shape))
        np.subtract(1.0, g_pre, out=g_pre)
        np.multiply(g_tokens, g_pre, out=g_pre)
        np.matmul(x.T, g_pre, out=grad_weight)
        np.add.reduce(g_pre, axis=0, out=grad_bias)

    # ------------------------------------------------------------------ #
    # Layers
    # ------------------------------------------------------------------ #
    def _mlp_forward(
        self, layers: list[_Layer], x: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        ctx = []
        for (weight, bias, _, _), act in layers:
            pre = np.matmul(x, weight, out=self._take(x.shape[:-1] + (weight.shape[1],)))
            pre += bias
            if act == "tanh":
                y = np.tanh(pre, out=pre)
            elif act == "relu":
                y = np.multiply(pre, pre > 0, out=pre)
            else:
                y = pre
            ctx.append((x, y))
            x = y
        return x, ctx

    def _mlp_backward(
        self, layers: list[_Layer], ctx: list[tuple[np.ndarray, np.ndarray]], g: np.ndarray
    ) -> np.ndarray:
        """Writes every layer's gradients and returns the input gradient; never mutates ``g``."""
        for ((weight, _, grad_weight, grad_bias), act), (x, y) in zip(reversed(layers), reversed(ctx)):
            if act == "tanh":
                d = np.multiply(y, y, out=self._take(y.shape))
                np.subtract(1.0, d, out=d)
                g = np.multiply(g, d, out=d)
            elif act == "relu":
                g = np.multiply(g, y > 0, out=self._take(y.shape))
            flat_g = g.reshape(-1, g.shape[-1])
            flat_x = x.reshape(-1, x.shape[-1])
            np.matmul(flat_x.T, flat_g, out=grad_weight)
            np.add.reduce(flat_g, axis=0, out=grad_bias)
            g = np.matmul(flat_g, weight.T, out=self._take(flat_x.shape)).reshape(x.shape)
        return g

    def _norm_forward(self, norm: _Norm, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, float]]:
        """LayerNorm over the last axis in the tape's expression order."""
        gamma, beta, _, _, eps = norm
        inv_n = 1.0 / x.shape[-1]
        mu = x.sum(axis=-1, keepdims=True) * inv_n
        centered = x - mu
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
        denom = (var + eps) ** 0.5
        x_hat = np.divide(centered, denom, out=centered)
        out = np.multiply(x_hat, gamma, out=self._take(x.shape))
        out += beta
        return out, (x_hat, 1.0 / denom, inv_n)

    def _norm_backward(self, norm: _Norm, ctx: tuple[np.ndarray, np.ndarray, float], g: np.ndarray) -> np.ndarray:
        gamma, _, grad_gamma, grad_beta, _ = norm
        x_hat, inv_std, inv_n = ctx
        np.add.reduce(g * x_hat, axis=(0, 1), out=grad_gamma)
        np.add.reduce(g, axis=(0, 1), out=grad_beta)
        g_xhat = g * gamma
        mean_g = g_xhat.sum(axis=-1, keepdims=True) * inv_n
        mean_gx = (g_xhat * x_hat).sum(axis=-1, keepdims=True) * inv_n
        g_xhat -= mean_g
        g_xhat -= x_hat * mean_gx
        return np.multiply(g_xhat, inv_std, out=g_xhat)

    def _block_forward(self, block: _Block, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        _, tokens, width = x.shape
        weight, bias = block.qkv[0], block.qkv[1]
        qkv = np.matmul(x, weight, out=self._take((1, tokens, 3 * width)))
        qkv += bias
        queries, keys, values = block.split_heads(qkv)
        weights = np.matmul(queries, keys.transpose(0, 1, 3, 2), out=self._take((1, block.heads, tokens, tokens)))
        weights *= block.scale
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        mixed = (weights @ values).transpose(0, 2, 1, 3).reshape(1, tokens, width)
        attended = np.matmul(mixed, block.out[0], out=self._take(x.shape))
        attended += block.out[1]
        attended += x
        normed1, norm1_ctx = self._norm_forward(block.norm1, attended)
        hidden, feedforward_ctx = self._mlp_forward(block.feedforward, normed1)
        hidden = np.add(normed1, hidden, out=self._take(hidden.shape))
        out, norm2_ctx = self._norm_forward(block.norm2, hidden)
        return out, (x, qkv, weights, mixed, norm1_ctx, feedforward_ctx, norm2_ctx)

    def _block_backward(self, block: _Block, ctx: tuple, g: np.ndarray) -> np.ndarray:
        x, qkv, weights, mixed, norm1_ctx, feedforward_ctx, norm2_ctx = ctx
        g_hidden = self._norm_backward(block.norm2, norm2_ctx, g)
        g_normed1 = self._mlp_backward(block.feedforward, feedforward_ctx, g_hidden)
        g_normed1 += g_hidden
        g_attended = self._norm_backward(block.norm1, norm1_ctx, g_normed1)
        g_x = self._attention_backward(block, x, qkv, weights, mixed, g_attended)
        g_x += g_attended
        return g_x

    def _attention_backward(
        self, block: _Block, x: np.ndarray, qkv: np.ndarray, weights: np.ndarray, mixed: np.ndarray, g: np.ndarray
    ) -> np.ndarray:
        _, tokens, width = g.shape
        queries, keys, values = block.split_heads(qkv)
        out_weight, _, grad_out_weight, grad_out_bias = block.out
        g2 = g.reshape(tokens, width)
        np.matmul(mixed.reshape(tokens, width).T, g2, out=grad_out_weight)
        np.add.reduce(g2, axis=0, out=grad_out_bias)
        g_mixed = np.matmul(g2, out_weight.T, out=self._take((tokens, width)))
        g_mixed = g_mixed.reshape(1, tokens, block.heads, block.head_dim).transpose(0, 2, 1, 3)
        g_scores = np.matmul(g_mixed, values.swapaxes(-1, -2), out=self._take(weights.shape))
        g_values = weights.swapaxes(-1, -2) @ g_mixed
        # Softmax backward, P * (g - <g, P>), in place over the incoming gradient.
        product = np.multiply(g_scores[0], weights[0], out=self._take(weights.shape[1:]))
        g_scores[0] -= product.sum(axis=-1, keepdims=True)
        g_scores *= weights
        g_scores *= block.scale
        g_queries = g_scores @ keys
        g_keys = g_scores.swapaxes(-1, -2) @ queries
        g_qkv = self._take(qkv.shape)
        for part, grad in zip(block.split_heads(g_qkv), (g_queries, g_keys, g_values)):
            part[...] = grad
        flat = g_qkv.reshape(tokens, 3 * width)
        weight, _, grad_weight, grad_bias = block.qkv
        np.matmul(x.reshape(tokens, width).T, flat, out=grad_weight)
        np.add.reduce(flat, axis=0, out=grad_bias)
        return np.matmul(flat, weight.T, out=self._take((tokens, width))).reshape(1, tokens, width)
