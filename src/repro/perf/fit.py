"""The simulator fit: one float64 program over a parameter slab (paper §IV-C).

:class:`FitProgram` trains a :class:`~repro.perf.model.ConcurrentPredictionModel`
one example at a time: cross-entropy over which running query finishes
first, plus (multitask) the squared error of that query's remaining time,
then one Adam step.  The MLPs, LayerNorms and attention run through the
``repro.nn.fastgrad`` layer kernels, the same bodies the policy update runs;
the program keeps only what is its own: the slab layout, the input
projection, the loss head and Adam.  For the length of a fit the network's
parameters, their gradients and the two Adam moments live in flat float64
slabs:

* every ``param.data`` is its view of the weight slab, so the kernels read
  the weights Adam updates in place.  The query / key / value projections of
  an attention block are one fused ``(H, 3H)`` weight block and one ``3H``
  bias block, pinned as the block ``fastgrad._fused_qkv`` hands the
  attention kernels;
* the regressor comes last, so an example without a regression target
  updates a prefix of the slabs and leaves the regressor's weights and
  moments untouched (as Adam skips a parameter that got no gradient);
* the kernels' arena is :class:`_SlabArena`: it hands out buffers in call
  order and writes every gradient once per example straight into its slab
  view (``out=``), never into ``param.grad``;
* Adam runs as ``Adam.step``'s fourteen in-place passes
  (``repro.nn.optim.adam_passes``) over the slabs.

Adam's passes are elementwise and a gradient's destination changes none of
its bits, so the fitted weights are those of the layer kernels followed by
``Adam.step`` (pinned in ``tests/test_perf.py``), and per-example gradients
match the tape (``tests/test_fastgrad.py``).

When a fit ends every parameter gets a fresh copy of its slab view, so no
alias outlives a fit and the caches keyed by array identity
(``fastgrad._fused_qkv``, the float32 decision program's pack) rebuild.  The moments and the step count carry
over from one fit to the next, from ``train_from_log`` into every
``update_from_log``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import AttentionBlock, Module, MultiHeadAttention, Parameter, fastgrad
from ..nn.optim import adam_passes
from .model import ConcurrentPredictionModel

__all__ = ["FitProgram"]

#: Adam's moment decay rates and denominator epsilon: ``repro.nn.optim.Adam``'s defaults.
_BETAS = (0.9, 0.999)
_EPS = 1e-8


class _SlabArena(fastgrad.Arena):
    """The fit's arena for the ``fastgrad`` layer kernels.

    Buffers are handed out in call order from one sequence per ``(token
    count, has regression target)``, so an example reuses the buffers of the
    last example of its kind without a pool lookup.  Each gradient is written
    once, with ``out=``, into the slab view kept for its parameters.  It
    replaces all four members the kernels call and keeps no pool, so it
    does not run ``Arena.__init__``; ``reset`` and the pool sizes are not
    for it.
    """

    def __init__(self, grads: dict[tuple[Parameter, ...], np.ndarray]) -> None:
        self._grads = grads
        self._sequences: dict[tuple[int, bool], list[np.ndarray]] = {}
        self._buffers: list[np.ndarray] = []
        self._taken = 0

    def begin(self, key: tuple[int, bool]) -> None:
        """Start an example: hand out ``key``'s buffers again from the first."""
        self._buffers = self._sequences.setdefault(key, [])
        self._taken = 0

    def empty(self, shape: Sequence[int]) -> np.ndarray:
        buffers, taken = self._buffers, self._taken
        if taken == len(buffers):
            buffers.append(np.empty(shape))
        self._taken = taken + 1
        return buffers[taken]

    owned = empty

    def release(self, buf: np.ndarray) -> None:
        """Nothing to do: a buffer is the example's until the next :meth:`begin`."""

    def grad(self, params: tuple[Parameter, ...], op: Any, a: Any, b: Any) -> None:
        op(a, b, out=self._grads[params])


class FitProgram:
    """Per-example Adam fitting of a ``ConcurrentPredictionModel`` over flat slabs.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the reason
    when ``fastgrad.perfmodel_training_reason`` rejects the model.
    """

    def __init__(self, model: ConcurrentPredictionModel, lr: float) -> None:
        reason = fastgrad.perfmodel_training_reason(model)
        if reason is not None:
            raise ConfigurationError(f"the simulator fit cannot train this model: {reason}")
        self.model = model
        self.lr = lr
        #: Adam steps taken over all fits so far.
        self._step_count = 0
        total = sum(param.data.size for param in model.parameters())
        self._theta, self._grad, self._buf = np.empty(total), np.zeros(total), np.empty(total)
        self.m, self.v = np.zeros(total), np.zeros(total)

        def each(module: Module) -> list[tuple[Parameter, ...]]:
            return [(param,) for param in module.parameters()]

        # Slab blocks in order, each the parameters it holds side by side on its last axis.
        layout = each(model.input_proj)
        fused: list[tuple[MultiHeadAttention, tuple[Parameter, ...], tuple[Parameter, ...]]] = []
        if model.use_attention:
            for index in range(model.encoder.num_layers):
                block = model.encoder._modules[f"block_{index}"]
                assert isinstance(block, AttentionBlock)  # the training gate admits nothing else
                attention = block.attention
                projections = (attention.query_proj, attention.key_proj, attention.value_proj)
                weight, bias = zip(*(projection.parameters() for projection in projections))
                layout += [weight, bias]
                fused.append((attention, weight, bias))
                for module in (attention.out_proj, block.norm1, block.feedforward, block.norm2):
                    layout += each(module)
        layout += each(model.classifier)
        #: Slab elements before the regressor: the span a classification-only step updates.
        self._shared = sum(param.data.size for params in layout for param in params)
        layout += each(model.regressor)

        #: ``(offset, block shape, parameters)`` of every slab block.
        self._entries: list[tuple[int, tuple[int, ...], tuple[Parameter, ...]]] = []
        grads: dict[tuple[Parameter, ...], np.ndarray] = {}
        weights: dict[tuple[Parameter, ...], np.ndarray] = {}
        start = 0
        for params in layout:
            first = params[0].data.shape
            shape = first[:-1] + (first[-1] * len(params),)
            size = int(np.prod(shape))
            self._entries.append((start, shape, params))
            weights[params] = self._theta[start : start + size].reshape(shape)
            grads[params] = self._grad[start : start + size].reshape(shape)
            start += size
        covered = {id(param) for params in layout for param in params}
        if start != total or covered != {id(param) for param in model.parameters()}:
            raise ConfigurationError("the simulator fit's slab layout does not cover the model's parameters")
        #: ``(attention, fused Q/K/V weight view, fused bias view)`` of each attention block.
        self._fused = [(attention, weights[weight], weights[bias]) for attention, weight, bias in fused]
        self._arena = _SlabArena(grads)
        self._spans = {
            end: (self._theta[:end], self._grad[:end], self.m[:end], self.v[:end], self._buf[:end])
            for end in (self._shared, total)
        }

    def parameter_views(self, slab: np.ndarray) -> Iterator[tuple[Parameter, np.ndarray]]:
        """Each parameter's view into a slab laid out like this program's."""
        for start, shape, params in self._entries:
            block = slab[start : start + int(np.prod(shape))].reshape(shape)
            width = shape[-1] // len(params)
            for index, param in enumerate(params):
                yield param, block[..., index * width : (index + 1) * width]

    @contextmanager
    def _bound(self) -> Iterator[None]:
        """Point every parameter at its weight-slab view (its weights copied in) while the block runs."""
        for param, view in self.parameter_views(self._theta):
            view[...] = param.data
            param.data = view
        for attention, weight, bias in self._fused:
            fastgrad._pin_fused_qkv(attention, weight, bias)
        try:
            yield
        finally:
            # Fresh arrays on purpose: the fused Q/K/V cache keys off param.data identity.
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
        with self._bound():
            for _ in range(epochs):
                rng.shuffle(order)
                for index in order:
                    target = targets[index]
                    self._example(features[index], labels[index], target, gamma)
                    self._adam(len(self._theta) if target is not None else self._shared)

    def gradient(self, features: np.ndarray, label: int, target: "float | None", gamma: float) -> np.ndarray:
        """One example's gradient slab at the model's current weights (no update).

        A classification-only example leaves the regressor's span zero.
        """
        self._grad[self._shared :] = 0.0
        with self._bound():
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

    def _example(self, x: np.ndarray, label: int, target: "float | None", gamma: float) -> None:
        """Forward and backward of one example; writes every gradient of its span."""
        model, arena = self.model, self._arena
        k = x.shape[0]
        arena.begin((k, target is not None))
        weight, bias = model.input_proj.weight, model.input_proj.bias
        assert bias is not None  # the training gate refuses bias-free layers
        pre = np.matmul(x, weight.data, out=arena.empty((k, weight.data.shape[1])))
        pre += bias.data
        tokens0 = np.tanh(pre, out=pre)
        tokens = tokens0
        if model.use_attention:
            # A batch of one: the attention kernels' 3-D shapes and GEMM dispatch.
            stacked, encoder_ctx = fastgrad.attention_encoder_forward(model.encoder, tokens0[None], arena)
            tokens = stacked[0]
        logits, classifier_ctx = fastgrad.mlp_forward(model.classifier, tokens, arena)
        logits = logits.reshape(k)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        g_logits = np.exp(shifted - log_sum)
        g_logits[label] -= 1.0
        g_tokens = fastgrad.mlp_backward(model.classifier, classifier_ctx, g_logits.reshape(k, 1), arena)
        if target is not None:
            times, regressor_ctx = fastgrad.mlp_forward(model.regressor, tokens, arena)
            residual = times.reshape(k)[label] - target
            g_times = arena.empty((k, 1))
            g_times.fill(0.0)
            g_times[label, 0] = gamma * 2.0 * residual
            g_tokens += fastgrad.mlp_backward(model.regressor, regressor_ctx, g_times, arena)
        if model.use_attention:
            g_tokens = fastgrad.attention_encoder_backward(model.encoder, encoder_ctx, g_tokens[None], arena)[0]
        g_pre = np.multiply(tokens0, tokens0, out=arena.empty(tokens0.shape))
        np.subtract(1.0, g_pre, out=g_pre)
        np.multiply(g_tokens, g_pre, out=g_pre)
        arena.grad((weight,), np.matmul, x.T, g_pre)
        arena.grad((bias,), np.add.reduce, g_pre, 0)
