"""The simulator fit: one float64 program over a parameter slab (paper §IV-C).

:class:`FitProgram` trains a :class:`~repro.perf.model.ConcurrentPredictionModel`
one example at a time: cross-entropy over which running query finishes
first, plus (multitask) the squared error of that query's remaining time,
then one Adam step.  The MLPs, LayerNorms and attention run through the
``repro.nn.fastgrad`` layer kernels, the same bodies the policy update runs;
the optimizer is :class:`~repro.nn.optim.AdamSlabs`, the small-fit optimizer
the gain model runs too.  The program keeps only what is its own: the slab
layout, the input projection and the loss head.  For the length of a fit
the network's parameters, their gradients and the two Adam moments live in
flat float64 slabs:

* every ``param.data`` is its view of the weight slab, so the kernels read
  the weights Adam updates in place.  The query / key / value projections of
  an attention block are one fused ``(H, 3H)`` weight block and one ``3H``
  bias block, pinned as the block ``fastgrad._fused_qkv`` hands the
  attention kernels;
* the regressor comes last, so an example without a regression target
  updates a prefix of the slabs and leaves the regressor's weights and
  moments untouched (as Adam skips a parameter that got no gradient);
* the kernels' arena is the optimizer's: it hands out buffers in call order
  (one sequence per ``(token count, has regression target)``) and writes
  every gradient once per example straight into its slab view (``out=``),
  never into ``param.grad``;
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
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import AdamSlabs, AttentionBlock, Module, MultiHeadAttention, Parameter, fastgrad
from .model import ConcurrentPredictionModel

__all__ = ["FitProgram", "LEARNING_RATE"]

#: Adam step size of every simulator fit (``train_from_log`` and each ``update_from_log``).
LEARNING_RATE = 1e-3


class FitProgram(AdamSlabs):
    """Per-example Adam fitting of a ``ConcurrentPredictionModel`` over flat slabs.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the reason
    when ``fastgrad.perfmodel_training_reason`` rejects the model.
    """

    def __init__(self, model: ConcurrentPredictionModel, lr: float) -> None:
        reason = fastgrad.perfmodel_training_reason(model)
        if reason is not None:
            raise ConfigurationError(f"the simulator fit cannot train this model: {reason}")
        self.model = model

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
        super().__init__(layout, lr, prefixes=(self._shared,))

        covered = {id(param) for params in layout for param in params}
        total = sum(param.data.size for param in model.parameters())
        if self.size != total or covered != {id(param) for param in model.parameters()}:
            raise ConfigurationError("the simulator fit's slab layout does not cover the model's parameters")
        weights = dict(self.block_views(self._theta))
        #: ``(attention, fused Q/K/V weight view, fused bias view)`` of each attention block.
        self._fused = [(attention, weights[weight], weights[bias]) for attention, weight, bias in fused]

    @contextmanager
    def _bound(self) -> Iterator[None]:
        """:meth:`bound`, with each attention block's fused Q/K/V slab block pinned."""
        with self.bound():
            for attention, weight, bias in self._fused:
                fastgrad._pin_fused_qkv(attention, weight, bias)
            yield

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
                    self.step(self.size if target is not None else self._shared)

    def gradient(self, features: np.ndarray, label: int, target: "float | None", gamma: float) -> np.ndarray:
        """One example's gradient slab at the model's current weights (no update).

        A classification-only example leaves the regressor's span zero.
        """
        self._grad[self._shared :] = 0.0
        with self._bound():
            self._example(np.asarray(features, dtype=np.float64), label, target, gamma)
        return self._grad.copy()

    def _example(self, x: np.ndarray, label: int, target: "float | None", gamma: float) -> None:
        """Forward and backward of one example; writes every gradient of its span."""
        model, arena = self.model, self.arena
        k = x.shape[0]
        arena.begin((k, target is not None))
        weight, bias = model.input_proj.weight, model.input_proj.bias
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
