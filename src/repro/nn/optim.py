"""Gradient-descent optimisers for :class:`repro.nn.layers.Module` parameters.

``Adam.step`` gathers every ``param.grad`` into one flat slab, runs the update
as fourteen in-place ufunc passes over the flat moment slabs, taking the step
in **one fresh result slab per step**, turns the step into the new weights in
place and installs ``param.data`` as reshaped views of that slab.  Fresh on
purpose: the inference fast paths (the decision program's
``fastinfer.Float32Pack``, ``fastgrad``'s fused QKV cache) detect updates by array
*identity*, so ``param.data`` is
replaced, never mutated, and no slab aliases it across steps — it is
re-gathered whenever a caller rebinds it (``Module.load_state_dict``, the
keep-best restore).  Every pass mirrors the historical per-parameter
arithmetic operation for operation (scalar multiplies commute, ``a + b`` is
IEEE-commutative, elementwise operations do not care how elements are
partitioned into arrays), so results are bit-identical — pinned by
``tests/test_optim_inplace.py``.  ``SGD`` still updates one array at a time.

``Adam`` serves only the policy update, a few steps over large parameter
sets.  The small fits — the simulator fit (``repro.perf.fit``) and the
scheduling-gain model (``repro.core.gain``) — take hundreds to thousands of
tiny steps, so they run :class:`AdamSlabs`: the same fourteen passes
(:func:`adam_passes`) over weight, gradient and moment slabs kept for the
whole fit instead of gathered and installed every step.  For the length of
a fit the ``param.data`` arrays are views of the weight slab, updated in
place, the layer kernels write every gradient straight into its slab view,
and the fit installs fresh copies at its end.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby
from typing import Any, Hashable, Iterable, Iterator, Sequence

import numpy as np

from . import fastgrad
from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "AdamSlabs", "adam_passes", "clip_grad_norm"]

#: Adam's moment decay rates and denominator epsilon, in :class:`Adam` and :class:`AdamSlabs` alike.
_BETAS = (0.9, 0.999)
_EPS = 1e-8


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, which trainers log as a stability signal.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            np.multiply(param.grad, scale, out=param.grad)
    return total


def adam_passes(
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    buf: np.ndarray,
    lr: float,
    betas: tuple[float, float],
    eps: float,
    bias1: float,
    bias2: float,
) -> None:
    """Adam's in-place passes over flat slabs, short of applying the step.

    Updates the moments ``m`` and ``v`` from ``grad``, then leaves the step
    ``lr * m_hat / (sqrt(v_hat) + eps)`` in ``buf``; ``grad`` is clobbered.
    The caller subtracts ``buf`` from the weights.
    """
    beta1, beta2 = betas
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=buf)
    m += buf
    v *= beta2
    np.square(grad, out=buf)
    buf *= 1.0 - beta2
    v += buf
    # buf <- lr * m_hat, grad <- sqrt(v_hat) + eps; same op-for-op
    # arithmetic as `lr * (m / bias1) / (sqrt(v / bias2) + eps)`.
    np.divide(m, bias1, out=buf)
    buf *= lr
    np.divide(v, bias2, out=grad)
    np.sqrt(grad, out=grad)
    grad += eps
    buf /= grad


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is not None:
                # Fresh array on purpose — identity-keyed inference caches key
                # off param.data, so it must be replaced rather than mutated.
                param.data = param.data - self.lr * param.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba): the policy update's, stepped at ``repro.core.ppo.LEARNING_RATE``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        super().__init__(parameters, lr)
        self._step_count = 0
        # Parameter i owns elements [_offsets[i], _offsets[i + 1]) of every slab.
        self._offsets = [0, *np.cumsum([p.data.size for p in self.parameters]).tolist()]
        total = self._offsets[-1]
        self._m, self._v = np.zeros(total), np.zeros(total)
        self._grad = np.empty(total)
        # Last step's result slab and the views of it that step installed as
        # ``param.data`` (``None`` for a parameter it skipped).
        self._data = np.empty(0)
        self._installed: "list[np.ndarray | None]" = [None] * len(self.parameters)

    def _runs(self) -> "list[tuple[int, int]]":
        """Maximal ``[first, last)`` index ranges of parameters that have a gradient."""
        runs, first = [], 0
        for has_grad, group in groupby(self.parameters, key=lambda param: param.grad is not None):
            last = first + len(list(group))
            if has_grad:
                runs.append((first, last))
            first = last
        return runs

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - _BETAS[0] ** self._step_count
        bias2 = 1.0 - _BETAS[1] ** self._step_count
        params, offsets, installed = self.parameters, self._offsets, self._installed
        # Fresh slab on purpose: the inference caches key off param.data
        # identity.  Each run's slice holds the step, then the new weights.
        result = np.empty(offsets[-1])
        fresh: "list[np.ndarray | None]" = [None] * len(params)
        for first, last in self._runs():
            run = slice(offsets[first], offsets[last])
            grad, step, m, v = self._grad[run], result[run], self._m[run], self._v[run]
            np.concatenate([p.grad.ravel() for p in params[first:last]], out=grad)
            if all(params[i].data is installed[i] for i in range(first, last)):
                data = self._data[run]
            else:
                # First step, or the caller rebound param.data since the last one.
                data = np.concatenate([p.data.ravel() for p in params[first:last]])
            adam_passes(grad, m, v, step, self.lr, _BETAS, _EPS, bias1, bias2)
            np.subtract(data, step, out=step)
            for i in range(first, last):
                fresh[i] = params[i].data = result[offsets[i] : offsets[i + 1]].reshape(params[i].data.shape)
        self._data = result
        self._installed = fresh

    def state_dict(self) -> dict[str, Any]:
        """The step count and copies of the two flat moment slabs."""
        return {"step": self._step_count, "m": self._m.copy(), "v": self._v.copy()}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into an optimiser over same-sized parameters."""
        m, v = (np.asarray(state[key], dtype=np.float64) for key in ("m", "v"))
        if m.shape != self._m.shape or v.shape != self._v.shape:
            raise ValueError(f"Adam state holds {m.size} and {v.size} moment elements, the parameters {self._m.size}")
        self._step_count, self._m[:], self._v[:] = int(state["step"]), m, v


class _SlabArena(fastgrad.Arena):
    """A small fit's arena for the ``fastgrad`` layer kernels.

    Buffers are handed out in call order from one sequence per step key (a
    fit's steps of one kind ask for the same shapes in the same order), so a
    step reuses the buffers of the last step of its kind without a pool
    lookup.  Each gradient is written once, with ``out=``, into the slab view
    kept for its parameters.  It replaces all four members the kernels call
    and keeps no pool, so it does not run ``Arena.__init__``; ``reset`` and
    the pool sizes are not for it.
    """

    def __init__(self, grads: dict[tuple[Parameter, ...], np.ndarray]) -> None:
        self._grads = grads
        self._sequences: dict[Hashable, list[np.ndarray]] = {}
        self._buffers: list[np.ndarray] = []
        self._taken = 0

    def begin(self, key: Hashable) -> None:
        """Start a step: hand out ``key``'s buffers again from the first."""
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
        """Nothing to do: a buffer is the step's until the next :meth:`begin`."""

    def grad(self, params: tuple[Parameter, ...], op: Any, a: Any, b: Any) -> None:
        op(a, b, out=self._grads[params])


class AdamSlabs:
    """Adam over flat float64 slabs kept for the length of a fit: the small-fit optimizer.

    ``layout`` lists the slab's blocks in order, each the parameters it
    holds side by side on their last axis (one parameter, or the fused
    query / key / value projections of an attention block).  The weights,
    gradients, both moments and the step's scratch are one flat slab each.
    Inside :meth:`bound` every ``param.data`` is its view of the weight
    slab; a step runs the layer kernels through :attr:`arena` (which writes
    each gradient into its view of the gradient slab) and then
    :meth:`step`, which is ``Adam.step``'s arithmetic in place.  A step over
    a prefix of the slabs (``prefixes``) leaves the rest, weights and
    moments, untouched, as ``Adam`` skips a parameter that got no gradient.
    The moments and the step count carry over from one fit to the next.
    """

    def __init__(self, layout: Sequence[tuple[Parameter, ...]], lr: float, prefixes: Sequence[int] = ()) -> None:
        self.lr = lr
        #: Steps taken over all fits so far.
        self._step_count = 0
        #: ``(offset, block shape, parameters)`` of every slab block.
        self._entries: list[tuple[int, tuple[int, ...], tuple[Parameter, ...]]] = []
        start = 0
        for params in layout:
            first = params[0].data.shape
            shape = first[:-1] + (first[-1] * len(params),)
            self._entries.append((start, shape, params))
            start += int(np.prod(shape))
        #: Slab elements.
        self.size = start
        self._theta, self._grad, self._buf = np.empty(start), np.zeros(start), np.empty(start)
        self.m, self.v = np.zeros(start), np.zeros(start)
        self.arena = _SlabArena(dict(self.block_views(self._grad)))
        self._spans = {
            end: (self._theta[:end], self._grad[:end], self.m[:end], self.v[:end], self._buf[:end])
            for end in (*prefixes, start)
        }

    def block_views(self, slab: np.ndarray) -> Iterator[tuple[tuple[Parameter, ...], np.ndarray]]:
        """Each layout block's parameters and its view into a slab laid out like this one."""
        for start, shape, params in self._entries:
            yield params, slab[start : start + int(np.prod(shape))].reshape(shape)

    def parameter_views(self, slab: np.ndarray) -> Iterator[tuple[Parameter, np.ndarray]]:
        """Each parameter's view into a slab laid out like this one."""
        for params, block in self.block_views(slab):
            width = block.shape[-1] // len(params)
            for index, param in enumerate(params):
                yield param, block[..., index * width : (index + 1) * width]

    @contextmanager
    def bound(self) -> Iterator[None]:
        """Point every parameter at its weight-slab view (its weights copied in) while the block runs."""
        for param, view in self.parameter_views(self._theta):
            view[...] = param.data
            param.data = view
        try:
            yield
        finally:
            # Fresh arrays on purpose: the caches keyed by param.data identity rebuild.
            for param, view in self.parameter_views(self._theta):
                param.data = view.copy()

    def step(self, end: int) -> None:
        """One Adam step over the first ``end`` slab elements (:attr:`size`, or one of ``prefixes``)."""
        self._step_count += 1
        bias1 = 1.0 - _BETAS[0] ** self._step_count
        bias2 = 1.0 - _BETAS[1] ** self._step_count
        theta, grad, m, v, buf = self._spans[end]
        adam_passes(grad, m, v, buf, self.lr, _BETAS, _EPS, bias1, bias2)
        theta -= buf
