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

``Adam`` serves the policy and gain-model updates, a few steps over large
parameter sets.  The simulator fit takes thousands of tiny steps, so it runs
the same fourteen passes (:func:`adam_passes`) inside its own program
(``repro.perf.fit``), over slabs it keeps for the whole fit instead of
gathering and installing every step; there the ``param.data`` arrays are
views of the weight slab, updated in place, until the fit installs fresh
copies at its end.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "adam_passes", "clip_grad_norm"]


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
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: "list[np.ndarray] | None" = None

    def _scratch_buffers(self) -> "list[np.ndarray]":
        if self._scratch is None:
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
        return self._scratch

    def step(self) -> None:
        scratch = self._scratch_buffers()
        for param, velocity, buf in zip(self.parameters, self._velocity, scratch):
            if param.grad is None:
                continue
            velocity *= self.momentum
            np.multiply(param.grad, self.lr, out=buf)
            velocity -= buf
            # Fresh array on purpose — identity-keyed inference caches key
            # off param.data, so it must be replaced rather than mutated.
            param.data = param.data + velocity


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba), the default for all BQSched networks."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
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
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
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
            if self.weight_decay:
                np.multiply(data, self.weight_decay, out=step)
                grad += step
            adam_passes(grad, m, v, step, self.lr, (self.beta1, self.beta2), self.eps, bias1, bias2)
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
