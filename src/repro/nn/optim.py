"""Gradient-descent optimisers for :class:`repro.nn.layers.Module` parameters.

The update loops run *in place* over per-parameter scratch buffers: one
``step()`` allocates exactly one fresh array per parameter — the new
``param.data`` itself.  That final allocation is deliberate, not an
oversight: the inference fast paths (``fastinfer._F32_CACHE``, the fused
QKV cache) detect parameter updates by array *identity*, so
``param.data`` must be replaced, never mutated.  Every in-place expression
mirrors the original out-of-place arithmetic operation for operation
(scalar multiplies commute, ``a + b`` is IEEE-commutative), so the results
are bit-identical to the historical implementations — pinned by
``tests/test_optim_inplace.py``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


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


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._scratch: "list[np.ndarray] | None" = None

    def _scratch_buffers(self) -> "list[np.ndarray]":
        if self._scratch is None:
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
        return self._scratch

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
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch2: "list[np.ndarray] | None" = None

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        one_minus_beta1 = 1.0 - self.beta1
        one_minus_beta2 = 1.0 - self.beta2
        buf1_list = self._scratch_buffers()
        if self._scratch2 is None:
            self._scratch2 = [np.empty_like(p.data) for p in self.parameters]
        for param, m, v, buf1, buf2 in zip(
            self.parameters, self._m, self._v, buf1_list, self._scratch2
        ):
            if param.grad is None:
                continue
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=buf1)
                np.add(param.grad, buf1, out=buf1)
                grad = buf1
            else:
                grad = param.grad
            m *= self.beta1
            np.multiply(grad, one_minus_beta1, out=buf2)
            m += buf2
            v *= self.beta2
            np.square(grad, out=buf2)
            buf2 *= one_minus_beta2
            v += buf2
            # buf2 <- lr * m_hat, buf1 <- sqrt(v_hat) + eps; same op-for-op
            # arithmetic as `lr * (m / bias1) / (sqrt(v / bias2) + eps)`.
            np.divide(m, bias1, out=buf2)
            buf2 *= self.lr
            np.divide(v, bias2, out=buf1)
            np.sqrt(buf1, out=buf1)
            buf1 += self.eps
            buf2 /= buf1
            # Fresh array on purpose — identity-keyed inference caches key
            # off param.data, so it must be replaced rather than mutated.
            param.data = param.data - buf2
