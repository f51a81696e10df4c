"""Reusable central-finite-difference gradient checking helpers.

The helpers treat a model as a black-box scalar function of its parameter
(or input) arrays: each entry is perturbed by ``±eps`` in place and the
loss re-evaluated, so they work for both the autograd tape and the
tape-free :mod:`repro.nn.fastgrad` kernels.

``loss_fn`` must be deterministic and side-effect free between calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["numeric_gradient", "assert_gradients_close"]


def numeric_gradient(
    loss_fn: Callable[[], float], array: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``loss_fn`` w.r.t. ``array``.

    ``array`` is perturbed entry by entry *in place* (and restored), so it
    must be the live parameter/input buffer the loss function reads.
    """
    grad = np.zeros(array.shape, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        high = float(loss_fn())
        flat[index] = original - eps
        low = float(loss_fn())
        flat[index] = original
        grad_flat[index] = (high - low) / (2.0 * eps)
    return grad


def assert_gradients_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    label: str = "",
) -> None:
    """Assert analytic vs numeric gradients agree within tolerance."""
    assert analytic.shape == numeric.shape, f"{label}: shape {analytic.shape} vs {numeric.shape}"
    if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
        worst = float(np.max(np.abs(analytic - numeric)))
        raise AssertionError(f"{label}: gradcheck failed, worst abs diff {worst:.3e}")
