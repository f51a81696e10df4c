"""Test-side tape losses: the objectives the fused kernels are checked against.

``mse_loss`` is the gain and simulator fits' regression loss, ``cross_entropy``
the simulator's earliest-finisher classification loss and ``kl_divergence``
IQ-PPO's behaviour-cloning term, each written on the autograd tape.  The
library computes all three inside :mod:`repro.nn.fastgrad`'s fused steps; the
parity tests backpropagate these through the tape and compare.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor


def mse_loss(prediction: Tensor, target: "Tensor | np.ndarray") -> Tensor:
    """Mean squared error ``mean((prediction - target)^2)``; the target is a constant."""
    constant = Tensor(target.data if isinstance(target, Tensor) else target)
    diff = prediction - constant
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, target_index: "np.ndarray | int") -> Tensor:
    """Cross-entropy between row-wise ``logits`` and integer class labels."""
    log_probs = logits.log_softmax(axis=-1)
    targets = np.atleast_1d(np.asarray(target_index, dtype=np.int64))
    if log_probs.ndim == 1:
        return -log_probs[int(targets[0])]
    picked = log_probs[np.arange(len(targets)), targets]
    return -picked.mean()


def kl_divergence(log_p_old: "Tensor | np.ndarray", log_p_new: Tensor) -> Tensor:
    """KL(old || new) from log-probability vectors along the last axis; the old distribution is a constant."""
    old = log_p_old.data if isinstance(log_p_old, Tensor) else np.asarray(log_p_old)
    p_old = np.exp(old)
    diff = Tensor(old) - log_p_new
    return (Tensor(p_old) * diff).sum(axis=-1).mean()
