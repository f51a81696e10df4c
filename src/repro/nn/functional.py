"""Loss functions and stateless helpers built on :mod:`repro.nn.tensor`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

#: The logit offset of a masked action in every masked log-softmax (this tape
#: primitive and the two kernels, ``fastgrad`` and ``fastinfer``): its
#: probability is numerically zero.
MASK_VALUE = -1e8

__all__ = [
    "mse_loss",
    "huber_loss",
    "cross_entropy",
    "nll_loss",
    "kl_divergence",
    "entropy",
    "masked_log_softmax",
    "one_hot",
]


def mse_loss(prediction: Tensor, target: "Tensor | np.ndarray") -> Tensor:
    """Mean squared error ``mean((prediction - target)^2)``."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t.detach()
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: "Tensor | np.ndarray", delta: float = 1.0) -> Tensor:
    """Huber loss, quadratic near zero and linear in the tails."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t.detach()
    abs_diff = diff.abs()
    quadratic = abs_diff.clip(0.0, delta)
    linear = abs_diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot encoding of integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits: Tensor, target_index: "np.ndarray | int") -> Tensor:
    """Cross-entropy between row-wise ``logits`` and integer class labels."""
    log_probs = logits.log_softmax(axis=-1)
    targets = np.atleast_1d(np.asarray(target_index, dtype=np.int64))
    if log_probs.ndim == 1:
        return -log_probs[int(targets[0])]
    picked = log_probs[np.arange(len(targets)), targets]
    return -picked.mean()


def nll_loss(log_probs: Tensor, target_index: "np.ndarray | int") -> Tensor:
    """Negative log-likelihood given precomputed log-probabilities."""
    targets = np.atleast_1d(np.asarray(target_index, dtype=np.int64))
    if log_probs.ndim == 1:
        return -log_probs[int(targets[0])]
    picked = log_probs[np.arange(len(targets)), targets]
    return -picked.mean()


def kl_divergence(log_p_old: "Tensor | np.ndarray", log_p_new: Tensor) -> Tensor:
    """KL(old || new) from log-probability vectors along the last axis.

    The behaviour-cloning term of IQ-PPO penalises divergence of the updated
    policy from the policy snapshot taken before the auxiliary phase; the old
    distribution is treated as a constant.
    """
    old = log_p_old.data if isinstance(log_p_old, Tensor) else np.asarray(log_p_old)
    p_old = np.exp(old)
    diff = Tensor(old) - log_p_new
    return (Tensor(p_old) * diff).sum(axis=-1).mean()


def entropy(log_probs: Tensor) -> Tensor:
    """Shannon entropy of a categorical distribution given log-probabilities."""
    probs = log_probs.exp()
    return -(probs * log_probs).sum(axis=-1).mean()


def masked_log_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Log-softmax where entries with ``mask == False`` are effectively removed.

    This is the adaptive-masking primitive from the paper: masked action
    logits are shifted by :data:`MASK_VALUE` so their post-softmax
    probability is numerically zero while gradients still flow to unmasked
    entries.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if not np.all(mask.any(axis=-1)):
        raise ValueError("masked_log_softmax requires at least one unmasked entry")
    offset = np.where(mask, 0.0, MASK_VALUE)
    return (logits + Tensor(offset)).log_softmax(axis=-1)
