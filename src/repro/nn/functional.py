"""Stateless tape helpers built on :mod:`repro.nn.tensor`: entropy and the masked log-softmax."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

#: The logit offset of a masked action in every masked log-softmax (this tape
#: primitive and the two kernels, ``fastgrad`` and ``fastinfer``): its
#: probability is numerically zero.
MASK_VALUE = -1e8

__all__ = ["entropy", "masked_log_softmax"]


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
