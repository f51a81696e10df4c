"""Weight initialisation helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "normal"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a weight matrix."""
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape, dtype=np.float64)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Small-variance normal initialisation (embeddings, super-query token)."""
    return rng.normal(0.0, std, size=shape)
