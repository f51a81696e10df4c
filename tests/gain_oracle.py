"""Test-side reference for the gain model: one pair's gain through the autograd tape.

``tape_gain`` is the forward ``GainModel`` carried as a method before its
fit and completion ran whole batches of pairs through the
``repro.nn.fastgrad`` MLP kernels: the MLP on both orderings of the pair,
summed.  The batched kernels are checked against it.
"""

from __future__ import annotations

import numpy as np

from repro.core import GainModel
from repro.nn import Tensor, no_grad


def tape_gain(model: GainModel, embedding_i: np.ndarray, embedding_j: np.ndarray) -> Tensor:
    """The ``(1,)`` gain of the pair ``(i, j)``, on the tape."""
    forward_pair = Tensor(np.concatenate([embedding_i, embedding_j]))
    reverse_pair = Tensor(np.concatenate([embedding_j, embedding_i]))
    return (model.net(forward_pair) + model.net(reverse_pair)).reshape(1)


def tape_predict(model: GainModel, embedding_i: np.ndarray, embedding_j: np.ndarray) -> float:
    """:func:`tape_gain` as a float, recording no tape."""
    with no_grad():
        return float(tape_gain(model, embedding_i, embedding_j).data[0])
