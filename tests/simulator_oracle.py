"""Test-side reference for the simulator's prediction network: its forward through the autograd tape.

``tape_forward`` is the forward ``ConcurrentPredictionModel`` carried as a
method before ``predict`` (the ``repro.nn.fastgrad`` layer kernels) became
its only forward: every layer called as a :class:`~repro.nn.Module`.
``predict`` is checked against it byte for byte, and the simulator fit's
gradients against its tape gradients.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor
from repro.perf.model import ConcurrentPredictionModel


def tape_forward(model: ConcurrentPredictionModel, features: np.ndarray) -> tuple[Tensor, Tensor]:
    """``(class_logits, remaining_times)`` of ``(k, feature_dim)`` rows, on the tape."""
    tokens = model.input_proj(Tensor(features)).tanh()
    if model.use_attention:
        tokens = model.encoder(tokens)
    logits = model.classifier(tokens).reshape(features.shape[0])
    times = model.regressor(tokens).reshape(features.shape[0])
    return logits, times
