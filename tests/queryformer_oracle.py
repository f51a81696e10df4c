"""Test-side reference for QueryFormer: its plan embedding through the autograd tape.

``tape_embedding`` is the forward the library ran before the encoder moved
onto the float64 layer kernels of :mod:`repro.nn.fastgrad`: every layer
called as a :class:`~repro.nn.Module` under ``no_grad``.
``QueryFormer.forward`` is checked against it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.encoder import QueryFormer
from repro.nn import Tensor, concatenate, no_grad
from repro.plans import PhysicalPlan


def tape_embedding(queryformer: QueryFormer, plan: PhysicalPlan) -> np.ndarray:
    """``queryformer``'s embedding of ``plan``, evaluated on the tape."""
    with no_grad():
        features = queryformer.featurizer.featurize(plan)
        heights = np.clip(features.heights, 0, queryformer.config.max_height)
        node_tokens = queryformer.input_proj(Tensor(features.node_features)) + queryformer.height_embedding(heights)
        super_token = queryformer.super_token(np.array([0]))
        tokens = concatenate([node_tokens, super_token], axis=0)
        encoded = queryformer.encoder(tokens, bias=queryformer._tree_bias(features.distances))
        return np.array(queryformer.output_proj(encoded[features.num_nodes]).data, copy=True)
