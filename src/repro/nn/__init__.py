"""A minimal NumPy deep-learning substrate (autograd, layers, attention, Adam).

The paper uses PyTorch + Stable-Baselines; this package provides the pieces
of those frameworks that BQSched actually needs so the reproduction has no
binary dependencies.
"""

from .tensor import Tensor, concatenate, no_grad, stack, where
from .functional import entropy, masked_log_softmax
from .layers import (
    Activation,
    BatchNorm,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from .attention import AttentionBlock, AttentionEncoder, MultiHeadAttention
from . import fastinfer
from . import fastgrad
from .optim import Adam, AdamSlabs, Optimizer, SGD, clip_grad_norm
from .serialization import Checkpoint
from . import backend

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "fastinfer",
    "fastgrad",
    "backend",
    "entropy",
    "masked_log_softmax",
    "Activation",
    "BatchNorm",
    "Embedding",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "Parameter",
    "Sequential",
    "AttentionBlock",
    "AttentionEncoder",
    "MultiHeadAttention",
    "Adam",
    "AdamSlabs",
    "Optimizer",
    "SGD",
    "clip_grad_norm",
    "Checkpoint",
]
