"""Neural-network building blocks: modules, linear layers, MLPs, norms."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from . import init as weight_init
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "BatchNorm",
    "Embedding",
    "Sequential",
    "Activation",
    "ACTIVATIONS",
]

#: The variance epsilon of :class:`LayerNorm` and :class:`BatchNorm` (and of the kernels that run them).
NORM_EPS = 1e-5


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural modules.

    Modules expose :meth:`parameters` for optimisers, :meth:`state_dict` /
    :meth:`load_state_dict` for checkpointing, and are callable via
    :meth:`forward`.
    """

    def __init__(self) -> None:
        self._modules: dict[str, "Module"] = {}
        self._parameters: dict[str, Parameter] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping from parameter names to arrays (copies)."""
        return {name: np.array(param.data, copy=True) for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = np.array(value, copy=True)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _tanh(x: Tensor) -> Tensor:
    return x.tanh()


def _relu(x: Tensor) -> Tensor:
    return x.relu()


def _sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def _identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "tanh": _tanh,
    "relu": _relu,
    "sigmoid": _sigmoid,
    "identity": _identity,
}


class Activation(Module):
    """A named activation function usable inside :class:`Sequential`."""

    def __init__(self, name: str) -> None:
        super().__init__()
        if name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
        self.name = name
        self._fn = ACTIVATIONS[name]

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


class Linear(Module):
    """Affine transform ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(weight_init.zeros((out_features,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = f"layer_{index}"
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """The paper's ``(sigma . Linear)^m`` stack: Linear layers with activations.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``[64, 64, 1]``.
    activation:
        Name of the activation applied after every layer except (optionally)
        the last.
    final_activation:
        Whether the activation is also applied after the output layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        final_activation: bool = False,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.sizes = list(sizes)
        layers: list[Module] = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng))
            is_last = index == len(sizes) - 2
            if not is_last or final_activation:
                layers.append(Activation(activation))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, features: int) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(features), name="gamma")
        self.beta = Parameter(np.zeros(features), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / ((var + NORM_EPS) ** 0.5)
        return normed * self.gamma + self.beta


class BatchNorm(Module):
    """Batch normalisation over the token dimension of one state.

    The paper applies BN after each attention sub-layer.  Because our state
    batches are small (one per scheduling step) we normalise over the token
    dimension of a single state, which plays the same stabilising role.
    The statistics are always the tokens' own, so a sequence needs at least
    two tokens (every state has its queries plus the super token).

    A 3-D input ``(batch, tokens, features)`` is treated as a stack of
    independent states: each element is normalised over its own token axis,
    so a batched forward over B states matches B single-state forwards.
    """

    def __init__(self, features: int) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(features), name="gamma")
        self.beta = Parameter(np.zeros(features), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        axis = 1 if x.ndim == 3 else 0
        if x.shape[axis] < 2:
            raise ValueError(f"BatchNorm normalises over at least two tokens, not shape {x.shape}")
        mu = x.mean(axis=axis, keepdims=True)
        var = x.var(axis=axis, keepdims=True)
        normed = (x - mu) / ((var + NORM_EPS) ** 0.5)
        return normed * self.gamma + self.beta


class Embedding(Module):
    """A lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(weight_init.normal((num_embeddings, dim), rng, std=0.1), name="weight")

    def forward(self, indices: "np.ndarray | Sequence[int]") -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]
