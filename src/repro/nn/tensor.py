"""A small reverse-mode automatic differentiation engine on top of NumPy.

The paper implements BQSched with PyTorch.  This repository has no GPU and
no deep-learning framework available offline, so ``repro.nn`` provides the
minimal tensor library that the encoder and the RL algorithms need: dense
tensors, broadcasting-aware gradients, and the handful of operators used by
multi-layer perceptrons, multi-head attention, and the PPO family of losses.

The design follows the classic "define-by-run" tape: every operation records
its inputs and a backward closure, and :meth:`Tensor.backward` walks the tape
in reverse topological order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "concatenate", "stack", "where"]


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Used during environment rollouts and evaluation, where building the tape
    would waste memory for activations that are never differentiated.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


def _as_array(value: "Tensor | np.ndarray | float | int | Sequence") -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; always stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: "np.ndarray | float | int | Sequence",
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Tape management
    # ------------------------------------------------------------------ #
    def _make_child(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        child = Tensor(data, requires_grad=requires)
        if requires:
            child._parents = parents
            child._backward = backward
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: "np.ndarray | float | None" = None) -> None:
        """Back-propagate ``grad`` (default: ones) through the recorded tape."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            grad = np.broadcast_to(grad, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not (parent.requires_grad or parent._parents):
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other_t.shape),
            )

        return self._make_child(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other_t.shape),
            )

        return self._make_child(out_data, (self, other_t), backward)

    def __rsub__(self, other: "float") -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other_t.data, self.shape),
                _unbroadcast(grad * self.data, other_t.shape),
            )

        return self._make_child(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other_t.data, self.shape),
                _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape),
            )

        return self._make_child(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: "float") -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray):
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                grad_a = grad * b
                grad_b = grad * a
            elif a.ndim == 1:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.outer(a, grad)
            elif b.ndim == 1:
                grad_a = np.expand_dims(grad, -1) @ np.expand_dims(b, 0)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                if grad_b.ndim > 1:
                    grad_b = grad_b.reshape(-1, b.shape[0]).sum(axis=0) if grad_b.ndim > 1 else grad_b
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
            return (
                _unbroadcast(grad_a, self.shape),
                _unbroadcast(grad_b, other_t.shape),
            )

        return self._make_child(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * out_data,)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return self._make_child(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out_data**2),)

        return self._make_child(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return self._make_child(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray):
            return (grad * sign,)

        return self._make_child(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            return (np.broadcast_to(grad, self.shape).copy(),)

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(np.float64)
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return (mask * grad,)

        return self._make_child(out_data, (self,), backward)

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(self.shape),)

        return self._make_child(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return self._make_child(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors NumPy naming
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._make_child(np.array(out_data, copy=True), (self,), backward)

    # ------------------------------------------------------------------ #
    # Softmax-family helpers
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            return (out_data * (grad - dot),)

        return self._make_child(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray):
            return (grad - softmax * grad.sum(axis=axis, keepdims=True),)

        return self._make_child(out_data, (self,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        return tuple(np.split(grad, boundaries, axis=axis))

    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * cond, a_t.shape),
            _unbroadcast(grad * (~cond), b_t.shape),
        )

    requires = _GRAD_ENABLED and (a_t.requires_grad or b_t.requires_grad)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = (a_t, b_t)
        out._backward = backward
    return out
