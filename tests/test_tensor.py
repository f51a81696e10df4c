"""Autograd engine tests: every operator is checked against numerical gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, stack, where


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn(x)
        flat[index] = original - eps
        minus = fn(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient against numerical gradient for ``build``."""
    tensor = Tensor(np.array(x, copy=True), requires_grad=True)
    out = build(tensor)
    out.backward()
    expected = numerical_gradient(lambda arr: float(build(Tensor(arr)).data), np.array(x, copy=True))
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestBasicOps:
    def test_add_scalar(self):
        t = Tensor([1.0, 2.0]) + 3.0
        np.testing.assert_allclose(t.data, [4.0, 5.0])

    def test_radd(self):
        t = 3.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(t.data, [4.0, 5.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((1.0 - Tensor([3.0])).data, [-2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0, 4.0]) * Tensor([3.0, 0.5])).data, [6.0, 2.0])
        np.testing.assert_allclose((Tensor([2.0, 4.0]) / 2.0).data, [1.0, 2.0])

    def test_rtruediv(self):
        np.testing.assert_allclose((8.0 / Tensor([2.0, 4.0])).data, [4.0, 2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestGradients:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("add", lambda t: (t + 2.0).sum()),
            ("sub", lambda t: (t - 1.5).sum()),
            ("mul", lambda t: (t * t).sum()),
            ("div", lambda t: (t / 2.0).sum()),
            ("rdiv", lambda t: (1.0 / (t + 3.0)).sum()),
            ("pow", lambda t: (t**3).sum()),
            ("exp", lambda t: t.exp().sum()),
            ("log", lambda t: (t + 3.0).log().sum()),
            ("tanh", lambda t: t.tanh().sum()),
            ("relu", lambda t: t.relu().sum()),
            ("sigmoid", lambda t: t.sigmoid().sum()),
            ("sqrt", lambda t: (t + 3.0).sqrt().sum()),
            ("abs", lambda t: t.abs().sum()),
            ("mean", lambda t: t.mean()),
            ("sum_axis", lambda t: t.sum(axis=0).sum()),
            ("max", lambda t: t.max()),
            ("var", lambda t: t.var()),
            ("softmax", lambda t: (t.softmax(axis=-1) * t.softmax(axis=-1)).sum()),
            ("log_softmax", lambda t: t.log_softmax(axis=-1).sum()),
            ("reshape", lambda t: t.reshape(3, 2).sum(axis=1).max()),
            ("transpose", lambda t: (t.T @ t).sum()),
            ("clip", lambda t: t.clip(-0.5, 0.5).sum()),
            ("getitem", lambda t: t[0].sum() + t[1, 1] * 3.0),
        ],
    )
    def test_matches_numerical_gradient(self, name, build):
        x = np.array([[0.3, -0.7, 1.2], [0.9, 0.1, -1.4]])
        check_gradient(build, x)

    def test_matmul_gradient(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numerical_gradient(lambda arr: float((Tensor(arr) @ Tensor(b_data)).sum().data), a_data.copy())
        expected_b = numerical_gradient(lambda arr: float((Tensor(a_data) @ Tensor(arr)).sum().data), b_data.copy())
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_mul_gradient(self):
        a = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        b = Tensor(np.array([[10.0], [20.0]]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (2, 3)))
        np.testing.assert_allclose(b.grad, np.full((2, 1), 6.0))

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * 3.0 + a * 4.0
        out.backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [2.0, 20.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None


class TestHelpers:
    def test_concatenate_forward_and_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_stack_forward_and_grad(self):
        tensors = [Tensor([float(i), float(i + 1)], requires_grad=True) for i in range(3)]
        out = stack(tensors, axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, [1.0, 1.0])

    def test_where_selects_and_routes_gradient(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert out.requires_grad is False
        assert out._parents == ()

    def test_no_grad_nesting_restores_state(self):
        a = Tensor([1.0], requires_grad=True)

        def records() -> bool:
            return (a * 2.0).requires_grad

        assert records()
        with no_grad():
            assert not records()
            with no_grad():
                assert not records()
            assert not records()
        assert records()

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        np.testing.assert_allclose(t.softmax(axis=-1).data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_log_softmax_consistent_with_softmax(self):
        t = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_allclose(np.exp(t.log_softmax(axis=-1).data), t.softmax(axis=-1).data, atol=1e-12)
