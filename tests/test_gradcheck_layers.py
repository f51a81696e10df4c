"""Central-finite-difference gradcheck of every ``repro.nn`` layer.

Each test expresses a scalar loss through the autograd tape, backpropagates
once, and verifies every parameter (and, where interesting, input) gradient
against :func:`gradcheck.numeric_gradient`.  Boundary cases the fused
kernels also have to get right are covered explicitly: masked softmax with
``-inf``-style masked-out entries and batch-norm in training mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import assert_gradients_close, numeric_gradient
from repro.nn import (
    Activation,
    AttentionBlock,
    AttentionEncoder,
    BatchNorm,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadAttention,
    Sequential,
    Tensor,
    entropy,
    masked_log_softmax,
)
from tape_losses import cross_entropy, kl_divergence, mse_loss


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def check_module(module, loss_fn, eps=1e-6, atol=1e-6, rtol=1e-4):
    """Gradcheck every parameter of ``module`` against ``loss_fn``."""
    module.zero_grad()
    loss_fn().backward()
    checked = 0
    for name, param in module.named_parameters():
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        numeric = numeric_gradient(lambda: float(loss_fn().data), param.data, eps=eps)
        assert_gradients_close(analytic, numeric, atol=atol, rtol=rtol, label=name)
        checked += 1
    assert checked > 0


def check_input(loss_from_input, x, eps=1e-6, atol=1e-6, rtol=1e-4):
    """Gradcheck the loss w.r.t. an input array."""
    tensor = Tensor(x, requires_grad=True)
    loss_from_input(tensor).backward()
    numeric = numeric_gradient(lambda: float(loss_from_input(Tensor(x)).data), x, eps=eps)
    assert_gradients_close(tensor.grad, numeric, atol=atol, rtol=rtol, label="input")


class TestLayerGradcheck:
    def test_linear(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        check_module(layer, lambda: (layer(Tensor(x)) ** 2).sum())
        check_input(lambda t: (layer(t) ** 2).sum(), x)

    def test_activation_layers(self, rng):
        x = rng.normal(size=(3, 4))
        for name in ("relu", "tanh", "sigmoid", "identity"):
            layer = Activation(name)
            check_input(lambda t: (layer(t) * layer(t)).sum(), x + 0.1)

    def test_mlp_each_activation(self, rng):
        for activation in ("relu", "tanh", "sigmoid"):
            mlp = MLP([4, 6, 2], rng, activation=activation)
            x = rng.normal(size=(3, 4))
            check_module(mlp, lambda: (mlp(Tensor(x)) ** 2).sum())

    def test_mlp_final_activation(self, rng):
        mlp = MLP([3, 5, 2], rng, activation="tanh", final_activation=True)
        x = rng.normal(size=(2, 3))
        check_module(mlp, lambda: mlp(Tensor(x)).sum())

    def test_sequential(self, rng):
        seq = Sequential(Linear(3, 4, rng), Activation("relu"), Linear(4, 2, rng))
        x = rng.normal(size=(3, 3))
        check_module(seq, lambda: (seq(Tensor(x)) ** 2).sum())

    def test_embedding(self, rng):
        table = Embedding(6, 4, rng)
        ids = np.array([0, 3, 3, 5])
        check_module(table, lambda: (table(ids) ** 2).sum())

    def test_layer_norm(self, rng):
        norm = LayerNorm(5)
        norm.gamma.data[:] = rng.normal(1.0, 0.2, size=5)
        norm.beta.data[:] = rng.normal(size=5)
        x = rng.normal(2.0, 1.5, size=(4, 5))
        check_module(norm, lambda: (norm(Tensor(x)) ** 2).sum())
        check_input(lambda t: (norm(t) ** 2).sum(), x)

    def test_layer_norm_3d(self, rng):
        norm = LayerNorm(4)
        x = rng.normal(size=(2, 3, 4))
        check_module(norm, lambda: (norm(Tensor(x)) ** 2).sum())
        check_input(lambda t: (norm(t) ** 2).sum(), x)

    def test_batch_norm_train_mode_2d(self, rng):
        norm = BatchNorm(4)
        norm.gamma.data[:] = rng.normal(1.0, 0.2, size=4)
        norm.beta.data[:] = rng.normal(size=4)
        x = rng.normal(1.0, 2.0, size=(6, 4))
        check_module(norm, lambda: (norm(Tensor(x)) ** 2).sum())

        tensor = Tensor(x, requires_grad=True)
        (norm(tensor) ** 2).sum().backward()
        numeric = numeric_gradient(lambda: float((norm(Tensor(x)) ** 2).sum().data), x)
        assert_gradients_close(tensor.grad, numeric, label="batchnorm input")

    def test_batch_norm_train_mode_3d(self, rng):
        norm = BatchNorm(3)
        x = rng.normal(size=(2, 4, 3))
        check_module(norm, lambda: (norm(Tensor(x)) ** 2).sum())

    def test_multi_head_attention(self, rng):
        attention = MultiHeadAttention(model_dim=6, num_heads=2, rng=rng)
        x = rng.normal(size=(2, 3, 6))
        check_module(attention, lambda: (attention(Tensor(x)) ** 2).sum(), atol=5e-6)
        check_input(lambda t: (attention(t) ** 2).sum(), x, atol=5e-6)

    def test_attention_block_layer_norm(self, rng):
        block = AttentionBlock(model_dim=6, num_heads=2, rng=rng, norm="layer")
        x = rng.normal(size=(2, 3, 6))
        check_module(block, lambda: (block(Tensor(x)) ** 2).sum(), atol=5e-6)

    def test_attention_block_batch_norm(self, rng):
        block = AttentionBlock(model_dim=4, num_heads=2, rng=rng, norm="batch")
        x = rng.normal(size=(2, 3, 4))
        check_module(block, lambda: (block(Tensor(x)) ** 2).sum(), atol=5e-6)

    def test_attention_encoder(self, rng):
        encoder = AttentionEncoder(model_dim=4, num_heads=2, num_layers=2, rng=rng, norm="layer")
        x = rng.normal(size=(1, 3, 4))
        check_module(encoder, lambda: (encoder(Tensor(x)) ** 2).sum(), atol=5e-6)


class TestFunctionalGradcheck:
    def test_masked_log_softmax_interior(self, rng):
        logits = rng.normal(size=(3, 5))
        mask = np.ones((3, 5), dtype=bool)
        check_input(lambda t: (masked_log_softmax(t, mask) ** 2).sum(), logits)

    def test_masked_log_softmax_masked_boundary(self, rng):
        """Masked-out entries sit at the -1e8 'minus infinity' boundary.

        Their log-probabilities are astronomically negative, so the loss
        reads only surviving entries; masked logits must get zero gradient
        through the shared normaliser.
        """
        logits = rng.normal(size=(3, 5))
        mask = np.ones((3, 5), dtype=bool)
        mask[0, 1] = mask[1, 3] = mask[1, 4] = mask[2, 0] = False

        def loss(t):
            log_probs = masked_log_softmax(t, mask)
            picked = (log_probs * Tensor(mask.astype(float))).sum()
            return picked * -1.0

        check_input(loss, logits)
        tensor = Tensor(logits, requires_grad=True)
        loss(tensor).backward()
        assert np.all(tensor.grad[~mask] == 0.0)

    def test_losses(self, rng):
        logits = rng.normal(size=5)
        target = rng.normal(size=5)
        check_input(lambda t: cross_entropy(t, 2), logits)
        check_input(lambda t: mse_loss(t, Tensor(target)), logits)
        check_input(lambda t: entropy(t.log_softmax()) * -1.0, logits)

    def test_kl_divergence(self, rng):
        old = Tensor(rng.normal(size=(2, 4))).log_softmax().data
        new_logits = rng.normal(size=(2, 4))
        check_input(lambda t: kl_divergence(old, t.log_softmax()), new_logits)
