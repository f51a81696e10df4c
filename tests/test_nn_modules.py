"""Tests for layers, attention, losses, optimisers and checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    AttentionBlock,
    AttentionEncoder,
    BatchNorm,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadAttention,
    SGD,
    Sequential,
    Tensor,
    clip_grad_norm,
    entropy,
    masked_log_softmax,
)
from tape_losses import cross_entropy, kl_divergence, mse_loss


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLayers:
    def test_linear_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_without_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert sum(p.size for p in layer.parameters()) == 12

    def test_mlp_shapes_and_depth(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        out = mlp(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(list(mlp.parameters())) == 6  # three Linear layers, weight + bias each

    def test_mlp_rejects_single_width(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_final_activation_bounds_output(self, rng):
        mlp = MLP([3, 4], rng, activation="tanh", final_activation=True)
        out = mlp(Tensor(np.full((2, 3), 100.0)))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_activation_unknown_name(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_sequential_iterates_in_order(self, rng):
        seq = Sequential(Linear(2, 2, rng), Activation("relu"))
        assert len(seq) == 2
        out = seq(Tensor(np.ones((1, 2))))
        assert out.shape == (1, 2)

    def test_layernorm_normalises_last_dim(self):
        norm = LayerNorm(6)
        out = norm(Tensor(np.random.default_rng(0).normal(5.0, 3.0, size=(4, 6))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_batchnorm_normalises_over_tokens(self):
        norm = BatchNorm(3)
        data = np.random.default_rng(0).normal(2.0, 1.5, size=(16, 3))
        out = norm(Tensor(data))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-7)

    def test_embedding_lookup_and_bounds(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([0, 3, 9]))
        assert out.shape == (3, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_state_dict_roundtrip(self, rng):
        mlp = MLP([3, 4, 2], rng)
        state = mlp.state_dict()
        other = MLP([3, 4, 2], np.random.default_rng(99))
        other.load_state_dict(state)
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(mlp(x).data, other(x).data)

    def test_load_state_dict_rejects_mismatch(self, rng):
        mlp = MLP([3, 4, 2], rng)
        with pytest.raises(KeyError):
            mlp.load_state_dict({"bogus": np.zeros(3)})

    def test_named_parameters_are_qualified(self, rng):
        mlp = MLP([2, 2], rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert all("." in name for name in names)

    def test_zero_grad_clears_all(self, rng):
        mlp = MLP([2, 2], rng)
        mlp(Tensor(np.ones((1, 2)))).sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestAttention:
    def test_mha_output_shape(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        out = mha(Tensor(np.random.default_rng(0).normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_mha_rejects_bad_head_count(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2, rng)

    def test_mha_bias_shifts_attention(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        bias = np.full((4, 4), 0.0)
        bias[:, 0] = 10.0  # force everyone to attend to token 0
        shifted = mha(x, bias=bias).data
        # Attending to token 0 alone gives every token token 0's projected value.
        only_first = mha(x, bias=100.0 * bias).data
        assert np.allclose(only_first, only_first[0])
        assert np.allclose(shifted, only_first, atol=1e-2)
        assert not np.allclose(mha(x).data, only_first, atol=1e-2)

    def test_mha_bias_shape_validation(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        with pytest.raises(ValueError):
            mha(Tensor(np.zeros((4, 8))), bias=np.zeros((3, 3)))

    def test_attention_block_norm_options(self, rng):
        for norm in ("batch", "layer"):
            block = AttentionBlock(8, 2, rng, norm=norm)
            out = block(Tensor(np.random.default_rng(0).normal(size=(6, 8))))
            assert out.shape == (6, 8)
        with pytest.raises(ValueError):
            AttentionBlock(8, 2, rng, norm="instance")

    def test_attention_encoder_stacks_layers(self, rng):
        encoder = AttentionEncoder(8, 2, 3, rng)
        out = encoder(Tensor(np.random.default_rng(0).normal(size=(4, 8))))
        assert out.shape == (4, 8)

    def test_attention_gradients_flow(self, rng):
        encoder = AttentionEncoder(8, 2, 1, rng)
        out = encoder(Tensor(np.random.default_rng(0).normal(size=(4, 8))))
        out.sum().backward()
        grads = [p.grad for p in encoder.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).max() > 0 for g in grads)


class TestLosses:
    def test_mse_zero_at_target(self):
        pred = Tensor([1.0, 2.0])
        assert mse_loss(pred, np.array([1.0, 2.0])).item() == pytest.approx(0.0)

    def test_cross_entropy_prefers_correct_class(self):
        logits = Tensor([10.0, 0.0, 0.0])
        assert cross_entropy(logits, 0).item() < cross_entropy(logits, 1).item()

    def test_cross_entropy_is_the_picked_negative_log_softmax(self):
        logits = Tensor([[1.0, 2.0, 0.5]])
        ce = cross_entropy(logits, np.array([1]))
        assert ce.item() == pytest.approx(-logits.log_softmax(axis=-1).data[0, 1])

    def test_kl_divergence_zero_for_identical(self):
        log_p = Tensor(np.log(np.array([0.2, 0.3, 0.5])))
        assert kl_divergence(log_p.data, log_p).item() == pytest.approx(0.0, abs=1e-9)

    def test_kl_divergence_positive_for_different(self):
        old = np.log(np.array([0.9, 0.05, 0.05]))
        new = Tensor(np.log(np.array([0.1, 0.45, 0.45])))
        assert kl_divergence(old, new).item() > 0.5

    def test_entropy_maximised_by_uniform(self):
        uniform = Tensor(np.log(np.full(4, 0.25)))
        peaked = Tensor(np.log(np.array([0.97, 0.01, 0.01, 0.01])))
        assert entropy(uniform).item() > entropy(peaked).item()

    def test_masked_log_softmax_masks_entries(self):
        logits = Tensor([0.0, 0.0, 5.0])
        mask = np.array([True, True, False])
        log_probs = masked_log_softmax(logits, mask)
        probs = np.exp(log_probs.data)
        assert probs[2] < 1e-6
        assert probs[:2].sum() == pytest.approx(1.0, abs=1e-6)

    def test_masked_log_softmax_requires_one_valid(self):
        with pytest.raises(ValueError):
            masked_log_softmax(Tensor([1.0, 2.0]), np.array([False, False]))

    def test_masked_log_softmax_shape_check(self):
        with pytest.raises(ValueError):
            masked_log_softmax(Tensor([1.0, 2.0]), np.array([True]))


class TestOptimizers:
    def _fit_line(self, optimizer_cls, **kwargs) -> float:
        rng = np.random.default_rng(0)
        layer = Linear(1, 1, rng)
        optimizer = optimizer_cls(layer.parameters(), **kwargs)
        xs = np.linspace(-1, 1, 16).reshape(-1, 1)
        ys = 3.0 * xs + 0.5
        loss_value = np.inf
        for _ in range(200):
            prediction = layer(Tensor(xs))
            loss = mse_loss(prediction, ys)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            loss_value = loss.item()
        return loss_value

    def test_sgd_converges_on_linear_regression(self):
        assert self._fit_line(SGD, lr=0.1, momentum=0.9) < 1e-3

    def test_adam_converges_on_linear_regression(self):
        assert self._fit_line(Adam, lr=0.05) < 1e-3

    def test_optimizer_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_optimizer_rejects_bad_lr(self, rng):
        with pytest.raises(ValueError):
            SGD(Linear(1, 1, rng).parameters(), lr=0.0)

    def test_clip_grad_norm_scales_down(self, rng):
        layer = Linear(4, 4, rng)
        out = layer(Tensor(np.full((8, 4), 10.0)))
        (out * out).sum().backward()
        norm_before = clip_grad_norm(layer.parameters(), max_norm=1.0)
        assert norm_before > 1.0
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in layer.parameters()))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_handles_missing_grads(self, rng):
        layer = Linear(2, 2, rng)
        assert clip_grad_norm(layer.parameters(), 1.0) == 0.0

