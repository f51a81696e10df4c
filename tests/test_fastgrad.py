"""Correctness pins for the tape-free fused training kernels (``repro.nn.fastgrad``).

The kernels are the only update path of the trainers; the autograd tape lives
on here as the reference they are checked against:

1. kernel-level: every fused forward/backward matches the autograd tape at
   ``atol=1e-9`` in float64 *and* passes a central-finite-difference
   gradcheck of its own analytic gradients;
2. trainer-level: the fused PPO / PPG-aux / IQ-PPO-aux / performance-model
   steps accumulate the same parameter gradients as the tape expressions
   they replaced (including which parameters keep ``grad is None``), at
   query and at cluster granularity, on lock-step and on sequentially
   collected buffers;
3. end-to-end: fixed-seed training produces policies behaviorally identical
   to the in-test tape trainers (same greedy decisions, same makespans),
   ``num_envs=1`` training stays digest-pinned, and the facade trains with
   ``Tensor.backward`` patched to raise.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import assert_gradients_close, numeric_gradient
from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import TIME_SCALE, PPOConfig
from repro.core import (
    ActorCriticNetwork,
    AdaptiveMask,
    ExternalKnowledge,
    IQPPOTrainer,
    PPGTrainer,
    PPOTrainer,
    QueryClusters,
    SchedulingEnv,
)
from repro.exceptions import ConfigurationError
from repro.core.ppo import BETA_CLONE, CLIP_EPSILON, ENTROPY_COEF, MAX_GRAD_NORM, VALUE_COEF
from repro.core import policy as policy_module
from repro.core.rollout import RolloutBuffer
from repro.dbms import ConfigurationSpace
from repro.workloads import BatchQuerySet
from repro.encoder import PlanEmbeddingCache, QueryFormer, RunStateFeaturizer, StateEncoder
from repro.nn import (
    MLP,
    Activation,
    Adam,
    AttentionEncoder,
    BatchNorm,
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    fastgrad,
    fastinfer,
    clip_grad_norm,
    masked_log_softmax,
    no_grad,
    where,
)
from repro.perf.fit import LEARNING_RATE as SIMULATOR_LEARNING_RATE
from repro.plans import PlanFeaturizer
from simulator_oracle import tape_forward
from tape_losses import cross_entropy, kl_divergence

ATOL = 1e-9


def num_buffers(arena: fastgrad.Arena) -> int:
    """Buffers the pool holds, outstanding and free."""
    return len(arena._used) + sum(len(pool) for pool in arena._free.values())


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def arena():
    return fastgrad.Arena()


def tape_grads(module):
    return {
        name: (None if param.grad is None else param.grad.copy())
        for name, param in module.named_parameters()
    }


def assert_grads_match(expected, module, atol=ATOL):
    """Compare a saved grad dict against the module's current grads."""
    current = tape_grads(module)
    assert expected.keys() == current.keys()
    for name in expected:
        a, b = expected[name], current[name]
        assert (a is None) == (b is None), f"{name}: None mismatch"
        if a is not None:
            worst = float(np.max(np.abs(a - b)))
            assert worst <= atol, f"{name}: grads differ by {worst:.3e}"


def modules_of(module, kind):
    """Every ``kind`` instance in the module tree."""
    stack = [module]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        stack.extend(node._modules.values())


def clear_qkv_caches(module):
    """Drop identity-keyed fused-QKV caches.

    The cache assumes optimizers replace ``param.data`` wholesale; the
    finite-difference probes below perturb the arrays *in place*, so the
    cache must be invalidated by hand between probe evaluations.
    """
    for attention in modules_of(module, MultiHeadAttention):
        attention._fastgrad_qkv = None


def fused_param_gradcheck(module, fused_loss, eps=1e-6, atol=1e-6, rtol=1e-4):
    """Central-difference check of the *fused* analytic parameter grads."""
    module.zero_grad()
    fused_loss(backward=True)
    for name, param in module.named_parameters():
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)

        def probe():
            clear_qkv_caches(module)
            return fused_loss(backward=False)

        numeric = numeric_gradient(probe, param.data, eps=eps)
        assert_gradients_close(analytic, numeric, atol=atol, rtol=rtol, label=name)


# ------------------------------------------------------------------ #
# Kernel-level: fused vs tape + gradcheck
# ------------------------------------------------------------------ #
class TestFusedKernels:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_mlp_matches_tape_and_gradcheck(self, rng, arena, activation):
        mlp = MLP([4, 6, 3], rng, activation=activation)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 3))

        mlp.zero_grad()
        (mlp(Tensor(x)) * Tensor(w)).sum().backward()
        expected = tape_grads(mlp)

        mlp.zero_grad()
        out, ctx = fastgrad.mlp_forward(mlp, x, arena)
        assert np.max(np.abs(out - mlp(Tensor(x)).data)) <= ATOL
        fastgrad.mlp_backward(mlp, ctx, w, arena)
        assert_grads_match(expected, mlp)

        def fused_loss(backward):
            out, ctx = fastgrad.mlp_forward(mlp, x, arena)
            if backward:
                fastgrad.mlp_backward(mlp, ctx, w, arena)
            value = float((out * w).sum())
            arena.reset()
            return value

        fused_param_gradcheck(mlp, fused_loss)

    def test_mlp_3d_input_grad(self, rng, arena):
        mlp = MLP([3, 5, 2], rng, activation="relu")
        x = rng.normal(size=(2, 4, 3))
        w = rng.normal(size=(2, 4, 2))
        tensor = Tensor(x, requires_grad=True)
        mlp.zero_grad()
        (mlp(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(mlp)
        mlp.zero_grad()
        out, ctx = fastgrad.mlp_forward(mlp, x, arena)
        g_x = fastgrad.mlp_backward(mlp, ctx, w, arena)
        assert_grads_match(expected, mlp)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    def test_layer_norm_matches_tape(self, rng, arena):
        norm = LayerNorm(5)
        norm.gamma.data[:] = rng.normal(1.0, 0.2, size=5)
        norm.beta.data[:] = rng.normal(size=5)
        x = rng.normal(2.0, 1.5, size=(3, 4, 5))
        w = rng.normal(size=(3, 4, 5))
        tensor = Tensor(x, requires_grad=True)
        norm.zero_grad()
        (norm(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(norm)
        norm.zero_grad()
        out, ctx = fastgrad.layer_norm_forward(norm, x, arena)
        assert np.max(np.abs(out - norm(Tensor(x)).data)) <= ATOL
        g_x = fastgrad._norm_backward(norm, ctx, w, arena)
        assert_grads_match(expected, norm)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    @pytest.mark.parametrize("shape", [(6, 4), (2, 5, 4), (2, 1, 4)])
    def test_batch_norm_train_matches_tape(self, rng, arena, shape):
        norm = BatchNorm(4)
        norm.gamma.data[:] = rng.normal(1.0, 0.2, size=4)
        norm.beta.data[:] = rng.normal(size=4)
        x = rng.normal(1.0, 2.0, size=shape)
        w = rng.normal(size=shape)
        if shape[-2] < 2:
            # One token has no batch statistics: the tape and the kernel both refuse it, naming the shape.
            for forward in (lambda: norm(Tensor(x)), lambda: fastgrad.batch_norm_forward(norm, x, arena)):
                with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
                    forward()
            return

        tensor = Tensor(x, requires_grad=True)
        norm.zero_grad()
        (norm(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(norm)
        expected_out = norm(Tensor(x)).data

        norm.zero_grad()
        out, ctx = fastgrad.batch_norm_forward(norm, x, arena)
        assert np.max(np.abs(out - expected_out)) <= ATOL
        g_x = fastgrad._norm_backward(norm, ctx, w, arena)
        assert_grads_match(expected, norm)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    def test_mha_matches_tape_and_gradcheck(self, rng, arena):
        attention = MultiHeadAttention(model_dim=6, num_heads=2, rng=rng)
        x = rng.normal(size=(2, 3, 6))
        w = rng.normal(size=(2, 3, 6))
        tensor = Tensor(x, requires_grad=True)
        attention.zero_grad()
        (attention(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(attention)
        attention.zero_grad()
        out, ctx = fastgrad.mha_forward(attention, x, arena)
        assert np.max(np.abs(out - attention(Tensor(x)).data)) <= ATOL
        g_x = fastgrad.mha_backward(attention, ctx, w, arena)
        assert_grads_match(expected, attention)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

        def fused_loss(backward):
            out, ctx = fastgrad.mha_forward(attention, x, arena)
            if backward:
                fastgrad.mha_backward(attention, ctx, w, arena)
            value = float((out * w).sum())
            arena.reset()
            return value

        fused_param_gradcheck(attention, fused_loss, atol=5e-6)

    @pytest.mark.parametrize("norm", ["layer", "batch"])
    def test_attention_encoder_matches_tape_and_gradcheck(self, rng, arena, norm):
        encoder = AttentionEncoder(model_dim=4, num_heads=2, num_layers=2, rng=rng, norm=norm)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 3, 4))
        tensor = Tensor(x, requires_grad=True)
        encoder.zero_grad()
        (encoder(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(encoder)
        expected_out = encoder(Tensor(x)).data
        encoder.zero_grad()
        out, ctx = fastgrad.attention_encoder_forward(encoder, x, arena)
        assert np.max(np.abs(out - expected_out)) <= ATOL
        g_x = fastgrad.attention_encoder_backward(encoder, ctx, w, arena)
        assert_grads_match(expected, encoder)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

        def fused_loss(backward):
            out, ctx = fastgrad.attention_encoder_forward(encoder, x, arena)
            if backward:
                fastgrad.attention_encoder_backward(encoder, ctx, w, arena)
            value = float((out * w).sum())
            arena.reset()
            return value

        fused_param_gradcheck(encoder, fused_loss, atol=5e-6)

    def test_mha_score_bias_matches_tape_and_gradcheck(self, rng, arena):
        """A constant additive score bias (QueryFormer's tree bias) goes in before the softmax; the backward is unchanged."""
        attention = MultiHeadAttention(model_dim=6, num_heads=2, rng=rng)
        x = rng.normal(size=(2, 4, 6))
        w = rng.normal(size=(2, 4, 6))
        bias = -0.5 * np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        tensor = Tensor(x, requires_grad=True)
        attention.zero_grad()
        (attention(tensor, bias=bias) * Tensor(w)).sum().backward()
        expected = tape_grads(attention)
        attention.zero_grad()
        out, ctx = fastgrad.mha_forward(attention, x, arena, bias)
        assert np.max(np.abs(out - attention(Tensor(x), bias=bias).data)) <= ATOL
        assert np.max(np.abs(out - fastgrad.mha_forward(attention, x, fastgrad.Arena())[0])) > 1e-3
        g_x = fastgrad.mha_backward(attention, ctx, w, arena)
        assert_grads_match(expected, attention)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

        def fused_loss(backward):
            out, ctx = fastgrad.mha_forward(attention, x, arena, bias)
            if backward:
                fastgrad.mha_backward(attention, ctx, w, arena)
            value = float((out * w).sum())
            arena.reset()
            return value

        fused_param_gradcheck(attention, fused_loss, atol=5e-6)

    @pytest.mark.parametrize("norm", ["layer", "batch"])
    def test_attention_encoder_score_bias_matches_tape(self, rng, arena, norm):
        """Every block adds the same bias, as the tape encoder does for QueryFormer's plan tree."""
        encoder = AttentionEncoder(model_dim=4, num_heads=2, num_layers=2, rng=rng, norm=norm)
        x = rng.normal(size=(1, 5, 4))
        w = rng.normal(size=(1, 5, 4))
        bias = rng.uniform(-1.0, 0.0, size=(5, 5))
        tensor = Tensor(x, requires_grad=True)
        encoder.zero_grad()
        (encoder(tensor, bias=bias) * Tensor(w)).sum().backward()
        expected = tape_grads(encoder)
        expected_out = encoder(Tensor(x), bias=bias).data
        encoder.zero_grad()
        out, ctx = fastgrad.attention_encoder_forward(encoder, x, arena, bias)
        assert np.max(np.abs(out - expected_out)) <= ATOL
        g_x = fastgrad.attention_encoder_backward(encoder, ctx, w, arena)
        assert_grads_match(expected, encoder)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    def test_fused_qkv_follows_the_projection_arrays(self, rng):
        """The fused block is cached until a projection array is rebound; a pinned block likewise."""
        attention = MultiHeadAttention(model_dim=4, num_heads=2, rng=rng)
        projections = (attention.query_proj, attention.key_proj, attention.value_proj)
        weight, bias = fastgrad._fused_qkv(attention)
        assert np.array_equal(weight, np.concatenate([proj.weight.data for proj in projections], axis=1))
        assert np.array_equal(bias, np.concatenate([proj.bias.data for proj in projections]))
        assert fastgrad._fused_qkv(attention)[0] is weight
        # An optimizer step installs fresh arrays, so the fusion rebuilds.
        attention.key_proj.weight.data = attention.key_proj.weight.data * 2.0
        rebuilt, _ = fastgrad._fused_qkv(attention)
        assert rebuilt is not weight and np.array_equal(rebuilt[:, 4:8], attention.key_proj.weight.data)
        block_weight, block_bias = np.zeros((4, 12)), np.zeros(12)
        fastgrad._pin_fused_qkv(attention, block_weight, block_bias)
        pinned = fastgrad._fused_qkv(attention)
        assert pinned[0] is block_weight and pinned[1] is block_bias
        attention.value_proj.bias.data = attention.value_proj.bias.data + 1.0
        assert fastgrad._fused_qkv(attention)[0] is not block_weight

    def test_masked_log_softmax_kernels_share_one_mask_offset(self, rng):
        """Both kernels and the tape shift a masked logit by ``fastinfer.MASK_VALUE``, so its probability is exactly zero."""
        logits = rng.normal(size=(2, 5))
        mask = np.array([[True, False, True, True, False], [False, True, True, True, True]])
        log_probs, softmax = fastgrad.masked_log_softmax_forward(logits, mask)
        allowed = logits - np.log(np.exp(np.where(mask, logits, -np.inf)).sum(axis=-1, keepdims=True))
        expected = np.where(mask, allowed, allowed + fastinfer.MASK_VALUE)
        np.testing.assert_allclose(log_probs, expected, rtol=1e-12, atol=1e-9)
        assert np.all(softmax[~mask] == 0.0)
        np.testing.assert_allclose(masked_log_softmax(Tensor(logits), mask).data, expected, rtol=1e-12, atol=1e-9)
        log_probs32 = fastinfer.masked_log_softmax_array(logits.astype(np.float32), mask)
        assert log_probs32.dtype == np.float32
        np.testing.assert_allclose(log_probs32, log_probs, rtol=1e-6, atol=1e-5)

    def test_masked_log_softmax_matches_tape_and_gradcheck(self, rng):
        logits = rng.normal(size=(3, 6))
        mask = np.ones((3, 6), dtype=bool)
        mask[0, 2] = mask[1, 0] = mask[1, 5] = False
        w = rng.normal(size=(3, 6))

        tensor = Tensor(logits, requires_grad=True)
        (masked_log_softmax(tensor, mask) * Tensor(w)).sum().backward()
        log_probs, softmax = fastgrad.masked_log_softmax_forward(logits, mask)
        assert np.max(np.abs(log_probs - masked_log_softmax(Tensor(logits), mask).data)) <= ATOL
        g = fastgrad.masked_log_softmax_backward(softmax, w)
        assert np.max(np.abs(g - tensor.grad)) <= ATOL

        # Numeric probe reads only surviving entries: masked log-probs sit at
        # the -1e8 boundary, where float64 cancellation would drown the
        # central-difference signal.
        w_masked = w * mask
        analytic = fastgrad.masked_log_softmax_backward(softmax, w_masked)
        numeric = numeric_gradient(
            lambda: float((fastgrad.masked_log_softmax_forward(logits, mask)[0] * w_masked).sum()),
            logits,
        )
        assert_gradients_close(analytic, numeric, label="masked_log_softmax")
        assert np.max(np.abs(analytic[~mask])) <= 1e-20

    def test_masked_log_softmax_rejects_bad_inputs(self, rng):
        logits = rng.normal(size=(2, 3))
        with pytest.raises(ValueError):
            fastgrad.masked_log_softmax_forward(logits, np.ones((2, 4), dtype=bool))
        mask = np.ones((2, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(ValueError):
            fastgrad.masked_log_softmax_forward(logits, mask)

    def test_arena_recycles_buffers(self):
        arena = fastgrad.Arena()
        first = arena.empty((4, 3))
        arena.reset()
        second = arena.empty((4, 3))
        assert second is first
        third = arena.empty((4, 3))
        assert third is not first
        assert num_buffers(arena) == 2
        # Scratch handed back inside a step is reused before the reset.
        arena.release(third)
        assert arena.empty((4, 3)) is third
        assert num_buffers(arena) == 2

    def test_arena_hands_a_short_shape_the_leading_rows_of_a_free_buffer(self):
        arena = fastgrad.Arena()
        long, longer = arena.empty((4, 3)), arena.empty((6, 3))
        arena.reset()
        short = arena.empty((2, 3))
        assert short.base is long and short.shape == (2, 3)
        assert arena.empty((5, 3)).base is longer
        assert arena.empty((3, 2)).base is None  # another row shape: a new buffer
        assert arena.nbytes == (4 + 6) * 3 * 8 + 3 * 2 * 8
        arena.release(short)
        assert arena.empty((4, 3)) is long
        arena.reset()
        assert num_buffers(arena) == 3
        arena.clear()
        assert (arena.nbytes, num_buffers(arena)) == (0, 0)

    def test_attention_backward_hands_its_buffers_back(self, rng, arena):
        """The pool holds one softmax per layer plus ONE gradient (not one per
        layer), and a second step allocates nothing."""
        encoder = AttentionEncoder(model_dim=4, num_heads=2, num_layers=3, rng=rng, norm="layer")
        x = rng.normal(size=(2, 5, 4))

        def step():
            out, ctx = fastgrad.attention_encoder_forward(encoder, x, arena)
            fastgrad.attention_encoder_backward(encoder, ctx, np.ones_like(out), arena)
            arena.reset()

        step()
        assert len(arena._free[(2, 2, 5, 5)]) == 3 + 1
        held, count = arena.nbytes, num_buffers(arena)
        step()
        assert (arena.nbytes, num_buffers(arena)) == (held, count)

    def test_cluster_pooling_matches_pool_and_gradcheck(self, rng, arena):
        """Pooling forward == ``QueryClusters.pool``; its backward passes a
        central-difference check, drained cluster included."""
        clusters = QueryClusters(np.array([0, 0, 1, 2, 2, 2]), [[0, 1], [2], [3, 4, 5]])
        # Row 0 drains cluster 2 (pools all of 3, 4, 5); row 1 drains cluster 0.
        snapshots = [SimpleNamespace(pending_ids=[0, 2]), SimpleNamespace(pending_ids=[2, 4, 5])]
        policy = SimpleNamespace(policy_head=MLP([4, 5, 2], rng, activation="tanh"))
        per_query = rng.normal(size=(2, 6, 4))
        w = rng.normal(size=(2, 3 * 2))

        logits, ctx = fastgrad.action_logits_forward(policy, per_query, snapshots, clusters, arena)
        pooled = clusters.pool(per_query, clusters.pending_flags(snapshots))
        np.testing.assert_allclose(pooled[0, 2], per_query[0, 3:].mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(pooled[1, 0], per_query[1, :2].mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(pooled[1, 2], per_query[1, 4:].mean(axis=0), atol=1e-15)
        expected = policy.policy_head(Tensor(pooled)).data.reshape(2, -1)
        assert np.max(np.abs(logits - expected)) <= ATOL
        analytic = fastgrad.action_logits_backward(policy, ctx, w, arena)

        def probe():
            out, _ = fastgrad.action_logits_forward(policy, per_query, snapshots, clusters, arena)
            arena.reset()
            return float((out * w).sum())

        assert_gradients_close(analytic, numeric_gradient(probe, per_query), label="per_query")


# ------------------------------------------------------------------ #
# Trainer-level: fused steps vs the tape expressions they replaced
# ------------------------------------------------------------------ #
def build_trainer(trainer_cls, num_envs=2, clustered=False):
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 3
    config.ppo = PPOConfig(
        rollouts_per_update=2 if num_envs > 1 else 1,
        epochs_per_update=2,
        minibatch_size=8,
        num_envs=num_envs,
        aux_every=1,
        aux_epochs=1,
    )
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = BatchQuerySet(workload.batch_query_set().queries[:10])
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config_space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(engine, batch, config_space)
    rng = np.random.default_rng(0)
    queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config.encoder, rng)
    plan_embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)
    encoder = StateEncoder(
        config.encoder.plan_embedding_dim,
        RunStateFeaturizer(len(config_space)),
        config.encoder,
        rng,
    )
    with pytest.MonkeyPatch.context() as patch:
        # The narrow heads the pinned training digests were taken with.
        patch.setattr(policy_module, "HEAD_HIDDEN", 16)
        policy = ActorCriticNetwork(encoder, len(config_space), rng)
    clusters = (
        QueryClusters(np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3]), [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9]])
        if clustered
        else None
    )
    env = SchedulingEnv(
        batch,
        engine,
        config.scheduler,
        config_space,
        knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(config_space)),
        clusters=clusters,
        plan_embeddings=plan_embeddings,
    )
    return trainer_cls(policy, env, config.ppo, seed=0)


#: The update inputs the facade can produce beyond ``build_trainer``'s default
#: (lock-step collection, query-level actions).
TRAINER_MODES = {
    "sequential": {"num_envs": 1},
    "clustered": {"num_envs": 2, "clustered": True},
    "clustered-sequential": {"num_envs": 1, "clustered": True},
}


def collect(trainer):
    """One update's worth of rollouts, advantages normalised; clustered runs
    must contain a drained cluster (``pool``'s all-members fallback)."""
    buffer = trainer.collect_rollouts(trainer.config.rollouts_per_update)
    buffer.normalized_advantages()
    clusters = trainer.env.clusters
    if clusters is not None:
        live = np.stack([clusters.membership & clusters.pending_flags([t.snapshot])[0] for t in buffer.transitions()])
        assert (~live.any(axis=2)).any() and live.any(axis=2).any()
    return buffer


def slab_bytes(samples, trainer):
    """fastgrad's estimate of the arena bytes a slab of ``samples`` of the trainer's policy steps keeps live."""
    return fastgrad._slab_bytes(trainer.policy, len(trainer.env.plan_embeddings), samples, trainer.env.clusters)


@contextlib.contextmanager
def slabs_of(samples, trainer):
    """Set fastgrad's byte budget so the trainer's policy steps run ``samples`` at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastgrad, "_SLAB_BYTES", slab_bytes(samples, trainer))
        yield


def fused_outcome(trainer, step, slab=None):
    """``(losses, gradients)`` of one fused ``step()``.

    Gradients start from zero, so two outcomes are comparable; ``slab`` runs
    the step that many samples at a time.  The gradients are left on the
    policy.
    """
    policy = trainer.policy
    policy.zero_grad()
    with slabs_of(slab, trainer) if slab else contextlib.nullcontext():
        losses = np.atleast_1d(step())
    return losses, tape_grads(policy)


def assert_slabs_match_whole(whole, slabbed):
    """The whole-minibatch step is the oracle of the slab loop: same gradient up to summation order."""
    (whole_losses, whole_grads), (losses, grads) = whole, slabbed
    # The policy loss is a sum of O(1) advantage terms that cancel to ~1e-8.
    assert np.all(np.abs(losses - whole_losses) <= 1e-12 * np.maximum(1.0, np.abs(whole_losses)))
    assert grads.keys() == whole_grads.keys()
    scale = max(float(np.max(np.abs(g))) for g in whole_grads.values() if g is not None)
    for name, expected in whole_grads.items():
        assert (expected is None) == (grads[name] is None), f"{name}: None mismatch"
        if expected is not None:
            worst = float(np.max(np.abs(grads[name] - expected)))
            assert worst <= 1e-12 * scale, f"{name}: slab gradient differs by {worst:.3e}"


def fused_losses(trainer, step, slab=None):
    """Losses of one fused ``step()``, its gradients left on the policy.

    With ``slab`` the step is run that many samples at a time, after the
    one-slab run it is checked against.
    """
    outcome = fused_outcome(trainer, step)
    if slab:
        whole, outcome = outcome, fused_outcome(trainer, step, slab)
        assert_slabs_match_whole(whole, outcome)
    return outcome[0]


def tape_ppo_losses(trainer, batch):
    """The clipped-surrogate objective on the autograd tape: ``(loss, policy_loss, value_loss)``."""
    log_probs, entropies, values, _ = trainer.policy.evaluate_actions_batch(
        trainer.env.plan_embeddings,
        [t.snapshot for t in batch],
        np.array([t.action for t in batch], dtype=np.int64),
        np.stack([t.mask for t in batch], axis=0),
        clusters=trainer.env.clusters,
    )
    advantages = Tensor(np.array([t.advantage for t in batch]))
    ratio = (log_probs - Tensor(np.array([t.log_prob for t in batch]))).exp()
    surrogate1 = ratio * advantages
    surrogate2 = ratio.clip(1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
    clipped = where(surrogate1.data <= surrogate2.data, surrogate1, surrogate2)
    policy_loss = (clipped * -1.0).mean()
    value_error = values - Tensor(np.array([t.value_target for t in batch]))
    value_loss = (value_error * value_error).mean() * 0.5
    loss = policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropies.mean()
    return loss, policy_loss, value_loss


def tape_old_log_probs(trainer, transitions):
    with no_grad():
        _, _, _, log_probs = trainer.policy.evaluate_actions_batch(
            trainer.env.plan_embeddings,
            [t.snapshot for t in transitions],
            np.array([t.action for t in transitions], dtype=np.int64),
            np.stack([t.mask for t in transitions], axis=0),
            clusters=trainer.env.clusters,
        )
    return np.array(log_probs.data, copy=True)


def tape_ppg_aux_loss(trainer, transitions, old_log_probs):
    policy = trainer.policy
    snapshots = [t.snapshot for t in transitions]
    representation = policy.encode_batch(trainer.env.plan_embeddings, snapshots)
    value_predictions = policy.auxiliary_times_batch(representation).mean(axis=-1)
    targets = Tensor(np.array([t.value_target for t in transitions]))
    aux_loss = ((value_predictions - targets) ** 2).mean() * 0.5
    logits = policy.action_logits_batch(representation, snapshots, clusters=trainer.env.clusters)
    new_log_probs = masked_log_softmax(logits, np.stack([t.mask for t in transitions], axis=0))
    return aux_loss + BETA_CLONE * kl_divergence(old_log_probs, new_log_probs)


def tape_iq_aux_loss(trainer, transitions, old_log_probs):
    predicted, new_log_probs = trainer.policy.evaluate_auxiliary_batch(
        trainer.env.plan_embeddings,
        [t.snapshot for t in transitions],
        np.array([t.aux_query_id for t in transitions], dtype=np.int64),
        np.stack([t.mask for t in transitions], axis=0),
        clusters=trainer.env.clusters,
    )
    targets = Tensor(np.array([t.aux_target / TIME_SCALE for t in transitions]))
    aux_loss = ((predicted - targets) ** 2).mean() * 0.5
    return aux_loss + BETA_CLONE * kl_divergence(old_log_probs, new_log_probs)


def use_tape_updates(trainer):
    """Swap a trainer's update and auxiliary phase for the tape loops they replaced.

    Same sampling, same rng consumption, same optimizer: only the gradients
    come from ``Tensor.backward`` instead of the fused kernels.
    """
    config = trainer.config

    def step(loss):
        trainer.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(trainer.policy.parameters(), MAX_GRAD_NORM)
        trainer.optimizer.step()

    def update(buffer):
        buffer.normalized_advantages()
        policy_losses, value_losses = [], []
        for _ in range(config.epochs_per_update):
            loss, policy_loss, value_loss = tape_ppo_losses(trainer, buffer.sample(config.minibatch_size, trainer.rng))
            step(loss)
            policy_losses.append(float(policy_loss.data))
            value_losses.append(float(value_loss.data))
        return {"policy_loss": float(np.mean(policy_losses)), "value_loss": float(np.mean(value_losses))}

    def auxiliary_phase(buffer):
        if isinstance(trainer, IQPPOTrainer):
            transitions, aux_loss = buffer.sample_with_aux(config.minibatch_size, trainer.rng), tape_iq_aux_loss
        else:
            transitions, aux_loss = buffer.sample(config.minibatch_size, trainer.rng), tape_ppg_aux_loss
        old_log_probs = tape_old_log_probs(trainer, transitions)
        losses = []
        for _ in range(config.aux_epochs):
            total = aux_loss(trainer, transitions, old_log_probs)
            step(total)
            losses.append(float(total.data))
        return float(np.mean(losses))

    trainer.update = update
    if type(trainer) is not PPOTrainer:
        trainer.auxiliary_phase = auxiliary_phase
    return trainer


def policy_digest(policy) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(policy.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def behavior_digest(trainer, rounds=2) -> str:
    """Digest of the policy's greedy decisions + makespans on the trainer's env."""
    digest = hashlib.sha256()
    for offset in range(rounds):
        snapshot = trainer.env.reset(round_id=50_000 + offset)
        done = False
        while not done:
            mask = trainer.env.action_mask()
            action = trainer.policy.greedy_action(
                trainer.env.plan_embeddings, snapshot, mask, clusters=trainer.env.clusters
            )
            digest.update(int(action).to_bytes(4, "little"))
            step = trainer.env.step(action)
            snapshot = step.snapshot
            done = step.done
        digest.update(np.float64(trainer.env.result().makespan).tobytes())
    return digest.hexdigest()


def ppo_step(trainer, batch, arena):
    snapshots, masks = trainer._stack(batch)
    return fastgrad.ppo_minibatch_step(
        trainer.policy, trainer.env.plan_embeddings, snapshots,
        np.array([t.action for t in batch], dtype=np.int64), masks,
        old_log_probs=np.array([t.log_prob for t in batch]),
        advantages=np.array([t.advantage for t in batch]),
        value_targets=np.array([t.value_target for t in batch]),
        clip_epsilon=CLIP_EPSILON,
        value_coef=VALUE_COEF,
        entropy_coef=ENTROPY_COEF, arena=arena,
        clusters=trainer.env.clusters,
    )


class TestFusedTrainerSteps:
    def test_ppo_minibatch_step_matches_tape(self, arena):
        self.check_ppo_minibatch_step(arena)

    def test_ppg_aux_step_matches_tape(self, arena):
        self.check_ppg_aux_step(arena)

    def test_iq_ppo_aux_step_matches_tape(self, arena):
        self.check_iq_ppo_aux_step(arena)

    @pytest.mark.parametrize("mode", ["sequential", "clustered", "clustered-sequential"])
    @pytest.mark.parametrize("step", ["ppo_minibatch_step", "ppg_aux_step", "iq_ppo_aux_step"])
    def test_step_matches_tape_on_every_update_input(self, arena, step, mode):
        getattr(self, f"check_{step}")(arena, **TRAINER_MODES[mode])

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("step", ["ppo_minibatch_step", "ppg_aux_step", "iq_ppo_aux_step"])
    def test_slabs_match_the_whole_minibatch_step(self, arena, step, clustered):
        """B=8 as slabs of 3 + 3 + 2 (ragged last slab) against the one-slab step and the tape."""
        getattr(self, f"check_{step}")(arena, slab=3, clustered=clustered)

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("slab", [1, 2, 3])
    def test_arena_is_sized_by_the_slab_not_the_minibatch(self, rng, slab, clustered):
        """Slabs of 3 end short (4 = 3 + 1, 8 = 3 + 3 + 2): the short slab
        takes leading rows of the full slab's buffers, so the pool stays one slab."""
        held = []
        for minibatch in (4, 8):
            trainer = build_trainer(PPOTrainer, clustered=clustered)
            batch = collect(trainer).sample(minibatch, rng)
            arena = fastgrad.Arena()
            with slabs_of(slab, trainer):
                ppo_step(trainer, batch, arena)
            held.append((arena.nbytes, num_buffers(arena)))
            # Per slab, as in test_attention_backward_hands_its_buffers_back:
            # one softmax per layer plus ONE gradient, whatever the minibatch.
            encoder = trainer.policy.state_encoder.config
            tokens = len(trainer.env.plan_embeddings) + 1
            assert len(arena._free[(slab, encoder.state_heads, tokens, tokens)]) == encoder.state_layers + 1
            assert not arena._used
            # The budget's estimate is what the pool holds.
            estimate = slab_bytes(slab, trainer)
            assert abs(arena.nbytes - estimate) <= 0.1 * estimate, (arena.nbytes, estimate)
        assert held[0] == held[1]

    @staticmethod
    def check_ppo_minibatch_step(arena, slab=None, **mode):
        trainer = build_trainer(PPOTrainer, **mode)
        batch = collect(trainer).sample(trainer.config.minibatch_size, np.random.default_rng(7))
        policy = trainer.policy

        policy.zero_grad()
        loss, policy_loss, value_loss = tape_ppo_losses(trainer, batch)
        loss.backward()
        expected = tape_grads(policy)

        fused_pl, fused_vl = fused_losses(trainer, lambda: ppo_step(trainer, batch, arena), slab)
        assert abs(fused_pl - float(policy_loss.data)) <= ATOL
        assert abs(fused_vl - float(value_loss.data)) <= ATOL
        assert_grads_match(expected, policy)
        # The aux head is untouched by the PPO objective on both paths.
        assert all(p.grad is None for p in policy.aux_head.parameters())

    @staticmethod
    def check_ppg_aux_step(arena, slab=None, **mode):
        trainer = build_trainer(PPGTrainer, **mode)
        transitions = collect(trainer).sample(trainer.config.minibatch_size, np.random.default_rng(3))
        snapshots, masks = trainer._stack(transitions)
        policy = trainer.policy
        old = trainer._snapshot_old_policy(snapshots, masks)
        assert np.max(np.abs(old - tape_old_log_probs(trainer, transitions))) <= ATOL
        if slab:
            with slabs_of(slab, trainer):
                assert np.array_equal(trainer._snapshot_old_policy(snapshots, masks), old)

        policy.zero_grad()
        total = tape_ppg_aux_loss(trainer, transitions, old)
        total.backward()
        expected = tape_grads(policy)

        def step():
            return fastgrad.ppg_aux_step(
                policy, trainer.env.plan_embeddings, snapshots, masks,
                old_log_probs=old, value_targets=np.array([t.value_target for t in transitions]),
                beta_clone=BETA_CLONE, arena=arena, clusters=trainer.env.clusters,
            )

        (fused_total,) = fused_losses(trainer, step, slab)
        assert abs(fused_total - float(total.data)) <= ATOL
        assert_grads_match(expected, policy)
        # The value path receives no gradient from the aux objective.
        assert all(p.grad is None for p in policy.value_head.parameters())

    @staticmethod
    def check_iq_ppo_aux_step(arena, slab=None, **mode):
        trainer = build_trainer(IQPPOTrainer, **mode)
        transitions = collect(trainer).sample_with_aux(
            trainer.config.minibatch_size, np.random.default_rng(5)
        )
        snapshots, masks = trainer._stack(transitions)
        policy = trainer.policy
        old = trainer._snapshot_old_policy(snapshots, masks)

        policy.zero_grad()
        total = tape_iq_aux_loss(trainer, transitions, old)
        total.backward()
        expected = tape_grads(policy)

        def step():
            return fastgrad.iq_ppo_aux_step(
                policy, trainer.env.plan_embeddings, snapshots,
                np.array([t.aux_query_id for t in transitions], dtype=np.int64), masks,
                old_log_probs=old,
                time_targets=np.array([t.aux_target / TIME_SCALE for t in transitions]),
                beta_clone=BETA_CLONE, arena=arena, clusters=trainer.env.clusters,
            )

        (fused_total,) = fused_losses(trainer, step, slab)
        assert abs(fused_total - float(total.data)) <= ATOL
        assert_grads_match(expected, policy)

    @pytest.mark.parametrize("classifier", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("multitask", [True, False])
    @pytest.mark.parametrize("attention", [True, False])
    def test_fit_program_gradient_matches_tape(self, rng, attention, multitask, classifier):
        from repro.perf.fit import FitProgram
        from repro.perf.model import ConcurrentPredictionModel

        model = ConcurrentPredictionModel(
            feature_dim=13, hidden_dim=16, rng=rng, use_attention=attention
        )
        if classifier != "tanh":
            model.classifier = MLP([16, 16, 1], rng, activation=classifier)
        features = rng.normal(size=(4, 13))
        index, gamma, target = 2, 0.4, 0.73

        model.zero_grad()
        logits, times = tape_forward(model, features)
        loss = cross_entropy(logits, index)
        if multitask:
            loss = loss + gamma * (times[index] - target) ** 2
        loss.backward()

        program = FitProgram(model, lr=1e-3)
        fused = program.gradient(features, index, target if multitask else None, gamma)
        expected = np.zeros_like(fused)
        for param, view in program.parameter_views(expected):
            if param.grad is not None:
                view[...] = param.grad
        names = {id(param): name for name, param in model.named_parameters()}
        for (param, want), (_, got) in zip(program.parameter_views(expected), program.parameter_views(fused)):
            worst = float(np.max(np.abs(want - got)))
            assert worst <= ATOL, f"{names[id(param)]}: grads differ by {worst:.3e}"
        if not multitask:
            assert all(p.grad is None for p in model.regressor.parameters())
            regressor = {id(p) for p in model.regressor.parameters()}
            assert not any(view.any() for param, view in program.parameter_views(fused) if id(param) in regressor)


# ------------------------------------------------------------------ #
# End-to-end: training is behaviorally pinned against the tape
# ------------------------------------------------------------------ #
def forbid_tape_backward(monkeypatch):
    def backward(self, *args, **kwargs):
        raise AssertionError("Tensor.backward ran inside a policy update")

    monkeypatch.setattr(Tensor, "backward", backward)


class TestEndToEndFusedTraining:
    @pytest.mark.parametrize("trainer_cls", [PPOTrainer, PPGTrainer, IQPPOTrainer])
    def test_fused_training_behaviorally_matches_tape(self, trainer_cls):
        tape = use_tape_updates(build_trainer(trainer_cls, num_envs=2))
        fused = build_trainer(trainer_cls, num_envs=2)
        tape.train(num_updates=2)
        fused.train(num_updates=2)

        tape_state = tape.policy.state_dict()
        fused_state = fused.policy.state_dict()
        assert tape_state.keys() == fused_state.keys()
        for name in tape_state:
            worst = float(np.max(np.abs(tape_state[name] - fused_state[name])))
            assert worst <= ATOL, f"{name}: trained weights differ by {worst:.3e}"
        assert behavior_digest(tape) == behavior_digest(fused)

    def test_sequential_digests_pinned(self):
        """``num_envs=1`` training is pinned: any drift in the sequential
        rollout or in the update arithmetic breaks these.

        Re-pinned (ROADMAP item 2 re-pin rule) when the per-transition tape
        update was deleted: a sequentially collected buffer is now updated by
        the same stacked minibatch step as a lock-step one.  The objective is
        the same per-sample mean; what moves the weights is BatchNorm seeing
        the minibatch as one ``(B, n, d)`` stack (one running-statistics
        update per step, from the mean of the per-state statistics) instead
        of B separate states, plus summation order.  The rollouts themselves
        are untouched.  Previous pins, captured when the tensor inference
        forward was deleted: ppo ``d54a15be…``, ppg ``9bf06d61…``, iq-ppo
        ``65cf0425…``.

        Re-pinned again when the float32 decision program started normalising
        attention after ``P·V``: the rollouts store the sampler's log-probs,
        which moved by float32 rounding, and the PPO ratio trains against
        them.  ppo ``ca5fc663…`` → ``99c9861e…``, ppg ``4de6be4c…`` →
        ``6d98bfc0…``, iq-ppo ``2d57a89a…`` → ``829f2ee8…``.

        Re-pinned again when the decision program started computing shared
        layer-1 terms once (the plan term, the broadcast row): the sampled
        actions are unchanged, the stored log-probs and values moved by
        float32 rounding.
        ppo ``99c9861e…`` → ``f55e4cc5…``, ppg ``6d98bfc0…`` → ``003f7c6c…``,
        iq-ppo ``829f2ee8…`` → ``e3faf881…``.

        Re-pinned again when attention stopped shifting scores that cannot
        overflow ``exp`` (every score within ±60): the sampled actions are
        unchanged, the stored log-probs and values moved by float32 rounding
        (≤ 1.2e-6 here).  With the shift forced on, the previous pins hold.
        ppo ``f55e4cc5…`` → ``fe52929e…``, ppg ``003f7c6c…`` → ``450412f8…``,
        iq-ppo ``e3faf881…`` → ``63f7a074…``.
        """
        pinned = {
            "ppo": "fe52929ebd1b17c10adb08b113a9d40dac61260509aa54d32b5e56f0bc014204",
            "ppg": "450412f8d70c6572b84269a98976f35e13214840c1a5db6df3b582837189d4c6",
            "iq-ppo": "63f7a07493324ca9a5b6e9bec65723efb7583e5f8eedb8d8b72a5bd2946a2b29",
        }
        for trainer_cls in (PPOTrainer, PPGTrainer, IQPPOTrainer):
            trainer = build_trainer(trainer_cls, num_envs=1)
            trainer.train(num_updates=2)
            assert policy_digest(trainer.policy) == pinned[trainer_cls.algorithm], (
                f"{trainer_cls.algorithm}: sequential training digest drifted"
            )

    @pytest.mark.parametrize("trainer_cls", [PPGTrainer, IQPPOTrainer])
    @pytest.mark.parametrize("mode", ["sequential", "clustered"])
    def test_update_and_aux_phase_never_touch_the_tape(self, monkeypatch, trainer_cls, mode):
        forbid_tape_backward(monkeypatch)
        trainer = build_trainer(trainer_cls, **TRAINER_MODES[mode])
        history = trainer.train(num_updates=1)  # aux_every=1: update + aux phase
        assert np.isfinite(history.policy_losses[0]) and np.isfinite(history.value_losses[0])
        assert np.isfinite(history.aux_losses[0]) and history.aux_losses[0] != 0.0

    @pytest.mark.parametrize("clustered", [False, True])
    def test_facade_train_is_tape_free(self, monkeypatch, clustered):
        forbid_tape_backward(monkeypatch)
        config = BQSchedConfig.small(seed=0)
        config.ppo.aux_every = 1
        config.clustering.num_clusters = 8
        scheduler = BQSched(
            make_workload("tpch", scale_factor=1.0, seed=0), DatabaseEngine(DBMSProfile.dbms_x(), seed=0), config
        )
        scheduler.use_clustering = clustered
        scheduler.prepare(history_rounds=2)
        history = scheduler.train(num_updates=1, pretrain_updates=1)
        assert (scheduler.clusters is not None) == clustered
        assert scheduler.trainer.arena is scheduler._update_arena
        assert np.isfinite(history.policy_losses[-1]) and np.isfinite(history.aux_losses[-1])
        assert scheduler.schedule(round_id=0).makespan > 0

    def test_perfmodel_fused_fit_matches_tape(self):
        from repro.perf.features import TIME_SCALE
        from repro.perf.perfmodel import PerformanceModel, PredictionExample

        def build(multitask):
            config = BQSchedConfig.small(seed=0)
            config.simulator.use_multitask = multitask
            config.scheduler.num_connections = 3
            workload = make_workload("tpch", scale_factor=1.0, seed=0)
            batch = BatchQuerySet(workload.batch_query_set().queries[:8])
            engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
            config_space = ConfigurationSpace(config.scheduler)
            knowledge = ExternalKnowledge.from_probes(engine, batch, config_space)
            rng = np.random.default_rng(0)
            queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config.encoder, rng)
            plan_embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)
            return PerformanceModel(
                batch=batch,
                plan_embeddings=plan_embeddings,
                knowledge=knowledge,
                config_space=config_space,
                config=config.simulator,
                seed=0,
            )

        def fake_examples(model, count=6):
            rng = np.random.default_rng(9)
            examples = []
            for _ in range(count):
                k = int(rng.integers(2, 4))
                features = rng.normal(size=(k, model.featurizer.feature_dim))
                examples.append(
                    PredictionExample(
                        features=features,
                        earliest_index=int(rng.integers(0, k)),
                        earliest_remaining=float(rng.uniform(1.0, 20.0)),
                    )
                )
            return examples

        def tape_fit(perf, examples, epochs):
            """The per-example autograd loop ``PerformanceModel.fit`` replaced."""
            optimizer = Adam(perf.model.parameters(), lr=SIMULATOR_LEARNING_RATE)
            order = list(range(len(examples)))
            for _ in range(epochs):
                perf._rng.shuffle(order)
                for index in order:
                    example = examples[index]
                    logits, times = tape_forward(perf.model, example.features)
                    loss = cross_entropy(logits, example.earliest_index)
                    if perf.config.use_multitask:
                        residual = times[example.earliest_index] - example.earliest_remaining / TIME_SCALE
                        loss = loss + perf.config.gamma_regression * residual**2
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()

        for multitask in (True, False):
            tape = build(multitask)
            fused = build(multitask)
            initial = fused.model.state_dict()
            tape_fit(tape, fake_examples(tape), epochs=2)
            fused.fit(fake_examples(fused), epochs=2)
            for (name, a), (_, b) in zip(
                sorted(tape.model.state_dict().items()), sorted(fused.model.state_dict().items())
            ):
                worst = float(np.max(np.abs(a - b)))
                assert worst <= ATOL, f"{name}: fitted weights differ by {worst:.3e}"
            # Identical rng consumption: the two fit orders drew the same shuffles.
            assert tape._rng.integers(1 << 30) == fused._rng.integers(1 << 30)
            if not multitask:
                # A classification-only fit leaves the regressor's weights and moments untouched.
                program = fused._program
                regressor = {id(p) for p in fused.model.regressor.parameters()}
                for name, param in fused.model.named_parameters():
                    if name.startswith("regressor."):
                        np.testing.assert_array_equal(param.data, initial[name])
                for slab in (program.m, program.v):
                    assert not any(view.any() for param, view in program.parameter_views(slab) if id(param) in regressor)


# ------------------------------------------------------------------ #
# Gates: unsupported architectures and degenerate update inputs are loud
# ------------------------------------------------------------------ #
class TestFusedFallbacks:
    """There is no fallback any more: what the kernels cannot do raises."""

    def test_unsupported_policy_raises_configuration_error(self):
        trainer = build_trainer(PPOTrainer)
        # Swap the policy head for a module the kernels do not parse.
        trainer.policy.policy_head = trainer.policy.policy_head.net
        assert fastgrad.fused_training_reason(trainer.policy) == "policy_head is Sequential, not MLP"
        with pytest.raises(ConfigurationError, match="policy_head is Sequential, not MLP"):
            PPOTrainer(trainer.policy, trainer.env, trainer.config)

    @pytest.mark.parametrize(
        "knock_out, reason",
        [
            (
                lambda model: setattr(model.encoder._modules["block_0"], "norm2", Activation("identity")),
                "block_0 uses an unsupported norm",
            ),
        ],
    )
    def test_fit_program_refuses_what_it_cannot_train(self, rng, knock_out, reason):
        from repro.perf.fit import FitProgram
        from repro.perf.model import ConcurrentPredictionModel

        model = ConcurrentPredictionModel(feature_dim=5, hidden_dim=8, rng=rng)
        knock_out(model)
        with pytest.raises(ConfigurationError, match=reason):
            FitProgram(model, lr=1e-3)

    def test_trainer_timers_record_phases(self):
        trainer = build_trainer(PPOTrainer, num_envs=2)
        trainer.train(num_updates=1)
        timings = trainer.timers.as_dict()
        assert {"rollout", "update", "optimizer"} <= set(timings)

    @pytest.mark.parametrize("trainer_cls", [PPOTrainer, PPGTrainer, IQPPOTrainer])
    def test_empty_buffer_is_rejected_by_name(self, trainer_cls):
        trainer = build_trainer(trainer_cls)
        empty = RolloutBuffer()
        with pytest.raises(ValueError, match=r"update\(\) needs at least one finished episode"):
            trainer.update(empty)
        if trainer_cls is not PPOTrainer:
            with pytest.raises(ValueError, match=r"auxiliary_phase\(\) needs at least one finished episode"):
                trainer.auxiliary_phase(empty)

    def test_all_false_mask_row_names_the_transition(self):
        trainer = build_trainer(PPGTrainer)
        buffer = trainer.collect_rollouts(1)
        transitions = buffer.transitions()
        trainer.config.minibatch_size = len(transitions)  # every transition is in the minibatch
        transitions[3].mask = np.zeros_like(transitions[3].mask)
        for phase in (trainer.update, trainer.auxiliary_phase):
            with pytest.raises(ValueError, match=r"transition \d+ of the minibatch .* all-False action mask"):
                phase(buffer)

    def test_non_finite_step_names_the_parameter_and_keeps_the_weights(self):
        trainer = build_trainer(PPOTrainer)
        buffer = trainer.collect_rollouts(1)
        weight = list(trainer.policy.value_head.net)[0].weight
        weight.data = np.full_like(weight.data, np.nan)
        before = {name: param.data for name, param in trainer.policy.named_parameters()}
        with pytest.raises(FloatingPointError, match=r"loss nan .* first parameter with a non-finite gradient: (\S+)$") as info:
            trainer.update(buffer)
        finite = {
            name: param.grad is None or bool(np.isfinite(param.grad).all())
            for name, param in trainer.policy.named_parameters()
        }
        culprit = info.value.args[0].rsplit(" ", 1)[1]
        assert culprit == next(name for name, ok in finite.items() if not ok)
        # The optimizer never ran: every parameter still holds the array it had.
        assert all(param.data is before[name] for name, param in trainer.policy.named_parameters())
