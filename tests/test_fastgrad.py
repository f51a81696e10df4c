"""Correctness pins for the tape-free fused training path (``repro.nn.fastgrad``).

Three layers of evidence, as the fused path promises:

1. kernel-level: every fused forward/backward matches the autograd tape at
   ``atol=1e-9`` in float64 *and* passes a central-finite-difference
   gradcheck of its own analytic gradients;
2. trainer-level: the fused PPO / PPG-aux / IQ-PPO-aux / performance-model
   steps accumulate the same parameter gradients as the tape expressions
   they replace (including which parameters keep ``grad is None``);
3. end-to-end: fixed-seed fused training produces policies behaviorally
   identical to tape training (same greedy decisions, same makespans), and
   the legacy ``num_envs=1`` sequential path stays digest-pinned bit-for-bit
   across the ``chained_sum`` / in-place-optimizer rewrites.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from gradcheck import assert_gradients_close, numeric_gradient, stateless
from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import PPOConfig
from repro.core import (
    ActorCriticNetwork,
    AdaptiveMask,
    ExternalKnowledge,
    IQPPOTrainer,
    PPGTrainer,
    PPOTrainer,
    SchedulingEnv,
)
from repro.dbms import ConfigurationSpace
from repro.encoder import PlanEmbeddingCache, QueryFormer, RunStateFeaturizer, StateEncoder
from repro.nn import (
    MLP,
    AttentionEncoder,
    BatchNorm,
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    cross_entropy,
    fastgrad,
    kl_divergence,
    masked_log_softmax,
    where,
)
from repro.plans import PlanFeaturizer

ATOL = 1e-9


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


def clear_qkv_caches(module):
    """Drop identity-keyed fused-QKV caches.

    The cache assumes optimizers replace ``param.data`` wholesale; the
    finite-difference probes below perturb the arrays *in place*, so the
    cache must be invalidated by hand between probe evaluations.
    """
    stack = [module]
    while stack:
        node = stack.pop()
        if isinstance(node, MultiHeadAttention):
            node._fastinfer_qkv = None
        stack.extend(node._modules.values())


def fused_param_gradcheck(module, fused_loss, eps=1e-6, atol=1e-6, rtol=1e-4):
    """Central-difference check of the *fused* analytic parameter grads."""
    module.zero_grad()
    fused_loss(backward=True)
    for name, param in module.named_parameters():
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)

        def probe():
            clear_qkv_caches(module)
            with stateless(module):
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
        g_x = fastgrad.layer_norm_backward(norm, ctx, w)
        assert_grads_match(expected, norm)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    @pytest.mark.parametrize("shape", [(6, 4), (2, 5, 4)])
    def test_batch_norm_train_matches_tape(self, rng, arena, shape):
        norm = BatchNorm(4)
        norm.gamma.data[:] = rng.normal(1.0, 0.2, size=4)
        norm.beta.data[:] = rng.normal(size=4)
        x = rng.normal(1.0, 2.0, size=shape)
        w = rng.normal(size=shape)

        tensor = Tensor(x, requires_grad=True)
        norm.zero_grad()
        with stateless(norm):
            (norm(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(norm)
        with stateless(norm):
            expected_out = norm(Tensor(x)).data
            expected_running = (norm.running_mean.copy(), norm.running_var.copy())

        norm.zero_grad()
        out, ctx = fastgrad.batch_norm_forward(norm, x, arena)
        # The fused forward replicates the running-statistics side effects.
        assert np.max(np.abs(norm.running_mean - expected_running[0])) <= ATOL
        assert np.max(np.abs(norm.running_var - expected_running[1])) <= ATOL
        assert np.max(np.abs(out - expected_out)) <= ATOL
        g_x = fastgrad.batch_norm_backward(norm, ctx, w)
        assert_grads_match(expected, norm)
        assert np.max(np.abs(g_x - tensor.grad)) <= ATOL

    def test_batch_norm_eval_matches_tape(self, rng, arena):
        norm = BatchNorm(3)
        norm.running_mean = rng.normal(size=3)
        norm.running_var = rng.uniform(0.5, 2.0, size=3)
        norm.eval()
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        tensor = Tensor(x, requires_grad=True)
        norm.zero_grad()
        (norm(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(norm)
        norm.zero_grad()
        out, ctx = fastgrad.batch_norm_forward(norm, x, arena)
        assert np.max(np.abs(out - norm(Tensor(x)).data)) <= ATOL
        g_x = fastgrad.batch_norm_backward(norm, ctx, w)
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
        with stateless(encoder):
            (encoder(tensor) * Tensor(w)).sum().backward()
        expected = tape_grads(encoder)
        with stateless(encoder):
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
        assert arena.num_buffers == 2


# ------------------------------------------------------------------ #
# Trainer-level: fused steps vs the tape expressions they replace
# ------------------------------------------------------------------ #
def build_trainer(trainer_cls, num_envs=2, training_path="tape"):
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 3
    config.scheduler.training_path = training_path
    config.ppo = PPOConfig(
        rollouts_per_update=2 if num_envs > 1 else 1,
        epochs_per_update=2,
        minibatch_size=8,
        num_envs=num_envs,
        aux_every=1,
        aux_epochs=1,
    )
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set().subset(range(10))
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
    policy = ActorCriticNetwork(encoder, len(config_space), rng, head_hidden=16)
    env = SchedulingEnv(
        batch,
        engine,
        config.scheduler,
        config_space,
        knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(config_space)),
    )
    return trainer_cls(
        policy, plan_embeddings, env, config.ppo, seed=0, training_path=training_path
    )


def policy_digest(policy) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(policy.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def behavior_digest(trainer, rounds=2) -> str:
    """Digest of the policy's greedy decisions + makespans on the eval env."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(123)
    for offset in range(rounds):
        snapshot = trainer.eval_env.reset(round_id=50_000 + offset)
        done = False
        while not done:
            mask = trainer.eval_env.action_mask()
            decision = trainer.policy.act(
                trainer.plan_embeddings, snapshot, mask, rng, greedy=True,
                clusters=trainer.eval_env.clusters,
            )
            digest.update(int(decision.action).to_bytes(4, "little"))
            step = trainer.eval_env.step(decision.action)
            snapshot = step.snapshot
            done = step.done
        digest.update(np.float64(trainer.eval_env.result().makespan).tobytes())
    return digest.hexdigest()


class TestFusedTrainerSteps:
    def test_ppo_minibatch_step_matches_tape(self, arena):
        trainer = build_trainer(PPOTrainer)
        buffer = trainer.collect_rollouts(trainer.config.rollouts_per_update)
        buffer.normalized_advantages()
        batch = buffer.sample(trainer.config.minibatch_size, np.random.default_rng(7))
        snapshots = [t.snapshot for t in batch]
        actions = np.array([t.action for t in batch], dtype=np.int64)
        masks = np.stack([t.mask for t in batch], axis=0)
        old_log_probs = np.array([t.log_prob for t in batch])
        advantages = np.array([t.advantage for t in batch])
        value_targets = np.array([t.value_target for t in batch])
        policy = trainer.policy

        policy.zero_grad()
        log_probs, entropies, values, _ = policy.evaluate_actions_batch(
            trainer.plan_embeddings, snapshots, actions, masks, clusters=None
        )
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        surrogate1 = ratio * Tensor(advantages)
        surrogate2 = ratio.clip(
            1.0 - trainer.config.clip_epsilon, 1.0 + trainer.config.clip_epsilon
        ) * Tensor(advantages)
        clipped = where(surrogate1.data <= surrogate2.data, surrogate1, surrogate2)
        policy_loss = (clipped * -1.0).mean()
        value_error = values - Tensor(value_targets)
        value_loss = (value_error * value_error).mean() * 0.5
        loss = (
            policy_loss
            + trainer.config.value_coef * value_loss
            - trainer.config.entropy_coef * entropies.mean()
        )
        loss.backward()
        expected = tape_grads(policy)

        policy.zero_grad()
        fused_pl, fused_vl = fastgrad.ppo_minibatch_step(
            policy, trainer.plan_embeddings, snapshots, actions, masks,
            old_log_probs=old_log_probs, advantages=advantages,
            value_targets=value_targets, clip_epsilon=trainer.config.clip_epsilon,
            value_coef=trainer.config.value_coef,
            entropy_coef=trainer.config.entropy_coef, arena=arena,
        )
        assert abs(fused_pl - float(policy_loss.data)) <= ATOL
        assert abs(fused_vl - float(value_loss.data)) <= ATOL
        assert_grads_match(expected, policy)
        # The aux head is untouched by the PPO objective on both paths.
        assert all(p.grad is None for p in policy.aux_head.parameters())

    def test_ppg_aux_step_matches_tape(self, arena):
        trainer = build_trainer(PPGTrainer)
        buffer = trainer.collect_rollouts(trainer.config.rollouts_per_update)
        buffer.normalized_advantages()
        transitions = buffer.sample(trainer.config.minibatch_size, np.random.default_rng(3))
        policy = trainer.policy
        old = np.stack(trainer._snapshot_old_policy(transitions), axis=0)
        snapshots = [t.snapshot for t in transitions]
        masks = np.stack([t.mask for t in transitions], axis=0)
        value_targets = np.array([t.value_target for t in transitions])

        policy.zero_grad()
        representation = policy.encode_batch(trainer.plan_embeddings, snapshots)
        predicted = policy.auxiliary_times_batch(representation)
        value_predictions = predicted.mean(axis=-1)
        aux_loss = ((value_predictions - Tensor(value_targets)) ** 2).mean() * 0.5
        logits = policy.action_logits_batch(representation, snapshots, clusters=None)
        new_log_probs = masked_log_softmax(logits, masks)
        clone = kl_divergence(old, new_log_probs)
        total = aux_loss + trainer.config.beta_clone * clone
        total.backward()
        expected = tape_grads(policy)

        policy.zero_grad()
        fused_total = fastgrad.ppg_aux_step(
            policy, trainer.plan_embeddings, snapshots, masks,
            old_log_probs=old, value_targets=value_targets,
            beta_clone=trainer.config.beta_clone, arena=arena,
        )
        assert abs(fused_total - float(total.data)) <= ATOL
        assert_grads_match(expected, policy)
        # The value path receives no gradient from the aux objective.
        assert all(p.grad is None for p in policy.value_head.parameters())

    def test_iq_ppo_aux_step_matches_tape(self, arena):
        trainer = build_trainer(IQPPOTrainer)
        buffer = trainer.collect_rollouts(trainer.config.rollouts_per_update)
        buffer.normalized_advantages()
        transitions = buffer.sample_with_aux(
            trainer.config.minibatch_size, np.random.default_rng(5)
        )
        policy = trainer.policy
        old = np.stack(trainer._snapshot_old_policy(transitions), axis=0)
        time_scale = policy.state_encoder.run_state_featurizer.time_scale
        snapshots = [t.snapshot for t in transitions]
        query_ids = np.array([t.aux_query_id for t in transitions], dtype=np.int64)
        masks = np.stack([t.mask for t in transitions], axis=0)
        targets = np.array([t.aux_target / time_scale for t in transitions])

        policy.zero_grad()
        predicted, new_log_probs = policy.evaluate_auxiliary_batch(
            trainer.plan_embeddings, snapshots, query_ids, masks, clusters=None
        )
        aux_loss = ((predicted - Tensor(targets)) ** 2).mean() * 0.5
        clone = kl_divergence(old, new_log_probs)
        total = aux_loss + trainer.config.beta_clone * clone
        total.backward()
        expected = tape_grads(policy)

        policy.zero_grad()
        fused_total = fastgrad.iq_ppo_aux_step(
            policy, trainer.plan_embeddings, snapshots, query_ids, masks,
            old_log_probs=old, time_targets=targets,
            beta_clone=trainer.config.beta_clone, arena=arena,
        )
        assert abs(fused_total - float(total.data)) <= ATOL
        assert_grads_match(expected, policy)

    @pytest.mark.parametrize("multitask", [True, False])
    def test_perfmodel_example_step_matches_tape(self, rng, arena, multitask):
        from repro.perf.model import ConcurrentPredictionModel

        model = ConcurrentPredictionModel(
            feature_dim=13, hidden_dim=16, rng=rng, use_attention=True
        )
        features = rng.normal(size=(4, 13))
        index, gamma, target = 2, 0.4, 0.73

        model.zero_grad()
        logits, times = model(features)
        loss = cross_entropy(logits, index)
        if multitask:
            loss = loss + gamma * (times[index] - target) ** 2
        loss.backward()
        expected = tape_grads(model)

        model.zero_grad()
        assert fastgrad.perfmodel_training_reason(model) is None
        fused_loss = fastgrad.perfmodel_example_step(
            model, features, index, target if multitask else None, gamma, arena
        )
        assert abs(fused_loss - float(loss.data)) <= ATOL
        assert_grads_match(expected, model)
        if not multitask:
            assert all(p.grad is None for p in model.regressor.parameters())


# ------------------------------------------------------------------ #
# End-to-end: fused training is behaviorally pinned against the tape
# ------------------------------------------------------------------ #
class TestEndToEndFusedTraining:
    @pytest.mark.parametrize("trainer_cls", [PPOTrainer, PPGTrainer, IQPPOTrainer])
    def test_fused_training_behaviorally_matches_tape(self, trainer_cls):
        tape = build_trainer(trainer_cls, num_envs=2, training_path="tape")
        fused = build_trainer(trainer_cls, num_envs=2, training_path="fused")
        tape.train(num_updates=2, eval_every=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fused.train(num_updates=2, eval_every=0)
        assert fused._fused_reason is None and fused._arena is not None

        tape_state = tape.policy.state_dict()
        fused_state = fused.policy.state_dict()
        assert tape_state.keys() == fused_state.keys()
        for name in tape_state:
            worst = float(np.max(np.abs(tape_state[name] - fused_state[name])))
            assert worst <= ATOL, f"{name}: trained weights differ by {worst:.3e}"
        assert behavior_digest(tape) == behavior_digest(fused)

    def test_sequential_digests_pinned(self):
        """The num_envs=1 path is pinned: any drift in the sequential rollout
        or update arithmetic breaks these.

        Re-pinned once (the deliberate re-pin ROADMAP item 2 allows) when the
        tensor inference forward was deleted: sequential rollouts now sample
        with the shared inverse-CDF draw on the float32 tape-free log-probs
        (``act`` is ``act_batch`` at B=1) instead of ``rng.choice`` on the
        float64 tape forward, so the sampled trajectories — and with them the
        trained weights — differ.  The update arithmetic itself is unchanged;
        the previous digests were captured on the pre-``chained_sum`` /
        pre-in-place-optimizer tree.
        """
        pinned = {
            "ppo": "d54a15be5dfda9b2800947712c5489b8f86be832029cc0ef780bb00d873e753a",
            "ppg": "9bf06d619d6ea79d1e6b204443ef54ab5222061938da32beec2a0f8c66f1c670",
            "iq-ppo": "65cf042539859dd329604cc7cbea3e92553b1e780ce2df14f6b738ccd4c55856",
        }
        for trainer_cls in (PPOTrainer, PPGTrainer, IQPPOTrainer):
            trainer = build_trainer(trainer_cls, num_envs=1)
            trainer.train(num_updates=2, eval_every=0)
            assert policy_digest(trainer.policy) == pinned[trainer_cls.algorithm], (
                f"{trainer_cls.algorithm}: sequential training digest drifted"
            )

    def test_perfmodel_fused_fit_matches_tape(self):
        from repro.nn import cross_entropy
        from repro.perf.features import TIME_SCALE
        from repro.perf.perfmodel import PerformanceModel, PredictionExample

        def build():
            config = BQSchedConfig.small(seed=0)
            config.scheduler.num_connections = 3
            workload = make_workload("tpch", scale_factor=1.0, seed=0)
            batch = workload.batch_query_set().subset(range(8))
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
            order = list(range(len(examples)))
            for _ in range(epochs):
                perf._rng.shuffle(order)
                for index in order:
                    example = examples[index]
                    logits, times = perf.model(example.features)
                    loss = cross_entropy(logits, example.earliest_index)
                    if perf.config.use_multitask:
                        residual = times[example.earliest_index] - example.earliest_remaining / TIME_SCALE
                        loss = loss + perf.config.gamma_regression * residual**2
                    perf.optimizer.zero_grad()
                    loss.backward()
                    perf.optimizer.step()

        tape = build()
        fused = build()
        tape_fit(tape, fake_examples(tape), epochs=2)
        fused.fit(fake_examples(fused), epochs=2)
        for (name, a), (_, b) in zip(
            sorted(tape.model.state_dict().items()), sorted(fused.model.state_dict().items())
        ):
            worst = float(np.max(np.abs(a - b)))
            assert worst <= ATOL, f"{name}: fitted weights differ by {worst:.3e}"
        # Identical rng consumption: the two fit orders drew the same shuffles.
        assert tape._rng.integers(1 << 30) == fused._rng.integers(1 << 30)


# ------------------------------------------------------------------ #
# Fallback gates
# ------------------------------------------------------------------ #
class TestFusedFallbacks:
    def test_invalid_training_path_rejected(self):
        with pytest.raises(ValueError):
            build_trainer(PPOTrainer, training_path="jit")

    def test_config_validates_training_path(self):
        from repro.config import SchedulerConfig
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            SchedulerConfig(training_path="neither")

    def test_sequential_fused_warns_and_falls_back(self):
        trainer = build_trainer(PPOTrainer, num_envs=1, training_path="fused")
        with pytest.warns(RuntimeWarning, match="falling back to the tape"):
            trainer.train(num_updates=1, eval_every=0)
        assert trainer._fused_reason is not None
        assert trainer._arena is None

    def test_unsupported_policy_warns_and_falls_back(self):
        trainer = build_trainer(PPOTrainer, num_envs=2, training_path="fused")
        # Knock out a bias so the support gate rejects the policy head.
        list(trainer.policy.policy_head.net)[0].bias = None
        reason = fastgrad.fused_training_reason(trainer.policy)
        assert reason is not None and "bias" in reason
        with pytest.warns(RuntimeWarning, match="falling back to the tape"):
            trainer.train(num_updates=1, eval_every=0)
        assert trainer._arena is None

    def test_clusters_not_covered(self):
        trainer = build_trainer(PPOTrainer, num_envs=2)
        reason = fastgrad.fused_training_reason(trainer.policy, clusters=object())
        assert reason is not None and "cluster" in reason

    def test_perfmodel_gate_rejects_missing_bias(self, rng):
        from repro.perf.model import ConcurrentPredictionModel

        model = ConcurrentPredictionModel(feature_dim=5, hidden_dim=8, rng=rng)
        assert fastgrad.perfmodel_training_reason(model) is None
        model.input_proj.bias = None
        assert fastgrad.perfmodel_training_reason(model) == "input_proj has no bias"

    def test_trainer_timers_record_phases(self):
        trainer = build_trainer(PPOTrainer, num_envs=2, training_path="fused")
        trainer.train(num_updates=1, eval_every=0)
        timings = trainer.timers.as_dict()
        assert {"rollout", "update", "optimizer"} <= set(timings)
