"""Tests for the actor-critic policy, rollout buffer and the PPO family."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.config import BQSchedConfig, EncoderConfig, PPOConfig
from repro.core import (
    ActorCriticNetwork,
    AdaptiveMask,
    FIFOScheduler,
    IQPPOTrainer,
    LSchedScheduler,
    PPGTrainer,
    PPOTrainer,
    RolloutBuffer,
    SchedulingEnv,
    Transition,
)
from repro.dbms import QueryExecutionRecord, RoundLog, RunningParameters
from repro.encoder import RunStateFeaturizer, SnapshotArrays, StateEncoder
from repro.exceptions import ConfigurationError, SchedulingError
from repro.workloads import BatchQuerySet
from snapshot_oracle import snapshot_arrays


NUM_CONFIGS = 4
PLAN_DIM = 16


@pytest.fixture(scope="module")
def policy():
    config = EncoderConfig(
        plan_embedding_dim=PLAN_DIM, node_hidden_dim=16, tree_heads=2, tree_layers=1,
        state_dim=24, state_heads=2, state_layers=1,
    )
    encoder = StateEncoder(PLAN_DIM, RunStateFeaturizer(NUM_CONFIGS), config, np.random.default_rng(0))
    return ActorCriticNetwork(encoder, NUM_CONFIGS, np.random.default_rng(1))


def make_snapshot(n: int, running: int = 0) -> SnapshotArrays:
    status = (np.arange(n) < running).astype(np.int64)  # the first ``running`` queries run
    return snapshot_arrays(status, time=0.5, elapsed=0.3 * status, expected_time=1.0)


class TestActorCritic:
    def test_logit_dimension_matches_action_space(self, policy):
        n = 6
        snapshot = make_snapshot(n)
        representation = policy.representation(np.zeros((n, PLAN_DIM)), snapshot)
        logits = policy.action_logits(representation, snapshot)
        assert logits.shape == (n * NUM_CONFIGS,)
        assert policy.state_value(representation).shape == (1,)
        assert policy.auxiliary_times(representation).shape == (n,)

    def test_act_respects_action_mask(self, policy):
        n = 5
        snapshot = make_snapshot(n)
        mask = np.zeros(n * NUM_CONFIGS, dtype=bool)
        mask[7] = True
        rng = np.random.default_rng(0)
        for _ in range(10):
            decision = policy.act(np.zeros((n, PLAN_DIM)), snapshot, mask, rng)
            assert decision.action == 7

    def test_greedy_action_is_deterministic(self, policy):
        n = 4
        snapshot = make_snapshot(n)
        mask = np.ones(n * NUM_CONFIGS, dtype=bool)
        plan = np.random.default_rng(0).normal(size=(n, PLAN_DIM))
        assert policy.greedy_action(plan, snapshot, mask) == policy.greedy_action(plan, snapshot, mask)

    def test_evaluate_action_gradients_flow(self, policy):
        n = 4
        snapshot = make_snapshot(n, running=1)
        mask = np.ones(n * NUM_CONFIGS, dtype=bool)
        log_prob, entropy, value, log_probs = policy.evaluate_action(
            np.zeros((n, PLAN_DIM)), snapshot, action=2, mask=mask
        )
        assert log_probs.shape == (n * NUM_CONFIGS,)
        loss = -log_prob + value.sum() * 0.0 - entropy * 0.01
        policy.zero_grad()
        loss.backward()
        assert any(p.grad is not None and np.abs(p.grad).max() > 0 for p in policy.parameters())

    def test_num_configs_validation(self, policy):
        with pytest.raises(SchedulingError):
            ActorCriticNetwork(policy.state_encoder, 0, np.random.default_rng(0))


class TestRolloutBuffer:
    def _fill_episode(self, buffer: RolloutBuffer, steps: int = 4) -> RoundLog:
        round_log = RoundLog(round_id=0)
        for i in range(steps):
            snapshot = make_snapshot(steps, running=min(i + 1, steps))
            buffer.add(
                Transition(
                    snapshot=snapshot, action=i, log_prob=-1.0, value=0.5,
                    reward=-1.0, done=i == steps - 1, mask=np.ones(steps * NUM_CONFIGS, dtype=bool), time=float(i),
                )
            )
            round_log.add(
                QueryExecutionRecord(
                    query_id=i, query_name=f"q{i}", template_id=i, connection=0,
                    parameters=RunningParameters(1, 64), submit_time=float(i), finish_time=float(i) + 2.0,
                )
            )
        buffer.finish_episode(round_log, makespan=float(steps) + 1.0)
        return round_log

    def test_gae_targets_computed(self):
        buffer = RolloutBuffer()
        self._fill_episode(buffer)
        transitions = buffer.transitions()
        assert all(t.value_target == pytest.approx(t.advantage + t.value) for t in transitions)
        # terminal state advantage only sees its own reward
        last = transitions[-1]
        assert last.advantage == pytest.approx(last.reward - last.value)

    def test_aux_targets_point_at_earliest_running_query(self):
        buffer = RolloutBuffer()
        self._fill_episode(buffer)
        annotated = [t for t in buffer.transitions() if t.has_aux_target]
        assert annotated
        for transition in annotated:
            assert transition.aux_query_id in transition.snapshot.running_ids
            assert transition.aux_target > 0

    def test_sampling_and_normalisation(self):
        buffer = RolloutBuffer()
        self._fill_episode(buffer)
        self._fill_episode(buffer)
        sample = buffer.sample(3, np.random.default_rng(0))
        assert len(sample) == 3
        buffer.normalized_advantages()
        values = np.array([t.advantage for t in buffer.transitions()])
        assert abs(values.mean()) < 1e-8
        assert len(buffer.episode_makespans()) == 2

    def test_finish_without_transitions_fails(self):
        with pytest.raises(SchedulingError):
            RolloutBuffer().finish_episode(RoundLog(round_id=0), makespan=1.0)

    def test_sample_from_empty_buffer_fails(self):
        with pytest.raises(SchedulingError):
            RolloutBuffer().sample(1, np.random.default_rng(0))

    def test_clear(self):
        buffer = RolloutBuffer()
        self._fill_episode(buffer)
        buffer.clear()
        assert len(buffer) == 0


@pytest.fixture()
def rl_setup(tpch_workload, engine_x):
    """A tiny RL setup over a 10-query subset so trainer tests stay fast."""
    from repro.core.knowledge import ExternalKnowledge
    from repro.dbms import ConfigurationSpace
    from repro.encoder import PlanEmbeddingCache, QueryFormer
    from repro.plans import PlanFeaturizer

    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 3
    config.ppo = PPOConfig(rollouts_per_update=1, epochs_per_update=1, minibatch_size=8, aux_every=1, aux_epochs=1)
    batch = BatchQuerySet(tpch_workload.batch_query_set().queries[:10])
    config_space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(engine_x, batch, config_space)
    rng = np.random.default_rng(0)
    queryformer = QueryFormer(PlanFeaturizer(tpch_workload.catalog), config.encoder, rng)
    plan_embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)
    encoder = StateEncoder(config.encoder.plan_embedding_dim, RunStateFeaturizer(len(config_space)), config.encoder, rng)
    policy = ActorCriticNetwork(encoder, len(config_space), rng)
    env = SchedulingEnv(
        batch, engine_x, config.scheduler, config_space, knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(config_space)),
        plan_embeddings=plan_embeddings,
    )
    return policy, env, config


@pytest.mark.parametrize("trainer_cls", [PPOTrainer, PPGTrainer, IQPPOTrainer])
def test_trainers_run_one_update(rl_setup, trainer_cls):
    policy, env, config = rl_setup
    trainer = trainer_cls(policy, env, config.ppo, seed=0)
    history = trainer.train(num_updates=1)
    assert len(history.train_rewards) == 1
    assert history.train_makespans[0] > 0


def test_trainer_needs_plan_embeddings_on_its_env(rl_setup):
    policy, env, config = rl_setup
    bare = SchedulingEnv(env.batch, env.backend, env.scheduler_config, env.config_space, env.knowledge)
    with pytest.raises(ConfigurationError, match="carries no plan_embeddings"):
        PPOTrainer(policy, bare, config.ppo)


def test_iq_ppo_auxiliary_uses_aux_targets(rl_setup):
    policy, env, config = rl_setup
    trainer = IQPPOTrainer(policy, env, config.ppo, seed=0)
    buffer = trainer.collect_rollouts(1)
    assert any(t.has_aux_target for t in buffer.transitions())
    loss = trainer.auxiliary_phase(buffer)
    assert np.isfinite(loss)


def test_trainer_evaluation_matches_heuristic_interface(rl_setup, tpch_workload, engine_x):
    """An RL scheduler evaluates through the heuristics' ``evaluate`` on any env: its
    greedy decisions read the env's own batch context (10 of the scheduler's 22 rows)."""
    _, env, config = rl_setup
    scheduler = LSchedScheduler(tpch_workload, engine_x, config)
    evaluation = scheduler.evaluate(env, rounds=2)
    assert len(evaluation.makespans) == 2 and evaluation.strategy == "LSched"
    fifo = FIFOScheduler().evaluate(env, rounds=2)
    # an untrained policy should still complete rounds within a sane factor
    assert evaluation.mean < 5 * fifo.mean


def test_rollout_buffer_does_not_reach_the_live_session(rl_setup):
    """Stored transitions hold arrays only: a buffer (or a PPG/IQ-PPO aux buffer
    that outlives many rollouts) must not keep whole engine sessions alive."""
    policy, env, config = rl_setup
    buffer = PPOTrainer(policy, env, config.ppo, seed=0).collect_rollouts(1)
    frontier = [t.snapshot for t in buffer.transitions()]
    assert frontier and env.session is not None
    seen: set[int] = set()
    while frontier:
        obj = frontier.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        frontier.extend(gc.get_referents(obj))
    assert id(env.session) not in seen
