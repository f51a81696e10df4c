"""Tests for the vectorized rollout engine and batched policy training.

Covers the four layers of the vectorized execution spine:

* ``VectorSchedulingEnv`` (lockstep stepping, stacked action masks);
* batched state encoding and batched policy forwards vs their scalar twins;
* ``RolloutBuffer`` interleaved-episode bookkeeping and GAE;
* ``PPOTrainer`` rollouts and updates — the lock-step collector at
  ``num_envs=1`` must stay bit-identical to the sequential loop kept here as
  the oracle, and the update must not depend on the collection width.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.config import PPOConfig
from repro.core import (
    BQSched,
    IQPPOTrainer,
    LSchedScheduler,
    PPGTrainer,
    PPOTrainer,
    RolloutBuffer,
    Transition,
    VectorSchedulingEnv,
)
from repro.dbms import Cluster, QueryExecutionRecord, RoundLog, RunningParameters
from repro.core.policy import DECISION_KERNEL
from repro.exceptions import SchedulingError
from repro.nn import fastinfer, no_grad
from repro.runtime import ExecutionRuntime
from simulator_oracle import tape_forward
from snapshot_oracle import snapshot_arrays


def in_flight(buffer) -> int:
    """Number of episodes the buffer is still collecting (one per env with open transitions)."""
    return sum(1 for transitions in buffer._current.values() if transitions)


@pytest.fixture(scope="module")
def sim_setup():
    """A small BQSched instance with a trained simulator backend."""
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    config.ppo = PPOConfig(
        rollouts_per_update=4, epochs_per_update=2, minibatch_size=16, aux_every=1, aux_epochs=1
    )
    scheduler = BQSched(workload, engine, config)
    scheduler.prepare(history_rounds=2)
    return scheduler


@pytest.fixture()
def sim_env(sim_setup):
    return sim_setup._build_env(backend=sim_setup.simulator)


#: Workload rows of the width-1 parity table: ``make_workload`` arguments and the
#: fleet (``None`` for a single engine).  TPC-H n=22, TPC-DS n=99, TPC-DS n=158
#: (which turns gain clustering on by itself) and TPC-H on a three-instance fleet.
PARITY_WORKLOADS = {
    "h22": ({"benchmark": "tpch"}, None),
    "ds99": ({"benchmark": "tpcds"}, None),
    "ds158c": ({"benchmark": "tpcds", "query_scale": 1.6}, None),
    "fleet": ({"benchmark": "tpch"}, ("x", "x", "z")),
}


@pytest.fixture(scope="module")
def parity_scheduler():
    """Prepared schedulers for :data:`PARITY_WORKLOADS`, built once per row."""
    built: dict[str, BQSched] = {}

    def get(name: str) -> BQSched:
        if name not in built:
            arguments, fleet = PARITY_WORKLOADS[name]
            workload = make_workload(scale_factor=1.0, seed=0, **arguments)
            engine = Cluster.from_names(list(fleet), seed=0) if fleet else DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
            config = BQSchedConfig.small(seed=0)
            config.simulator.epochs = 2
            built[name] = BQSched(workload, engine, config).prepare(history_rounds=2)
        return built[name]

    return get


# --------------------------------------------------------------------- #
# VectorSchedulingEnv
# --------------------------------------------------------------------- #
class TestVectorSchedulingEnv:
    def test_from_template_clones_components(self, sim_setup, sim_env):
        vec = VectorSchedulingEnv.from_template(sim_env, 3)
        assert vec.num_envs == 3
        assert vec.action_dim == sim_env.action_dim
        assert all(env.batch is sim_env.batch for env in vec.envs)
        assert all(env.backend is sim_env.backend for env in vec.envs)
        assert len({id(env) for env in vec.envs}) == 3
        assert vec.envs[0] is sim_env  # the template itself, then its clones

    def test_rejects_empty_and_bad_counts(self, sim_env):
        with pytest.raises(SchedulingError):
            VectorSchedulingEnv([])
        with pytest.raises(SchedulingError):
            VectorSchedulingEnv.from_template(sim_env, 0)

    def test_mask_stacking_matches_sub_envs(self, sim_env):
        vec = VectorSchedulingEnv.from_template(sim_env, 4)
        for index in range(4):
            vec.reset_at(index, round_id=index)
        masks = vec.masks_for()
        assert masks.shape == (4, sim_env.action_dim)
        assert masks.dtype == bool
        for index, env in enumerate(vec.envs):
            np.testing.assert_array_equal(masks[index], env.action_mask())
        # Desynchronise env 1 and re-stack a subset: rows must track each
        # env's own pending set.
        action = int(np.flatnonzero(masks[1])[0])
        vec.envs[1].step(action)
        subset = vec.masks_for([1, 3])
        np.testing.assert_array_equal(subset[0], vec.envs[1].action_mask())
        np.testing.assert_array_equal(subset[1], vec.envs[3].action_mask())
        assert not np.array_equal(subset[0], masks[1])

    @pytest.mark.parametrize("fleet", [False, True], ids=["engine", "fleet3"])
    def test_lockstep_steps_match_sequential_steps(self, sim_setup, parity_scheduler, monkeypatch, fleet):
        """The batched-advance lockstep path reproduces per-env stepping exactly,
        on the single-engine simulator and on a fault-free three-instance one."""
        scheduler = parity_scheduler("fleet") if fleet else sim_setup
        assert scheduler.simulator.num_instances == (3 if fleet else 1)
        env = scheduler._build_env(backend=scheduler.simulator)
        model = scheduler.simulator.perf.model
        batched_calls = []

        def counting(features, _predict=model.predict):
            if features.ndim == 3:
                batched_calls.append(features.shape)
            return _predict(features)

        monkeypatch.setattr(model, "predict", counting)
        vec = VectorSchedulingEnv.from_template(env, 2)
        seq = VectorSchedulingEnv.from_template(env.clone(), 2)  # shares no env with ``vec``
        for index, round_id in enumerate([7, 8]):
            vec.reset_at(index, round_id=round_id)
            seq.reset_at(index, round_id=round_id)
        assert all(sub.session.supports_lockstep for sub in vec.envs)
        rng = np.random.default_rng(0)
        active = [0, 1]
        while active:
            masks = vec.masks_for(active)
            actions = [int(rng.choice(np.flatnonzero(mask))) for mask in masks]
            batched = vec.step_many(active, actions)
            sequential = [seq.envs[i].step(a) for i, a in zip(active, actions)]
            for b, s in zip(batched, sequential):
                assert (b.reward, b.snapshot.time, b.done) == (s.reward, s.snapshot.time, s.done)
            active = [i for i, step in zip(active, batched) if not step.done]
        assert batched_calls, "the lockstep path never ran a batched prediction"
        for index in range(2):
            assert vec.result_at(index).makespan == seq.result_at(index).makespan
        if fleet:
            placed = {record.instance for record in vec.result_at(0).round_log.records}
            assert len(placed) > 1

    def test_step_many_validates_alignment(self, sim_env):
        vec = VectorSchedulingEnv.from_template(sim_env, 2)
        for index in range(2):
            vec.reset_at(index)
        with pytest.raises(SchedulingError):
            vec.step_many([0, 1], [0])


# --------------------------------------------------------------------- #
# Batched encoder / policy forwards
# --------------------------------------------------------------------- #
class TestBatchedPolicyForwards:
    def _snapshots(self, env, rng, count=4):
        snapshots, masks = [], []
        snapshot = env.reset(round_id=50)
        for _ in range(count):
            mask = env.action_mask()
            snapshots.append(snapshot)
            masks.append(mask)
            snapshot = env.step(int(rng.choice(np.flatnonzero(mask)))).snapshot
        return snapshots, np.stack(masks)

    def test_encode_batch_matches_scalar_forward(self, sim_setup, sim_env):
        rng = np.random.default_rng(1)
        snapshots, _ = self._snapshots(sim_env, rng)
        encoder = sim_setup.state_encoder
        with no_grad():
            batched = encoder.encode_batch(sim_setup.plan_embeddings, snapshots)
            for index, snapshot in enumerate(snapshots):
                scalar = encoder(sim_setup.plan_embeddings, snapshot)
                np.testing.assert_allclose(batched.per_query.data[index], scalar.per_query.data, atol=1e-10)
                np.testing.assert_allclose(batched.global_state.data[index], scalar.global_state.data, atol=1e-10)

    def test_evaluate_actions_batch_matches_scalar(self, sim_setup, sim_env):
        rng = np.random.default_rng(2)
        snapshots, masks = self._snapshots(sim_env, rng)
        policy = sim_setup.policy
        actions = np.array([int(np.flatnonzero(m)[0]) for m in masks])
        with no_grad():
            log_probs, entropies, values, full = policy.evaluate_actions_batch(
                sim_setup.plan_embeddings, snapshots, actions, masks
            )
            for index, snapshot in enumerate(snapshots):
                lp, ent, val, row = policy.evaluate_action(
                    sim_setup.plan_embeddings, snapshot, int(actions[index]), masks[index]
                )
                assert float(log_probs.data[index]) == pytest.approx(float(lp.data), abs=1e-10)
                assert float(entropies.data[index]) == pytest.approx(float(ent.data), abs=1e-10)
                assert float(values.data[index]) == pytest.approx(float(val.data[0]), abs=1e-10)
                np.testing.assert_allclose(full.data[index], row.data, atol=1e-10)

    def test_act_batch_matches_scalar_act(self, sim_setup, sim_env):
        """Stacked rows must agree with the same kernel run one snapshot at a time: one draw per row
        from the same uniforms, and the same greedy action."""
        rng = np.random.default_rng(3)
        snapshots, masks = self._snapshots(sim_env, rng)
        policy = sim_setup.policy
        batched = policy.act_batch(sim_setup.plan_embeddings, snapshots, masks, np.random.default_rng(0))
        per_query, global_input = DECISION_KERNEL.encode_batch(policy.state_encoder, sim_setup.plan_embeddings, snapshots)
        greedy = fastinfer.masked_argmax(policy.heads_arrays(per_query, global_input, snapshots)[0], masks)
        scalar_rng = np.random.default_rng(0)  # B one-row draws consume what one B-row draw does
        for index, snapshot in enumerate(snapshots):
            scalar = policy.act(sim_setup.plan_embeddings, snapshot, masks[index], scalar_rng)
            assert policy.greedy_action(sim_setup.plan_embeddings, snapshot, masks[index]) == greedy[index]
            assert batched[index].action == scalar.action
            assert batched[index].log_prob == pytest.approx(scalar.log_prob, abs=1e-4)
            assert batched[index].value == pytest.approx(scalar.value, abs=1e-3)

    def test_act_batch_respects_masks(self, sim_setup, sim_env):
        rng = np.random.default_rng(4)
        snapshots, masks = self._snapshots(sim_env, rng)
        constrained = np.zeros_like(masks)
        allowed = [int(np.flatnonzero(m)[-1]) for m in masks]
        for row, action in enumerate(allowed):
            constrained[row, action] = True
        decisions = sim_setup.policy.act_batch(
            sim_setup.plan_embeddings, snapshots, constrained, np.random.default_rng(0)
        )
        assert [d.action for d in decisions] == allowed

    def test_gradients_flow_through_batched_evaluation(self, sim_setup, sim_env):
        rng = np.random.default_rng(5)
        snapshots, masks = self._snapshots(sim_env, rng)
        policy = sim_setup.policy
        actions = np.array([int(np.flatnonzero(m)[0]) for m in masks])
        log_probs, entropies, values, _ = policy.evaluate_actions_batch(
            sim_setup.plan_embeddings, snapshots, actions, masks
        )
        loss = (log_probs * -1.0).mean() + (values * values).mean() - entropies.mean() * 0.01
        policy.zero_grad()
        loss.backward()
        assert any(p.grad is not None and np.abs(p.grad).max() > 0 for p in policy.parameters())


# --------------------------------------------------------------------- #
# RolloutBuffer interleaved episodes
# --------------------------------------------------------------------- #
class TestInterleavedRolloutBuffer:
    def _transition(self, step, done):
        return Transition(
            snapshot=snapshot_arrays([1, 1, 1], time=float(step), elapsed=0.1, expected_time=1.0),
            action=step,
            log_prob=-1.0,
            value=0.25 * step,
            reward=-1.0 - 0.1 * step,
            done=done,
            mask=np.ones(12, dtype=bool),
            time=float(step),
        )

    def _round_log(self):
        log = RoundLog(round_id=0)
        for i in range(3):
            log.add(
                QueryExecutionRecord(
                    query_id=i, query_name=f"q{i}", template_id=i, connection=0,
                    parameters=RunningParameters(1, 64), submit_time=0.0, finish_time=10.0 + i,
                )
            )
        return log

    def test_interleaved_episodes_match_sequential_gae(self):
        steps_a = [self._transition(s, s == 3) for s in range(4)]
        steps_b = [self._transition(s, s == 2) for s in range(3)]

        interleaved = RolloutBuffer()
        for transition in steps_a[:2]:
            interleaved.add(copy.deepcopy(transition), env_index=0)
        for transition in steps_b[:2]:
            interleaved.add(copy.deepcopy(transition), env_index=1)
        interleaved.add(copy.deepcopy(steps_b[2]), env_index=1)
        interleaved.finish_episode(self._round_log(), makespan=12.0, env_index=1)
        for transition in steps_a[2:]:
            interleaved.add(copy.deepcopy(transition), env_index=0)
        interleaved.finish_episode(self._round_log(), makespan=13.0, env_index=0)

        sequential = RolloutBuffer()
        for transition in steps_b:
            sequential.add(copy.deepcopy(transition))
        sequential.finish_episode(self._round_log(), makespan=12.0)
        for transition in steps_a:
            sequential.add(copy.deepcopy(transition))
        sequential.finish_episode(self._round_log(), makespan=13.0)

        assert len(interleaved) == len(sequential) == 7
        inter = {(len(e.transitions), e.makespan): e for e in interleaved.episodes}
        for episode in sequential.episodes:
            twin = inter[(len(episode.transitions), episode.makespan)]
            for a, b in zip(episode.transitions, twin.transitions):
                assert a.advantage == pytest.approx(b.advantage)
                assert a.value_target == pytest.approx(b.value_target)
                assert a.aux_query_id == b.aux_query_id
                assert a.aux_target == pytest.approx(b.aux_target)

    def test_in_flight_bookkeeping(self):
        buffer = RolloutBuffer()
        buffer.add(self._transition(0, False), env_index=0)
        buffer.add(self._transition(0, False), env_index=2)
        assert in_flight(buffer) == 2
        buffer.add(self._transition(1, True), env_index=0)
        buffer.finish_episode(self._round_log(), makespan=5.0, env_index=0)
        assert in_flight(buffer) == 1
        assert len(buffer.episodes) == 1

    def test_finish_episode_requires_transitions(self):
        buffer = RolloutBuffer()
        buffer.add(self._transition(0, True), env_index=1)
        with pytest.raises(SchedulingError):
            buffer.finish_episode(self._round_log(), makespan=1.0, env_index=0)


# --------------------------------------------------------------------- #
# Trainer parity
# --------------------------------------------------------------------- #
class TestTrainerParity:
    def _legacy_collect(self, trainer, num_episodes):
        """The sequential one-snapshot-at-a-time collector, kept as the oracle
        the lock-step collector at width 1 is compared against."""
        buffer = RolloutBuffer()
        clusters = trainer.env.clusters
        for _ in range(num_episodes):
            snapshot = trainer.env.reset(round_id=trainer._round_counter)
            trainer._round_counter += 1
            done = False
            while not done:
                mask = trainer.env.action_mask()
                decision = trainer.policy.act(
                    trainer.env.plan_embeddings, snapshot, mask, trainer.rng, clusters=clusters
                )
                step = trainer.env.step(decision.action)
                buffer.add(
                    Transition(
                        snapshot=snapshot, action=decision.action, log_prob=decision.log_prob,
                        value=decision.value, reward=step.reward, done=step.done, mask=mask,
                        time=snapshot.time,
                    )
                )
                snapshot = step.snapshot
                done = step.done
            result = trainer.env.result()
            buffer.finish_episode(result.round_log, result.makespan)
        return buffer

    def _make_trainer(self, scheduler, env, num_envs):
        config = copy.deepcopy(scheduler.config.ppo)
        config.num_envs = num_envs
        return PPOTrainer(
            policy=scheduler.policy,
            env=env,
            config=config,
            seed=scheduler.config.seed,
        )

    @pytest.mark.parametrize("backend", ["engine", "simulator"], ids=["eng", "sim"])
    @pytest.mark.parametrize("workload", list(PARITY_WORKLOADS))
    def test_num_envs_1_is_bit_identical_to_legacy_loop(self, parity_scheduler, workload, backend):
        """The lock-step collector at width 1 against the sequential oracle, on every
        backend the facade can build (fleet: ``Cluster`` / ``SimulatedCluster``)."""
        scheduler = parity_scheduler(workload)
        assert (scheduler.clusters is not None) == (workload == "ds158c")
        target = scheduler.engine if backend == "engine" else scheduler.simulator
        new_path = self._make_trainer(scheduler, scheduler._build_env(backend=target), num_envs=1)
        legacy = self._make_trainer(scheduler, scheduler._build_env(backend=target), num_envs=1)
        assert new_path.vec_env.num_envs == 1 and new_path.vec_env.envs[0] is new_path.env
        got = new_path.collect_rollouts(3)
        expected = self._legacy_collect(legacy, 3)
        assert len(got) == len(expected) > 0
        assert got.episode_makespans() == expected.episode_makespans()
        for a, b in zip(got.transitions(), expected.transitions()):
            assert a.action == b.action
            assert a.log_prob == b.log_prob
            assert a.value == b.value
            assert a.reward == b.reward
            assert a.advantage == b.advantage
            assert a.value_target == b.value_target
            assert a.aux_query_id == b.aux_query_id
            assert a.aux_target == b.aux_target
            assert a.time == b.time
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_num_envs_1_trains_on_a_runtime_tenant_and_wider_refuses(self, sim_setup):
        """Width 1 holds the trainer's own env, so a tenant-bound env collects;
        any wider needs clones, which would fight over the tenant's round."""
        def tenant_env():
            tenant = ExecutionRuntime(sim_setup.engine).register("solo", sim_setup.batch)
            return sim_setup._build_env(backend=tenant)

        trainer = self._make_trainer(sim_setup, tenant_env(), num_envs=1)
        buffer = trainer.collect_rollouts(2)
        assert len(buffer.episodes) == 2 and len(buffer) == 2 * len(sim_setup.batch)
        with pytest.raises(SchedulingError, match="shared runtime tenant"):
            self._make_trainer(sim_setup, tenant_env(), num_envs=2)

    def test_batched_update_matches_scalar_update(self, sim_setup, sim_env):
        scalar_trainer = self._make_trainer(sim_setup, sim_env, num_envs=1)
        buffer = scalar_trainer.collect_rollouts(2)
        state = sim_setup.policy.state_dict()

        scalar_trainer.rng = np.random.default_rng(123)  # identical minibatch draws
        scalar_losses = scalar_trainer.update(copy.deepcopy(buffer))
        scalar_params = sim_setup.policy.state_dict()

        sim_setup.policy.load_state_dict(state)
        batched_trainer = self._make_trainer(sim_setup, sim_env, num_envs=2)
        batched_trainer.rng = np.random.default_rng(123)
        batched_losses = batched_trainer.update(copy.deepcopy(buffer))
        batched_params = sim_setup.policy.state_dict()
        sim_setup.policy.load_state_dict(state)

        assert batched_losses["policy_loss"] == pytest.approx(scalar_losses["policy_loss"], abs=1e-8)
        assert batched_losses["value_loss"] == pytest.approx(scalar_losses["value_loss"], abs=1e-8)
        for name in scalar_params:
            np.testing.assert_allclose(batched_params[name], scalar_params[name], atol=1e-8)

    def test_vectorized_collection_fills_episode_budget(self, sim_setup, sim_env):
        trainer = self._make_trainer(sim_setup, sim_env, num_envs=4)
        assert trainer.vec_env.num_envs == 4 and trainer.vec_env.envs[0] is trainer.env
        for budget in (2, 4, 7):
            buffer = trainer.collect_rollouts(budget)
            assert len(buffer.episodes) == budget
            assert in_flight(buffer) == 0
            assert all(e.transitions[-1].done for e in buffer.episodes)
            assert all(e.makespan > 0 for e in buffer.episodes)

    def test_vectorized_aux_phases_run(self, sim_setup, sim_env):
        for cls in (PPGTrainer, IQPPOTrainer):
            config = copy.deepcopy(sim_setup.config.ppo)
            config.num_envs = 3
            trainer = cls(
                policy=sim_setup.policy,
                env=sim_setup._build_env(backend=sim_setup.simulator),
                config=config,
                seed=0,
            )
            buffer = trainer.collect_rollouts(3)
            loss = trainer.auxiliary_phase(buffer)
            assert np.isfinite(loss)

    def test_vectorized_training_improves_or_completes(self, sim_setup, sim_env):
        trainer = self._make_trainer(sim_setup, sim_env, num_envs=4)
        history = trainer.train(num_updates=2)
        assert len(history.train_makespans) >= 2
        assert all(np.isfinite(m) for m in history.train_makespans)


# --------------------------------------------------------------------- #
# Simulator fast inference
# --------------------------------------------------------------------- #
class TestSimulatorFastInference:
    def test_predict_bit_identical_to_forward(self, sim_setup):
        perf = sim_setup.simulator.perf
        features = perf.featurizer.rows(
            [0, 1, 2], [sim_setup.config_space.default] * 3, [0.1, 0.7, 1.3]
        )
        with no_grad():
            logits, times = tape_forward(perf.model, features)
        fast_logits, fast_times = perf.model.predict(features)
        np.testing.assert_array_equal(fast_logits, logits.data)
        np.testing.assert_array_equal(fast_times, times.data)

    def test_predict_batched_matches_predict(self, sim_setup):
        perf = sim_setup.simulator.perf
        features = perf.featurizer.rows(
            [0, 1, 2, 3], [sim_setup.config_space.default] * 4, [0.2, 0.4, 0.6, 0.8]
        )
        other = perf.featurizer.rows(
            [4, 5, 6, 7], [sim_setup.config_space.default] * 4, [1.2, 1.4, 1.6, 1.8]
        )
        logits, times = perf.model.predict(np.stack([features, other], axis=0))
        for row, feats in enumerate((features, other)):
            ref_logits, ref_times = perf.model.predict(feats)
            np.testing.assert_array_equal(logits[row], ref_logits)
            np.testing.assert_array_equal(times[row], ref_times)


# --------------------------------------------------------------------- #
# Environment round-id bookkeeping (satellite fix)
# --------------------------------------------------------------------- #
class TestResetRoundCounter:
    def test_explicit_round_id_does_not_clobber_counter(self, sim_env):
        sim_env.reset()  # auto round 0
        assert sim_env.session.log.round_id == 0
        sim_env.reset(round_id=10_000)  # evaluation round
        assert sim_env.session.log.round_id == 10_000
        sim_env.reset()  # auto-numbering continues where it left off
        assert sim_env.session.log.round_id == 1
        sim_env.reset()
        assert sim_env.session.log.round_id == 2


# --------------------------------------------------------------------- #
# Facade wiring
# --------------------------------------------------------------------- #
class TestFacadeWiring:
    def test_pretraining_uses_parallel_envs_by_default(self):
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        config.ppo.rollouts_per_update = 4
        scheduler = LSchedScheduler(workload, engine, config)
        trainer = scheduler._make_trainer(scheduler.env, num_envs=4)
        assert trainer.vec_env.num_envs == 4
        assert trainer.config.num_envs == 4
        # The facade config object itself is untouched by the override.
        assert scheduler.config.ppo.num_envs == 1

    def test_pretrain_env_count_capped_by_episode_budget(self, monkeypatch):
        """Pre-training widens to 4 lockstep envs, but there is no point spinning up
        envs that never start an episode; a wider ``num_envs`` is honoured."""
        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        config = BQSchedConfig.small(seed=0)
        config.simulator.epochs = 1
        scheduler = BQSched(workload, engine, config).prepare(history_rounds=1)
        widths = []
        make_trainer = scheduler._make_trainer

        def recording(env, num_envs=None):
            trainer = make_trainer(env, num_envs=num_envs)
            widths.append(trainer.vec_env.num_envs)
            return trainer

        monkeypatch.setattr(scheduler, "_make_trainer", recording)
        for rollouts_per_update, num_envs, expected in [(1, 1, 1), (2, 1, 2), (6, 1, 4), (6, 5, 5)]:
            scheduler.config.ppo.rollouts_per_update = rollouts_per_update
            scheduler.config.ppo.num_envs = num_envs
            widths.clear()
            scheduler.train(num_updates=0, pretrain_updates=1, keep_best=False)
            assert widths == [expected, num_envs]  # the pre-trainer, then the fine-tune trainer
