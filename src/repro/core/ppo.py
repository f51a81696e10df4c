"""Proximal Policy Optimisation trainer (the backbone of Section III-B).

:class:`PPOTrainer` is the base on-policy trainer: it collects complete
scheduling episodes from a :class:`repro.core.env.SchedulingEnv`, computes
GAE advantages, and optimises the clipped surrogate objective plus a value
loss and an entropy bonus.  PPG and IQ-PPO subclass it and add their
respective auxiliary phases.

With ``PPOConfig.num_envs > 1`` the trainer switches to the vectorized
execution spine: rollouts are collected from a
:class:`~repro.core.vecenv.VectorSchedulingEnv` stepping N sessions in
lockstep with one batched policy forward per decision round, and the PPO
update evaluates each minibatch with a single stacked forward/backward
instead of one encoder pass per transition.  ``num_envs=1`` keeps the
sequential per-transition updates; its rollouts sample through the same
tape-free forward as the lock-step collector, one snapshot at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..config import PPOConfig
from ..nn import Adam, Tensor, chained_sum, clip_grad_norm, concatenate, fastgrad, where
from ..timing import SectionTimers
from .env import SchedulingEnv
from .policy import ActorCriticNetwork
from .rollout import RolloutBuffer, Transition
from .types import StrategyEvaluation
from .vecenv import VectorSchedulingEnv

__all__ = ["PPOTrainer", "TrainingHistory"]


@dataclass
class TrainingHistory:
    """Per-update learning curves, used by the ablation figure (Figure 7)."""

    steps: list[int] = field(default_factory=list)
    train_rewards: list[float] = field(default_factory=list)
    train_makespans: list[float] = field(default_factory=list)
    eval_makespans: list[float] = field(default_factory=list)
    policy_losses: list[float] = field(default_factory=list)
    value_losses: list[float] = field(default_factory=list)
    aux_losses: list[float] = field(default_factory=list)

    def best_eval(self) -> float:
        return float(np.min(self.eval_makespans)) if self.eval_makespans else float("nan")


class PPOTrainer:
    """Plain PPO over the scheduling environment."""

    algorithm = "ppo"

    def __init__(
        self,
        policy: ActorCriticNetwork,
        plan_embeddings: np.ndarray,
        env: SchedulingEnv,
        config: PPOConfig,
        seed: int = 0,
        eval_env: SchedulingEnv | None = None,
        training_path: str = "tape",
    ) -> None:
        self.policy = policy
        self.plan_embeddings = plan_embeddings
        self.env = env
        self.eval_env = eval_env or env
        self.config = config
        if training_path not in ("tape", "fused"):
            raise ValueError(f"training_path must be 'tape' or 'fused', got {training_path!r}")
        #: ``"tape"`` runs updates through the autograd tape; ``"fused"``
        #: uses the tape-free analytic kernels in :mod:`repro.nn.fastgrad`
        #: (batched spine only), falling back audibly when unsupported.
        self.training_path = training_path
        self._fused_checked = False
        self._fused_reason: str | None = None
        self._arena: fastgrad.Arena | None = None
        self.rng = np.random.default_rng(seed)
        self.optimizer = Adam(policy.parameters(), lr=config.learning_rate)
        self.history = TrainingHistory()
        self.num_envs = max(1, config.num_envs)
        self.vec_env = VectorSchedulingEnv.from_template(env, self.num_envs) if self.num_envs > 1 else None
        self._total_steps = 0
        self._updates_since_aux = 0
        self._round_counter = 0
        #: Wall-clock breakdown of training phases ("rollout", "update",
        #: "aux", plus the nested "optimizer" slice of each update).
        self.timers = SectionTimers()

    def _use_fused_updates(self) -> bool:
        """Whether this update should run the fused training path.

        First call resolves the support gate; an unsupported configuration
        warns once (``RuntimeWarning`` naming the reason, in the style of
        ``fastinfer.why_slow``) and every later call falls back silently.
        """
        if self.training_path != "fused":
            return False
        if not self._fused_checked:
            self._fused_checked = True
            self._fused_reason = fastgrad.fused_training_reason(
                self.policy, clusters=self.env.clusters
            )
            if self._fused_reason is not None:
                warnings.warn(
                    f"training_path='fused' falling back to the tape: {self._fused_reason}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                self._arena = fastgrad.Arena()
        return self._fused_reason is None

    @property
    def vectorized(self) -> bool:
        """Whether rollouts and updates use the batched execution spine."""
        return self.num_envs > 1

    # ------------------------------------------------------------------ #
    # Rollout collection
    # ------------------------------------------------------------------ #
    def collect_rollouts(self, num_episodes: int) -> RolloutBuffer:
        """Sample ``num_episodes`` complete scheduling rounds with the current policy.

        Dispatches to the vectorized collector when ``num_envs > 1``; the
        sequential path below samples one snapshot at a time.
        """
        if self.vectorized:
            return self._collect_rollouts_vectorized(num_episodes)
        buffer = RolloutBuffer(gamma=self.config.gamma, gae_lambda=self.config.gae_lambda)
        clusters = self.env.clusters
        for _ in range(num_episodes):
            snapshot = self.env.reset(round_id=self._round_counter)
            self._round_counter += 1
            done = False
            while not done:
                mask = self.env.action_mask()
                decision = self.policy.act(
                    self.plan_embeddings,
                    snapshot,
                    mask,
                    self.rng,
                    greedy=False,
                    clusters=clusters,
                )
                step = self.env.step(decision.action)
                buffer.add(
                    Transition(
                        snapshot=snapshot,
                        action=decision.action,
                        log_prob=decision.log_prob,
                        value=decision.value,
                        reward=step.reward,
                        done=step.done,
                        mask=mask,
                        time=snapshot.time,
                    )
                )
                snapshot = step.snapshot
                done = step.done
                self._total_steps += 1
            result = self.env.result()
            buffer.finish_episode(result.round_log, result.makespan)
        return buffer

    def _collect_rollouts_vectorized(self, num_episodes: int) -> RolloutBuffer:
        """Collect ``num_episodes`` episodes from N lockstep environments.

        Every decision round runs ONE batched policy forward over the active
        sub-envs' snapshots and stacked action masks; finished sub-envs are
        re-seeded with the next episode until the budget is exhausted, then
        drop out of the lockstep batch.
        """
        buffer = RolloutBuffer(gamma=self.config.gamma, gae_lambda=self.config.gae_lambda)
        vec = self.vec_env
        clusters = vec.clusters
        snapshots: dict[int, object] = {}
        active: list[int] = []
        episodes_started = 0
        for index in range(min(vec.num_envs, num_episodes)):
            snapshots[index] = vec.reset_at(index, round_id=self._round_counter)
            self._round_counter += 1
            episodes_started += 1
            active.append(index)
        while active:
            masks = vec.masks_for(active)
            batch_snapshots = [snapshots[i] for i in active]
            decisions = self.policy.act_batch(
                self.plan_embeddings,
                batch_snapshots,
                masks,
                self.rng,
                greedy=False,
                clusters=clusters,
            )
            steps = vec.step_many(active, [d.action for d in decisions])
            still_active: list[int] = []
            for slot, index in enumerate(active):
                decision, step = decisions[slot], steps[slot]
                buffer.add(
                    Transition(
                        snapshot=batch_snapshots[slot],
                        action=decision.action,
                        log_prob=decision.log_prob,
                        value=decision.value,
                        reward=step.reward,
                        done=step.done,
                        mask=masks[slot].copy(),
                        time=batch_snapshots[slot].time,
                    ),
                    env_index=index,
                )
                self._total_steps += 1
                if step.done:
                    result = vec.result_at(index)
                    buffer.finish_episode(result.round_log, result.makespan, env_index=index)
                    if episodes_started < num_episodes:
                        snapshots[index] = vec.reset_at(index, round_id=self._round_counter)
                        self._round_counter += 1
                        episodes_started += 1
                        still_active.append(index)
                else:
                    snapshots[index] = step.snapshot
                    still_active.append(index)
            active = still_active
        return buffer

    # ------------------------------------------------------------------ #
    # Optimisation
    # ------------------------------------------------------------------ #
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        """One PPO update over the collected buffer.

        Vectorized trainers evaluate each minibatch with a single stacked
        forward/backward; the sequential path below (``num_envs=1``) is the
        original per-transition implementation.
        """
        if self.vectorized:
            return self._update_batched(buffer)
        if self.training_path == "fused" and not self._fused_checked:
            self._fused_checked = True
            self._fused_reason = "sequential (num_envs=1) updates always use the tape path"
            warnings.warn(
                f"training_path='fused' falling back to the tape: {self._fused_reason}",
                RuntimeWarning,
                stacklevel=2,
            )
        buffer.normalized_advantages()
        clusters = self.env.clusters
        policy_losses, value_losses = [], []
        for _ in range(self.config.epochs_per_update):
            batch = buffer.sample(self.config.minibatch_size, self.rng)
            losses = []
            for transition in batch:
                log_prob, entropy, value, _ = self.policy.evaluate_action(
                    self.plan_embeddings,
                    transition.snapshot,
                    transition.action,
                    transition.mask,
                    clusters=clusters,
                )
                ratio = (log_prob - transition.log_prob).exp()
                advantage = transition.advantage
                surrogate1 = ratio * advantage
                surrogate2 = ratio.clip(1.0 - self.config.clip_epsilon, 1.0 + self.config.clip_epsilon) * advantage
                # -min(s1, s2) expressed as max(-s1, -s2) so the tape stays simple.
                clip_term = concatenate(
                    [(surrogate1 * -1.0).reshape(1), (surrogate2 * -1.0).reshape(1)], axis=0
                ).max()
                value_error = value.reshape(1) - Tensor(np.array([transition.value_target]))
                value_loss = (value_error * value_error).sum() * 0.5
                loss = clip_term + self.config.value_coef * value_loss - self.config.entropy_coef * entropy
                losses.append(loss)
                policy_losses.append(float(clip_term.data))
                value_losses.append(float(value_loss.data))
            # One tape node for the whole minibatch mean; the sequential
            # accumulation order inside chained_sum keeps the result (and the
            # backward) bit-identical to the historical per-element chain.
            total = chained_sum(losses) * (1.0 / len(losses))
            self.optimizer.zero_grad()
            total.backward()
            with self.timers.section("optimizer"):
                clip_grad_norm(self.policy.parameters(), self.config.max_grad_norm)
                self.optimizer.step()
        return {
            "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
            "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
        }

    def _update_batched(self, buffer: RolloutBuffer) -> dict[str, float]:
        """One PPO update where every minibatch is a single batched forward.

        Computes the same per-sample clipped-surrogate, value and entropy
        terms as the sequential path, but over ``(batch, ...)`` tensors: the
        encoder runs once per minibatch instead of once per transition.
        """
        buffer.normalized_advantages()
        clusters = self.env.clusters
        use_fused = self._use_fused_updates()
        policy_losses, value_losses = [], []
        for _ in range(self.config.epochs_per_update):
            batch = buffer.sample(self.config.minibatch_size, self.rng)
            snapshots = [t.snapshot for t in batch]
            actions = np.array([t.action for t in batch], dtype=np.int64)
            masks = np.stack([t.mask for t in batch], axis=0)
            if use_fused:
                self.optimizer.zero_grad()
                policy_loss_value, value_loss_value = fastgrad.ppo_minibatch_step(
                    self.policy,
                    self.plan_embeddings,
                    snapshots,
                    actions,
                    masks,
                    old_log_probs=np.array([t.log_prob for t in batch]),
                    advantages=np.array([t.advantage for t in batch]),
                    value_targets=np.array([t.value_target for t in batch]),
                    clip_epsilon=self.config.clip_epsilon,
                    value_coef=self.config.value_coef,
                    entropy_coef=self.config.entropy_coef,
                    arena=self._arena,
                )
                with self.timers.section("optimizer"):
                    clip_grad_norm(self.policy.parameters(), self.config.max_grad_norm)
                    self.optimizer.step()
                self._arena.reset()
                policy_losses.append(policy_loss_value)
                value_losses.append(value_loss_value)
                continue
            old_log_probs = Tensor(np.array([t.log_prob for t in batch]))
            advantages = Tensor(np.array([t.advantage for t in batch]))
            value_targets = Tensor(np.array([t.value_target for t in batch]))
            log_probs, entropies, values, _ = self.policy.evaluate_actions_batch(
                self.plan_embeddings, snapshots, actions, masks, clusters=clusters
            )
            ratio = (log_probs - old_log_probs).exp()
            surrogate1 = ratio * advantages
            surrogate2 = ratio.clip(1.0 - self.config.clip_epsilon, 1.0 + self.config.clip_epsilon) * advantages
            clipped = where(surrogate1.data <= surrogate2.data, surrogate1, surrogate2)
            policy_loss = (clipped * -1.0).mean()
            value_error = values - value_targets
            value_loss = (value_error * value_error).mean() * 0.5
            entropy = entropies.mean()
            loss = policy_loss + self.config.value_coef * value_loss - self.config.entropy_coef * entropy
            self.optimizer.zero_grad()
            loss.backward()
            with self.timers.section("optimizer"):
                clip_grad_norm(self.policy.parameters(), self.config.max_grad_norm)
                self.optimizer.step()
            policy_losses.append(float(policy_loss.data))
            value_losses.append(float(value_loss.data))
        return {
            "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
            "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
        }

    def auxiliary_phase(self, buffer: RolloutBuffer) -> float:
        """Hook overridden by PPG / IQ-PPO; plain PPO has no auxiliary phase."""
        return 0.0

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def train(self, num_updates: int, eval_every: int = 2, eval_rounds: int = 1) -> TrainingHistory:
        """Alternate rollout collection and optimisation for ``num_updates`` rounds."""
        for update_index in range(num_updates):
            with self.timers.section("rollout"):
                buffer = self.collect_rollouts(self.config.rollouts_per_update)
            with self.timers.section("update"):
                losses = self.update(buffer)
            self._updates_since_aux += 1
            aux_loss = 0.0
            if self._updates_since_aux >= self.config.aux_every:
                with self.timers.section("aux"):
                    aux_loss = self.auxiliary_phase(buffer)
                self._updates_since_aux = 0
            self.history.steps.append(self._total_steps)
            self.history.train_rewards.append(float(np.mean(buffer.episode_rewards())))
            self.history.train_makespans.append(float(np.mean(buffer.episode_makespans())))
            self.history.policy_losses.append(losses["policy_loss"])
            self.history.value_losses.append(losses["value_loss"])
            self.history.aux_losses.append(aux_loss)
            if eval_every and (update_index + 1) % eval_every == 0:
                evaluation = self.evaluate(rounds=eval_rounds, greedy=True)
                self.history.eval_makespans.append(evaluation.mean)
        return self.history

    def evaluate(self, rounds: int = 5, greedy: bool = True, base_round_id: int = 10_000) -> StrategyEvaluation:
        """Run the current policy for ``rounds`` evaluation rounds."""
        clusters = self.eval_env.clusters
        evaluation = StrategyEvaluation(strategy=self.algorithm)
        for offset in range(rounds):
            snapshot = self.eval_env.reset(round_id=base_round_id + offset)
            done = False
            while not done:
                mask = self.eval_env.action_mask()
                decision = self.policy.act(
                    self.plan_embeddings,
                    snapshot,
                    mask,
                    self.rng,
                    greedy=greedy,
                    clusters=clusters,
                )
                step = self.eval_env.step(decision.action)
                snapshot = step.snapshot
                done = step.done
            evaluation.add(self.eval_env.result().makespan)
        return evaluation

    # ------------------------------------------------------------------ #
    # Shared auxiliary utilities
    # ------------------------------------------------------------------ #
    def _snapshot_old_policy(self, transitions: list[Transition]) -> list[np.ndarray]:
        """Log-probabilities of the current policy before an auxiliary phase starts.

        The auxiliary objectives of PPG and IQ-PPO include a behaviour-cloning
        term ``KL(π_old || π_new)``; π_old is the policy at the moment the
        auxiliary phase begins (Algorithm 1, line 6).
        """
        from ..nn import no_grad

        clusters = self.env.clusters
        if self.vectorized:
            with no_grad():
                _, _, _, log_probs = self.policy.evaluate_actions_batch(
                    self.plan_embeddings,
                    [t.snapshot for t in transitions],
                    np.array([t.action for t in transitions], dtype=np.int64),
                    np.stack([t.mask for t in transitions], axis=0),
                    clusters=clusters,
                )
            return [np.array(row, copy=True) for row in log_probs.data]
        snapshots: list[np.ndarray] = []
        with no_grad():
            for transition in transitions:
                _, _, _, log_probs = self.policy.evaluate_action(
                    self.plan_embeddings,
                    transition.snapshot,
                    transition.action,
                    transition.mask,
                    clusters=clusters,
                )
                snapshots.append(np.array(log_probs.data, copy=True))
        return snapshots
