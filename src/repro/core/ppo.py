"""Proximal Policy Optimisation trainer (the backbone of Section III-B).

:class:`PPOTrainer` is the base on-policy trainer: it collects complete
scheduling episodes from a :class:`repro.core.env.SchedulingEnv`, computes
GAE advantages, and optimises the clipped surrogate objective plus a value
loss and an entropy bonus.  PPG and IQ-PPO subclass it and add their
respective auxiliary phases.  The env is the batch context: the trainer
reads its plan embeddings and clusters from ``env``, and every clone carries
them.  The trainer evaluates nothing; greedy evaluation is the scheduler's
:meth:`~repro.core.baselines.BaseScheduler.evaluate`.

``PPOConfig.num_envs`` is the width of the one rollout engine: ``env`` plus
``num_envs - 1`` clones step in lockstep as a
:class:`~repro.core.vecenv.VectorSchedulingEnv`, with one batched policy
forward per decision round (at width 1 that is ``env`` alone, and the buffer
is what a one-snapshot-at-a-time loop would collect, bit for bit).  Every
update is the stacked minibatch step of :mod:`repro.nn.fastgrad`: one
tape-free forward + analytic backward per minibatch, its temporaries drawn
from a :class:`~repro.nn.fastgrad.Arena`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import PPOConfig
from ..exceptions import ConfigurationError
from ..nn import Adam, clip_grad_norm, fastgrad
from ..timing import SectionTimers
from .env import SchedulingEnv
from .policy import ActorCriticNetwork
from .rollout import RolloutBuffer, Transition
from .vecenv import VectorSchedulingEnv

__all__ = [
    "AUX_EPOCHS",
    "BETA_CLONE",
    "CLIP_EPSILON",
    "ENTROPY_COEF",
    "LEARNING_RATE",
    "MAX_GRAD_NORM",
    "PPOTrainer",
    "TrainingHistory",
    "VALUE_COEF",
]

#: Adam step size of every policy update.
LEARNING_RATE = 3e-4
#: Half-width of the clipped surrogate's probability-ratio interval.
CLIP_EPSILON = 0.2
#: Weight of the value loss in the PPO objective.
VALUE_COEF = 0.5
#: Weight of the entropy bonus in the PPO objective.
ENTROPY_COEF = 0.01
#: Global L2 norm every update's gradient is clipped to.
MAX_GRAD_NORM = 0.5
#: Weight of the behaviour-cloning KL term of the PPG and IQ-PPO auxiliary phases.
BETA_CLONE = 1.0
#: Optimizer steps of one PPG or IQ-PPO auxiliary phase.
AUX_EPOCHS = 3


@dataclass
class TrainingHistory:
    """Per-update learning curves, used by the ablation figure (Figure 7)."""

    steps: list[int] = field(default_factory=list)
    train_rewards: list[float] = field(default_factory=list)
    train_makespans: list[float] = field(default_factory=list)
    policy_losses: list[float] = field(default_factory=list)
    value_losses: list[float] = field(default_factory=list)
    aux_losses: list[float] = field(default_factory=list)


class PPOTrainer:
    """Plain PPO over the scheduling environment."""

    algorithm = "ppo"

    def __init__(
        self,
        policy: ActorCriticNetwork,
        env: SchedulingEnv,
        config: PPOConfig,
        seed: int,
        arena: fastgrad.Arena,
    ) -> None:
        reason = fastgrad.fused_training_reason(policy)
        if reason is not None:
            raise ConfigurationError(f"the fused update kernels cannot train this policy: {reason}")
        if env.plan_embeddings is None:
            raise ConfigurationError("the training env carries no plan_embeddings for the policy to decide over")
        self.policy = policy
        self.env = env
        self.config = config
        #: Pool behind every minibatch-sized temporary of the updates.  Trainers
        #: that never update at the same time (pre-training, then fine-tuning)
        #: share one, so its buffers are paid for once.
        self.arena = arena
        self.rng = np.random.default_rng(seed)
        self.optimizer = Adam(policy.parameters(), lr=LEARNING_RATE)
        self.history = TrainingHistory()
        #: ``env`` itself plus ``num_envs - 1`` clones: the width of every rollout.
        self.vec_env = VectorSchedulingEnv.from_template(env, config.num_envs)
        self._total_steps = 0
        self._updates_since_aux = 0
        self._round_counter = 0
        #: Wall-clock breakdown of training phases ("rollout", "update",
        #: "aux", plus the nested "optimizer" slice of each update).
        self.timers = SectionTimers()

    # ------------------------------------------------------------------ #
    # Rollout collection
    # ------------------------------------------------------------------ #
    def collect_rollouts(self, num_episodes: int) -> RolloutBuffer:
        """Sample ``num_episodes`` complete scheduling rounds with the current policy.

        Every decision round runs ONE batched policy forward over the active
        sub-envs' snapshots and stacked action masks; finished sub-envs are
        re-seeded with the next episode until the budget is exhausted, then
        drop out of the lockstep batch.
        """
        buffer = RolloutBuffer()
        vec = self.vec_env
        plan_embeddings, clusters = self.env.plan_embeddings, vec.clusters
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
            decisions = self.policy.act_batch(plan_embeddings, batch_snapshots, masks, self.rng, clusters=clusters)
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
        """One PPO update: ``epochs_per_update`` stacked minibatch steps over ``buffer``."""
        self._require_transitions(buffer, "update()")
        buffer.normalized_advantages()
        policy_losses, value_losses = [], []
        for _ in range(self.config.epochs_per_update):
            batch = buffer.sample(self.config.minibatch_size, self.rng)
            snapshots, masks = self._stack(batch)
            self.optimizer.zero_grad()
            policy_loss, value_loss = fastgrad.ppo_minibatch_step(
                self.policy,
                self.env.plan_embeddings,
                snapshots,
                np.array([t.action for t in batch], dtype=np.int64),
                masks,
                old_log_probs=np.array([t.log_prob for t in batch]),
                advantages=np.array([t.advantage for t in batch]),
                value_targets=np.array([t.value_target for t in batch]),
                clip_epsilon=CLIP_EPSILON,
                value_coef=VALUE_COEF,
                entropy_coef=ENTROPY_COEF,
                arena=self.arena,
                clusters=self.env.clusters,
            )
            self._apply_gradients(policy_loss + value_loss)
            policy_losses.append(policy_loss)
            value_losses.append(value_loss)
        return {"policy_loss": float(np.mean(policy_losses)), "value_loss": float(np.mean(value_losses))}

    @staticmethod
    def _require_transitions(buffer: RolloutBuffer, caller: str) -> None:
        if len(buffer) == 0:
            raise ValueError(f"{caller} needs at least one finished episode, but the rollout buffer holds 0 transitions")

    @staticmethod
    def _stack(transitions: list[Transition]) -> tuple[list, np.ndarray]:
        """Snapshots and the stacked ``(batch, action_dim)`` masks of one minibatch."""
        masks = np.stack([t.mask for t in transitions], axis=0)
        unmasked = masks.any(axis=1)
        if not unmasked.all():
            index = int(np.argmin(unmasked))
            raise ValueError(
                f"transition {index} of the minibatch (simulated time {transitions[index].time:g}) "
                "has an all-False action mask: it allows no action to take a log-probability of"
            )
        return [t.snapshot for t in transitions], masks

    def _apply_gradients(self, loss: float) -> None:
        """Clip and apply the gradients one fused step accumulated.

        A non-finite loss or gradient norm raises before the optimizer can
        write it into the weights.
        """
        with self.timers.section("optimizer"):
            grad_norm = clip_grad_norm(self.policy.parameters(), MAX_GRAD_NORM)
            if not (np.isfinite(loss) and np.isfinite(grad_norm)):
                culprit = next(
                    (
                        name
                        for name, param in self.policy.named_parameters()
                        if param.grad is not None and not np.isfinite(param.grad).all()
                    ),
                    None,
                )
                raise FloatingPointError(
                    f"{self.algorithm} step produced loss {loss!r} and gradient norm {grad_norm!r}; "
                    f"first parameter with a non-finite gradient: {culprit}"
                )
            self.optimizer.step()

    def auxiliary_phase(self, buffer: RolloutBuffer) -> float:
        """Hook overridden by PPG / IQ-PPO; plain PPO has no auxiliary phase."""
        return 0.0

    def _auxiliary_epochs(self, step) -> float:
        """Run ``AUX_EPOCHS`` optimizer steps of ``step()`` (one fused forward + backward
        returning its loss) and return the mean loss."""
        losses = []
        for _ in range(AUX_EPOCHS):
            self.optimizer.zero_grad()
            total = step()
            self._apply_gradients(total)
            losses.append(total)
        return float(np.mean(losses))

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def train(self, num_updates: int) -> TrainingHistory:
        """Alternate rollout collection and optimisation for ``num_updates`` rounds."""
        for _ in range(num_updates):
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
        return self.history

    # ------------------------------------------------------------------ #
    # Shared auxiliary utilities
    # ------------------------------------------------------------------ #
    def _snapshot_old_policy(self, snapshots: list, masks: np.ndarray) -> np.ndarray:
        """``(batch, action_dim)`` log-probabilities of the policy before an auxiliary phase starts.

        The auxiliary objectives of PPG and IQ-PPO include a behaviour-cloning
        term ``KL(π_old || π_new)``; π_old is the policy at the moment the
        auxiliary phase begins (Algorithm 1, line 6).
        """
        return fastgrad.policy_log_probs(
            self.policy, self.env.plan_embeddings, snapshots, masks, self.arena, clusters=self.env.clusters
        )
