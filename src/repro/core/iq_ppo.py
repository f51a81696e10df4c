"""IQ-PPO: auxiliary-task-enhanced PPO (Algorithm 1 of the paper).

Batch query scheduling gives the agent only one sparse makespan signal per
episode, but the execution log contains one completion signal per query.
IQ-PPO exploits them: every few PPO iterations it runs an *auxiliary phase*
that trains the shared state representation to predict, for each stored
decision state, the remaining time of the earliest-finishing concurrent
query, while a behaviour-cloning KL term keeps the policy from drifting.
"""

from __future__ import annotations

import numpy as np

from ..config import TIME_SCALE
from ..nn import fastgrad
from .ppo import PPOTrainer
from .rollout import RolloutBuffer

__all__ = ["IQPPOTrainer"]


class IQPPOTrainer(PPOTrainer):
    """PPO plus the individual-query-completion auxiliary phase."""

    algorithm = "iq-ppo"

    def auxiliary_phase(self, buffer: RolloutBuffer) -> float:
        """Optimise L_joint = L_aux + beta_clone * KL(pi_old || pi_new), one stacked step per epoch."""
        self._require_transitions(buffer, "auxiliary_phase()")
        transitions = buffer.sample_with_aux(self.config.minibatch_size, self.rng)
        if not transitions:
            return 0.0
        snapshots, masks = self._stack(transitions)
        old_log_probs = self._snapshot_old_policy(snapshots, masks)
        query_ids = np.array([t.aux_query_id for t in transitions], dtype=np.int64)
        time_targets = np.array([t.aux_target / TIME_SCALE for t in transitions])
        return self._auxiliary_epochs(
            lambda: fastgrad.iq_ppo_aux_step(
                self.policy,
                self.env.plan_embeddings,
                snapshots,
                query_ids,
                masks,
                old_log_probs=old_log_probs,
                time_targets=time_targets,
                beta_clone=self.config.beta_clone,
                arena=self.arena,
                clusters=self.env.clusters,
            )
        )
