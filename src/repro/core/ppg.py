"""Phasic Policy Gradient (Cobbe et al., 2021) — the paper's auxiliary baseline.

PPG improves sample utilisation by re-fitting the *value* target through an
auxiliary head attached to the policy network while constraining the policy
with a behaviour-cloning KL term.  Figure 7 of the paper compares IQ-PPO
against PPG; the key difference is that PPG reuses *estimated* state values
(which may be inaccurate) whereas IQ-PPO reuses *measured* individual query
completion times.
"""

from __future__ import annotations

import numpy as np

from ..nn import fastgrad
from .ppo import BETA_CLONE, PPOTrainer
from .rollout import RolloutBuffer

__all__ = ["PPGTrainer"]


class PPGTrainer(PPOTrainer):
    """PPO plus an auxiliary value-prediction phase."""

    algorithm = "ppg"

    def auxiliary_phase(self, buffer: RolloutBuffer) -> float:
        """Fit the auxiliary head to GAE value targets on off-policy data.

        PPG's auxiliary target is the state value, predicted as the mean of
        the per-query head; each epoch is one stacked step on the per-sample
        mean of ``aux + BETA_CLONE * KL(pi_old || pi_new)``.
        """
        self._require_transitions(buffer, "auxiliary_phase()")
        transitions = buffer.sample(self.config.minibatch_size, self.rng)
        snapshots, masks = self._stack(transitions)
        old_log_probs = self._snapshot_old_policy(snapshots, masks)
        value_targets = np.array([t.value_target for t in transitions])
        return self._auxiliary_epochs(
            lambda: fastgrad.ppg_aux_step(
                self.policy,
                self.env.plan_embeddings,
                snapshots,
                masks,
                old_log_probs=old_log_probs,
                value_targets=value_targets,
                beta_clone=BETA_CLONE,
                arena=self.arena,
                clusters=self.env.clusters,
            )
        )
