"""Vectorized scheduling environment: N independent sessions in lockstep.

:class:`VectorSchedulingEnv` drives N >= 1 :class:`~repro.core.env.SchedulingEnv`
instances over the same batch query set and backend; it is what every
rollout is collected from, ``N = 1`` included.  Sub-envs share the
immutable components (batch, configuration space, knowledge, mask, clusters)
but each owns its live session, so episodes progress independently.  The
vector env exposes stacked action masks — one ``(k, action_dim)`` boolean
array per decision — which is what feeds the policy's single batched forward
pass (:meth:`ActorCriticNetwork.act_batch`) instead of N sequential ones.

Episodes finish at different step counts, so callers track the set of
*active* sub-env indices and shrink the stacked calls as sessions complete
(see :meth:`PPOTrainer.collect_rollouts`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..encoder import SnapshotArrays
from ..exceptions import SchedulingError
from .env import SchedulingEnv, StepResult
from .types import SchedulingResult

__all__ = ["VectorSchedulingEnv"]


class VectorSchedulingEnv:
    """N lockstep :class:`SchedulingEnv` instances with stacked action masks."""

    def __init__(self, envs: Sequence[SchedulingEnv]) -> None:
        if not envs:
            raise SchedulingError("VectorSchedulingEnv needs at least one sub-env")
        action_dims = {env.action_dim for env in envs}
        if len(action_dims) != 1:
            raise SchedulingError(f"sub-envs disagree on action_dim: {sorted(action_dims)}")
        batch_sizes = {len(env.batch) for env in envs}
        if len(batch_sizes) != 1:
            raise SchedulingError(f"sub-envs disagree on batch size: {sorted(batch_sizes)}")
        self.envs = list(envs)

    @classmethod
    def from_template(cls, env: SchedulingEnv, num_envs: int) -> "VectorSchedulingEnv":
        """``env`` itself plus ``num_envs - 1`` clones of it (:meth:`SchedulingEnv.clone`).

        The backend is shared too: every session it opens is an independent
        object, so concurrent rounds do not interfere (this holds for both the
        real :class:`~repro.dbms.DatabaseEngine` and the simulated
        :class:`~repro.perf.SimulatedCluster`).
        Width 1 needs no clone, so an environment bound to a shared-runtime
        tenant (which cannot be cloned) still makes a vector env of one.
        """
        if num_envs < 1:
            raise SchedulingError("num_envs must be >= 1")
        return cls([env] + [env.clone() for _ in range(num_envs - 1)])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def action_dim(self) -> int:
        return self.envs[0].action_dim

    @property
    def clusters(self):
        return self.envs[0].clusters

    def __len__(self) -> int:
        return len(self.envs)

    # ------------------------------------------------------------------ #
    # Lockstep episode control
    # ------------------------------------------------------------------ #
    def reset_at(self, index: int, round_id: int | None = None) -> SnapshotArrays:
        """Start a new round in sub-env ``index`` and return its snapshot."""
        return self.envs[index].reset(round_id=round_id)

    def masks_for(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Stacked boolean action masks ``(k, action_dim)`` for ``indices``.

        With ``indices=None`` every sub-env contributes a row.
        """
        selected = range(self.num_envs) if indices is None else indices
        return np.stack([self.envs[i].action_mask() for i in selected], axis=0)

    def step_many(self, indices: Sequence[int], actions: Sequence[int]) -> list[StepResult]:
        """Apply one decision per listed sub-env (aligned by position).

        Single-tenant closed rounds on the learned simulator (fault-free by
        construction) take the lockstep path: the clock advances of all
        sub-envs are interleaved, and the simulator predictions needed in the
        same round — one per busy engine instance of every session — are
        grouped by model and concurrency degree and served by ONE batched
        model forward (:meth:`ConcurrentPredictionModel.predict` over a
        ``(groups, k, f)`` stack).  Other backends (the real DBMS engine or
        cluster) and cluster mode fall back to per-env steps.
        """
        if len(indices) != len(actions):
            raise SchedulingError("indices and actions must align")
        # Even a single remaining active env stays on the lockstep path, so a
        # session's dynamics never depend on how many peer episodes happen to
        # still be running (batched predictions preserve the input dtype and
        # match the sequential path bit-for-bit).  Sessions opt in via
        # ``supports_lockstep``: simulated single-tenant closed rounds only —
        # a shared multi-tenant clock or scheduled arrivals cannot be batched
        # across environments.
        if self.clusters is None and all(self.envs[i].session.supports_lockstep for i in indices):
            return self._step_many_simulated(indices, actions)
        return [self.envs[i].step(action) for i, action in zip(indices, actions)]

    def _step_many_simulated(self, indices: Sequence[int], actions: Sequence[int]) -> list[StepResult]:
        envs = self.envs
        time_before = [envs[i].begin_step(action) for i, action in zip(indices, actions)]
        advancing = [i for i in indices if envs[i].needs_advance()]
        while advancing:
            sessions = [envs[i].session for i in advancing]
            groups = [session.advance_features() for session in sessions]
            batches: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for s, session in enumerate(sessions):
                for g, (_, _, features) in enumerate(groups[s]):
                    batches.setdefault((id(session.perf.model), features.shape[0]), []).append((s, g))
            predicted = {}
            for members in batches.values():
                # Singleton batches are stacked too, so a
                # session's dynamics never depend on how many other sessions
                # happened to share its concurrency degree this round.
                stacked = np.stack([groups[s][g][2] for s, g in members], axis=0)
                logits, times = sessions[members[0][0]].perf.model.predict(stacked)
                predicted.update(zip(members, zip(logits, times)))
            for s, session in enumerate(sessions):
                session.apply_advance(groups[s], [predicted[s, g] for g in range(len(groups[s]))])
            advancing = [i for i in advancing if envs[i].needs_advance()]
        return [envs[i].finish_step(before) for i, before in zip(indices, time_before)]

    def result_at(self, index: int) -> SchedulingResult:
        """Finished-round result of sub-env ``index``."""
        return self.envs[index].result()
