"""Actor-critic network with the shared state representation.

θ_S (the attention-based state encoder), θ_π (policy head), θ_V (value head)
and θ_A (auxiliary finish-time head) from Figure 2.  The policy head maps
each per-query representation ``x''_i`` to one logit per running-parameter
configuration; in cluster mode, cluster logits are produced from the mean of
the member queries' representations (the paper pools member embeddings when
scheduling at cluster granularity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoder import BatchedStateRepresentation, SnapshotArrays, StateEncoder, StateRepresentation
from ..exceptions import SchedulingError
from ..nn import MLP, Module, Tensor, fastinfer, masked_log_softmax, stack
from ..nn.backend import DecisionKernel

__all__ = ["ActorCriticNetwork", "PolicyDecision", "DECISION_KERNEL"]

#: The one (stateless) tape-free forward behind :meth:`ActorCriticNetwork.act`,
#: :meth:`~ActorCriticNetwork.act_batch` and (its encoder half)
#: :meth:`~ActorCriticNetwork.greedy_action`.
DECISION_KERNEL = DecisionKernel()

#: Hidden width of the policy, value and auxiliary heads.
HEAD_HIDDEN = 64


@dataclass(frozen=True)
class PolicyDecision:
    """Result of sampling one action from the policy."""

    action: int
    log_prob: float
    value: float


def _cluster_member_indices(clusters, snapshot: SnapshotArrays) -> list[np.ndarray]:
    """Per-cluster member index arrays to pool, one entry per cluster.

    Pending members are pooled when any remain; a fully drained cluster
    falls back to all of its members so its token stays well-defined.
    """
    pending = set(snapshot.pending_ids)
    indices = []
    for cluster_id in range(clusters.num_clusters):
        members = [qid for qid in clusters.members(cluster_id) if qid in pending]
        if not members:
            members = list(clusters.members(cluster_id))
        indices.append(np.asarray(members, dtype=np.int64))
    return indices


class ActorCriticNetwork(Module):
    """Policy, value and auxiliary heads over the shared state encoder."""

    def __init__(
        self,
        state_encoder: StateEncoder,
        num_configs: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if num_configs < 1:
            raise SchedulingError("num_configs must be >= 1")
        self.state_encoder = state_encoder
        self.num_configs = num_configs
        state_dim = state_encoder.config.state_dim
        self.policy_head = MLP([state_dim, HEAD_HIDDEN, num_configs], rng, activation="tanh")
        self.value_head = MLP([state_dim, HEAD_HIDDEN, 1], rng, activation="tanh")
        self.aux_head = MLP([state_dim, HEAD_HIDDEN, 1], rng, activation="tanh")

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def representation(self, plan_embeddings: np.ndarray, snapshot: SnapshotArrays) -> StateRepresentation:
        """Shared state representation for one snapshot."""
        return self.state_encoder(plan_embeddings, snapshot)

    def action_logits(
        self,
        representation: StateRepresentation,
        snapshot: SnapshotArrays,
        clusters=None,
    ) -> Tensor:
        """Flat action logits (query- or cluster-level) of shape ``(action_dim,)``."""
        if clusters is None:
            per_query_logits = self.policy_head(representation.per_query)
            return per_query_logits.reshape(representation.num_queries * self.num_configs)
        cluster_tokens = [
            representation.per_query[members].mean(axis=0)
            for members in _cluster_member_indices(clusters, snapshot)
        ]
        pooled = stack(cluster_tokens, axis=0)
        cluster_logits = self.policy_head(pooled)
        return cluster_logits.reshape(clusters.num_clusters * self.num_configs)

    def state_value(self, representation: StateRepresentation) -> Tensor:
        """Scalar state value from the global representation."""
        return self.value_head(representation.global_state).reshape(1)

    def auxiliary_times(self, representation: StateRepresentation) -> Tensor:
        """Predicted remaining time per query (the IQ-PPO auxiliary output)."""
        return self.aux_head(representation.per_query).reshape(representation.num_queries)

    # ------------------------------------------------------------------ #
    # Batched forward passes (the vectorized hot path)
    # ------------------------------------------------------------------ #
    def encode_batch(
        self, plan_embeddings: np.ndarray, snapshots: list[SnapshotArrays]
    ) -> BatchedStateRepresentation:
        """Shared state representations for B snapshots in one stacked forward."""
        return self.state_encoder.encode_batch(plan_embeddings, snapshots)

    def action_logits_batch(
        self,
        representation: BatchedStateRepresentation,
        snapshots: list[SnapshotArrays],
        clusters=None,
    ) -> Tensor:
        """Flat action logits of shape ``(batch, action_dim)``."""
        batch = representation.batch_size
        if clusters is None:
            logits = self.policy_head(representation.per_query)
            return logits.reshape(batch, representation.num_queries * self.num_configs)
        # Cluster pooling depends on each snapshot's pending set, so the member
        # gathering stays per-snapshot; the policy head still runs stacked.
        pooled_rows = []
        for index, snapshot in enumerate(snapshots):
            per_query = representation.per_query[index]
            tokens = [
                per_query[members].mean(axis=0)
                for members in _cluster_member_indices(clusters, snapshot)
            ]
            pooled_rows.append(stack(tokens, axis=0))
        pooled = stack(pooled_rows, axis=0)
        return self.policy_head(pooled).reshape(batch, clusters.num_clusters * self.num_configs)

    def state_values_batch(self, representation: BatchedStateRepresentation) -> Tensor:
        """State values of shape ``(batch,)``."""
        return self.value_head(representation.global_state).reshape(representation.batch_size)

    def auxiliary_times_batch(self, representation: BatchedStateRepresentation) -> Tensor:
        """Predicted remaining times of shape ``(batch, n)``."""
        return self.aux_head(representation.per_query).reshape(
            representation.batch_size, representation.num_queries
        )

    # ------------------------------------------------------------------ #
    # Acting and evaluation
    # ------------------------------------------------------------------ #
    def _head_weights(self, pack: fastinfer.Float32Pack) -> list:
        """The packed policy head, global MLP and value head (the last two are the value path)."""
        return [pack.mlp(mlp) for mlp in (self.policy_head, self.state_encoder.global_mlp, self.value_head)]

    @staticmethod
    def _logits_arrays(
        policy_head: list, per_query: np.ndarray, snapshots: list[SnapshotArrays], clusters
    ) -> np.ndarray:
        """``(batch, action_dim)`` logits; in cluster mode the per-query rows are mean-pooled into cluster tokens first."""
        batch = per_query.shape[0]
        if clusters is not None:
            per_query = clusters.pool(per_query, clusters.pending_flags(snapshots))
        return fastinfer.mlp32(policy_head, per_query).reshape(batch, -1)

    def heads_arrays(
        self,
        per_query: np.ndarray,
        global_input: np.ndarray,
        snapshots: list[SnapshotArrays],
        clusters=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free ``(logits, values)`` of shapes ``(batch, action_dim)`` and ``(batch,)``.

        The head code of the decision kernel: the policy head over the
        per-query rows, and the value path (the state encoder's global MLP,
        then the value head) over ``global_input``.
        """
        policy_head, global_mlp, value_head = fastinfer.packed(self, self._head_weights)
        logits = self._logits_arrays(policy_head, per_query, snapshots, clusters)
        values = fastinfer.mlp32(value_head, fastinfer.mlp32(global_mlp, global_input)).reshape(-1)
        return logits, values

    def greedy_action(
        self,
        plan_embeddings: np.ndarray,
        snapshot: SnapshotArrays,
        mask: np.ndarray,
        clusters=None,
    ) -> int:
        """The allowed action with the largest logit (the first one on a tie).

        What serving, ``schedule()``, validation and ``evaluate_on`` decide.
        It encodes and runs the policy head only: no value path, no
        log-softmax, no :class:`PolicyDecision`.  An all-``False`` mask or a
        mask of the wrong shape raises, as when sampling.
        """
        per_query, _ = DECISION_KERNEL.encode_batch(self.state_encoder, plan_embeddings, [snapshot])
        policy_head = fastinfer.packed(self, self._head_weights)[0]
        logits = self._logits_arrays(policy_head, per_query, [snapshot], clusters)
        return int(fastinfer.masked_argmax(logits, np.asarray(mask, dtype=bool)[None, :])[0])

    def act(
        self,
        plan_embeddings: np.ndarray,
        snapshot: SnapshotArrays,
        mask: np.ndarray,
        rng: np.random.Generator,
        clusters=None,
    ) -> PolicyDecision:
        """Sample one action: :meth:`act_batch` with B=1.

        The forward is the tape-free float32 decision kernel
        (:meth:`~repro.nn.backend.DecisionKernel.scalar_forward`).  The draw
        consumes ``rng`` exactly as a one-row :meth:`act_batch` does.
        """
        logits, values = DECISION_KERNEL.scalar_forward(self, plan_embeddings, snapshot, clusters=clusters)
        return self._sample(logits, values, np.asarray(mask, dtype=bool)[None, :], rng)[0]

    def evaluate_action(
        self,
        plan_embeddings: np.ndarray,
        snapshot: SnapshotArrays,
        action: int,
        mask: np.ndarray,
        clusters=None,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Differentiable evaluation of one stored transition.

        Returns ``(log_prob_of_action, entropy, value, full_log_probs)``.
        """
        representation = self.representation(plan_embeddings, snapshot)
        logits = self.action_logits(representation, snapshot, clusters=clusters)
        log_probs = masked_log_softmax(logits, mask)
        log_prob = log_probs[action]
        probs = log_probs.exp()
        entropy = -(probs * log_probs).sum()
        value = self.state_value(representation)
        return log_prob, entropy, value, log_probs

    def act_batch(
        self,
        plan_embeddings: np.ndarray,
        snapshots: list[SnapshotArrays],
        masks: np.ndarray,
        rng: np.random.Generator,
        clusters=None,
    ) -> list[PolicyDecision]:
        """Sample one action per snapshot from a single stacked forward pass.

        ``masks`` is the ``(batch, action_dim)`` stack of per-env action masks.
        Sampling consumes ``rng`` once per call (one uniform per snapshot, in
        order).  The whole forward runs on the tape-free float32 decision
        kernel (:class:`~repro.nn.backend.DecisionKernel`) — sampling never
        differentiates.
        """
        per_query, global_input = DECISION_KERNEL.encode_batch(self.state_encoder, plan_embeddings, snapshots)
        logits, values = DECISION_KERNEL.heads_batch(self, per_query, global_input, snapshots, clusters=clusters)
        return self._sample(logits, values, np.asarray(masks, dtype=bool), rng)

    @staticmethod
    def _sample(
        logits: np.ndarray, values: np.ndarray, masks: np.ndarray, rng: np.random.Generator
    ) -> list[PolicyDecision]:
        """Masked log-softmax, then one inverse-CDF draw per row.

        A row whose mask allows nothing raises.
        """
        log_probs = fastinfer.masked_log_softmax_array(logits, masks)
        probs = np.exp(log_probs)
        probs = probs / probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        uniforms = rng.random(len(logits))
        # Clamp the inverse-CDF count into each row's unmasked range:
        # float32 rounding can leave cdf[-1] slightly below 1 (count
        # overflows into the masked zero-probability tail), and a uniform
        # draw of exactly 0.0 would select a masked leading action.
        first_allowed = np.argmax(masks, axis=1)
        last_allowed = masks.shape[1] - 1 - np.argmax(masks[:, ::-1], axis=1)
        actions = np.clip((cdf < uniforms[:, None]).sum(axis=1), first_allowed, last_allowed)
        return [
            PolicyDecision(action=int(action), log_prob=float(log_probs[row, action]), value=float(value))
            for row, (action, value) in enumerate(zip(actions, values))
        ]

    def evaluate_actions_batch(
        self,
        plan_embeddings: np.ndarray,
        snapshots: list[SnapshotArrays],
        actions: np.ndarray,
        masks: np.ndarray,
        clusters=None,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Differentiable evaluation of a whole minibatch in one forward.

        Returns ``(log_probs_of_actions, entropies, values, full_log_probs)``
        with shapes ``(batch,)``, ``(batch,)``, ``(batch,)``, ``(batch, action_dim)``.
        """
        batch = len(snapshots)
        representation = self.encode_batch(plan_embeddings, snapshots)
        logits = self.action_logits_batch(representation, snapshots, clusters=clusters)
        log_probs = masked_log_softmax(logits, masks)
        taken = log_probs[np.arange(batch), np.asarray(actions, dtype=np.int64)]
        probs = log_probs.exp()
        entropies = -(probs * log_probs).sum(axis=-1)
        values = self.state_values_batch(representation)
        return taken, entropies, values, log_probs

    def evaluate_auxiliary_batch(
        self,
        plan_embeddings: np.ndarray,
        snapshots: list[SnapshotArrays],
        query_ids: np.ndarray,
        masks: np.ndarray,
        clusters=None,
    ) -> tuple[Tensor, Tensor]:
        """Batched counterpart of :meth:`evaluate_auxiliary`.

        Returns ``(predicted_remaining_times, full_log_probs)`` of shapes
        ``(batch,)`` and ``(batch, action_dim)``.
        """
        batch = len(snapshots)
        representation = self.encode_batch(plan_embeddings, snapshots)
        times = self.auxiliary_times_batch(representation)
        picked = times[np.arange(batch), np.asarray(query_ids, dtype=np.int64)]
        logits = self.action_logits_batch(representation, snapshots, clusters=clusters)
        log_probs = masked_log_softmax(logits, masks)
        return picked, log_probs

    def evaluate_auxiliary(
        self,
        plan_embeddings: np.ndarray,
        snapshot: SnapshotArrays,
        query_id: int,
        mask: np.ndarray,
    ) -> tuple[Tensor, Tensor]:
        """Differentiable auxiliary prediction for the earliest-finishing query.

        Returns ``(predicted_remaining_time, full_log_probs)`` where the log
        probabilities are needed for the behaviour-cloning KL term.
        """
        representation = self.representation(plan_embeddings, snapshot)
        times = self.auxiliary_times(representation)
        logits = self.action_logits(representation, snapshot)
        log_probs = masked_log_softmax(logits, mask)
        return times[query_id], log_probs
