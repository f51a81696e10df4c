"""Attention-based state representation (Section III-A of the paper).

Per-query tokens ``x_i`` are built from the (frozen) QueryFormer plan
embedding concatenated with the running-state features and passed through an
MLP.  A learnable *super query* token joins the sequence, a stack of
multi-head attention layers models the mutual influences among concurrent
queries, and the outputs are combined with pooled running-state features to
produce the final per-query representations ``x''_i`` (for the policy and
auxiliary heads) and the global representation ``x''_s`` (for the value
head).

The paper concatenates the raw running-state features of *all* queries into
``x''_s`` and of the *concurrent* queries into ``x''_i``.  Because the batch
size ``n`` varies across workloads, this implementation uses mean + max
pooling of those features instead of raw concatenation, which keeps the
network width independent of ``n`` while preserving the same information
channel (this is also what makes the learned policy transferable across
query-set sizes, a property the paper relies on for its adaptability
experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import EncoderConfig
from ..nn import AttentionEncoder, MLP, Module, Parameter, Tensor, concatenate, fastinfer
from ..nn import init as weight_init
from .run_state import RunStateFeaturizer, SnapshotArrays

__all__ = ["MLP_LAYERS", "StateRepresentation", "BatchedStateRepresentation", "StateEncoder"]

#: Depth ``m`` of the per-query MLP combining plan embedding and running-state features.
MLP_LAYERS = 2


@dataclass
class StateRepresentation:
    """Output of the state encoder at one decision instant.

    Attributes
    ----------
    per_query:
        ``(n, state_dim)`` tensor of final per-query representations ``x''_i``.
    global_state:
        ``(state_dim,)`` tensor ``x''_s`` summarising the whole batch.
    """

    per_query: Tensor
    global_state: Tensor

    @property
    def num_queries(self) -> int:
        return self.per_query.shape[0]


@dataclass
class BatchedStateRepresentation:
    """Output of one stacked encoder forward over B decision instants.

    Attributes
    ----------
    per_query:
        ``(batch, n, state_dim)`` tensor of per-query representations.
    global_state:
        ``(batch, state_dim)`` tensor of per-snapshot global representations.
    """

    per_query: Tensor
    global_state: Tensor

    @property
    def batch_size(self) -> int:
        return self.per_query.shape[0]

    @property
    def num_queries(self) -> int:
        return self.per_query.shape[1]


class StateEncoder(Module):
    """Shared state-representation network θ_S."""

    def __init__(
        self,
        plan_embedding_dim: int,
        run_state_featurizer: RunStateFeaturizer,
        config: EncoderConfig,
        rng: np.random.Generator,
        use_attention: bool = True,
    ) -> None:
        super().__init__()
        self.config = config
        self.run_state_featurizer = run_state_featurizer
        self.use_attention = use_attention
        state_dim = config.state_dim
        input_dim = plan_embedding_dim + run_state_featurizer.feature_dim

        per_query_sizes = [input_dim] + [state_dim] * MLP_LAYERS
        self.query_mlp = MLP(per_query_sizes, rng, activation="tanh", final_activation=True)
        self.super_query = Parameter(weight_init.normal((1, state_dim), rng, std=0.1), name="super_query")
        if use_attention:
            self.attention = AttentionEncoder(
                model_dim=state_dim,
                num_heads=config.state_heads,
                num_layers=config.state_layers,
                rng=rng,
            )
        pooled_dim = 2 * run_state_featurizer.feature_dim
        self.global_mlp = MLP([state_dim + pooled_dim, state_dim, state_dim], rng, activation="tanh", final_activation=True)
        self.query_out_mlp = MLP(
            [2 * state_dim + pooled_dim, state_dim, state_dim], rng, activation="tanh", final_activation=True
        )
        self._plan_term_cache: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, plan_embeddings: np.ndarray, snapshot: SnapshotArrays) -> StateRepresentation:
        """Encode one scheduling state.

        Parameters
        ----------
        plan_embeddings:
            ``(n, plan_embedding_dim)`` frozen QueryFormer embeddings aligned
            with the snapshot's query ids.
        snapshot:
            The observable runtime state of every query.
        """
        run_features = self.run_state_featurizer.featurize_arrays_stack([snapshot])[0]
        if plan_embeddings.shape[0] != run_features.shape[0]:
            raise ValueError("plan embeddings and snapshot must cover the same queries")

        tokens = self.query_mlp(Tensor(np.concatenate([plan_embeddings, run_features], axis=1)))
        sequence = concatenate([tokens, self.super_query], axis=0)
        # The ablation variant (Figure 7, "w/o attention-based state
        # representation") skips the mutual-influence modelling entirely.
        encoded = self.attention(sequence) if self.use_attention else sequence
        num_queries = run_features.shape[0]
        encoded_queries = encoded[np.arange(num_queries)]
        encoded_super = encoded[num_queries]

        pooled_all = self._pool(run_features)
        global_state = self.global_mlp(concatenate([encoded_super, Tensor(pooled_all)], axis=0))

        running_ids = snapshot.running_ids
        if running_ids:
            pooled_running = self._pool(run_features[running_ids])
        else:
            pooled_running = np.zeros_like(pooled_all)
        broadcast_super = encoded_super.reshape(1, -1) * Tensor(np.ones((num_queries, 1)))
        broadcast_pool = Tensor(np.tile(pooled_running, (num_queries, 1)))
        per_query = self.query_out_mlp(
            concatenate([encoded_queries, broadcast_super, broadcast_pool], axis=1)
        )
        return StateRepresentation(per_query=per_query, global_state=global_state)

    def _featurize_stack(
        self, plan_embeddings: np.ndarray, snapshots: "list[SnapshotArrays]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(run_features, pooled_all)`` of a stack: the float64 ``(batch, n, feature)``
        running-state features and their ``(batch, 2*feature)`` mean ‖ max over every query.

        A stack of one is the single-snapshot case of the one stacked kernel.
        """
        if not snapshots:
            raise ValueError("encode_batch needs at least one snapshot")
        if plan_embeddings.shape[0] != snapshots[0].num_queries:
            raise ValueError("plan embeddings and snapshots must cover the same queries")
        run_features = self.run_state_featurizer.featurize_arrays_stack(snapshots)
        batch, num_queries, width = run_features.shape
        # mean ‖ max over the queries into one buffer (np.mean is this add.reduce / n).
        pooled_all = np.empty((batch, 2 * width), dtype=np.float64)
        np.add.reduce(run_features, axis=1, out=pooled_all[:, :width])
        pooled_all[:, :width] /= num_queries
        np.maximum.reduce(run_features, axis=1, out=pooled_all[:, width:])
        return run_features, pooled_all

    def _batch_inputs(
        self, plan_embeddings: np.ndarray, snapshots: "list[SnapshotArrays]"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The learning path's float64 featurisation.

        Returns ``(inputs, run_features, pooled_all, pooled_running)`` where
        ``inputs`` is the ``(batch, n, plan+feature)`` token input and the
        pooled arrays are the fixed-width running-state summaries, the
        running ones pooled exactly per snapshot.
        """
        run_features, pooled_all = self._featurize_stack(plan_embeddings, snapshots)
        batch, num_queries, width = run_features.shape
        plan_dim = plan_embeddings.shape[1]
        inputs = np.empty((batch, num_queries, plan_dim + width), dtype=np.float64)
        inputs[:, :, :plan_dim] = plan_embeddings
        inputs[:, :, plan_dim:] = run_features
        pooled_running = np.empty_like(pooled_all)
        for index, snapshot in enumerate(snapshots):
            running_ids = snapshot.running_ids
            if running_ids:
                pooled_running[index] = self._pool(run_features[index][running_ids])
            else:
                pooled_running[index] = 0.0
        return inputs, run_features, pooled_all, pooled_running

    def _sampling_inputs(
        self, plan_embeddings: np.ndarray, snapshots: "list[SnapshotArrays]"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decision program's featurisation: ``(run32, pooled_all, pooled_running)``.

        ``run32`` is the run-state features cast to float32 once; the plan
        columns never enter it (the plan half of query-MLP layer 1 is
        :meth:`_plan_term`).  The running rows are pooled by reductions
        masked with the RUNNING column of the features' 0/1 status one-hot:
        one pass for any stack size and no per-snapshot indexing.
        """
        run_features, pooled_all = self._featurize_stack(plan_embeddings, snapshots)
        width = run_features.shape[2]
        running = run_features[:, :, 1:2] > 0.0
        counts = running.sum(axis=1)
        pooled_running = np.empty_like(pooled_all)
        np.add.reduce(run_features, axis=1, where=running, out=pooled_running[:, :width])
        pooled_running[:, :width] /= np.maximum(counts, 1)
        np.maximum.reduce(run_features, axis=1, where=running, initial=-np.inf, out=pooled_running[:, width:])
        pooled_running[counts[:, 0] == 0] = 0.0
        return run_features.astype(np.float32), pooled_all, pooled_running

    def encode_batch(
        self, plan_embeddings: np.ndarray, snapshots: "list[SnapshotArrays]"
    ) -> BatchedStateRepresentation:
        """Encode B scheduling states with one stacked forward pass.

        All snapshots must cover the same query batch (same ``n``); the plan
        embeddings are shared across the stack.  This is the vectorized hot
        path: one 3-D attention + MLP-head forward replaces B sequential
        :meth:`forward` calls.
        """
        inputs, run_features, pooled_all, pooled_running = self._batch_inputs(plan_embeddings, snapshots)
        batch, num_queries = run_features.shape[0], run_features.shape[1]
        tokens = self.query_mlp(Tensor(inputs))
        super_tokens = self.super_query.reshape(1, 1, -1) * Tensor(np.ones((batch, 1, 1)))
        sequence = concatenate([tokens, super_tokens], axis=1)
        encoded = self.attention(sequence) if self.use_attention else sequence
        encoded_queries = encoded[:, :num_queries]
        encoded_super = encoded[:, num_queries]

        global_state = self.global_mlp(concatenate([encoded_super, Tensor(pooled_all)], axis=1))

        broadcast_super = encoded_super.reshape(batch, 1, -1) * Tensor(np.ones((1, num_queries, 1)))
        broadcast_pool = Tensor(np.broadcast_to(pooled_running[:, None, :], (batch, num_queries, pooled_running.shape[1])).copy())
        per_query = self.query_out_mlp(
            concatenate([encoded_queries, broadcast_super, broadcast_pool], axis=2)
        )
        return BatchedStateRepresentation(per_query=per_query, global_state=global_state)

    def encode_batch_arrays(
        self, plan_embeddings: np.ndarray, snapshots: "list[SnapshotArrays]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free twin of :meth:`encode_batch`: float32 ``(per_query, global_input)``.

        Used by every decision forward (serving, validation and sequential
        rollouts with one snapshot, lock-step rollouts with a stack), where
        no gradient is ever needed and the autograd tensor overhead dominates
        the arithmetic.  Deciding also tolerates reduced precision, so the
        whole forward is the float32 decision program of :mod:`repro.nn.fastinfer`
        (learning-path forwards stay float64); it writes no BatchNorm statistics.

        ``global_input`` is the ``(batch, state_dim + 2*feature)`` row
        ``[encoded_super ‖ pooled_all]``: the global MLP runs on the value
        side (:meth:`~repro.core.policy.ActorCriticNetwork.heads_arrays`), so
        a greedy decision, which reads no value, never runs it.

        Each layer-1 input that rows share is multiplied once: the plan half
        of the query MLP once per round (:meth:`_plan_term`), and the
        ``[encoded_super ‖ pooled_running]`` half of the query-out MLP once
        per state, as one row that every query's layer 1 adds
        (:func:`~repro.nn.fastinfer.mlp32_shared`).
        """
        plan_weight, query_mlp, row_weight, query_out_mlp, super_query, blocks = fastinfer.packed(
            self, self._float32_weights
        )
        run32, pooled_all, pooled_running = self._sampling_inputs(plan_embeddings, snapshots)
        batch, num_queries = run32.shape[0], run32.shape[1]
        state_dim = self.config.state_dim
        plan_term = self._plan_term(plan_embeddings, plan_weight, query_mlp[0][1])
        sequence = np.empty((batch, num_queries + 1, state_dim), dtype=np.float32)
        sequence[:, :num_queries] = fastinfer.mlp32_shared(query_mlp, run32, plan_term)
        sequence[:, num_queries] = super_query
        encoded = fastinfer.encoder32(blocks, sequence)

        # [encoded_super ‖ pool]: the global MLP's input with every query's
        # pool, and the broadcast row's input with the running queries' pool.
        super_pool = np.empty((2, batch, state_dim + pooled_all.shape[1]), dtype=np.float32)
        global_input, row_input = super_pool
        super_pool[:, :, :state_dim] = encoded[:, num_queries]
        global_input[:, state_dim:] = pooled_all
        row_input[:, state_dim:] = pooled_running
        row = row_input @ row_weight
        row += query_out_mlp[0][1]
        per_query = fastinfer.mlp32_shared(query_out_mlp, encoded[:, :num_queries], row[:, None, :])
        return per_query, global_input

    def _plan_term(self, plan_embeddings: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """``plan32 @ W_plan + b1``, the ``(n, state_dim)`` plan half of query-MLP layer 1.

        Computed once per (read-only embeddings array, weight pack), both
        checked by identity: :meth:`PlanEmbeddingCache.embeddings_for`
        returns read-only embeddings, and a rebuilt pack has a new ``weight``.
        A writable array could change under the cache, so it is never cached.
        """
        cached = self._plan_term_cache
        if cached is not None and cached[0] is plan_embeddings and cached[1] is weight:
            return cached[2]
        term = plan_embeddings.astype(np.float32) @ weight
        term += bias
        if not plan_embeddings.flags.writeable:
            self._plan_term_cache = (plan_embeddings, weight, term)
        return term

    def _float32_weights(self, pack: fastinfer.Float32Pack) -> tuple:
        """The packed program, layer 1 of the query and query-out MLPs split by input rows.

        ``query_mlp[0]`` keeps the run-state rows (its plan rows are
        ``plan_weight``) and ``query_out_mlp[0]`` the encoded-query rows (its
        ``[encoded_super ‖ pooled_running]`` rows are ``row_weight``).  The
        global MLP is packed with the value head, on the policy.
        """
        blocks = pack.encoder(self.attention) if self.use_attention else []
        query_mlp, query_out_mlp = pack.mlp(self.query_mlp), pack.mlp(self.query_out_mlp)
        plan_rows = query_mlp[0][0].shape[0] - self.run_state_featurizer.feature_dim
        plan_weight, query_mlp[0][0] = np.split(query_mlp[0][0], [plan_rows])
        query_out_mlp[0][0], row_weight = np.split(query_out_mlp[0][0], [self.config.state_dim])
        return plan_weight, query_mlp, row_weight, query_out_mlp, pack(self.super_query), blocks

    @staticmethod
    def _pool(features: np.ndarray) -> np.ndarray:
        """Fixed-width summary (mean ‖ max) of a variable-size feature set."""
        if features.size == 0:
            raise ValueError("cannot pool an empty feature set")
        return np.concatenate([features.mean(axis=0), features.max(axis=0)])
