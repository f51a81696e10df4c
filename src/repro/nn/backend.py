"""The decision kernel: the one tape-free forward behind every decision.

Deciding (rollout collection, validation, greedy serving) never
differentiates, so ``act`` / ``act_batch`` and ``greedy_action`` run the
float32 decision program of :mod:`repro.nn.fastinfer` — one snapshot is the
stack at ``B=1``.  The *learning* path (PPO/PPG updates, auxiliary phases)
runs the fused :mod:`repro.nn.fastgrad` kernels and never comes through here.

What follows the forward lives in :mod:`repro.core.policy`: sampling (masked
log-softmax and the inverse-CDF draw, in ``_sample``) and the greedy
decision (``greedy_action``: the encoder here, then the policy head and a
masked argmax, with no value path and no log-softmax).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (encoder imports nn)
    from ..encoder.state import StateEncoder

__all__ = ["DecisionKernel"]


class DecisionKernel:
    """Stateless ``(logits, values)`` forward for one snapshot or a stack.

    This is not an extension point: there is one implementation and no
    subclass.  It stays a class, rather than three lines inside
    ``ActorCriticNetwork``, only because the performance ledger
    (``benchmarks/ledger``) reads ``BQSched.inference_backend`` and times
    these three methods on its class as the ``nn.backend_forward`` span;
    folding it into the policy needs a ledger-only rename first.
    """

    def encode_batch(
        self,
        encoder: "StateEncoder",
        plan_embeddings: np.ndarray,
        snapshots: list[Any],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked float32 ``(per_query, global_input)``: the representations and the value path's input rows."""
        return encoder.encode_batch_arrays(plan_embeddings, snapshots)

    def heads_batch(
        self,
        policy: Any,
        per_query: np.ndarray,
        global_input: np.ndarray,
        snapshots: list[Any],
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(logits, values)`` from the stacked encoder outputs (cluster pooling included)."""
        return policy.heads_arrays(per_query, global_input, snapshots, clusters=clusters)

    def scalar_forward(
        self,
        policy: Any,
        plan_embeddings: np.ndarray,
        snapshot: Any,
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(logits, values)`` of shapes ``(1, action_dim)`` and ``(1,)``: the two above at ``B=1``."""
        per_query, global_input = self.encode_batch(policy.state_encoder, plan_embeddings, [snapshot])
        return self.heads_batch(policy, per_query, global_input, [snapshot], clusters=clusters)
