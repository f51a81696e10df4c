"""QueryFormer-style tree Transformer over physical plans.

Following Zhao et al. (VLDB 2022) as used by BQSched: every plan node is
embedded from its operator / table / predicate / statistics features, a
*super node* connected to all others gathers the plan-level representation,
structural information enters through a height encoding and a tree-bias
added to the attention scores (closer nodes attend more strongly), and the
super node's output embedding is the plan embedding ``e_i``.

The paper uses a QueryFormer pre-trained on query logs; in this reproduction
the encoder is initialised randomly and kept frozen during RL (its role is to
provide a structure-preserving projection of the plan into a dense vector),
while the downstream MLPs and attention layers learn on top of it.  The
encoder is still a fully trainable module, so the simulator's prediction
model and the gain model can fine-tune it when desired.
"""

from __future__ import annotations

import numpy as np

from ..config import EncoderConfig
from ..nn import AttentionEncoder, Embedding, Linear, MLP, Module, Tensor, concatenate, no_grad
from ..plans import PhysicalPlan, PlanFeaturizer

__all__ = ["QueryFormer", "PlanEmbeddingCache"]


class QueryFormer(Module):
    """Tree Transformer encoder producing one embedding per physical plan."""

    def __init__(self, featurizer: PlanFeaturizer, config: EncoderConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.featurizer = featurizer
        self.config = config
        hidden = config.node_hidden_dim
        self.input_proj = Linear(featurizer.feature_dim, hidden, rng)
        self.height_embedding = Embedding(config.max_height + 1, hidden, rng)
        self.super_token = Embedding(1, hidden, rng)
        self.encoder = AttentionEncoder(
            model_dim=hidden,
            num_heads=config.tree_heads,
            num_layers=config.tree_layers,
            rng=rng,
            norm=config.norm,
        )
        self.output_proj = MLP([hidden, config.plan_embedding_dim], rng, activation="tanh", final_activation=True)
        #: additive attention bias per unit of tree distance
        self.distance_penalty = 0.5

    def forward(self, plan: PhysicalPlan) -> Tensor:
        """Encode one plan into its ``plan_embedding_dim`` vector."""
        features = self.featurizer.featurize(plan)
        heights = np.clip(features.heights, 0, self.config.max_height)
        node_tokens = self.input_proj(Tensor(features.node_features)) + self.height_embedding(heights)
        super_token = self.super_token(np.array([0]))
        tokens = concatenate([node_tokens, super_token], axis=0)
        bias = self._tree_bias(features.distances)
        encoded = self.encoder(tokens, bias=bias)
        plan_embedding = encoded[features.num_nodes]
        return self.output_proj(plan_embedding)

    def _tree_bias(self, distances: np.ndarray) -> np.ndarray:
        """Attention bias: ``-penalty * tree distance``; the super node sits at distance 1."""
        num_nodes = distances.shape[0]
        padded = np.ones((num_nodes + 1, num_nodes + 1))
        padded[:num_nodes, :num_nodes] = distances
        np.fill_diagonal(padded, 0.0)
        return -self.distance_penalty * padded


class PlanEmbeddingCache:
    """Caches frozen plan embeddings for a batch query set.

    Plan trees never change during scheduling, so the embeddings are computed
    once (without building autograd tapes) and reused at every decision step,
    exactly like serving a pre-trained QueryFormer.
    """

    def __init__(self, queryformer: QueryFormer) -> None:
        self.queryformer = queryformer
        self._cache: dict[int, np.ndarray] = {}

    def embedding(self, query_id: int, plan: PhysicalPlan) -> np.ndarray:
        """Return (and memoise) the plan embedding for ``query_id``."""
        if query_id not in self._cache:
            with no_grad():
                self._cache[query_id] = np.array(self.queryformer(plan).data, copy=True)
        return self._cache[query_id]

    def embeddings_for(self, queries) -> np.ndarray:
        """Stacked, read-only embeddings for an iterable of :class:`repro.workloads.Query`.

        The decision kernel caches a float32 cast by identity: a write must raise, not go stale.
        """
        matrix = np.stack([self.embedding(q.query_id, q.plan) for q in queries], axis=0)
        matrix.flags.writeable = False
        return matrix

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
