"""QueryFormer-style tree Transformer over physical plans.

Following Zhao et al. (VLDB 2022) as used by BQSched: every plan node is
embedded from its operator / table / predicate / statistics features, a
*super node* connected to all others gathers the plan-level representation,
structural information enters through a height encoding and a tree-bias
added to the attention scores (closer nodes attend more strongly), and the
super node's output embedding is the plan embedding ``e_i``.

The paper uses a QueryFormer pre-trained on query logs; in this reproduction
the encoder is initialised randomly and kept frozen (its role is to provide a
structure-preserving projection of the plan into a dense vector), while the
downstream MLPs and attention layers learn on top of it.  Its forward is
therefore inference only: the float64 layer kernels of :mod:`repro.nn.fastgrad`
run forward over the module's parameters, bit-identical to the autograd
forward and recording no tape.
"""

from __future__ import annotations

import numpy as np

from ..config import EncoderConfig
from ..nn import AttentionEncoder, Embedding, Linear, MLP, Module, fastgrad
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

    def forward(self, plan: PhysicalPlan) -> np.ndarray:
        """Encode one plan into its ``plan_embedding_dim`` vector (a fresh array).

        The node tokens and the super token run as a batch of one through a
        fresh arena that is never reset, so the embedding is no buffer a
        later call hands out.
        """
        features = self.featurizer.featurize(plan)
        num_nodes = features.num_nodes
        heights = np.clip(features.heights, 0, self.config.max_height)
        projected = features.node_features @ self.input_proj.weight.data
        projected += self.input_proj.bias.data
        tokens = np.empty((num_nodes + 1, self.config.node_hidden_dim))
        np.add(projected, self.height_embedding.weight.data[heights], out=tokens[:num_nodes])
        tokens[num_nodes] = self.super_token.weight.data[0]
        arena = fastgrad.Arena()
        encoded, _ = fastgrad.attention_encoder_forward(
            self.encoder, tokens[None], arena, bias=self._tree_bias(features.distances)
        )
        return fastgrad.mlp_forward(self.output_proj, encoded[0, num_nodes], arena)[0]

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
    once, by the encoder's float64 forward (:meth:`QueryFormer.forward`), and
    reused at every decision step, exactly like serving a pre-trained
    QueryFormer.
    """

    def __init__(self, queryformer: QueryFormer) -> None:
        self.queryformer = queryformer
        self._cache: dict[int, np.ndarray] = {}

    def embedding(self, query_id: int, plan: PhysicalPlan) -> np.ndarray:
        """Return (and memoise) the plan embedding for ``query_id``."""
        if query_id not in self._cache:
            self._cache[query_id] = self.queryformer(plan)
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
