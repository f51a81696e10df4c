"""Plan-node featurisation consumed by the QueryFormer encoder.

For every node the featuriser produces a fixed-width vector containing the
operator one-hot, a table one-hot (over the workload's catalogue), predicate
histogram features, log-scaled cardinality, and operator resource weights.
For the whole plan it additionally produces the structural metadata used by
tree-bias attention: per-node heights and the pairwise tree-distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import NUM_OPERATORS, OPERATOR_PROFILES
from .plan import PhysicalPlan
from .statistics import Catalog, HISTOGRAM_BINS

__all__ = ["PlanFeatures", "PlanFeaturizer"]


@dataclass(frozen=True)
class PlanFeatures:
    """Featurised plan: per-node matrix + structural metadata.

    Attributes
    ----------
    node_features:
        ``(num_nodes, feature_dim)`` array.
    heights:
        ``(num_nodes,)`` integer depths used for the height encoding.
    distances:
        ``(num_nodes, num_nodes)`` tree distances used for tree-bias attention.
    """

    node_features: np.ndarray
    heights: np.ndarray
    distances: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


class PlanFeaturizer:
    """Turns :class:`PhysicalPlan` trees into :class:`PlanFeatures`."""

    #: number of scalar features appended after the one-hot blocks
    _NUM_SCALARS = 6

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._table_names = catalog.table_names()
        self._num_tables = len(self._table_names)
        self._table_index = {name: index for index, name in enumerate(self._table_names)}

    @property
    def feature_dim(self) -> int:
        """Width of each node feature vector."""
        return NUM_OPERATORS + self._num_tables + HISTOGRAM_BINS + self._NUM_SCALARS

    def featurize(self, plan: PhysicalPlan) -> PlanFeatures:
        """Featurise every node of ``plan`` into one matrix.

        Each row is the operator one-hot, the table one-hot (scans only),
        the predicate histogram features (averaged over the node's
        predicates, like QueryFormer's per-predicate encoding pooled at the
        node level), then the scalars: log cardinality, the operator's
        resource weights, mean predicate selectivity and index use.
        """
        num_nodes = plan.num_nodes
        features = np.zeros((num_nodes, self.feature_dim), dtype=np.float64)
        heights = np.empty(num_nodes, dtype=np.int64)
        operators = np.empty(num_nodes, dtype=np.int64)
        rows = np.empty(num_nodes, dtype=np.float64)
        histogram = slice(NUM_OPERATORS + self._num_tables, NUM_OPERATORS + self._num_tables + HISTOGRAM_BINS)
        scalars = features[:, histogram.stop :]
        scalars[:, 4] = 1.0  # selectivity of a node without predicates
        for node in plan.nodes():
            node_id = node.node_id
            heights[node_id] = plan.depth_of(node_id)
            operators[node_id] = node.operator.index
            rows[node_id] = node.estimated_rows
            table = self._table_index.get(node.table)
            if table is not None:
                features[node_id, NUM_OPERATORS + table] = 1.0
            if node.predicates:
                if table is not None:
                    stats = self.catalog.table(node.table)
                    pooled = np.zeros(HISTOGRAM_BINS)
                    for predicate in node.predicates:
                        pooled += stats.column(predicate.column).selectivity_features(predicate.selectivity)
                    features[node_id, histogram] = pooled / len(node.predicates)
                # Added in predicate order, as ``np.mean`` adds fewer than eight values.
                selectivity = 0.0
                for predicate in node.predicates:
                    selectivity += predicate.selectivity
                scalars[node_id, 4] = selectivity / len(node.predicates)
                scalars[node_id, 5] = float(any(p.uses_index for p in node.predicates))
        features[np.arange(num_nodes), operators] = 1.0
        scalars[:, 0] = np.log1p(rows) / 20.0
        scalars[:, 1:4] = _OPERATOR_WEIGHTS[operators]
        return PlanFeatures(node_features=features, heights=heights, distances=plan.tree_distances())


#: ``(cpu_per_row, io_per_row, memory_per_row)`` of every operator, by operator index.
_OPERATOR_WEIGHTS = np.array(
    [
        (profile.cpu_per_row, profile.io_per_row, profile.memory_per_row)
        for _, profile in sorted(OPERATOR_PROFILES.items(), key=lambda item: item[0].index)
    ]
)
