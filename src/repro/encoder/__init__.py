"""Query and state encoders: QueryFormer plan encoder + attention-based state."""

from .queryformer import PlanEmbeddingCache, QueryFormer
from .run_state import RunStateFeaturizer, SnapshotArrays
from .state import BatchedStateRepresentation, StateEncoder, StateRepresentation

__all__ = [
    "PlanEmbeddingCache",
    "QueryFormer",
    "RunStateFeaturizer",
    "SnapshotArrays",
    "StateEncoder",
    "StateRepresentation",
    "BatchedStateRepresentation",
]
