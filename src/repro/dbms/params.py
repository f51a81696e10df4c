"""Query running parameters (degree of parallelism, working memory).

The paper's action space couples *which query to run next* with *which
running-parameter configuration to run it under*.  The configuration space
is the cross product of :data:`WORKER_OPTIONS` and :data:`MEMORY_OPTIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..exceptions import ConfigurationError

__all__ = ["RunningParameters", "ConfigurationSpace", "WORKER_OPTIONS", "MEMORY_OPTIONS"]

#: Degrees of parallelism a query may run with, ascending.
WORKER_OPTIONS = (1, 2)
#: Working-memory limits (MB) a query may run with, ascending.
MEMORY_OPTIONS = (64, 256)


@dataclass(frozen=True)
class RunningParameters:
    """One concrete running-parameter configuration for a query."""

    workers: int = 1
    memory_mb: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.memory_mb <= 0:
            raise ConfigurationError(f"memory_mb must be positive, got {self.memory_mb}")

    def __str__(self) -> str:
        return f"{self.workers}w/{self.memory_mb}MB"


class ConfigurationSpace:
    """Enumerates the running-parameter configurations ``R`` of a scheduler.

    Configurations are ordered by (workers, memory) and addressed by integer
    index — the same index the policy network's action logits use.
    """

    def __init__(self) -> None:
        self._configs: list[RunningParameters] = [
            RunningParameters(workers=workers, memory_mb=memory)
            for workers in WORKER_OPTIONS
            for memory in MEMORY_OPTIONS
        ]
        self._index = {config: i for i, config in enumerate(self._configs)}

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> "Iterator[RunningParameters]":
        return iter(self._configs)

    def __getitem__(self, index: int) -> RunningParameters:
        return self._configs[index]

    def index_of(self, config: RunningParameters) -> int:
        """Return the integer index of ``config``."""
        if config not in self._index:
            raise ConfigurationError(f"configuration {config} is not in the space")
        return self._index[config]

    @property
    def default(self) -> RunningParameters:
        """The cheapest configuration (fewest workers, least memory)."""
        return self._configs[0]

    def closest_to(self, target: RunningParameters, allowed: "list[int] | None" = None) -> RunningParameters:
        """Return the allowed configuration closest to ``target``.

        Used by cluster-level scheduling when a cluster-wide configuration
        conflicts with a query's own mask (Section IV-B): the query falls back
        to the nearest unmasked configuration.
        """
        candidates = self._configs if allowed is None else [self._configs[i] for i in allowed]
        if not candidates:
            raise ConfigurationError("no allowed configurations to choose from")

        def distance(config: RunningParameters) -> tuple[int, int]:
            return (abs(config.workers - target.workers), abs(config.memory_mb - target.memory_mb))

        return min(candidates, key=distance)
