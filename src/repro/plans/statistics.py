"""Table statistics: the database catalogue visible to a non-intrusive scheduler.

QueryFormer injects database statistics (histograms and samples) into the
predicate encoding so the representation generalises across data-scale
changes.  This module provides the synthetic equivalent: every table carries
a row count, a set of columns, and an equi-width histogram per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import WorkloadError

__all__ = ["ColumnStats", "TableStats", "Catalog", "HISTOGRAM_BINS"]

HISTOGRAM_BINS = 8

#: Columns of every generated table (:meth:`Catalog.generate`).
COLUMNS_PER_TABLE = 6


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for a single column: an equi-width histogram over [0, 1]."""

    name: str
    histogram: tuple[float, ...]
    distinct_fraction: float = 0.1

    def __post_init__(self) -> None:
        if len(self.histogram) != HISTOGRAM_BINS:
            raise WorkloadError(f"histogram must have {HISTOGRAM_BINS} bins, got {len(self.histogram)}")
        total = sum(self.histogram)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise WorkloadError(f"histogram must sum to 1, got {total}")

    def selectivity_features(self, selectivity: float) -> np.ndarray:
        """Encode a predicate's selectivity against this column's histogram.

        Returns the histogram masked to the estimated covered prefix of the
        value domain, which is what QueryFormer's predicate encoder consumes.
        """
        hist = np.asarray(self.histogram)
        cumulative = np.cumsum(hist)
        covered = (cumulative <= selectivity + 1e-9).astype(np.float64)
        return hist * covered


@dataclass
class TableStats:
    """Statistics for one table."""

    name: str
    row_count: float
    columns: tuple[ColumnStats, ...]
    is_fact: bool = False

    def __post_init__(self) -> None:
        if self.row_count <= 0:
            raise WorkloadError(f"row_count must be positive for {self.name}")
        if not self.columns:
            raise WorkloadError(f"table {self.name} needs at least one column")

    def column(self, index: int) -> ColumnStats:
        return self.columns[index % len(self.columns)]

    def scaled(self, factor: float) -> "TableStats":
        """Return a copy with row counts scaled by ``factor``.

        Dimension tables scale sub-linearly (as in TPC-DS, where customer and
        date dimensions grow far slower than the fact tables).
        """
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        exponent = 1.0 if self.is_fact else 0.4
        return TableStats(
            name=self.name,
            row_count=self.row_count * factor**exponent,
            columns=self.columns,
            is_fact=self.is_fact,
        )


class Catalog:
    """A named collection of :class:`TableStats` with deterministic generation."""

    def __init__(self, tables: dict[str, TableStats]) -> None:
        if not tables:
            raise WorkloadError("catalog needs at least one table")
        self._tables = dict(tables)

    @classmethod
    def generate(
        cls,
        table_names: "list[str]",
        fact_tables: "set[str]",
        base_rows: dict[str, float],
        seed: int,
    ) -> "Catalog":
        """Build a catalogue with random but seed-deterministic histograms."""
        rng = np.random.default_rng(seed)
        tables: dict[str, TableStats] = {}
        for name in table_names:
            columns = []
            for col_index in range(COLUMNS_PER_TABLE):
                raw = rng.dirichlet(np.ones(HISTOGRAM_BINS) * 0.8)
                columns.append(
                    ColumnStats(
                        name=f"{name}_c{col_index}",
                        histogram=tuple(float(v) for v in raw / raw.sum()),
                        distinct_fraction=float(rng.uniform(0.01, 0.5)),
                    )
                )
            tables[name] = TableStats(
                name=name,
                row_count=float(base_rows.get(name, 1e5)),
                columns=tuple(columns),
                is_fact=name in fact_tables,
            )
        return cls(tables)

    def table(self, name: str) -> TableStats:
        if name not in self._tables:
            raise WorkloadError(f"unknown table {name!r}")
        return self._tables[name]

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def scaled(self, factor: float) -> "Catalog":
        """Return a catalogue with all tables scaled by ``factor``."""
        return Catalog({name: stats.scaled(factor) for name, stats in self._tables.items()})

    def total_rows(self) -> float:
        return sum(stats.row_count for stats in self._tables.values())
