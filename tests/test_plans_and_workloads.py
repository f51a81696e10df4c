"""Tests for the plan substrate and the synthetic benchmark workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.plans import (
    Catalog,
    ColumnStats,
    HISTOGRAM_BINS,
    NUM_OPERATORS,
    OPERATOR_PROFILES,
    Operator,
    PhysicalPlan,
    PlanBuilder,
    PlanFeaturizer,
    PlanNode,
    Predicate,
    TemplateSpec,
)
from repro.workloads import (
    BatchQuerySet,
    NUM_JOB_TEMPLATES,
    TPCDS_HEAVY_TEMPLATES,
    TPCDS_TABLES,
    build_tpcds_catalog,
    build_tpcds_specs,
    make_workload,
    perturb_workload,
)


class TestOperators:
    def test_every_operator_has_profile(self):
        assert set(OPERATOR_PROFILES) == set(Operator)

    def test_operator_indices_are_unique_and_dense(self):
        indices = sorted(op.index for op in Operator)
        assert indices == list(range(NUM_OPERATORS))

    def test_scan_is_io_heavy_and_join_is_cpu_heavy(self):
        assert OPERATOR_PROFILES[Operator.SEQ_SCAN].io_per_row > OPERATOR_PROFILES[Operator.SEQ_SCAN].cpu_per_row
        assert OPERATOR_PROFILES[Operator.HASH_JOIN].cpu_per_row > OPERATOR_PROFILES[Operator.HASH_JOIN].io_per_row


class TestPlanNodes:
    def test_scan_requires_table(self):
        with pytest.raises(WorkloadError):
            PlanNode(operator=Operator.SEQ_SCAN, estimated_rows=10.0)

    def test_negative_rows_rejected(self):
        with pytest.raises(WorkloadError):
            PlanNode(operator=Operator.LIMIT, estimated_rows=-1.0)

    def test_predicate_selectivity_bounds(self):
        with pytest.raises(WorkloadError):
            Predicate(column=0, selectivity=0.0)
        with pytest.raises(WorkloadError):
            Predicate(column=0, selectivity=1.5)

    def test_node_work_scales_with_rows(self):
        small = PlanNode(operator=Operator.SEQ_SCAN, table="t", estimated_rows=100.0)
        large = PlanNode(operator=Operator.SEQ_SCAN, table="t", estimated_rows=1000.0)
        assert large.io_work() == pytest.approx(10 * small.io_work())


@pytest.fixture(scope="module")
def simple_plan() -> PhysicalPlan:
    scan_a = PlanNode(operator=Operator.SEQ_SCAN, table="a", estimated_rows=1000.0,
                      predicates=(Predicate(column=0, selectivity=0.2),))
    scan_b = PlanNode(operator=Operator.INDEX_SCAN, table="b", estimated_rows=100.0,
                      predicates=(Predicate(column=1, selectivity=0.01, uses_index=True),))
    join = PlanNode(operator=Operator.HASH_JOIN, children=[scan_a, scan_b], estimated_rows=500.0)
    agg = PlanNode(operator=Operator.HASH_AGGREGATE, children=[join], estimated_rows=10.0)
    return PhysicalPlan(agg)


class TestPhysicalPlan:
    def test_node_count_and_height(self, simple_plan):
        assert simple_plan.num_nodes == 4
        assert simple_plan.height == 2

    def test_root_has_no_parent(self, simple_plan):
        assert simple_plan.parent_of(0) is None

    def test_tables_collects_scans(self, simple_plan):
        tables = simple_plan.tables()
        assert set(tables) == {"a", "b"}
        assert tables["a"] == pytest.approx(1000.0)

    def test_tree_distances_symmetric_and_zero_diagonal(self, simple_plan):
        distances = simple_plan.tree_distances()
        assert np.allclose(distances, distances.T)
        assert np.allclose(np.diag(distances), 0.0)
        assert distances.max() <= simple_plan.num_nodes

    def test_adjacency_matches_edges(self, simple_plan):
        adjacency = simple_plan.adjacency()
        assert adjacency.sum() == pytest.approx(2 * (simple_plan.num_nodes - 1))

    def test_counts(self, simple_plan):
        assert simple_plan.num_joins() == 1
        assert simple_plan.num_scans() == 2

    def test_parallel_fraction_in_unit_interval(self, simple_plan):
        assert 0.0 <= simple_plan.parallel_fraction() <= 1.0

    def test_to_dict_roundtrips_structure(self, simple_plan):
        payload = simple_plan.to_dict()
        assert payload["operator"] == Operator.HASH_AGGREGATE.value
        assert len(payload["children"]) == 1


class TestStatisticsAndCatalog:
    def test_column_histogram_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            ColumnStats(name="c", histogram=tuple([0.5] * HISTOGRAM_BINS))

    def test_selectivity_features_monotone(self):
        hist = tuple([1.0 / HISTOGRAM_BINS] * HISTOGRAM_BINS)
        col = ColumnStats(name="c", histogram=hist)
        low = col.selectivity_features(0.1).sum()
        high = col.selectivity_features(0.9).sum()
        assert high >= low

    def test_catalog_scaling_facts_vs_dimensions(self):
        catalog = build_tpcds_catalog(seed=0)
        scaled = catalog.scaled(10.0)
        fact_ratio = scaled.table("store_sales").row_count / catalog.table("store_sales").row_count
        dim_ratio = scaled.table("customer").row_count / catalog.table("customer").row_count
        assert fact_ratio == pytest.approx(10.0)
        assert dim_ratio < fact_ratio

    def test_catalog_lookup_and_errors(self):
        catalog = build_tpcds_catalog(seed=0)
        assert "store_sales" in catalog
        assert catalog.table_index("customer") == catalog.table_names().index("customer")
        with pytest.raises(WorkloadError):
            catalog.table("not_a_table")

    def test_catalog_generation_is_deterministic(self):
        a = build_tpcds_catalog(seed=3)
        b = build_tpcds_catalog(seed=3)
        assert a.table("item").columns[0].histogram == b.table("item").columns[0].histogram


class TestPlanBuilder:
    def test_build_is_deterministic(self):
        catalog = build_tpcds_catalog(seed=0)
        spec = build_tpcds_specs(seed=0)[13]
        plan_a = PlanBuilder(catalog, seed=0).build(spec)
        plan_b = PlanBuilder(catalog, seed=0).build(spec)
        assert plan_a.to_dict() == plan_b.to_dict()

    def test_plan_covers_all_template_tables(self):
        catalog = build_tpcds_catalog(seed=0)
        spec = build_tpcds_specs(seed=0)[0]
        plan = PlanBuilder(catalog, seed=0).build(spec)
        assert set(plan.tables()) == set(spec.tables)

    def test_invalid_template_specs_rejected(self):
        with pytest.raises(WorkloadError):
            TemplateSpec(template_id=1, tables=(), selectivities=(), join_count=0)
        with pytest.raises(WorkloadError):
            TemplateSpec(template_id=1, tables=("a",), selectivities=(0.5, 0.5), join_count=0)
        with pytest.raises(WorkloadError):
            TemplateSpec(template_id=1, tables=("a", "b"), selectivities=(0.5, 0.5), join_count=5)


class TestPlanFeaturizer:
    def test_feature_matrix_shape(self, simple_plan):
        catalog = Catalog.generate(["a", "b"], {"a"}, {"a": 1000.0, "b": 100.0}, seed=0)
        featurizer = PlanFeaturizer(catalog)
        features = featurizer.featurize(simple_plan)
        assert features.node_features.shape == (4, featurizer.feature_dim)
        assert features.heights.shape == (4,)
        assert features.distances.shape == (4, 4)

    def test_operator_one_hot_set(self, simple_plan):
        catalog = Catalog.generate(["a", "b"], {"a"}, {"a": 1000.0, "b": 100.0}, seed=0)
        features = PlanFeaturizer(catalog).featurize(simple_plan)
        root_vector = features.node_features[0]
        assert root_vector[Operator.HASH_AGGREGATE.index] == 1.0
        assert root_vector[: NUM_OPERATORS].sum() == 1.0


def _bfs_distances(plan: PhysicalPlan) -> np.ndarray:
    """All-pairs tree distances by one breadth-first search per node."""
    n = plan.num_nodes
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for node_id in range(n):
        parent_id = plan.parent_of(node_id)
        if parent_id is not None:
            neighbours[node_id].append(parent_id)
            neighbours[parent_id].append(node_id)
    distances = np.full((n, n), np.inf)
    for start in range(n):
        distances[start, start] = 0.0
        frontier, depth, seen = [start], 0, {start}
        while frontier:
            depth += 1
            next_frontier = []
            for node_id in frontier:
                for neighbour in neighbours[node_id]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        distances[start, neighbour] = depth
                        next_frontier.append(neighbour)
            frontier = next_frontier
    return distances


def _node_vector(featurizer: PlanFeaturizer, node: PlanNode) -> np.ndarray:
    """One node's feature row, built alone."""
    catalog = featurizer.catalog
    vector = np.zeros(featurizer.feature_dim)
    vector[node.operator.index] = 1.0
    offset = NUM_OPERATORS
    if node.table is not None and node.table in catalog:
        vector[offset + catalog.table_index(node.table)] = 1.0
    offset += len(catalog)
    if node.predicates and node.table is not None and node.table in catalog:
        stats = catalog.table(node.table)
        pooled = np.zeros(HISTOGRAM_BINS)
        for predicate in node.predicates:
            pooled += stats.column(predicate.column).selectivity_features(predicate.selectivity)
        vector[offset : offset + HISTOGRAM_BINS] = pooled / len(node.predicates)
    offset += HISTOGRAM_BINS
    profile = OPERATOR_PROFILES[node.operator]
    selectivity = float(np.mean([p.selectivity for p in node.predicates])) if node.predicates else 1.0
    vector[offset:] = [
        np.log1p(node.estimated_rows) / 20.0,
        profile.cpu_per_row,
        profile.io_per_row,
        profile.memory_per_row,
        selectivity,
        float(any(p.uses_index for p in node.predicates)),
    ]
    return vector


class TestPlanStructureOracles:
    """The matrix featurizer and the ancestor-closure distances against one-node-at-a-time references."""

    @pytest.mark.parametrize(
        "bench_name, query_scale", [("tpch", 1.0), ("job", 1.0), ("tpcds", 1.0), ("tpcds", 1.6)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_plan_is_bitwise_equal(self, bench_name, query_scale, seed):
        workload = make_workload(bench_name, scale_factor=1.0, query_scale=query_scale, seed=seed)
        featurizer = PlanFeaturizer(workload.catalog)
        for query in workload.batch_query_set():
            plan = query.plan
            features = featurizer.featurize(plan)
            assert features.distances.tobytes() == _bfs_distances(plan).tobytes()
            expected = np.stack([_node_vector(featurizer, node) for node in plan.nodes()])
            assert features.node_features.tobytes() == expected.tobytes()
            assert features.heights.tolist() == [plan.depth_of(node_id) for node_id in range(plan.num_nodes)]


class TestWorkloads:
    @pytest.mark.parametrize(
        "benchmark_name,expected",
        [("tpcds", 99), ("tpch", 22), ("job", NUM_JOB_TEMPLATES)],
    )
    def test_template_counts(self, benchmark_name, expected):
        assert make_workload(benchmark_name, seed=0).num_queries == expected

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("tpcc")

    def test_query_scale_duplicates_templates(self, tpcds_workload):
        doubled = tpcds_workload.with_query_scale(2.0)
        assert doubled.num_queries == 2 * tpcds_workload.num_queries

    def test_fractional_query_scale_below_one(self, tpcds_workload):
        reduced = tpcds_workload.with_query_scale(0.8)
        assert reduced.num_queries == pytest.approx(0.8 * tpcds_workload.num_queries, abs=1)

    def test_fractional_query_scale_above_one(self, tpcds_workload):
        grown = tpcds_workload.with_query_scale(1.2)
        assert grown.num_queries == pytest.approx(1.2 * tpcds_workload.num_queries, abs=1)

    def test_data_scale_increases_work(self, tpcds_workload):
        bigger = tpcds_workload.with_data_scale(5.0)
        assert bigger.batch_query_set().total_work() > tpcds_workload.batch_query_set().total_work()

    def test_heavy_templates_are_heavier_than_median(self, tpcds_workload):
        batch = tpcds_workload.batch_query_set()
        works = {q.template_id: q.total_work for q in batch}
        median = np.median(list(works.values()))
        heavy = [works[t] for t in TPCDS_HEAVY_TEMPLATES if t in works]
        assert np.mean(heavy) > 2 * median

    def test_workload_generation_is_deterministic(self):
        a = make_workload("tpch", seed=5).batch_query_set()
        b = make_workload("tpch", seed=5).batch_query_set()
        assert [q.total_work for q in a] == [q.total_work for q in b]

    def test_different_seeds_differ(self):
        a = make_workload("tpch", seed=1).batch_query_set()
        b = make_workload("tpch", seed=2).batch_query_set()
        assert [q.total_work for q in a] != [q.total_work for q in b]

    def test_perturb_workload_factors(self, tpcds_workload):
        perturbed = perturb_workload(tpcds_workload, data_factor=1.2, query_factor=0.9)
        assert perturbed.data_scale == pytest.approx(1.2)
        assert perturbed.num_queries < tpcds_workload.num_queries
        with pytest.raises(WorkloadError):
            perturb_workload(tpcds_workload, data_factor=0.0)

    def test_invalid_scales_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("tpch", scale_factor=-1.0)

    def test_query_fractions_and_flags(self, tpch_batch):
        for query in tpch_batch:
            assert 0.0 <= query.io_fraction <= 1.0
            assert query.cpu_fraction == pytest.approx(1.0 - query.io_fraction)
            assert query.total_work > 0
            assert query.tables

    def test_tpcds_tables_cover_channels(self):
        assert {"store_sales", "catalog_sales", "web_sales"} <= set(TPCDS_TABLES)


class TestBatchQuerySet:
    def test_empty_batch_rejected(self):
        with pytest.raises(WorkloadError):
            BatchQuerySet([])

    def test_reindexing_does_not_mutate_original(self, tpch_batch):
        original_ids = [q.query_id for q in tpch_batch]
        subset = tpch_batch.subset([5, 7, 9])
        assert [q.query_id for q in subset] == [0, 1, 2]
        assert [q.query_id for q in tpch_batch] == original_ids

    def test_sorted_by_cost_descending(self, tpch_batch):
        ordered = tpch_batch.sorted_by_cost()
        works = [q.total_work for q in ordered]
        assert works == sorted(works, reverse=True)

    def test_table_footprint_aggregates(self, tpch_batch):
        footprint = tpch_batch.table_footprint()
        assert footprint["lineitem"] > 0
