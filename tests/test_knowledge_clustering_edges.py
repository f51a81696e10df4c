"""Edge-case coverage for external knowledge and scheduling-gain clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BQSchedConfig
from repro.core import ExternalKnowledge, QueryClusters, cluster_queries
from repro.dbms import ConfigurationSpace
from repro.exceptions import SchedulingError
from repro.workloads import BatchQuerySet


@pytest.fixture()
def space():
    return ConfigurationSpace(BQSchedConfig.small(seed=0).scheduler)


def _knowledge(space, config_times=None, average_times=None):
    return ExternalKnowledge(
        config_space=space,
        config_times=config_times or {},
        average_times=average_times or {},
    )


class TestKnowledgeEdges:
    def test_expected_time_unseen_query_raises(self, space):
        knowledge = _knowledge(space)
        with pytest.raises(SchedulingError):
            knowledge.expected_time(99, 0)

    def test_expected_time_unseen_config_falls_back_to_average(self, space):
        knowledge = _knowledge(space, config_times={4: {0: 2.0}}, average_times={4: 3.5})
        # config 1 was never observed for query 4 -> average time
        assert knowledge.expected_time(4, 1) == 3.5
        # observed config wins over the average
        assert knowledge.expected_time(4, 0) == 2.0

    def test_expected_time_unseen_config_without_average_raises(self, space):
        knowledge = _knowledge(space, config_times={4: {}})
        with pytest.raises(SchedulingError):
            knowledge.expected_time(4, 1)

    def test_average_time_falls_back_to_config_zero(self, space):
        knowledge = _knowledge(space, config_times={7: {0: 1.25}})
        assert knowledge.average_time(7) == 1.25

    def test_improvement_profile_without_baseline_is_empty(self, space):
        knowledge = _knowledge(space, config_times={1: {2: 4.0}})  # no config 0 probe
        assert knowledge.improvement_profile(1) == {}

    def test_improvement_profile_zero_baseline(self, space):
        knowledge = _knowledge(space, config_times={1: {0: 0.0, 1: 0.0}})
        profile = knowledge.improvement_profile(1)
        assert profile[1] == (0.0, 0.0)


class TestClusteringEdges:
    def test_no_clusters_raises(self):
        with pytest.raises(SchedulingError):
            QueryClusters(assignments=np.array([], dtype=np.int64), intra_orders=[])

    def test_singleton_batch_single_cluster(self, tpch_batch):
        batch = BatchQuerySet([tpch_batch[0]])
        clusters = cluster_queries(batch, np.zeros((1, 1)), 1)
        assert clusters.num_clusters == 1
        assert clusters.members(0) == [0]
        assert clusters.assignments[0] == 0
        assert clusters.sizes() == [1]

    def test_num_clusters_equals_batch_size_gives_singletons(self, tpch_batch):
        n = len(tpch_batch)
        gain = np.zeros((n, n))
        clusters = cluster_queries(tpch_batch, gain, n)
        assert clusters.num_clusters == n
        assert clusters.sizes() == [1] * n
        for query in tpch_batch:
            assert clusters.members(clusters.assignments[query.query_id]) == [query.query_id]

    def test_all_in_one_cluster(self, tpch_batch):
        n = len(tpch_batch)
        clusters = cluster_queries(tpch_batch, np.ones((n, n)), 1)
        assert clusters.num_clusters == 1
        assert sorted(clusters.members(0)) == list(range(n))

    def test_bad_gain_matrix_shape_raises(self, tpch_batch):
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((3, 3)), 2)

    def test_num_clusters_out_of_range_raises(self, tpch_batch):
        n = len(tpch_batch)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((n, n)), 0)
        with pytest.raises(SchedulingError):
            cluster_queries(tpch_batch, np.zeros((n, n)), n + 1)

    def test_mcf_intra_order_ties_deterministic(self, space, tpch_batch):
        n = len(tpch_batch)
        knowledge = _knowledge(space, average_times={q.query_id: 1.0 for q in tpch_batch})
        # equal costs: stable sort keeps ascending id order inside the cluster,
        # every time
        for _ in range(2):
            assert cluster_queries(tpch_batch, np.ones((n, n)), 1, knowledge=knowledge).intra_order(0) == list(range(n))
        # a single slower query jumps to the front; ties behind it stay stable
        knowledge.average_times[7] = 9.0
        order = cluster_queries(tpch_batch, np.ones((n, n)), 1, knowledge=knowledge).intra_order(0)
        assert order == [7] + [i for i in range(n) if i != 7]

    def test_batch_intra_order_without_knowledge(self, tpch_batch):
        n = len(tpch_batch)
        clusters = cluster_queries(tpch_batch, np.ones((n, n)), 1)
        assert clusters.intra_order(0) == list(range(n))
