"""The cluster-mode action mask: one member-union matrix per clustering, ANDed with the live clusters.

The per-member union loop it replaced is kept here as the oracle.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.core import AdaptiveMask, ExternalKnowledge, QueryClusters, SchedulingEnv
from repro.core.clustering import cluster_queries
from repro.dbms import Cluster, ConfigurationSpace


def member_loop(clusters, mask: AdaptiveMask, remaining: list, num_configs: int) -> np.ndarray:
    """``(clusters, configs)``: the loop the cached matrix replaced, configuration sets unioned member by member."""
    per_slot = np.zeros((clusters.num_clusters, num_configs), dtype=bool)
    for cluster_id, left in enumerate(remaining):
        if not left:
            continue
        allowed: set[int] = set()
        for query_id in clusters.members(cluster_id):
            allowed.update(mask.allowed_configs(query_id))
        per_slot[cluster_id, sorted(allowed) if allowed else list(range(num_configs))] = True
    return per_slot


def legacy_action_mask(env: SchedulingEnv) -> np.ndarray:
    """The flat cluster-mode mask as the member loop built it, placement columns included."""
    per_slot = member_loop(env.clusters, env.mask, env._cluster_remaining, env.num_configs)
    available = np.zeros(env.num_instances, dtype=bool)
    available[env.available_instances()] = True
    return (per_slot[:, None, :] & available[None, :, None]).reshape(env.action_dim)


class TestUnionMatrix:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_member_loop(self, data):
        num_queries = data.draw(st.integers(1, 12), label="queries")
        num_clusters = data.draw(st.integers(1, num_queries), label="clusters")
        num_configs = data.draw(st.integers(1, 5), label="configs")
        labels = data.draw(st.lists(st.integers(0, num_clusters - 1), min_size=num_queries, max_size=num_queries))
        members = [[q for q in range(num_queries) if labels[q] == c] for c in range(num_clusters)]
        clusters = QueryClusters(np.asarray(labels), members)  # a label may go unused: an empty cluster
        allowed = data.draw(
            st.dictionaries(
                st.integers(0, num_queries - 1),
                st.lists(st.integers(0, num_configs - 1), min_size=1, max_size=num_configs),
            ),
            label="allowed",
        )
        mask = AdaptiveMask(num_queries, num_configs, allowed)
        pending = data.draw(st.lists(st.booleans(), min_size=num_queries, max_size=num_queries), label="pending")
        remaining = [[q for q in group if pending[q]] for group in members]
        env = SimpleNamespace(clusters=clusters, mask=mask, _cluster_union=None, _cluster_remaining=remaining)

        got = SchedulingEnv._cluster_slot_mask(env)
        assert got.tobytes() == member_loop(clusters, mask, remaining, num_configs).tobytes()
        union = env._cluster_union[2]
        SchedulingEnv._cluster_slot_mask(env)
        assert env._cluster_union[2] is union  # built once per (membership, allowed matrix)
        env.mask = AdaptiveMask.unmasked(num_queries, num_configs)
        assert SchedulingEnv._cluster_slot_mask(env).tobytes() == (
            member_loop(clusters, env.mask, remaining, num_configs).tobytes()
        )


def clustered_env(backend: str) -> SchedulingEnv:
    """A clustered TPC-H round whose mask prunes unevenly: every member of cluster 0 allows only
    configuration 0, the rest allow random non-empty sets, and one query keeps the default."""
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 2
    space = ConfigurationSpace()
    engine = {
        "engine": lambda: DatabaseEngine(DBMSProfile.dbms_x(), seed=0),
        "fleet-1": lambda: Cluster.from_names(["x"], seed=0),
        "fleet-3": lambda: Cluster.from_names(["x", "y", "z"], seed=0),
    }[backend]()
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    n, num_configs = len(batch), len(space)
    clusters = cluster_queries(batch, np.random.default_rng(5).random((n, n)), 6, knowledge=knowledge)
    rng = np.random.default_rng(9)
    allowed = {
        query_id: [0] if clusters.assignments[query_id] == 0 else
        sorted(rng.choice(num_configs, size=int(rng.integers(1, num_configs + 1)), replace=False).tolist())
        for query_id in range(1, n)
    }  # fmt: skip
    if clusters.assignments[0] == 0:
        allowed[0] = [0]
    return SchedulingEnv(
        batch=batch,
        backend=engine,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask(n, num_configs, allowed),
        clusters=clusters,
    )


class TestClusteredRound:
    @pytest.mark.parametrize("backend", ["engine", "fleet-1", "fleet-3"])
    def test_every_decision_matches_the_member_loop(self, backend):
        env = clustered_env(backend)
        clusters, num_configs = env.clusters, env.num_configs
        everything_live = member_loop(clusters, env.mask, [[0]] * clusters.num_clusters, num_configs)
        assert num_configs > 1 and everything_live[0].tolist() == [True] + [False] * (num_configs - 1)
        assert not everything_live.all()
        env.reset(round_id=0)
        rng = np.random.default_rng(0)
        drained_seen, union = 0, None
        while True:
            mask = env.action_mask()
            assert mask.tobytes() == legacy_action_mask(env).tobytes()
            union = env._cluster_union[2] if union is None else union
            assert env._cluster_union[2] is union  # built at the first decision, reused by every other
            per_cluster = mask.reshape(clusters.num_clusters, -1, num_configs)
            for cluster_id, left in enumerate(env._cluster_remaining):
                if not left:
                    assert not per_cluster[cluster_id].any()
                    drained_seen += 1
                elif cluster_id == 0:
                    assert per_cluster[0, :, 0].any() and not per_cluster[0, :, 1:].any()
            step = env.step(int(rng.choice(np.flatnonzero(mask))))
            if step.done:
                break
        assert drained_seen > 0
