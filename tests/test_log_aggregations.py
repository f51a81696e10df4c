"""The grouped log aggregations against the per-key ``np.mean`` loops they replaced.

``grouped_means``, ``ExecutionLog.average_execution_times`` and
``ExternalKnowledge.update_from_log`` must give the loops' means bit for bit
(``float.hex``) and their dict order, on logs with 1, 3 and 9 or more records
per key (9 or more puts ``np.mean`` in its unrolled pairwise sum), logs that
mix configurations per query, a fleet log and an empty log.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExternalKnowledge
from repro.dbms import Cluster, ExecutionLog, QueryExecutionRecord, RoundLog
from repro.dbms.logs import grouped_means
from knowledge_oracle import loop_average_execution_times, loop_grouped_means, loop_update_from_log

#: Records per query of the synthetic logs (each count on two queries).
COUNTS = (1, 3, 9, 17, 130)


def _synthetic_log(space, mixed: bool, seed: int = 0) -> ExecutionLog:
    """``max(COUNTS)`` rounds over ten scattered query ids, each in as many rounds as its count.

    Rounds list their queries in shuffled order, so first appearance is not
    id order; times span four decades, so the order of a sum shows in its
    last bits.  ``mixed`` draws every record's configuration at random.
    """
    rng = np.random.default_rng(seed)
    query_ids = [(7 * index + 3) % 23 for index in range(2 * len(COUNTS))]
    counts = dict(zip(query_ids, COUNTS * 2))
    log = ExecutionLog()
    for round_id in range(max(COUNTS)):
        round_log = RoundLog(round_id=round_id)
        present = [query_id for query_id in query_ids if counts[query_id] > round_id]
        for connection, query_id in enumerate(rng.permutation(present).tolist()):
            submit = float(rng.uniform(0.0, 50.0))
            params = space[int(rng.integers(len(space)))] if mixed else space.default
            round_log.add(
                QueryExecutionRecord(
                    query_id=query_id,
                    query_name=f"q{query_id}",
                    template_id=query_id,
                    connection=connection,
                    parameters=params,
                    submit_time=submit,
                    finish_time=submit + float(10.0 ** rng.uniform(-2.0, 2.0)),
                )
            )
        log.add_round(round_log)
    return log


def _orders(batch, rounds: int) -> list[list[int]]:
    base = [query.query_id for query in batch]
    return [np.random.default_rng(index).permutation(base).tolist() for index in range(rounds)]


def _engine_mixed_log(engine, batch, space) -> ExecutionLog:
    """Rounds of the engine under every configuration in turn, as online rounds feed ``ingest_online_log``."""
    log = ExecutionLog()
    for index, params in enumerate(space):
        log.extend(engine.collect_logs(batch, _orders(batch, 2 + index), params, num_connections=4))
    return log


def _fleet_log(batch, space) -> ExecutionLog:
    fleet = Cluster.from_names(["x", "y", "z"], seed=0)
    log = fleet.collect_logs(batch, _orders(batch, 3), space.default, num_connections=2)
    log.extend(fleet.collect_logs(batch, _orders(batch, 2), space[len(space) - 1], num_connections=2))
    return log


@pytest.fixture(scope="module")
def logs(engine_x, tpch_batch, config_space):
    return {
        "per-key 1/3/9+": _synthetic_log(config_space, mixed=False),
        "mixed configurations": _synthetic_log(config_space, mixed=True, seed=1),
        "engine, every configuration": _engine_mixed_log(engine_x, tpch_batch, config_space),
        "fleet": _fleet_log(tpch_batch, config_space),
        "empty": ExecutionLog(),
    }


LOG_NAMES = ["per-key 1/3/9+", "mixed configurations", "engine, every configuration", "fleet", "empty"]


def _hex(table: dict) -> list:
    """``table``'s items in dict order, floats as ``float.hex`` and inner dicts recursively."""
    return [(key, _hex(value) if isinstance(value, dict) else value.hex()) for key, value in table.items()]


def _prefilled(space, log) -> ExternalKnowledge:
    """Knowledge already holding every other query of ``log`` (reverse id order, one stale config each)."""
    query_ids = sorted({record.query_id for record in log.all_records()}, reverse=True)[::2]
    return ExternalKnowledge(
        config_space=space,
        config_times={query_id: {len(space) - 1: 1.5, 0: 2.5} for query_id in query_ids},
        average_times={query_id: 2.0 for query_id in query_ids},
    )


class TestGroupedMeans:
    @pytest.mark.parametrize("num_keys, size", [(1, 1), (5, 12), (40, 2000), (3, 1000)])
    def test_matches_one_mean_per_key(self, num_keys, size):
        rng = np.random.default_rng(size)
        keys = rng.integers(0, num_keys, size=size) * 11
        values = 10.0 ** rng.uniform(-3.0, 3.0, size=size)
        first, means = grouped_means(keys, values)
        expected_first, expected_means = loop_grouped_means(keys, values)
        assert first.tolist() == expected_first.tolist()
        assert [mean.hex() for mean in means.tolist()] == [mean.hex() for mean in expected_means.tolist()]

    def test_sizes_past_eight_sum_pairwise(self):
        """The large-group cases have teeth: a left-to-right sum differs from ``np.mean`` there."""
        rng = np.random.default_rng(1000)
        keys = rng.integers(0, 3, size=1000) * 11
        values = 10.0 ** rng.uniform(-3.0, 3.0, size=1000)
        first, means = grouped_means(keys, values)
        sequential = [sum(values[keys == keys[index]].tolist()) / np.sum(keys == keys[index]) for index in first]
        assert any(left != mean for left, mean in zip(sequential, means.tolist()))

    def test_empty(self):
        first, means = grouped_means(np.empty(0, dtype=np.int64), np.empty(0))
        assert first.shape == means.shape == (0,)


class TestKnowledgeRefresh:
    @pytest.mark.parametrize("name", LOG_NAMES)
    def test_average_execution_times_matches_loop(self, logs, name):
        log = logs[name]
        assert _hex(log.average_execution_times()) == _hex(loop_average_execution_times(log))

    @pytest.mark.parametrize("prefill", [False, True], ids=["empty knowledge", "prefilled knowledge"])
    @pytest.mark.parametrize("name", LOG_NAMES)
    def test_update_from_log_matches_loop(self, logs, config_space, name, prefill):
        log = logs[name]
        built = [
            _prefilled(config_space, log) if prefill else ExternalKnowledge(config_space=config_space)
            for _ in range(2)
        ]
        built[0].update_from_log(log)
        loop_update_from_log(built[1], log)
        grouped, looped = built
        assert grouped.version == looped.version == 1
        assert _hex(grouped.average_times) == _hex(looped.average_times)
        assert _hex(grouped.config_times) == _hex(looped.config_times)

    def test_logs_cover_their_cases(self, logs, config_space):
        counts = {}
        for record in logs["per-key 1/3/9+"].all_records():
            counts[record.query_id] = counts.get(record.query_id, 0) + 1
        assert set(counts.values()) == set(COUNTS)
        for name in ("mixed configurations", "engine, every configuration", "fleet"):
            per_query: dict = {}
            for record in logs[name].all_records():
                per_query.setdefault(record.query_id, set()).add(record.parameters)
            assert max(len(configs) for configs in per_query.values()) > 1, name
        assert len({record.instance for record in logs["fleet"].all_records()}) == 3
