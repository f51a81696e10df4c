"""The engine's step is the fluid model of ``engine_oracle``, bit for bit.

Every rate evaluation of an ``ExecutionSession`` unit must equal the oracle's
``progress_rates`` on the same running states (values with ``==``, keys in
running order), and whole round logs must hash to digests pinned before the
per-attempt rate terms, the one-pass finish scan and the cached buffer fill
went in.  The grid spans 2, 6 and 18 connections so the contention branch
(demand above capacity) is pinned too, not only the uncontended rounds the
facade's 4-6 connection digests cover.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import engine_oracle as oracle
from repro.dbms import (
    BufferPool,
    Cluster,
    DatabaseEngine,
    DBMSProfile,
    ExecutionSession,
    FailureProfile,
    OutageWindow,
    RunningParameters,
)
from repro.dbms.engine import next_instance_in_rotation
from repro.workloads import make_workload

CONNECTIONS = (2, 6, 18)
MIXES = ("default", "4w/256MB", "per-query")
ROUND_ID = 3

#: SHA-256 of every grid round log of one (benchmark, profile), in
#: ``CONNECTIONS`` x ``MIXES`` order, with times written as ``float.hex``.
GRID_DIGESTS = {
    ("tpch", "x"): "f6a2aa8ae29dbdfb87da89620ede7eb03e44f722a803b088f0259d9a84924499",
    ("tpch", "y"): "3658e6077fa62b4fe0c147e9948c0e4965ea9706c4a37c211e17b62210be9d47",
    ("tpch", "z"): "871f44238ca9566a90eb01435ce5273e1f0a13639b81efe6f3f4310c3785b460",
    ("tpcds", "x"): "b2b749b2a675e5f686cbf93f6f55facba2a730c8b14511018a3e46bb1444815e",
    ("tpcds", "y"): "ff410730be6824408c58006dffd4741ca28eb4f58fc5205887a1b3a4715af024",
    ("tpcds", "z"): "cbf5ba5bb159406eab5a60cff3eb195287b7eec0a94ab66e26f8c2e860ebef29",
    ("job", "x"): "5cd5f3768b0430e227d166b9207b5ee9c6910eb594e0c93aa1604c4761ba3fd4",
    ("job", "y"): "f88c87991c8ec008e956d31ceb499001e0625331429e59d824df825d7c1f23ef",
    ("job", "z"): "e0df3bc92486dd20b4d2e6508d350ce366d90cf8cd1f35d3c3a38b6d59b7122a",
}
#: SHA-256 of the fleet round's delivered events and log.
FLEET_DIGEST = "b9a98486649352a19c3e896b3ab3250fa2c27a52c3cd420d3be655f2fbdf07fd"


@lru_cache(maxsize=None)
def _batch(bench: str):
    return make_workload(bench, scale_factor=1.0, seed=0).batch_query_set()


def _order(batch) -> list[int]:
    return [int(i) for i in np.random.default_rng(11).permutation(len(batch))]


def _parameters(mix: str, batch) -> "RunningParameters | dict[int, RunningParameters]":
    if mix == "default":
        return RunningParameters()
    if mix == "4w/256MB":
        return RunningParameters(4, 256)
    space = [RunningParameters(workers, memory) for workers in (1, 2, 4) for memory in (64, 256, 1024)]
    return {query.query_id: space[(7 * query.query_id) % len(space)] for query in batch}


def _record_lines(log) -> list[str]:
    return [
        f"{r.query_id} {r.connection} {r.instance} {float(r.submit_time).hex()} {float(r.finish_time).hex()}"
        for r in log.records
    ]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture
def checked_rates(monkeypatch):
    """Every ``_progress_rates`` read of every unit is checked against the oracle."""
    original = ExecutionSession._progress_rates
    calls = []

    def checked(self):
        rates = original(self)
        expected = oracle.progress_rates(self.profile, list(self.running.values()), self.buffer)
        assert list(rates.items()) == list(expected.items())
        calls.append(len(rates))
        return rates

    monkeypatch.setattr(ExecutionSession, "_progress_rates", checked)
    return calls


def _assert_terms_follow_running(unit) -> None:
    """A unit holds rate terms for its running attempts only, and counts their table scans."""
    assert list(unit._terms) == list(unit.running)
    scans = Counter(table for state in unit.running.values() for table in state.query.tables)
    assert {table: count for table, count in unit._scans.items() if count} == scans


def _grid_lines(bench: str, profile: str) -> list[str]:
    batch = _batch(bench)
    engine = DatabaseEngine(DBMSProfile.by_name(profile), seed=0)
    lines = []
    for connections in CONNECTIONS:
        for mix in MIXES:
            log = engine.execute_order(
                batch, _order(batch), _parameters(mix, batch), num_connections=connections, round_id=ROUND_ID
            )
            lines.append(f"{connections} {mix}")
            lines.extend(_record_lines(log))
    return lines


def _fleet_lines() -> list[str]:
    """A 3-instance round with random faults, an outage on instance 1, a park
    and unpark of instance 2 and some ``limit`` advances."""
    batch = _batch("tpch")
    cluster = Cluster.from_names(("x", "y", "z"), seed=0)
    faults = FailureProfile(
        error_rate=0.1, hang_rate=0.1, outages=(OutageWindow(instance=1, start=3.0, duration=4.0),)
    )
    session = cluster.new_session(batch, num_connections=4, round_id=ROUND_ID, faults=faults)
    parameters = _parameters("per-query", batch)
    lines, cursor, step = [], 0, 0
    while not session.is_done:
        assert step < 10_000
        while session.pending and session.has_idle_connection:
            query_id = session.pending[0]
            instance = next_instance_in_rotation(session.idle_instances(), cursor, session.num_instances)
            cursor = (instance + 1) % session.num_instances
            connection = session.submit(query_id, parameters[query_id], instance=instance)
            lines.append(f"submit {query_id} {instance} {connection} {session.current_time.hex()}")
        if step == 8:
            session.park_instance(2)
        if step == 20:
            session.unpark_instance(2)
        limit = session.current_time + 0.25 if step % 5 == 4 else None
        event = session.advance(limit=limit)
        if event is None:
            lines.append(f"idle {float(session.current_time).hex()}")
        else:
            lines.append(
                f"{event.query_id} {event.connection} {event.instance} {event.failed} {event.failure} "
                f"{float(event.finish_time).hex()}"
            )
        for unit in session.instances:
            _assert_terms_follow_running(unit)
        step += 1
    for unit in session.instances:
        assert not unit._terms and not any(unit._scans.values())
    return lines + _record_lines(session.log)


@pytest.mark.parametrize("bench, profile", list(GRID_DIGESTS))
def test_grid_rounds_match_the_oracle_and_their_pins(bench, profile, checked_rates):
    assert _digest(_grid_lines(bench, profile)) == GRID_DIGESTS[bench, profile]
    assert max(checked_rates) == 18


def test_fleet_round_matches_the_oracle_and_its_pin(checked_rates):
    assert _digest(_fleet_lines()) == FLEET_DIGEST
    assert checked_rates


def test_contended_round_times_are_floats():
    """Contention takes ``math.sqrt``: no NumPy scalar reaches a round log."""
    batch = _batch("tpcds")
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    log = engine.execute_order(
        batch, _order(batch), RunningParameters(4, 256), num_connections=18, round_id=ROUND_ID
    )
    assert len(log) == len(batch)
    for record in log.records:
        assert type(record.submit_time) is float and type(record.finish_time) is float


def test_a_finished_round_holds_no_rate_terms():
    batch = _batch("tpch")
    session = DatabaseEngine(DBMSProfile.dbms_x(), seed=0).new_session(batch, num_connections=4, round_id=0)
    unit = session.instances[0]
    for query_id in list(session.pending):
        while not session.has_idle_connection:
            session.advance()
            _assert_terms_follow_running(unit)
        session.submit(query_id, RunningParameters())
        if query_id % 5 == 0:
            session.cancel(query_id)
            session.submit(query_id, RunningParameters(2, 256))
        _assert_terms_follow_running(unit)
    while not session.is_done:
        session.advance()
    assert not unit._terms and not unit.running and not any(unit._scans.values())


class _ReadCheckedPool(BufferPool):
    """A pool whose every ``used_rows`` read, eviction steps included, is checked against a fresh sum."""

    reads = 0

    @property
    def used_rows(self) -> float:
        cached = super().used_rows
        assert cached == sum(self._resident.values())
        self.reads += 1
        return cached


def test_used_rows_is_a_fresh_sum_at_every_read():
    rng = np.random.default_rng(5)
    pool, reference = _ReadCheckedPool(1000.0), oracle.ReferenceBufferPool(1000.0)
    tables = [f"t{index}" for index in range(8)]
    for step in range(600):
        if step % 97 == 96:
            pool.clear()
            reference.clear()
            assert pool.used_rows == 0.0
            continue
        table, rows, now = tables[rng.integers(len(tables))], float(rng.uniform(0.0, 600.0)), float(step // 4)
        if step % 13 == 0:
            rows = 0.0  # an empty scan still enters a table it never touched
        pool.touch(table, rows, now)
        reference.touch(table, rows, now)
        assert list(pool._resident.items()) == list(reference._resident.items())
        assert list(pool._last_touch.items()) == list(reference._last_touch.items())
        assert pool.used_rows == reference.used_rows
    assert pool.reads > 600


def test_the_victim_among_equal_touch_times_is_the_first_inserted():
    # "a" and "b" tie at t=1, and again at t=5 after "b" is re-touched first:
    # a re-touch keeps a table's place, so "a" goes first both times.
    touches = [("a", 40.0, 1.0), ("b", 40.0, 1.0), ("c", 40.0, 2.0), ("b", 40.0, 5.0), ("a", 40.0, 5.0), ("d", 30.0, 6.0)]
    pool, reference = BufferPool(100.0), oracle.ReferenceBufferPool(100.0)
    for step, (table, rows, now) in enumerate(touches):
        pool.touch(table, rows, now)
        reference.touch(table, rows, now)
        if step == 2:
            assert pool._resident == {"a": 20.0, "b": 40.0, "c": 40.0}
    assert list(pool._resident.items()) == list(reference._resident.items())
    assert "c" not in pool._resident and pool._resident["a"] < 40.0 and pool._resident["b"] == 40.0
