"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dbms import (
    BufferPool,
    ConfigurationSpace,
    DatabaseEngine,
    DBMSProfile,
    FailureProfile,
    OutageWindow,
    QueryExecutionRecord,
    RoundLog,
    RunningParameters,
)
from repro.dbms.engine import _EPSILON, progress_rates
from repro.core import AdaptiveMask
from repro.encoder import RunStateFeaturizer
from repro.exceptions import SchedulingError
from repro.nn import Tensor, masked_log_softmax
from repro.workloads import make_workload
from engine_oracle import cached_fraction
from gain_oracle import overlap
from snapshot_oracle import featurize_aos, snapshot_arrays, to_snapshot


small_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestTensorProperties:
    @given(st.lists(small_floats, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_probability_distribution(self, values):
        probs = Tensor(np.array(values)).softmax(axis=-1).data
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(small_floats, min_size=2, max_size=10), st.lists(small_floats, min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_addition_is_commutative(self, a, b):
        size = min(len(a), len(b))
        x, y = np.array(a[:size]), np.array(b[:size])
        left = (Tensor(x) + Tensor(y)).data
        right = (Tensor(y) + Tensor(x)).data
        np.testing.assert_allclose(left, right)

    @given(st.lists(small_floats, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(len(values)))

    @given(st.lists(small_floats, min_size=2, max_size=8), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_masked_softmax_zeroes_masked_entries(self, values, masked_index):
        values = np.array(values)
        masked_index = masked_index % len(values)
        mask = np.ones(len(values), dtype=bool)
        if len(values) > 1:
            mask[masked_index] = False
        probs = np.exp(masked_log_softmax(Tensor(values), mask).data)
        assert probs[~mask].max(initial=0.0) < 1e-6
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.floats(min_value=0, max_value=500)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_buffer_never_exceeds_capacity_by_much(self, touches):
        pool = BufferPool(300)
        for now, (table, rows) in enumerate(touches):
            pool.touch(table, rows, now=float(now))
            # at most one table may overflow transiently before eviction stops
            assert pool.used_rows <= 300 * 2
        assert all(rows <= 300 + 1e-9 for rows in pool._resident.values())

    @given(st.floats(min_value=1, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_cached_fraction_bounded(self, capacity, rows):
        pool = BufferPool(capacity)
        pool.touch("t", rows, now=0.0)
        assert 0.0 <= cached_fraction(pool, "t", max(rows, 1.0)) <= 1.0


class TestLogProperties:
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=50), st.floats(min_value=0.1, max_value=20)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, executions):
        round_log = RoundLog(round_id=0)
        for index, (start, duration) in enumerate(executions):
            round_log.add(
                QueryExecutionRecord(
                    query_id=index, query_name=f"q{index}", template_id=index, connection=0,
                    parameters=RunningParameters(1, 64), submit_time=start, finish_time=start + duration,
                )
            )
        durations = [r.execution_time for r in round_log]
        assert round_log.makespan >= max(durations) - 1e-9
        assert round_log.makespan <= sum(durations) + max(r.submit_time for r in round_log) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_overlap_is_symmetric(self, durations):
        records = []
        start = 0.0
        for index, duration in enumerate(durations):
            records.append(
                QueryExecutionRecord(
                    query_id=index, query_name=f"q{index}", template_id=index, connection=index,
                    parameters=RunningParameters(1, 64), submit_time=start * 0.5, finish_time=start * 0.5 + duration,
                )
            )
            start += duration
        for a in records:
            for b in records:
                assert overlap(a, b) == pytest.approx(overlap(b, a))


class TestMaskProperties:
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_unmasked_action_mask_counts(self, num_queries, num_configs):
        mask = AdaptiveMask.unmasked(num_queries, num_configs)
        selectable = list(range(0, num_queries, 2))
        assert mask.allowed_matrix[selectable].sum() == len(selectable) * num_configs
        assert mask.masked_fraction() == 0.0


class TestWorkloadProperties:
    @given(st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=10, deadline=None)
    def test_data_scaling_is_monotone(self, factor):
        base = make_workload("tpch", scale_factor=1.0, seed=0)
        scaled = base.with_data_scale(factor)
        if factor >= 1.0:
            assert scaled.batch_query_set().total_work() >= base.batch_query_set().total_work() * 0.99
        else:
            assert scaled.batch_query_set().total_work() <= base.batch_query_set().total_work() * 1.01


@lru_cache(maxsize=1)
def _tpch_round_inputs():
    batch = make_workload("tpch", scale_factor=1.0, seed=0).batch_query_set()
    tables = tuple(sorted({table for query in batch for table in query.tables}))
    return batch, ConfigurationSpace(), tables


def _first_finish_without_memo(session):
    """``(finishing id, delta)`` from fresh rates: the first minimum in running order."""
    rates = progress_rates(session.profile, list(session.running.values()), session.buffer)
    best = None
    for query_id, state in session.running.items():
        delta = state.remaining_work / max(rates[query_id], _EPSILON)
        if best is None or delta < best[1]:
            best = (query_id, delta)
    return best


class TestNextEventMemo:
    """An ``ExecutionSession`` unit computes its next finish once per state, and that state is every input."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(("submit", "advance", "advance_limit", "cancel", "park", "unpark", "touch")),
                st.integers(min_value=0, max_value=999),
                st.floats(min_value=0.0, max_value=1.5),
            ),
            max_size=60,
        ),
        outage=st.none() | st.tuples(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.5, max_value=6.0)),
        faulty=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_is_a_recomputation_and_predicts_advance(self, ops, outage, faulty):
        batch, space, tables = _tpch_round_inputs()
        faults = FailureProfile(
            error_rate=0.3 if faulty else 0.0,
            hang_rate=0.2 if faulty else 0.0,
            outages=() if outage is None else (OutageWindow(0, *outage),),
        )
        session = DatabaseEngine(DBMSProfile.dbms_x(), seed=0).new_session(
            batch, num_connections=3, round_id=0, faults=faults
        )
        unit = session.instances[0]
        # Every connection busy to start with; an ``amount`` is a fraction of
        # the way to the predicted event, so limits often land before it.
        for op, pick, amount in [("submit", 0, 0.0)] * 3 + ops + [("advance", 0, 0.0)] * 8:
            if unit.running:
                memo = unit._next_finish()
                fresh = _first_finish_without_memo(unit)
                assert (memo[0], memo[1].hex()) == (fresh[0], fresh[1].hex())
            predicted = unit.next_completion_time()
            if op == "submit" and session.pending and session.has_idle_connection:
                session.submit(session.pending[pick % len(session.pending)], space[pick % len(space)])
            elif op == "advance" and session.num_running:
                event = session.advance()
                assert event.finish_time == predicted == session.current_time
            elif op == "advance_limit":
                before = session.current_time
                limit = before + amount * (1.0 if predicted is None else predicted - before)
                event = session.advance(limit=limit)
                if predicted is not None and predicted <= limit:
                    assert event is not None and event.finish_time == predicted == session.current_time
                else:
                    assert event is None and session.current_time == limit
            elif op == "cancel" and unit.running:
                session.cancel(sorted(unit.running)[pick % len(unit.running)])
            elif op == "park" and not session.parked_instances():
                session.park_instance(0)
            elif op == "unpark" and session.parked_instances():
                session.unpark_instance(0)
            elif op == "touch":
                unit.buffer.touch(tables[pick % len(tables)], rows=amount * 1e5, now=session.current_time)


# Per-instance context rows are this wide in the featurizer property tests.
CONTEXT_WIDTH = 4


@st.composite
def featurizer_and_stack(draw):
    """A featurizer with or without the context channel and a stack of 1-4 snapshots it can read.

    When the context channel is on, each snapshot independently carries its
    instance context or none.
    """
    num_configs = draw(st.integers(min_value=1, max_value=6))
    instances = draw(st.integers(min_value=0, max_value=3))
    featurizer = RunStateFeaturizer(num_configs, instance_context_dim=instances * CONTEXT_WIDTH)
    n = draw(st.integers(min_value=1, max_value=8))
    seconds = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
    stack = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        status = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
        configs = draw(st.lists(st.integers(min_value=0, max_value=num_configs - 1), min_size=n, max_size=n))
        waiting = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        context = None
        if instances and draw(st.booleans()):
            context = draw(
                st.lists(small_floats, min_size=instances * CONTEXT_WIDTH, max_size=instances * CONTEXT_WIDTH)
            )
            context = np.reshape(context, (instances, CONTEXT_WIDTH))
        stack.append(
            snapshot_arrays(
                status,
                config_index=[config if code else -1 for code, config in zip(status, configs)],
                elapsed=draw(st.lists(seconds, min_size=n, max_size=n)),
                expected_time=draw(st.lists(seconds, min_size=n, max_size=n)),
                # Only a pending query may be waiting for its arrival.
                available=[not (code == 0 and wait) for code, wait in zip(status, waiting)],
                instance_context=context,
            )
        )
    return featurizer, stack


class TestFeaturizerProperties:
    """The stacked featurization kernel against the per-query oracle of ``tests/snapshot_oracle.py``."""

    @given(featurizer_and_stack())
    @settings(max_examples=60, deadline=None)
    def test_every_plane_is_the_per_query_oracle(self, case):
        featurizer, stack = case
        features = featurizer.featurize_arrays_stack(stack)
        assert features.shape == (len(stack), stack[0].num_queries, featurizer.feature_dim)
        for plane, arrays in zip(features, stack):
            assert plane.tobytes() == featurize_aos(featurizer, to_snapshot(arrays)).tobytes()

    @given(featurizer_and_stack(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_out_of_range_config_index_is_named(self, case, data):
        featurizer, stack = case
        arrays = stack[data.draw(st.integers(min_value=0, max_value=len(stack) - 1))]
        query = data.draw(st.integers(min_value=0, max_value=arrays.num_queries - 1))
        bad = featurizer.num_configs + data.draw(st.integers(min_value=0, max_value=5))
        arrays.status[query], arrays.config_index[query] = 1, bad
        with pytest.raises(SchedulingError, match=f"config index {bad} out of range"):
            featurizer.featurize_arrays_stack(stack)
