"""Tests of the ledger's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``; tier-1's
``testpaths`` does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import specs  # noqa: E402

import repro  # noqa: E402
import repro.core.bqsched  # noqa: E402
import repro.core.gain  # noqa: E402

DECLARATION = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_on_a_nested_and_recursive_call_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def recurse(depth: int):
        clock.advance(1.0)
        if depth:
            traced_recurse(depth - 1)
        traced_leaf()

    def root():
        clock.advance(3.0)
        traced_recurse(2)
        clock.advance(4.0)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_recurse = tracer.wrap("recurse", recurse)
    tracer.wrap("root", root, request_root=True)()

    # root: 3 + 4 of its own; recurse: three frames of 1 each; leaf: three calls of 2.
    assert tracer.calls("root") == 1 and tracer.self_seconds("root") == pytest.approx(7.0)
    assert tracer.calls("recurse") == 3 and tracer.self_seconds("recurse") == pytest.approx(3.0)
    assert tracer.outermost_calls("recurse") == 1
    assert tracer.calls("leaf") == 3 and tracer.self_seconds("leaf") == pytest.approx(6.0)
    # Self times add up to the wall the outermost span covered.
    assert sum(tracer.self_seconds(n) for n in tracer.names()) == pytest.approx(clock.now) == pytest.approx(16.0)
    # Every span of the request carries the root's id; parents link the tree.
    by_id = {record[3]: record for record in tracer.raw}
    root_id = next(r[3] for r in tracer.raw if r[0] == "root")
    assert {record[5] for record in tracer.raw} == {root_id}
    assert all(record[4] in by_id for record in tracer.raw if record[0] != "root")


def test_a_span_is_closed_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.calls("boom") == 1 and tracer.self_seconds("boom") == pytest.approx(1.0)
    assert tracer.wrap("after", lambda: None)() is None and tracer.raw[-1][4] == 0  # no stale parent


def test_decisions_open_their_own_request_unless_one_is_open():
    tracer = spans.Tracer(clock=FakeClock())
    decide = tracer.wrap("policy.select_action", lambda: None, request_root=True)
    tracer.wrap("facade.serve", lambda: (decide(), decide()))()
    tracer.wrap("facade.train", lambda: (decide(), decide()), request_root=True)()
    requests = [record[5] for record in tracer.raw if record[0] == "policy.select_action"]
    train_id = next(r[3] for r in tracer.raw if r[0] == "facade.train")
    assert requests[0] != requests[1] and 0 not in requests[:2]
    assert requests[2:] == [train_id, train_id]


# --------------------------------------------------------------------------- #
# Wrap and restore
# --------------------------------------------------------------------------- #
def _patched_slots():
    """Every (holder, attribute) the target table can touch, with its current raw object."""
    import importlib

    slots = {}
    for _, module, path in spans.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        slots[(module, path)] = vars(owner)[attr]
    return slots


def test_install_and_restore_leave_every_attribute_identical():
    before = _patched_slots()
    reexport = repro.core.bqsched.build_gain_matrix
    top_level = repro.make_workload
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert tracer.missing == []
        during = _patched_slots()
        assert all(during[key] is not before[key] for key in before)
        # A name re-exported into another repro module is swapped there too...
        assert repro.core.bqsched.build_gain_matrix is repro.core.gain.build_gain_matrix is not reexport
        assert repro.make_workload is not top_level
        # ...and descriptors keep their kind.
        assert isinstance(during[("repro.core.knowledge", "ExternalKnowledge.from_probes")], classmethod)
        repro.make_workload("tpch", scale_factor=1.0, seed=0)
        assert tracer.calls("workloads.make_workload") == 1
    finally:
        tracer.restore()
    after = _patched_slots()
    assert all(after[key] is before[key] for key in before)
    assert repro.core.bqsched.build_gain_matrix is reexport
    assert repro.make_workload is top_level


def test_missing_targets_are_reported_not_raised():
    tracer = spans.Tracer()
    assert not tracer.patch("x.module", "repro.no_such_module", "f")
    assert not tracer.patch("x.klass", "repro.core.env", "NoSuchEnv.step")
    assert not tracer.patch("x.method", "repro.core.env", "SchedulingEnv.no_such_method")
    assert not tracer.patch("x.property", "repro.core.env", "SchedulingEnv.cluster_mode")
    tracer.patch_methods_of("x.backend", object(), ("encode_batch",))
    assert tracer.missing == [
        "repro.no_such_module:f",
        "repro.core.env:NoSuchEnv.step",
        "repro.core.env:SchedulingEnv.no_such_method",
        "repro.core.env:SchedulingEnv.cluster_mode",
        "builtins:object.encode_batch",
    ]
    # Missing spans still report zero calls instead of disappearing from the metrics.
    assert tracer.calls("x.method") == 0 and "x.backend" in tracer.names()
    tracer.restore()


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(999) == 95.0
    assert measure.supported_tail(200) == 95.0
    assert measure.supported_tail(199) == 90.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(40) == 75.0
    assert measure.supported_tail(39) == 50.0
    assert measure.supported_tail(10_000, wanted=99.9) == 99.9
    assert measure.percentile(list(range(1, 402)), 95.0) == pytest.approx(381.0)


def test_machine_timeline_divides_out_a_slowdown_and_skips_its_probes():
    cell = measure.NOMINAL_CELL_S
    # Probes 1 s apart: nominal, twice as slow, nominal.
    timeline = measure.MachineTimeline([(0.0, cell), (1.0, 1.0 + 2 * cell), (2.0, 2.0 + cell)], smooth=1)
    # The first gap ran at nominal speed, the second at half speed.
    assert timeline.normalised_seconds([cell], [1.0])[0] == pytest.approx(1.0 - cell)
    assert timeline.normalised_seconds([1.0 + 2 * cell], [2.0])[0] == pytest.approx((1.0 - 2 * cell) / 2.0)
    # Time inside a probe does not count.
    assert timeline.normalised_seconds([1.0], [1.0 + 2 * cell])[0] == pytest.approx(0.0)
    assert timeline.slow_share == pytest.approx((1.0 - 2 * cell) / (2.0 - 3 * cell))
    assert timeline.noisy


def test_machine_clock_probes_on_the_main_thread_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    clock = measure.MachineClock(interval=0.02)
    clock.start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.2:
        sum(range(1000))
    ended = time.perf_counter()
    timeline = clock.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock._probes) >= 5
    assert 0.0 < timeline.normalised_seconds([started], [ended])[0]


# --------------------------------------------------------------------------- #
# Declaration vs emitted metrics
# --------------------------------------------------------------------------- #
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declaration_matches_the_code():
    assert DECLARATION["paths"] == ["benchmarks/ledger"]
    assert DECLARATION["run_seconds"] == specs.RUN_SECONDS
    assert [w["name"] for w in DECLARATION["workloads"]] == [s.name for s in specs.WORKLOADS]
    assert [w["why"] for w in DECLARATION["workloads"]] == [s.why for s in specs.WORKLOADS]
    names = [m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]]
    assert len(names) == len(set(names)) and all(_NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in DECLARATION["workloads"])
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    assert len(DECLARATION["per_layer"]) <= 128
    for name in spans.SPAN_NAMES:
        assert f"{name}.calls" in names and f"{name}.self_s" in names


@pytest.mark.parametrize("spec", specs.WORKLOADS, ids=lambda s: s.name)
def test_every_declared_metric_is_emitted(spec):
    """Shrunk constants (22 TPC-H queries, one update, two rounds) through the real code path."""
    shrunk = dataclasses.replace(
        spec,
        benchmark="tpch",
        query_scale=1.0,
        history_rounds=1,
        num_updates=min(spec.num_updates, 1),
        pretrain_updates=min(spec.pretrain_updates, 1),
        rounds=2,
        fifo_ceiling=None if spec.fifo_ceiling is None else 10.0,
    )
    plain = child.run_workload(repro, shrunk, seed=3, seconds=specs.RUN_SECONDS, tracer=None)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = child.run_workload(repro, shrunk, seed=3, seconds=specs.RUN_SECONDS, tracer=tracer)
    finally:
        tracer.restore()
    for results in (plain, traced):
        results["metrics"]["setup_s"] = results["metrics"].pop("construct_s")

    end_to_end, failures = run.assemble(plain, None, DECLARATION)
    assert failures == [] and end_to_end["correct"] and end_to_end["failed"] == 0 and end_to_end["attempted"] >= 1
    assert list(end_to_end["metrics"]) == [m["name"] for m in DECLARATION["end_to_end"]]
    assert all(entry["value"] > 0 for entry in end_to_end["metrics"].values())

    per_layer, failures = run.assemble(plain, traced, DECLARATION)
    assert failures == [], failures  # includes: the traced run reproduced the untraced digest
    assert list(per_layer["metrics"]) == [m["name"] for m in DECLARATION["per_layer"]]
    assert tracer.missing == []
    values = {name: entry["value"] for name, entry in per_layer["metrics"].items()}
    assert values["policy.select_action.calls"] >= plain["info"]["decisions"]
    assert values["trace.coverage"] > 0.5
    if spec.serve is None:
        assert values["facade.schedule.calls"] == 2 and values["facade.serve.calls"] == 0
    else:
        assert values["facade.serve.calls"] == 2 and values["runtime.events"] > 0
