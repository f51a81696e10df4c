"""Tests for the benchmark harness, reporting helpers and paper-value tables."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import FIFOScheduler

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))
from harness import paper_values  # noqa: E402
from harness.harness import (  # noqa: E402
    BenchProfile,
    HEURISTICS,
    Scenario,
    evaluate_heuristics,
    evaluate_service,
    get_profile,
)
from harness.reporting import (  # noqa: E402
    SCHEMA_VERSION,
    ComparisonRow,
    format_table,
    render_gantt,
    results_dir,
    write_json_report,
)


class TestProfiles:
    def test_quick_and_full_profiles(self):
        quick, full = BenchProfile.quick(), BenchProfile.full()
        assert quick.train_updates < full.train_updates
        assert quick.evaluation_rounds <= full.evaluation_rounds

    def test_get_profile_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert get_profile().name == "full"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "quick")
        assert get_profile().name == "quick"


class TestScenario:
    def test_build_scenario(self):
        scenario = Scenario(benchmark="tpch", dbms="x", profile=BenchProfile.quick())
        workload, engine, config = scenario.build()
        assert workload.num_queries == 22
        assert engine.profile.name == "DBMS-X"
        assert config.scheduler.num_connections == BenchProfile.quick().num_connections
        assert "tpch" in scenario.label

    def test_evaluate_heuristics_returns_all(self):
        scenario = Scenario(benchmark="tpch", dbms="x", profile=BenchProfile.quick())
        workload, engine, config = scenario.build()
        results = evaluate_heuristics(workload, engine, config, rounds=2)
        assert set(results) == set(HEURISTICS)
        for evaluation in results.values():
            assert evaluation.mean > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "strategy"], [["1.0", "FIFO"], ["2.0", "BQSched"]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "strategy" in lines[1]
        assert len(lines) == 5

    def test_comparison_row_ratio(self):
        row = ComparisonRow(label="FIFO", measured=10.0, paper=20.0)
        assert row.ratio == pytest.approx(0.5)
        assert ComparisonRow(label="x", measured=1.0).ratio is None

    def test_render_gantt(self, tpch_env):
        result = FIFOScheduler().run_round(tpch_env, round_id=0)
        art = render_gantt(result.connection_timeline(), width=40)
        assert "c00" in art
        assert render_gantt({}) == "(empty schedule)"


class TestPaperValues:
    def test_table1_structure(self):
        for dbms, benchmarks in paper_values.TABLE1_MAKESPAN.items():
            assert set(benchmarks) == {"tpcds", "tpch", "job"}
            for values in benchmarks.values():
                assert set(values) == {"Random", "FIFO", "MCF", "LSched", "BQSched"}
                assert values["BQSched"] == min(values.values())

    def test_table1_std_structure_matches(self):
        assert set(paper_values.TABLE1_STD) == set(paper_values.TABLE1_MAKESPAN)

    def test_table2_bqsched_always_best(self):
        for dimension in paper_values.TABLE2_MAKESPAN.values():
            for values in dimension.values():
                assert values["BQSched"] == min(values.values())

    def test_table3_gamma_sweep_best_at_0_1(self):
        table = paper_values.TABLE3_SIMULATOR
        assert table["gamma=0.1"]["mse"] == min(entry["mse"] for entry in table.values())

    def test_fig7_masking_is_largest_ablation_hit(self):
        ablation = paper_values.FIG7_ABLATION_RELATIVE
        assert ablation["w/o adaptive masking"] == max(ablation.values())


class TestJsonReporting:
    def test_write_json_report_roundtrip(self, tmp_path):
        import json

        import numpy as np

        payload = {
            "rows": [["FIFO", "1.00"]],
            "mean": np.float64(2.5),
            "series": np.arange(3),
            "nested": {"count": 4, "flag": True, "none": None},
        }
        path = write_json_report("unit_test", payload, directory=tmp_path)
        assert path == tmp_path / "unit_test.json"
        with path.open(encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["benchmark"] == "unit_test"
        assert document["payload"]["mean"] == 2.5
        assert document["payload"]["series"] == [0, 1, 2]
        assert document["payload"]["nested"] == {"count": 4, "flag": True, "none": None}

    def test_non_finite_floats_serialise_as_null(self, tmp_path):
        """Regression: ``json.dumps`` used to emit bare ``NaN`` tokens.

        A SimulatorMetrics evaluated on an empty log reports nan accuracy /
        mse; the report must still be valid JSON (nan/inf -> null)."""
        import json
        import math

        import numpy as np

        payload = {
            "metrics": {"accuracy": float("nan"), "mse": np.float64("nan"), "num_examples": 0},
            "series": np.array([1.0, float("inf"), -float("inf")]),
            "fine": 1.5,
        }
        path = write_json_report("nan_regression", payload, directory=tmp_path)
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text
        document = json.loads(text)  # must parse as strict JSON
        assert document["payload"]["metrics"]["accuracy"] is None
        assert document["payload"]["metrics"]["mse"] is None
        assert document["payload"]["metrics"]["num_examples"] == 0
        assert document["payload"]["series"] == [1.0, None, None]
        assert math.isclose(document["payload"]["fine"], 1.5)

    def test_empty_log_simulator_metrics_round_trip(self, tmp_path):
        """The exact producer of the bug: evaluate_examples([]) -> nan metrics."""
        import json
        import math

        from repro.perf import PerformanceModel

        # evaluate_examples returns before touching self on an empty set.
        empty = PerformanceModel.evaluate_examples(None, [])
        assert math.isnan(empty.accuracy) and math.isnan(empty.mse) and empty.num_examples == 0
        path = write_json_report(
            "empty_metrics",
            {"accuracy": empty.accuracy, "mse": empty.mse, "num_examples": empty.num_examples},
            directory=tmp_path,
        )
        with path.open(encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["payload"] == {"accuracy": None, "mse": None, "num_examples": 0}

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path / "out"))
        assert results_dir() == tmp_path / "out"
        path = write_json_report("env_test", {"ok": 1})
        assert path.parent == tmp_path / "out"
        assert path.exists()

    def test_evaluate_service_runs_end_to_end(self):
        from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
        from repro.core import LSchedScheduler

        workload = make_workload("tpch", scale_factor=1.0, seed=0)
        engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
        scheduler = LSchedScheduler(workload, engine, BQSchedConfig.small(seed=0))
        report = evaluate_service(scheduler, num_tenants=2, arrival_process="bursty", arrival_rate=4.0)
        assert len(report.tenants) == 2
        for tenant in report.tenants:
            assert tenant.num_queries == workload.num_queries


def _load_run_all():
    import importlib.util

    path = BENCH_DIR / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_compare():
    import importlib.util

    path = BENCH_DIR / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareBaselines:
    """Satellite: benchmarks/compare.py diffs results against baselines."""

    def _write(self, directory, name, payload):
        return write_json_report(name, payload, directory=directory)

    def test_flatten_extracts_numeric_leaves_only(self):
        compare = _load_compare()
        flat = compare.flatten({"a": {"b": 1.5, "label": "x", "flag": True}, "c": [2, {"d": 3.0}]})
        assert flat == {"a.b": 1.5, "c[0]": 2.0, "c[1].d": 3.0}

    def test_within_tolerance_passes_and_drift_fails(self, tmp_path):
        compare = _load_compare()
        baseline_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        self._write(baseline_dir, "demo", {"makespan": 10.0, "elapsed_seconds": 4.0})
        self._write(results_dir, "demo", {"makespan": 10.5, "elapsed_seconds": 400.0})
        lines, failures = compare.compare_dir(baseline_dir, results_dir, rel_tol=0.1)
        assert not failures, failures  # 5% drift within 10%; seconds skipped
        assert "demo.json" in lines[0]
        self._write(results_dir, "demo", {"makespan": 20.0, "elapsed_seconds": 4.0})
        _, failures = compare.compare_dir(baseline_dir, results_dir, rel_tol=0.1)
        assert failures and "makespan" in failures[0]

    def test_missing_result_and_missing_metric_fail(self, tmp_path):
        compare = _load_compare()
        baseline_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        self._write(baseline_dir, "demo", {"makespan": 10.0})
        _, failures = compare.compare_dir(baseline_dir, results_dir)
        assert failures and "no result produced" in failures[0]
        self._write(results_dir, "demo", {"other": 1.0})
        _, failures = compare.compare_dir(baseline_dir, results_dir)
        assert failures and "missing from results" in failures[0]

    def test_exact_tolerance_overrides(self, tmp_path):
        compare = _load_compare()
        baseline_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        self._write(baseline_dir, "demo", {"num_examples": 17})
        self._write(results_dir, "demo", {"num_examples": 18})
        _, failures = compare.compare_dir(baseline_dir, results_dir)
        assert failures, "example counts must match exactly"

    def test_zero_tolerance_gets_no_absolute_escape_hatch(self):
        """Regression: ``within()`` applied the 0.05 absolute hatch *after*
        the tolerance check, so a zero-tolerance metric silently passed
        drifts up to 0.05 on float metrics."""
        compare = _load_compare()
        assert not compare.within(100.0, 100.03, rel_tol=0.0)
        assert not compare.within(0.02, 0.06, rel_tol=0.0)
        assert compare.within(100.0, 100.0, rel_tol=0.0)
        # the hatch still applies to genuinely tolerant metrics
        assert compare.within(0.01, 0.02, rel_tol=0.35)

    def test_zero_tolerance_float_drift_fails_compare(self, tmp_path):
        compare = _load_compare()
        baseline_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        self._write(baseline_dir, "demo", {"num_examples": 17.0})
        self._write(results_dir, "demo", {"num_examples": 17.04})
        _, failures = compare.compare_dir(baseline_dir, results_dir)
        assert failures and "num_examples" in failures[0]

    def test_committed_baselines_cover_the_smoke_subset(self):
        names = {path.name for path in (BENCH_DIR / "baselines").glob("*.json")}
        assert {
            "table3_simulator_model.json",
            "cluster_sim_pretrain.json",
            "fault_tolerance.json",
            "overload_serving.json",
        } <= names


class TestRunAllFilters:
    def test_discover_unfiltered_finds_every_benchmark(self):
        run_all = _load_run_all()
        names = [path.name for path in run_all.discover()]
        assert "bench_table1_efficiency.py" in names
        assert "bench_cluster_adaptability.py" in names
        assert names == sorted(names)

    def test_only_substring_and_glob(self):
        run_all = _load_run_all()
        substring = [path.name for path in run_all.discover(only="cluster")]
        assert substring and all("cluster" in name for name in substring)
        glob = [path.name for path in run_all.discover(only="bench_table?_*.py")]
        assert {"bench_table1_efficiency.py", "bench_table2_adaptability.py", "bench_table3_simulator_model.py"} <= set(glob)
        assert "bench_fig5_scalability.py" not in glob

    def test_skip_wins_over_only(self):
        run_all = _load_run_all()
        names = [path.name for path in run_all.discover(only=["bench_*"], skip=["cluster", "bench_fig*"])]
        assert names
        assert all("cluster" not in name and not name.startswith("bench_fig") for name in names)
        everything = run_all.discover()
        assert run_all.discover(skip=["bench_*"]) == []
        assert len(run_all.discover(skip="table1")) == len(everything) - 1

    def test_summarise_reports_schema_version(self, tmp_path):
        run_all = _load_run_all()
        write_json_report("alpha", {"rows": []}, directory=tmp_path)
        (tmp_path / "broken.json").write_text("not json", encoding="utf-8")
        rows = {row[0]: row for row in run_all.summarise(tmp_path)}
        assert rows["alpha.json"][1] == str(SCHEMA_VERSION)
        assert rows["broken.json"][3] == "unreadable"
