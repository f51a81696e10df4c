"""Additional cross-cutting tests: exceptions, reprs, version, public API surface."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import (
    BQSchedError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)


class TestExceptions:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, WorkloadError, SimulationError, SchedulingError]
    )
    def test_all_errors_derive_from_base(self, exc):
        assert issubclass(exc, BQSchedError)
        assert issubclass(exc, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(BQSchedError):
            raise WorkloadError("boom")


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_exports_resolve(self):
        from repro import core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_nn_exports_resolve(self):
        from repro import nn

        for name in nn.__all__:
            assert hasattr(nn, name), name

    def test_docstring_quickstart_runs(self, capsys):
        """The package docstring's quickstart is executed, at TPC-H / ``small`` size, so it cannot rot."""
        block = textwrap.dedent(repro.__doc__.split("Quickstart::")[1])
        small = block.replace('"tpcds"', '"tpch"').replace("BQSchedConfig(seed=0)", "BQSchedConfig.small(seed=0)")
        assert small.count('"tpch"') == 1 and small.count("BQSchedConfig.small(seed=0)") == 1
        exec(compile(small, "repro.__doc__", "exec"), {})
        assert float(capsys.readouterr().out) > 0.0

    def test_runtime_imports_numpy_only(self):
        """A fresh interpreter that clusters 158 queries loads no SciPy and none of NumPy's test / f2py tooling."""
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            import repro
            workload = repro.make_workload("tpcds", scale_factor=1.0, query_scale=1.6, seed=0)
            engine = repro.DatabaseEngine(repro.DBMSProfile.dbms_x(), seed=0)
            scheduler = repro.BQSched(workload, engine, repro.BQSchedConfig(seed=0))
            assert scheduler.use_clustering and len(scheduler.batch) == 158
            gains = np.random.default_rng(0).normal(size=(158, 158))
            assert repro.core.clustering.cluster_queries(scheduler.batch, gains, 100).num_clusters == 100
            heavy = ("scipy", "numpy.testing", "numpy.f2py")
            print(sorted(name for name in sys.modules if name.startswith(heavy)))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestReprs:
    def test_query_and_workload_reprs(self, tpch_workload, tpch_batch):
        assert "tpch" in repr(tpch_workload)
        assert "Query(" in repr(tpch_batch[0])

    def test_plan_repr_counts(self, tpch_batch):
        text = repr(tpch_batch[0].plan)
        assert "nodes=" in text and "joins=" in text

    def test_running_parameters_in_record_repr(self, tpch_env):
        from repro.core import FIFOScheduler

        result = FIFOScheduler().run_round(tpch_env, round_id=0)
        record = result.round_log.records[0]
        assert record.execution_time > 0


class TestClusterModeDetails:
    @pytest.fixture()
    def cluster_env(self, tpch_batch, engine_x, small_config, config_space, tpch_knowledge):
        from repro.core import AdaptiveMask, SchedulingEnv, cluster_queries

        n = len(tpch_batch)
        rng = np.random.default_rng(0)
        gains = rng.normal(0, 0.05, size=(n, n))
        gains = (gains + gains.T) / 2
        clusters = cluster_queries(tpch_batch, gains, num_clusters=5, knowledge=tpch_knowledge)
        env = SchedulingEnv(
            batch=tpch_batch,
            backend=engine_x,
            scheduler_config=small_config.scheduler,
            config_space=config_space,
            knowledge=tpch_knowledge,
            mask=AdaptiveMask.unmasked(n, len(config_space)),
            clusters=clusters,
        )
        return env, clusters

    def test_action_dim_uses_cluster_count(self, cluster_env, config_space):
        env, clusters = cluster_env
        assert env.cluster_mode
        assert env.action_dim == clusters.num_clusters * len(config_space)

    def test_cluster_step_submits_whole_cluster(self, cluster_env):
        env, clusters = cluster_env
        env.reset(round_id=0)
        members = set(clusters.members(0))
        step = env.step(env.encode_action(0, 0))
        submitted = set(step.snapshot.running_ids) | set(np.flatnonzero(step.snapshot.status == 2).tolist())
        assert members <= submitted

    def test_cluster_mask_excludes_drained_clusters(self, cluster_env, config_space):
        env, clusters = cluster_env
        env.reset(round_id=0)
        env.step(env.encode_action(0, 0))
        mask = env.action_mask()
        assert not mask[0 : len(config_space)].any()

    def test_full_cluster_round_completes(self, cluster_env):
        env, clusters = cluster_env
        snapshot = env.reset(round_id=1)
        done = False
        steps = 0
        while not done:
            mask = env.action_mask()
            action = int(np.flatnonzero(mask)[0])
            step = env.step(action)
            snapshot, done = step.snapshot, step.done
            steps += 1
        assert steps <= clusters.num_clusters
        assert env.result().num_queries == len(env.batch)
