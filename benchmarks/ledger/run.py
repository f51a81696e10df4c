"""The performance ledger: end-to-end time-to-policy and serving overhead, per-layer trace.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Each workload runs in a fresh single-threaded subprocess (``child.py``).
Without ``--trace`` the end-to-end metrics are measured; with ``--trace 1`` the
same seeded workload runs twice, untraced then with spans around every
layer's public functions, and the per-layer metrics are reported.  Every
metric is printed by name with its unit, the outputs are checked, and the
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is non-zero
when a check fails or the system under test cannot be imported.

All four workloads are closed loops driven from one client process: arrivals
are in simulated time and the simulated fleet runs as fast as the scheduler
lets it, so ``serve_queries_per_s`` is a throughput, not an open-loop latency.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import specs  # noqa: E402  (sibling module; the path line above makes it importable from any cwd)

OUT_DIR = HERE / "out"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: A child that runs longer than this is killed: the driver's own cap is 180 s per invocation.
CHILD_TIMEOUT_S = 170


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_environment() -> dict:
    env = dict(os.environ)
    for name in _THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh interpreter; raises when the child fails or prints no result."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    if trace:
        command += ["--trace-out", str(OUT_DIR / f"trace_{workload}.json")]
    completed = subprocess.run(
        command, env=child_environment(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload {workload!r} exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload {workload!r} printed no result")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def print_header(seed: int, seconds: float, trace: bool) -> None:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    print(f"# ledger  git={git_sha()}  nproc={os.cpu_count()}  python={platform.python_version()}  "
          f"numpy={numpy.__version__}  blas={blas_text}")  # fmt: skip
    print(f"# threads pinned in the child: {', '.join(f'{v}=1' for v in _THREAD_VARS)}; one process, no extra threads")
    print(f"# seed={seed}  seconds={seconds:g} (round counts sized for {specs.RUN_SECONDS})  trace={int(trace)}  "
          f"setup_repeats={specs.SETUP_REPEATS}")  # fmt: skip
    print("# closed loop, one client: rates are throughputs of the simulated fleet, not open-loop latencies")


def assemble(plain: dict, traced: "dict | None", declaration: dict) -> tuple[dict, list[str]]:
    """The contract's result object from the child results, plus the failed checks.

    End-to-end metrics always come from the untraced run; a traced run adds
    the per-layer metrics and must reproduce the untraced run's simulated
    outputs exactly (same seed: tracing perturbs nothing, the run is deterministic).
    """
    failures = list(plain["checks_failed"])
    if traced is None:
        values, declared = plain["metrics"], declaration["end_to_end"]
    else:
        failures += [f"traced run: {failure}" for failure in traced["checks_failed"]]
        if traced["digest"] != plain["digest"]:
            failures.append("the traced run did not reproduce the untraced run's simulated outputs")
        values, declared = traced["layers"], declaration["per_layer"]
        values["trace.overhead_frac"] = traced["timed_s"]["normalised"] / plain["timed_s"]["normalised"] - 1.0
        values["checks.failed"] = float(len(failures))
    result = {
        "correct": not failures,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, failures


def measure_workload(spec: specs.WorkloadSpec, seed: int, seconds: float, trace: bool, declaration: dict) -> dict:
    """Run one workload, print every metric by name with its unit, return the result object."""
    constants = {k: v for k, v in vars(spec).items() if k not in ("name", "why", "serve")}
    print(f"\n== {spec.name}: {spec.why}")
    print(f"   constants: {constants}")
    plain = run_child(spec.name, seed, seconds, trace=False)
    traced = run_child(spec.name, seed, seconds, trace=True) if trace else None
    result, failures = assemble(plain, traced, declaration)
    info = plain["info"]
    print(f"   {info['num_queries']} queries, {info['rounds']} rounds x {info['tenants']} tenants, "
          f"{info['decisions']} decisions (tail = p{info['tail_percentile']:g}), clusters={info['clusters']}, "
          f"backend={info['inference_backend']}, mean simulated round {info['mean_simulated_s']:.2f} s")  # fmt: skip
    print(f"   shed={info['total_shed']} failed(incl. shed)={info['total_failed']} "
          f"makespan_vs_fifo={info['makespan_vs_fifo']:.3f}  quiet ref_cell_s={info['ref_cell_s']:.5f}  "
          f"{info['slow_share']:.0%} of the run >10% slow{'  NOISY' if info['noisy'] else ''}")  # fmt: skip
    if traced is None:
        print("   end-to-end (untraced run; times in machine-normalised seconds, see README):")
        declared = declaration["end_to_end"]
    else:
        print(f"   per-layer (traced run; spans in {OUT_DIR.name}/trace_{spec.name}.json):")
        declared = declaration["per_layer"]
    for metric in declared:
        bound = f"  bound {metric['bound']:g}" if "bound" in metric else ""
        value = result["metrics"][metric["name"]]["value"]
        print(f"  {metric['name']:<44} {value:>16.6f} {metric['unit']:<6} ({metric['better']} is better{bound})")
    normalised, wall = plain["metrics"], plain["wall_metrics"]
    print(f"   not gated (normalised / wall clock): prepare_s {normalised['prepare_s']:.3f} / {wall['prepare_s']:.3f}, "
          f"train_s {normalised['train_s']:.3f} / {wall['train_s']:.3f}, overhead_frac "
          f"{normalised['overhead_frac']:.5f} / {wall['overhead_frac']:.5f}, decision_cycle_us p{info['tail_percentile']:g} "
          f"{normalised['decision_cycle_us_tail']:.0f} / {wall['decision_cycle_us_tail']:.0f}")  # fmt: skip
    print(f"   same run as the wall clock read it: {json.dumps(wall)}")
    for failure in failures:
        print(f"   CHECK FAILED: {failure}")
    summary = {
        "workload": spec.name, "seed": seed, "checks_run": plain["checks_run"], "checks_failed": failures,
        "noisy": info["noisy"], "digest": plain["digest"], "claim": None,
    }  # fmt: skip
    print(f"   summary: {json.dumps(summary)}")
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[spec.name for spec in specs.WORKLOADS], default=None,
                        help="one workload (default: all four, one result line each)")  # fmt: skip
    parser.add_argument("--seed", type=int, default=0, help="reaches workload generation, engine/fleet seeds, "
                        "BQSchedConfig(seed=) and round ids; nothing else")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=float(specs.RUN_SECONDS),
                        help="scales the decision-loop round counts, which are sized for %(default)s")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the system under test is missing: {ROOT / 'src' / 'repro'} not found", file=sys.stderr)
        return 2

    declaration = load_declaration()
    print_header(args.seed, args.seconds, bool(args.trace))
    selected = [specs.BY_NAME[args.workload]] if args.workload else list(specs.WORKLOADS)
    all_correct = True
    for spec in selected:
        result = measure_workload(spec, args.seed, args.seconds, bool(args.trace), declaration)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
