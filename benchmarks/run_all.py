"""Run every paper-reproduction benchmark and aggregate the JSON results.

Each ``bench_*.py`` file emits a machine-readable result via
:func:`harness.reporting.write_json_report`; this entry point runs them all (as
pytest sessions, one per file, so a failure in one benchmark does not stop
the rest), then prints a summary of the collected JSON files.  The JSON
results are the cross-PR perf trajectory: commit or archive the results
directory to compare runs.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--profile quick|full] [--results-dir DIR]
                                                [--only PATTERN] [--skip PATTERN]

``--only`` / ``--skip`` select benchmark files by name: plain substrings
(``--only cluster``) or shell-style globs (``--only 'bench_table*'``); both
may be repeated, and ``--skip`` wins over ``--only``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _matches(name: str, pattern: str) -> bool:
    """Substring match, or fnmatch when the pattern carries glob characters."""
    if any(char in pattern for char in "*?["):
        return fnmatch.fnmatch(name, pattern)
    return pattern in name


def discover(
    only: "list[str] | str | None" = None,
    skip: "list[str] | str | None" = None,
) -> list[Path]:
    """Benchmark files to run, filtered by ``--only`` / ``--skip`` patterns."""
    only = [only] if isinstance(only, str) else (only or [])
    skip = [skip] if isinstance(skip, str) else (skip or [])
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if only:
        files = [path for path in files if any(_matches(path.name, pattern) for pattern in only)]
    if skip:
        files = [path for path in files if not any(_matches(path.name, pattern) for pattern in skip)]
    return files


def run_benchmark(path: Path, env: dict) -> tuple[bool, float]:
    """Run one benchmark file as a pytest session; returns (passed, seconds).

    A file that collects no tests fails (pytest exits 5).
    """
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(path), "-q", "--no-header"],
        cwd=REPO_ROOT,
        env=env,
    )
    return proc.returncode == 0, time.perf_counter() - started


def summarise(results_dir: Path) -> list[list[str]]:
    rows = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            with path.open(encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            rows.append([path.name, "?", "?", "unreadable"])
            continue
        payload = document.get("payload", {})
        size = len(payload) if isinstance(payload, (dict, list)) else 1
        schema = document.get("schema_version", "missing")
        rows.append([path.name, str(schema), document.get("profile", "?"), f"{size} payload entries"])
        if isinstance(payload, dict):
            # Serving benchmarks report SLO attainment, shed counts and
            # goodput per control-plane scenario; surface the overload story
            # (does the controlled config protect the interactive tier?) in
            # the aggregate.
            for scenario_name, scenario in payload.items():
                if not (isinstance(scenario, dict) and "interactive_slo_attainment" in scenario):
                    continue
                attainment = scenario["interactive_slo_attainment"]
                shed = scenario.get("shed", 0)
                goodput = scenario.get("goodput")
                info = f"interactive SLO attainment={attainment:.2f}, shed={shed}"
                if isinstance(goodput, (int, float)):
                    info += f", goodput={goodput:.2f} q/s"
                rows.append([f"  · {scenario_name}", "", "", info])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=("quick", "full"), default=None,
                        help="effort profile (default: REPRO_BENCH_PROFILE or quick)")
    parser.add_argument("--results-dir", default=None,
                        help="where JSON results land (default: REPRO_BENCH_RESULTS or benchmarks/results)")
    parser.add_argument("--only", action="append", default=None, metavar="PATTERN",
                        help="run only benchmarks matching PATTERN (substring or glob; repeatable)")
    parser.add_argument("--skip", action="append", default=None, metavar="PATTERN",
                        help="skip benchmarks matching PATTERN (substring or glob; repeatable)")
    args = parser.parse_args()

    env = dict(os.environ)
    if args.profile:
        env["REPRO_BENCH_PROFILE"] = args.profile
    if args.results_dir:
        env["REPRO_BENCH_RESULTS"] = args.results_dir
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    files = discover(only=args.only, skip=args.skip)
    if not files:
        print("no benchmarks matched", file=sys.stderr)
        return 2

    failures = []
    for path in files:
        print(f"\n=== {path.name} ===", flush=True)
        passed, elapsed = run_benchmark(path, env)
        print(f"--- {path.name}: {'ok' if passed else 'FAILED'} in {elapsed:.1f}s", flush=True)
        if not passed:
            failures.append(path.name)

    results_dir = Path(env.get("REPRO_BENCH_RESULTS", "benchmarks/results"))
    if not results_dir.is_absolute():
        results_dir = REPO_ROOT / results_dir
    print("\nCollected JSON results:")
    for name, schema, profile, info in summarise(results_dir):
        if schema:
            print(f"  {name:<36} schema={schema:<3} profile={profile:<6} {info}")
        else:
            print(f"  {name:<36} {info}")

    if failures:
        print(f"\n{len(failures)} benchmark file(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
