"""Diff ``run_all.py`` JSON summaries against committed baselines.

Every benchmark emits a machine-readable JSON result via
:func:`harness.reporting.write_json_report`; ``benchmarks/baselines/`` commits a
snapshot of the fast subset so regressions show up as a diff instead of a
shrug.  This tool flattens the numeric leaves of each payload and compares
them with per-metric relative tolerances.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --only table3 --only cluster_sim \
        --results-dir /tmp/bench-results
    PYTHONPATH=src python benchmarks/compare.py --results /tmp/bench-results

Timing-like metrics (wall-clock seconds) are skipped — they measure the
machine, not the reproduction.  Exit code 1 means a metric moved outside
its tolerance or a baselined benchmark produced no result.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_DIR = BENCH_DIR / "baselines"

#: Relative tolerance applied when no per-metric override matches.
DEFAULT_REL_TOL = 0.35

#: Per-metric relative tolerances, first matching glob wins (keys are the
#: flattened ``benchmark:dotted.metric.path`` names).
TOLERANCE_OVERRIDES: dict[str, float] = {
    # Simulator fidelity moves with BLAS builds / python minor versions;
    # counts of training examples must not move at all.
    "*num_examples": 0.0,
    "*.accuracy": 0.5,
}

#: Flattened-key substrings that name machine-dependent measurements
#: (wall-clock times) or RL-training outcomes whose discrete value can flip
#: on a tiny cross-platform float drift (episode counts, per-chunk eval
#: curves of variable length) — the benchmark's own assertions gate those.
SKIP_SUBSTRINGS = (
    "seconds",
    "wall",
    "episodes_to_target",
    "eval_curve",
)


def flatten(value: object, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON payload as ``dotted.path -> float``."""
    leaves: dict[str, float] = {}
    if isinstance(value, dict):
        for key, item in value.items():
            leaves.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            leaves.update(flatten(item, f"{prefix}[{index}]"))
    elif isinstance(value, bool):
        pass  # bools are not metrics
    elif isinstance(value, (int, float)):
        leaves[prefix] = float(value)
    return leaves


def tolerance_for(key: str, default: float) -> float:
    for pattern, tol in TOLERANCE_OVERRIDES.items():
        if fnmatch.fnmatch(key, pattern):
            return tol
    return default


def is_skipped(key: str) -> bool:
    lowered = key.lower()
    return any(substring in lowered for substring in SKIP_SUBSTRINGS)


def within(baseline: float, measured: float, rel_tol: float) -> bool:
    if math.isclose(baseline, measured, rel_tol=rel_tol, abs_tol=1e-9):
        return True
    if rel_tol <= 0:
        # Zero-tolerance overrides (exact metrics like ``*num_examples``)
        # mean exactly that: no absolute escape hatch may soften them.
        return False
    # Small absolute scales (sub-second metrics) get an absolute escape
    # hatch so a 0.01 -> 0.02 MSE wobble does not fail a 35% gate.
    return abs(baseline - measured) <= max(0.05, rel_tol * max(abs(baseline), abs(measured)))


def load_payload(path: Path) -> dict[str, float]:
    with path.open(encoding="utf-8") as handle:
        document = json.load(handle)
    return flatten(document.get("payload", {}), prefix=document.get("benchmark", path.stem))


def compare_dir(
    baseline_dir: Path, results_dir: Path, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[list[str], list[str]]:
    """Compare every baselined benchmark; returns (report_lines, failures)."""
    lines: list[str] = []
    failures: list[str] = []
    baseline_files = sorted(baseline_dir.glob("*.json"))
    if not baseline_files:
        failures.append(f"no baselines found under {baseline_dir}")
        return lines, failures
    for baseline_path in baseline_files:
        result_path = results_dir / baseline_path.name
        if not result_path.exists():
            failures.append(f"{baseline_path.name}: no result produced (expected {result_path})")
            continue
        baseline = load_payload(baseline_path)
        measured = load_payload(result_path)
        checked = drifted = 0
        for key, base_value in sorted(baseline.items()):
            if is_skipped(key):
                continue
            if key not in measured:
                failures.append(f"{key}: metric missing from results")
                continue
            checked += 1
            tol = tolerance_for(key, rel_tol)
            if not within(base_value, measured[key], tol):
                drifted += 1
                failures.append(
                    f"{key}: baseline {base_value:.6g} vs measured {measured[key]:.6g} "
                    f"(rel tol {tol:.0%})"
                )
        lines.append(
            f"{baseline_path.name:<40} {checked} metrics checked, {drifted} outside tolerance"
        )
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=str(BASELINE_DIR),
                        help="directory of committed baseline JSONs")
    parser.add_argument("--results", default=str(BENCH_DIR / "results"),
                        help="directory of freshly produced JSON results")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                        help="default relative tolerance per metric")
    args = parser.parse_args()

    lines, failures = compare_dir(Path(args.baseline_dir), Path(args.results), rel_tol=args.rel_tol)
    for line in lines:
        print(line)
    if failures:
        print(f"\n{len(failures)} metric regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall baselined metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
