"""Benchmark harness: scenarios, effort profiles, paper-vs-measured reporting."""

from .harness import (
    BenchProfile,
    HEURISTICS,
    Scenario,
    evaluate_heuristics,
    evaluate_placement_baselines,
    evaluate_rl,
    evaluate_service,
    get_profile,
    heuristic_env,
    run_strategy_comparison,
)
from .profiling import (
    PROFILING_ENV,
    SectionTimers,
    profile_call,
    profiling_enabled,
    write_profile_json,
)
from .reporting import ComparisonRow, format_table, print_table, render_gantt, results_dir, write_json_report
from . import paper_values

__all__ = [
    "BenchProfile",
    "HEURISTICS",
    "Scenario",
    "evaluate_heuristics",
    "evaluate_placement_baselines",
    "evaluate_rl",
    "evaluate_service",
    "get_profile",
    "heuristic_env",
    "run_strategy_comparison",
    "PROFILING_ENV",
    "SectionTimers",
    "profile_call",
    "profiling_enabled",
    "write_profile_json",
    "ComparisonRow",
    "format_table",
    "print_table",
    "render_gantt",
    "results_dir",
    "write_json_report",
    "paper_values",
]
