"""Paper-reproduction harness for ``benchmarks/bench_*.py``; import from its modules.

``harness.harness`` builds the scenarios and effort profiles,
``harness.reporting`` prints the tables and writes the JSON results, and
``harness.paper_values`` holds the numbers the paper reports.
"""
