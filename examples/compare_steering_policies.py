#!/usr/bin/env python
"""Reproduce a miniature Figure 5 / Figure 6 on a benchmark subset.

Runs the full experiment harness (weighted PinPoints phases, shared traces
across configurations) on a handful of benchmarks and prints the per-benchmark
slowdown versus OP plus the copy / balance trade-off summary of VC against
each comparison scheme.

Usage::

    python examples/compare_steering_policies.py [trace_length] [benchmark ...]
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentRunner, run_figure6, run_slowdown
from repro.experiments.report import format_key_values, format_table
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import scenario_overrides
from repro.workloads import all_trace_names

DEFAULT_BENCHMARKS = ["164.gzip-1", "176.gcc-1", "181.mcf", "178.galgel", "171.swim"]


def main() -> None:
    trace_length = int(sys.argv[1]) if len(sys.argv) > 1 else None
    benchmarks = sys.argv[2:] or DEFAULT_BENCHMARKS
    unknown = [name for name in benchmarks if name not in all_trace_names("all")]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {unknown}")

    # Figures 5 and 6 share the 2-cluster machine and the simulation knobs.
    spec = scenario_overrides(
        builtin_scenario("figure5"), benchmarks=benchmarks, trace_length=trace_length
    )
    runner = ExperimentRunner(spec)

    print(f"Figure 5 (subset): {len(benchmarks)} benchmarks, {spec.trace_length} µops/phase\n")
    figure5 = run_slowdown(runner, benchmarks, spec.configurations)
    rows = []
    for name in benchmarks:
        row = {"benchmark": name}
        row.update({config: round(value, 2) for config, value in figure5.slowdowns[name].items()})
        rows.append(row)
    print(format_table(rows, title="Slowdown vs OP (%) per benchmark"))
    print(format_table(figure5.averages_table(), title="Average slowdown vs OP (%)"))

    print("Figure 6 (subset): copy / balance trade-off of VC\n")
    figure6 = run_figure6(runner, benchmarks, builtin_scenario("figure6").configurations)
    for comparison in figure6.comparisons:
        print(format_key_values(figure6.summary(comparison), title=f"VC vs {comparison}"))


if __name__ == "__main__":
    main()
