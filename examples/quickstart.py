#!/usr/bin/env python
"""Quickstart: compare all five steering configurations on one benchmark.

Runs the Table 3 configurations (OP, one-cluster, OB, RHOP, VC) on a single
SPEC CPU2000-like trace and prints cycles, IPC, copy µops and the
workload-balance stalls of each -- the core measurement loop of the paper in
one call.

Usage::

    python examples/quickstart.py [benchmark] [trace_length]

    python examples/quickstart.py                 # the quickstart scenario's defaults
    python examples/quickstart.py 178.galgel 5000
"""

from __future__ import annotations

import sys

from repro import quick_comparison
from repro.experiments.report import format_table
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import scenario_overrides
from repro.workloads import all_trace_names


def main() -> None:
    # Omitted arguments fall back to the built-in quickstart scenario.
    spec = scenario_overrides(
        builtin_scenario("quickstart"),
        benchmarks=sys.argv[1:2] or None,
        trace_length=int(sys.argv[2]) if len(sys.argv) > 2 else None,
    )
    (benchmark,) = spec.benchmarks
    trace_length = spec.trace_length
    if benchmark not in all_trace_names("all"):
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; pick one of {', '.join(all_trace_names('all'))}"
        )

    print(f"Running the five Table 3 configurations on {benchmark} ({trace_length} µops)...\n")
    results = quick_comparison(benchmark, trace_length=trace_length)

    baseline_cycles = results["OP"].cycles
    rows = []
    for name in ("OP", "one-cluster", "OB", "RHOP", "VC"):
        metrics = results[name]
        rows.append(
            {
                "configuration": name,
                "cycles": metrics.cycles,
                "slowdown vs OP (%)": 100.0 * (metrics.cycles / baseline_cycles - 1.0),
                "IPC": metrics.ipc,
                "copy µops": metrics.copies_generated,
                "balance stalls": metrics.balance_stalls,
            }
        )
    print(format_table(rows, title=f"{benchmark}: steering configurations side by side"))
    print(
        "Reading guide: 'one-cluster' wastes half the machine, the software-only\n"
        "schemes (OB, RHOP) cannot react to run-time load, and the hybrid VC scheme\n"
        "tracks the hardware-only OP baseline with a fraction of its steering logic."
    )


if __name__ == "__main__":
    main()
