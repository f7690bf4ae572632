#!/usr/bin/env python
"""Scalability study: 2-cluster versus 4-cluster machines (Figure 7).

Runs OP, the software-only schemes and both VC variants (4 and 2 virtual
clusters) on the 4-cluster machine, then contrasts the averages with the
2-cluster machine -- the paper's argument that the hybrid scheme keeps
scaling while software-only steering falls further behind.

Usage::

    python examples/scaling_clusters.py [trace_length]
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentRunner, run_slowdown
from repro.experiments.report import format_table
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import scenario_overrides

BENCHMARKS = ["164.gzip-1", "176.gcc-1", "181.mcf", "186.crafty", "178.galgel", "200.sixtrack"]


def main() -> None:
    trace_length = int(sys.argv[1]) if len(sys.argv) > 1 else None
    # Each figure's scenario brings its machine: 2 clusters for Figure 5,
    # 4 clusters with 4 virtual clusters for Figure 7.
    two_cluster, four_cluster = (
        scenario_overrides(builtin_scenario(name), benchmarks=BENCHMARKS, trace_length=trace_length)
        for name in ("figure5", "figure7")
    )

    print("2-cluster machine (Figure 5 subset)...")
    figure5 = run_slowdown(ExperimentRunner(two_cluster), BENCHMARKS, two_cluster.configurations)
    print(format_table(figure5.averages_table(), title="2 clusters: average slowdown vs OP (%)"))

    print("4-cluster machine (Figure 7 subset)...")
    figure7 = run_slowdown(ExperimentRunner(four_cluster), BENCHMARKS, four_cluster.configurations)
    print(format_table(figure7.averages_table(), title="4 clusters: average slowdown vs OP (%)"))
    print(
        f"VC(4->4) copy µops relative to VC(2->4): "
        f"{figure7.copy_overhead('VC(4->4)', 'VC(2->4)'):+.1f} %  (paper reports +28 %)\n"
    )

    print(
        "Reading guide: on the wider machine the software-only schemes drift further\n"
        "from the hardware-only baseline, while the hybrid scheme -- especially with\n"
        "2 virtual clusters remapped dynamically over 4 physical clusters -- stays close."
    )


if __name__ == "__main__":
    main()
