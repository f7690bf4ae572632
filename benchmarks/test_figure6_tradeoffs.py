"""Figure 6: copy-reduction / workload-balance trade-off of VC versus OB, RHOP and OP.

The paper's reading of Figure 6:

* against OB and RHOP, VC's speedups come mainly from generating fewer copy
  µops (panels a.1 / a.2), even when its workload balance is no better;
* against OP, VC tends to have the balance advantage while OP keeps copies
  lower (panel a.3 / b.3), which is why OP stays slightly ahead overall.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figure6 import run_figure6
from repro.experiments.report import format_key_values
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.builtin import builtin_scenario

#: Figure 6's line-up: the subject (VC) first, then the comparison schemes.
FIGURE6 = builtin_scenario("figure6").configurations


def test_figure6_copy_and_balance_tradeoff(benchmark, two_cluster_settings, bench_benchmarks):
    """Regenerate the Figure 6 scatter data and its per-panel summaries."""

    def run():
        return run_figure6(ExperimentRunner(two_cluster_settings), bench_benchmarks, FIGURE6)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    summaries = {comparison: result.summary(comparison) for comparison in result.comparisons}
    # VC speeds up over both software-only schemes on average.
    assert summaries["OB"]["mean_speedup"] > 0.0
    assert summaries["RHOP"]["mean_speedup"] > 0.0
    # Against OB, the win comes with a copy reduction for most traces.
    assert summaries["OB"]["fraction_with_copy_reduction"] >= 0.5
    # Against OP the hybrid scheme is close (mean gap within a few percent).
    assert summaries["OP"]["mean_speedup"] > -6.0

    benchmark.extra_info["figure6_summaries"] = summaries
    print()
    for comparison in result.comparisons:
        print(
            format_key_values(
                summaries[comparison], title=f"Figure 6 -- VC vs {comparison} (per-trace scatter summary)"
            )
        )
    # Emit the raw scatter points (speedup, copy reduction, balance improvement)
    # so the series of every panel can be re-plotted from the JSON output.
    benchmark.extra_info["figure6_points"] = [
        {
            "trace": point.trace,
            "comparison": point.comparison,
            "speedup_percent": round(point.speedup_percent, 3),
            "copy_reduction_percent": round(point.copy_reduction_percent, 3),
            "balance_improvement_percent": round(point.balance_improvement_percent, 3),
        }
        for point in result.points
    ]


def test_figure6_correlation_between_copies_and_speedup(benchmark, two_cluster_settings):
    """Check that copy reduction correlates with speedup against software-only steering.

    This is the causal claim of Section 5.3 ("This improvement is due to the
    higher reduction in the number of copy instructions"); a small dedicated
    trace set keeps this benchmark fast enough to run at higher statistical
    quality than the full figure.
    """
    subset = ["164.gzip-1", "176.gcc-1", "181.mcf", "178.galgel", "188.ammp"]

    def run():
        return run_figure6(ExperimentRunner(two_cluster_settings), subset, FIGURE6)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    points = result.for_comparison("OB") + result.for_comparison("RHOP")
    speedups = np.array([p.speedup_percent for p in points])
    copy_reductions = np.array([p.copy_reduction_percent for p in points])
    # The relationship only needs to be positive in aggregate: traces that cut
    # more copies should not systematically lose performance.
    gained = speedups[copy_reductions > 0]
    benchmark.extra_info["mean_speedup_when_copies_reduced"] = float(np.mean(gained)) if len(gained) else 0.0
    if len(gained):
        assert float(np.mean(gained)) > -1.0
