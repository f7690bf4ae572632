"""Figure 7: scalability to a 4-cluster machine.

Paper headline (panel c): OB 12.45 %, RHOP 12.69 %, VC(4->4) 12.96 %,
VC(2->4) 3.64 % average slowdown versus OP, and VC(4->4) generates about 28 %
more copies than VC(2->4) (Section 5.4).

Reproduced shape: the gap
between the software-only schemes and OP widens relative to the 2-cluster
machine, and VC(2->4) stays within a few percent of OP -- but our synthetic
regions contain enough independent chains that VC(4->4) does not degrade the
way the paper reports, so that specific sub-claim is checked only loosely.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentRunner
from repro.experiments.slowdown import run_slowdown
from repro.scenarios.builtin import builtin_scenario


def test_figure7_four_cluster_slowdowns(benchmark, four_cluster_settings, bench_benchmarks):
    """Regenerate Figure 7 (panels a, b, c) plus the copy comparison of Section 5.4."""

    def run():
        return run_slowdown(
            ExperimentRunner(four_cluster_settings),
            bench_benchmarks,
            builtin_scenario("figure7").configurations,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    averages = {
        name: result.average(name, "all")
        for name in ("OB", "RHOP", "VC(4->4)", "VC(2->4)")
    }
    # The hybrid scheme with 2 virtual clusters stays close to the
    # hardware-only baseline on the bigger machine...
    assert averages["VC(2->4)"] < 6.0
    # ... and clearly beats both software-only schemes, whose gap to OP is
    # larger than on the 2-cluster machine (the paper's scalability argument).
    assert averages["VC(2->4)"] < averages["OB"]
    assert averages["VC(2->4)"] < averages["RHOP"]
    assert max(averages["OB"], averages["RHOP"]) > 3.0

    benchmark.extra_info["figure7_averages"] = result.averages_table()
    benchmark.extra_info["paper_averages"] = {
        "OB": 12.45,
        "RHOP": 12.69,
        "VC(4->4)": 12.96,
        "VC(2->4)": 3.64,
    }
    copy_overhead = result.copy_overhead("VC(4->4)", "VC(2->4)")
    benchmark.extra_info["copy_overhead_4to4_vs_2to4_percent"] = copy_overhead
    benchmark.extra_info["paper_copy_overhead_percent"] = 28.0

    print()
    print(format_table(result.averages_table(), title="Figure 7(c) -- 4-cluster average slowdown vs OP (%)"))
    print(
        f"VC(4->4) copies relative to VC(2->4): "
        f"{copy_overhead:+.1f} % (paper: +28 %)\n"
    )
