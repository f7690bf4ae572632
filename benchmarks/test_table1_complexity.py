"""Table 1: steering-unit complexity comparison.

Regenerates the hardware-structure table for the five Table 3 configurations
and checks the paper's qualitative claims (OP needs the dependence check and
the vote unit and is serialised; VC needs neither and is far smaller).
"""

from __future__ import annotations

from repro.cluster.config import ClusterConfig, four_cluster_config
from repro.experiments.report import format_table
from repro.experiments.table1 import paper_table1_claims, run_table1
from repro.scenarios.builtin import builtin_scenario

#: The Table 3 line-up of the ``table1`` scenario.
LINEUP = builtin_scenario("table1").configurations


def test_table1_steering_complexity(benchmark):
    """Reproduce Table 1 on the 2-cluster machine of Table 2."""

    def build():
        return run_table1(ClusterConfig(num_clusters=2), 2, LINEUP)

    rows = benchmark.pedantic(build, rounds=3, iterations=1)
    claims = paper_table1_claims(rows)
    assert all(claims.values()), claims
    benchmark.extra_info["table1"] = rows
    print()
    print(format_table(rows, title="Table 1 -- steering-unit complexity (2-cluster machine)"))


def test_table1_scaling_to_four_clusters(benchmark):
    """Complexity of the same structures on the 4-cluster machine of Section 5.4."""

    def build():
        return run_table1(four_cluster_config(), 4, LINEUP)

    rows = benchmark.pedantic(build, rounds=3, iterations=1)
    by_name = {row["steering algorithm"]: row for row in rows}
    # The hardware-only scheme's storage grows with cluster count; the hybrid
    # scheme's mapping table stays tiny.
    assert by_name["VC"]["storage bits"] < 0.25 * by_name["OP"]["storage bits"]
    benchmark.extra_info["table1_4cluster"] = rows
    print()
    print(format_table(rows, title="Table 1 (extended) -- 4-cluster machine"))
