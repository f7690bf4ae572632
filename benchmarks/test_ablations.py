"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures and run the four built-in sweep
scenarios at small settings:

* virtual-cluster count sweep (generalising the VC(2) / VC(4) study),
* inter-cluster link latency sweep (how fast copy cost grows),
* compiler-window (region size) sweep (the "bigger window" advantage),
* issue-queue size sweep (how much run-time balance matters).
"""

from __future__ import annotations

import dataclasses

from repro.engine.parallel import ParallelRunner
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.runner import sweep_rows

#: Small, fixed settings: ablations multiply the number of simulations, so
#: they use shorter traces than the figure benchmarks.
ABLATION_BENCHMARKS = ("164.gzip-1", "181.mcf", "178.galgel")
ABLATION_TRACE_LENGTH = 1500


def _sweep(benchmark, name, values):
    """Run built-in sweep ``name`` over ``values`` at the small settings."""
    base = builtin_scenario(name)
    (axis,) = base.sweep
    spec = dataclasses.replace(
        base,
        benchmarks=ABLATION_BENCHMARKS,
        trace_length=ABLATION_TRACE_LENGTH,
        max_phases=1,
        sweep=(dataclasses.replace(axis, values=values),),
    )
    rows = benchmark.pedantic(sweep_rows, args=(spec, ParallelRunner()), rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = rows
    return axis.parameter, rows


def _cycles(rows, parameter, value, configuration):
    """Summed cycles of one configuration at one swept value."""
    (row,) = [
        row for row in rows if row[parameter] == value and row["configuration"] == configuration
    ]
    return row["cycles"]


def test_ablation_virtual_cluster_count(benchmark):
    """Sweep the number of virtual clusters on the 2-cluster machine."""
    parameter, rows = _sweep(benchmark, "sweep-virtual-clusters", (1, 2, 4))
    # With a single virtual cluster the hybrid scheme degenerates towards
    # one-cluster behaviour whenever remaps are rare; 2 virtual clusters must
    # not be slower than 1 on a 2-cluster machine.
    assert _cycles(rows, parameter, 2, "VC") <= _cycles(rows, parameter, 1, "VC") * 1.05


def test_ablation_link_latency(benchmark):
    """Sweep the inter-cluster link latency (VC and RHOP versus OP)."""
    parameter, rows = _sweep(benchmark, "sweep-link-latency", (1, 4))
    # Every configuration gets slower (or at best equal) when communication
    # cost quadruples.
    for name in ("OP", "RHOP", "VC"):
        cheap = _cycles(rows, parameter, 1, name)
        assert _cycles(rows, parameter, 4, name) >= cheap * 0.98


def test_ablation_region_size(benchmark):
    """Sweep the compiler window used by the software passes."""
    _, rows = _sweep(benchmark, "sweep-region-size", (16, 128))
    vc_rows = [row for row in rows if row["configuration"] == "VC"]
    assert len(vc_rows) == 2


def test_ablation_issue_queue_size(benchmark):
    """Sweep the per-cluster issue-queue sizes (smaller queues stress balance)."""
    parameter, rows = _sweep(benchmark, "sweep-issue-queue-size", (16, 48))
    # Shrinking the queues can only hurt (or leave unchanged) the baseline.
    assert _cycles(rows, parameter, 16, "OP") >= _cycles(rows, parameter, 48, "OP") * 0.98
