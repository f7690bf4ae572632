"""Golden-metrics snapshot: the pinned simulator behaviour regression suite.

This module is the single source of truth for *what* the golden-file
regression test pins: small, fixed-seed benchmark/configuration pairs
covering every Table 3 configuration (hardware-only, software-only and
hybrid; integer and floating-point benchmarks) simulated through the
experiment engine, snapshotting the key metrics the paper's evaluation rests
on -- IPC, copy-µop count, inter-cluster traffic (copies per producing
cluster), commit count, cycles and the dispatch distribution.  Because the
compiled-trace kernel (see DESIGN.md) is required to be bit-identical to the
seed simulator, this snapshot doubles as the compiled-path equivalence
reference.

``tests/test_golden_metrics.py`` compares :func:`compute_golden_snapshot`
against the committed ``tests/golden/golden_metrics.json``;
``scripts/regenerate_golden_metrics.py`` rewrites that file after an
intentional behaviour change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.spec import MachineSpec, ScenarioSpec

#: Committed snapshot location (inside the test tree so it ships with tests).
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / "golden_metrics.json"

#: Settings of the golden runs: deliberately small so the regression test is
#: cheap, but long enough that steering differences show up in the counters.
#: Every knob is spelled out, so a change of the spec's defaults never moves
#: the snapshot.
GOLDEN_SETTINGS = ScenarioSpec(
    name="golden",
    machine=MachineSpec(preset="table2-2c"),
    num_virtual_clusters=2,
    trace_length=800,
    max_phases=1,
    region_size=128,
)

#: The pinned benchmark/configuration pairs: every Table 3 configuration,
#: alternating an integer and a floating-point benchmark so both suites (and
#: both issue-queue kinds) stay covered.
GOLDEN_CASES = (
    ("164.gzip-1", "OP"),
    ("178.galgel", "VC"),
    ("164.gzip-1", "one-cluster"),
    ("178.galgel", "OB"),
    ("164.gzip-1", "RHOP"),
)


def compute_golden_snapshot() -> Dict[str, object]:
    """Simulate the golden cases and return the snapshot payload.

    The payload is JSON-compatible and deterministic: integer counters stay
    integers and the only float (IPC) is derived from them, so an exact
    comparison against the committed file is meaningful.
    """
    runner = ExperimentRunner(GOLDEN_SETTINGS)
    cases: List[Dict[str, object]] = []
    for benchmark, configuration_name in GOLDEN_CASES:
        result = runner.run_benchmark(benchmark, TABLE3_CONFIGURATIONS[configuration_name])
        metrics = result.phase_results[0].metrics
        cases.append(
            {
                "benchmark": benchmark,
                "configuration": configuration_name,
                "phase": result.phase_results[0].phase,
                "cycles": metrics.cycles,
                "ipc": metrics.ipc,
                "committed_uops": metrics.committed_uops,
                "dispatched_uops": metrics.dispatched_uops,
                "copies_generated": metrics.copies_generated,
                "inter_cluster_traffic": list(metrics.cluster_copies),
                "cluster_dispatch": list(metrics.cluster_dispatch),
                "allocation_stalls": list(metrics.allocation_stalls),
                "balance_stalls": metrics.balance_stalls,
            }
        )
    return {
        "settings": {
            "num_clusters": runner.num_clusters,
            "num_virtual_clusters": GOLDEN_SETTINGS.num_virtual_clusters,
            "trace_length": GOLDEN_SETTINGS.trace_length,
            "max_phases": GOLDEN_SETTINGS.max_phases,
            "region_size": GOLDEN_SETTINGS.region_size,
        },
        "cases": cases,
    }
