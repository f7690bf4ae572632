"""repro: a reproduction of *A Software-Hardware Hybrid Steering Mechanism for
Clustered Microarchitectures* (Cai, Codina, González, González -- IPPS 2008).

The package contains everything the paper's evaluation needs, built from
scratch in Python:

* the **virtual-cluster hybrid steering scheme** -- a compile-time DDG
  partitioner with chain/chain-leader identification
  (:mod:`repro.partition.vc_partitioner`) plus the tiny run-time mapping
  hardware (:mod:`repro.steering.virtual_cluster`);
* the **clustered out-of-order simulator** it is evaluated on
  (:mod:`repro.cluster`), configured per Table 2;
* the **baselines**: occupancy-aware hardware-only steering, one-cluster,
  OB/SPDI and RHOP (:mod:`repro.steering`, :mod:`repro.partition`);
* a **synthetic SPEC CPU2000 workload substrate** with PinPoints-style
  weighted simulation points (:mod:`repro.workloads`);
* the **experiment harness** regenerating every table and figure of the
  evaluation as built-in scenarios (:mod:`repro.scenarios`, computed by
  :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import quick_comparison
>>> results = quick_comparison("164.gzip-1", trace_length=2000)
>>> sorted(results)  # doctest: +ELLIPSIS
['OB', 'OP', 'RHOP', 'VC', 'one-cluster']
"""

from __future__ import annotations

from typing import Dict

from repro.cluster import (
    ClusterConfig,
    ClusteredProcessor,
    SimulationMetrics,
    four_cluster_config,
    simulate_trace,
    two_cluster_config,
)
from repro.engine import ParallelRunner, ResultCache, SimulationJob, TraceArtifactStore
from repro.experiments import ExperimentRunner, ExperimentSettings, run_table1
from repro.experiments.configs import (
    SteeringConfiguration,
    TABLE3_CONFIGURATIONS,
    make_configuration,
    vc_variant,
)
from repro.partition import (
    OperationBasedPartitioner,
    RhopPartitioner,
    VirtualClusterPartitioner,
)
from repro.program import Program, build_ddg, expand_trace, form_regions
from repro.scenarios import (
    MachineSpec,
    ScenarioSpec,
    SweepAxis,
    builtin_scenario,
    register_machine,
    register_partitioner,
    register_policy,
    run_scenario,
)
from repro.steering import (
    OccupancyAwareSteering,
    OneClusterSteering,
    StaticAssignmentSteering,
    VirtualClusterSteering,
)
from repro.uops import CompiledTrace, DynamicUop, StaticInstruction, UopClass, compile_trace
from repro.workloads import (
    BenchmarkProfile,
    WorkloadGenerator,
    all_trace_names,
    profile_for,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # µop / program model
    "UopClass",
    "StaticInstruction",
    "DynamicUop",
    "CompiledTrace",
    "compile_trace",
    "Program",
    "build_ddg",
    "form_regions",
    "expand_trace",
    # compile-time passes
    "VirtualClusterPartitioner",
    "RhopPartitioner",
    "OperationBasedPartitioner",
    # run-time policies
    "OccupancyAwareSteering",
    "OneClusterSteering",
    "StaticAssignmentSteering",
    "VirtualClusterSteering",
    # simulator
    "ClusterConfig",
    "two_cluster_config",
    "four_cluster_config",
    "ClusteredProcessor",
    "SimulationMetrics",
    "simulate_trace",
    # workloads
    "BenchmarkProfile",
    "WorkloadGenerator",
    "all_trace_names",
    "profile_for",
    # engine
    "ParallelRunner",
    "ResultCache",
    "SimulationJob",
    "TraceArtifactStore",
    # scenarios
    "ScenarioSpec",
    "MachineSpec",
    "SweepAxis",
    "builtin_scenario",
    "run_scenario",
    "register_policy",
    "register_partitioner",
    "register_machine",
    # experiments
    "ExperimentRunner",
    "ExperimentSettings",
    "SteeringConfiguration",
    "TABLE3_CONFIGURATIONS",
    "make_configuration",
    "vc_variant",
    "run_table1",
    "quick_comparison",
]


def quick_comparison(
    benchmark: str = "164.gzip-1", trace_length: int = 2000
) -> Dict[str, SimulationMetrics]:
    """Run every Table 3 configuration on one benchmark and return the metrics.

    This is the one-call entry point used by the quickstart example: it
    generates the benchmark's first simulation point on the 2-cluster
    machine, annotates it with each compile-time pass, simulates all five
    configurations on the same trace with the default serial engine and
    returns ``{configuration name: SimulationMetrics}``.

    Parameters
    ----------
    benchmark:
        A SPEC CPU2000 trace name (see :func:`repro.workloads.all_trace_names`).
    trace_length:
        Dynamic µops per simulation point.
    """
    settings = ExperimentSettings(trace_length=trace_length, max_phases=1)
    runner = ExperimentRunner(settings)
    per_config = runner.run_suite([benchmark], list(TABLE3_CONFIGURATIONS.values()))[benchmark]
    # Surface the first phase's metrics object; weighted aggregates are in
    # the BenchmarkResult itself.
    return {name: per_config[name].phase_results[0].metrics for name in TABLE3_CONFIGURATIONS}
