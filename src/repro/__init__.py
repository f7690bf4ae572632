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
>>> results = quick_comparison("164.gzip-1")
>>> sorted(results)  # doctest: +ELLIPSIS
['OB', 'OP', 'RHOP', 'VC', 'one-cluster']
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import SimulationMetrics

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # µop / program model
    "UopClass",
    "CompiledTrace",
    "Program",
    "build_ddg",
    "form_regions",
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
    "SteeringConfiguration",
    "TABLE3_CONFIGURATIONS",
    "make_configuration",
    "vc_variant",
    "run_table1",
    "quick_comparison",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cluster.config": ("ClusterConfig", "two_cluster_config", "four_cluster_config"),
        ".cluster.metrics": ("SimulationMetrics",),
        ".cluster.processor": ("ClusteredProcessor", "simulate_trace"),
        ".engine.artifacts": ("TraceArtifactStore",),
        ".engine.cache": ("ResultCache",),
        ".engine.job": ("SimulationJob",),
        ".engine.parallel": ("ParallelRunner",),
        ".experiments.configs": (
            "SteeringConfiguration",
            "TABLE3_CONFIGURATIONS",
            "make_configuration",
            "vc_variant",
        ),
        ".experiments.runner": ("ExperimentRunner",),
        ".experiments.table1": ("run_table1",),
        ".partition.ob_partitioner": ("OperationBasedPartitioner",),
        ".partition.rhop_partitioner": ("RhopPartitioner",),
        ".partition.vc_partitioner": ("VirtualClusterPartitioner",),
        ".program.ddg": ("build_ddg",),
        ".program.program": ("Program",),
        ".program.regions": ("form_regions",),
        ".scenarios.builtin": ("builtin_scenario",),
        ".scenarios.registry": ("register_machine", "register_partitioner", "register_policy"),
        ".scenarios.runner": ("run_scenario",),
        ".scenarios.spec": ("MachineSpec", "ScenarioSpec", "SweepAxis"),
        ".steering.occupancy": ("OccupancyAwareSteering",),
        ".steering.one_cluster": ("OneClusterSteering",),
        ".steering.static_follow": ("StaticAssignmentSteering",),
        ".steering.virtual_cluster": ("VirtualClusterSteering",),
        ".uops.compiled": ("CompiledTrace",),
        ".uops.opcodes": ("UopClass",),
        ".workloads.generator": ("WorkloadGenerator",),
        ".workloads.profile": ("BenchmarkProfile",),
        ".workloads.spec2000": ("all_trace_names", "profile_for"),
    },
)


def quick_comparison(
    benchmark: Optional[str] = None, trace_length: Optional[int] = None
) -> Dict[str, SimulationMetrics]:
    """Run the built-in ``quickstart`` scenario and return its phase-0 metrics.

    The one-call entry point used by the quickstart example: every Table 3
    configuration simulates the benchmark's first simulation point on the
    2-cluster machine, on the same trace, with the default serial engine.
    Returns ``{configuration name: SimulationMetrics}``.

    Parameters
    ----------
    benchmark:
        A SPEC CPU2000 trace name (see :func:`repro.workloads.all_trace_names`);
        ``None`` means the scenario's benchmark.
    trace_length:
        Dynamic µops per simulation point; ``None`` means the scenario's.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.scenarios.builtin import builtin_scenario
    from repro.scenarios.spec import scenario_overrides

    spec = scenario_overrides(
        builtin_scenario("quickstart"),
        benchmarks=None if benchmark is None else [benchmark],
        trace_length=trace_length,
    )
    (name,) = spec.benchmarks
    per_config = ExperimentRunner(spec).run_suite([name], spec.configurations)[name]
    # Surface the first phase's metrics object; weighted aggregates are in
    # the BenchmarkResult itself.
    return {config: result.phase_results[0].metrics for config, result in per_config.items()}
