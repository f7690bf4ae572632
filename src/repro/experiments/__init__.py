"""Experiment harness: the computations behind the paper's evaluation.

What each figure, table and sweep runs -- machine, benchmarks, line-up --
is its built-in scenario (:mod:`repro.scenarios.builtin`); this package
holds only the computation the scenario report kinds call.

* :mod:`repro.experiments.configs` -- the five configurations of Table 3
  (OP, one-cluster, OB, RHOP, VC) as declarative specs naming their
  compile-time pass and run-time policy in the scenario registries.
* :mod:`repro.experiments.runner` -- runs a benchmark (all of its PinPoints
  phases) under one configuration and aggregates weighted metrics.
* :mod:`repro.experiments.slowdown` -- per-benchmark slowdown versus a
  baseline (Figures 5 and 7), including the VC(4->4) vs VC(2->4) copy
  comparison of Section 5.4.
* :mod:`repro.experiments.figure6` -- copy-reduction / workload-balance
  trade-off scatter data (Figure 6).
* :mod:`repro.experiments.table1` -- steering-unit complexity (Table 1).
* :mod:`repro.experiments.report` -- plain-text table formatting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".configs": (
            "SteeringConfiguration",
            "TABLE3_CONFIGURATIONS",
            "make_configuration",
            "table3_configurations",
            "vc_variant",
        ),
        ".figure6": ("Figure6Point", "Figure6Result", "run_figure6"),
        ".report": ("format_table",),
        ".runner": ("BenchmarkResult", "ExperimentRunner"),
        ".slowdown": ("SlowdownResult", "run_slowdown"),
        ".table1": ("run_table1",),
    },
)
