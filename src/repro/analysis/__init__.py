"""Compiler analyses used by the compile-time partitioners.

* :mod:`repro.analysis.criticality` -- depth, height and criticality of every
  DDG node (Figure 2, step 1: "Computation of critical paths").
* :mod:`repro.analysis.slack` -- slack of nodes and edges, the weighting
  information used by RHOP's multilevel partitioner.
* :mod:`repro.analysis.completion_time` -- the completion-time estimator the
  VC partitioner uses to evaluate the benefit of placing an instruction on a
  given virtual cluster ("based on the dependences, the latencies, and the
  resource contention in the intended cluster").
* :mod:`repro.analysis.stats` -- descriptive statistics of DDGs and programs
  used by reports, tests and the workload generator's self-checks.
* :mod:`repro.analysis.detlint` (DET1xx) -- the repo-wide determinism
  lint that guards the bit-identity contract, driven by
  :mod:`repro.analysis.framework` (DESIGN.md §7).  Run it as
  ``python -m repro.analysis [paths]``.  Not imported eagerly here, so the
  numeric analyses stay side-effect free.
"""

from repro.analysis.completion_time import CompletionTimeEstimator
from repro.analysis.criticality import CriticalityInfo, compute_criticality
from repro.analysis.slack import SlackInfo, compute_slack
from repro.analysis.stats import DDGStats, ddg_statistics, program_statistics

__all__ = [
    "CriticalityInfo",
    "compute_criticality",
    "SlackInfo",
    "compute_slack",
    "CompletionTimeEstimator",
    "DDGStats",
    "ddg_statistics",
    "program_statistics",
]
