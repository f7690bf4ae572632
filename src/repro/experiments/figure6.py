"""Figure 6: copy reduction and workload-balance improvement versus speedup.

Figure 6 plots, for every PinPoints trace, the speedup of VC over a
comparison scheme (x-axis) against either the copy reduction (panels a.1-a.3)
or the workload-balance improvement (panels b.1-b.3) of VC over that scheme.
The comparison schemes are OB (a.1/b.1), RHOP (a.2/b.2) and OP (a.3/b.3);
the line-up is the built-in ``figure6`` scenario.

Workload-balance improvement follows the paper's definition: "the total
reduction of the allocation stalls in the issue queues" (Section 5.3).

The qualitative claims the reproduction targets:

* versus **OB** and **RHOP**, VC reduces copies for most traces and its
  speedups correlate with that reduction;
* versus **RHOP**, VC often has *worse* balance but still wins -- copy
  reduction matters more than balance;
* versus **OP**, VC tends to have *better* balance but *more* copies, which
  is why OP stays slightly ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.configs import SteeringConfiguration
from repro.experiments.runner import ExperimentRunner, reduction_percent, speedup_percent
from repro.workloads.spec2000 import profile_for


@dataclass(frozen=True)
class Figure6Point:
    """One scatter point: a single trace compared under VC versus another scheme."""

    trace: str
    comparison: str
    speedup_percent: float
    copy_reduction_percent: float
    balance_improvement_percent: float


@dataclass
class Figure6Result:
    """All scatter points of Figure 6, grouped by comparison scheme."""

    #: Comparison scheme names, in panel order.
    comparisons: List[str]
    points: List[Figure6Point] = field(default_factory=list)

    def for_comparison(self, comparison: str) -> List[Figure6Point]:
        """Points of one panel column (``"OB"``, ``"RHOP"`` or ``"OP"``)."""
        return [p for p in self.points if p.comparison == comparison]

    def summary(self, comparison: str) -> Dict[str, float]:
        """Aggregate statistics of one comparison (fractions of traces, correlations)."""
        selected = self.for_comparison(comparison)
        if not selected:
            return {
                "num_traces": 0.0,
                "mean_speedup": 0.0,
                "fraction_with_copy_reduction": 0.0,
                "fraction_with_balance_improvement": 0.0,
                "copy_speedup_correlation": 0.0,
            }
        speedups = np.array([p.speedup_percent for p in selected])
        copy_reductions = np.array([p.copy_reduction_percent for p in selected])
        balance = np.array([p.balance_improvement_percent for p in selected])
        if len(selected) > 1 and np.std(speedups) > 0 and np.std(copy_reductions) > 0:
            correlation = float(np.corrcoef(speedups, copy_reductions)[0, 1])
        else:
            correlation = 0.0
        return {
            "num_traces": float(len(selected)),
            "mean_speedup": float(np.mean(speedups)),
            "fraction_with_copy_reduction": float(np.mean(copy_reductions > 0)),
            "fraction_with_balance_improvement": float(np.mean(balance > 0)),
            "copy_speedup_correlation": correlation,
        }


def run_figure6(
    runner: ExperimentRunner,
    benchmarks: Sequence[str],
    configurations: Sequence[SteeringConfiguration],
) -> Figure6Result:
    """The Figure 6 scatter data: the first configuration (the subject, VC
    in the paper) versus each of the others, one panel column each."""
    subject = configurations[0].name
    comparisons = [configuration.name for configuration in configurations[1:]]
    result = Figure6Result(comparisons=comparisons)
    # Phase-level scatter points, as in the paper ("every point in the figure
    # refers to a trace gathered by the PinPoints tool").  The whole
    # benchmark x configuration x phase matrix is one engine batch, so a
    # parallel runner simulates every scatter point concurrently.
    matrix = runner.run_phase_matrix(benchmarks, configurations)
    for name in benchmarks:
        profile = profile_for(name)
        points = runner.simulation_points(profile)
        per_config = matrix[name]
        for index, point in enumerate(points):
            vc = per_config[subject][index].metrics
            for comparison in comparisons:
                other = per_config[comparison][index].metrics
                result.points.append(
                    Figure6Point(
                        trace=f"{name}/p{point.phase}",
                        comparison=comparison,
                        speedup_percent=speedup_percent(vc.cycles, other.cycles),
                        copy_reduction_percent=reduction_percent(
                            vc.copies_generated, other.copies_generated
                        ),
                        balance_improvement_percent=reduction_percent(
                            vc.balance_stalls, other.balance_stalls
                        ),
                    )
                )
    return result
