"""Figure 7: 4-cluster scalability study.

For the 4-cluster machine the paper compares OB, RHOP and two variants of the
hybrid scheme against OP:

* ``VC(4->4)`` -- 4 virtual clusters mapped onto 4 physical clusters,
* ``VC(2->4)`` -- only 2 virtual clusters mapped onto 4 physical clusters.

Headline numbers: OB 12.45 %, RHOP 12.69 %, VC(4->4) 12.96 %, VC(2->4)
3.64 % average slowdown versus OP, and VC(4->4) generates ~28 % more copy
instructions than VC(2->4) because pairs of critical, dependent instructions
get spread across virtual clusters and may be mapped to different physical
clusters at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.configs import TABLE3_CONFIGURATIONS, SteeringConfiguration, vc_variant
from repro.experiments.runner import (
    BenchmarkResult,
    ExperimentRunner,
    ExperimentSettings,
    slowdown_percent,
)
from repro.workloads.spec2000 import all_trace_names, profile_for

#: Configurations plotted in Figure 7 (beyond the OP baseline).
FIGURE7_CONFIGURATIONS = ("OB", "RHOP", "VC(4->4)", "VC(2->4)")


@dataclass
class Figure7Result:
    """Reproduced Figure 7: 4-cluster slowdowns plus the VC copy comparison."""

    #: slowdown[benchmark][configuration] in percent.
    slowdowns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: copies[benchmark][configuration] (weighted copy counts).
    copies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    raw: Dict[str, Dict[str, BenchmarkResult]] = field(default_factory=dict)
    int_benchmarks: List[str] = field(default_factory=list)
    fp_benchmarks: List[str] = field(default_factory=list)
    #: Plotted (non-baseline) configuration names, in table-column order.
    plotted: List[str] = field(default_factory=lambda: list(FIGURE7_CONFIGURATIONS))

    def average(self, configuration: str, suite: str = "all") -> float:
        """Average slowdown of one configuration over a suite (panel c)."""
        if suite == "int":
            names = self.int_benchmarks
        elif suite == "fp":
            names = self.fp_benchmarks
        elif suite == "all":
            names = self.int_benchmarks + self.fp_benchmarks
        else:
            raise ValueError(f"unknown suite {suite!r}")
        values = [self.slowdowns[name][configuration] for name in names if name in self.slowdowns]
        return float(np.mean(values)) if values else 0.0

    def averages_table(self) -> List[Dict[str, object]]:
        """Panel (c): average slowdowns of each configuration."""
        rows = []
        for configuration in self.plotted:
            rows.append(
                {
                    "configuration": configuration,
                    "INT AVG (%)": round(self.average(configuration, "int"), 2),
                    "FP AVG (%)": round(self.average(configuration, "fp"), 2),
                    "CPU2000 AVG (%)": round(self.average(configuration, "all"), 2),
                }
            )
        return rows

    def copy_overhead_4to4_vs_2to4(self) -> float:
        """Extra copies of VC(4->4) relative to VC(2->4), in percent (Section 5.4)."""
        if "VC(4->4)" not in self.plotted or "VC(2->4)" not in self.plotted:
            return 0.0
        total_4 = sum(per_config["VC(4->4)"] for per_config in self.copies.values())
        total_2 = sum(per_config["VC(2->4)"] for per_config in self.copies.values())
        if total_2 <= 0:
            return 0.0
        return (total_4 / total_2 - 1.0) * 100.0


def run_figure7(
    settings: Optional[ExperimentSettings] = None,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    configurations: Optional[Sequence[SteeringConfiguration]] = None,
) -> Figure7Result:
    """Reproduce Figure 7 on the 4-cluster machine.

    ``configurations`` lists the baseline first, then the plotted
    configurations; the paper's line-up (OP, OB, RHOP, VC(4->4), VC(2->4))
    when omitted.
    """
    settings = settings or ExperimentSettings(num_clusters=4, num_virtual_clusters=4)
    if settings.num_clusters != 4:
        raise ValueError("Figure 7 is defined for the 4-cluster machine")
    runner = runner or ExperimentRunner(settings)
    names = list(benchmarks) if benchmarks is not None else all_trace_names("all")
    if configurations is None:
        configurations = [
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["OB"],
            TABLE3_CONFIGURATIONS["RHOP"],
            vc_variant("VC(4->4)", 4),
            vc_variant("VC(2->4)", 2),
        ]
    if len(configurations) < 2:
        raise ValueError("Figure 7 needs a baseline plus at least one configuration")
    baseline_name = configurations[0].name
    plotted = [configuration.name for configuration in configurations[1:]]
    raw = runner.run_suite(names, list(configurations))
    result = Figure7Result(raw=raw, plotted=plotted)
    for name in names:
        suite = profile_for(name).suite
        if suite == "int":
            result.int_benchmarks.append(name)
        else:
            result.fp_benchmarks.append(name)
        baseline = raw[name][baseline_name].cycles
        result.slowdowns[name] = {
            configuration: slowdown_percent(raw[name][configuration].cycles, baseline)
            for configuration in plotted
        }
        result.copies[name] = {
            configuration: raw[name][configuration].copies for configuration in plotted
        }
    return result
