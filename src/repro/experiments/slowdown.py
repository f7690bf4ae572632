"""Figures 5 and 7: per-benchmark slowdown of each configuration versus a baseline.

Both figures plot, per benchmark, the slowdown of every configuration
relative to the hardware-only ``OP`` baseline -- panel (a) for SPECint,
panel (b) for SPECfp -- plus the INT / FP / CPU2000 averages in panel (c).
Figure 5 runs the 2-cluster machine (headline: one-cluster 12.19 %, OB
6.50 %, RHOP 5.40 %, VC 2.62 % average slowdown); Figure 7 the 4-cluster
machine (OB 12.45 %, RHOP 12.69 %, VC(4->4) 12.96 %, VC(2->4) 3.64 %), where
Section 5.4 also compares the copy counts of the two VC variants (VC(4->4)
generates ~28 % more copies than VC(2->4)).  Each figure's machine and
line-up is its built-in scenario (:mod:`repro.scenarios.builtin`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.configs import SteeringConfiguration
from repro.experiments.runner import ExperimentRunner, slowdown_percent
from repro.workloads.spec2000 import profile_for


def _pairwise_sum(values: List[float]) -> float:
    """numpy's pairwise float64 sum of ``values``, in numpy's exact order.

    Below 8 values a plain loop; up to 128, eight strided accumulators
    folded pairwise, then the tail; above 128, the sums of two halves split
    at ``n // 2`` rounded down to a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[end:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def float64_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` bit for bit, without numpy; 0.0 when empty."""
    values = [float(value) for value in values]
    return _pairwise_sum(values) / len(values) if values else 0.0


@dataclass
class SlowdownResult:
    """Per-benchmark and average slowdowns versus the baseline, plus copy counts."""

    #: Plotted (non-baseline) configuration names, in table-column order.
    plotted: List[str]
    #: slowdown[benchmark][configuration] in percent.
    slowdowns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: copies[benchmark][configuration] (weighted copy counts).
    copies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Benchmarks in the integer suite (panel a).
    int_benchmarks: List[str] = field(default_factory=list)
    #: Benchmarks in the floating-point suite (panel b).
    fp_benchmarks: List[str] = field(default_factory=list)

    def average(self, configuration: str, suite: str = "all") -> float:
        """Average slowdown of ``configuration`` over a suite (panel c)."""
        if suite == "int":
            names = self.int_benchmarks
        elif suite == "fp":
            names = self.fp_benchmarks
        elif suite == "all":
            names = self.int_benchmarks + self.fp_benchmarks
        else:
            raise ValueError(f"unknown suite {suite!r}")
        return float64_mean(
            [self.slowdowns[name][configuration] for name in names if name in self.slowdowns]
        )

    def averages_table(self) -> List[Dict[str, object]]:
        """Panel (c): INT / FP / CPU2000 average slowdowns of each configuration."""
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

    def benchmark_rows(self, suite: str) -> List[Dict[str, object]]:
        """Panel (a) or (b): per-benchmark slowdown rows for one suite."""
        names = self.int_benchmarks if suite == "int" else self.fp_benchmarks
        rows = []
        for name in names:
            row: Dict[str, object] = {"benchmark": name}
            for configuration in self.plotted:
                row[f"{configuration} (%)"] = round(self.slowdowns[name][configuration], 2)
            rows.append(row)
        return rows

    def copy_overhead(self, configuration: str, reference: str) -> float:
        """Extra copies of ``configuration`` relative to ``reference``, in percent.

        Summed over every benchmark (Section 5.4 compares VC(4->4) with
        VC(2->4)); 0 when ``reference`` generated no copies.
        """
        total = sum(per_config[configuration] for per_config in self.copies.values())
        total_reference = sum(per_config[reference] for per_config in self.copies.values())
        if total_reference <= 0:
            return 0.0
        return (total / total_reference - 1.0) * 100.0


def run_slowdown(
    runner: ExperimentRunner,
    benchmarks: Sequence[str],
    configurations: Sequence[SteeringConfiguration],
) -> SlowdownResult:
    """Slowdown of every configuration versus the first one, per benchmark."""
    baseline_name = configurations[0].name
    plotted = [configuration.name for configuration in configurations[1:]]
    raw = runner.run_suite(benchmarks, configurations)
    result = SlowdownResult(plotted=plotted)
    for name in benchmarks:
        if profile_for(name).suite == "int":
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
