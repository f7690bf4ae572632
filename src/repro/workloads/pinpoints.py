"""PinPoints-style simulation points.

The paper uses PinPoints to select representative simulation points: every
point contains 10 million instructions, there are at most 10 phases per
benchmark, and all reported results are weighted by the PinPoints weights.

We mirror that structure: each benchmark profile declares a number of phases;
:func:`select_simulation_points` assigns each phase a deterministic weight
(derived from the benchmark seed, normalised to 1) and a seed, and
:func:`weighted_average` folds per-phase metrics into the benchmark-level
number exactly as the paper's weighting does.  Trace lengths are scaled down
from 10 M µops to keep pure-Python simulation tractable; the scaling factor
is a harness parameter, not a property of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.profile import BenchmarkProfile, phase_seed

#: Maximum number of phases per benchmark, as in the paper.
MAX_PHASES = 10


@dataclass(frozen=True)
class SimulationPoint:
    """One weighted simulation point (phase) of a benchmark."""

    benchmark: str
    phase: int
    weight: float
    seed: int

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"164.gzip-1/p0"``."""
        return f"{self.benchmark}/p{self.phase}"


def select_simulation_points(
    profile: BenchmarkProfile, max_phases: int = MAX_PHASES
) -> List[SimulationPoint]:
    """Return the weighted simulation points of ``profile``.

    The number of points is ``min(profile.num_phases, max_phases)``.  Weights
    are drawn from a Dirichlet-like scheme seeded by the benchmark so that
    phases have unequal but reproducible importance (as PinPoints weights
    do), and always sum to 1.  A single point has weight 1.0.
    """
    if max_phases < 1:
        raise ValueError("max_phases must be positive")
    num = min(profile.num_phases, max_phases)
    if num == 1:
        weights = [1.0]
    else:
        import numpy as np

        rng = np.random.default_rng(profile.base_seed * 31 + 17)
        weights = [float(weight) for weight in rng.dirichlet(np.ones(num) * 2.0)]
    return [
        SimulationPoint(
            benchmark=profile.name,
            phase=phase,
            weight=weights[phase],
            seed=phase_seed(profile, phase),
        )
        for phase in range(num)
    ]


def weighted_average(values: Sequence[float], points: Sequence[SimulationPoint]) -> float:
    """Weight per-phase ``values`` by the PinPoints weights of ``points``.

    Raises
    ------
    ValueError
        If the lengths differ or the weights do not sum to a positive value.
    """
    if len(values) != len(points):
        raise ValueError(f"{len(values)} values for {len(points)} simulation points")
    total_weight = sum(p.weight for p in points)
    if total_weight <= 0:
        raise ValueError("simulation point weights must sum to a positive value")
    return float(sum(v * p.weight for v, p in zip(values, points)) / total_weight)
