"""Benchmark runner: profiles -> programs -> traces -> simulations -> weighted metrics.

The runner mirrors the paper's methodology: every benchmark contributes up to
ten PinPoints simulation points; each point is simulated under every
configuration on the *same* dynamic trace (only the compiler annotations and
the run-time policy change); and benchmark-level numbers are the
PinPoints-weighted averages of the per-point numbers.

All simulation is routed through the experiment engine
(:mod:`repro.engine`): the runner expands its work into independent
``benchmark x phase x configuration`` :class:`~repro.engine.job.SimulationJob`
units, hands them to a :class:`~repro.engine.parallel.ParallelRunner` (serial
by default; the caller's engine may be process-parallel and backed by an
on-disk result cache) and reassembles the PinPoints-weighted aggregates in a
fixed order -- so serial, parallel and cache-replay runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import SimulationMetrics
from repro.engine.job import SimulationJob
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import SteeringConfiguration
from repro.workloads.pinpoints import SimulationPoint, select_simulation_points, weighted_average
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.spec2000 import profile_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec


@dataclass
class PhaseRunResult:
    """Result of simulating one simulation point under one configuration."""

    benchmark: str
    phase: int
    weight: float
    configuration: str
    metrics: SimulationMetrics


@dataclass
class BenchmarkResult:
    """PinPoints-weighted metrics of one benchmark under one configuration."""

    benchmark: str
    suite: str
    configuration: str
    cycles: float
    copies: float
    allocation_stalls: float
    committed_uops: float
    phase_results: List[PhaseRunResult] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Weighted committed µops per weighted cycle."""
        return self.committed_uops / self.cycles if self.cycles else 0.0


@dataclass
class PhaseMatrix:
    """The expanded ``benchmark x configuration x phase`` matrix of one run.

    ``cells[i]`` is the ``(profile, configuration, point)`` that ``jobs[i]``
    simulates; ``points`` maps each benchmark name to its weighted
    simulation points.  Built by :meth:`ExperimentRunner.expand_phase_matrix`.
    """

    profiles: List[BenchmarkProfile]
    configurations: List[SteeringConfiguration]
    points: Dict[str, List[SimulationPoint]]
    cells: List[Tuple[BenchmarkProfile, SteeringConfiguration, SimulationPoint]]
    jobs: List[SimulationJob]


class ExperimentRunner:
    """Run benchmarks under steering configurations with shared traces.

    Every simulation goes through the experiment engine, which memoises the
    generated program and trace of each ``(benchmark, phase)`` pair per
    process so that all configurations see the exact same dynamic µop stream.

    Parameters
    ----------
    spec:
        The experiment's :class:`~repro.scenarios.spec.ScenarioSpec`: its
        machine, virtual-cluster count, trace length, phases and region size
        fix every job (its benchmarks and configurations are the caller's
        to pass, so one runner serves any subset).
    engine:
        The :class:`~repro.engine.parallel.ParallelRunner` every simulation
        goes through; several runners may share one (its cache, worker pool
        and resident trace segments).  The caller owns it and shuts it down.
        Defaults to a serial, uncached engine.
    """

    def __init__(self, spec: "ScenarioSpec", engine: Optional[ParallelRunner] = None) -> None:
        self.spec = spec
        self.engine = engine if engine is not None else ParallelRunner()
        # The engine keys jobs by the geometry plus the fields that differ
        # from the Table 2 machine of that cluster count.
        machine = spec.machine.resolve()
        default = ClusterConfig(num_clusters=machine.num_clusters)
        self.num_clusters = machine.num_clusters
        self.config_overrides = tuple(
            sorted(
                (f.name, getattr(machine, f.name))
                for f in fields(ClusterConfig)
                if getattr(machine, f.name) != getattr(default, f.name)
            )
        )

    # -- job expansion ----------------------------------------------------------------
    def simulation_points(self, profile: BenchmarkProfile) -> List[SimulationPoint]:
        """Weighted simulation points of ``profile`` under the spec's phase cap."""
        return select_simulation_points(profile, max_phases=self.spec.max_phases)

    def make_job(
        self,
        profile: BenchmarkProfile,
        point: SimulationPoint,
        configuration: SteeringConfiguration,
    ) -> SimulationJob:
        """The engine job simulating ``point`` of ``profile`` under ``configuration``."""
        spec = self.spec
        return SimulationJob(
            profile=profile,
            phase=point.phase,
            configuration=configuration,
            trace_length=spec.trace_length,
            region_size=spec.region_size,
            num_clusters=self.num_clusters,
            num_virtual_clusters=spec.num_virtual_clusters,
            config_overrides=self.config_overrides,
        )

    # -- running ---------------------------------------------------------------------
    def _assemble(
        self,
        profile: BenchmarkProfile,
        configuration_name: str,
        points: Sequence[SimulationPoint],
        phase_results: List[PhaseRunResult],
    ) -> BenchmarkResult:
        """Fold per-phase results into the PinPoints-weighted benchmark result."""
        if len(phase_results) != len(points):
            raise ValueError(
                f"{profile.name}/{configuration_name}: {len(phase_results)} phase results "
                f"for {len(points)} simulation points"
            )
        cycles = weighted_average([r.metrics.cycles for r in phase_results], points)
        copies = weighted_average([r.metrics.copies_generated for r in phase_results], points)
        stalls = weighted_average(
            [r.metrics.balance_stalls for r in phase_results], points
        )
        committed = weighted_average(
            [r.metrics.committed_uops for r in phase_results], points
        )
        return BenchmarkResult(
            benchmark=profile.name,
            suite=profile.suite,
            configuration=configuration_name,
            cycles=cycles,
            copies=copies,
            allocation_stalls=stalls,
            committed_uops=committed,
            phase_results=phase_results,
        )

    def run_benchmark(
        self, benchmark: Union[str, BenchmarkProfile], configuration: SteeringConfiguration
    ) -> BenchmarkResult:
        """Simulate every simulation point of ``benchmark`` under ``configuration``."""
        profile = benchmark if isinstance(benchmark, BenchmarkProfile) else profile_for(benchmark)
        phase_results = self.run_phase_matrix([profile], [configuration])[profile.name][
            configuration.name
        ]
        return self._assemble(
            profile, configuration.name, self.simulation_points(profile), phase_results
        )

    def expand_phase_matrix(
        self,
        benchmarks: Sequence[Union[str, BenchmarkProfile]],
        configurations: Sequence[SteeringConfiguration],
    ) -> "PhaseMatrix":
        """The jobs of the ``benchmark x configuration x phase`` matrix.

        Step one of :meth:`run_phase_matrix` / :meth:`run_suite`: the jobs
        can run through the engine on their own or together with those of
        other matrices (a sweep runs all its points as one engine run), and
        :meth:`assemble_phase_matrix` / :meth:`assemble_suite` fold their
        metrics back.
        """
        profiles = [
            benchmark if isinstance(benchmark, BenchmarkProfile) else profile_for(benchmark)
            for benchmark in benchmarks
        ]
        # Results are keyed by name on both axes; duplicates would silently
        # mix the metrics of distinct runs under one key.
        for axis, names in (
            ("benchmark", [profile.name for profile in profiles]),
            ("configuration", [configuration.name for configuration in configurations]),
        ):
            duplicates = {name for name in names if names.count(name) > 1}
            if duplicates:
                raise ValueError(f"duplicate {axis} names in one run: {sorted(duplicates)}")
        points = {profile.name: self.simulation_points(profile) for profile in profiles}
        cells: List[Tuple[BenchmarkProfile, SteeringConfiguration, SimulationPoint]] = [
            (profile, configuration, point)
            for profile in profiles
            for configuration in configurations
            for point in points[profile.name]
        ]
        return PhaseMatrix(
            profiles=profiles,
            configurations=list(configurations),
            points=points,
            cells=cells,
            jobs=[
                self.make_job(profile, point, configuration)
                for profile, configuration, point in cells
            ],
        )

    def assemble_phase_matrix(
        self, matrix: "PhaseMatrix", metrics: Sequence[SimulationMetrics]
    ) -> Dict[str, Dict[str, List[PhaseRunResult]]]:
        """``results[benchmark][configuration]``: the phase-ordered results of ``matrix``.

        ``metrics`` holds one entry per job of ``matrix``, in job order.
        """
        if len(metrics) != len(matrix.jobs):
            raise ValueError(f"{len(metrics)} metrics for {len(matrix.jobs)} jobs")
        results: Dict[str, Dict[str, List[PhaseRunResult]]] = {
            profile.name: {configuration.name: [] for configuration in matrix.configurations}
            for profile in matrix.profiles
        }
        for (profile, configuration, point), phase_metrics in zip(matrix.cells, metrics):
            results[profile.name][configuration.name].append(
                PhaseRunResult(
                    benchmark=profile.name,
                    phase=point.phase,
                    weight=point.weight,
                    configuration=configuration.name,
                    metrics=phase_metrics,
                )
            )
        return results

    def assemble_suite(
        self, matrix: "PhaseMatrix", metrics: Sequence[SimulationMetrics]
    ) -> Dict[str, Dict[str, BenchmarkResult]]:
        """``results[benchmark][configuration]``: the weighted results of ``matrix``."""
        phases = self.assemble_phase_matrix(matrix, metrics)
        return {
            profile.name: {
                configuration.name: self._assemble(
                    profile,
                    configuration.name,
                    matrix.points[profile.name],
                    phases[profile.name][configuration.name],
                )
                for configuration in matrix.configurations
            }
            for profile in matrix.profiles
        }

    def run_phase_matrix(
        self,
        benchmarks: Sequence[Union[str, BenchmarkProfile]],
        configurations: Sequence[SteeringConfiguration],
    ) -> Dict[str, Dict[str, List[PhaseRunResult]]]:
        """Per-phase results of every benchmark under every configuration.

        The full ``benchmark x configuration x phase`` matrix is expanded
        into one engine run, so on a parallel engine every cell simulates
        concurrently.  Returns ``results[benchmark][configuration]`` as a
        phase-ordered list of :class:`PhaseRunResult`.
        """
        matrix = self.expand_phase_matrix(benchmarks, configurations)
        return self.assemble_phase_matrix(matrix, self.engine.run(matrix.jobs))

    def run_suite(
        self,
        benchmarks: Sequence[Union[str, BenchmarkProfile]],
        configurations: Sequence[SteeringConfiguration],
    ) -> Dict[str, Dict[str, BenchmarkResult]]:
        """Run every benchmark under every configuration.

        Returns ``results[benchmark_name][configuration_name]``.
        """
        matrix = self.expand_phase_matrix(benchmarks, configurations)
        return self.assemble_suite(matrix, self.engine.run(matrix.jobs))


# ---------------------------------------------------------------------------
# Comparison helpers shared by the figure computations and report kinds
# ---------------------------------------------------------------------------


def slowdown_percent(cycles: float, baseline_cycles: float) -> float:
    """Slowdown of a configuration relative to the baseline, in percent.

    Positive values mean the configuration is slower than the baseline (this
    is the y-axis of Figures 5 and 7).
    """
    if baseline_cycles <= 0:
        raise ValueError("baseline cycles must be positive")
    return (cycles / baseline_cycles - 1.0) * 100.0


def speedup_percent(cycles: float, other_cycles: float) -> float:
    """Speedup of a configuration over another, in percent (Figure 6 x-axis)."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return (other_cycles / cycles - 1.0) * 100.0


def reduction_percent(value: float, reference: float) -> float:
    """Relative reduction of ``value`` with respect to ``reference``, in percent.

    Used for both copy reduction and workload-balance (allocation stall)
    improvement.  When the reference is zero the reduction is defined as 0.
    """
    if reference <= 0:
        return 0.0
    return (reference - value) / reference * 100.0
