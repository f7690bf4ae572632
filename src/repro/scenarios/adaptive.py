"""Adaptive report kinds: replicated estimation, config racing, bisection.

This module connects the pure decision layer (:mod:`repro.engine.adaptive`)
to the scenario machinery.  A :class:`PointSampler` turns one sweep point of
a replicated :class:`~repro.scenarios.spec.ScenarioSpec` into a grid of
``(configuration, replication)`` cells, each cell being the benchmark-set
aggregate of one full seed block, and executes the cells a stopping-rule
driver asks for -- nothing more.  Three report kinds consume it (registered
in :mod:`repro.scenarios.runner`, which imports this module when one runs):

``"replicated"``
    Per-configuration estimates via :func:`~repro.engine.adaptive.run_ci`:
    each configuration stops replicating once its confidence interval is
    tight enough for the declared precision.

``"race"``
    Ranking via :func:`~repro.engine.adaptive.run_race`: configurations are
    raced on shared seed blocks (common random numbers) and retire as soon
    as their paired gap to the leader is resolved.

``"crossover"``
    Axis bisection via :func:`~repro.engine.adaptive.run_bisection`: the
    sweep axis is consumed only to locate where the subject configuration
    overtakes the baseline, so the scheduler probes ``2 + O(log n)`` points
    instead of the whole grid.

Determinism and ``--no-adaptive``
---------------------------------
Every printed figure is a statistic of the *sampled-value prefix* the
stopping rule resolved, and the stopping rules are pure functions of those
prefixes.  With the rule disabled (``StoppingRule(enabled=False)``, the
CLI's ``--no-adaptive``), the sampler prefetches the exhaustive grid in one
engine call and the very same drivers *replay* their decisions over the
prefetched values -- so adaptive and exhaustive runs print byte-identical
tables by construction, and the executed-cell sequence of an adaptive run
is bit-identical across serial/parallel/shm/replay because engine results
are.  Each sampling round is a barrier: the engine call is consumed to
completion before any decision, so arrival order can never leak into the
schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.engine.adaptive import (
    BisectOutcome,
    ConfigOutcome,
    run_bisection,
    run_ci,
    run_race,
)
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import SteeringConfiguration
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentRunner, PhaseMatrix, slowdown_percent
from repro.scenarios.runner import _require_configurations, aggregate_suite
from repro.scenarios.spec import ScenarioSpec, StoppingRule
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.spec2000 import profile_for

#: Seed-block stride between replications.  Prime and far larger than any
#: per-phase seed offset, so replicated seed spaces never collide; part of
#: the cache key (via the profile), so changing it invalidates nothing
#: silently.
REPLICATION_SEED_STRIDE = 9973

#: Cell metrics tracked per ``(configuration, replication)`` seed block.
_CELL_FIELDS = ("cycles", "copies", "allocation_stalls")


def replicate_profile(profile: BenchmarkProfile, rep: int) -> BenchmarkProfile:
    """Replication ``rep``'s profile: a disjoint seed block of ``profile``.

    Replication 0 is the profile unchanged, so replicated scenarios share
    traces and cache entries with their non-replicated counterparts; later
    replications shift ``base_seed`` by the seed-block stride and tag the
    name (``"164.gzip-1@r3"``) so the experiment harness treats them as
    distinct benchmarks of one run.
    """
    if rep < 0:
        raise ValueError("replication index must be non-negative")
    if rep == 0:
        return profile
    return replace(
        profile,
        name=f"{profile.name}@r{rep}",
        base_seed=profile.base_seed + rep * REPLICATION_SEED_STRIDE,
    )


class PointSampler:
    """Execute ``(configuration, replication)`` cells of one sweep point.

    A *cell* is one full seed block: the phase matrix of every benchmark of
    the scenario, replicated to the cell's seed block, under the cell's
    configuration
    (:meth:`~repro.experiments.runner.ExperimentRunner.expand_phase_matrix`),
    folded by :meth:`~repro.experiments.runner.ExperimentRunner.assemble_suite`
    and :func:`~repro.scenarios.runner.aggregate_suite` -- so cell values
    line up with the ``"sweep"`` report.  Cells are memoised; :meth:`ensure`
    executes the missing ones in a single engine call -- the round
    barrier -- and :meth:`sample_round` is the
    :data:`~repro.engine.adaptive.SampleRound` callback the stopping-rule
    drivers consume.
    """

    def __init__(self, spec: ScenarioSpec, engine: ParallelRunner) -> None:
        if spec.sweep:
            raise ValueError("PointSampler needs an expanded sweep point (no axes)")
        self.engine = engine
        self.replications = spec.replications
        self.configurations: Dict[str, SteeringConfiguration] = {
            configuration.name: configuration for configuration in spec.configurations
        }
        self.runner = ExperimentRunner(spec, engine=engine)
        self.profiles: List[BenchmarkProfile] = [
            profile_for(name) for name in spec.resolved_benchmarks()
        ]
        #: (configuration, rep) -> aggregated cell metrics.
        self._cells: Dict[Tuple[str, int], Dict[str, float]] = {}
        #: Cells in execution order -- the adaptive schedule itself, pinned
        #: by the determinism regression test.
        self.executed_cells: List[Tuple[str, int]] = []
        #: Simulation jobs submitted to the engine so far.
        self.executed_jobs = 0

    # ------------------------------------------------------------- planning --
    def planned_jobs(self) -> int:
        """Simulation jobs of the exhaustive grid (every cell of every config)."""
        per_config = sum(
            len(self.runner.simulation_points(replicate_profile(profile, rep)))
            for rep in range(self.replications)
            for profile in self.profiles
        )
        return len(self.configurations) * per_config

    # ------------------------------------------------------------ execution --
    def ensure(self, cells: Sequence[Tuple[str, int]]) -> None:
        """Execute the not-yet-sampled ``cells`` in one engine call.

        The call is a round barrier: it returns only once every requested
        cell's metrics are assembled.  Jobs run cell by cell, each cell's
        benchmark by benchmark and phase by phase.
        """
        missing = [cell for cell in cells if cell not in self._cells]
        if not missing:
            return
        matrices: List[PhaseMatrix] = []
        for name, rep in missing:
            if rep >= self.replications:
                raise ValueError(
                    f"cell ({name!r}, {rep}) is outside the declared "
                    f"replications ({self.replications})"
                )
            replicas = [replicate_profile(profile, rep) for profile in self.profiles]
            matrices.append(
                self.runner.expand_phase_matrix(replicas, [self.configurations[name]])
            )
        jobs = [job for matrix in matrices for job in matrix.jobs]
        metrics = self.engine.run(jobs)
        self.executed_jobs += len(jobs)
        self.executed_cells.extend(missing)
        start = 0
        for cell, matrix in zip(missing, matrices):
            stop = start + len(matrix.jobs)
            suite = self.runner.assemble_suite(matrix, metrics[start:stop])
            start = stop
            benchmarks = [profile.name for profile in matrix.profiles]
            self._cells[cell] = aggregate_suite(suite, benchmarks, cell[0])

    def prefetch_all(self) -> None:
        """Execute the exhaustive grid in one engine call (``--no-adaptive``).

        The stopping-rule drivers then *replay* their decisions over the
        prefetched values, printing tables byte-identical to the adaptive
        run's.
        """
        self.ensure(
            [
                (name, rep)
                for name in self.configurations
                for rep in range(self.replications)
            ]
        )

    # -------------------------------------------------------------- reading --
    def sample_round(self, rep: int, active: Tuple[str, ...]) -> Mapping[str, float]:
        """The drivers' sampling callback: cycles of replication ``rep``."""
        self.ensure([(name, rep) for name in active])
        return {name: self._cells[(name, rep)]["cycles"] for name in active}

    def cell(self, name: str, rep: int) -> Dict[str, float]:
        """Metrics of one sampled cell (must have been ensured)."""
        return self._cells[(name, rep)]

    def prefix_means(self, name: str, reps: int) -> Dict[str, float]:
        """Mean cell metrics of ``name`` over replications ``0..reps-1``.

        The resolved-prefix statistic every report prints -- identical for
        adaptive and exhaustive runs because both resolve the same prefix.
        """
        if reps < 1:
            raise ValueError("prefix_means needs at least one replication")
        cells = [self._cells[(name, rep)] for rep in range(reps)]
        return {
            field: sum(cell[field] for cell in cells) / reps for field in _CELL_FIELDS
        }


# ---------------------------------------------------------------------------
# Report kinds
# ---------------------------------------------------------------------------


def _require_rule(spec: ScenarioSpec, mode: str) -> StoppingRule:
    if spec.stopping is None:
        raise ValueError(
            f"report kind {spec.report!r} needs a stopping rule "
            f"(spec.stopping with mode={mode!r})"
        )
    if spec.stopping.mode != mode:
        raise ValueError(
            f"report kind {spec.report!r} needs stopping mode {mode!r}, "
            f"got {spec.stopping.mode!r}"
        )
    return spec.stopping


def _record_stats(
    engine: ParallelRunner,
    samplers: Sequence[PointSampler],
    outcomes: Sequence[ConfigOutcome] = (),
    skipped_points: int = 0,
) -> None:
    """Fold one adaptive campaign into the engine's ``[adaptive]`` counters.

    Called only when the stopping rule is *enabled*: with ``--no-adaptive``
    the footers must be indistinguishable from a pre-adaptive build.
    """
    stats = engine.adaptive_stats
    for sampler in samplers:
        stats["planned"] += sampler.planned_jobs()
        stats["executed"] += sampler.executed_jobs
    for outcome in outcomes:
        stats[f"stop_{outcome.reason}"] += 1
    stats["stop_bisected"] += skipped_points


def replicated_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Per-configuration CI-resolved estimates, per sweep point."""
    rule = _require_rule(spec, "ci")
    configurations = _require_configurations(spec)
    names = [configuration.name for configuration in configurations]
    baseline_name = names[0] if len(names) > 1 else None
    rows: List[Dict[str, object]] = []
    samplers: List[PointSampler] = []
    all_outcomes: List[ConfigOutcome] = []
    for point, point_spec in spec.expand_sweep():
        sampler = PointSampler(point_spec, engine)
        samplers.append(sampler)
        if not rule.enabled:
            sampler.prefetch_all()
        outcome = run_ci(
            names,
            sampler.sample_round,
            confidence=rule.confidence,
            min_reps=rule.min_replications,
            max_reps=spec.replications,
            rel_precision=rule.rel_precision,
        )
        all_outcomes.extend(outcome.configs)
        by_name = {config.name: config for config in outcome.configs}
        baseline_cycles = by_name[baseline_name].mean if baseline_name else 0.0
        for config in outcome.configs:
            means = sampler.prefix_means(config.name, config.reps)
            row: Dict[str, object] = dict(point)
            row["configuration"] = config.name
            row["reps"] = config.reps
            row["cycles"] = round(config.mean, 2)
            row["+/-"] = round(config.halfwidth, 2)
            row["copies"] = round(means["copies"], 2)
            row["allocation stalls"] = round(means["allocation_stalls"], 2)
            if baseline_name is not None:
                row[f"slowdown vs {baseline_name} (%)"] = (
                    "-"
                    if config.name == baseline_name or baseline_cycles <= 0
                    else round(slowdown_percent(config.mean, baseline_cycles), 2)
                )
            row["stop"] = config.reason
            rows.append(row)
    if rule.enabled:
        _record_stats(engine, samplers, all_outcomes)
    return format_table(rows, title=f"Replicated estimates -- {spec.name}")


def race_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Race the configurations for the best (lowest-cycles) policy."""
    rule = _require_rule(spec, "race")
    configurations = _require_configurations(spec, minimum=2)
    names = [configuration.name for configuration in configurations]
    rows: List[Dict[str, object]] = []
    samplers: List[PointSampler] = []
    all_outcomes: List[ConfigOutcome] = []
    for point, point_spec in spec.expand_sweep():
        sampler = PointSampler(point_spec, engine)
        samplers.append(sampler)
        if not rule.enabled:
            sampler.prefetch_all()
        outcome = run_race(
            names,
            sampler.sample_round,
            confidence=rule.confidence,
            min_reps=rule.min_replications,
            max_reps=spec.replications,
            tie_margin=rule.tie_margin,
        )
        all_outcomes.extend(outcome.configs)
        for config in outcome.configs:
            row: Dict[str, object] = dict(point)
            row["configuration"] = config.name
            row["best"] = "*" if config.name == outcome.winner else ""
            row["reps"] = config.reps
            row["cycles"] = round(config.mean, 2)
            row["stop"] = config.reason
            rows.append(row)
    if rule.enabled:
        _record_stats(engine, samplers, all_outcomes)
    return format_table(rows, title=f"Race -- {spec.name}")


def crossover_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Bisect the sweep axis for the baseline/subject crossover point."""
    rule = _require_rule(spec, "bisect")
    configurations = _require_configurations(spec, minimum=2)
    if len(configurations) != 2:
        raise ValueError(
            f"scenario {spec.name!r} (crossover) needs exactly two "
            f"configurations (baseline, subject), got {len(configurations)}"
        )
    if len(spec.sweep) != 1:
        raise ValueError(
            f"scenario {spec.name!r} (crossover) needs exactly one sweep "
            f"axis, got {len(spec.sweep)}"
        )
    axis = spec.sweep[0]
    if rule.axis is not None and rule.axis != axis.parameter:
        raise ValueError(
            f"stopping rule bisects axis {rule.axis!r} but the scenario "
            f"sweeps {axis.parameter!r}"
        )
    baseline_name, subject_name = (c.name for c in configurations)
    expansion = spec.expand_sweep()
    samplers = [PointSampler(point_spec, engine) for _, point_spec in expansion]
    if not rule.enabled:
        for sampler in samplers:
            sampler.prefetch_all()

    def probe(index: int) -> float:
        """Mean paired (subject - baseline) cycles at axis point ``index``."""
        sampler = samplers[index]
        cells = [
            (name, rep)
            for rep in range(spec.replications)
            for name in (baseline_name, subject_name)
        ]
        sampler.ensure(cells)
        diffs = [
            sampler.cell(subject_name, rep)["cycles"]
            - sampler.cell(baseline_name, rep)["cycles"]
            for rep in range(spec.replications)
        ]
        return sum(diffs) / len(diffs)

    outcome: BisectOutcome = run_bisection(len(expansion), probe)
    if rule.enabled:
        # All samplers, not just the probed ones: planned must cover the
        # whole grid -- the untouched samplers' jobs are what bisection saved.
        _record_stats(engine, samplers, skipped_points=outcome.skipped)
    evaluated = dict(outcome.path)
    rows: List[Dict[str, object]] = []
    for index in sorted(evaluated):
        point, _ = expansion[index]
        sampler = samplers[index]
        baseline_mean = sum(
            sampler.cell(baseline_name, rep)["cycles"] for rep in range(spec.replications)
        ) / spec.replications
        subject_mean = sum(
            sampler.cell(subject_name, rep)["cycles"] for rep in range(spec.replications)
        ) / spec.replications
        row: Dict[str, object] = dict(point)
        row[baseline_name] = round(baseline_mean, 2)
        row[subject_name] = round(subject_mean, 2)
        row["diff"] = round(evaluated[index], 2)
        rows.append(row)
    parts = [format_table(rows, title=f"Crossover -- {spec.name} ({axis.parameter})")]
    values = axis.values
    if outcome.bracket is not None:
        lo, hi = outcome.bracket
        parts.append(
            f"crossover: {axis.parameter} between {values[lo]} and {values[hi]} "
            f"({subject_name} overtakes {baseline_name})"
        )
    else:
        parts.append(
            f"no crossover: {axis.parameter} in [{values[0]}, {values[-1]}] "
            f"keeps the same sign of {subject_name} - {baseline_name}"
        )
    return "\n".join(parts + [""])
