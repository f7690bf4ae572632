"""Scenario execution: turn a :class:`ScenarioSpec` into its plain-text report.

:func:`run_scenario` looks the spec's ``report`` kind up in
:data:`REPORT_KINDS` and hands it the spec plus an experiment engine.  The
built-in kinds cover the paper's evaluation and the generic cases:

``table``
    Weighted per-benchmark tables of every configuration (cycles, slowdown
    versus the first configuration, IPC, copies, balance stalls).
``figure5`` / ``figure6`` / ``figure7`` / ``table1``
    The paper's figures and Table 1.  ``figure5`` and ``figure7`` check
    that the spec runs on the 2- and 4-cluster machine respectively.
``sweep``
    Grid-expand the spec's sweep axes and aggregate each point over the
    benchmark set (the ablation-sweep shape, see :func:`sweep_rows`).
``replicated`` / ``race`` / ``crossover``
    The statistical kinds (:mod:`repro.scenarios.adaptive`): replicated
    estimation with CI stopping, configuration racing, and crossover
    bisection, all honouring the spec's
    :class:`~repro.scenarios.spec.StoppingRule` (and the ``adaptive``
    argument below).

Custom kinds can be registered with ``@REPORT_KINDS.register("my-kind")``;
a kind is a callable ``(spec, engine) -> str`` returning the report text
(ending with a newline, so the CLI can append its engine footer).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.engine.parallel import ParallelRunner
from repro.experiments.report import format_key_values, format_table
from repro.experiments.runner import BenchmarkResult, ExperimentRunner, slowdown_percent
from repro.experiments.slowdown import SlowdownResult, run_slowdown
from repro.scenarios.registry import Registry
from repro.scenarios.spec import ScenarioSpec

#: Report kinds: ``name -> (spec, engine) -> str``.  Every built-in kind is
#: registered in this module; the adaptive kinds forward to
#: :mod:`repro.scenarios.adaptive`, which loads only when one of them runs.
REPORT_KINDS = Registry("report kind")


def run_scenario(
    spec: ScenarioSpec,
    engine: Optional[ParallelRunner] = None,
    adaptive: bool = True,
) -> str:
    """Execute ``spec`` and return its report text.

    Parameters
    ----------
    spec:
        The scenario to run.
    engine:
        The engine every simulation goes through (lets callers share one
        worker pool, one set of resident shared-memory segments and one
        cache across scenarios).  The caller owns it and shuts it down.
        Defaults to a serial, uncached engine.
    adaptive:
        ``False`` (the CLI's ``--no-adaptive``) turns the spec's
        :class:`~repro.scenarios.spec.StoppingRule` off: the run executes the
        exhaustive grid and *replays* the stopping decisions (byte-identical
        report, every run paid for).  ``True`` (default) leaves the spec's
        declaration as is.  Ignored for scenarios without a stopping rule.
    """
    if not adaptive and spec.stopping is not None:
        spec = replace(spec, stopping=replace(spec.stopping, enabled=False))
    handler = REPORT_KINDS.get(spec.report)
    return handler(spec, engine if engine is not None else ParallelRunner())


def _join(parts: Sequence[str]) -> str:
    """Join report blocks with one blank line between them and after the last.

    The CLI appends its engine footer right after the report, and the
    perfbench reference tables pin this layout byte for byte.
    """
    return "\n".join(list(parts) + [""])


def _require_configurations(spec: ScenarioSpec, minimum: int = 1) -> List:
    if len(spec.configurations) < minimum:
        raise ValueError(
            f"scenario {spec.name!r} ({spec.report}) needs at least {minimum} "
            f"configuration(s), got {len(spec.configurations)}"
        )
    return list(spec.configurations)


def _reject_sweep(spec: ScenarioSpec) -> None:
    if spec.sweep:
        raise ValueError(
            f"report kind {spec.report!r} does not interpret sweep axes; "
            "use report='sweep' for swept scenarios"
        )


@REPORT_KINDS.register("table")
def _table_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Weighted per-benchmark comparison tables of every configuration."""
    _reject_sweep(spec)
    configurations = _require_configurations(spec)
    runner = ExperimentRunner(spec, engine=engine)
    benchmarks = spec.resolved_benchmarks()
    suite = runner.run_suite(benchmarks, configurations)
    baseline_name = configurations[0].name
    parts = []
    for benchmark in benchmarks:
        baseline_cycles = suite[benchmark][baseline_name].cycles
        rows = []
        for configuration in configurations:
            result = suite[benchmark][configuration.name]
            rows.append(
                {
                    "configuration": configuration.name,
                    "cycles": result.cycles,
                    f"slowdown vs {baseline_name} (%)": round(
                        slowdown_percent(result.cycles, baseline_cycles), 2
                    ),
                    "IPC": result.ipc,
                    "copies": result.copies,
                    "balance stalls": result.allocation_stalls,
                }
            )
        parts.append(format_table(rows, title=f"{benchmark}: {spec.name}"))
    return _join(parts)


def _slowdown_figure(
    spec: ScenarioSpec, engine: ParallelRunner, figure: int, num_clusters: int
) -> SlowdownResult:
    """Run a slowdown figure (5 or 7), checking the spec's machine first."""
    _reject_sweep(spec)
    configurations = _require_configurations(spec, minimum=2)
    runner = ExperimentRunner(spec, engine=engine)
    if runner.num_clusters != num_clusters:
        raise ValueError(f"Figure {figure} is defined for the {num_clusters}-cluster machine")
    return run_slowdown(runner, spec.resolved_benchmarks(), configurations)


@REPORT_KINDS.register("figure5")
def _figure5_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Figure 5 panels (a)-(c): per-benchmark and average slowdowns."""
    result = _slowdown_figure(spec, engine, figure=5, num_clusters=2)
    baseline = spec.configurations[0].name
    return _join(
        [
            format_table(
                result.benchmark_rows("int"),
                title=f"Figure 5(a) -- SPECint slowdown vs {baseline} (%)",
            ),
            format_table(
                result.benchmark_rows("fp"),
                title=f"Figure 5(b) -- SPECfp slowdown vs {baseline} (%)",
            ),
            format_table(
                result.averages_table(),
                title=f"Figure 5(c) -- average slowdown vs {baseline} (%)",
            ),
        ]
    )


@REPORT_KINDS.register("figure6")
def _figure6_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Figure 6 summaries: the subject scheme versus each comparison scheme."""
    from repro.experiments.figure6 import run_figure6

    _reject_sweep(spec)
    configurations = _require_configurations(spec, minimum=2)
    runner = ExperimentRunner(spec, engine=engine)
    result = run_figure6(runner, spec.resolved_benchmarks(), configurations)
    subject = configurations[0].name
    return _join(
        [
            format_key_values(
                result.summary(comparison), title=f"Figure 6 -- {subject} vs {comparison}"
            )
            for comparison in result.comparisons
        ]
    )


@REPORT_KINDS.register("figure7")
def _figure7_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Figure 7 panel (c) plus the Section 5.4 copy comparison."""
    result = _slowdown_figure(spec, engine, figure=7, num_clusters=4)
    baseline = spec.configurations[0].name
    parts = [
        format_table(
            result.averages_table(),
            title=f"Figure 7(c) -- 4-cluster average slowdown vs {baseline} (%)",
        )
    ]
    if "VC(4->4)" in result.plotted and "VC(2->4)" in result.plotted:
        parts.append(
            "VC(4->4) copies relative to VC(2->4): "
            f"{result.copy_overhead('VC(4->4)', 'VC(2->4)'):+.1f} % (paper: +28 %)\n"
        )
    return _join(parts)


@REPORT_KINDS.register("table1")
def _table1_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Table 1: steering-unit complexity of the spec's configurations."""
    from repro.experiments.table1 import run_table1

    _reject_sweep(spec)
    configurations = _require_configurations(spec)
    rows = run_table1(
        config=spec.machine.resolve(),
        num_virtual_clusters=spec.num_virtual_clusters,
        configurations=configurations,
    )
    return format_table(rows, title="Table 1 -- steering-unit complexity")


def aggregate_suite(
    suite: Dict[str, Dict[str, BenchmarkResult]],
    benchmarks: Sequence[str],
    configuration_name: str,
) -> Dict[str, float]:
    """Sum one configuration's weighted cycles/copies/stalls over ``benchmarks``."""
    cycles = copies = stalls = 0.0
    for name in benchmarks:
        result = suite[name][configuration_name]
        cycles += result.cycles
        copies += result.copies
        stalls += result.allocation_stalls
    return {"cycles": cycles, "copies": copies, "allocation_stalls": stalls}


def sweep_rows(spec: ScenarioSpec, engine: ParallelRunner) -> List[Dict[str, object]]:
    """Grid-expand the sweep axes; one row per point and configuration.

    Each row holds the point's axis values, the configuration name and its
    cycles, copies and allocation stalls summed over the benchmarks, plus
    the slowdown versus the first configuration when there are several
    (``"-"`` on the baseline's own rows).  Every point's jobs go into one
    engine run, so all the points touching a trace share one batch: the
    trace is acquired once, and its compile-time annotations and warmed
    caches are computed once for the whole sweep.
    """
    configurations = _require_configurations(spec)
    baseline_name = configurations[0].name if len(configurations) > 1 else None
    points = []
    jobs = []
    for point, point_spec in spec.expand_sweep():
        runner = ExperimentRunner(point_spec, engine=engine)
        benchmarks = point_spec.resolved_benchmarks()
        matrix = runner.expand_phase_matrix(benchmarks, configurations)
        points.append((point, runner, benchmarks, matrix, len(jobs)))
        jobs.extend(matrix.jobs)
    metrics = engine.run(jobs)
    rows: List[Dict[str, object]] = []
    for point, runner, benchmarks, matrix, start in points:
        suite = runner.assemble_suite(matrix, metrics[start : start + len(matrix.jobs)])
        aggregates = {
            configuration.name: aggregate_suite(suite, benchmarks, configuration.name)
            for configuration in configurations
        }
        baseline_cycles = aggregates[baseline_name]["cycles"] if baseline_name else 0.0
        for configuration in configurations:
            data = aggregates[configuration.name]
            row: Dict[str, object] = dict(point)
            row["configuration"] = configuration.name
            row["cycles"] = data["cycles"]
            row["copies"] = data["copies"]
            row["allocation stalls"] = data["allocation_stalls"]
            if baseline_name is not None:
                row[f"slowdown vs {baseline_name} (%)"] = (
                    "-"
                    if configuration.name == baseline_name or baseline_cycles <= 0
                    else round(slowdown_percent(data["cycles"], baseline_cycles), 2)
                )
            rows.append(row)
    return rows


@REPORT_KINDS.register("sweep")
def _sweep_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """The :func:`sweep_rows` table of the spec's sweep axes."""
    swept = ", ".join(axis.parameter for axis in spec.sweep) or spec.name
    # No trailing blank line, unlike _join: the perfbench sweep reference
    # tables and the CLI footer that follows pin this layout.
    return format_table(sweep_rows(spec, engine), title=f"Ablation sweep -- {swept}")


@REPORT_KINDS.register("replicated")
def _replicated_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Forward to :func:`repro.scenarios.adaptive.replicated_report`."""
    from repro.scenarios.adaptive import replicated_report

    return replicated_report(spec, engine)


@REPORT_KINDS.register("race")
def _race_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Forward to :func:`repro.scenarios.adaptive.race_report`."""
    from repro.scenarios.adaptive import race_report

    return race_report(spec, engine)


@REPORT_KINDS.register("crossover")
def _crossover_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Forward to :func:`repro.scenarios.adaptive.crossover_report`."""
    from repro.scenarios.adaptive import crossover_report

    return crossover_report(spec, engine)
