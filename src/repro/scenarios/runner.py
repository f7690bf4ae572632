"""Scenario execution: turn a :class:`ScenarioSpec` into its plain-text report.

:func:`run_scenario` looks the spec's ``report`` kind up in
:data:`REPORT_KINDS` and hands it the spec plus an experiment engine.  The
built-in kinds cover the paper's evaluation and the generic cases:

``table``
    Weighted per-benchmark tables of every configuration (cycles, slowdown
    versus the first configuration, IPC, copies, balance stalls).
``figure5`` / ``figure6`` / ``figure7`` / ``table1``
    The paper's figures and Table 1, byte-identical to the legacy CLI
    commands they replace.
``sweep``
    Grid-expand the spec's sweep axes and aggregate each point over the
    benchmark set (the ablation-sweep shape).
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

from repro.engine.cache import ResultCache
from repro.engine.parallel import AUTO_TRACE_ROOT, ParallelRunner
from repro.experiments.ablations import aggregate_suite
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.report import format_key_values, format_table
from repro.experiments.runner import ExperimentRunner, slowdown_percent
from repro.experiments.table1 import run_table1
from repro.scenarios.registry import Registry
from repro.scenarios.spec import ScenarioSpec

#: Report kinds: ``name -> (spec, engine) -> str``.  The adaptive kinds
#: live in their own module (it imports this one for the registry, so it
#: loads lazily on first lookup).
REPORT_KINDS = Registry("report kind", builtin_modules=("repro.scenarios.adaptive",))


def run_scenario(
    spec: ScenarioSpec,
    engine: Optional[ParallelRunner] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    trace_dir: Optional[str] = AUTO_TRACE_ROOT,
    batching: bool = True,
    shared_memory: Optional[bool] = None,
    adaptive: Optional[bool] = None,
) -> str:
    """Execute ``spec`` and return its report text.

    Parameters
    ----------
    spec:
        The scenario to run.
    engine:
        Pre-built engine to use (lets callers share one worker pool, one set
        of resident shared-memory segments and one cache across scenarios);
        built from ``jobs`` / ``cache_dir`` / ``trace_dir`` / ``batching`` /
        ``shared_memory`` when omitted.  An engine built here is shut down
        before returning (its pool and segments do not outlive the call);
        a caller-provided engine is left running for reuse.
    jobs / cache_dir:
        Engine knobs when no engine is passed: worker processes (results are
        bit-identical for any count) and the optional on-disk result cache.
    trace_dir:
        Directory of the shared compiled-trace artifacts (see
        :class:`~repro.engine.artifacts.TraceArtifactStore`).  Defaults to
        ``<cache_dir>/traces``; pass ``None`` to regenerate traces instead.
    batching:
        Schedule the scenario's jobs as per-trace batches (default) or
        per-job; results are bit-identical either way.
    shared_memory:
        Publish compiled traces into shared-memory segments for parallel
        batched runs (``None`` = where available, the default); results are
        bit-identical either way.
    adaptive:
        Override the spec's :class:`~repro.scenarios.spec.StoppingRule`
        enablement (the CLI's ``--adaptive`` / ``--no-adaptive``): ``False``
        runs the exhaustive grid and *replays* the stopping decisions
        (byte-identical report, every run paid for), ``True`` forces early
        stopping on, ``None`` (default) leaves the spec's declaration as
        is.  Ignored for scenarios without a stopping rule.
    """
    if adaptive is not None and spec.stopping is not None:
        spec = replace(spec, stopping=replace(spec.stopping, enabled=adaptive))
    owned = engine is None
    if engine is None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        engine = ParallelRunner(
            max_workers=jobs,
            cache=cache,
            trace_root=trace_dir,
            batching=batching,
            shared_memory=shared_memory,
        )
    handler = REPORT_KINDS.get(spec.report)
    try:
        return handler(spec, engine)
    finally:
        if owned:
            engine.shutdown()


def _join(parts: Sequence[str]) -> str:
    """Join report blocks exactly like the legacy CLI commands did."""
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
    settings = spec.settings()
    runner = ExperimentRunner(settings, engine=engine)
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


@REPORT_KINDS.register("figure5")
def _figure5_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Figure 5 panels (a)-(c): per-benchmark and average slowdowns."""
    _reject_sweep(spec)
    configurations = _require_configurations(spec, minimum=2)
    settings = spec.settings()
    runner = ExperimentRunner(settings, engine=engine)
    result = run_figure5(
        settings,
        benchmarks=list(spec.benchmarks) or None,
        runner=runner,
        configurations=configurations,
    )
    baseline = configurations[0].name
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
    _reject_sweep(spec)
    configurations = _require_configurations(spec, minimum=2)
    settings = spec.settings()
    runner = ExperimentRunner(settings, engine=engine)
    result = run_figure6(
        settings,
        benchmarks=list(spec.benchmarks) or None,
        runner=runner,
        configurations=configurations,
    )
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
    _reject_sweep(spec)
    configurations = _require_configurations(spec, minimum=2)
    settings = spec.settings()
    runner = ExperimentRunner(settings, engine=engine)
    result = run_figure7(
        settings,
        benchmarks=list(spec.benchmarks) or None,
        runner=runner,
        configurations=configurations,
    )
    baseline = configurations[0].name
    parts = [
        format_table(
            result.averages_table(),
            title=f"Figure 7(c) -- 4-cluster average slowdown vs {baseline} (%)",
        )
    ]
    if "VC(4->4)" in result.plotted and "VC(2->4)" in result.plotted:
        parts.append(
            "VC(4->4) copies relative to VC(2->4): "
            f"{result.copy_overhead_4to4_vs_2to4():+.1f} % (paper: +28 %)\n"
        )
    return _join(parts)


@REPORT_KINDS.register("table1")
def _table1_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Table 1: steering-unit complexity of the spec's configurations."""
    _reject_sweep(spec)
    configurations = _require_configurations(spec)
    rows = run_table1(
        config=spec.machine.resolve(),
        num_virtual_clusters=spec.num_virtual_clusters,
        configurations=configurations,
    )
    return format_table(rows, title="Table 1 -- steering-unit complexity")


@REPORT_KINDS.register("sweep")
def _sweep_report(spec: ScenarioSpec, engine: ParallelRunner) -> str:
    """Grid-expand the sweep axes; aggregate each point over the benchmarks.

    Every point's jobs go into one engine run, so all the points touching a
    trace share one batch: the trace is acquired once, and its compile-time
    annotations and warmed caches are computed once for the whole sweep.
    """
    configurations = _require_configurations(spec)
    baseline_name = configurations[0].name if len(configurations) > 1 else None
    points = []
    jobs = []
    for point, point_spec in spec.expand_sweep():
        runner = ExperimentRunner(point_spec.settings(), engine=engine)
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
    swept = ", ".join(axis.parameter for axis in spec.sweep) or spec.name
    # No trailing blank line: the legacy ablations command concatenated its
    # table and engine footer directly, and the shim stays format-compatible.
    return format_table(rows, title=f"Ablation sweep -- {swept}")
