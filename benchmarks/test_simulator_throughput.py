"""Micro-benchmarks of the substrate itself (not a paper figure).

These time the main building blocks -- simulator throughput, trace
generation/compilation, the compile-time passes, the trace artifact store
and the parallel experiment engine -- so performance regressions in the
substrate are visible independently of the figure-level benchmarks.  Traces,
programs and the machine configuration come from shared session fixtures in
``conftest.py`` (one synthesis, many measurements).

The simulator-throughput benchmarks drive the production path: a
pre-compiled :class:`~repro.uops.compiled.CompiledTrace` (what the engine
loads from the artifact store) through the default (vectorized) kernel.
The ``*_interpreter`` variants pin the µop-object interpreter kernel on the
same trace -- the wall-clock ratio of the two is the kernel-speedup
headline that ``scripts/check_bench_regression.py`` guards.  The
``*_callback`` variants disable the compiled steering tier
(``fused_steering=False``), so the default-vs-callback ratio is the
fused-dispatch headline.  The ``*_uop_objects`` variant keeps the
µop-object entry point timed as well, so the cost of compiling on entry
stays visible.  Every simulator benchmark records ``uops_per_second`` in
``extra_info`` -- the number the DESIGN.md / README throughput claims refer
to, tracked across commits by the CI benchmark job's ``--benchmark-json``
artifact.
"""

from __future__ import annotations

import os
import time

from repro.cluster.processor import ClusteredProcessor
from repro.engine.artifacts import TraceArtifactStore
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner
from repro.partition.rhop_partitioner import RhopPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.scenarios.spec import ScenarioSpec
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.compiled import compile_trace
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for


def _record_throughput(benchmark, metrics, num_uops: int) -> None:
    benchmark.extra_info["uops_per_run"] = num_uops
    benchmark.extra_info["ipc"] = round(metrics.ipc, 3)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["uops_per_second"] = round(num_uops / mean) if mean > 0 else 0


def test_simulator_throughput_op(benchmark, gzip_trace, gzip_compiled_trace, substrate_config):
    """µop throughput of the compiled kernel under the OP policy."""
    program, _ = gzip_trace
    program.clear_annotations()
    gzip_compiled_trace.annotate_from(program)

    def run():
        return ClusteredProcessor(substrate_config, OccupancyAwareSteering()).run(
            gzip_compiled_trace
        )

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_vc(benchmark, gzip_trace, gzip_compiled_trace, substrate_config):
    """µop throughput of the compiled kernel under the hybrid VC policy."""
    program, _ = gzip_trace
    VirtualClusterPartitioner(2).annotate_program(program)
    gzip_compiled_trace.annotate_from(program)

    def run():
        return ClusteredProcessor(substrate_config, VirtualClusterSteering(2)).run(
            gzip_compiled_trace
        )

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_op_callback(
    benchmark, gzip_trace, gzip_compiled_trace, substrate_config
):
    """The vectorized kernel with the compiled steering tier disabled.

    Same workload as ``test_simulator_throughput_op`` but with
    ``fused_steering=False``, so the OP policy takes the per-µop callback
    path; the ratio of the two is the fused-dispatch speedup headline.
    """
    program, _ = gzip_trace
    program.clear_annotations()
    gzip_compiled_trace.annotate_from(program)

    def run():
        processor = ClusteredProcessor(substrate_config, OccupancyAwareSteering())
        processor.fused_steering = False
        return processor.run(gzip_compiled_trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_vc_callback(
    benchmark, gzip_trace, gzip_compiled_trace, substrate_config
):
    """The vectorized kernel, callback path, under the hybrid VC policy."""
    program, _ = gzip_trace
    VirtualClusterPartitioner(2).annotate_program(program)
    gzip_compiled_trace.annotate_from(program)

    def run():
        processor = ClusteredProcessor(substrate_config, VirtualClusterSteering(2))
        processor.fused_steering = False
        return processor.run(gzip_compiled_trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_op_interpreter(
    benchmark, gzip_trace, gzip_compiled_trace, substrate_config
):
    """The interpreter (golden-reference) kernel under the OP policy.

    Identical workload and metrics to ``test_simulator_throughput_op``; the
    wall-clock ratio of the two benchmarks is the vectorized-kernel speedup
    headline enforced by ``scripts/check_bench_regression.py``.
    """
    program, _ = gzip_trace
    program.clear_annotations()
    gzip_compiled_trace.annotate_from(program)

    def run():
        return ClusteredProcessor(
            substrate_config, OccupancyAwareSteering(), kernel="interpreter"
        ).run(gzip_compiled_trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_vc_interpreter(
    benchmark, gzip_trace, gzip_compiled_trace, substrate_config
):
    """The interpreter (golden-reference) kernel under the hybrid VC policy."""
    program, _ = gzip_trace
    VirtualClusterPartitioner(2).annotate_program(program)
    gzip_compiled_trace.annotate_from(program)

    def run():
        return ClusteredProcessor(
            substrate_config, VirtualClusterSteering(2), kernel="interpreter"
        ).run(gzip_compiled_trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(gzip_compiled_trace))
    assert metrics.committed_uops == len(gzip_compiled_trace)


def test_simulator_throughput_op_uop_objects(benchmark, gzip_trace, substrate_config):
    """The µop-object entry point: compile-on-entry plus the kernel.

    This is what ad-hoc callers of ``simulate_trace(list, ...)`` pay; the gap
    to ``test_simulator_throughput_op`` is the per-run trace compilation that
    the engine amortises through the artifact store.
    """
    program, trace = gzip_trace
    program.clear_annotations()

    def run():
        return ClusteredProcessor(substrate_config, OccupancyAwareSteering()).run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_trace_generation_throughput(benchmark, substrate_trace_length):
    """Cost of synthesising a 4 000-µop trace from a SPEC profile."""
    generator = WorkloadGenerator(profile_for("176.gcc-1"))

    def run():
        return generator.generate_trace(substrate_trace_length, phase=0)

    program, trace = benchmark(run)
    assert len(trace) >= substrate_trace_length


def test_compiled_trace_generation_throughput(benchmark, substrate_trace_length):
    """Direct structure-of-arrays emission (no per-µop objects)."""
    generator = WorkloadGenerator(profile_for("176.gcc-1"))

    def run():
        return generator.generate_compiled_trace(substrate_trace_length, phase=0)

    program, compiled = benchmark(run)
    assert len(compiled) >= substrate_trace_length


def test_trace_artifact_load_throughput(benchmark, tmp_path_factory):
    """Loading a stored trace artifact versus regenerating the trace.

    The ratio to ``test_trace_generation_throughput`` is the speedup workers
    see on every warm phase; ``generation_seconds`` is recorded alongside.
    """
    generator = WorkloadGenerator(profile_for("176.gcc-1"))
    start = time.perf_counter()
    program, compiled = generator.generate_compiled_trace(4000, phase=0)
    generation_seconds = time.perf_counter() - start
    store = TraceArtifactStore(tmp_path_factory.mktemp("trace-artifacts"))
    store.put("bench" * 12 + "abcd", program, compiled)

    def run():
        return store.get("bench" * 12 + "abcd")

    loaded = benchmark(run)
    assert loaded is not None and loaded[1].equals(compiled)
    benchmark.extra_info["generation_seconds"] = round(generation_seconds, 4)
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["speedup_vs_generation"] = (
        round(generation_seconds / mean, 1) if mean > 0 else 0.0
    )


def test_trace_compilation_throughput(benchmark, gzip_trace):
    """Cost of compiling an existing µop-object list to the SoA form."""
    _, trace = gzip_trace

    def run():
        return compile_trace(trace)

    compiled = benchmark(run)
    assert len(compiled) == len(trace)


def test_vc_partitioner_throughput(benchmark, galgel_program):
    """Cost of the Figure 2 compile-time pass over a whole program."""

    def run():
        return VirtualClusterPartitioner(2).annotate_program(galgel_program)

    report = benchmark(run)
    assert report.num_instructions == galgel_program.num_instructions


def test_rhop_partitioner_throughput(benchmark, galgel_program):
    """Cost of the RHOP multilevel partitioning pass over a whole program."""

    def run():
        return RhopPartitioner(2).annotate_program(galgel_program)

    report = benchmark(run)
    assert report.num_instructions == galgel_program.num_instructions


def test_engine_parallel_speedup(benchmark):
    """Engine throughput: the same job matrix serial versus process-parallel.

    Benchmarks the parallel path (``jobs=cpu_count``) and records the
    measured serial (``jobs=1``) wall time plus the resulting speedup in
    ``extra_info``, so parallel scaling is tracked in BENCH output across
    machines.  On single-core runners the speedup naturally hovers at or
    below 1 (pool overhead); the number is still worth recording.
    """
    spec = ScenarioSpec(name="engine-speedup", trace_length=1200, max_phases=1)
    benchmarks = ["164.gzip-1", "176.gcc-1", "178.galgel", "171.swim"]
    configurations = [TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]]
    workers = os.cpu_count() or 1

    # Untimed warm-up: populates the parent-process trace memo so the serial
    # baseline is not charged for cold trace generation.  Under the Linux
    # ``fork`` start method workers inherit the warm memo, making the
    # comparison symmetric; under ``spawn`` workers regenerate traces cold,
    # and that cost stays in the parallel number because real parallel runs
    # pay it too.  (Trace artifacts are disabled so this benchmark keeps
    # measuring raw engine scaling; the artifact benchmark above covers the
    # load-instead-of-regenerate path.)
    ExperimentRunner(spec).run_suite(benchmarks, configurations)

    start = time.perf_counter()
    serial = ExperimentRunner(spec).run_suite(benchmarks, configurations)
    serial_seconds = time.perf_counter() - start

    engine = ParallelRunner(max_workers=workers)

    def run_parallel():
        return ExperimentRunner(spec, engine=engine).run_suite(benchmarks, configurations)

    try:
        parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    finally:
        engine.shutdown()
    # Parallel results must match the serial run bit-for-bit.
    for name in benchmarks:
        for configuration in ("OP", "VC"):
            assert (
                serial[name][configuration].cycles == parallel[name][configuration].cycles
            )

    parallel_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = workers
    benchmark.extra_info["num_simulations"] = len(benchmarks) * len(configurations)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = (
        round(serial_seconds / parallel_seconds, 2) if parallel_seconds > 0 else 0.0
    )
