"""Micro-benchmarks of the substrate itself (not a paper figure).

These time the main building blocks -- simulator throughput, trace
generation, the compile-time passes, the trace artifact store
and the parallel experiment engine -- so performance regressions in the
substrate are visible independently of the figure-level benchmarks.  Traces,
programs and the machine configuration come from shared session fixtures in
``conftest.py`` (one synthesis, many measurements).

The simulator-throughput benchmarks drive the production path: a
:class:`~repro.uops.compiled.CompiledTrace` (what the engine loads from the
artifact store) through the default (vectorized) kernel.  The
``*_interpreter`` variants pin the interpreter kernel on the same trace -- the wall-clock ratio of the two is the kernel-speedup
headline that ``scripts/check_bench_regression.py`` guards.  The
``*_callback`` variants disable the compiled steering tier
(``fused_steering=False``), so the default-vs-callback ratio is the
fused-dispatch headline.  Every simulator benchmark records ``uops_per_second`` in
``extra_info`` -- the number the DESIGN.md / README throughput claims refer
to, tracked across commits by the CI benchmark job's ``--benchmark-json``
artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np

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
from repro.uops.compiled import CompiledTrace, empty_annotations
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for
from benchmarks.conftest import timed_mean


def _record_throughput(benchmark, metrics, num_uops: int) -> None:
    benchmark.extra_info["uops_per_run"] = num_uops
    benchmark.extra_info["ipc"] = round(metrics.ipc, 3)
    mean = timed_mean(benchmark)
    if mean is not None:
        benchmark.extra_info["uops_per_second"] = round(num_uops / mean) if mean > 0 else 0


def test_simulator_throughput_op(benchmark, gzip_trace, substrate_config):
    """µop throughput of the compiled kernel under the OP policy."""
    program, trace = gzip_trace
    trace.install_annotations(empty_annotations(len(trace)))

    def run():
        return ClusteredProcessor(substrate_config, OccupancyAwareSteering()).run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_simulator_throughput_vc(benchmark, gzip_trace, substrate_config):
    """µop throughput of the compiled kernel under the hybrid VC policy."""
    program, trace = gzip_trace
    trace.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)

    def run():
        return ClusteredProcessor(substrate_config, VirtualClusterSteering(2)).run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_simulator_throughput_op_callback(
    benchmark, gzip_trace, substrate_config
):
    """The vectorized kernel with the compiled steering tier disabled.

    Same workload as ``test_simulator_throughput_op`` but with
    ``fused_steering=False``, so the OP policy takes the per-µop callback
    path; the ratio of the two is the fused-dispatch speedup headline.
    """
    program, trace = gzip_trace
    trace.install_annotations(empty_annotations(len(trace)))

    def run():
        processor = ClusteredProcessor(substrate_config, OccupancyAwareSteering())
        processor.fused_steering = False
        return processor.run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_simulator_throughput_vc_callback(
    benchmark, gzip_trace, substrate_config
):
    """The vectorized kernel, callback path, under the hybrid VC policy."""
    program, trace = gzip_trace
    trace.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)

    def run():
        processor = ClusteredProcessor(substrate_config, VirtualClusterSteering(2))
        processor.fused_steering = False
        return processor.run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_simulator_throughput_op_interpreter(
    benchmark, gzip_trace, substrate_config
):
    """The interpreter (golden-reference) kernel under the OP policy.

    Identical workload and metrics to ``test_simulator_throughput_op``; the
    wall-clock ratio of the two benchmarks is the vectorized-kernel speedup
    headline enforced by ``scripts/check_bench_regression.py``.
    """
    program, trace = gzip_trace
    trace.install_annotations(empty_annotations(len(trace)))

    def run():
        return ClusteredProcessor(
            substrate_config, OccupancyAwareSteering(), kernel="interpreter"
        ).run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_simulator_throughput_vc_interpreter(
    benchmark, gzip_trace, substrate_config
):
    """The interpreter (golden-reference) kernel under the hybrid VC policy."""
    program, trace = gzip_trace
    trace.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)

    def run():
        return ClusteredProcessor(
            substrate_config, VirtualClusterSteering(2), kernel="interpreter"
        ).run(trace)

    metrics = benchmark(run)
    _record_throughput(benchmark, metrics, len(trace))
    assert metrics.committed_uops == len(trace)


def test_compiled_trace_generation_throughput(benchmark, substrate_trace_length):
    """Direct structure-of-arrays emission (no per-µop objects)."""
    generator = WorkloadGenerator(profile_for("176.gcc-1"))

    def run():
        return generator.generate_compiled_trace(substrate_trace_length, phase=0)

    program, compiled = benchmark(run)
    assert len(compiled) >= substrate_trace_length


def test_trace_artifact_load_throughput(benchmark, tmp_path_factory):
    """Loading a stored trace artifact versus regenerating the trace.

    The ratio to ``test_compiled_trace_generation_throughput`` is the
    speedup workers see on every warm phase; ``generation_seconds`` is
    recorded alongside.
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
    assert loaded is not None
    assert all(
        np.array_equal(getattr(loaded[1], name), getattr(compiled, name))
        for name in CompiledTrace.STORED_FIELDS
    )
    benchmark.extra_info["generation_seconds"] = round(generation_seconds, 4)
    mean = timed_mean(benchmark)
    if mean is not None:
        benchmark.extra_info["speedup_vs_generation"] = (
            round(generation_seconds / mean, 1) if mean > 0 else 0.0
        )


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

    benchmark.extra_info["jobs"] = workers
    benchmark.extra_info["num_simulations"] = len(benchmarks) * len(configurations)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    parallel_seconds = timed_mean(benchmark)
    if parallel_seconds is not None:
        benchmark.extra_info["speedup_vs_serial"] = (
            round(serial_seconds / parallel_seconds, 2) if parallel_seconds > 0 else 0.0
        )
