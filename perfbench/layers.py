"""Outside-in layer spans for one in-process run of the ``repro`` CLI.

:func:`install` wraps the narrowest existing entry point of every layer the
benchmark reports (trace generation, trace artifacts, compile-time
partitioning, annotation scatter, processor bind, cache warm-up, kernel,
result cache, worker pool, shared memory, the engine's stream and its wait
on workers).  Nothing under ``src/`` is edited: the wrappers replace class
attributes and module globals after ``import repro.cli``.

Each wrapper records a span into a :class:`Recorder`: a stack of open spans
whose durations roll up into per-name totals, where a span's *self* time is
its duration minus the time its child spans cover.  Counters and the
distinct-key sets behind the redundancy ratios are recorded at the same
boundaries.

Worker processes of ``--jobs N`` are forked after the wrappers are
installed, so they run the same wrappers.  A worker task resets its
process's recorder, runs inside a ``worker.busy`` span, and hands its
totals back inside the task's result dict; the parent folds them into its
recorder's ``worker`` side before the engine reads the result.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from collections import Counter
from typing import Dict, List


class Recorder:
    """Spans, counters and distinct-key sets of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset()
        #: Totals folded in from worker tasks: ``name -> [total, self, calls]``.
        self.worker_totals: Dict[str, List[float]] = {}
        self.parallel_window_s = 0.0
        self.max_workers = 1

    def reset(self) -> None:
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.keys: Dict[str, set] = {"partition": set(), "bind": set(), "warmup": set()}
        self.violations: List[str] = []
        self.job = None

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        entry = self.totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += duration
        entry[1] += duration - child
        entry[2] += 1
        if self.stack:
            self.stack[-1][2] += duration

    def export(self) -> dict:
        """This process's records as a picklable dict (a worker's task report)."""
        return {
            "totals": self.totals,
            "counts": dict(self.counts),
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
            "violations": list(self.violations),
        }

    def absorb(self, report: dict) -> None:
        """Fold a worker task's :meth:`export` into this (parent) recorder."""
        for name, (total, self_s, calls) in report["totals"].items():
            entry = self.worker_totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += total
            entry[1] += self_s
            entry[2] += calls
        self.counts.update(report["counts"])
        for name, keys in report["keys"].items():
            self.keys[name].update(keys)
        self.violations.extend(report["violations"])


def check_laws(
    metrics, trace_length: int, commit_width: int, label: str, exact: bool = True
) -> List[str]:
    """Conservation laws every ``SimulationMetrics`` must satisfy.

    ``trace_length`` is the bound trace's length when ``exact``; otherwise
    it is the requested length, which the generator may overshoot to finish
    the last basic block, so only ``committed_uops >= trace_length`` holds.
    """
    broken = []
    if metrics.committed_uops != trace_length and (
        exact or metrics.committed_uops < trace_length
    ):
        broken.append(f"committed_uops {metrics.committed_uops} vs trace length {trace_length}")
    if sum(metrics.cluster_dispatch) != metrics.dispatched_uops:
        broken.append("sum(cluster_dispatch) != dispatched_uops")
    if sum(metrics.cluster_copies) != metrics.copies_generated:
        broken.append("sum(cluster_copies) != copies_generated")
    if metrics.mispredictions > metrics.branches:
        broken.append("mispredictions > branches")
    if metrics.cycles * commit_width < metrics.committed_uops:
        broken.append("cycles < committed_uops / commit_width")
    return [f"{label}: {message}" for message in broken]


def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    return wrapper


def _spanned_generator(rec: Recorder, name: str, gen):
    """Re-yield ``gen``, counting only the time spent inside its steps."""
    try:
        while True:
            rec.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.exit()
            yield item
    finally:
        gen.close()


def _memory_geometry(config) -> tuple:
    return (
        config.l1_size_kb,
        config.l1_assoc,
        config.l2_size_kb,
        config.l2_assoc,
        config.line_size,
    )


def install() -> Recorder:
    """Wrap every layer boundary of the imported ``repro`` package; return the recorder."""
    from repro import cli
    from repro.cluster.processor import ClusteredProcessor
    from repro.engine import parallel
    from repro.engine.artifacts import TraceArtifactStore
    from repro.engine.cache import ResultCache
    from repro.engine.pool import WorkerPool
    from repro.engine.shm import SegmentRegistry
    from repro.partition.base import RegionPartitioner
    from repro.uops.compiled import CompiledTrace
    from repro.workloads.generator import WorkloadGenerator

    rec = Recorder()

    # -- CLI, report and engine stream ------------------------------------------
    cli.main = _spanned(rec, "cli", cli.main)
    cli.run_scenario = _spanned(rec, "report", cli.run_scenario)

    run_stream = parallel.ParallelRunner.run_stream
    commit_widths: Dict[tuple, int] = {}

    @functools.wraps(run_stream)
    def checked_run_stream(self, jobs):
        # Every result the engine hands the report -- simulated or replayed
        # from the cache -- is checked against the conservation laws.
        for index, metrics in _spanned_generator(rec, "engine", run_stream(self, jobs)):
            job = jobs[index]
            machine = job.machine_key()
            if machine not in commit_widths:
                commit_widths[machine] = job.machine_config().commit_width
            rec.violations.extend(
                check_laws(
                    metrics, job.trace_length, commit_widths[machine], job.label, exact=False
                )
            )
            yield index, metrics

    parallel.ParallelRunner.run_stream = checked_run_stream

    # -- result cache --------------------------------------------------------------
    cache_get = ResultCache.get

    @functools.wraps(cache_get)
    def counted_cache_get(self, key):
        rec.enter("cache.get")
        try:
            result = cache_get(self, key)
        finally:
            rec.exit()
        rec.counts["cache.gets"] += 1
        rec.counts["cache.hits"] += result is not None
        return result

    ResultCache.get = counted_cache_get
    ResultCache.put = _spanned(rec, "cache.put", ResultCache.put)

    # -- trace acquisition -----------------------------------------------------------
    artifact_get = TraceArtifactStore.get

    @functools.wraps(artifact_get)
    def counted_artifact_get(self, key):
        rec.enter("artifacts.get")
        try:
            result = artifact_get(self, key)
        finally:
            rec.exit()
        rec.counts["artifacts.gets"] += 1
        rec.counts["artifacts.hits"] += result is not None
        return result

    TraceArtifactStore.get = counted_artifact_get
    TraceArtifactStore.put = _spanned(rec, "artifacts.put", TraceArtifactStore.put)
    WorkloadGenerator.generate_compiled_trace = _spanned(
        rec, "workloads.generate", WorkloadGenerator.generate_compiled_trace
    )

    # -- per-job preparation: partition and annotation scatter ----------------------
    prepare_job = parallel._prepare_job

    @functools.wraps(prepare_job)
    def tracked_prepare_job(job, program, compiled):
        # The job in flight names the keys of the partition, bind and warm-up
        # calls that follow it in the same batch.
        rec.job = job
        return prepare_job(job, program, compiled)

    parallel._prepare_job = tracked_prepare_job

    annotate_program = RegionPartitioner.annotate_program

    @functools.wraps(annotate_program)
    def keyed_annotate_program(self, program):
        job = rec.job
        configuration = job.configuration
        rec.keys["partition"].add(
            repr(
                (
                    job.trace_key(),
                    configuration.partitioner,
                    configuration.partitioner_params,
                    job.region_size,
                    job.num_clusters,
                    configuration.effective_virtual_clusters(job.num_virtual_clusters),
                )
            )
        )
        rec.enter("partition")
        try:
            return annotate_program(self, program)
        finally:
            rec.exit()

    RegionPartitioner.annotate_program = keyed_annotate_program
    CompiledTrace.annotate_from = _spanned(rec, "uops.annotate", CompiledTrace.annotate_from)

    # -- processor: bind, warm-up, kernel ----------------------------------------------
    bound_lengths = weakref.WeakKeyDictionary()
    bind = ClusteredProcessor.bind

    @functools.wraps(bind)
    def keyed_bind(self, trace):
        if rec.job is not None:
            rec.keys["bind"].add(rec.job.trace_key())
        rec.enter("cluster.bind")
        try:
            compiled = bind(self, trace)
        finally:
            rec.exit()
        bound_lengths[self] = len(compiled)
        return compiled

    ClusteredProcessor.bind = keyed_bind

    warm_caches = ClusteredProcessor._warm_caches

    @functools.wraps(warm_caches)
    def keyed_warm_caches(self, compiled):
        if rec.job is not None:
            rec.keys["warmup"].add(repr((rec.job.trace_key(), _memory_geometry(self.config))))
        rec.enter("cluster.warmup")
        try:
            return warm_caches(self, compiled)
        finally:
            rec.exit()

    ClusteredProcessor._warm_caches = keyed_warm_caches

    run_bound = ClusteredProcessor.run_bound

    @functools.wraps(run_bound)
    def checked_run_bound(self, *args, **kwargs):
        rec.enter("kernel")
        try:
            metrics = run_bound(self, *args, **kwargs)
        finally:
            rec.exit()
        length = bound_lengths.get(self, 0)
        rec.counts["kernel.uops"] += length
        label = rec.job.label if rec.job is not None else "run_bound"
        rec.violations.extend(check_laws(metrics, length, self.config.commit_width, label))
        return metrics

    ClusteredProcessor.run_bound = checked_run_bound

    # -- parallel engine: pool, shared memory, waiting, worker tasks ---------------------
    submit = WorkerPool.submit

    @functools.wraps(submit)
    def spawning_submit(self, fn, /, *args, **kwargs):
        if self.alive:
            return submit(self, fn, *args, **kwargs)
        # The first submit of a fresh executor forks all its workers.
        rec.enter("pool.spawn")
        try:
            return submit(self, fn, *args, **kwargs)
        finally:
            rec.exit()

    WorkerPool.submit = spawning_submit
    SegmentRegistry.publish = _spanned(rec, "shm.publish", SegmentRegistry.publish)
    parallel.attach_segment = _spanned(rec, "shm.attach", parallel.attach_segment)

    as_completed = parallel.as_completed

    @functools.wraps(as_completed)
    def waited_as_completed(*args, **kwargs):
        return _spanned_generator(rec, "engine.wait", as_completed(*args, **kwargs))

    parallel.as_completed = waited_as_completed

    run_parallel = parallel.ParallelRunner._run_batched_parallel

    @functools.wraps(run_parallel)
    def windowed_run_parallel(self, *args, **kwargs):
        rec.max_workers = max(rec.max_workers, self.max_workers)
        start = time.perf_counter()
        try:
            yield from run_parallel(self, *args, **kwargs)
        finally:
            rec.parallel_window_s += time.perf_counter() - start

    parallel.ParallelRunner._run_batched_parallel = windowed_run_parallel

    def worker_task(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == rec.pid:
                return fn(*args, **kwargs)  # inline (serial) execution
            rec.reset()
            rec.enter("worker.busy")
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            result["perfbench"] = rec.export()
            return result

        return wrapper

    # Pickled by qualified name, so the replaced module globals are what the
    # pool ships and what the forked workers resolve.
    parallel._execute_segment_batch = worker_task(parallel._execute_segment_batch)
    parallel.execute_batch = worker_task(parallel.execute_batch)

    absorb = parallel.ParallelRunner._absorb_task_result

    @functools.wraps(absorb)
    def absorbing(self, result):
        report = result.pop("perfbench", None)
        if report is not None:
            rec.absorb(report)
        return absorb(self, result)

    parallel.ParallelRunner._absorb_task_result = absorbing
    return rec


#: Layers whose self time is attributed to the traced process's wall time.
PARENT_LAYERS = (
    "cli",
    "report",
    "engine",
    "cache.get",
    "cache.put",
    "workloads.generate",
    "artifacts.get",
    "artifacts.put",
    "partition",
    "uops.annotate",
    "cluster.bind",
    "cluster.warmup",
    "kernel",
    "engine.wait",
    "pool.spawn",
    "shm.publish",
)
