"""Job execution: inline serial runs and persistent-pool fan-out.

:func:`execute_batch` turns *all* configurations of one trace into metrics
at once, against a single in-memory
:class:`~repro.uops.compiled.CompiledTrace` and a reused
:class:`~repro.cluster.processor.ClusteredProcessor` (the
``bind``/``run_bound`` path).  A single-job batch is the per-job reference:
a fresh processor, ``bind``, then ``run_bound`` -- exactly what
:meth:`ClusteredProcessor.run` does.  Because trace generation is fully
seeded (profile + phase) and the simulator is deterministic, the same job
produces bit-identical metrics in every mode -- serial, parallel, batched,
shared-memory or cache-replayed; :class:`ParallelRunner` only decides
*where* and *in what grouping* jobs run, never *what* they compute.

Scheduling is batch-first: the runner groups a run's job indices by
:meth:`~repro.engine.job.SimulationJob.trace_key` (in sorted trace-key order,
job order kept inside each group), consults the result cache per group --
fully-cached groups never reach a worker -- and ships the uncached members of
each remaining group as one worker task, so every fixed per-trace cost
(artifact load or generation, SoA hoisting, processor construction) is paid
once per trace instead of once per job.

Parallel batches ride a **persistent substrate**: the runner's
:class:`~repro.engine.pool.WorkerPool` outlives individual :meth:`run` calls
(``shutdown()`` pauses it; the next run transparently respawns).  By default
a task carries only its jobs and each worker acquires its trace from the
artifact store or by regeneration (the pickle path): the parent never holds
a trace.  Results stream back per batch as tasks complete
(:meth:`ParallelRunner.run_stream`).  ``shared_memory=True`` opts into
publishing each trace once from the parent into a
:class:`~repro.engine.shm.SharedTraceSegment` that workers attach to by name;
it is slower than pickle on the measured hosts and awaits deletion.

Traces also move through two durable cache layers.  The content-addressed
:class:`~repro.engine.artifacts.TraceArtifactStore` persists static programs
with their traces' dynamic columns as ``.npz`` artifacts keyed by
:meth:`SimulationJob.trace_key`, shared by every worker process, every
configuration of a phase and every later invocation.  On top of it each
process keeps one small in-memory memo (``_TRACE_MEMO``), keyed by trace, so
the batches of one trace do not even touch the filesystem or a shared-memory
segment twice -- worker-side segment loads go through it too.  The memo's
capacity is sized to the run's batch width (:func:`resolve_memo_cap`) -- a
batch task keeps its one trace alive for its whole duration, so the wider the
batches, the fewer memo entries are worth holding.
"""

from __future__ import annotations

import math
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import Future, as_completed
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cluster.metrics import SimulationMetrics
from repro.engine.adaptive import ZERO_ADAPTIVE_STATS
from repro.engine.artifacts import TraceArtifactStore
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.pool import WorkerPool
from repro.engine.shm import SegmentRegistry, attach_segment, shared_memory_available


#: Per-process ``(trace root, trace_key) -> (program, compiled trace)`` memo.
#: Keyed by the artifact root as well so a memo entry produced with artifacts
#: disabled can never satisfy (and silently skip populating) a later run that
#: requested a store; shared-memory loads carry no store and use ``None``.
#: Bounded so a full 40-trace suite cannot hold every trace alive at once.
_TRACE_MEMO: "OrderedDict[Tuple[Optional[str], str], Tuple[object, object]]" = OrderedDict()

#: Memo capacity of width-1 runs and of direct :func:`execute_batch` calls.
DEFAULT_MEMO_CAP = 16

#: Per-process artifact-store instances, one per root directory, so one
#: worker reuses a single set of hit/miss counters across its jobs.
_STORES: Dict[str, TraceArtifactStore] = {}

#: Zeroed trace-traffic counters (template for aggregation).
_ZERO_TRACE_STATS = {"hits": 0, "misses": 0, "stores": 0}

#: Zeroed shared-memory counters (template for :meth:`ParallelRunner.shm_stats`).
_ZERO_SHM_STATS = {"segments": 0, "bytes": 0, "published": 0, "reused": 0, "unlinked": 0}

#: One batch task: a trace key, the run indices of its uncached jobs
#: (ascending) and those jobs, all sharing the key.
_Task = Tuple[str, List[int], List[SimulationJob]]


def resolve_memo_cap(batch_width: Optional[float] = None) -> int:
    """The per-process trace-memo capacity for a run of mean ``batch_width``.

    :data:`DEFAULT_MEMO_CAP` divided by the batch width (floor 2).  A
    batch task holds its trace alive for its whole duration, so wide batches
    shrink the memo's useful working set: width-1 runs keep the classic 16
    entries, an 8-configuration sweep needs only a couple.
    """
    if batch_width is not None and batch_width > 1:
        return max(2, math.ceil(DEFAULT_MEMO_CAP / batch_width))
    return DEFAULT_MEMO_CAP


def trace_store_for(root: Union[str, Path, None]) -> Optional[TraceArtifactStore]:
    """The per-process :class:`TraceArtifactStore` for ``root`` (``None`` -> none)."""
    if root is None:
        return None
    key = str(root)
    store = _STORES.get(key)
    if store is None:
        store = TraceArtifactStore(key)
        _STORES[key] = store
    return store


def _memoized(memo_key: Tuple[Optional[str], str], cap: int, load: Callable[[], Tuple]):
    """``_TRACE_MEMO[memo_key]``, filled from ``load()`` on a miss (LRU, ``cap`` entries)."""
    cached = _TRACE_MEMO.get(memo_key)
    if cached is not None:
        _TRACE_MEMO.move_to_end(memo_key)
        return cached
    entry = load()
    _TRACE_MEMO[memo_key] = entry
    while len(_TRACE_MEMO) > cap:
        _TRACE_MEMO.popitem(last=False)
    return entry


def _trace_for(
    job: SimulationJob,
    trace_root: Optional[str] = None,
    store: Optional[TraceArtifactStore] = None,
    memo_cap: Optional[int] = None,
):
    """The program and compiled trace of ``job``'s phase: memo, store, or fresh.

    Lookup order is memo -> artifact store -> generate (and then populate
    both layers), so within a process each phase trace is produced at most
    once and across processes at most one worker pays for generation.  An
    explicit ``store`` overrides the per-process registry (serial runs pass
    their runner's own instance so its counters stay per-runner).
    """
    if store is None:
        store = trace_store_for(trace_root)
    trace_key = job.trace_key()

    def load():
        entry = store.get(trace_key) if store is not None else None
        if entry is None:
            from repro.workloads.generator import WorkloadGenerator

            generator = WorkloadGenerator(job.profile)
            entry = generator.generate_compiled_trace(job.trace_length, phase=job.phase)
            if store is not None:
                store.put(trace_key, *entry)
        return entry

    root_key = str(store.root) if store is not None else None
    cap = memo_cap if memo_cap is not None else DEFAULT_MEMO_CAP
    return _memoized((root_key, trace_key), cap, load)


def _prepare_job(job: SimulationJob, program, compiled):
    """Install ``job``'s compile-time annotations on ``compiled``; build its policy.

    The shared per-configuration step of both execution paths.  Annotations
    are a value of the trace, memoised on it per
    :meth:`~repro.experiments.configs.SteeringConfiguration.partitioner_key`:
    the first job of a key runs the compile-time pass over ``program``
    (which only reads it) and gathers the returned sid-indexed columns with
    ``annotate_from``, whose installed read-only arrays are the memoised
    value; a hardware-only key (``None``) gets constant unannotated columns
    without reading ``program``.  Every later job of a key installs the
    memoised arrays again.
    """
    configuration = job.configuration
    key = configuration.partitioner_key(
        job.num_clusters, job.num_virtual_clusters, job.region_size
    )

    def annotate():
        partitioner = configuration.make_partitioner(
            job.num_clusters, job.num_virtual_clusters, job.region_size
        )
        if partitioner is None:
            from repro.uops.compiled import empty_annotations

            return empty_annotations(len(compiled))
        # Only the regions the trace runs need a partition (RegionPartitioner.executed_sids).
        partitioner.executed_sids = set(compiled.sid.tolist())
        report = partitioner.annotate_program(program)
        compiled.annotate_from(report.columns)
        return tuple(getattr(compiled, name) for name in compiled.ANNOTATION_FIELDS)

    compiled.install_annotations(compiled.memo(("annotations", key), annotate))
    return configuration.make_policy(job.num_clusters, job.num_virtual_clusters)


def _simulate_batch(jobs: Sequence[SimulationJob], program, compiled) -> List[Dict[str, object]]:
    """Run all ``jobs`` of one batch against an already-resident trace.

    The shared inner loop of the pickle and shared-memory batch paths: one
    :class:`ClusteredProcessor` per distinct machine geometry is bound to
    the trace and reused across configurations via
    :meth:`ClusteredProcessor.run_bound` -- architectural state is reset
    between runs while the hoisted SoA columns stay alive.  Per job the
    sequence (run the pass, install its annotations, build policy, simulate
    from clean state) does not depend on the batch's other jobs, so every
    dump is bit-identical to that job's single-job batch.  The trace's
    hot-path lists are released when the batch ends.
    """
    from repro.cluster.processor import ClusteredProcessor

    trace_key = jobs[0].trace_key()
    strays = [job.label for job in jobs[1:] if job.trace_key() != trace_key]
    if strays:
        raise ValueError(
            f"a batch needs jobs sharing one trace_key; {strays} differ "
            f"from {jobs[0].label} (group jobs by trace_key first)"
        )
    processors: Dict[Tuple[object, ...], ClusteredProcessor] = {}
    dumps: List[Dict[str, object]] = []
    try:
        for job in jobs:
            policy = _prepare_job(job, program, compiled)
            key = job.machine_key()
            processor = processors.get(key)
            if processor is None:
                processor = ClusteredProcessor(job.machine_config(), policy)
                processor.bind(compiled)
                processors[key] = processor
            dumps.append(processor.run_bound(policy).to_dict())
    finally:
        # A memoised trace is mostly read by this one batch: a later one re-hoists.
        compiled.release_hot_path()
    return dumps


def execute_batch(
    jobs: Sequence[SimulationJob],
    trace_root: Optional[str] = None,
    trace_store: Optional[TraceArtifactStore] = None,
    memo_cap: Optional[int] = None,
) -> Dict[str, object]:
    """Run all ``jobs`` of one trace batch and return their metrics dumps.

    The self-contained batch execution path (and the shared-memory path's
    fallback): every job shares one
    :meth:`~repro.engine.job.SimulationJob.trace_key`, so the compiled trace
    is fetched (memo, artifact store, or generated) exactly once and
    simulated against via :func:`_simulate_batch`.

    Returns ``{"dumps": [...], "trace_stats": {...} | None}``; ``dumps`` are
    in job order and ``trace_stats`` is this task's artifact-store traffic
    delta (for parent-side aggregation across workers).
    """
    if not jobs:
        return {"dumps": [], "trace_stats": None}
    store = trace_store if trace_store is not None else trace_store_for(trace_root)
    snapshot = store.stats() if store is not None else None
    program, compiled = _trace_for(jobs[0], trace_root, store, memo_cap)
    dumps = _simulate_batch(jobs, program, compiled)
    return {
        "dumps": dumps,
        "trace_stats": store.stats_since(snapshot) if store is not None else None,
    }


def _execute_segment_batch(
    jobs: Sequence[SimulationJob], segment_name: str, memo_cap: int
) -> Dict[str, object]:
    """Worker task of the shared-memory path: fetch the trace, then simulate.

    The trace's columns never cross the task queue -- only the jobs and the
    segment name do.  The load goes through the per-process trace memo, keyed
    by trace (no store, so ``(None, trace_key)``) rather than by segment
    name: a warm worker serves later batches of the same trace -- across
    runs, and across a republished segment -- without attaching again.  No
    artifact-store traffic happens here by construction; the parent already
    accounted the trace's acquisition when it published the segment.
    """
    program, compiled = _memoized(
        (None, jobs[0].trace_key()), memo_cap, lambda: attach_segment(segment_name)
    )
    return {"dumps": _simulate_batch(jobs, program, compiled), "trace_stats": None}


class ParallelRunner:
    """Fan simulation batches out over a persistent worker substrate.

    Parameters
    ----------
    max_workers:
        Worker processes.  ``1`` (the default) executes everything inline in
        the calling process -- the serial fallback -- and is bit-identical to
        any parallel run of the same jobs.
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`; hits skip
        simulation entirely, results of fresh runs are stored back.
    trace_root:
        Directory of the on-disk compiled-trace artifacts shared by the
        workers.  ``None`` (the default) places it next to the result cache
        (``<cache root>/traces``), and disables artifacts when there is no
        cache (traces are regenerated from their seeds); an explicit path
        always wins.
    shared_memory:
        ``False`` (the default): parallel workers acquire their own traces.
        ``True`` opts into publishing each trace into a shared-memory
        segment, resident until :meth:`shutdown`, that workers attach to
        (with a warning and the default path where the platform lacks
        shared memory); it awaits deletion.  Results are bit-identical.

    Lifecycle
    ---------
    The worker pool and the segment registry persist across :meth:`run`
    calls; :meth:`shutdown` releases both (idempotent), after which a later
    :meth:`run` transparently respawns them.  ``with ParallelRunner(...) as
    runner:`` guarantees the release on the way out, and a dropped runner is
    backstopped by finalizers -- worker processes and shared-memory segments
    never outlive it.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache: Optional[ResultCache] = None,
        trace_root: Union[str, Path, None] = None,
        shared_memory: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.cache = cache
        self.shared_memory = shared_memory
        if trace_root is None and cache is not None:
            trace_root = cache.root / "traces"
        self.trace_root: Optional[str] = None if trace_root is None else str(trace_root)
        self._trace_store: Optional[TraceArtifactStore] = (
            TraceArtifactStore(self.trace_root) if self.trace_root is not None else None
        )
        self._worker_trace_stats: Dict[str, int] = dict(_ZERO_TRACE_STATS)
        #: Cumulative batch-scheduling counters across this runner's runs
        #: (the CLI ``[batch]`` footer): distinct traces, total jobs, widest
        #: batch, how many jobs executed in batch tasks, and how many
        #: batches/jobs the cache served outright.  After every completed run
        #: ``jobs == executed_jobs + cached_jobs``, partially cached batches
        #: included.
        self.batch_stats: Dict[str, int] = {
            "batches": 0,
            "jobs": 0,
            "max_width": 0,
            "executed_jobs": 0,
            "cached_batches": 0,
            "cached_jobs": 0,
        }
        #: Adaptive-scheduler counters (the CLI ``[adaptive]`` footer),
        #: recorded by the scenario layer's stopping-rule drivers -- the
        #: runner only hosts them (like ``batch_stats``) so one object
        #: carries every footer's numbers.  All zero unless an adaptive
        #: scenario ran on this runner.
        self.adaptive_stats: Dict[str, int] = dict(ZERO_ADAPTIVE_STATS)
        self._pool = WorkerPool(max_workers)
        self._segments: Optional[SegmentRegistry] = None
        #: Closed-over shared-memory counters that survive registry release
        #: (``shutdown()`` unlinks the segments but the footer must still
        #: report what happened).
        self._shm_totals: Dict[str, int] = dict(_ZERO_SHM_STATS)
        # Backstop: a runner dropped without shutdown() must not keep worker
        # processes alive for the rest of the interpreter's lifetime.  The
        # segment registry carries its own finalizer.
        self._pool_finalizer = weakref.finalize(self, WorkerPool.shutdown, self._pool, False)

    # ------------------------------------------------------------- lifecycle --
    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the worker pool and unlink all shared-memory segments.

        Idempotent, and not terminal: a later :meth:`run` transparently
        respawns the pool (and republishes segments as needed).  Call it --
        or use the runner as a context manager -- when a sweep is done, so
        worker processes and ``/dev/shm`` blocks are returned promptly
        rather than at interpreter exit.
        """
        self._pool.shutdown()
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    # ---------------------------------------------------------------- stores --
    @property
    def trace_store(self) -> Optional[TraceArtifactStore]:
        """This runner's trace artifact store (``None`` if disabled).

        A per-runner instance (not the per-process worker registry), so its
        hit/miss counters describe exactly this runner's serial traffic --
        like the result cache's counters.  Worker-side traffic is aggregated
        separately; :meth:`trace_stats` sums both.
        """
        return self._trace_store

    def trace_stats(self) -> Dict[str, int]:
        """Aggregated artifact-store traffic of this runner's runs.

        Sums the runner's own (serial/inline/publish-side) store counters
        with the per-task deltas reported back by worker processes, so
        parallel runs account their trace loads and generations exactly like
        serial ones.
        """
        totals = dict(self._worker_trace_stats)
        if self._trace_store is not None:
            for name, value in self._trace_store.stats().items():
                totals[name] += value
        return totals

    def shm_stats(self) -> Dict[str, int]:
        """Shared-memory substrate counters of this runner's runs.

        ``segments``/``bytes`` describe what is resident right now;
        ``published``/``reused``/``unlinked`` are cumulative across runs
        (and survive :meth:`shutdown`, so the CLI footer stays truthful
        after cleanup).
        """
        totals = dict(_ZERO_SHM_STATS)
        totals.update(self._shm_totals)
        if self._segments is not None:
            totals["segments"] = len(self._segments)
            totals["bytes"] = self._segments.nbytes
        return totals

    def _use_shared_memory(self) -> bool:
        """Whether parallel batches should ride shared-memory segments."""
        if self.shared_memory and not shared_memory_available():  # pragma: no cover
            warnings.warn(
                "shared_memory=True requested but multiprocessing.shared_memory "
                "is unavailable on this platform; falling back to the pickle path",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        return self.shared_memory

    def _segment_registry(self) -> SegmentRegistry:
        if self._segments is None:
            self._segments = SegmentRegistry()
            # Adopt the cumulative counters so published/reused/unlinked keep
            # accumulating across shutdown()/respawn cycles.
            for name in ("published", "reused", "unlinked"):
                self._segments.stats[name] = self._shm_totals[name]
            self._shm_totals = self._segments.stats
        return self._segments

    def _absorb_task_result(self, result: Dict[str, object]) -> List[Dict[str, object]]:
        """Fold one worker task's trace traffic into the totals; return its dumps."""
        stats = result.get("trace_stats")
        if stats:
            for name in self._worker_trace_stats:
                self._worker_trace_stats[name] += stats.get(name, 0)
        return result["dumps"]

    # ------------------------------------------------------------- execution --
    def run(self, jobs: Sequence[SimulationJob]) -> List[SimulationMetrics]:
        """Execute ``jobs`` and return their metrics in the same order.

        Configurations are declarative (registry names + parameters), so
        *every* job -- stock Table 3, variants, and user-registered custom
        policies alike -- may be served from the cache or fanned out to
        worker processes.  The jobs are regrouped into per-trace batches for
        execution; the returned list is always in the callers' job order
        (batching is a scheduling concern only).
        """
        results: List[Optional[SimulationMetrics]] = [None] * len(jobs)
        for index, metrics in self.run_stream(jobs):
            results[index] = metrics
        assert all(metrics is not None for metrics in results)
        return results  # every slot is filled: cached, inline, or streamed above

    def run_stream(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationMetrics]]:
        """Execute ``jobs``, yielding ``(index, metrics)`` as results land.

        Cached results are yielded first (immediately); the rest stream back
        per batch as worker tasks complete -- there is no barrier at the end
        of the run, so a consumer can fold long sweeps incrementally.  Each
        index is yielded exactly once; :meth:`run` is a thin order-restoring
        wrapper over this.
        """
        keys: List[Optional[str]] = [None] * len(jobs)
        #: Later jobs sharing an earlier job's cache key, by that job's index.
        twins: Dict[int, List[int]] = {}
        if self.cache is not None:
            keys = [job.cache_key() for job in jobs]
            # One run can repeat a cache key: a sweep over a knob that some
            # configuration does not consume (the OP baseline of a
            # region-size sweep) submits that configuration once per point.
            # Only the first is looked up and simulated; the others get its
            # metrics, as a later run would get them from the cache.
            first: Dict[str, int] = {}
            for index, key in enumerate(keys):
                if key in first:
                    twins.setdefault(first[key], []).append(index)
                else:
                    first[key] = index
            unique = list(first.values())
            pending = []
            for index, cached in zip(unique, self.cache.get_many([keys[i] for i in unique])):
                if cached is not None:
                    yield from self._with_twins(index, cached, twins)
                else:
                    pending.append(index)
        else:
            pending = list(range(len(jobs)))

        stream = self._run_batched(jobs, pending, keys)
        try:
            for index, metrics in stream:
                yield from self._with_twins(index, metrics, twins)
        finally:
            # A consumer abandoning this stream releases the inner one (its
            # workers' segment references) now, not at garbage collection.
            stream.close()

    @staticmethod
    def _with_twins(
        index: int, metrics: SimulationMetrics, twins: Dict[int, List[int]]
    ) -> Iterator[Tuple[int, SimulationMetrics]]:
        """``(index, metrics)``, then a copy of ``metrics`` for each twin of ``index``."""
        yield index, metrics
        for twin in twins.get(index, ()):
            yield twin, SimulationMetrics.from_dict(metrics.to_dict())

    def _store_result(
        self,
        index: int,
        dump: Dict[str, object],
        keys: List[Optional[str]],
    ) -> Tuple[int, SimulationMetrics]:
        metrics = SimulationMetrics.from_dict(dump)
        if self.cache is not None:
            self.cache.put(keys[index], metrics)
        return index, metrics

    def _run_batched(
        self,
        jobs: Sequence[SimulationJob],
        pending: List[int],
        keys: List[Optional[str]],
    ) -> Iterator[Tuple[int, SimulationMetrics]]:
        """Execute the uncached jobs as per-trace batches, streaming results.

        Job indices are grouped by trace key; in sorted trace-key order each
        group feeds the footer counters and, narrowed to its uncached members,
        becomes one ``(trace_key, indices, jobs)`` task.  Fully-cached groups
        are counted and never reach a worker, and partially cached groups
        account their cached jobs too (so ``executed_jobs + cached_jobs ==
        jobs`` holds).
        """
        groups: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            groups.setdefault(job.trace_key(), []).append(index)
        stats = self.batch_stats
        stats["batches"] += len(groups)
        stats["jobs"] += len(jobs)
        uncached = set(pending)
        tasks: List[_Task] = []
        for trace_key, indices in sorted(groups.items()):
            stats["max_width"] = max(stats["max_width"], len(indices))
            members = [index for index in indices if index in uncached]
            stats["cached_jobs"] += len(indices) - len(members)
            if not members:
                stats["cached_batches"] += 1
                continue
            stats["executed_jobs"] += len(members)
            tasks.append((trace_key, members, [jobs[index] for index in members]))
        if not tasks:
            return
        memo_cap = resolve_memo_cap(len(jobs) / len(groups))
        if self.max_workers == 1 or len(tasks) == 1:
            # Inline tasks hit this runner's own store, whose counters are
            # already reported by trace_stats(); absorbing their deltas too
            # would double-count, so read the dumps directly.
            for _, indices, batch_jobs in tasks:
                result = execute_batch(
                    batch_jobs,
                    trace_root=self.trace_root,
                    trace_store=self._trace_store,
                    memo_cap=memo_cap,
                )
                for index, dump in zip(indices, result["dumps"]):
                    yield self._store_result(index, dump, keys)
            return
        yield from self._run_batched_parallel(tasks, keys, memo_cap)

    def _run_batched_parallel(
        self,
        tasks: List[_Task],
        keys: List[Optional[str]],
        memo_cap: int,
    ) -> Iterator[Tuple[int, SimulationMetrics]]:
        """Fan batch tasks out over the pool; yield per batch as they finish.

        With shared memory, each task's trace is acquired once in the parent
        (memo -> artifact store -> generate), published as a segment, and the
        worker receives only the jobs plus the segment name.  Without it,
        workers acquire traces themselves (the pickle path).  Either way the
        ``as_completed`` loop streams results; a worker crash discards the
        poisoned pool (no leaked executor processes) and surfaces as a clear
        error, and outstanding segment references are always released.
        """
        from concurrent.futures.process import BrokenProcessPool

        # Workers are forked from this process: load the simulator and the
        # trace generator once here, not once per worker.
        import repro.cluster.processor  # noqa: F401
        import repro.workloads.generator  # noqa: F401

        use_shm = self._use_shared_memory()
        registry = self._segment_registry() if use_shm else None
        if registry is not None:
            # Submit warm batches first: their segments are already resident,
            # so workers start immediately while the parent generates (or
            # loads) the cold traces -- publish is parent-side work, and
            # front-loading the cheap submissions maximises its overlap with
            # worker execution.  Stable sort, so same-temperature batches
            # keep their deterministic trace-key order.
            tasks = sorted(tasks, key=lambda task: registry.get(task[0]) is None)
        #: Submitted future -> its task.
        futures: Dict[Future, _Task] = {}
        try:
            for task in tasks:
                trace_key, _, batch_jobs = task
                if registry is not None:
                    segment = registry.publish(
                        trace_key,
                        lambda job=batch_jobs[0]: _trace_for(
                            job, self.trace_root, self._trace_store, memo_cap
                        ),
                    )
                    registry.acquire(trace_key)
                    try:
                        future = self._pool.submit(
                            _execute_segment_batch, batch_jobs, segment.name, memo_cap
                        )
                    except BaseException:
                        # The task never existed, so the finally loop below
                        # will not release its reference -- do it here.
                        registry.release(trace_key)
                        raise
                else:
                    future = self._pool.submit(
                        execute_batch,
                        batch_jobs,
                        trace_root=self.trace_root,
                        memo_cap=memo_cap,
                    )
                futures[future] = task
            for future in as_completed(list(futures)):
                dumps = self._absorb_task_result(future.result())
                _, indices, _ = futures[future]
                for index, dump in zip(indices, dumps):
                    yield self._store_result(index, dump, keys)
        except BrokenProcessPool as exc:
            self._pool.mark_broken()
            raise RuntimeError(
                "a worker process died mid-run; the pool was discarded and "
                "will be respawned by the next run (results of this run are "
                "incomplete)"
            ) from exc
        finally:
            # An abandoned stream leaves queued tasks behind: cancel the ones
            # that never started, and drop every task's segment reference.
            for future, (trace_key, _, _) in futures.items():
                future.cancel()
                if registry is not None:
                    registry.release(trace_key)
