"""Parallel experiment engine with deterministic result caching.

The paper's methodology is an embarrassingly parallel job matrix: every
benchmark contributes up to ten PinPoints phases, every phase is simulated
under every steering configuration on the *same* dynamic trace, and
benchmark-level numbers are PinPoints-weighted averages of the per-phase
numbers.  This package turns that matrix into independent, picklable
:class:`~repro.engine.job.SimulationJob` units and executes them through a
single code path that is shared by the serial fallback, the process pool and
the cache-replay path:

``SimulationJob`` (:mod:`repro.engine.job`)
    One ``benchmark x phase x configuration`` cell, plus every knob that
    influences the result.  Exposes a stable content hash used as the cache
    key (PinPoints weights and display names are excluded -- they do not
    change the simulation).

``ResultCache`` (:mod:`repro.engine.cache`)
    Content-addressed on-disk store of lossless
    :meth:`~repro.cluster.metrics.SimulationMetrics.to_dict` dumps.  Repeated
    figure runs and overlapping ablation sweeps skip already-simulated
    points; integer counters survive the JSON round trip bit-for-bit.

``TraceArtifactStore`` (:mod:`repro.engine.artifacts`)
    Content-addressed on-disk store of compiled trace artifacts (the static
    program's columns plus the trace's dynamic ``sid``/``address``/
    ``mispredicted`` columns, no pickle) keyed by
    :meth:`SimulationJob.trace_key`.  Workers load phase traces instead of
    regenerating them; every configuration of a phase shares one artifact.

``RunPlan`` / ``JobBatch`` (:mod:`repro.engine.batch`)
    The batch-scheduling layer: a run's jobs partitioned into one batch per
    distinct trace key (deterministic order, job order preserved), so fixed
    per-trace costs are paid once per trace instead of once per job.  The
    runner narrows each batch to its uncached jobs and runs it as one task.

Adaptive stopping rules (:mod:`repro.engine.adaptive`)
    Pure decision layer for adaptive sweeps: streaming
    :class:`~repro.engine.adaptive.Welford` statistics feed Student-t
    confidence intervals, and three drivers -- :func:`~repro.engine.adaptive.run_ci`
    (stop replicating once a figure is resolved),
    :func:`~repro.engine.adaptive.run_race` (retire configurations whose
    paired gap to the leader is resolved) and
    :func:`~repro.engine.adaptive.run_bisection` (locate a crossover with
    O(log n) axis probes) -- decide *what to sample next* as pure functions
    of already-completed results, never of arrival timing.

``SharedTraceSegment`` / ``SegmentRegistry`` (:mod:`repro.engine.shm`)
    The shared-memory substrate: each distinct compiled trace published once
    into a ``multiprocessing.shared_memory`` block (refcounted, unlinked on
    release), which warm workers attach to by name as zero-copy numpy views
    -- no column bytes cross the task queue, and segments stay resident
    across runs.

``WorkerPool`` (:mod:`repro.engine.pool`)
    The persistent process pool: spawned once per runner, reused across
    runs, transparently respawned after ``shutdown()`` or a worker crash,
    context-manager friendly.

``ParallelRunner`` (:mod:`repro.engine.parallel`)
    Expands nothing and decides nothing about results -- it only chooses
    where and in what grouping jobs run (inline for ``max_workers=1``, else
    the persistent pool; always one batch per trace; shared-memory segments
    where available, the pickle path otherwise) and consults the caches
    first, per batch, so fully-cached batches never reach a worker.  ``run_stream`` delivers
    results per batch as tasks complete instead of at a barrier.

Determinism contract
--------------------
Serial, parallel and cache-replay runs of the same experiment are
**bit-identical**, enforced by ``tests/test_engine_determinism.py``:

* trace generation is fully seeded by ``(profile, phase)``; worker processes
  load the identical compiled trace from the shared artifact store (or
  regenerate it from the job description when artifacts are disabled) rather
  than receiving pickled µops,
* the cycle-level simulator contains no randomness of its own,
* per-phase metrics are integers (plus deterministic floats) that round-trip
  losslessly through the cache, and
* weighted reassembly happens in the parent process in a fixed order, using
  the same :func:`~repro.workloads.pinpoints.weighted_average` arithmetic as
  the original serial runner.

The experiment harness (:class:`~repro.experiments.runner.ExperimentRunner`
and every scenario report kind) routes all simulation through this engine;
``repro.cli`` builds it and exposes it as ``--jobs N``, ``--cache-dir PATH``,
``--no-cache``, ``--trace-dir PATH`` and ``--no-trace-artifacts`` on every
experiment command.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "AUTO_TRACE_ROOT",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MEMO_CAP",
    "SUPPORTED_CONFIDENCE",
    "TRACE_ARTIFACT_VERSION",
    "ZERO_ADAPTIVE_STATS",
    "BisectOutcome",
    "CIOutcome",
    "ConfigOutcome",
    "JobBatch",
    "ParallelRunner",
    "RaceOutcome",
    "ResultCache",
    "RunPlan",
    "SegmentRegistry",
    "SharedTraceSegment",
    "SimulationJob",
    "TraceArtifactStore",
    "Welford",
    "WorkerPool",
    "ci_halfwidth",
    "execute_batch",
    "execute_job",
    "resolve_memo_cap",
    "run_bisection",
    "run_ci",
    "run_race",
    "shared_memory_available",
    "t_critical",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adaptive": (
            "SUPPORTED_CONFIDENCE",
            "ZERO_ADAPTIVE_STATS",
            "BisectOutcome",
            "CIOutcome",
            "ConfigOutcome",
            "RaceOutcome",
            "Welford",
            "ci_halfwidth",
            "run_bisection",
            "run_ci",
            "run_race",
            "t_critical",
        ),
        ".artifacts": ("TRACE_ARTIFACT_VERSION", "TraceArtifactStore"),
        ".batch": ("JobBatch", "RunPlan"),
        ".cache": ("ResultCache",),
        ".job": ("CACHE_SCHEMA_VERSION", "SimulationJob"),
        ".parallel": (
            "AUTO_TRACE_ROOT",
            "DEFAULT_MEMO_CAP",
            "ParallelRunner",
            "execute_batch",
            "execute_job",
            "resolve_memo_cap",
        ),
        ".pool": ("WorkerPool",),
        ".shm": ("SegmentRegistry", "SharedTraceSegment", "shared_memory_available"),
    },
)
