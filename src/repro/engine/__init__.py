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
    The opt-in shared-memory substrate (``shared_memory=True``): each
    distinct compiled trace published once into a
    ``multiprocessing.shared_memory`` block (refcounted, unlinked on
    release), which warm workers attach to by name and copy out into their
    trace memo.  Slower than the default pickle path; it awaits deletion.

``WorkerPool`` (:mod:`repro.engine.pool`)
    The persistent process pool: spawned once per runner, reused across
    runs, transparently respawned after ``shutdown()`` or a worker crash,
    context-manager friendly.

``ParallelRunner`` / ``execute_batch`` (:mod:`repro.engine.parallel`)
    The runner expands nothing and decides nothing about results -- it only
    chooses where and in what grouping jobs run (inline for
    ``max_workers=1``, else the persistent pool; always one batch per
    distinct trace key, in sorted key order with job order kept inside each
    batch; workers acquire their own traces unless shared memory is opted
    into) and consults the result cache first, so fully-cached batches
    never reach a worker.  ``run_stream`` delivers results per batch as
    tasks complete instead of at a barrier.  ``execute_batch`` is the one
    executor: a single-job batch is the per-job reference (a fresh
    processor, ``bind``, ``run_bound``).  Trace artifacts live under
    ``<cache root>/traces`` unless an explicit ``trace_root`` is given, and
    are off when there is neither.

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
``--no-cache`` and ``--trace-dir PATH`` on every experiment command.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
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
        ".cache": ("ResultCache",),
        ".job": ("CACHE_SCHEMA_VERSION", "SimulationJob"),
        ".parallel": (
            "DEFAULT_MEMO_CAP",
            "ParallelRunner",
            "execute_batch",
            "resolve_memo_cap",
        ),
        ".pool": ("WorkerPool",),
        ".shm": ("SegmentRegistry", "SharedTraceSegment", "shared_memory_available"),
    },
)
