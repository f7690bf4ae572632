"""Engine scheduling benchmarks: batched sweeps, pickle vs shared memory.

The shape every paper figure reduces to -- few phase traces, a wide steering
configuration axis -- is exactly what the batch scheduler amortises.  These
benchmarks run sweeps through the real
:class:`~repro.engine.parallel.ParallelRunner`, serial and with a worker
pool, measuring what a fresh ``--no-cache`` CLI invocation would pay: each
round clears the per-process trace memo and builds (and tears down) its own
runner, so the batch fetches its trace once and keeps it resident.

The single-trace pair below runs one trace with eight configurations.  The
multi-trace pair is the shared-memory substrate headline: a six-trace,
four-configuration sweep executed four times on one persistent runner --
the recurring-sweep shape of the ablation studies.  On the pickle path every worker acquires each of its batches'
traces itself, run after run (bounded only by its memo); on the
shared-memory path the parent publishes each trace once, workers attach
by name, and every warm run finds every segment resident.

``benchmarks/BENCH_engine.json`` holds a committed reference snapshot of
this file's numbers (regenerate with ``pytest benchmarks/test_engine_sweep.py
--benchmark-only --benchmark-json benchmarks/BENCH_engine.json``);
``scripts/check_bench_regression.py`` diffs a fresh run against it, warns on
>30 % throughput regressions, and checks the shared-memory-vs-pickle
headline on the multi-trace sweep (target: at least matching, i.e. >=1.0x;
the checker's floor is 0.85x so single-core CI noise does not cry wolf).
"""

from __future__ import annotations

from repro.engine.job import SimulationJob
from repro.engine.parallel import _TRACE_MEMO, ParallelRunner
from repro.experiments.configs import TABLE3_CONFIGURATIONS, vc_variant
from repro.workloads.spec2000 import profile_for

#: Dynamic µops of the swept phase trace.
SWEEP_TRACE_LENGTH = 800

#: Worker processes of the parallel sweep (a typical ``--jobs`` value; with
#: more workers than batches the scheduler runs the single batch inline,
#: which is precisely its point).
SWEEP_WORKERS = 8

#: The swept configuration axis: all five Table 3 schemes plus three pinned
#: virtual-cluster variants of the paper's hybrid -- eight configurations,
#: one trace, the batch scheduler's target shape.
SWEEP_CONFIGURATIONS = [
    TABLE3_CONFIGURATIONS["OP"],
    TABLE3_CONFIGURATIONS["one-cluster"],
    TABLE3_CONFIGURATIONS["OB"],
    TABLE3_CONFIGURATIONS["RHOP"],
    TABLE3_CONFIGURATIONS["VC"],
    vc_variant("VC(1)", 1),
    vc_variant("VC(4)", 4),
    vc_variant("VC(8)", 8),
]


def _sweep_jobs() -> list:
    profile = profile_for("164.gzip-1")
    return [
        SimulationJob(
            profile=profile,
            phase=0,
            configuration=configuration,
            trace_length=SWEEP_TRACE_LENGTH,
            region_size=128,
            num_clusters=2,
            num_virtual_clusters=2,
        )
        for configuration in SWEEP_CONFIGURATIONS
    ]


def _run_sweep(workers: int):
    """One fresh-invocation sweep: new runner, cold memo, no caches."""
    jobs = _sweep_jobs()
    _TRACE_MEMO.clear()
    runner = ParallelRunner(max_workers=workers, cache=None, trace_root=None)
    try:
        return runner.run(jobs)
    finally:
        runner.shutdown()


def _record(benchmark, results) -> None:
    uops = SWEEP_TRACE_LENGTH * len(SWEEP_CONFIGURATIONS)
    benchmark.extra_info["configurations"] = len(SWEEP_CONFIGURATIONS)
    benchmark.extra_info["trace_length"] = SWEEP_TRACE_LENGTH
    benchmark.extra_info["uops_per_run"] = uops
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["uops_per_second"] = round(uops / mean) if mean > 0 else 0
    assert len(results) == len(SWEEP_CONFIGURATIONS)
    # The generator closes its final block, so a run commits >= trace_length.
    assert all(metrics.committed_uops >= SWEEP_TRACE_LENGTH for metrics in results)


def test_sweep_batched_serial(benchmark):
    """8-config single-trace sweep, no worker pool."""
    results = benchmark.pedantic(
        _run_sweep, args=(1,), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "batched serial"
    _record(benchmark, results)


def test_sweep_batched_parallel(benchmark):
    """The sweep with a worker pool: one batch task, one trace fetch, eight
    simulations against the resident compiled trace."""
    results = benchmark.pedantic(
        _run_sweep, args=(SWEEP_WORKERS,), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "batched parallel"
    benchmark.extra_info["workers"] = SWEEP_WORKERS
    _record(benchmark, results)


# ---------------------------------------------------------------------------
# Multi-trace recurring sweep: pickle path vs shared-memory substrate
# ---------------------------------------------------------------------------

#: Phase traces per benchmark profile of the multi-trace sweep (each profile
#: really has three PinPoints phases; two profiles -> six batches per run).
MULTI_TRACE_PHASES = 3

#: Benchmark profiles contributing traces (one SPECint, one SPECfp).
MULTI_TRACE_BENCHMARKS = ("164.gzip-1", "178.galgel")

#: Dynamic µops per phase trace.
MULTI_TRACE_LENGTH = 600

#: Worker processes of the multi-trace pair.
MULTI_WORKERS = 2

#: The swept configuration axis (four schemes x six traces = 24 points/run).
MULTI_CONFIGURATIONS = [
    TABLE3_CONFIGURATIONS["OP"],
    TABLE3_CONFIGURATIONS["VC"],
    TABLE3_CONFIGURATIONS["OB"],
    vc_variant("VC(4)", 4),
]


def _multi_trace_jobs() -> list:
    return [
        SimulationJob(
            profile=profile_for(benchmark),
            phase=phase,
            configuration=configuration,
            trace_length=MULTI_TRACE_LENGTH,
            region_size=128,
            num_clusters=2,
            num_virtual_clusters=2,
        )
        for benchmark in MULTI_TRACE_BENCHMARKS
        for phase in range(MULTI_TRACE_PHASES)
        for configuration in MULTI_CONFIGURATIONS
    ]


#: Consecutive runs per round: one cold, the rest warm.  Recurring sweeps
#: re-execute the same trace set over and over (the ablation-study shape),
#: which is exactly where trace residency pays: a warm pickle-path run still
#: regenerates whatever landed on a different worker than last time or fell
#: out of the bounded memo, a warm shm run finds every segment resident.
MULTI_RUNS = 4


def _run_multi_trace_sweep(shared_memory: bool):
    """``MULTI_RUNS`` consecutive sweeps on one persistent runner.

    No caches and no artifact store anywhere: the only thing that can make
    the later runs cheaper is the substrate itself -- resident shared-memory
    segments (shm mode) versus each worker's bounded trace memo (pickle
    mode).
    """
    jobs = _multi_trace_jobs()
    _TRACE_MEMO.clear()
    with ParallelRunner(
        max_workers=MULTI_WORKERS,
        cache=None,
        trace_root=None,
        shared_memory=shared_memory,
    ) as runner:
        return [runner.run(jobs) for _ in range(MULTI_RUNS)]


def _record_multi(benchmark, results) -> None:
    first = results[0]
    uops = MULTI_TRACE_LENGTH * len(first) * MULTI_RUNS
    benchmark.extra_info["traces"] = MULTI_TRACE_PHASES * len(MULTI_TRACE_BENCHMARKS)
    benchmark.extra_info["configurations"] = len(MULTI_CONFIGURATIONS)
    benchmark.extra_info["runs_per_round"] = MULTI_RUNS
    benchmark.extra_info["workers"] = MULTI_WORKERS
    benchmark.extra_info["uops_per_run"] = uops
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["uops_per_second"] = round(uops / mean) if mean > 0 else 0
    reference = [m.to_dict() for m in first]
    assert len(first) == len(_multi_trace_jobs())
    for rerun in results[1:]:
        assert [m.to_dict() for m in rerun] == reference


def test_multi_trace_sweep_pickle(benchmark):
    """The 6-trace recurring sweep on the pickle path: workers acquire traces themselves, and warm reruns still
    regenerate whatever moved workers or fell out of their memos."""
    results = benchmark.pedantic(
        _run_multi_trace_sweep, args=(False,), rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "multi-trace batched pickle"
    _record_multi(benchmark, results)


def test_multi_trace_sweep_shm(benchmark):
    """The same recurring sweep on the shared-memory substrate: each trace is
    published once, workers attach by name, and warm runs find every
    segment resident.  The wall-clock ratio against
    ``test_multi_trace_sweep_pickle`` is the substrate speedup recorded in
    BENCH_engine.json (>=1.0x floor: matching at worst)."""
    results = benchmark.pedantic(
        _run_multi_trace_sweep, args=(True,), rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "multi-trace batched shm"
    _record_multi(benchmark, results)
