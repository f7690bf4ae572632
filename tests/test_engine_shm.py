"""The shared-memory execution substrate: segments, registry, pool, runner.

Contracts pinned here:

* **Segment round-trips are lossless.**  Publishing a program and its
  compiled trace and attaching them back yields array-for-array identical
  columns (property-tested over random programs and traces); the loaded
  columns are read-only copies that outlive the mapping, and a bad column
  raises ``ValueError`` at load.
* **Lifetime is refcounted and leak-free.**  A segment is unlinked exactly
  when its last reference is released; registry close (and the finalizer
  backstop) unlinks everything; a fault while publishing a segment or
  submitting a task, or a worker crash, cannot leak ``/dev/shm`` blocks,
  task references or executor processes.
* **Scheduling mode is invisible in results.**  Shared-memory, pickle-path,
  serial and cache-replay runs of the same jobs are bit-identical.
* **The pool is persistent but not precious.**  ``run`` after ``shutdown``
  transparently respawns; a poisoned pool is discarded and the next run
  works; the runner is a context manager.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    ParallelRunner,
    execute_job,
)
from repro.engine.pool import WorkerPool
from repro.engine.shm import (
    SegmentRegistry,
    SharedTraceSegment,
    attach_segment,
    drop_attachments,
    shared_memory_available,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS, vc_variant
from repro.program.program import Program
from repro.uops.compiled import CompiledTrace
from repro.uops.opcodes import UopClass
from repro.workloads.generator import WorkloadGenerator

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

CONFIGURATIONS = [
    TABLE3_CONFIGURATIONS["OP"],
    TABLE3_CONFIGURATIONS["VC"],
    vc_variant("VC(4)", 4),
]

SHM_DIR = Path("/dev/shm")


def _visible_segments() -> set:
    """The ``repro-*`` shared blocks currently visible to this machine."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux fallback
        return set()
    return {entry.name for entry in SHM_DIR.iterdir() if entry.name.startswith("repro-")}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave ``/dev/shm`` exactly as it found it."""
    _TRACE_MEMO.clear()
    drop_attachments()
    before = _visible_segments()
    yield
    drop_attachments()
    gc.collect()  # let registry finalizers fire for dropped runners
    after = _visible_segments()
    assert after == before, f"leaked shared-memory segments: {sorted(after - before)}"


def make_job(profile, configuration, phase=0, trace_length=500, **overrides):
    defaults = dict(
        profile=profile,
        phase=phase,
        configuration=configuration,
        trace_length=trace_length,
        region_size=128,
        num_clusters=2,
        num_virtual_clusters=2,
    )
    defaults.update(overrides)
    return SimulationJob(**defaults)


def _worker_write_column(name: str) -> str:  # pragma: no cover - runs in a worker
    """Attach ``name`` and try an in-place column write; report what happened."""
    attached = SharedTraceSegment.attach(name)
    try:
        _, rebuilt = attached.load()
        try:
            rebuilt.opclass[0] = 0  # detlint: ok DET109 (this write must raise)
        except ValueError:
            return "ValueError"
        return "write went through"
    finally:
        attached.close()


def _segment_is_gone(name: str) -> bool:
    try:
        probe = SharedTraceSegment.attach(name)
    except FileNotFoundError:
        return True
    probe.close()
    return False


# ---------------------------------------------------------------------------
# Segment round-trips
# ---------------------------------------------------------------------------


def _program_columns(program):
    return {name: getattr(program, name).tolist() for name in Program.COLUMNS}


class TestSegmentRoundTrip:
    def test_generated_trace_round_trips(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(600)
        segment = SharedTraceSegment.create("key", program, compiled)
        try:
            attached = SharedTraceSegment.attach(segment.name)
            try:
                rebuilt_program, rebuilt = attached.load()
                assert compiled.equals(rebuilt)
                assert _program_columns(rebuilt_program) == _program_columns(program)
                assert rebuilt_program.name == program.name
                # The program's columns are read-only copies of the block,
                # byte-identical without any serialisation format between.
                # The gathered trace arrives frozen.
                for name in Program.COLUMNS:
                    assert not getattr(rebuilt_program, name).flags.writeable
                for name in CompiledTrace.STORED_FIELDS:
                    assert not getattr(rebuilt, name).flags.writeable
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_arbitrary_columns_round_trip(self, data):
        """Property: the shared-memory round-trip of a program and a trace
        gathered from it is lossless for arbitrary well-formed columns,
        empty ones included."""
        n = data.draw(st.integers(0, 40), label="n")
        registers = st.lists(st.integers(0, 127), max_size=3).map(tuple)
        rows = [
            (data.draw(st.integers(0, len(UopClass) - 1)), data.draw(registers), data.draw(registers))
            for _ in range(n)
        ]
        program = Program.from_blocks(f"prop{n}", [rows[: n // 2], rows[n // 2 :]])
        length = data.draw(st.integers(0, 60 if n else 0), label="length")
        compiled = CompiledTrace(
            program,
            data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=length, max_size=length)),
            data.draw(st.lists(st.integers(0, 2**40), min_size=length, max_size=length)),
            data.draw(st.lists(st.booleans(), min_size=length, max_size=length)),
        )
        segment = SharedTraceSegment.create("prop", program, compiled)
        try:
            attached = SharedTraceSegment.attach(segment.name)
            try:
                rebuilt_program, rebuilt = attached.load()
                assert _program_columns(rebuilt_program) == _program_columns(program)
                assert compiled.equals(rebuilt)
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_bad_column_raises_value_error(self, small_profile):
        """A block whose ``block_start`` no longer covers every sid fails the
        program's validation at load."""
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        segment = SharedTraceSegment.create("bad", program, compiled)
        try:
            spec = SharedTraceSegment._read_header(segment._shm)["columns"]["block_start"]
            view = np.ndarray(
                tuple(spec["shape"]), dtype=spec["dtype"], buffer=segment._shm.buf,
                offset=spec["offset"],
            )
            view[-1] -= 1
            del view
            attached = SharedTraceSegment.attach(segment.name)
            try:
                with pytest.raises(ValueError, match="block_start"):
                    attached.load()
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_dynamic_columns_are_zero_copy(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(400)
        rebuilt = CompiledTrace(program, compiled.sid, compiled.address, compiled.mispredicted)
        for name in ("sid", "address", "mispredicted"):
            assert np.shares_memory(getattr(rebuilt, name), getattr(compiled, name))

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            SharedTraceSegment.attach("repro-does-not-exist")

    def test_worker_in_place_write_raises(self, small_profile):
        """A worker that writes an attached column in place must raise.

        Loaded traces are frozen, like every bound trace: a silent write
        would corrupt the cached trace for every later batch of the worker
        and break bit-identity with the pickle path.
        """
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        segment = SharedTraceSegment.create("ro", program, compiled)
        try:
            with WorkerPool(1) as pool:
                outcome = pool.submit(_worker_write_column, segment.name).result()
            assert outcome == "ValueError", f"worker write outcome: {outcome}"
        finally:
            segment.close()
            segment.unlink()

    def test_fault_after_create_leaves_no_segment(self, monkeypatch, small_profile):
        """A column copy that raises after ``SharedMemory(create=True)``
        re-raises, and the half-written block is closed and unlinked (the
        autouse fixture checks ``/dev/shm`` too).  ``create`` imports numpy
        when it runs, so the fault goes into ``numpy.ndarray``, the column
        views it copies into."""

        def failing_view(*args, **kwargs):
            raise MemoryError("injected fault in the column copy")

        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        monkeypatch.setattr(np, "ndarray", failing_view)
        name = f"repro-{os.getpid()}-fault"
        with pytest.raises(MemoryError, match="injected fault"):
            SharedTraceSegment.create("fault", program, compiled, name=name)
        assert _segment_is_gone(name)

    def test_attached_segment_refuses_unlink(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        segment = SharedTraceSegment.create("k", program, compiled)
        try:
            attached = SharedTraceSegment.attach(segment.name)
            with pytest.raises(RuntimeError, match="attached, not owned"):
                attached.unlink()
            attached.close()
        finally:
            segment.close()
            segment.unlink()


# ---------------------------------------------------------------------------
# Registry refcounting and cleanup
# ---------------------------------------------------------------------------


class TestSegmentRegistry:
    def _loader(self, small_profile, length=300):
        return lambda: WorkloadGenerator(small_profile).generate_compiled_trace(length)

    def test_publish_is_idempotent_per_key(self, small_profile):
        registry = SegmentRegistry()
        try:
            first = registry.publish("k", self._loader(small_profile))
            second = registry.publish("k", self._loader(small_profile))
            assert first is second
            assert registry.stats["published"] == 1
            assert registry.stats["reused"] == 1
            assert len(registry) == 1
            assert registry.nbytes == first.nbytes > 0
        finally:
            registry.close()

    def test_refcount_unlinks_on_last_release(self, small_profile):
        registry = SegmentRegistry()
        segment = registry.publish("k", self._loader(small_profile))
        name = segment.name
        registry.acquire("k")
        registry.acquire("k")
        registry.release("k")
        assert not _segment_is_gone(name)  # task ref + resident ref remain
        registry.release("k")
        assert not _segment_is_gone(name)  # resident ref remains
        registry.discard("k")
        assert _segment_is_gone(name)
        assert registry.stats["unlinked"] == 1
        assert len(registry) == 0
        registry.close()

    def test_release_of_unknown_key_is_a_no_op(self):
        registry = SegmentRegistry()
        registry.release("never-published")
        registry.close()

    def test_close_unlinks_everything_regardless_of_refs(self, small_profile):
        registry = SegmentRegistry()
        names = []
        for key in ("a", "b"):
            names.append(registry.publish(key, self._loader(small_profile)).name)
        # A deliberately outstanding ref: close() must unlink anyway.
        registry.acquire("a")
        registry.close()
        assert all(_segment_is_gone(name) for name in names)
        registry.close()  # idempotent

    def test_resident_cap_evicts_lru_only_segments(self, small_profile):
        """Resident segments beyond the cap are unlinked LRU-first, so a
        paper-scale sweep cannot pin unbounded /dev/shm space."""
        registry = SegmentRegistry(max_resident=2)
        try:
            names = {}
            for phase in range(3):
                loader = lambda p=phase: WorkloadGenerator(small_profile).generate_compiled_trace(
                    200, phase=p
                )
                names[f"k{phase}"] = registry.publish(f"k{phase}", loader).name
            assert len(registry) == 2
            assert _segment_is_gone(names["k0"])  # LRU victim
            assert not _segment_is_gone(names["k1"])
            assert not _segment_is_gone(names["k2"])
            # A republished evicted trace gets a fresh segment.
            fresh = registry.publish(
                "k0",
                lambda: WorkloadGenerator(small_profile).generate_compiled_trace(200, phase=0),
            )
            assert fresh.name != names["k0"]
            assert registry.stats["published"] == 4
        finally:
            registry.close()

    def test_resident_cap_never_evicts_in_flight_or_newest(self, small_profile):
        registry = SegmentRegistry(max_resident=1)
        try:
            first = registry.publish("a", self._loader(small_profile))
            registry.acquire("a")  # in flight: protected
            second = registry.publish("b", self._loader(small_profile))
            # Over the cap, but 'a' is in flight and 'b' is the newest
            # publish (its caller has not acquired it yet): nothing evicted.
            assert len(registry) == 2
            assert not _segment_is_gone(first.name)
            assert not _segment_is_gone(second.name)
            registry.release("a")
            registry.publish("c", self._loader(small_profile))
            # 'a' is resident-only now -> evicted ('b' follows once another
            # publish makes it non-newest).
            assert _segment_is_gone(first.name)
        finally:
            registry.close()

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            SegmentRegistry(max_resident=0)

    def test_finalizer_backstops_unclosed_registries(self, small_profile):
        registry = SegmentRegistry()
        name = registry.publish("k", self._loader(small_profile)).name
        del registry
        gc.collect()
        assert _segment_is_gone(name)


# ---------------------------------------------------------------------------
# Worker-side attachment cache
# ---------------------------------------------------------------------------


class TestAttachmentCache:
    def test_attachments_are_cached_and_evicted(self, small_profile):
        registry = SegmentRegistry()
        try:
            names = []
            for phase in range(3):
                loader = lambda p=phase: WorkloadGenerator(small_profile).generate_compiled_trace(
                    200, phase=p
                )
                names.append(registry.publish(f"k{phase}", loader).name)
            first = attach_segment(names[0], cap=2)
            again = attach_segment(names[0], cap=2)
            assert first[1] is again[1]  # same cached CompiledTrace object
            attach_segment(names[1], cap=2)
            attach_segment(names[2], cap=2)  # evicts names[0]
            refreshed = attach_segment(names[0], cap=2)
            assert refreshed[1] is not first[1]
        finally:
            drop_attachments()
            registry.close()

    def test_evicted_attachment_stays_readable(self, small_profile):
        """A program and trace loaded from a segment outlive its eviction.

        The child attaches a segment, loads it, evicts it by attaching a
        second one past a cap of 1, then reads every column.  Run in a
        subprocess because a column still viewing a closed mapping would
        crash the interpreter rather than raise.
        """
        registry = SegmentRegistry()
        try:
            traces = [
                WorkloadGenerator(small_profile).generate_compiled_trace(200, phase=phase)
                for phase in (0, 1)
            ]
            names = [
                registry.publish(f"k{phase}", lambda t=trace: t).name
                for phase, trace in enumerate(traces)
            ]
            code = (
                "import sys\n"
                "from repro.engine.shm import attach_segment\n"
                "from repro.program.program import Program\n"
                "program, compiled = attach_segment(sys.argv[1], cap=1)\n"
                "attach_segment(sys.argv[2], cap=1)\n"
                "columns = [getattr(program, name) for name in Program.COLUMNS]\n"
                "columns += [getattr(compiled, name) for name in compiled.STORED_FIELDS]\n"
                "print(sum(int(column.sum()) for column in columns))\n"
            )
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            result = subprocess.run(
                [sys.executable, "-c", code, *names], env=env, capture_output=True, timeout=120
            )
            program, compiled = traces[0]
            columns = [getattr(program, name) for name in Program.COLUMNS]
            columns += [getattr(compiled, name) for name in compiled.STORED_FIELDS]
            assert result.returncode == 0, result.stderr.decode()
            assert int(result.stdout) == sum(int(column.sum()) for column in columns)
        finally:
            registry.close()


# ---------------------------------------------------------------------------
# WorkerPool lifecycle
# ---------------------------------------------------------------------------


def _crash_worker() -> None:  # pragma: no cover - runs (and dies) in a worker
    os._exit(13)


class TestWorkerPool:
    def test_lazy_spawn_and_respawn_after_shutdown(self):
        with WorkerPool(1) as pool:
            assert not pool.alive
            assert pool.submit(os.getpid).result() > 0
            assert pool.alive and pool.spawn_count == 1
            pool.shutdown()
            assert not pool.alive
            assert pool.submit(os.getpid).result() > 0  # transparently respawned
            assert pool.spawn_count == 2
        assert not pool.alive

    def test_broken_pool_is_discarded_and_respawned(self):
        from concurrent.futures.process import BrokenProcessPool

        with WorkerPool(1) as pool:
            future = pool.submit(_crash_worker)
            with pytest.raises(BrokenProcessPool):
                future.result()
            pool.mark_broken()
            assert not pool.alive
            assert pool.submit(os.getpid).result() > 0
            assert pool.spawn_count == 2

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


# ---------------------------------------------------------------------------
# Runner equivalence across substrate modes
# ---------------------------------------------------------------------------


class TestRunnerEquivalence:
    def _jobs(self, small_profile, small_fp_profile):
        return [
            make_job(profile, configuration, phase=phase)
            for profile in (small_profile, small_fp_profile)
            for phase in (0, 1)
            for configuration in CONFIGURATIONS
        ]

    def test_shm_pickle_serial_and_replay_agree_bitwise(
        self, tmp_path, small_profile, small_fp_profile
    ):
        jobs = self._jobs(small_profile, small_fp_profile)
        serial = [execute_job(job) for job in jobs]

        with ParallelRunner(max_workers=2, trace_root=None, shared_memory=True) as runner:
            shm_results = [m.to_dict() for m in runner.run(jobs)]
            stats = runner.shm_stats()
            assert stats["published"] == 4  # one segment per distinct trace
            assert stats["segments"] == 4 and stats["bytes"] > 0
        assert shm_results == serial

        with ParallelRunner(max_workers=2, trace_root=None, shared_memory=False) as runner:
            pickle_results = [m.to_dict() for m in runner.run(jobs)]
            assert runner.shm_stats()["published"] == 0
        assert pickle_results == serial

        cache = ResultCache(tmp_path / "cache")
        with ParallelRunner(max_workers=2, cache=cache, shared_memory=True) as runner:
            first = [m.to_dict() for m in runner.run(jobs)]
        with ParallelRunner(max_workers=2, cache=cache, shared_memory=True) as runner:
            replay = [m.to_dict() for m in runner.run(jobs)]
            assert runner.shm_stats()["published"] == 0  # everything cached
        assert first == serial and replay == serial

    def test_segments_stay_resident_across_runs(self, small_profile):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        with ParallelRunner(max_workers=2, trace_root=None, shared_memory=True) as runner:
            runner.run(jobs)
            assert runner.shm_stats()["published"] == 2
            runner.run(jobs)
            stats = runner.shm_stats()
            # The second run reused the resident segments instead of
            # republishing -- the cross-run win the substrate exists for.
            assert stats["published"] == 2
            assert stats["reused"] == 2
            assert stats["segments"] == 2
        assert ParallelRunner(max_workers=2).shm_stats()["segments"] == 0

    def test_shm_parent_accounts_trace_traffic(
        self, tmp_path, small_profile, small_fp_profile
    ):
        """In shm mode the parent acquires traces (workers attach), so store
        traffic lands on the runner's own counters -- [traces] stays truthful."""
        root = tmp_path / "traces"
        jobs = self._jobs(small_profile, small_fp_profile)
        with ParallelRunner(max_workers=2, trace_root=root, shared_memory=True) as runner:
            runner.run(jobs)
            assert runner.trace_stats() == {"hits": 0, "misses": 4, "stores": 4}
        _TRACE_MEMO.clear()
        with ParallelRunner(max_workers=2, trace_root=root, shared_memory=True) as replay:
            replay.run(jobs)
            assert replay.trace_stats() == {"hits": 4, "misses": 0, "stores": 0}

    def test_run_stream_yields_every_index_once(self, tmp_path, small_profile):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        cache = ResultCache(tmp_path / "cache")
        # Pre-seed half the jobs so the stream mixes cached and fresh results.
        ParallelRunner(cache=cache).run(jobs[::2])
        with ParallelRunner(max_workers=2, cache=cache, shared_memory=True) as runner:
            streamed = dict(runner.run_stream(jobs))
        assert sorted(streamed) == list(range(len(jobs)))
        serial = ParallelRunner(trace_root=None).run(jobs)
        assert [streamed[i].to_dict() for i in range(len(jobs))] == [
            m.to_dict() for m in serial
        ]


# ---------------------------------------------------------------------------
# Runner lifecycle: shutdown, respawn, crash containment
# ---------------------------------------------------------------------------


class TestRunnerLifecycle:
    def test_run_after_shutdown_respawns_transparently(self, small_profile):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        runner = ParallelRunner(max_workers=2, trace_root=None, shared_memory=True)
        try:
            first = [m.to_dict() for m in runner.run(jobs)]
            runner.shutdown()
            assert runner.shm_stats()["segments"] == 0  # segments unlinked
            second = [m.to_dict() for m in runner.run(jobs)]
            assert second == first
            # Cumulative counters survive the shutdown/respawn cycle: the
            # second run republished both traces on top of the first two.
            stats = runner.shm_stats()
            assert stats["published"] == 4
            assert stats["unlinked"] == 2
        finally:
            runner.shutdown()

    def test_context_manager_releases_everything(self, small_profile):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        with ParallelRunner(max_workers=2, trace_root=None, shared_memory=True) as runner:
            runner.run(jobs)
            assert runner.shm_stats()["segments"] == 2
        assert runner.shm_stats()["segments"] == 0
        assert runner.shm_stats()["unlinked"] == 2

    def test_worker_crash_is_contained(self, monkeypatch, small_profile):
        """A dying worker surfaces as a clear error, leaks neither segments
        nor executor processes, and the next run works."""
        import repro.engine.parallel as parallel_module

        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        runner = ParallelRunner(max_workers=2, trace_root=None, shared_memory=True)
        try:
            real_task = parallel_module._execute_segment_batch
            monkeypatch.setattr(
                parallel_module, "_execute_segment_batch", _crash_task
            )
            with pytest.raises(RuntimeError, match="worker process died"):
                runner.run(jobs)
            assert not runner._pool.alive  # poisoned pool was discarded
            monkeypatch.setattr(parallel_module, "_execute_segment_batch", real_task)
            results = [m.to_dict() for m in runner.run(jobs)]
            serial = [execute_job(job) for job in jobs]
            assert results == serial
        finally:
            runner.shutdown()

    def test_submit_failure_releases_every_task_reference(self, monkeypatch, small_profile):
        """``submit`` raising on the second task leaves no task reference
        behind: every segment is back to the registry's resident reference,
        so dropping that one brings every refcount to zero."""
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        runner = ParallelRunner(max_workers=2, trace_root=None, shared_memory=True)
        try:
            real_submit = runner._pool.submit
            calls = []

            def submit_failing_second(fn, *args, **kwargs):
                calls.append(fn)
                if len(calls) == 2:
                    raise RuntimeError("injected submit failure")
                return real_submit(fn, *args, **kwargs)

            monkeypatch.setattr(runner._pool, "submit", submit_failing_second)
            with pytest.raises(RuntimeError, match="injected submit failure"):
                runner.run(jobs)
            registry = runner._segment_registry()
            keys = sorted({job.trace_key() for job in jobs})
            assert len(calls) == 2 and len(registry) == len(keys)
            for key in keys:
                registry.discard(key)
            assert len(registry) == 0
            assert registry.stats["unlinked"] == len(keys)
        finally:
            runner.shutdown()

    def test_abandoned_stream_releases_every_task_reference(self, small_profile):
        """Closing a stream after its first result cancels the tasks that never
        started and drops every task reference: discarding each segment's
        resident reference empties the registry, and the next run of the
        same jobs matches a serial run."""
        jobs = [
            make_job(small_profile, c, phase=p) for p in (0, 1, 2, 3) for c in CONFIGURATIONS
        ]
        runner = ParallelRunner(max_workers=2, trace_root=None, shared_memory=True)
        try:
            stream = runner.run_stream(jobs)
            next(stream)
            stream.close()
            registry = runner._segment_registry()
            for key in sorted({job.trace_key() for job in jobs}):
                registry.discard(key)
            assert len(registry) == 0
            results = [m.to_dict() for m in runner.run(jobs)]
        finally:
            runner.shutdown()
        serial = ParallelRunner(trace_root=None).run(jobs)
        assert results == [m.to_dict() for m in serial]

    def test_dropped_runner_does_not_leak_segments(self, small_profile):
        jobs = [make_job(small_profile, c, phase=p) for p in (0, 1) for c in CONFIGURATIONS]
        runner = ParallelRunner(max_workers=2, trace_root=None, shared_memory=True)
        runner.run(jobs)
        assert runner.shm_stats()["segments"] == 2
        del runner
        gc.collect()
        # The autouse fixture asserts /dev/shm is clean after this test.


def _crash_task(jobs, segment_name):  # pragma: no cover - runs in a worker
    os._exit(13)
