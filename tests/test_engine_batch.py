"""The batch scheduler: runner grouping, batched execution, stats plumbing.

Three contracts are pinned here:

* **Grouping is order-preserving and exact** -- the runner puts every job in
  exactly one batch, one batch per trace key in sorted key order, keeps the
  original per-trace job order, and returns results in job order
  (property-tested).
* **Batched execution is bit-identical** to per-job execution (single-job
  batches, one job on a fresh processor) and to cache replay, including on
  mixed hit/miss batches and on all golden Table 3 configurations --
  batching is a scheduling concern only.
* **The amortisation degrades gracefully**: a corrupt trace artifact inside
  a batch falls back to regeneration, and the per-process trace memo's
  capacity follows the batch-width-scaled cap.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import MemoryHierarchy
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import SimulationMetrics
from repro.cluster.processor import ClusteredProcessor
from repro.engine import parallel
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    DEFAULT_MEMO_CAP,
    ParallelRunner,
    execute_batch,
    resolve_memo_cap,
)
from repro.engine.shm import shared_memory_available
from repro.experiments.configs import TABLE3_CONFIGURATIONS, vc_variant
from repro.experiments.golden import GOLDEN_CASES, GOLDEN_SETTINGS
from repro.experiments.runner import ExperimentRunner
from repro.partition.base import RegionPartitioner
from repro.uops.compiled import empty_annotations
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for

LOCAL_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_metrics.json"

CONFIGURATIONS = [
    TABLE3_CONFIGURATIONS["OP"],
    TABLE3_CONFIGURATIONS["VC"],
    TABLE3_CONFIGURATIONS["OB"],
]


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate every test from the per-process trace memo."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


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


def execute_one(job):
    """``job``'s dump from a single-job batch: the per-job reference."""
    return execute_batch([job])["dumps"][0]


# ---------------------------------------------------------------------------
# Runner grouping
# ---------------------------------------------------------------------------


class TestRunnerGrouping:
    """Grouping invariants, property-tested over random job interleavings."""

    #: Small pools the strategies draw from; jobs are cheap to build (the
    #: executor is stubbed, so no simulation happens in these tests).
    PROFILES = [profile_for("164.gzip-1"), profile_for("178.galgel")]

    @st.composite
    @staticmethod
    def job_lists(draw):
        specs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 1),  # profile
                    st.integers(0, 2),  # phase
                    st.sampled_from([400, 500]),  # trace length
                    st.integers(0, len(CONFIGURATIONS) - 1),
                ),
                max_size=24,
            )
        )
        return [
            make_job(
                TestRunnerGrouping.PROFILES[profile],
                CONFIGURATIONS[configuration],
                phase=phase,
                trace_length=length,
            )
            for profile, phase, length, configuration in specs
        ]

    @staticmethod
    def run_recorded(jobs, runner=None):
        """Run ``jobs`` serially with an executor that records each batch.

        The stub's dump for a job has the job's index as ``cycles``, so the
        returned metrics show which job filled each result slot.  ``runner``
        defaults to a serial, uncached one.  Returns the runner, the batches
        (as job indices) and the memo capacity each batch was given, and the
        metrics.
        """
        batches = []

        def position(job):
            # By identity: equal jobs drawn twice are still two jobs.
            return next(index for index, other in enumerate(jobs) if other is job)

        def recording_execute_batch(batch_jobs, trace_root, trace_store, memo_cap):
            indices = [position(job) for job in batch_jobs]
            batches.append((indices, memo_cap))
            dumps = [SimulationMetrics(num_clusters=1, cycles=i).to_dict() for i in indices]
            return {"dumps": dumps, "trace_stats": None}

        if runner is None:
            runner = ParallelRunner(trace_root=None)
        with mock.patch.object(parallel, "execute_batch", recording_execute_batch):
            metrics = runner.run(jobs)
        return runner, batches, metrics

    @settings(max_examples=60, deadline=None)
    @given(jobs=job_lists())
    def test_grouping_is_exact_and_order_preserving(self, jobs):
        runner, batches, metrics = self.run_recorded(jobs)
        # run() returns every job's own result, in job order.
        assert [m.cycles for m in metrics] == list(range(len(jobs)))
        groups = {}
        for index, job in enumerate(jobs):
            groups.setdefault(job.trace_key(), []).append(index)
        # One batch per trace key, in sorted key order, holding exactly that
        # key's jobs in their original order (so every job runs once).
        assert [indices for indices, _ in batches] == [groups[key] for key in sorted(groups)]
        stats = runner.batch_stats
        assert stats["batches"] == len(groups)
        assert stats["max_width"] == max(map(len, groups.values()), default=0)
        assert stats["jobs"] == stats["executed_jobs"] == len(jobs)

    @settings(max_examples=20, deadline=None)
    @given(jobs=job_lists())
    def test_grouping_is_deterministic(self, jobs):
        _, first, _ = self.run_recorded(jobs)
        _, second, _ = self.run_recorded(jobs)
        assert first == second

    def test_empty_job_list_runs_no_batch(self):
        runner, batches, metrics = self.run_recorded([])
        assert batches == [] and metrics == []
        assert set(runner.batch_stats.values()) == {0}
        assert execute_batch([]) == {"dumps": [], "trace_stats": None}

    def test_cached_jobs_never_reach_the_executor(self, tmp_path):
        """A fully cached group is counted but not run; a partially cached
        one runs only its uncached members, and every slot still gets its
        own job's result."""
        profile = self.PROFILES[0]
        a0, a1 = (make_job(profile, c) for c in CONFIGURATIONS[:2])
        b0, b1 = (make_job(profile, c, phase=1) for c in CONFIGURATIONS[:2])
        cache = ResultCache(tmp_path / "cache")
        self.run_recorded([a0, a1, b0], ParallelRunner(cache=cache))
        runner, batches, metrics = self.run_recorded(
            [a0, a1, b0, b1], ParallelRunner(cache=cache)
        )
        assert [indices for indices, _ in batches] == [[3]]
        assert [m.cycles for m in metrics] == [0, 1, 2, 3]
        assert runner.batch_stats == {
            "batches": 2,
            "jobs": 4,
            "max_width": 2,
            "executed_jobs": 1,
            "cached_batches": 1,
            "cached_jobs": 3,
        }

    def test_width_stats(self):
        profile = self.PROFILES[0]
        jobs = [make_job(profile, c) for c in CONFIGURATIONS]
        jobs.append(make_job(profile, CONFIGURATIONS[0], phase=1))
        runner, batches, _ = self.run_recorded(jobs)
        assert runner.batch_stats["batches"] == 2
        assert runner.batch_stats["max_width"] == 3
        # The memo is sized by the mean width: 4 jobs over 2 traces.
        assert {memo_cap for _, memo_cap in batches} == {resolve_memo_cap(2.0)}

    def test_execute_batch_rejects_mixed_trace_keys(self, small_profile):
        jobs = [
            make_job(small_profile, CONFIGURATIONS[0], phase=0),
            make_job(small_profile, CONFIGURATIONS[0], phase=1),
        ]
        with pytest.raises(ValueError, match="sharing one trace_key"):
            execute_batch(jobs)


# ---------------------------------------------------------------------------
# Bit-identical execution across scheduling modes
# ---------------------------------------------------------------------------


def _dump_all(runner: ParallelRunner, jobs):
    return [metrics.to_dict() for metrics in runner.run(jobs)]


class TestBatchedEquivalence:
    def _mixed_jobs(self, small_profile, small_fp_profile):
        jobs = []
        for profile in (small_profile, small_fp_profile):
            for phase in (0, 1):
                for configuration in CONFIGURATIONS:
                    jobs.append(make_job(profile, configuration, phase=phase))
        return jobs

    def test_batched_equals_serial_equals_replay_on_mixed_batches(
        self, tmp_path, small_profile, small_fp_profile
    ):
        """Mixed hit/miss batches: per-job, batched and replay all agree bitwise."""
        jobs = self._mixed_jobs(small_profile, small_fp_profile)
        serial = [execute_one(job) for job in jobs]

        # Pre-seed the cache with every other job, so each batch is a mix of
        # cache hits and misses when the batched runner consults it.
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(cache=cache).run(jobs[::2])
        batched_runner = ParallelRunner(cache=cache)
        batched = _dump_all(batched_runner, jobs)
        assert batched == serial

        # Everything is cached now: a replay run returns the same bits and
        # marks every batch fully cached.
        replay_runner = ParallelRunner(cache=cache)
        replay = _dump_all(replay_runner, jobs)
        assert replay == serial
        assert replay_runner.batch_stats["cached_batches"] == 4
        assert replay_runner.batch_stats["cached_jobs"] == len(jobs)

    def test_batched_parallel_matches_serial(self, small_profile, small_fp_profile):
        jobs = self._mixed_jobs(small_profile, small_fp_profile)
        serial = [execute_one(job) for job in jobs]
        parallel = _dump_all(
            ParallelRunner(max_workers=2, trace_root=None), jobs
        )
        assert parallel == serial

    def test_mixed_machine_geometries_in_one_batch(self, small_profile):
        """Jobs sharing a trace but not a machine run on separate processors."""
        jobs = [
            make_job(small_profile, TABLE3_CONFIGURATIONS["OP"]),
            make_job(
                small_profile,
                TABLE3_CONFIGURATIONS["OP"],
                config_overrides=(("link_latency", 5),),
            ),
            make_job(small_profile, TABLE3_CONFIGURATIONS["VC"]),
        ]
        assert len({job.trace_key() for job in jobs}) == 1
        assert len({job.machine_key() for job in jobs}) == 2
        serial = [execute_one(job) for job in jobs]
        _TRACE_MEMO.clear()
        batched = execute_batch(jobs)["dumps"]
        assert batched == serial

    def test_golden_table3_configs_batched_bit_identical(self):
        """Acceptance: batching reproduces the committed golden metrics exactly."""
        golden = json.loads(LOCAL_GOLDEN_PATH.read_text(encoding="utf-8"))
        expected = {
            (case["benchmark"], case["configuration"]): case for case in golden["cases"]
        }
        runner = ExperimentRunner(GOLDEN_SETTINGS)
        for benchmark, configuration_name in GOLDEN_CASES:
            result = runner.run_benchmark(
                benchmark, TABLE3_CONFIGURATIONS[configuration_name]
            )
            metrics = result.phase_results[0].metrics
            case = expected[(benchmark, configuration_name)]
            assert metrics.cycles == case["cycles"]
            assert metrics.committed_uops == case["committed_uops"]
            assert metrics.copies_generated == case["copies_generated"]
            assert list(metrics.cluster_dispatch) == case["cluster_dispatch"]
            assert list(metrics.allocation_stalls) == case["allocation_stalls"]


# ---------------------------------------------------------------------------
# bind / run_bound on the processor
# ---------------------------------------------------------------------------


class TestRunBound:
    def test_run_bound_matches_fresh_processors(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(600)
        config = ClusterConfig(num_clusters=2)

        def policies():
            ops = TABLE3_CONFIGURATIONS["OP"]
            one = TABLE3_CONFIGURATIONS["one-cluster"]
            return [ops.make_policy(2, 2), one.make_policy(2, 2), ops.make_policy(2, 2)]

        fresh = [
            ClusteredProcessor(config, policy).run(compiled) for policy in policies()
        ]
        shared = ClusteredProcessor(config, policies()[0])
        shared.bind(compiled)
        reused = [shared.run_bound(policy) for policy in policies()]
        assert [m.to_dict() for m in reused] == [m.to_dict() for m in fresh]

    def test_run_bound_sees_reannotation_between_runs(self, small_profile):
        """Annotation changes between runs are visible: the VC run sees its
        partitioner's annotations, the OP run an unannotated trace -- exactly
        as with fresh per-job processors."""
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(600)
        config = ClusterConfig(num_clusters=2)
        vc = TABLE3_CONFIGURATIONS["VC"]
        op = TABLE3_CONFIGURATIONS["OP"]

        def prepare_for(configuration):
            partitioner = configuration.make_partitioner(2, 2, 128)
            if partitioner is not None:
                compiled.annotate_from(partitioner.annotate_program(program).columns)
            else:
                compiled.install_annotations(empty_annotations(len(compiled)))

        fresh = []
        for configuration in (vc, op, vc):
            prepare_for(configuration)
            policy = configuration.make_policy(2, 2)
            fresh.append(ClusteredProcessor(config, policy).run(compiled).to_dict())

        order = [vc, op, vc]
        shared = ClusteredProcessor(config, vc.make_policy(2, 2))
        shared.bind(compiled)
        reused = []
        for configuration in order:
            prepare_for(configuration)
            reused.append(shared.run_bound(configuration.make_policy(2, 2)))
        assert [m.to_dict() for m in reused] == fresh
        assert fresh[0]["copies_generated"] != fresh[1]["copies_generated"] or (
            fresh[0] != fresh[1]
        )

    def test_run_bound_without_bind_raises(self):
        processor = ClusteredProcessor(
            ClusterConfig(num_clusters=2), TABLE3_CONFIGURATIONS["OP"].make_policy(2, 2)
        )
        with pytest.raises(RuntimeError, match="no trace bound"):
            processor.run_bound()


# ---------------------------------------------------------------------------
# Degradation: corrupt artifacts inside a batch
# ---------------------------------------------------------------------------


class TestBatchDegradation:
    def test_corrupt_artifact_in_batch_regenerates(self, tmp_path, small_profile):
        jobs = [make_job(small_profile, c) for c in CONFIGURATIONS]
        reference = execute_batch(jobs, trace_root=None)["dumps"]

        root = tmp_path / "traces"
        first = execute_batch(jobs, trace_root=str(root))
        assert first["dumps"] == reference
        assert first["trace_stats"] == {"hits": 0, "misses": 1, "stores": 1}

        # Corrupt the stored artifact; the next batch must fall back to
        # regeneration (a miss + a rewrite), not fail or return garbage.
        artifacts = sorted(root.rglob("*.npz"))
        assert len(artifacts) == 1
        artifacts[0].write_bytes(b"not an npz artifact")
        _TRACE_MEMO.clear()
        degraded = execute_batch(jobs, trace_root=str(root))
        assert degraded["dumps"] == reference
        assert degraded["trace_stats"] == {"hits": 0, "misses": 1, "stores": 1}

        # And the rewritten artifact serves the following batch from disk.
        _TRACE_MEMO.clear()
        healed = execute_batch(jobs, trace_root=str(root))
        assert healed["dumps"] == reference
        assert healed["trace_stats"] == {"hits": 1, "misses": 0, "stores": 0}


# ---------------------------------------------------------------------------
# Trace-memo capacity resolution and enforcement
# ---------------------------------------------------------------------------


class TestTraceMemoCap:
    def test_width_scaled_default(self):
        assert resolve_memo_cap() == DEFAULT_MEMO_CAP
        assert resolve_memo_cap(batch_width=1.0) == DEFAULT_MEMO_CAP
        # A batch task holds one trace for its whole duration, so wide
        # batches shrink the useful memo working set.
        assert resolve_memo_cap(batch_width=8.0) == 2
        assert resolve_memo_cap(batch_width=4.0) == 4

    def test_width_scaled_cap_floor_is_two(self):
        assert resolve_memo_cap(batch_width=16.0) == 2
        assert resolve_memo_cap(batch_width=1000.0) == 2

    def test_memo_eviction_respects_cap(self, small_profile):
        configuration = TABLE3_CONFIGURATIONS["OP"]
        for phase in range(3):
            execute_batch([make_job(small_profile, configuration, phase=phase)], memo_cap=2)
            assert len(_TRACE_MEMO) <= 2
        assert len(_TRACE_MEMO) == 2


# ---------------------------------------------------------------------------
# Trace state lives only while a batch reads it
# ---------------------------------------------------------------------------


class TestTraceStateLifetime:
    """Parallel runs default to the pickle path, and a memoised trace keeps
    its memo() values but no hot-path list once its batch is done."""

    def _jobs(self, small_profile, small_fp_profile):
        return [
            make_job(profile, configuration, phase=phase)
            for profile in (small_profile, small_fp_profile)
            for phase in (0, 1)
            for configuration in CONFIGURATIONS
        ]

    def test_default_parallel_runner_takes_the_pickle_path(
        self, small_profile, small_fp_profile
    ):
        jobs = self._jobs(small_profile, small_fp_profile)
        serial = _dump_all(ParallelRunner(), jobs)
        _TRACE_MEMO.clear()
        with ParallelRunner(max_workers=2) as runner:
            assert runner.shared_memory is False
            assert _dump_all(runner, jobs) == serial
            assert runner.shm_stats()["published"] == 0
        # The workers acquired every trace: the parent holds none.
        assert not _TRACE_MEMO

    @pytest.mark.skipif(not shared_memory_available(), reason="no multiprocessing.shared_memory")
    def test_pickle_path_matches_shared_memory(self, small_profile, small_fp_profile):
        jobs = self._jobs(small_profile, small_fp_profile)
        with ParallelRunner(max_workers=2) as runner:
            pickled = _dump_all(runner, jobs)
        with ParallelRunner(max_workers=2, shared_memory=True) as runner:
            shared = _dump_all(runner, jobs)
            assert runner.shm_stats()["published"] == 4
        assert pickled == shared

    def test_batch_releases_hot_path_lists(self, small_profile):
        geometries = (ClusterConfig(num_clusters=2), ClusterConfig(num_clusters=2, l1_assoc=2))
        jobs = [make_job(small_profile, configuration) for configuration in CONFIGURATIONS]
        jobs.append(make_job(small_profile, CONFIGURATIONS[0], config_overrides=(("l1_assoc", 2),)))
        execute_batch(jobs)
        ((_, compiled),) = _TRACE_MEMO.values()
        assert compiled._lists == {}
        keys = {("annotations", c.partitioner_key(2, 2, 128)) for c in CONFIGURATIONS}
        keys |= {("warm caches", MemoryHierarchy.from_config(g).geometry) for g in geometries}
        assert set(compiled._values) == keys

    def test_rehoisted_batch_matches_a_fresh_trace(self, small_profile):
        """A second batch over the memoised trace re-hoists its lists but
        neither regenerates, re-partitions nor re-warms -- and its dumps are
        bit-identical to a fresh trace's."""
        jobs = [make_job(small_profile, configuration) for configuration in CONFIGURATIONS]
        first = execute_batch(jobs)["dumps"]
        ((_, compiled),) = _TRACE_MEMO.values()
        assert not compiled._lists
        never = mock.Mock(side_effect=AssertionError("memoised work was redone"))
        with mock.patch.object(WorkloadGenerator, "generate_compiled_trace", never), \
                mock.patch.object(RegionPartitioner, "annotate_program", never), \
                mock.patch.object(ClusteredProcessor, "_warm_caches", never):
            second = execute_batch(jobs)["dumps"]
        assert not compiled._lists
        _TRACE_MEMO.clear()
        fresh = execute_batch(jobs)["dumps"]
        assert second == fresh == first


# ---------------------------------------------------------------------------
# Trace-store traffic aggregation across workers
# ---------------------------------------------------------------------------


class TestTraceStatsAggregation:
    def test_serial_stats_flow_through_runner_store(self, tmp_path, small_profile):
        runner = ParallelRunner(trace_root=tmp_path / "traces")
        runner.run([make_job(small_profile, c) for c in CONFIGURATIONS])
        stats = runner.trace_stats()
        assert stats == {"hits": 0, "misses": 1, "stores": 1}

    def test_parallel_worker_stats_are_aggregated(self, tmp_path, small_profile, small_fp_profile):
        """Pickle-path runs aggregate worker-side store deltas (the
        shared-memory path accounts trace traffic in the parent instead --
        see test_engine_shm.py)."""
        root = tmp_path / "traces"
        jobs = [
            make_job(profile, configuration)
            for profile in (small_profile, small_fp_profile)
            for configuration in CONFIGURATIONS
        ]
        runner = ParallelRunner(max_workers=2, trace_root=root, shared_memory=False)
        try:
            runner.run(jobs)
        finally:
            runner.shutdown()
        # Two batches, each generated + stored its trace exactly once inside
        # a worker process -- and the parent's footer-facing totals see it.
        assert runner.trace_stats() == {"hits": 0, "misses": 2, "stores": 2}

        replay = ParallelRunner(max_workers=2, trace_root=root, shared_memory=False)
        try:
            replay.run(jobs)
        finally:
            replay.shutdown()
        assert replay.trace_stats() == {"hits": 2, "misses": 0, "stores": 0}

    def test_batch_stats_track_plan_shape(self, small_profile, small_fp_profile):
        jobs = [
            make_job(profile, configuration)
            for profile in (small_profile, small_fp_profile)
            for configuration in CONFIGURATIONS
        ]
        runner = ParallelRunner(trace_root=None)
        runner.run(jobs)
        assert runner.batch_stats == {
            "batches": 2,
            "jobs": 6,
            "max_width": 3,
            "executed_jobs": 6,
            "cached_batches": 0,
            "cached_jobs": 0,
        }


# ---------------------------------------------------------------------------
# VC variants keep distinct results inside one batch
# ---------------------------------------------------------------------------


class TestBatchConfigurationAxis:
    def test_eight_config_single_trace_batch(self, small_profile):
        """The sweep shape the scheduler optimises for: one trace, wide axis."""
        configurations = [
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["one-cluster"],
            TABLE3_CONFIGURATIONS["OB"],
            TABLE3_CONFIGURATIONS["RHOP"],
            TABLE3_CONFIGURATIONS["VC"],
            vc_variant("VC(1)", 1),
            vc_variant("VC(4)", 4),
            vc_variant("VC(8)", 8),
        ]
        jobs = [make_job(small_profile, c) for c in configurations]
        assert len({job.trace_key() for job in jobs}) == 1
        serial = [execute_one(job) for job in jobs]
        _TRACE_MEMO.clear()
        batched = execute_batch(jobs)["dumps"]
        assert batched == serial
        # The axis is real: not every configuration simulates identically.
        assert len({dump["cycles"] for dump in batched}) > 1
