"""The batch scheduler: RunPlan grouping, batched execution, stats plumbing.

Three contracts are pinned here:

* **Partitioning is order-preserving and exact** -- every job lands in
  exactly one batch, batches keep the original per-trace job order, and the
  plan is a pure function of the job list (property-tested).
* **Batched execution is bit-identical** to per-job execution
  (:func:`execute_job`, one job on a fresh processor) and to cache replay, including on mixed hit/miss batches and on all golden
  Table 3 configurations -- batching is a scheduling concern only.
* **The amortisation degrades gracefully**: a corrupt trace artifact inside
  a batch falls back to regeneration, and the per-process trace memo's
  capacity follows the batch-width-scaled cap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.processor import ClusteredProcessor
from repro.engine.batch import JobBatch, RunPlan
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    DEFAULT_MEMO_CAP,
    ParallelRunner,
    execute_batch,
    execute_job,
    resolve_memo_cap,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS, vc_variant
from repro.experiments.golden import GOLDEN_CASES, GOLDEN_SETTINGS
from repro.experiments.runner import ExperimentRunner
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


# ---------------------------------------------------------------------------
# RunPlan partitioning
# ---------------------------------------------------------------------------


class TestRunPlan:
    """Grouping invariants, property-tested over random job interleavings."""

    #: Small pools the strategies draw from; jobs are cheap to build (no
    #: simulation happens in these tests).
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
                TestRunPlan.PROFILES[profile],
                CONFIGURATIONS[configuration],
                phase=phase,
                trace_length=length,
            )
            for profile, phase, length, configuration in specs
        ]

    @settings(max_examples=60, deadline=None)
    @given(jobs=job_lists())
    def test_partition_is_exact_and_order_preserving(self, jobs):
        plan = RunPlan.from_jobs(jobs)
        seen = [index for batch in plan.batches for index in batch.indices]
        # Exact cover: every job in exactly one batch.
        assert sorted(seen) == list(range(len(jobs)))
        for batch in plan.batches:
            # Original job order is preserved inside each batch...
            assert list(batch.indices) == sorted(batch.indices)
            # ...and grouping is exactly by trace key.
            for index, job in zip(batch.indices, batch.jobs):
                assert jobs[index] is job
                assert job.trace_key() == batch.trace_key
        # Batch order is deterministic (sorted by trace key).
        assert [b.trace_key for b in plan.batches] == sorted(
            b.trace_key for b in plan.batches
        )
        assert plan.num_jobs == len(jobs)
        assert plan.num_traces == len({job.trace_key() for job in jobs})

    @settings(max_examples=20, deadline=None)
    @given(jobs=job_lists())
    def test_plan_is_deterministic(self, jobs):
        assert RunPlan.from_jobs(jobs) == RunPlan.from_jobs(jobs)

    def test_width_stats(self):
        profile = self.PROFILES[0]
        jobs = [make_job(profile, c) for c in CONFIGURATIONS]
        jobs.append(make_job(profile, CONFIGURATIONS[0], phase=1))
        plan = RunPlan.from_jobs(jobs)
        assert plan.num_traces == 2
        assert plan.max_width == 3
        assert plan.mean_width == 2.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            JobBatch(trace_key="k", indices=(), jobs=())

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
        serial = [execute_job(job) for job in jobs]

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
        serial = [execute_job(job) for job in jobs]
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
        serial = [execute_job(job) for job in jobs]
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
# run_many / run_bound on the processor
# ---------------------------------------------------------------------------


class TestRunMany:
    def test_run_many_matches_fresh_processors(self, small_profile):
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
        reused = shared.run_many(compiled, policies())
        assert [m.to_dict() for m in reused] == [m.to_dict() for m in fresh]

    def test_run_many_prepare_reannotates_between_runs(self, small_profile):
        """Annotation changes between runs are visible: the VC run sees its
        partitioner's annotations, the OP run a cleared trace -- exactly as
        with fresh per-job processors."""
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(600)
        config = ClusterConfig(num_clusters=2)
        vc = TABLE3_CONFIGURATIONS["VC"]
        op = TABLE3_CONFIGURATIONS["OP"]

        def prepare_for(configuration):
            partitioner = configuration.make_partitioner(2, 2, 128)
            if partitioner is not None:
                partitioner.annotate_program(program)
            else:
                program.clear_annotations()
            compiled.annotate_from(program)

        fresh = []
        for configuration in (vc, op, vc):
            prepare_for(configuration)
            policy = configuration.make_policy(2, 2)
            fresh.append(ClusteredProcessor(config, policy).run(compiled).to_dict())

        order = [vc, op, vc]
        shared = ClusteredProcessor(config, vc.make_policy(2, 2))
        reused = shared.run_many(
            compiled,
            [configuration.make_policy(2, 2) for configuration in order],
            prepare=lambda index: prepare_for(order[index]),
        )
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
            "cancelled_jobs": 0,
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
        plan = RunPlan.from_jobs(jobs)
        assert plan.num_traces == 1 and plan.max_width == 8
        serial = [execute_job(job) for job in jobs]
        _TRACE_MEMO.clear()
        batched = execute_batch(jobs)["dumps"]
        assert batched == serial
        # The axis is real: not every configuration simulates identically.
        assert len({dump["cycles"] for dump in batched}) > 1
