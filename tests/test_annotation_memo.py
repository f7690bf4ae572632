"""Compile-time annotations and warmed caches as memoised values of a trace.

Contracts pinned here:

* **One partitioning per key.**  A configuration's compile-time pass runs
  once per trace and
  :meth:`~repro.experiments.configs.SteeringConfiguration.partitioner_key`;
  every other job of that key installs the memoised columns.  Results equal
  fresh per-job execution field for field.
* **Order independence.**  Interleaving configurations on one trace gives
  each the metrics and annotation columns it gets alone: passes never
  change the program, and a memo hit never sees stale columns.
* **One warm-up per geometry.**  ``_warm_caches`` replays the access plan
  once per (trace, cache geometry); later runs start from a copy with zeroed
  statistics and report identical metrics, cache summary included.
* **Memoised values are read-only**, on a trace that was never bound.
* **One engine run per sweep** leaves the result-cache keys unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.processor import ClusteredProcessor
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    ParallelRunner,
    _prepare_job,
    execute_batch,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner
from repro.partition.base import RegionPartitioner
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.uops.compiled import CompiledTrace
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import program_bytes

OP, RHOP, VC = (TABLE3_CONFIGURATIONS[name] for name in ("OP", "RHOP", "VC"))
LATENCIES = (1, 4, 8)

#: sha256 over the cache keys of every job of the built-in ``figure5``
#: scenario, in run order, as computed before annotations were memoised: a
#: result cache filled then must still serve every job.
FIGURE5_KEYS_DIGEST = "3d7e83112288218910e81dde1d0207677d8436b99fc5bd2b6253875d76db2002"


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


@pytest.fixture
def partition_calls(monkeypatch):
    """Names of the partitioners whose ``annotate_program`` ran, in order."""
    calls = []
    annotate_program = RegionPartitioner.annotate_program

    def counted(self, program):
        calls.append(self.name)
        return annotate_program(self, program)

    monkeypatch.setattr(RegionPartitioner, "annotate_program", counted)
    return calls


def make_job(profile, configuration, link_latency=1):
    return SimulationJob(
        profile=profile,
        phase=0,
        configuration=configuration,
        trace_length=500,
        region_size=128,
        num_clusters=2,
        num_virtual_clusters=2,
        config_overrides=(("link_latency", link_latency),),
    )


def fresh_dump(job):
    """``job`` run on its own, on a newly generated trace."""
    _TRACE_MEMO.clear()
    return execute_batch([job], trace_root=None)["dumps"][0]


def sweep_jobs(*profiles):
    return [
        make_job(profile, configuration, latency)
        for latency in LATENCIES
        for profile in profiles
        for configuration in (OP, RHOP, VC)
    ]


class TestAnnotationMemo:
    def test_partitioner_runs_once_per_key(
        self, partition_calls, small_profile, small_fp_profile
    ):
        jobs = sweep_jobs(small_profile, small_fp_profile)
        metrics = ParallelRunner(trace_root=None).run(jobs)
        # 2 traces x {RHOP, VC}: the 3 link latencies share each pass.
        assert sorted(partition_calls) == ["RHOP", "RHOP", "VC", "VC"]
        partition_calls.clear()
        assert [m.to_dict() for m in metrics] == [fresh_dump(job) for job in jobs]

    def test_interleaved_configurations_match_each_alone(self, small_profile):
        order = [VC, OP, VC, RHOP, VC]
        jobs = [make_job(small_profile, configuration) for configuration in order]
        assert execute_batch(jobs, trace_root=None)["dumps"] == [
            fresh_dump(job) for job in jobs
        ]

    def test_interleaved_columns_match_a_fresh_pass(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        for configuration in (VC, OP, VC, RHOP, VC):
            job = make_job(small_profile, configuration)
            _prepare_job(job, program, compiled)
            fresh_program, fresh = WorkloadGenerator(small_profile).generate_compiled_trace(500)
            _prepare_job(job, fresh_program, fresh)
            for name in CompiledTrace.ANNOTATION_FIELDS:
                assert np.array_equal(getattr(compiled, name), getattr(fresh, name)), name

    def test_memoised_columns_are_read_only(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        _prepare_job(make_job(small_profile, VC), program, compiled)
        key = ("annotations", VC.partitioner_key(2, 2, 128))
        stored = compiled.memo(key, lambda: pytest.fail("annotations were not memoised"))
        assert compiled.address.flags.writeable  # never bound, so never frozen
        for column in stored:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_hardware_only_key_ignores_the_program(self, small_profile):
        """A hardware-only key installs constant unannotated columns without
        reading the program, before and after another pass ran on the trace."""
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        _prepare_job(make_job(small_profile, OP), None, compiled)
        assert (compiled.vc_id == -1).all() and not compiled.chain_leader.any()
        _prepare_job(make_job(small_profile, VC), program, compiled)
        assert (compiled.vc_id >= 0).all()
        _prepare_job(make_job(small_profile, OP), None, compiled)
        assert (compiled.vc_id == -1).all() and not compiled.chain_leader.any()
        assert (compiled.static_cluster == -1).all()

    def test_prepare_job_leaves_the_program_unchanged(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        before = program_bytes(program)
        for configuration in (OP, VC, RHOP):
            _prepare_job(make_job(small_profile, configuration), program, compiled)
        assert program_bytes(program) == before


@pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
class TestWarmUpSnapshot:
    def test_replays_once_per_geometry(self, monkeypatch, small_profile, kernel):
        replays = []
        warm_caches = ClusteredProcessor._warm_caches

        def counted(self, compiled):
            replays.append(self.memory.geometry)
            return warm_caches(self, compiled)

        monkeypatch.setattr(ClusteredProcessor, "_warm_caches", counted)

        def processor(**overrides):
            config = ClusterConfig(num_clusters=2, **overrides)
            return ClusteredProcessor(config, OP.make_policy(2, 2), kernel=kernel)

        _, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        bound = processor()
        bound.bind(compiled)
        first = bound.run_bound().to_dict()
        assert first["cache"]["l1_accesses"] > 0
        assert bound.run_bound().to_dict() == first
        # Link latency is not cache geometry: the snapshot is reused.
        processor(link_latency=4).run(compiled)
        assert len(replays) == 1
        # A smaller L1 is: one more replay, matching a trace that never
        # saw a snapshot.
        small_l1 = processor(l1_size_kb=8).run(compiled).to_dict()
        assert len(replays) == 2
        _, fresh = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        assert processor(l1_size_kb=8).run(fresh).to_dict() == small_l1


class TestOneRunPerSweep:
    def test_sweep_is_one_batch_per_trace(self, partition_calls):
        spec = ScenarioSpec(
            name="memo-sweep",
            report="sweep",
            benchmarks=("164.gzip-1", "178.galgel"),
            configurations=(OP, RHOP, VC),
            trace_length=400,
            sweep=(SweepAxis(parameter="link_latency", values=LATENCIES),),
        )
        with ParallelRunner(trace_root=None) as engine:
            text = run_scenario(spec, engine=engine)
        assert "Ablation sweep -- link_latency" in text
        assert engine.batch_stats["batches"] == 2
        assert engine.batch_stats["jobs"] == 18
        assert engine.batch_stats["max_width"] == 9
        assert sorted(partition_calls) == ["RHOP", "RHOP", "VC", "VC"]

    def test_repeated_cache_keys_simulate_once(self, tmp_path, small_profile):
        """A region-size sweep submits the OP baseline once per point; with a
        result cache the run simulates it once and serves the rest."""
        jobs = [
            SimulationJob(
                profile=small_profile, phase=0, configuration=configuration,
                trace_length=400, region_size=region, num_clusters=2,
                num_virtual_clusters=2,
            )
            for region in (32, 64)
            for configuration in (OP, VC)
        ]
        assert jobs[0].cache_key() == jobs[2].cache_key()
        expected = [m.to_dict() for m in ParallelRunner(trace_root=None).run(jobs)]
        cached = ParallelRunner(cache=ResultCache(tmp_path / "cache"), trace_root=None)
        assert [m.to_dict() for m in cached.run(jobs)] == expected
        assert cached.cache.stats() == {"hits": 0, "misses": 3, "stores": 3}
        assert cached.batch_stats["executed_jobs"] == 3
        assert cached.batch_stats["cached_jobs"] == 1

    def test_figure5_cache_keys_are_unchanged(self):
        spec = builtin_scenario("figure5")
        runner = ExperimentRunner(spec)
        matrix = runner.expand_phase_matrix(spec.resolved_benchmarks(), spec.configurations)
        assert len(matrix.jobs) == 200
        digest = hashlib.sha256("".join(job.cache_key() for job in matrix.jobs).encode())
        assert digest.hexdigest() == FIGURE5_KEYS_DIGEST

    @pytest.mark.parametrize("first, second", [(2, 2.0), (2.0, 2)])
    def test_equal_values_of_another_type_keep_their_own_keys(self, first, second):
        # 2 == 2.0 and both hash alike, but they encode differently, so a key
        # must not depend on which of the two the process encoded first.
        spec = builtin_scenario("figure5")
        rhop = next(c for c in spec.configurations if c.name == "RHOP")
        runner = ExperimentRunner(spec)
        job = runner.expand_phase_matrix(spec.resolved_benchmarks()[:1], [rhop]).jobs[0]
        machine_keys = [
            dataclasses.replace(job, config_overrides=(("link_latency", value),)).cache_key()
            for value in (first, second)
        ]
        assert machine_keys[0] != machine_keys[1]
        configuration_keys = [
            dataclasses.replace(
                job,
                configuration=dataclasses.replace(
                    rhop, partitioner_params={"max_edge_weight": 8 * value}
                ),
            ).cache_key()
            for value in (first, second)
        ]
        assert configuration_keys[0] != configuration_keys[1]
