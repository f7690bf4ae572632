"""The on-disk compiled-trace artifact store and its engine integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.artifacts import TraceArtifactStore
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    ParallelRunner,
    execute_job,
    trace_store_for,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate every test from the per-process trace memo."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


def make_job(profile, **overrides) -> SimulationJob:
    defaults = dict(
        profile=profile,
        phase=0,
        configuration=TABLE3_CONFIGURATIONS["VC"],
        trace_length=600,
        region_size=128,
        num_clusters=2,
        num_virtual_clusters=2,
    )
    defaults.update(overrides)
    return SimulationJob(**defaults)


class TestStore:
    def test_put_get_round_trip(self, tmp_path, small_profile):
        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        store.put("ab" * 32, program, compiled)
        loaded = store.get("ab" * 32)
        assert loaded is not None
        loaded_program, loaded_trace = loaded
        assert loaded_trace.equals(compiled)
        assert loaded_program.num_instructions == program.num_instructions
        assert [i.sid for i in loaded_program.all_instructions()] == [
            i.sid for i in program.all_instructions()
        ]
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 1}

    def test_missing_key_is_a_miss(self, tmp_path):
        store = TraceArtifactStore(tmp_path / "traces")
        assert store.get("cd" * 32) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path, small_profile):
        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        key = "ef" * 32
        store.put(key, program, compiled)
        path = store._path(key)
        path.write_bytes(b"not an npz file")
        assert store.get(key) is None

    def test_out_of_range_opclass_artifact_is_a_miss(self, tmp_path, small_profile):
        """A structurally valid npz with garbage opclass codes must not crash."""
        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        key = "aa" * 32
        store.put(key, program, compiled)
        path = store._path(key)
        data = dict(np.load(path, allow_pickle=False))
        data["opclass"] = np.full_like(data["opclass"], 250)
        np.savez_compressed(path.with_suffix(""), **data)  # savez re-appends .npz
        assert store.get(key) is None

    def test_version_mismatch_is_a_miss(self, tmp_path, small_profile, monkeypatch):
        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        key = "0f" * 32
        store.put(key, program, compiled)
        monkeypatch.setattr("repro.engine.artifacts.TRACE_ARTIFACT_VERSION", 999)
        assert store.get(key) is None

    def test_savez_compressed_layout_still_loads(self, tmp_path, small_profile):
        """Artifacts written as ``np.savez_compressed`` files (the store's
        earlier writer) stay hits: same members, default deflate level."""
        import pickle

        from repro.engine.artifacts import TRACE_ARTIFACT_VERSION

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        key = "5a" * 32
        path = store._path(key)
        path.parent.mkdir(parents=True)
        payload = dict(compiled.stored_columns())
        payload["program_pickle"] = np.frombuffer(
            pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
        )
        payload["artifact_version"] = np.array([TRACE_ARTIFACT_VERSION], dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        loaded = store.get(key)
        assert loaded is not None
        loaded_program, loaded_trace = loaded
        assert loaded_trace.equals(compiled)

        def operands(prog):
            return [(i.sid, i.opclass, i.srcs, i.dests) for i in prog.all_instructions()]

        assert operands(loaded_program) == operands(program)
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 0}

    def test_written_artifact_is_a_standard_npz(self, tmp_path, small_profile):
        """``put`` writes the ``np.savez`` member layout, deflate-compressed."""
        import zipfile

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        key = "6b" * 32
        store.put(key, program, compiled)
        with zipfile.ZipFile(store._path(key)) as archive:
            members = archive.infolist()
        assert sorted(member.filename for member in members) == sorted(
            f"{name}.npy"
            for name in (*compiled.STORED_FIELDS, "program_pickle", "artifact_version")
        )
        assert {member.compress_type for member in members} == {zipfile.ZIP_DEFLATED}
        with np.load(store._path(key), allow_pickle=False) as data:
            for name in compiled.STORED_FIELDS:
                stored = data[name]
                assert stored.dtype == getattr(compiled, name).dtype
                assert np.array_equal(stored, getattr(compiled, name))

    def test_loaded_program_supports_compiler_passes(self, tmp_path, small_profile):
        """Annotating a loaded program must reproduce the fresh-program pass."""
        from repro.partition.vc_partitioner import VirtualClusterPartitioner

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        store.put("11" * 32, program, compiled)
        loaded_program, loaded_trace = store.get("11" * 32)
        VirtualClusterPartitioner(2).annotate_program(program)
        VirtualClusterPartitioner(2).annotate_program(loaded_program)
        compiled.annotate_from(program)
        loaded_trace.annotate_from(loaded_program)
        assert np.array_equal(loaded_trace.vc_id, compiled.vc_id)
        assert np.array_equal(loaded_trace.chain_leader, compiled.chain_leader)


class TestEngineIntegration:
    def test_execute_job_populates_and_reuses_artifacts(self, tmp_path, small_profile):
        root = tmp_path / "traces"
        job = make_job(small_profile)
        first = execute_job(job, trace_root=str(root))
        store = trace_store_for(str(root))
        assert store.stores == 1
        # A fresh process would miss the memo and load from disk; emulate it.
        _TRACE_MEMO.clear()
        second = execute_job(job, trace_root=str(root))
        assert store.hits >= 1
        assert first == second

    def test_memo_entries_do_not_leak_across_trace_roots(self, tmp_path, small_profile):
        """A no-store memo entry must not satisfy a later artifact-enabled run."""
        root = tmp_path / "traces"
        job = make_job(small_profile)
        without_store = execute_job(job, trace_root=None)
        with_store = execute_job(job, trace_root=str(root))
        assert trace_store_for(str(root)).stores == 1  # artifact actually written
        assert without_store == with_store

    def test_results_identical_with_and_without_artifacts(self, tmp_path, small_profile):
        with_artifacts = execute_job(
            make_job(small_profile), trace_root=str(tmp_path / "traces")
        )
        _TRACE_MEMO.clear()
        without = execute_job(make_job(small_profile), trace_root=None)
        assert with_artifacts == without

    def test_configurations_share_one_artifact(self, tmp_path, small_profile):
        root = tmp_path / "traces"
        for name in ("OP", "VC", "one-cluster"):
            _TRACE_MEMO.clear()
            execute_job(
                make_job(small_profile, configuration=TABLE3_CONFIGURATIONS[name]),
                trace_root=str(root),
            )
        artifacts = sorted(root.glob("*/*.npz"))
        assert len(artifacts) == 1  # same phase, same trace inputs -> one file

    def test_auto_trace_root_follows_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(max_workers=1, cache=cache)
        assert runner.trace_root == str(tmp_path / "cache" / "traces")
        assert ParallelRunner(max_workers=1, cache=None).trace_root is None
        assert ParallelRunner(max_workers=1, cache=cache, trace_root=None).trace_root is None
        explicit = ParallelRunner(max_workers=1, cache=None, trace_root=tmp_path / "t")
        assert explicit.trace_root == str(tmp_path / "t")
        # The sentinel compares by identity: a path literally named "auto"
        # must be honoured as a path, not hijacked as the sentinel.
        named_auto = ParallelRunner(max_workers=1, cache=cache, trace_root="auto")
        assert named_auto.trace_root == "auto"

    def test_parallel_runs_with_artifacts_stay_bit_identical(self, tmp_path, small_profile):
        settings = ScenarioSpec(name="artifacts", trace_length=500, max_phases=2)
        configurations = [TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]]
        serial = ExperimentRunner(settings).run_suite([small_profile], configurations)
        _TRACE_MEMO.clear()
        artifact_runner = ExperimentRunner(
            settings,
            engine=ParallelRunner(max_workers=2, trace_root=tmp_path / "traces"),
        )
        parallel = artifact_runner.run_suite([small_profile], configurations)
        _TRACE_MEMO.clear()
        replay = ExperimentRunner(
            settings,
            engine=ParallelRunner(max_workers=1, trace_root=tmp_path / "traces"),
        ).run_suite([small_profile], configurations)
        name = small_profile.name
        for configuration in ("OP", "VC"):
            reference = serial[name][configuration]
            for other in (parallel[name][configuration], replay[name][configuration]):
                assert reference.cycles == other.cycles
                assert reference.copies == other.copies
                assert [r.metrics for r in reference.phase_results] == [
                    r.metrics for r in other.phase_results
                ]
