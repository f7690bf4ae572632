"""The on-disk compiled-trace artifact store and its engine integration."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.engine.artifacts import TraceArtifactStore
from repro.engine.cache import ResultCache
from repro.engine.job import SimulationJob
from repro.engine.parallel import (
    _TRACE_MEMO,
    ParallelRunner,
    execute_batch,
    trace_store_for,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner
from repro.partition.base import program_regions
from repro.program.program import LAYOUT_DTYPES, Program, pack
from repro.scenarios.registry import build_partitioner
from repro.scenarios.spec import ScenarioSpec
from repro.uops.registers import NUM_REGISTERS
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import traces_equal


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate every test from the per-process trace memo."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


def execute_one(job, trace_root):
    """``job``'s dump from a single-job batch."""
    return execute_batch([job], trace_root=trace_root)["dumps"][0]


def program_columns(program):
    return {name: getattr(program, name).tolist() for name in Program.COLUMNS}


def write_artifact(path, columns):
    np.savez_compressed(path.with_suffix(""), **columns)  # savez re-appends .npz


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
        assert traces_equal(loaded_trace, compiled)
        assert program_columns(loaded_program) == program_columns(program)
        assert (loaded_program.name, loaded_program.entry) == (program.name, program.entry)
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
        data = dict(np.load(path))
        data["opclass"] = np.full_like(data["opclass"], 250)
        write_artifact(path, data)
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "tamper",
        [
            "offsets-not-rising",
            "register-outside-space",
            "register-counts",
            "block-start-short",
            "edge-to-unknown-block",
            "out-probabilities",
            "sid-past-end",
            "object-member",
        ],
    )
    def test_tampered_program_columns_are_a_miss(self, tmp_path, small_profile, tamper):
        """Columns that fail the program's validation, register counts that
        are not the architectural ones, a trace ``sid`` the program does not
        have, and a pickled member are each caught at load: a miss, not a
        program or trace served from bad bytes."""
        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        key = "c3" * 32
        store.put(key, program, compiled)
        assert store.get(key) is not None
        path = store._path(key)
        data = dict(np.load(path))
        if tamper == "offsets-not-rising":
            offsets = data["src_offsets"]
            assert offsets[2] < offsets[-1]
            offsets[1] = offsets[-1]
        elif tamper == "register-outside-space":
            data["dest_regs"][0] = NUM_REGISTERS
        elif tamper == "register-counts":
            meta = json.loads(data["meta"].tobytes())
            meta["num_int"] = 32
            data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        elif tamper == "block-start-short":
            data["block_start"][-1] -= 1
        elif tamper == "edge-to-unknown-block":
            data["edge_dst"][0] = program.num_blocks
        elif tamper == "out-probabilities":
            data["edge_probability"][0] *= 0.5
        elif tamper == "sid-past-end":
            data["sid"][0] = program.num_instructions
        else:
            data["sid"] = data["sid"].astype(object)
        write_artifact(path, data)
        assert store.get(key) is None
        assert store.stats() == {"hits": 1, "misses": 1, "stores": 1}

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
        from repro.engine.artifacts import TRACE_ARTIFACT_VERSION

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        key = "5a" * 32
        path = store._path(key)
        path.parent.mkdir(parents=True)
        meta, payload = pack(program, compiled)
        payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        payload["artifact_version"] = np.array([TRACE_ARTIFACT_VERSION], dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        loaded = store.get(key)
        assert loaded is not None
        loaded_program, loaded_trace = loaded
        assert traces_equal(loaded_trace, compiled)
        assert program_columns(loaded_program) == program_columns(program)
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 0}

    def test_written_artifact_is_a_standard_npz(self, tmp_path, small_profile):
        """``put`` writes the ``np.savez`` member layout, deflate-compressed:
        the program's columns, the trace's dynamic columns, meta and version."""
        import zipfile

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        key = "6b" * 32
        store.put(key, program, compiled)
        with zipfile.ZipFile(store._path(key)) as archive:
            members = archive.infolist()
        assert sorted(member.filename for member in members) == sorted(
            f"{name}.npy" for name in (*LAYOUT_DTYPES, "meta", "artifact_version")
        )
        assert {member.compress_type for member in members} == {zipfile.ZIP_DEFLATED}
        with np.load(store._path(key)) as data:
            for name, dtype in LAYOUT_DTYPES.items():
                assert data[name].dtype == dtype
            for name in ("sid", "address", "mispredicted"):
                assert np.array_equal(data[name], getattr(compiled, name))
            for name in Program.COLUMNS:
                assert np.array_equal(data[name], getattr(program, name))

    def test_loaded_program_supports_compiler_passes(self, tmp_path, small_profile):
        """Annotating a loaded program must reproduce the fresh-program pass."""
        from repro.partition.vc_partitioner import VirtualClusterPartitioner

        store = TraceArtifactStore(tmp_path / "traces")
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        store.put("11" * 32, program, compiled)
        loaded_program, loaded_trace = store.get("11" * 32)
        compiled.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
        loaded_trace.annotate_from(
            VirtualClusterPartitioner(2).annotate_program(loaded_program).columns
        )
        assert np.array_equal(loaded_trace.vc_id, compiled.vc_id)
        assert np.array_equal(loaded_trace.chain_leader, compiled.chain_leader)


class TestLoadingNeverUnpickles:
    """Artifacts and shared-memory segments hold numeric columns only: with
    pickle disabled, both still serve a program whose regions and
    compile-time passes equal a freshly generated one's."""

    def test_artifact_and_segment_loads_need_no_pickle(self, tmp_path, small_profile, monkeypatch):
        from repro.engine import shm

        generator = WorkloadGenerator(small_profile)
        program, compiled = generator.generate_compiled_trace(500, phase=1)
        store = TraceArtifactStore(tmp_path / "traces")
        store.put("7c" * 32, program, compiled)
        segment = None
        if shm.shared_memory_available():
            segment = shm.SharedTraceSegment.create("7c", program, compiled)

        def refuse(*args, **kwargs):
            raise AssertionError("a trace load unpickled")

        fresh = generator.generate_program(1)

        def regions(prog):
            return [(region.block_ids, region.sids) for region in program_regions(prog, 128)]

        def columns(name, prog):
            report = build_partitioner(name, {}, 2, 2, 128).annotate_program(prog)
            return [column.tolist() for column in report.columns]

        def check(loaded):
            loaded_program, loaded_trace = loaded
            assert traces_equal(loaded_trace, compiled)
            assert regions(loaded_program) == regions(fresh)
            for name in ("OB", "RHOP", "VC"):
                assert columns(name, loaded_program) == columns(name, fresh), name

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        check(store.get("7c" * 32))
        if segment is not None:
            # The attached program's columns view the block: check them
            # before the mapping closes.
            attached = shm.SharedTraceSegment.attach(segment.name)
            try:
                check(attached.load())
            finally:
                attached.close()
                segment.close()
                segment.unlink()


class TestEngineIntegration:
    def test_single_job_batch_populates_and_reuses_artifacts(self, tmp_path, small_profile):
        root = tmp_path / "traces"
        job = make_job(small_profile)
        first = execute_one(job, trace_root=str(root))
        store = trace_store_for(str(root))
        assert store.stores == 1
        # A fresh process would miss the memo and load from disk; emulate it.
        _TRACE_MEMO.clear()
        second = execute_one(job, trace_root=str(root))
        assert store.hits >= 1
        assert first == second

    @pytest.mark.parametrize(
        "tamper",
        ["offset-past-end", "offsets-decrease", "negative-dest", "negative-sid", "sid-past-end"],
    )
    def test_tampered_artifact_is_a_miss_and_regenerated(self, tmp_path, small_profile, tamper):
        """Malformed program columns fail the program's validation, and a
        trace row naming no instruction fails the gather: the store counts a
        miss and the job regenerates the untampered trace."""
        root = tmp_path / "traces"
        job = make_job(small_profile)
        expected = execute_one(job, trace_root=str(root))
        store = trace_store_for(str(root))
        path = store._path(job.trace_key())
        data = dict(np.load(path))
        offsets = data["src_offsets"]
        if tamper == "offset-past-end":
            offsets[-1] += 1
        elif tamper == "offsets-decrease":
            assert offsets[2] < offsets[-1]
            offsets[1] = offsets[-1]
        elif tamper == "negative-dest":
            data["dest_regs"][0] = -1
        elif tamper == "sid-past-end":
            data["sid"][0] = len(data["opclass"])
        else:
            data["sid"][0] = -1
        write_artifact(path, data)
        _TRACE_MEMO.clear()
        misses = store.misses
        assert execute_one(job, trace_root=str(root)) == expected
        assert store.misses == misses + 1
        assert store.get(job.trace_key()) is not None  # the regenerated trace was stored

    def test_memo_entries_do_not_leak_across_trace_roots(self, tmp_path, small_profile):
        """A no-store memo entry must not satisfy a later artifact-enabled run."""
        root = tmp_path / "traces"
        job = make_job(small_profile)
        without_store = execute_one(job, trace_root=None)
        with_store = execute_one(job, trace_root=str(root))
        assert trace_store_for(str(root)).stores == 1  # artifact actually written
        assert without_store == with_store

    def test_results_identical_with_and_without_artifacts(self, tmp_path, small_profile):
        with_artifacts = execute_one(
            make_job(small_profile), trace_root=str(tmp_path / "traces")
        )
        _TRACE_MEMO.clear()
        without = execute_one(make_job(small_profile), trace_root=None)
        assert with_artifacts == without

    def test_configurations_share_one_artifact(self, tmp_path, small_profile):
        root = tmp_path / "traces"
        for name in ("OP", "VC", "one-cluster"):
            _TRACE_MEMO.clear()
            execute_one(
                make_job(small_profile, configuration=TABLE3_CONFIGURATIONS[name]),
                trace_root=str(root),
            )
        artifacts = sorted(root.glob("*/*.npz"))
        assert len(artifacts) == 1  # same phase, same trace inputs -> one file

    def test_auto_trace_root_follows_cache(self, tmp_path):
        """``trace_root=None`` means ``<cache>/traces`` with a cache and no
        artifacts without one; an explicit path always wins."""
        cache = ResultCache(tmp_path / "cache")
        follows = str(tmp_path / "cache" / "traces")
        assert ParallelRunner(max_workers=1, cache=cache).trace_root == follows
        assert ParallelRunner(max_workers=1, cache=cache, trace_root=None).trace_root == follows
        assert ParallelRunner(max_workers=1, cache=None).trace_root is None
        assert ParallelRunner(max_workers=1, cache=None).trace_store is None
        explicit = ParallelRunner(max_workers=1, cache=None, trace_root=tmp_path / "t")
        assert explicit.trace_root == str(tmp_path / "t")
        overridden = ParallelRunner(max_workers=1, cache=cache, trace_root=tmp_path / "t")
        assert overridden.trace_root == str(tmp_path / "t")

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
