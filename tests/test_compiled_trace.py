"""The compiled-trace IR: losslessness, equivalence with the µop-object path.

Three guarantees are pinned here (plus the golden-metrics suite, which pins
the compiled kernel against the pre-compilation simulator's exact output):

* **round trip** -- ``compile_trace(trace).materialize()`` rebuilds an
  equivalent ``DynamicUop`` list, and re-compiling it reproduces the same
  arrays (property-tested over random traces);
* **direct emission** -- ``TraceGenerator.generate_compiled`` produces
  array-for-array the same trace as compiling ``generate``'s object list;
* **kernel equivalence** -- for every Table 3 configuration, simulating the
  legacy ``DynamicUop`` list and the pre-compiled trace yields identical
  metrics on every counter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.processor import simulate_trace
from repro.engine.job import SimulationJob
from repro.engine.parallel import execute_job
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.uops.compiled import (
    NO_ANNOTATION,
    CompiledTrace,
    CompiledUopView,
    compile_trace,
)
from repro.uops.opcodes import UopClass, latency_of, queue_of
from repro.uops.registers import DEFAULT_REGISTER_SPACE
from repro.uops.uop import DynamicUop, StaticInstruction
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for


def fast_config(**overrides):
    defaults = dict(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# -- random µop traces for the property tests -----------------------------------

_CLASSES = [c for c in UopClass if c != UopClass.COPY]  # copies are hardware-inserted


@st.composite
def uop_traces(draw):
    """A short random trace over a random static instruction pool."""
    num_static = draw(st.integers(min_value=1, max_value=12))
    statics = []
    for sid in range(num_static):
        opclass = draw(st.sampled_from(_CLASSES))
        dests = draw(st.lists(st.integers(0, 127), max_size=2))
        srcs = draw(st.lists(st.integers(0, 127), max_size=4))
        inst = StaticInstruction(sid, opclass, dests, srcs, block=draw(st.integers(0, 3)))
        if draw(st.booleans()):
            inst.vc_id = draw(st.integers(0, 3))
            inst.chain_leader = draw(st.booleans())
        if draw(st.booleans()):
            inst.static_cluster = draw(st.integers(0, 3))
        statics.append(inst)
    length = draw(st.integers(min_value=1, max_value=40))
    trace = []
    for seq in range(length):
        inst = statics[draw(st.integers(0, num_static - 1))]
        trace.append(
            DynamicUop(
                seq,
                inst,
                address=draw(st.integers(0, 1 << 20)) if inst.is_memory else 0,
                mispredicted=draw(st.booleans()) if inst.is_branch else False,
            )
        )
    return trace


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(trace=uop_traces())
    def test_compile_materialize_compile_is_identity(self, trace):
        """compile -> materialize -> compile reproduces the same arrays."""
        compiled = compile_trace(trace)
        rebuilt = compile_trace(compiled.materialize())
        assert rebuilt.equals(compiled)

    @settings(max_examples=30, deadline=None)
    @given(trace=uop_traces())
    def test_materialized_uops_match_originals(self, trace):
        materialized = compile_trace(trace).materialize()
        assert len(materialized) == len(trace)
        for original, copy in zip(trace, materialized):
            assert copy.seq == original.seq
            assert copy.opclass == original.opclass
            assert copy.srcs == original.srcs
            assert copy.dests == original.dests
            assert copy.address == original.address
            assert copy.mispredicted == original.mispredicted
            assert copy.vc_id == original.vc_id
            assert copy.chain_leader == original.chain_leader
            assert copy.static_cluster == original.static_cluster

    def test_materialize_shares_statics_per_sid(self, small_trace):
        _, trace = small_trace
        materialized = compile_trace(trace).materialize()
        by_sid = {}
        for uop in materialized:
            existing = by_sid.setdefault(uop.static.sid, uop.static)
            assert uop.static is existing

    def test_save_load_round_trip(self, tmp_path, small_trace):
        _, trace = small_trace
        compiled = compile_trace(trace)
        path = tmp_path / "trace.npz"
        compiled.save(path)
        assert CompiledTrace.load(path).equals(compiled)


class TestDerivedColumns:
    def test_derived_columns_match_opcode_tables(self, small_trace):
        _, trace = small_trace
        compiled = compile_trace(trace)
        for i, uop in enumerate(trace):
            assert compiled.queue_kinds()[i] == queue_of(uop.opclass)
            assert compiled.latency_list()[i] == latency_of(uop.opclass)
            assert compiled.is_memory_list()[i] == uop.is_memory
            assert compiled.is_load_list()[i] == uop.is_load
            assert compiled.is_branch_list()[i] == uop.is_branch

    def test_unique_srcs_preserve_first_occurrence_order(self):
        inst = StaticInstruction(0, UopClass.INT_ALU, dests=(5,), srcs=(3, 7, 3, 1, 7))
        compiled = compile_trace([DynamicUop(0, inst)])
        assert compiled.src_tuples()[0] == (3, 7, 3, 1, 7)
        assert compiled.unique_src_tuples()[0] == (3, 7, 1)

    def test_dest_kind_counts(self, small_trace):
        program, trace = small_trace
        compiled = compile_trace(trace)
        space = program.register_space
        for i, uop in enumerate(trace):
            expected_fp = sum(1 for reg in uop.dests if reg >= space.num_int)
            assert compiled.dest_kind_counts(space)[i] == (
                len(uop.dests) - expected_fp,
                expected_fp,
            )

    def test_view_mirrors_dynamic_uops(self, small_trace):
        _, trace = small_trace
        view = CompiledUopView(compile_trace(trace))
        for i, uop in enumerate(trace):
            view.index = i
            for attribute in (
                "seq", "opclass", "srcs", "dests", "queue", "latency", "is_memory",
                "is_load", "is_store", "is_branch", "is_fp", "address", "mispredicted",
                "vc_id", "chain_leader", "static_cluster",
            ):
                assert getattr(view, attribute) == getattr(uop, attribute), attribute
            # The static backref is rebuilt per sid and shared across the
            # dynamic occurrences of one instruction, like on DynamicUop.
            assert view.sid == uop.static.sid
            assert view.static.srcs == uop.static.srcs
            assert view.static is not None and view.static.sid == uop.static.sid

    def test_view_static_shared_per_sid(self, small_trace):
        _, trace = small_trace
        view = CompiledUopView(compile_trace(trace))
        seen = {}
        for i in range(len(trace)):
            view.index = i
            static = view.static
            assert seen.setdefault(static.sid, static) is static


def _reference_dedup(row):
    """First-occurrence deduplication, written as the plain loop."""
    seen, out = set(), []
    for reg in row:
        if reg not in seen:
            seen.add(reg)
            out.append(reg)
    return tuple(out)


def _reference_plan(srcs, dests):
    """Dependence rows by a program-order walk keeping each register's last writer.

    Definition ids number the destination operands in trace order; a
    µop's sources read before its own writes, and of two writes of one
    register by one µop the later wins.  Live-in sources are dropped.
    """
    last = {}
    deps, def_uop, def_reg, dest_offsets = [], [], [], [0]
    for i, (row, written) in enumerate(zip(srcs, dests)):
        deps.append(
            tuple(last[reg] for reg in _reference_dedup(row) if reg in last)
        )
        for reg in written:
            last[reg] = len(def_uop)
            def_uop.append(i)
            def_reg.append(reg)
        dest_offsets.append(len(def_uop))
    return deps, def_uop, def_reg, dest_offsets


@st.composite
def operand_rows(draw):
    """Per-µop (srcs, dests) over a few registers: duplicate sources, double
    writes of one register, live-ins and empty rows all occur."""
    n = draw(st.integers(min_value=0, max_value=40))
    regs = st.integers(min_value=0, max_value=draw(st.integers(1, 9)))
    srcs = [tuple(draw(st.lists(regs, max_size=5))) for _ in range(n)]
    dests = [tuple(draw(st.lists(regs, max_size=3))) for _ in range(n)]
    return srcs, dests


def _operand_trace(srcs, dests):
    n = len(srcs)
    return CompiledTrace.from_columns(
        sids=list(range(n)),
        opclasses=[int(UopClass.INT_ALU)] * n,
        srcs=srcs,
        dests=dests,
        blocks=[0] * n,
        addresses=[0] * n,
        mispredicted=[False] * n,
        vc_ids=[NO_ANNOTATION] * n,
        chain_leaders=[False] * n,
        static_clusters=[NO_ANNOTATION] * n,
    )


class TestDependencePlan:
    """The array-native plan and dedup equal their plain reference loops."""

    @settings(max_examples=200, deadline=None)
    @given(rows=operand_rows())
    def test_plan_and_dedup_match_reference_loop(self, rows):
        srcs, dests = rows
        compiled = _operand_trace(srcs, dests)
        deps, def_uop, def_reg, dest_offsets = _reference_plan(srcs, dests)
        plan = compiled.dependency_plan()
        assert plan.deps == deps
        assert plan.def_uop == def_uop
        assert plan.def_reg == def_reg
        assert plan.dest_offsets == dest_offsets
        assert compiled.unique_src_tuples() == [_reference_dedup(row) for row in srcs]
        arrays = compiled.dispatch_meta_arrays(DEFAULT_REGISTER_SPACE)
        assert [
            tuple(arrays.dep_defs[arrays.dep_offsets[i]:arrays.dep_offsets[i + 1]].tolist())
            for i in range(len(srcs))
        ] == deps
        assert arrays.def_uop.tolist() == def_uop

    def test_double_write_and_self_read(self):
        """A µop reading its own destination reads the *previous* writer, and
        the later of two writes of one register by one µop wins."""
        srcs = [(), (1,), (1, 1, 2)]
        dests = [(1,), (1, 1), (1,)]
        plan = _operand_trace(srcs, dests).dependency_plan()
        assert plan.deps == [(), (0,), (2,)]


class TestAnnotationRefresh:
    def test_annotate_from_scatters_program_annotations(self, small_profile):
        generator = WorkloadGenerator(small_profile)
        program, compiled = generator.generate_compiled_trace(500, phase=0)
        assert all(v == NO_ANNOTATION for v in compiled.vc_id.tolist())
        VirtualClusterPartitioner(2).annotate_program(program)
        compiled.annotate_from(program)
        by_sid = {inst.sid: inst for inst in program.all_instructions()}
        for i, sid in enumerate(compiled.sid.tolist()):
            inst = by_sid[sid]
            assert compiled.vc_id_list()[i] == inst.vc_id
            assert compiled.chain_leader_list()[i] == inst.chain_leader
            assert compiled.static_cluster_list()[i] == inst.static_cluster
        program.clear_annotations()
        compiled.annotate_from(program)
        assert not np.any(compiled.chain_leader)
        assert all(v is None for v in compiled.vc_id_list())


class TestDirectEmission:
    @pytest.mark.parametrize("trace_name,phase", [("164.gzip-1", 0), ("178.galgel", 1)])
    def test_generate_compiled_equals_compiled_generate(self, trace_name, phase):
        """Both trace forms come from one seeded walk: identical streams."""
        generator = WorkloadGenerator(profile_for(trace_name))
        _, object_trace = generator.generate_trace(1500, phase=phase)
        _, compiled = generator.generate_compiled_trace(1500, phase=phase)
        assert compiled.equals(compile_trace(object_trace))


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(TABLE3_CONFIGURATIONS))
    def test_list_and_compiled_paths_identical(self, name, small_profile):
        """Every Table 3 configuration: µop-object path == compiled path."""
        configuration = TABLE3_CONFIGURATIONS[name]
        generator = WorkloadGenerator(small_profile)
        program, trace = generator.generate_trace(800, phase=0)
        partitioner = configuration.make_partitioner(2, 2, 128)
        if partitioner is not None:
            partitioner.annotate_program(program)
        else:
            program.clear_annotations()
        compiled = compile_trace(trace)
        policy_a = configuration.make_policy(2, 2)
        policy_b = configuration.make_policy(2, 2)
        from_list = simulate_trace(trace, policy_a, fast_config())
        from_compiled = simulate_trace(compiled, policy_b, fast_config())
        assert from_list == from_compiled

    @pytest.mark.parametrize("name", sorted(TABLE3_CONFIGURATIONS))
    def test_execute_job_matches_direct_simulation(self, name, small_profile):
        """The engine's artifact-backed path equals a by-hand simulation."""
        configuration = TABLE3_CONFIGURATIONS[name]
        job = SimulationJob(
            profile=small_profile,
            phase=0,
            configuration=configuration,
            trace_length=700,
            region_size=128,
            num_clusters=2,
            num_virtual_clusters=2,
        )
        engine_dump = execute_job(job)
        generator = WorkloadGenerator(small_profile)
        program, trace = generator.generate_trace(700, phase=0)
        partitioner = configuration.make_partitioner(2, 2, 128)
        if partitioner is not None:
            partitioner.annotate_program(program)
        else:
            program.clear_annotations()
        direct = simulate_trace(trace, configuration.make_policy(2, 2), job.machine_config())
        assert engine_dump == direct.to_dict()


class TestIssueQueueLoadHeaps:
    """The L1-read-port fix: ready loads stay put when ports are saturated."""

    def _queues(self):
        from repro.cluster.issue_queue import IssueQueues

        return IssueQueues(ClusterConfig(num_clusters=2))

    def test_pop_merges_load_and_nonload_heaps_by_seq(self):
        from repro.uops.opcodes import IssueQueueKind

        queues = self._queues()
        queues.push_ready(0, IssueQueueKind.INT, 2, "load-2", is_load=True)
        queues.push_ready(0, IssueQueueKind.INT, 1, "alu-1")
        queues.push_ready(0, IssueQueueKind.INT, 3, "alu-3")
        assert queues.ready_count(0, IssueQueueKind.INT) == 3
        assert queues.total_ready == 3
        assert queues.pop_ready(0, IssueQueueKind.INT) == "alu-1"
        assert queues.pop_ready(0, IssueQueueKind.INT) == "load-2"
        assert queues.pop_ready(0, IssueQueueKind.INT) == "alu-3"
        assert queues.pop_ready(0, IssueQueueKind.INT) is None
        assert queues.total_ready == 0

    def test_saturated_ports_skip_loads_without_popping_them(self):
        from repro.uops.opcodes import IssueQueueKind

        queues = self._queues()
        queues.push_ready(0, IssueQueueKind.INT, 1, "load-1", is_load=True)
        queues.push_ready(0, IssueQueueKind.INT, 2, "load-2", is_load=True)
        queues.push_ready(0, IssueQueueKind.INT, 5, "alu-5")
        # Ports saturated: the two older ready loads are not even touched.
        assert queues.pop_ready(0, IssueQueueKind.INT, allow_loads=False) == "alu-5"
        assert queues.pop_ready(0, IssueQueueKind.INT, allow_loads=False) is None
        # They are still there, in order, once ports free up.
        assert queues.ready_count(0, IssueQueueKind.INT) == 2
        assert queues.pop_ready(0, IssueQueueKind.INT) == "load-1"
        assert queues.pop_ready(0, IssueQueueKind.INT) == "load-2"

    def test_load_port_pressure_completes_under_any_port_count(self, small_profile):
        """Saturated or idle ports, every µop still commits on both paths.

        (Cycle counts are *not* monotone in the port count: issuing loads
        earlier legally perturbs cache interleaving and steering decisions.)
        """
        generator = WorkloadGenerator(small_profile)
        _, trace = generator.generate_trace(600, phase=0)
        compiled = compile_trace(trace)
        from repro.steering.occupancy import OccupancyAwareSteering

        for ports in (1, 2, 8):
            from_list = simulate_trace(
                trace, OccupancyAwareSteering(), fast_config(l1_read_ports=ports)
            )
            from_compiled = simulate_trace(
                compiled, OccupancyAwareSteering(), fast_config(l1_read_ports=ports)
            )
            assert from_list == from_compiled
            assert from_compiled.committed_uops == len(trace)
