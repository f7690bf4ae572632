"""The compiled-trace IR: derived columns, the policy view, validation.

Pinned here (the golden-metrics suite pins the kernels' exact output and
``tests/test_annotation_digests.py`` the generated streams):

* **derived columns** -- queue, latency and the memory/branch flags are
  the opcode tables' values, and the CSR register columns unpack to the
  per-µop tuples;
* **the policy view** -- :class:`CompiledUopView` reads every µop fact of
  the row it points at, and rows of one ``sid`` agree on the static ones;
* **dependence plan** -- the array-native last-writer plan equals a plain
  program-order reference loop (property-tested);
* **annotation refresh** -- ``annotate_from`` gathers a pass's sid-indexed
  columns into the per-µop columns;
* **gather** -- a trace's static columns are its program's rows, gathered
  by sid into well-formed CSR pairs (property-tested);
* **validation** -- the constructor rejects dynamic columns of the wrong
  shape and sids outside the program, and the processor rejects anything
  but a :class:`CompiledTrace`;
* **engine equivalence** -- a single-job ``execute_batch`` equals a by-hand
  simulation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cache import MemoryHierarchy
from repro.cluster.config import ClusterConfig
from repro.cluster.processor import ClusteredProcessor, simulate_trace
from repro.engine.job import SimulationJob
from repro.engine.parallel import execute_batch
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.steering.one_cluster import OneClusterSteering
from repro.uops.compiled import (
    NO_ANNOTATION,
    CompiledTrace,
    CompiledUopView,
    empty_annotations,
)
from repro.uops.opcodes import UopClass, is_floating_point, latency_of, queue_of
from repro.uops.registers import NUM_INT_REGISTERS
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import make_instruction, make_program, make_trace


def fast_config(**overrides):
    defaults = dict(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestDerivedColumns:
    def test_derived_columns_match_opcode_tables(self, small_trace):
        _, compiled = small_trace
        for i, opclass in enumerate(compiled.opclass.tolist()):
            opclass = UopClass(opclass)
            assert compiled.queue_kinds()[i] == queue_of(opclass)
            assert compiled.latency_list()[i] == latency_of(opclass)
            assert compiled.is_memory_list()[i] == (opclass in (UopClass.LOAD, UopClass.STORE))
            assert compiled.is_load_list()[i] == (opclass == UopClass.LOAD)
            assert compiled.is_branch_list()[i] == (opclass == UopClass.BRANCH)

    @pytest.mark.parametrize(
        "config",
        [ClusterConfig(), ClusterConfig(l1_size_kb=1, l1_assoc=2, l2_size_kb=8, l2_assoc=2)],
    )
    def test_kernel_issue_columns_match_reference_loops(self, small_trace, config):
        """The vectorized kernel's per-trace columns equal plain loops over
        the trace: the memory-µop prefix count, the non-memory issue delay
        and each memory µop's (latency, L1 set, L1 tag, L2 set, L2 tag)."""
        _, compiled = small_trace
        memory = MemoryHierarchy.from_config(config)
        rows = compiled.cache_rows(memory.geometry)
        running = 0
        for i, (is_mem, latency, address) in enumerate(
            zip(compiled.is_memory_list(), compiled.latency_list(), compiled.address_list())
        ):
            assert compiled.memory_before()[i] == running
            running += is_mem
            if is_mem:
                assert compiled.exec_latency_list()[i] == 0
                assert rows[i] == (
                    latency, *memory.l1._locate(address), *memory.l2._locate(address)
                )
            else:
                assert compiled.exec_latency_list()[i] == max(latency, 1)
                assert rows[i] is None
        assert compiled.memory_before()[-1] == running > 0

    def test_unique_srcs_preserve_first_occurrence_order(self):
        inst = make_instruction(UopClass.INT_ALU, dests=(5,), srcs=(3, 7, 3, 1, 7))
        compiled = make_trace([inst])
        assert compiled.src_tuples()[0] == (3, 7, 3, 1, 7)
        assert compiled.unique_src_tuples()[0] == (3, 7, 1)

    def test_dest_kind_counts(self, small_trace):
        program, compiled = small_trace
        for i, dests in enumerate(compiled.dest_tuples()):
            expected_fp = sum(1 for reg in dests if reg >= NUM_INT_REGISTERS)
            assert compiled.dest_kind_counts()[i] == (len(dests) - expected_fp, expected_fp)

    def test_view_mirrors_trace_rows(self, small_profile):
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(500)
        report = VirtualClusterPartitioner(2).annotate_program(program)
        compiled.annotate_from(report.columns)
        view = CompiledUopView(compiled)
        for i, sid in enumerate(compiled.sid.tolist()):
            view.index = i
            opclass = UopClass(program.opclass[sid])
            assert view.sid == sid
            assert view.opclass == opclass
            assert view.srcs == program.src_tuples()[sid]
            assert view.dests == program.dest_tuples()[sid]
            assert view.latency == program.latency_list()[sid]
            assert view.is_memory == (opclass in (UopClass.LOAD, UopClass.STORE))
            assert view.is_load == (opclass == UopClass.LOAD)
            assert view.is_store == (opclass == UopClass.STORE)
            assert view.is_branch == (opclass == UopClass.BRANCH)
            assert view.queue == queue_of(opclass)
            assert view.is_fp == is_floating_point(opclass)
            vc_id, leader, static_cluster = (column[sid].item() for column in report.columns)
            assert view.vc_id == (None if vc_id == NO_ANNOTATION else vc_id)
            assert view.chain_leader == leader
            assert view.static_cluster == (
                None if static_cluster == NO_ANNOTATION else static_cluster
            )
            assert view.address == compiled.address[i]
            assert view.mispredicted == compiled.mispredicted[i]

    def test_view_sid_and_opclass_are_plain_values(self, small_trace):
        """``.sid`` and ``.opclass`` read hoisted lists, like every other view
        property: a Python ``int`` and a ``UopClass`` member, not numpy scalars."""
        _, compiled = small_trace
        view = CompiledUopView(compiled)
        for i in (0, len(compiled) - 1):
            view.index = i
            assert type(view.sid) is int and view.sid == int(compiled.sid[i])
            assert view.opclass is UopClass(int(compiled.opclass[i]))

    def test_rows_of_one_sid_agree_on_static_facts(self, small_profile):
        """``.sid`` is a sound key for per-instruction policy state: every
        dynamic instance of one static instruction reads the same static
        facts and annotations through the view."""
        program, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(800)
        compiled.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
        view = CompiledUopView(compiled)
        static_facts = (
            "opclass", "srcs", "dests", "queue", "latency", "is_memory", "is_load",
            "is_store", "is_branch", "is_fp", "vc_id", "chain_leader", "static_cluster",
        )
        first_seen = {}
        for i in range(len(compiled)):
            view.index = i
            facts = tuple(getattr(view, attribute) for attribute in static_facts)
            assert first_seen.setdefault(view.sid, facts) == facts, view.sid
        assert len(first_seen) < len(compiled)  # some instruction ran twice


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
    return make_trace([
        make_instruction(UopClass.INT_ALU, written, read)
        for read, written in zip(srcs, dests)
    ])


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
        # The fused per-µop rows the vectorized kernel dispatches from carry
        # the same dependence row, and the definition id of a single-def µop
        # (-1 for none, -2 for several).
        meta = compiled.dispatch_meta()
        assert [row[5] for row in meta] == deps
        assert [row[6] for row in meta] == [
            lo if hi - lo == 1 else (-1 if hi == lo else -2)
            for lo, hi in zip(dest_offsets, dest_offsets[1:])
        ]
        assert plan.num_deps == sum(map(len, deps))

    def test_double_write_and_self_read(self):
        """A µop reading its own destination reads the *previous* writer, and
        the later of two writes of one register by one µop wins."""
        srcs = [(), (1,), (1, 1, 2)]
        dests = [(1,), (1, 1), (1,)]
        plan = _operand_trace(srcs, dests).dependency_plan()
        assert plan.deps == [(), (0,), (2,)]


class TestGather:
    """A trace is its program's rows: every static column is the program's,
    gathered by sid, and the gathered CSR pairs are well-formed."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_trace_rows_are_program_rows(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        opclasses = st.sampled_from(list(UopClass))
        registers = st.lists(st.integers(0, 127), max_size=4).map(tuple)
        instructions = [
            make_instruction(data.draw(opclasses), data.draw(registers), data.draw(registers))
            for _ in range(n)
        ]
        program = make_program(instructions[: n // 2], instructions[n // 2 :])
        sids = data.draw(st.lists(st.integers(0, n - 1), max_size=30), label="sids")
        trace = CompiledTrace(program, sids, [0] * len(sids), [False] * len(sids))
        for kind in ("src", "dest"):
            offsets, regs = getattr(trace, f"{kind}_offsets"), getattr(trace, f"{kind}_regs")
            assert len(offsets) == len(sids) + 1 and offsets[0] == 0
            assert offsets[-1] == len(regs) and (np.diff(offsets) >= 0).all()
        assert trace.src_tuples() == [program.src_tuples()[sid] for sid in sids]
        assert trace.dest_tuples() == [program.dest_tuples()[sid] for sid in sids]
        assert trace.block.tolist() == [int(program.block[sid]) for sid in sids]
        assert trace.opclass.tolist() == [int(program.opclass[sid]) for sid in sids]

    def test_make_trace_reads_none_as_unannotated(self):
        instructions = [make_instruction(UopClass.INT_ALU) for _ in range(3)]
        trace = make_trace(
            instructions,
            vc_ids=[None, 1, 0],
            chain_leaders=[True, False, True],
            static_clusters=[0, None, 1],
        )
        assert trace.vc_id_list() == [None, 1, 0]
        assert trace.chain_leader_list() == [True, False, True]
        assert trace.static_cluster_list() == [0, None, 1]
        assert trace.sid.tolist() == [0, 1, 2]


class TestAnnotationRefresh:
    def test_annotate_from_gathers_pass_columns(self, small_profile):
        generator = WorkloadGenerator(small_profile)
        program, compiled = generator.generate_compiled_trace(500, phase=0)
        assert all(v == NO_ANNOTATION for v in compiled.vc_id.tolist())
        assert not compiled.chain_leader.any() and (compiled.static_cluster == -1).all()
        report = VirtualClusterPartitioner(2).annotate_program(program)
        compiled.annotate_from(report.columns)
        for i, sid in enumerate(compiled.sid.tolist()):
            assert compiled.vc_id_list()[i] == report.vc_id[sid]
            assert compiled.chain_leader_list()[i] == report.chain_leader[sid]
            assert compiled.static_cluster_list()[i] is None
        compiled.install_annotations(empty_annotations(len(compiled)))
        assert not np.any(compiled.chain_leader)
        assert all(v is None for v in compiled.vc_id_list())

    def test_empty_annotations_have_the_trace_dtypes(self, small_trace):
        _, compiled = small_trace
        for name, column in zip(compiled.ANNOTATION_FIELDS, empty_annotations(3)):
            assert column.dtype == getattr(compiled, name).dtype
            assert column.tolist() == ([False] * 3 if name == "chain_leader" else [-1] * 3)


class TestValidation:
    """The constructor rejects what the program's validation cannot: dynamic
    columns of the wrong shape, and sids the program does not have.  (The
    program's own columns are checked when it is built; see
    ``tests/test_program.py``.)"""

    @staticmethod
    def _columns(**changes):
        columns = {
            "sid": np.array([0, 1]),
            "address": np.array([0, 64]),
            "mispredicted": np.array([False, True]),
        }
        columns.update(changes)
        return columns

    @staticmethod
    def _build(**changes):
        program = make_program([
            make_instruction(UopClass.INT_ALU, dests=(3,), srcs=(1, 2)),
            make_instruction(UopClass.INT_ALU, dests=(4,), srcs=(3,)),
        ])
        return CompiledTrace(program, **TestValidation._columns(**changes))

    def test_well_formed_columns_build(self):
        assert len(self._build()) == 2

    def test_empty_trace_builds(self):
        trace = self._build(sid=np.array([], dtype=np.int64), address=[], mispredicted=[])
        assert len(trace) == 0 and trace.src_offsets.tolist() == [0]

    @pytest.mark.parametrize("sid", [-1, 2])
    def test_sid_outside_the_program_rejected(self, sid):
        with pytest.raises(ValueError, match="'sid' names no instruction"):
            self._build(sid=np.array([0, sid]))

    @pytest.mark.parametrize("column", ["address", "mispredicted"])
    def test_column_of_wrong_length_rejected(self, column):
        short = self._columns()[column][:1]
        with pytest.raises(ValueError, match=column):
            self._build(**{column: short})

    @pytest.mark.parametrize("column", ["sid", "address", "mispredicted"])
    def test_column_of_wrong_rank_rejected(self, column):
        square = self._columns()[column].reshape(1, 2)
        with pytest.raises(ValueError, match=column):
            self._build(**{column: square})

    def test_processor_rejects_anything_but_a_compiled_trace(self):
        with pytest.raises(TypeError, match="CompiledTrace"):
            simulate_trace([], OneClusterSteering(), fast_config())

    @pytest.mark.parametrize("entry_point", ["bind", "run"])
    def test_bind_and_run_reject_a_list_of_instructions(self, entry_point):
        instructions = [make_instruction(UopClass.INT_ALU, dests=(3,), srcs=(1,))]
        processor = ClusteredProcessor(fast_config(), OneClusterSteering())
        with pytest.raises(TypeError, match="CompiledTrace, got list"):
            getattr(processor, entry_point)(instructions)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(TABLE3_CONFIGURATIONS))
    def test_single_job_batch_matches_direct_simulation(self, name, small_profile):
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
        engine_dump = execute_batch([job])["dumps"][0]
        generator = WorkloadGenerator(small_profile)
        program, trace = generator.generate_compiled_trace(700, phase=0)
        partitioner = configuration.make_partitioner(2, 2, 128)
        if partitioner is not None:
            trace.annotate_from(partitioner.annotate_program(program).columns)
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
        # They are still there, in order, once ports free up (the only
        # ready µops of any queue).
        assert queues.total_ready == 2
        assert queues.pop_ready(0, IssueQueueKind.INT) == "load-1"
        assert queues.pop_ready(0, IssueQueueKind.INT) == "load-2"

    def test_load_port_pressure_completes_under_any_port_count(self, small_profile):
        """Saturated or idle ports, every µop still commits.

        (Cycle counts are *not* monotone in the port count: issuing loads
        earlier legally perturbs cache interleaving and steering decisions.)
        """
        generator = WorkloadGenerator(small_profile)
        _, compiled = generator.generate_compiled_trace(600, phase=0)
        from repro.steering.occupancy import OccupancyAwareSteering

        for ports in (1, 2, 8):
            metrics = simulate_trace(
                compiled, OccupancyAwareSteering(), fast_config(l1_read_ports=ports)
            )
            assert metrics.committed_uops == len(compiled)
