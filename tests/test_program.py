"""Unit tests for the compiler IR (repro.program)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.program.regions import form_regions
from repro.program.trace import AddressModel, TraceGenerator
from repro.uops.compiled import CompiledTrace
from repro.uops.opcodes import UopClass
from tests.conftest import (
    block_ddg,
    edge_latency,
    leaves,
    make_instruction,
    make_program,
    predecessors,
    traces_equal,
)


def _columns(program):
    return {name: getattr(program, name) for name in Program.COLUMNS}


class TestBlocks:
    def test_block_column_follows_block_start(self, tiny_program):
        assert tiny_program.block_start.tolist() == [0, 5, 8]
        assert tiny_program.block.tolist() == [0] * 5 + [1] * 3
        assert tiny_program.block_list() == tiny_program.block.tolist()

    def test_block_sids(self, tiny_program):
        assert tiny_program.block_sids(0) == range(0, 5)
        assert tiny_program.block_sids(1) == range(5, 8)

    def test_empty_blocks_are_allowed(self):
        program = make_program([], [make_instruction()], edges=[(0, 1, 1.0, False)])
        assert program.block_sids(0) == range(0, 0)
        assert program.num_blocks == 2 and program.num_instructions == 1


class TestEdges:
    def test_successors_keep_edge_order(self):
        program = make_program(
            [make_instruction()], [], [],
            edges=[(0, 2, 0.4, False), (0, 1, 0.6, False)],
        )
        assert program.successors(0) == [(2, 0.4, False), (1, 0.6, False)]
        assert program.successors(1) == []

    def test_back_edges_excluded_from_region_growth(self):
        """The likelier back-edge is skipped: the region follows the exit."""
        program = make_program(
            [make_instruction()], [make_instruction()],
            edges=[(0, 0, 0.9, True), (0, 1, 0.1, False)],
        )
        assert [region.block_ids for region in form_regions(program)] == [[0, 1]]

    def test_first_of_equally_likely_successors_wins(self):
        program = make_program(
            [make_instruction()], [make_instruction()], [make_instruction()],
            edges=[(0, 2, 0.5, False), (0, 1, 0.5, False)],
        )
        assert form_regions(program)[0].block_ids == [0, 2]

    def test_validate_probability_sum(self):
        blocks = ([make_instruction()], [], [])
        with pytest.raises(ValueError, match="sum to 1"):
            make_program(*blocks, edges=[(0, 1, 0.5, False)])
        make_program(*blocks, edges=[(0, 1, 0.5, False), (0, 2, 0.5, False)])

    def test_validate_missing_entry(self):
        program = make_program([make_instruction()], [], edges=[(0, 1, 1.0, False)])
        columns = {name: getattr(program, name) for name in Program.COLUMNS}
        with pytest.raises(ValueError, match="entry block 9"):
            Program(program.name, columns, entry=9)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            make_program([], [], edges=[(0, 1, 1.5, False)])

    def test_edge_columns_keep_their_order_and_dtypes(self):
        program = make_program([], [], edges=[(0, 1, 1.0, False), (1, 0, 1.0, True)])
        assert program.edge_src.tolist() == [0, 1]
        assert program.edge_dst.tolist() == [1, 0]
        assert program.edge_probability.tolist() == [1.0, 1.0]
        assert program.edge_back.tolist() == [False, True]
        assert [program.edge_src.dtype, program.edge_probability.dtype] == [np.int32, np.float64]


class TestProgram:
    def test_validation_and_counts(self, tiny_program):
        assert tiny_program.num_blocks == 2
        assert tiny_program.num_instructions == 8
        assert tiny_program.opclass[5] == UopClass.INT_ALU
        assert tiny_program.src_tuples()[5] == (12, 13)
        assert tiny_program.dest_tuples()[6] == ()

    def test_register_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="register space"):
            make_program([make_instruction(dests=(10_000,))])

    def test_columns_are_read_only_and_sid_indexed(self, tiny_program):
        assert tiny_program.opclass.tolist() == [
            UopClass.INT_ALU, UopClass.LOAD, UopClass.INT_ALU, UopClass.INT_ALU,
            UopClass.BRANCH, UopClass.INT_ALU, UopClass.STORE, UopClass.BRANCH,
        ]
        for name in (*Program.COLUMNS, "block"):
            assert not getattr(tiny_program, name).flags.writeable, name

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("src_offsets", [0, 3, 2, 5, 7, 8, 10, 12, 13], "must rise"),
            ("dest_regs", [10, 11, 12, 13, 10_000], "register space"),
            ("block_start", [0, 5, 7], "must rise from 0 to 8"),
            ("edge_dst", [0, 2, 0], "not a block"),
            ("edge_probability", [0.75, 0.5, 1.0], "sum to 1"),
            ("opclass", [250] * 8, "no µop class"),
            ("src_regs", [-1, 1, 10, 11, 2, 3, 4, 12, 12, 13, 0, 14, 14], "register space"),
            ("dest_offsets", [0, 1, 2, 3, 4, 5, 5, 5], "one row per sid"),
        ],
        ids=[
            "offsets", "register", "block-start", "edge-endpoint", "out-probabilities", "opclass",
            "negative-register", "offsets-one-row-short",
        ],
    )
    def test_invalid_columns_rejected(self, tiny_program, column, value, message):
        columns = dict(_columns(tiny_program), **{column: value})
        with pytest.raises(ValueError, match=message):
            Program("bad", columns)

    def test_gather_by_sid(self, tiny_program):
        """A trace gathers every static column by sid and starts unannotated."""
        sids = [5, 0, 7, 7, 1]
        trace = CompiledTrace(
            tiny_program, sids, [0, 8, 0, 0, 64], [False, False, True, False, False]
        )
        srcs, dests = tiny_program.src_tuples(), tiny_program.dest_tuples()
        assert trace.sid.tolist() == sids
        assert trace.opclass.tolist() == tiny_program.opclass[sids].tolist()
        assert trace.block.tolist() == [1, 0, 1, 1, 0]
        assert trace.src_tuples() == [srcs[sid] for sid in sids]
        assert trace.dest_tuples() == [dests[sid] for sid in sids]
        assert (trace.vc_id == -1).all() and not trace.chain_leader.any()

    @pytest.mark.parametrize("sid", [-1, 8])
    def test_gather_rejects_unknown_sids(self, tiny_program, sid):
        with pytest.raises(ValueError, match="names no instruction"):
            CompiledTrace(tiny_program, [0, sid], [0, 0], [False, False])


class TestDDG:
    def test_simple_chain_edges(self, simple_block):
        ddg = block_ddg(simple_block)
        assert (0, 1) in edge_latency(ddg)  # R10 feeds the load
        assert (1, 2) in edge_latency(ddg)  # load feeds the add
        assert (2, 4) in edge_latency(ddg)  # add feeds the branch
        assert (3, 4) not in edge_latency(ddg)  # independent chain does not feed the branch
        assert ddg.num_edges == 3

    def test_leaves(self, two_chain_block):
        assert set(leaves(block_ddg(two_chain_block))) == {4, 5}

    def test_redefinition_breaks_dependence(self):
        instructions = [
            make_instruction(dests=(10,), srcs=(0,)),
            make_instruction(dests=(10,), srcs=(1,)),  # redefines R10
            make_instruction(dests=(11,), srcs=(10,)),  # reads the *second* definition
        ]
        ddg = block_ddg(instructions)
        assert (1, 2) in edge_latency(ddg)
        assert (0, 2) not in edge_latency(ddg)

    def test_nodes_map_to_sids(self, tiny_program):
        """Nodes are positions in the given sids, which need not be contiguous."""
        ddg = build_ddg(tiny_program, [0, 2, 5])
        assert ddg.sids == [0, 2, 5]
        assert ddg.blocks == [0, 0, 1]
        assert ddg.latencies == [tiny_program.latency_list()[sid] for sid in (0, 2, 5)]
        assert edge_latency(ddg) == {(1, 2): ddg.latencies[1]}  # sid 2 writes R12, sid 5 reads it

    def test_no_memory_edges(self):
        """Only register dependences are edges: a load does not wait on a store."""
        instructions = [
            make_instruction(UopClass.STORE, dests=(), srcs=(0, 1)),
            make_instruction(UopClass.LOAD, dests=(10,), srcs=(2,)),
        ]
        assert block_ddg(instructions).num_edges == 0

    def test_edge_latency_matches_producer(self, simple_block):
        ddg = block_ddg(simple_block)
        assert edge_latency(ddg)[(0, 1)] == simple_block[0].latency

    def test_self_edge_rejected(self, simple_block):
        """Self and backward edges are rejected: every edge runs forward."""
        program = make_program(simple_block)
        for preds in ([[], [1], []], [[], [], [5]], [[], [], [-1]]):
            with pytest.raises(ValueError):
                DataDependenceGraph(program, [0, 1, 2], preds)

    def test_reading_and_writing_one_register_depends_on_the_previous_writer(self):
        instructions = [
            make_instruction(dests=(10,), srcs=(0,)),
            make_instruction(dests=(10,), srcs=(10,)),  # R10 = R10 + ...
        ]
        assert edge_latency(block_ddg(instructions)) == {(0, 1): instructions[0].latency}

    def test_csr_arrays_list_each_nodes_producers(self, simple_block):
        ddg = block_ddg(simple_block)
        assert ddg.pred_start == [0, 0, 1, 2, 2, 3]
        assert ddg.pred_nodes == [0, 1, 2]
        assert ddg.edge_consumers == [1, 2, 4]
        assert predecessors(ddg, 4) == [2] and predecessors(ddg, 3) == []

    def test_edges_run_forward(self, simple_block):
        """Every edge runs from an earlier to a later region position, so the
        DDG is acyclic and program order is a topological order."""
        ddg = block_ddg(simple_block)
        for node in range(len(ddg)):
            assert all(producer < node for producer in predecessors(ddg, node))
        assert all(p < c for p, c in zip(ddg.pred_nodes, ddg.edge_consumers))


class TestRegions:
    def test_every_block_in_exactly_one_region(self, tiny_program):
        regions = form_regions(tiny_program, max_instructions=100)
        block_ids = [bid for region in regions for bid in region.block_ids]
        assert sorted(block_ids) == list(range(tiny_program.num_blocks))

    def test_region_size_respected(self, small_profile):
        from repro.workloads.generator import WorkloadGenerator

        program = WorkloadGenerator(small_profile).generate_program(0)
        for max_size in (16, 64, 200):
            regions = form_regions(program, max_instructions=max_size)
            for region in regions:
                # A region may exceed the budget only when its single seed
                # block is itself larger than the budget.
                largest = max(map(len, map(program.block_sids, range(program.num_blocks))))
                assert len(region) <= max(max_size, largest)

    def test_zero_budget_rejected(self, tiny_program):
        with pytest.raises(ValueError):
            form_regions(tiny_program, max_instructions=0)

    def test_regions_cover_all_instructions_once(self, small_profile):
        from repro.workloads.generator import WorkloadGenerator

        program = WorkloadGenerator(small_profile).generate_program(0)
        regions = form_regions(program, max_instructions=128)
        sids = [sid for region in regions for sid in region.sids]
        assert len(sids) == len(set(sids)) == program.num_instructions


def _expand(program, num_uops, **options):
    return TraceGenerator(program, **options).generate_compiled(num_uops)


class TestTraceGeneration:
    def test_deterministic_for_same_seed(self, tiny_program):
        a = _expand(tiny_program, 200, seed=3)
        b = _expand(tiny_program, 200, seed=3)
        assert traces_equal(a, b)

    def test_different_seeds_differ(self, tiny_program):
        a = _expand(tiny_program, 300, seed=1)
        b = _expand(tiny_program, 300, seed=2)
        assert a.sid.tolist() != b.sid.tolist()

    def test_length_is_at_least_requested(self, tiny_program):
        trace = _expand(tiny_program, 123, seed=0)
        assert len(trace) >= 123

    def test_memory_uops_have_addresses_within_working_set(self, tiny_program):
        model = AddressModel(working_set_bytes=4096)
        trace = _expand(tiny_program, 400, seed=5, address_model=model)
        addresses = trace.address[trace.is_memory]
        assert len(addresses) and ((0 <= addresses) & (addresses < 4096)).all()

    def test_mispredictions_only_on_branches(self, tiny_program):
        trace = _expand(tiny_program, 400, seed=5, mispredict_rate=0.5)
        assert trace.mispredicted.any()
        assert trace.is_branch[trace.mispredicted].all()

    def test_zero_mispredict_rate(self, tiny_program):
        trace = _expand(tiny_program, 400, seed=5, mispredict_rate=0.0)
        assert not trace.mispredicted.any()

    def test_invalid_parameters_rejected(self, tiny_program):
        with pytest.raises(ValueError):
            _expand(tiny_program, 0)
        with pytest.raises(ValueError):
            TraceGenerator(tiny_program, mispredict_rate=1.5)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(num_uops=st.integers(min_value=1, max_value=500), seed=st.integers(0, 2**16))
    def test_trace_uops_reference_program_instructions(self, tiny_program, num_uops, seed):
        trace = _expand(tiny_program, num_uops, seed=seed)
        assert set(trace.sid.tolist()) <= set(range(tiny_program.num_instructions))
