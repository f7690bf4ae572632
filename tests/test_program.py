"""Unit tests for the compiler IR (repro.program)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.program.basic_block import BasicBlock
from repro.program.cfg import ControlFlowGraph
from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.program.regions import form_regions, region_of_block
from repro.program.trace import AddressModel, TraceGenerator
from repro.uops.opcodes import UopClass
from tests.conftest import make_instruction


class TestBasicBlock:
    def test_append_claims_instruction(self):
        block = BasicBlock(3)
        inst = make_instruction(0, block=7)
        block.append(inst)
        assert inst.block == 3
        assert len(block) == 1

    def test_terminator_detection(self, simple_block):
        assert simple_block.terminator is not None
        assert simple_block.terminator.is_branch
        block = BasicBlock(1, [make_instruction(0, dests=(10,))])
        assert block.terminator is None

    def test_register_sets(self, simple_block):
        assert 10 in simple_block.defined_registers
        assert 0 in simple_block.used_registers
        # R10 is defined before use, so it is not a live-in.
        assert 10 not in simple_block.live_in_registers
        assert 0 in simple_block.live_in_registers

    def test_iteration_and_indexing(self, simple_block):
        assert [i.sid for i in simple_block] == [0, 1, 2, 3, 4]
        assert simple_block[1].sid == 1


class TestControlFlowGraph:
    def test_edges_and_successors(self):
        cfg = ControlFlowGraph(entry=0)
        cfg.add_edge(0, 1, probability=0.6)
        cfg.add_edge(0, 2, probability=0.4)
        assert {e.dst for e in cfg.successors(0)} == {1, 2}
        assert cfg.most_likely_successor(0) == 1
        assert {e.src for e in cfg.predecessors(1)} == {0}

    def test_back_edges_excluded_from_most_likely(self):
        cfg = ControlFlowGraph(entry=0)
        cfg.add_edge(0, 0, probability=0.9, is_back_edge=True)
        cfg.add_edge(0, 1, probability=0.1)
        assert cfg.most_likely_successor(0) == 1
        assert cfg.loop_headers() == [0]

    def test_validate_probability_sum(self):
        cfg = ControlFlowGraph(entry=0)
        cfg.add_edge(0, 1, probability=0.5)
        with pytest.raises(ValueError):
            cfg.validate()
        cfg.add_edge(0, 2, probability=0.5)
        cfg.validate()

    def test_validate_missing_entry(self):
        cfg = ControlFlowGraph(entry=9)
        cfg.add_edge(0, 1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_invalid_probability_rejected(self):
        cfg = ControlFlowGraph()
        with pytest.raises(ValueError):
            cfg.add_edge(0, 1, probability=1.5)

    def test_edges_and_probabilities(self):
        cfg = ControlFlowGraph(entry=0)
        cfg.add_edge(0, 1)
        cfg.add_edge(1, 0, probability=1.0, is_back_edge=True)
        assert cfg.blocks == [0, 1]
        (edge,) = cfg.successors(0)
        assert (edge.src, edge.dst, edge.probability, edge.is_back_edge) == (0, 1, 1.0, False)
        assert cfg.predecessors(1) == [edge]
        assert [(e.src, e.dst) for e in cfg.back_edges()] == [(1, 0)]


class TestProgram:
    def test_validation_and_counts(self, tiny_program):
        assert tiny_program.num_blocks == 2
        assert tiny_program.num_instructions == 8
        assert tiny_program.sid_opclasses()[10] == UopClass.INT_ALU

    def test_duplicate_sid_rejected(self, simple_block):
        other = BasicBlock(1, [make_instruction(0, dests=(20,))])
        cfg = ControlFlowGraph(entry=0)
        cfg.add_edge(0, 1)
        cfg.add_edge(1, 0)
        program = Program("dup", [simple_block, other], cfg)
        with pytest.raises(ValueError):
            program.validate()

    def test_register_out_of_range_rejected(self):
        block = BasicBlock(0, [make_instruction(0, dests=(10_000,))])
        cfg = ControlFlowGraph(entry=0)
        cfg.add_block(0)
        program = Program("bad", [block], cfg)
        with pytest.raises(ValueError):
            program.validate()

    def test_sid_opclasses_column(self):
        """One entry per static id up to the largest; ``-1`` marks a gap."""
        block = BasicBlock(
            0,
            [
                make_instruction(0, UopClass.LOAD, dests=(10,)),
                make_instruction(3, UopClass.BRANCH, srcs=(10,)),
            ],
        )
        cfg = ControlFlowGraph(entry=0)
        cfg.add_block(0)
        column = Program("gaps", [block], cfg).sid_opclasses()
        assert column.tolist() == [int(UopClass.LOAD), -1, -1, int(UopClass.BRANCH)]
        assert not column.flags.writeable


class TestDDG:
    def test_simple_chain_edges(self, simple_block):
        ddg = build_ddg(simple_block.instructions)
        assert (0, 1) in ddg.edge_latency  # R10 feeds the load
        assert (1, 2) in ddg.edge_latency  # load feeds the add
        assert (2, 4) in ddg.edge_latency  # add feeds the branch
        assert (3, 4) not in ddg.edge_latency  # independent chain does not feed the branch
        assert ddg.num_edges == 3

    def test_roots_and_leaves(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
        assert set(ddg.roots()) == {0, 1}
        assert set(ddg.leaves()) == {4, 5}

    def test_redefinition_breaks_dependence(self):
        instructions = [
            make_instruction(0, dests=(10,), srcs=(0,)),
            make_instruction(1, dests=(10,), srcs=(1,)),  # redefines R10
            make_instruction(2, dests=(11,), srcs=(10,)),  # reads the *second* definition
        ]
        ddg = build_ddg(instructions)
        assert (1, 2) in ddg.edge_latency
        assert (0, 2) not in ddg.edge_latency

    def test_memory_edges_optional(self):
        instructions = [
            make_instruction(0, UopClass.STORE, dests=(), srcs=(0, 1)),
            make_instruction(1, UopClass.LOAD, dests=(10,), srcs=(2,)),
        ]
        assert build_ddg(instructions).num_edges == 0
        assert build_ddg(instructions, include_memory_edges=True).num_edges == 1

    def test_edge_latency_matches_producer(self, simple_block):
        ddg = build_ddg(simple_block.instructions)
        assert ddg.edge_latency[(0, 1)] == simple_block.instructions[0].latency

    def test_self_edge_rejected(self, simple_block):
        """Self and backward edges are rejected: every edge runs forward."""
        instructions = simple_block.instructions[:3]
        for preds in ([[], [1], []], [[], [], [5]], [[], [], [-1]]):
            with pytest.raises(ValueError):
                DataDependenceGraph(instructions, preds)

    def test_reading_and_writing_one_register_depends_on_the_previous_writer(self):
        instructions = [
            make_instruction(0, dests=(10,), srcs=(0,)),
            make_instruction(1, dests=(10,), srcs=(10,)),  # R10 = R10 + ...
        ]
        assert build_ddg(instructions).edge_latency == {(0, 1): instructions[0].latency}

    def test_csr_arrays_list_each_nodes_producers(self, simple_block):
        ddg = build_ddg(simple_block.instructions)
        assert ddg.pred_start == [0, 0, 1, 2, 2, 3]
        assert ddg.pred_nodes == [0, 1, 2]
        assert ddg.edge_consumers == [1, 2, 4]
        assert ddg.predecessors(4) == [2] and ddg.predecessors(3) == []

    def test_edges_run_forward(self, simple_block):
        """Every edge runs from an earlier to a later region position, so the
        DDG is acyclic and program order is a topological order."""
        ddg = build_ddg(simple_block.instructions)
        for node in range(len(ddg)):
            assert all(producer < node for producer in ddg.predecessors(node))
        assert all(p < c for p, c in zip(ddg.pred_nodes, ddg.edge_consumers))


class TestRegions:
    def test_every_block_in_exactly_one_region(self, tiny_program):
        regions = form_regions(tiny_program, max_instructions=100)
        mapping = region_of_block(regions)
        assert set(mapping) == set(tiny_program.blocks)

    def test_region_size_respected(self, small_profile):
        from repro.workloads.generator import WorkloadGenerator

        program = WorkloadGenerator(small_profile).generate_program(0)
        for max_size in (16, 64, 200):
            regions = form_regions(program, max_instructions=max_size)
            for region in regions:
                # A region may exceed the budget only when its single seed
                # block is itself larger than the budget.
                assert len(region) <= max(max_size, max(len(b) for b in program.blocks.values()))

    def test_zero_budget_rejected(self, tiny_program):
        with pytest.raises(ValueError):
            form_regions(tiny_program, max_instructions=0)

    def test_regions_cover_all_instructions_once(self, small_profile):
        from repro.workloads.generator import WorkloadGenerator

        program = WorkloadGenerator(small_profile).generate_program(0)
        regions = form_regions(program, max_instructions=128)
        sids = [inst.sid for region in regions for inst in region.instructions]
        assert len(sids) == len(set(sids)) == program.num_instructions


def _expand(program, num_uops, **options):
    return TraceGenerator(program, **options).generate_compiled(num_uops)


class TestTraceGeneration:
    def test_deterministic_for_same_seed(self, tiny_program):
        a = _expand(tiny_program, 200, seed=3)
        b = _expand(tiny_program, 200, seed=3)
        assert a.equals(b)

    def test_different_seeds_differ(self, tiny_program):
        a = _expand(tiny_program, 300, seed=1)
        b = _expand(tiny_program, 300, seed=2)
        assert a.sid.tolist() != b.sid.tolist()

    def test_length_is_at_least_requested(self, tiny_program):
        trace = _expand(tiny_program, 123, seed=0)
        assert len(trace) >= 123

    def test_sequence_numbers_are_consecutive(self, tiny_program):
        trace = _expand(tiny_program, 100, seed=0)
        assert trace.seq.tolist() == list(range(len(trace)))

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
        valid_sids = {inst.sid for inst in tiny_program.all_instructions()}
        assert set(trace.sid.tolist()) <= valid_sids
