"""Unit tests for the compile-time partitioners (repro.partition)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import base
from repro.partition.base import PartitionReport, program_regions, region_ddg
from repro.partition.chains import identify_chains
from repro.partition.multilevel import MultilevelPartitioner, PartitionObjective
from repro.partition.ob_partitioner import OperationBasedPartitioner
from repro.partition.rhop_partitioner import RhopPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.program.ddg import build_ddg
from repro.program.program import pack, unpack
from repro.scenarios.registry import PARTITIONERS, build_partitioner
from repro.workloads.generator import WorkloadGenerator, generate_program
from repro.workloads.spec2000 import all_trace_names, profile_for
from tests.conftest import (
    block_ddg,
    edge_latency,
    make_instruction,
    partition_graph,
    predecessors,
    program_bytes,
)


def figure3_ddg():
    """The DDG of Figure 3: two virtual clusters, chain leaders A, B and E.

    Nodes (in program order): A, B, C, D, E, F with
    A -> C, C -> D (virtual cluster 0) and B, E -> F (virtual cluster 1),
    plus a cross edge A -> E so E depends only on the other virtual cluster.
    """
    instructions = [
        make_instruction(dests=(10,), srcs=(0,)),   # A   vc0
        make_instruction(dests=(20,), srcs=(1,)),   # B   vc1
        make_instruction(dests=(11,), srcs=(10,)),  # C   vc0 (depends on A)
        make_instruction(dests=(12,), srcs=(11,)),  # D   vc0 (depends on C)
        make_instruction(dests=(21,), srcs=(10,)),  # E   vc1 (depends on A only)
        make_instruction(dests=(22,), srcs=(21, 20)),  # F vc1 (depends on E and B)
    ]
    ddg = block_ddg(instructions)
    assignment = [0, 1, 0, 0, 1, 1]
    return ddg, assignment


class TestChains:
    def test_figure3_example_has_three_leaders(self):
        ddg, assignment = figure3_ddg()
        chains, leaders = identify_chains(ddg, assignment)
        assert leaders == [True, True, False, False, True, False]
        assert len(chains) == 3
        # The chain led by E contains F (same virtual cluster, dependent).
        e_chain = [c for c in chains if c.nodes[0] == 4][0]
        assert 5 in e_chain.nodes

    def test_every_node_belongs_to_exactly_one_chain(self):
        ddg, assignment = figure3_ddg()
        chains, _ = identify_chains(ddg, assignment)
        nodes = [n for chain in chains for n in chain.nodes]
        assert sorted(nodes) == list(range(len(ddg)))

    def test_chain_vc_matches_assignment(self):
        ddg, assignment = figure3_ddg()
        chains, _ = identify_chains(ddg, assignment)
        for chain in chains:
            for node in chain.nodes:
                assert assignment[node] == chain.vc_id

    def test_mismatched_assignment_length_rejected(self):
        ddg, assignment = figure3_ddg()
        with pytest.raises(ValueError):
            identify_chains(ddg, assignment[:-1])

    def test_single_vc_has_single_leader_per_independent_chain(self, two_chain_block):
        ddg = block_ddg(two_chain_block)
        chains, leaders = identify_chains(ddg, [0] * len(ddg))
        # Both independent chains start fresh (no same-VC producer), so two leaders.
        assert sum(leaders) == 2
        assert len(chains) == 2


class TestMultilevelPartitioner:
    def test_partition_covers_all_parts_when_possible(self, two_chain_block):
        ddg = block_ddg(two_chain_block)
        partitioner = MultilevelPartitioner(2)
        weights = [1] * len(ddg)
        edges = {edge: 10 for edge in edge_latency(ddg)}
        assignment = partition_graph(partitioner, weights, edges)
        assert set(assignment) == {0, 1}

    def test_independent_chains_not_split(self, two_chain_block):
        ddg = block_ddg(two_chain_block)
        partitioner = MultilevelPartitioner(2)
        edges = {edge: 10 for edge in edge_latency(ddg)}
        assignment = partition_graph(partitioner, [1] * len(ddg), edges)
        # No dependence edge should be cut: the two chains are separable.
        for u, v in edges:
            assert assignment[u] == assignment[v]

    def test_single_part(self):
        partitioner = MultilevelPartitioner(1)
        assert partition_graph(partitioner, [1, 1, 1], {(0, 1): 1}) == [0, 0, 0]

    def test_empty_graph(self):
        assert partition_graph(MultilevelPartitioner(2), [], {}) == []

    def test_fewer_nodes_than_parts(self):
        assignment = partition_graph(MultilevelPartitioner(4), [1, 1], {})
        assert len(assignment) == 2
        assert all(0 <= part < 4 for part in assignment)

    def test_group_aware_balance(self):
        # Two groups of four independent nodes each: with group-aware balance
        # every group must be split across the two parts.
        weights = [1] * 8
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        partitioner = MultilevelPartitioner(
            2, objective=PartitionObjective(cut_weight=1.0, imbalance_weight=5.0)
        )
        assignment = partition_graph(partitioner, weights, {}, node_groups=groups)
        for group in (0, 1):
            members = [assignment[i] for i in range(8) if groups[i] == group]
            assert members.count(0) == 2 and members.count(1) == 2

    def test_invalid_num_parts(self):
        with pytest.raises(ValueError):
            MultilevelPartitioner(0)

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=40),
        num_parts=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_partition_always_valid_property(self, num_nodes, num_parts, seed):
        """Any random graph yields a complete assignment with valid part indices."""
        import numpy as np

        rng = np.random.default_rng(seed)
        weights = [int(w) for w in rng.integers(1, 4, size=num_nodes)]
        edges = {}
        for _ in range(num_nodes * 2):
            u, v = int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes))
            if u != v:
                edges[(u, v)] = int(rng.integers(1, 16))
        assignment = partition_graph(MultilevelPartitioner(num_parts), weights, edges)
        assert len(assignment) == num_nodes
        assert all(0 <= part < num_parts for part in assignment)


class TestVirtualClusterPartitioner:
    def test_annotations_returned(self, small_profile):
        program = generate_program(small_profile)
        report = VirtualClusterPartitioner(2).annotate_program(program)
        assert len(report.vc_id) == program.num_instructions  # sids 0 .. n - 1
        assert int((report.vc_id >= 0).sum()) == program.num_instructions
        assert int(report.chain_leader.sum()) == report.chain_leaders > 0
        assert (report.static_cluster == -1).all()

    def test_vc_ids_within_range(self, small_profile):
        program = generate_program(small_profile)
        report = VirtualClusterPartitioner(4).annotate_program(program)
        assert ((report.vc_id >= 0) & (report.vc_id < 4)).all()

    def test_dependent_serial_chain_stays_in_one_vc(self):
        instructions = [make_instruction(dests=(10,), srcs=(0,))]
        for i in range(1, 10):
            instructions.append(make_instruction(dests=(10 + i,), srcs=(9 + i,)))
        ddg = block_ddg(instructions)
        assignment = VirtualClusterPartitioner(2).partition_region(ddg)
        assert len(set(assignment)) == 1

    def test_independent_chains_spread_over_vcs(self, two_chain_block):
        ddg = block_ddg(two_chain_block)
        assignment = VirtualClusterPartitioner(2).partition_region(ddg)
        assert set(assignment) == {0, 1}
        # Each chain is kept whole.
        assert assignment[0] == assignment[2] == assignment[4]
        assert assignment[1] == assignment[3] == assignment[5]

    def test_report_balance_reasonable(self, small_profile):
        program = generate_program(small_profile)
        report = VirtualClusterPartitioner(2).annotate_program(program)
        assert report.balance > 0.5
        assert 0.0 <= report.cut_fraction <= 1.0

    def test_leaders_have_no_same_vc_predecessor(self, small_profile):
        from repro.program.regions import form_regions

        program = generate_program(small_profile)
        report = VirtualClusterPartitioner(2).annotate_program(program)
        vc_of = report.vc_id.tolist()
        for region in form_regions(program, 128):
            ddg = build_ddg(program, region.sids)
            for node, sid in enumerate(ddg.sids):
                if report.chain_leader[sid]:
                    same_vc_preds = [
                        p for p in predecessors(ddg, node) if vc_of[ddg.sids[p]] == vc_of[sid]
                    ]
                    assert not same_vc_preds


class TestRhopPartitioner:
    def test_static_cluster_annotations(self, small_profile):
        program = generate_program(small_profile)
        report = RhopPartitioner(2).annotate_program(program)
        assert int((report.static_cluster >= 0).sum()) == program.num_instructions
        assert (report.vc_id == -1).all() and not report.chain_leader.any()
        assert report.chain_leaders == 0

    def test_balance_is_high(self, small_profile):
        program = generate_program(small_profile)
        report = RhopPartitioner(2).annotate_program(program)
        assert report.balance > 0.7

    def test_four_cluster_partition_uses_all_clusters(self, small_fp_profile):
        program = generate_program(small_fp_profile)
        report = RhopPartitioner(4).annotate_program(program)
        assert set(report.static_cluster.tolist()) == {0, 1, 2, 3}

    def test_empty_region_handled(self):
        assert RhopPartitioner(2).partition_region(block_ddg([])) == []


class TestOperationBasedPartitioner:
    def test_static_cluster_annotations(self, small_profile):
        program = generate_program(small_profile)
        report = OperationBasedPartitioner(2).annotate_program(program)
        assert set(report.static_cluster.tolist()) == {0, 1}
        assert (report.vc_id == -1).all()

    def test_spreads_independent_work(self, two_chain_block):
        ddg = block_ddg(two_chain_block)
        assignment = OperationBasedPartitioner(2).partition_region(ddg)
        assert set(assignment) == {0, 1}

    def test_balance_bias_spreads_more(self, small_profile):
        program = generate_program(small_profile)
        low = OperationBasedPartitioner(2, balance_bias=0.0).annotate_program(program)
        high = OperationBasedPartitioner(2, balance_bias=2.0).annotate_program(program)
        assert high.balance >= low.balance - 1e-9


class TestPartitionReport:
    def test_cut_fraction_and_balance_defaults(self):
        report = PartitionReport(program_name="p", partitioner="x")
        assert report.cut_fraction == 0.0
        assert report.balance == 1.0

    def test_balance_counts_targets_without_load(self):
        """Everything on one of two targets is as uneven as it gets."""
        report = PartitionReport(
            program_name="p", partitioner="x", num_targets=2, target_loads={0: 10}
        )
        assert report.balance == 0.5
        assert PartitionReport(
            program_name="p", partitioner="x", num_targets=2, target_loads={0: 5, 1: 5}
        ).balance == 1.0

    def test_pass_on_one_of_two_clusters_reads_unbalanced(self, small_profile):
        class OneCluster(OperationBasedPartitioner):
            def partition_region(self, ddg):
                return [0] * len(ddg)

        report = OneCluster(2).annotate_program(generate_program(small_profile))
        assert report.target_loads == {0: report.num_instructions}
        assert report.balance == 0.5

    def test_assignment_length_mismatch_detected(self, small_profile):
        class Broken(VirtualClusterPartitioner):
            def partition_region(self, ddg):
                return [0]  # always wrong length

        program = generate_program(small_profile)
        with pytest.raises(ValueError):
            Broken(2).annotate_program(program)

    def test_out_of_range_target_detected(self, small_profile):
        class Broken(VirtualClusterPartitioner):
            def partition_region(self, ddg):
                return [7] * len(ddg)

        program = generate_program(small_profile)
        with pytest.raises(ValueError):
            Broken(2).annotate_program(program)


def _columns(report):
    return [column.tolist() for column in report.columns]


class TestSharedRegions:
    """Regions are formed once per (program, region size) and shared; a
    region's DDG is built once, when a pass first partitions it."""

    PASSES = (
        lambda: OperationBasedPartitioner(num_clusters=2),
        lambda: RhopPartitioner(num_clusters=2),
        lambda: VirtualClusterPartitioner(num_virtual_clusters=2),
    )

    def test_ob_rhop_vc_on_shared_regions_match_fresh_programs(self, small_profile):
        shared = generate_program(small_profile, phase=1)
        regions = program_regions(shared, 128)
        ddgs = [region_ddg(shared, 128, region) for region in regions]
        for make_pass in self.PASSES:
            report = make_pass().annotate_program(shared)
            assert program_regions(shared, 128) is regions  # formed once, reused
            assert all(
                region_ddg(shared, 128, region) is ddg for region, ddg in zip(regions, ddgs)
            )
            fresh = generate_program(small_profile, phase=1)
            fresh_report = make_pass().annotate_program(fresh)
            assert _columns(report) == _columns(fresh_report)
            assert report == fresh_report

    def test_memo_is_keyed_by_region_size(self, small_profile):
        program = generate_program(small_profile, phase=0)
        small_regions = program_regions(program, 16)
        large_regions = program_regions(program, 128)
        assert len(small_regions) > len(large_regions)
        assert program_regions(program, 16) is small_regions

    def test_region_sids_list_the_region_blocks(self, small_profile):
        program = generate_program(small_profile, phase=0)
        for region in program_regions(program, 128):
            assert region.sids == tuple(
                sid for bid in region.block_ids for sid in program.block_sids(bid)
            )

    def test_ddgs_are_built_only_for_executed_regions(self, small_profile, monkeypatch):
        program = generate_program(small_profile, phase=0)
        regions = program_regions(program, 128)
        assert len(regions) > 1
        built = []
        build_ddg = base.build_ddg

        def counted(program, sids):
            built.append(sids[0])
            return build_ddg(program, sids)

        monkeypatch.setattr(base, "build_ddg", counted)
        first_region = regions[0]
        first_sids = first_region.sids
        compile_pass = VirtualClusterPartitioner(num_virtual_clusters=2)
        compile_pass.executed_sids = {first_sids[0]}
        report = compile_pass.annotate_program(program)
        assert built == [first_sids[0]]
        assert report.num_instructions == len(first_region)
        compile_pass.annotate_program(program)
        assert built == [first_sids[0]]  # memoised: built once
        compile_pass.executed_sids = None
        compile_pass.annotate_program(program)
        assert len(built) == sum(1 for region in regions if region.sids)

    def test_unpacked_program_carries_no_memo(self, small_profile):
        """A program rebuilt from its stored columns (as artifacts and segments
        rebuild it) starts with an empty memo, builds its own DDGs, and its
        passes return the same columns."""
        partitioned, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        reports = [make_pass().annotate_program(partitioned) for make_pass in self.PASSES]
        restored, _ = unpack(*pack(partitioned, compiled))
        assert restored._memo == {}
        for region in program_regions(restored, 128):
            if region.sids:
                assert region_ddg(restored, 128, region).sids == list(region.sids)
        for make_pass, report in zip(self.PASSES, reports):
            assert _columns(make_pass().annotate_program(restored)) == _columns(report)


class TestProgramIsNotMutated:
    """Compile-time passes only read the program: their annotations are the
    sid-indexed columns of the returned report."""

    PASSES = TestSharedRegions.PASSES

    @pytest.mark.parametrize("trace_name", ["164.gzip-1", "178.galgel"])
    def test_ob_rhop_vc_in_turn_leave_the_program_unchanged(self, trace_name):
        generator = WorkloadGenerator(profile_for(trace_name))
        program = generator.generate_program(0)
        before = program_bytes(program)
        reports = [make_pass().annotate_program(program) for make_pass in self.PASSES]
        assert program_bytes(program) == before
        assert before == program_bytes(generator.generate_program(0))
        for make_pass, report in zip(self.PASSES, reports):
            fresh = make_pass().annotate_program(generator.generate_program(0))
            assert _columns(report) == _columns(fresh)

    def test_columns_are_read_only_and_sid_indexed(self, small_profile):
        program = generate_program(small_profile)
        size = program.num_instructions
        for make_pass in self.PASSES:
            report = make_pass().annotate_program(program)
            for column, dtype in zip(report.columns, (np.int32, bool, np.int32)):
                assert len(column) == size and column.dtype == dtype
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = column[0]

    def test_unpartitioned_regions_read_unannotated(self, small_profile):
        program = generate_program(small_profile)
        compile_pass = OperationBasedPartitioner(num_clusters=2)
        regions = program_regions(program, compile_pass.region_size)
        compile_pass.executed_sids = set(regions[0].sids)
        report = compile_pass.annotate_program(program)
        for region in regions[1:]:
            assert (report.static_cluster[list(region.sids)] == -1).all()
        assert (report.static_cluster[list(regions[0].sids)] >= 0).all()


class TestExecutedRegions:
    """A pass told the trace's static ids partitions only the regions holding
    one, and the trace's annotation columns equal the whole-program pass's."""

    @settings(max_examples=30, deadline=None)
    @given(
        partitioner=st.sampled_from(sorted(PARTITIONERS.names())),
        benchmark=st.sampled_from(all_trace_names()),
        trace_length=st.integers(min_value=1, max_value=1500),
        region_size=st.sampled_from([1, 128, 10**6]),
        num_clusters=st.sampled_from([2, 4]),
    )
    def test_columns_match_the_whole_program_pass(
        self, partitioner, benchmark, trace_length, region_size, num_clusters
    ):
        program, compiled = WorkloadGenerator(profile_for(benchmark)).generate_compiled_trace(
            trace_length, phase=0
        )

        def columns(executed_sids):
            compile_pass = build_partitioner(partitioner, {}, num_clusters, 2, region_size)
            compile_pass.executed_sids = executed_sids
            report = compile_pass.annotate_program(program)
            compiled.annotate_from(report.columns)
            return report, [getattr(compiled, name) for name in compiled.ANNOTATION_FIELDS]

        whole_report, whole = columns(None)
        executed = set(compiled.sid.tolist())
        report, skipped = columns(executed)
        for full_column, column in zip(whole, skipped):
            assert full_column.tolist() == column.tolist()
        assert report.num_instructions <= whole_report.num_instructions
        assert report.num_regions == whole_report.num_regions
        annotated = set(
            np.flatnonzero((report.vc_id >= 0) | (report.static_cluster >= 0)).tolist()
        )
        assert executed <= annotated
