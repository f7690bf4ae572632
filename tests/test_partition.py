"""Unit tests for the compile-time partitioners (repro.partition)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.partition.base import PartitionReport, region_ddgs
from repro.partition.chains import chain_length_histogram, identify_chains
from repro.partition.multilevel import MultilevelPartitioner, PartitionObjective
from repro.partition.ob_partitioner import OperationBasedPartitioner
from repro.partition.rhop_partitioner import RhopPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.program.ddg import build_ddg
from repro.workloads.generator import generate_program
from tests.conftest import make_instruction


def figure3_ddg():
    """The DDG of Figure 3: two virtual clusters, chain leaders A, B and E.

    Nodes (in program order): A, B, C, D, E, F with
    A -> C, C -> D (virtual cluster 0) and B, E -> F (virtual cluster 1),
    plus a cross edge A -> E so E depends only on the other virtual cluster.
    """
    instructions = [
        make_instruction(0, dests=(10,), srcs=(0,)),   # A   vc0
        make_instruction(1, dests=(20,), srcs=(1,)),   # B   vc1
        make_instruction(2, dests=(11,), srcs=(10,)),  # C   vc0 (depends on A)
        make_instruction(3, dests=(12,), srcs=(11,)),  # D   vc0 (depends on C)
        make_instruction(4, dests=(21,), srcs=(10,)),  # E   vc1 (depends on A only)
        make_instruction(5, dests=(22,), srcs=(21, 20)),  # F vc1 (depends on E and B)
    ]
    ddg = build_ddg(instructions)
    assignment = [0, 1, 0, 0, 1, 1]
    return ddg, assignment


class TestChains:
    def test_figure3_example_has_three_leaders(self):
        ddg, assignment = figure3_ddg()
        chains, leaders = identify_chains(ddg, assignment)
        assert leaders == [True, True, False, False, True, False]
        assert len(chains) == 3
        # The chain led by E contains F (same virtual cluster, dependent).
        e_chain = [c for c in chains if c.leader == 4][0]
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

    def test_chain_length_histogram(self):
        ddg, assignment = figure3_ddg()
        chains, _ = identify_chains(ddg, assignment)
        histogram = chain_length_histogram(chains)
        assert sum(length * count for length, count in histogram.items()) == len(ddg)

    def test_single_vc_has_single_leader_per_independent_chain(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
        chains, leaders = identify_chains(ddg, [0] * len(ddg))
        # Both independent chains start fresh (no same-VC producer), so two leaders.
        assert sum(leaders) == 2
        assert len(chains) == 2


class TestMultilevelPartitioner:
    def test_partition_covers_all_parts_when_possible(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
        partitioner = MultilevelPartitioner(2)
        weights = [1] * len(ddg)
        edges = {edge: 10 for edge in ddg.edge_latency}
        assignment = partitioner.partition(weights, edges)
        assert set(assignment) == {0, 1}

    def test_independent_chains_not_split(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
        partitioner = MultilevelPartitioner(2)
        edges = {edge: 10 for edge in ddg.edge_latency}
        assignment = partitioner.partition([1] * len(ddg), edges)
        # No dependence edge should be cut: the two chains are separable.
        for u, v in edges:
            assert assignment[u] == assignment[v]

    def test_single_part(self):
        partitioner = MultilevelPartitioner(1)
        assert partitioner.partition([1, 1, 1], {(0, 1): 1}) == [0, 0, 0]

    def test_empty_graph(self):
        assert MultilevelPartitioner(2).partition([], {}) == []

    def test_fewer_nodes_than_parts(self):
        assignment = MultilevelPartitioner(4).partition([1, 1], {})
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
        assignment = partitioner.partition(weights, {}, node_groups=groups)
        for group in (0, 1):
            members = [assignment[i] for i in range(8) if groups[i] == group]
            assert members.count(0) == 2 and members.count(1) == 2

    def test_node_groups_length_checked(self):
        with pytest.raises(ValueError):
            MultilevelPartitioner(2).partition([1, 1, 1, 1], {}, node_groups=[0, 1])

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
        assignment = MultilevelPartitioner(num_parts).partition(weights, edges)
        assert len(assignment) == num_nodes
        assert all(0 <= part < num_parts for part in assignment)


class TestVirtualClusterPartitioner:
    def test_annotations_written(self, small_profile):
        program = generate_program(small_profile)
        report = VirtualClusterPartitioner(2).annotate_program(program)
        summary = program.annotation_summary()
        assert summary["vc_annotated"] == program.num_instructions
        assert summary["chain_leaders"] == report.chain_leaders > 0
        assert summary["static_cluster_bound"] == 0

    def test_vc_ids_within_range(self, small_profile):
        program = generate_program(small_profile)
        VirtualClusterPartitioner(4).annotate_program(program)
        assert all(0 <= inst.vc_id < 4 for inst in program.all_instructions())

    def test_dependent_serial_chain_stays_in_one_vc(self):
        instructions = [make_instruction(0, dests=(10,), srcs=(0,))]
        for i in range(1, 10):
            instructions.append(make_instruction(i, dests=(10 + i,), srcs=(9 + i,)))
        ddg = build_ddg(instructions)
        assignment = VirtualClusterPartitioner(2).partition_region(ddg)
        assert len(set(assignment)) == 1

    def test_independent_chains_spread_over_vcs(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
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
        partitioner = VirtualClusterPartitioner(2)
        partitioner.annotate_program(program)
        for region in form_regions(program, 128):
            ddg = build_ddg(region.instructions)
            for node, inst in enumerate(ddg.instructions):
                if inst.chain_leader:
                    same_vc_preds = [
                        p for p in ddg.preds[node] if ddg.instructions[p].vc_id == inst.vc_id
                    ]
                    assert not same_vc_preds


class TestRhopPartitioner:
    def test_static_cluster_annotations(self, small_profile):
        program = generate_program(small_profile)
        report = RhopPartitioner(2).annotate_program(program)
        summary = program.annotation_summary()
        assert summary["static_cluster_bound"] == program.num_instructions
        assert summary["vc_annotated"] == 0
        assert report.chain_leaders == 0

    def test_balance_is_high(self, small_profile):
        program = generate_program(small_profile)
        report = RhopPartitioner(2).annotate_program(program)
        assert report.balance > 0.7

    def test_four_cluster_partition_uses_all_clusters(self, small_fp_profile):
        program = generate_program(small_fp_profile)
        RhopPartitioner(4).annotate_program(program)
        used = {inst.static_cluster for inst in program.all_instructions()}
        assert used == {0, 1, 2, 3}

    def test_empty_region_handled(self):
        assert RhopPartitioner(2).partition_region(build_ddg([])) == []


class TestOperationBasedPartitioner:
    def test_static_cluster_annotations(self, small_profile):
        program = generate_program(small_profile)
        OperationBasedPartitioner(2).annotate_program(program)
        assert all(inst.static_cluster in (0, 1) for inst in program.all_instructions())

    def test_spreads_independent_work(self, two_chain_block):
        ddg = build_ddg(two_chain_block.instructions)
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


def _annotations(program):
    return [
        (inst.sid, inst.vc_id, inst.chain_leader, inst.static_cluster)
        for inst in program.all_instructions()
    ]


class TestSharedRegionDDGs:
    """Regions and DDGs are formed once per (program, region size) and shared."""

    PASSES = (
        lambda: OperationBasedPartitioner(num_clusters=2),
        lambda: RhopPartitioner(num_clusters=2),
        lambda: VirtualClusterPartitioner(num_virtual_clusters=2),
    )

    def test_ob_rhop_vc_on_shared_ddgs_match_fresh_programs(self, small_profile):
        shared = generate_program(small_profile, phase=1)
        memo = region_ddgs(shared, 128)
        for make_pass in self.PASSES:
            report = make_pass().annotate_program(shared)
            assert region_ddgs(shared, 128) is memo  # built once, reused
            fresh = generate_program(small_profile, phase=1)
            fresh_report = make_pass().annotate_program(fresh)
            assert _annotations(shared) == _annotations(fresh)
            assert report == fresh_report

    def test_memo_is_keyed_by_region_size(self, small_profile):
        program = generate_program(small_profile, phase=0)
        small_regions, _ = region_ddgs(program, 16)
        large_regions, _ = region_ddgs(program, 128)
        assert len(small_regions) > len(large_regions)
        assert region_ddgs(program, 16)[0] is small_regions

    def test_pickled_program_carries_no_memo(self, small_profile):
        partitioned = generate_program(small_profile, phase=0)
        for make_pass in self.PASSES:
            make_pass().annotate_program(partitioned)
        assert "_memo" not in partitioned.__getstate__()
        restored = pickle.loads(pickle.dumps(partitioned))
        assert restored._memo == {}
        assert _annotations(restored) == _annotations(partitioned)
        # Byte-identical to a program with the same annotations but no memo
        # entries besides VC's: the memo never reaches the pickle.
        fresh = generate_program(small_profile, phase=0)
        VirtualClusterPartitioner(num_virtual_clusters=2).annotate_program(fresh)
        assert pickle.dumps(partitioned) == pickle.dumps(fresh)
        # The restored program rebuilds its own DDGs over its own instructions.
        _, ddgs = region_ddgs(restored, 128)
        by_sid = {inst.sid: inst for inst in restored.all_instructions()}
        assert all(
            inst is by_sid[inst.sid]
            for ddg in ddgs
            if ddg is not None
            for inst in ddg.instructions
        )
