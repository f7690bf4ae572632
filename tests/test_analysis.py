"""Unit tests for the compiler analyses (repro.analysis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.criticality import compute_criticality
from repro.analysis.slack import compute_slack
from repro.partition.ob_partitioner import OperationBasedPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.uops.opcodes import UopClass, latency_of
from tests.conftest import block_ddg, critical_nodes, edge_latency, make_instruction


def chain_ddg(length, opclass=UopClass.INT_ALU):
    """A pure serial chain of ``length`` operations."""
    instructions = [make_instruction(opclass, dests=(10,), srcs=(0,))]
    for i in range(1, length):
        instructions.append(make_instruction(opclass, dests=(10 + i,), srcs=(9 + i,)))
    return block_ddg(instructions)


class TestCriticality:
    def test_serial_chain(self):
        ddg = chain_ddg(4)
        info = compute_criticality(ddg)
        latency = latency_of(UopClass.INT_ALU)
        assert info.depth == (0, latency, 2 * latency, 3 * latency)
        assert info.height == (4 * latency, 3 * latency, 2 * latency, latency)
        # Every node of a serial chain is critical.
        assert critical_nodes(info) == [0, 1, 2, 3]
        assert info.critical_path_length == 4 * latency

    def test_independent_nodes_have_zero_depth(self, two_chain_block):
        info = compute_criticality(block_ddg(two_chain_block))
        assert info.depth[0] == 0 and info.depth[1] == 0

    def test_criticality_is_depth_plus_height(self, simple_block):
        info = compute_criticality(block_ddg(simple_block))
        for node in range(len(info.depth)):
            assert info.criticality[node] == info.depth[node] + info.height[node]

    def test_long_latency_node_dominates_critical_path(self):
        instructions = [
            make_instruction(UopClass.INT_DIV, dests=(10,), srcs=(0,)),
            make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(1,)),
            make_instruction(UopClass.INT_ALU, dests=(12,), srcs=(10,)),
        ]
        info = compute_criticality(block_ddg(instructions))
        assert critical_nodes(info) == [0, 2]

    def test_empty_ddg(self):
        info = compute_criticality(block_ddg([]))
        assert info.critical_path_length == 0

    @settings(max_examples=25, deadline=None)
    @given(length=st.integers(min_value=1, max_value=40))
    def test_criticality_bounds_property(self, length):
        """depth+height of every node is bounded by the critical path and at least its latency."""
        ddg = chain_ddg(length)
        info = compute_criticality(ddg)
        for node in range(length):
            assert info.criticality[node] <= info.critical_path_length
            assert info.height[node] >= ddg.latencies[node]


class TestSlack:
    def test_critical_nodes_have_zero_slack(self):
        ddg = chain_ddg(5)
        slack = compute_slack(ddg)
        assert all(s == 0 for s in slack.node_slack)
        assert len(slack.edge_slack) == ddg.num_edges
        assert all(s == 0 for s in slack.edge_slack)

    def test_off_critical_path_has_positive_slack(self):
        instructions = [
            make_instruction(UopClass.INT_DIV, dests=(10,), srcs=(0,)),  # 20 cycles
            make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(1,)),  # 1 cycle, slack
            make_instruction(UopClass.INT_ALU, dests=(12,), srcs=(10, 11)),
        ]
        slack = compute_slack(block_ddg(instructions))
        assert slack.node_slack[1] > 0
        assert slack.node_slack[0] == 0

    def test_edge_weight_monotone_in_slack(self):
        instructions = [
            make_instruction(UopClass.INT_DIV, dests=(10,), srcs=(0,)),
            make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(1,)),
            make_instruction(UopClass.INT_ALU, dests=(12,), srcs=(10, 11)),
        ]
        ddg = block_ddg(instructions)
        weight = dict(zip(edge_latency(ddg), compute_slack(ddg).edge_weights()))
        assert weight[(0, 2)] >= weight[(1, 2)] >= 1

    def test_node_weight_is_unit(self):
        assert compute_slack(chain_ddg(3)).node_weights() == [1, 1, 1]

    def test_computed_once_per_graph(self):
        ddg = chain_ddg(4)
        assert compute_slack(ddg) is compute_slack(ddg)
        assert compute_slack(ddg).criticality is compute_criticality(ddg)


def independent_ddg(size):
    """``size`` operations with no dependence between them."""
    return block_ddg([make_instruction(dests=(10 + i,), srcs=(i,)) for i in range(size)])


class TestCompletionTimeEstimator:
    """The completion-time estimate the OB and VC passes place instructions by."""

    def test_serial_chain_accumulates_latency(self):
        # Staying on the producer's cluster always completes earliest.
        placement = OperationBasedPartitioner(2, issue_width=8, balance_bias=0.0)
        assert placement.partition_region(chain_ddg(3)) == [0, 0, 0]

    def test_cross_cluster_dependence_pays_communication(self):
        def placed(latency):
            placement = OperationBasedPartitioner(
                2, issue_width=8, communication_latency=latency, balance_bias=0.0
            )
            return placement.partition_region(chain_ddg(2))

        # Free communication ties the clusters, and the idle one wins.
        assert placed(0) == [0, 1]
        assert placed(3) == [0, 0]

    def test_absolute_contention_grows_with_load(self):
        placement = OperationBasedPartitioner(2, issue_width=1, balance_bias=0.0)
        assert placement.partition_region(independent_ddg(4)) == [0, 1, 0, 1]

    def test_relative_contention_only_penalises_excess(self):
        assignment = VirtualClusterPartitioner(2, issue_width=1).partition_region(
            independent_ddg(6)
        )
        assert assignment.count(0) == assignment.count(1) == 3
        # A serial chain pays no contention: only excess over the average
        # load delays a node, and the chain's producer dominates.
        assert len(set(VirtualClusterPartitioner(2).partition_region(chain_ddg(8)))) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            VirtualClusterPartitioner(0)
        with pytest.raises(ValueError):
            VirtualClusterPartitioner(2, issue_width=0)
        with pytest.raises(ValueError):
            OperationBasedPartitioner(2, issue_width=0)
