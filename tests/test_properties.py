"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.criticality import compute_criticality
from repro.analysis.slack import compute_slack
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import SimulationMetrics
from repro.cluster.processor import simulate_trace
from repro.experiments.slowdown import float64_mean
from repro.partition.chains import identify_chains
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.opcodes import UopClass
from tests.conftest import (
    TEST_OBJECTIVE,
    block_ddg,
    critical_nodes,
    edge_latency,
    make_instruction,
    make_trace,
    partition_graph,
    predecessors,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

OPCLASSES = st.sampled_from(
    [
        UopClass.INT_ALU,
        UopClass.INT_MUL,
        UopClass.LOAD,
        UopClass.STORE,
        UopClass.FP_ADD,
        UopClass.BRANCH,
    ]
)


@st.composite
def instruction_sequences(draw, min_size=2, max_size=60):
    """Random but well-formed program-ordered instruction sequences."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    instructions = []
    for _ in range(size):
        opclass = draw(OPCLASSES)
        num_srcs = draw(st.integers(min_value=0, max_value=2))
        srcs = tuple(draw(st.integers(min_value=0, max_value=31)) for _ in range(num_srcs))
        if opclass in (UopClass.STORE, UopClass.BRANCH):
            dests = ()
        else:
            dests = (draw(st.integers(min_value=0, max_value=31)),)
        instructions.append(make_instruction(opclass, dests, srcs))
    return instructions


common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# DDG / analysis invariants
# ---------------------------------------------------------------------------


class TestDDGProperties:
    @common_settings
    @given(instructions=instruction_sequences())
    def test_ddg_edges_respect_program_order(self, instructions):
        ddg = block_ddg(instructions)
        for producer, consumer in edge_latency(ddg):
            assert producer < consumer

    @common_settings
    @given(instructions=instruction_sequences())
    def test_ddg_is_acyclic(self, instructions):
        # Every adjacency-list edge runs forward in the region, so no cycle
        # can close: program order is a topological order.
        ddg = block_ddg(instructions)
        for node in range(len(ddg)):
            assert all(producer < node for producer in predecessors(ddg, node))
        assert all(p < c for p, c in zip(ddg.pred_nodes, ddg.edge_consumers))

    @common_settings
    @given(instructions=instruction_sequences())
    def test_criticality_consistency(self, instructions):
        ddg = block_ddg(instructions)
        info = compute_criticality(ddg)
        latency = edge_latency(ddg)
        for node in range(len(ddg)):
            assert info.criticality[node] == info.depth[node] + info.height[node]
            assert info.height[node] >= ddg.latencies[node]
            assert info.criticality[node] <= info.critical_path_length
            for pred in predecessors(ddg, node):
                assert info.depth[node] >= info.depth[pred] + latency[(pred, node)]

    @common_settings
    @given(instructions=instruction_sequences())
    def test_slack_non_negative_and_zero_on_critical_path(self, instructions):
        ddg = block_ddg(instructions)
        slack = compute_slack(ddg)
        assert all(s >= 0 for s in slack.node_slack)
        assert all(s >= 0 for s in slack.edge_slack)
        critical = critical_nodes(slack.criticality)
        assert critical, "every non-empty DDG has at least one critical node"
        assert all(slack.node_slack[node] == 0 for node in critical)


# ---------------------------------------------------------------------------
# Partitioning invariants
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @common_settings
    @given(instructions=instruction_sequences(), vcs=st.integers(min_value=1, max_value=4))
    def test_vc_partition_complete_and_in_range(self, instructions, vcs):
        ddg = block_ddg(instructions)
        assignment = VirtualClusterPartitioner(vcs).partition_region(ddg)
        assert len(assignment) == len(ddg)
        assert all(0 <= vc < vcs for vc in assignment)

    @common_settings
    @given(instructions=instruction_sequences(), vcs=st.integers(min_value=1, max_value=4))
    def test_chains_partition_the_ddg(self, instructions, vcs):
        ddg = block_ddg(instructions)
        assignment = VirtualClusterPartitioner(vcs).partition_region(ddg)
        chains, leaders = identify_chains(ddg, assignment)
        nodes = sorted(n for chain in chains for n in chain.nodes)
        assert nodes == list(range(len(ddg)))
        assert sum(leaders) == len(chains)
        for chain in chains:
            assert leaders[chain.nodes[0]]
            assert all(assignment[node] == chain.vc_id for node in chain.nodes)

    @common_settings
    @given(
        instructions=instruction_sequences(),
        parts=st.integers(min_value=2, max_value=4),
    )
    def test_multilevel_partition_respects_parts(self, instructions, parts):
        ddg = block_ddg(instructions)
        slack = compute_slack(ddg)
        weights = [1] * len(ddg)
        edges = dict(zip(edge_latency(ddg), slack.edge_weights()))
        assignment = partition_graph(MultilevelPartitioner(parts, TEST_OBJECTIVE), weights, edges)
        assert len(assignment) == len(ddg)
        assert all(0 <= part < parts for part in assignment)


# ---------------------------------------------------------------------------
# Simulator invariants
# ---------------------------------------------------------------------------


def trace_from_instructions(instructions, static_clusters=None):
    addresses = [
        (i * 64) % 4096 if inst.is_memory else 0 for i, inst in enumerate(instructions)
    ]
    return make_trace(instructions, addresses=addresses, static_clusters=static_clusters)


class TestSimulatorProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instructions=instruction_sequences(min_size=5, max_size=80))
    def test_simulation_commits_everything_and_is_deterministic(self, instructions):
        trace = trace_from_instructions(instructions)
        config = ClusterConfig(fetch_to_dispatch_latency=1, warm_caches=False)
        policy = VirtualClusterSteering(2)
        first = simulate_trace(trace, policy, config)
        second = simulate_trace(trace, VirtualClusterSteering(2), config)
        assert first.committed_uops == len(trace)
        assert first.cycles == second.cycles
        assert first.copies_generated == second.copies_generated

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instructions=instruction_sequences(min_size=5, max_size=80))
    def test_cycles_bounded_below_by_width_and_above_by_serial_execution(self, instructions):
        trace = trace_from_instructions(instructions)
        config = ClusterConfig(fetch_to_dispatch_latency=1, warm_caches=False)
        metrics = simulate_trace(trace, VirtualClusterSteering(2), config)
        # Lower bound: dispatch width limits throughput.
        assert metrics.cycles >= len(trace) / config.dispatch_width
        # Upper bound: even fully serialised execution with worst-case memory
        # latency per µop cannot take longer than this.
        worst_per_uop = config.memory_latency + config.fetch_to_dispatch_latency + 32
        assert metrics.cycles <= len(trace) * worst_per_uop

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instructions=instruction_sequences(min_size=5, max_size=60),
        num_clusters=st.integers(min_value=1, max_value=4),
    )
    def test_dispatch_distribution_sums_to_trace_length(self, instructions, num_clusters):
        trace = trace_from_instructions(instructions)
        config = ClusterConfig(
            num_clusters=num_clusters, fetch_to_dispatch_latency=1, warm_caches=False
        )
        metrics = simulate_trace(trace, VirtualClusterSteering(2), config)
        assert sum(metrics.cluster_dispatch) == len(trace)
        assert metrics.committed_uops == len(trace)


# ---------------------------------------------------------------------------
# Steering / copy-generation invariants
# ---------------------------------------------------------------------------


class TestSteeringAndCopyProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instructions=instruction_sequences(min_size=4, max_size=60),
        num_clusters=st.integers(min_value=1, max_value=4),
    )
    def test_every_dispatched_uop_lands_on_a_valid_cluster(self, instructions, num_clusters):
        """The dispatch distribution covers exactly the machine's cluster ids."""
        trace = trace_from_instructions(instructions)
        config = ClusterConfig(
            num_clusters=num_clusters, fetch_to_dispatch_latency=1, warm_caches=False
        )
        for policy in (OccupancyAwareSteering(), OneClusterSteering(), VirtualClusterSteering(2)):
            metrics = simulate_trace(trace, policy, config)
            assert len(metrics.cluster_dispatch) == num_clusters
            assert all(count >= 0 for count in metrics.cluster_dispatch)
            assert sum(metrics.cluster_dispatch) == metrics.dispatched_uops == len(trace)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instructions=instruction_sequences(min_size=4, max_size=60))
    def test_no_copies_when_no_operand_is_remote(self, instructions):
        """Copies are generated only for remote operands: a single-cluster
        machine and an all-on-one-cluster assignment both need none."""
        trace = trace_from_instructions(instructions)
        single = ClusterConfig(num_clusters=1, fetch_to_dispatch_latency=1, warm_caches=False)
        assert simulate_trace(trace, VirtualClusterSteering(2), single).copies_generated == 0

        two = ClusterConfig(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
        assert simulate_trace(trace, OneClusterSteering(), two).copies_generated == 0

        trace = trace_from_instructions(instructions, static_clusters=[0] * len(instructions))
        assert simulate_trace(trace, StaticAssignmentSteering(), two).copies_generated == 0

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instructions=instruction_sequences(min_size=4, max_size=60))
    def test_copies_generated_iff_a_dependence_crosses_clusters(self, instructions):
        """Under a static placement, copy µops exist exactly when some true
        register dependence connects instructions on different clusters
        (live-ins are ready in every cluster, so they never need copies)."""
        assignment = [sid % 2 for sid in range(len(instructions))]
        trace = trace_from_instructions(instructions, static_clusters=assignment)
        config = ClusterConfig(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
        metrics = simulate_trace(trace, StaticAssignmentSteering(), config)

        ddg = block_ddg(instructions)
        crossing = [
            (producer, consumer)
            for producer, consumer in edge_latency(ddg)
            if assignment[producer] != assignment[consumer]
        ]
        if crossing:
            assert metrics.copies_generated > 0
            # A value is copied to a given cluster at most once, so the copy
            # count never exceeds the number of crossing dependences.
            assert metrics.copies_generated <= len(crossing)
        else:
            assert metrics.copies_generated == 0
        assert sum(metrics.cluster_copies) == metrics.copies_generated

    def test_remote_operand_forces_exactly_one_copy(self):
        """Deterministic 'if' direction: producer on cluster 0, consumer on
        cluster 1 -- the value must traverse the interconnect exactly once."""
        producer = make_instruction(UopClass.INT_ALU, (1,), ())
        consumer = make_instruction(UopClass.INT_ALU, (2,), (1,))
        trace = trace_from_instructions([producer, consumer], static_clusters=[0, 1])
        config = ClusterConfig(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
        metrics = simulate_trace(trace, StaticAssignmentSteering(), config)
        assert metrics.copies_generated == 1
        assert metrics.cluster_copies == [1, 0]  # inserted in the producing cluster
        assert metrics.committed_uops == 2


# ---------------------------------------------------------------------------
# Engine serialisation invariants
# ---------------------------------------------------------------------------


@st.composite
def metrics_objects(draw):
    """Random but structurally valid SimulationMetrics instances."""
    num_clusters = draw(st.integers(min_value=1, max_value=4))
    counters = st.integers(min_value=0, max_value=10**9)
    per_cluster = st.lists(counters, min_size=num_clusters, max_size=num_clusters)
    cache_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
    return SimulationMetrics(
        num_clusters=num_clusters,
        cycles=draw(counters),
        committed_uops=draw(counters),
        dispatched_uops=draw(counters),
        copies_generated=draw(counters),
        steering_stalls=draw(counters),
        rob_stalls=draw(counters),
        lsq_stalls=draw(counters),
        mispredict_stalls=draw(counters),
        branches=draw(counters),
        mispredictions=draw(counters),
        cluster_dispatch=draw(per_cluster),
        allocation_stalls=draw(per_cluster),
        cluster_copies=draw(per_cluster),
        cache=draw(
            st.dictionaries(
                st.sampled_from(["l1_hit_rate", "l2_hit_rate", "l1_misses", "l2_misses"]),
                cache_floats,
                max_size=4,
            )
        ),
        vc_remaps=draw(counters),
    )


#: Any value a JSON cache entry can hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-5, max_value=10**12)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


class TestMetricsRoundTrip:
    @common_settings
    @given(metrics=metrics_objects())
    def test_to_dict_from_dict_is_identity(self, metrics):
        assert SimulationMetrics.from_dict(metrics.to_dict()) == metrics

    @common_settings
    @given(metrics=metrics_objects())
    def test_round_trip_survives_json_exactly(self, metrics):
        """The cache stores JSON: integers must stay integers and floats must
        round-trip bit-for-bit (Python's repr-based JSON floats do)."""
        rebuilt = SimulationMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert rebuilt == metrics
        assert isinstance(rebuilt.cycles, int)
        assert all(isinstance(count, int) for count in rebuilt.cluster_dispatch)

    def test_from_dict_rejects_unknown_fields(self):
        dump = SimulationMetrics(num_clusters=2).to_dict()
        dump["bogus_counter"] = 1
        with pytest.raises(ValueError):
            SimulationMetrics.from_dict(dump)

    def test_from_dict_rejects_missing_fields(self):
        """An incomplete dump (e.g. written by an older schema) must fail
        loudly, not deserialise to default-zero counters."""
        dump = SimulationMetrics(num_clusters=2).to_dict()
        del dump["cycles"]
        with pytest.raises(ValueError, match="missing"):
            SimulationMetrics.from_dict(dump)
        with pytest.raises(ValueError):
            SimulationMetrics.from_dict({})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("branches", -5),
            ("cycles", 1.5),
            ("vc_remaps", True),
            ("num_clusters", 0),
            ("cluster_dispatch", [1, 2, 3]),
            ("allocation_stalls", [0, -1]),
            ("cluster_copies", [0, False]),
            ("cache", {"l1_hit_rate": "high"}),
            ("cache", {"l1_misses": True}),
        ],
    )
    def test_from_dict_rejects_impossible_dumps(self, field, value):
        """A dump no run can produce fails naming its field, so the result
        cache serves it as a miss instead of as metrics."""
        dump = SimulationMetrics(num_clusters=2).to_dict()
        dump[field] = value
        with pytest.raises(ValueError, match=field):
            SimulationMetrics.from_dict(dump)

    @settings(max_examples=200, deadline=None)
    @given(metrics=metrics_objects(), data=st.data())
    def test_from_dict_fuzz_rejects_naming_a_field(self, metrics, data):
        """Replace, drop and add fields of a valid dump at random: every
        rejection is a ``ValueError`` naming a field, and an accepted dump
        round-trips."""
        dump = metrics.to_dict()
        names = sorted(dump)
        for name in data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3)):
            dump[name] = data.draw(JSON_VALUES)
        for name in data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2)):
            del dump[name]
        extra = data.draw(
            st.dictionaries(
                st.text(max_size=8).filter(lambda key: key not in names), JSON_VALUES, max_size=2
            )
        )
        dump.update(extra)
        try:
            rebuilt = SimulationMetrics.from_dict(dump)
        except ValueError as error:
            assert any(repr(name) in str(error) for name in [*names, *extra]), str(error)
        else:
            assert sorted(dump) == names
            assert SimulationMetrics.from_dict(rebuilt.to_dict()) == rebuilt

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instructions=instruction_sequences(min_size=5, max_size=40))
    def test_real_simulation_metrics_round_trip(self, instructions):
        trace = trace_from_instructions(instructions)
        config = ClusterConfig(fetch_to_dispatch_latency=1, warm_caches=False)
        metrics = simulate_trace(trace, VirtualClusterSteering(2), config)
        assert SimulationMetrics.from_dict(json.loads(json.dumps(metrics.to_dict()))) == metrics


# ---------------------------------------------------------------------------
# Report arithmetic
# ---------------------------------------------------------------------------

class TestFloat64Mean:
    @settings(max_examples=200, deadline=None)
    @given(length=st.integers(min_value=0, max_value=300), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_mean_bit_for_bit(self, length, seed):
        """Lengths 0-300 run the plain loop (< 8), the eight accumulators
        (<= 128) and the recursive halving (> 128) of numpy's pairwise sum,
        on magnitudes from 1e-3 to 1e3 of both signs."""
        rng = random.Random(seed)
        values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(length)]
        expected = float(np.mean(values)) if values else 0.0
        assert float64_mean(values).hex() == expected.hex()
