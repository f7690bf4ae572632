"""Unit tests for the run-time steering policies (repro.steering)."""

from __future__ import annotations

import pytest

from repro.steering.base import STALL, SteeringContext
from repro.steering.baselines import (
    DependenceOnlySteering,
    LoadBalanceSteering,
    RoundRobinSteering,
)
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.compiled import CompiledUopView
from repro.uops.opcodes import IssueQueueKind, UopClass
from tests.conftest import make_instruction, make_trace


class FakeContext(SteeringContext):
    """A scriptable steering context for policy unit tests."""

    def __init__(self, num_clusters=2, occupancy=None, free=None, locations=None):
        self._num_clusters = num_clusters
        self._occupancy = occupancy or [0] * num_clusters
        self._free = free if free is not None else {}
        self._locations = locations or {}

    @property
    def num_clusters(self):
        return self._num_clusters

    def cluster_occupancy(self, cluster):
        return self._occupancy[cluster]

    def queue_free(self, cluster, kind):
        return self._free.get((cluster, kind), 8)

    def register_location_mask(self, reg):
        return self._locations.get(reg, 0)


def make_uop(opclass=UopClass.INT_ALU, srcs=(), dests=(10,), vc_id=None,
             chain_leader=False, static_cluster=None):
    static = make_instruction(opclass, dests, srcs)
    return CompiledUopView(
        make_trace(
            [static],
            vc_ids=[vc_id],
            chain_leaders=[chain_leader],
            static_clusters=[static_cluster],
        )
    )


class TestOneCluster:
    def test_always_same_cluster(self):
        policy = OneClusterSteering()
        policy.reset(2)
        context = FakeContext()
        for _ in range(5):
            assert policy.pick_cluster(make_uop(), context) == 0

    def test_target_out_of_range_detected_at_reset(self):
        policy = OneClusterSteering(target_cluster=3)
        with pytest.raises(ValueError):
            policy.reset(2)

    def test_no_hardware(self):
        hardware = OneClusterSteering().hardware()
        assert not hardware.dependence_check and not hardware.vote_unit
        assert not hardware.workload_counters


class TestOccupancyAware:
    def test_follows_source_majority(self):
        policy = OccupancyAwareSteering()
        policy.reset(2)
        context = FakeContext(locations={1: 0b10, 2: 0b10, 3: 0b01})
        uop = make_uop(srcs=(1, 2, 3))
        assert policy.pick_cluster(uop, context) == 1

    def test_tie_broken_by_occupancy(self):
        policy = OccupancyAwareSteering()
        policy.reset(2)
        context = FakeContext(occupancy=[10, 2], locations={1: 0b01, 2: 0b10})
        uop = make_uop(srcs=(1, 2))
        assert policy.pick_cluster(uop, context) == 1

    def test_no_located_sources_uses_least_loaded(self):
        policy = OccupancyAwareSteering()
        policy.reset(2)
        context = FakeContext(occupancy=[5, 1])
        assert policy.pick_cluster(make_uop(srcs=()), context) == 1

    def test_stalls_when_preferred_full_and_others_busy(self):
        policy = OccupancyAwareSteering(idle_fraction=0.5)
        policy.reset(2)
        context = FakeContext(
            occupancy=[10, 9],
            free={(0, IssueQueueKind.INT): 0, (1, IssueQueueKind.INT): 4},
            locations={1: 0b01},
        )
        assert policy.pick_cluster(make_uop(srcs=(1,)), context) is STALL

    def test_diverts_when_other_cluster_idle(self):
        policy = OccupancyAwareSteering(idle_fraction=0.5)
        policy.reset(2)
        context = FakeContext(
            occupancy=[10, 1],
            free={(0, IssueQueueKind.INT): 0, (1, IssueQueueKind.INT): 4},
            locations={1: 0b01},
        )
        assert policy.pick_cluster(make_uop(srcs=(1,)), context) == 1

    def test_needs_all_table1_structures(self):
        hardware = OccupancyAwareSteering().hardware()
        assert hardware.dependence_check and hardware.vote_unit
        assert hardware.workload_counters and hardware.copy_generator

    def test_invalid_idle_fraction(self):
        with pytest.raises(ValueError):
            OccupancyAwareSteering(idle_fraction=2.0)


class TestStaticFollow:
    def test_follows_annotation(self):
        policy = StaticAssignmentSteering(name="OB")
        policy.reset(2)
        context = FakeContext()
        assert policy.pick_cluster(make_uop(static_cluster=1), context) == 1
        assert policy.pick_cluster(make_uop(static_cluster=0), context) == 0

    def test_unannotated_uses_default(self):
        policy = StaticAssignmentSteering(default_cluster=0)
        policy.reset(2)
        assert policy.pick_cluster(make_uop(), FakeContext()) == 0

    def test_binding_folded_onto_available_clusters(self):
        policy = StaticAssignmentSteering()
        policy.reset(2)
        assert policy.pick_cluster(make_uop(static_cluster=3), FakeContext()) == 1

    def test_only_copy_generator_needed(self):
        hardware = StaticAssignmentSteering().hardware()
        assert hardware.copy_generator
        assert not (hardware.dependence_check or hardware.vote_unit or hardware.workload_counters)


class TestVirtualCluster:
    def test_initial_mapping_is_identity_modulo_clusters(self):
        policy = VirtualClusterSteering(num_virtual_clusters=4)
        policy.reset(2)
        assert policy.mapping == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_non_leader_follows_table(self):
        policy = VirtualClusterSteering(num_virtual_clusters=2)
        policy.reset(2)
        context = FakeContext(occupancy=[9, 0])
        # Virtual cluster 0 maps to physical 0 initially; a non-leader must
        # follow that mapping even though cluster 1 is less loaded.
        assert policy.pick_cluster(make_uop(vc_id=0, chain_leader=False), context) == 0

    def test_leader_remaps_to_least_loaded(self):
        policy = VirtualClusterSteering(num_virtual_clusters=2)
        policy.reset(2)
        context = FakeContext(occupancy=[9, 0])
        assert policy.pick_cluster(make_uop(vc_id=0, chain_leader=True), context) == 1
        assert policy.mapping[0] == 1
        assert policy.remap_count == 1
        # Subsequent non-leaders of the same virtual cluster follow the update.
        assert policy.pick_cluster(make_uop(vc_id=0), context) == 1

    def test_unannotated_uop_falls_back(self):
        balanced = VirtualClusterSteering(fallback_balance=True)
        balanced.reset(2)
        fixed = VirtualClusterSteering(fallback_balance=False)
        fixed.reset(2)
        context = FakeContext(occupancy=[4, 1])
        assert balanced.pick_cluster(make_uop(), context) == 1
        assert fixed.pick_cluster(make_uop(), context) == 0

    def test_hardware_has_mapping_table_but_no_vote_unit(self):
        hardware = VirtualClusterSteering(num_virtual_clusters=2).hardware()
        assert hardware.workload_counters and hardware.copy_generator
        assert not hardware.dependence_check and not hardware.vote_unit
        assert hardware.mapping_table_entries == 2

    def test_reset_clears_state(self):
        policy = VirtualClusterSteering(num_virtual_clusters=2)
        policy.reset(2)
        policy.pick_cluster(make_uop(vc_id=0, chain_leader=True), FakeContext(occupancy=[5, 0]))
        policy.reset(2)
        assert policy.remap_count == 0
        assert policy.mapping == {0: 0, 1: 1}

    def test_invalid_vc_count(self):
        with pytest.raises(ValueError):
            VirtualClusterSteering(num_virtual_clusters=0)


class TestBaselines:
    def test_round_robin_cycles(self):
        policy = RoundRobinSteering()
        policy.reset(3)
        context = FakeContext(num_clusters=3)
        picks = [policy.pick_cluster(make_uop(), context) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_load_balance_picks_least_loaded(self):
        policy = LoadBalanceSteering()
        policy.reset(2)
        assert policy.pick_cluster(make_uop(), FakeContext(occupancy=[3, 1])) == 1

    def test_dependence_only_follows_sources(self):
        policy = DependenceOnlySteering()
        policy.reset(2)
        context = FakeContext(locations={5: 0b10})
        assert policy.pick_cluster(make_uop(srcs=(5,)), context) == 1
        assert policy.pick_cluster(make_uop(srcs=()), context) == 0

    def test_hardware_declarations_differ(self):
        assert LoadBalanceSteering().hardware().workload_counters
        assert not LoadBalanceSteering().hardware().dependence_check
        assert DependenceOnlySteering().hardware().dependence_check
        assert not DependenceOnlySteering().hardware().workload_counters
