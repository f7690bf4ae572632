"""Unit tests for the simulator building blocks (repro.cluster.*, except the pipeline)."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.cluster
from repro.cluster.cache import MemoryHierarchy, SetAssociativeCache
from repro.cluster.config import ClusterConfig, four_cluster_config, two_cluster_config
from repro.cluster.interconnect import Interconnect
from repro.cluster.issue_queue import IssueQueues
from repro.cluster.lsq import LoadStoreQueue
from repro.cluster.metrics import SimulationMetrics
from repro.cluster.regfile import RegisterFiles
from repro.cluster.rename import RegisterLocationTable
from repro.cluster.rob import ReorderBuffer
from repro.uops.opcodes import IssueQueueKind


class TestConfig:
    def test_table2_defaults(self):
        config = ClusterConfig()
        assert config.fetch_width == 6
        assert config.fetch_to_dispatch_latency == 5
        assert config.iq_int_size == 48 and config.iq_fp_size == 48 and config.iq_copy_size == 24
        assert config.issue_int_width == 2 and config.issue_copy_width == 1
        assert config.regfile_int_size == 256
        assert config.link_latency == 1
        assert config.l1_size_kb == 32 and config.l1_assoc == 4 and config.l1_hit_latency == 3
        assert config.l2_size_kb == 2048 and config.l2_hit_latency == 13
        assert config.memory_latency >= 500
        assert config.lsq_size == 256
        assert config.rob_size == 512 and config.commit_width == 6

    def test_factories(self):
        assert two_cluster_config().num_clusters == 2
        assert four_cluster_config().num_clusters == 4
        assert two_cluster_config(link_latency=3).link_latency == 3

    def test_with_overrides_returns_new_object(self):
        config = ClusterConfig()
        modified = config.with_overrides(num_clusters=4)
        assert config.num_clusters == 2 and modified.num_clusters == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_clusters=0)
        with pytest.raises(ValueError):
            ClusterConfig(link_latency=-1)
        with pytest.raises(ValueError):
            ClusterConfig(num_clusters=32)

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("regfile_int_size", 0),
            ("regfile_fp_size", 0),
            ("l1_read_ports", 0),
            ("l1_hit_latency", -1),
            ("l2_hit_latency", -1),
            ("mispredict_redirect_penalty", -1),
            ("l1_assoc", 0),
            ("l2_assoc", 0),
            ("copies_per_link_per_cycle", 0),
        ],
    )
    def test_machine_limits_rejected_by_name(self, field_name, value):
        """A register file or L1 port count of 0 would stall dispatch or
        issue until ``max_cycles``; a negative latency would run silently; a
        zero associativity or copy bandwidth failed only once the run built
        its caches or interconnect, with a message naming neither field."""
        with pytest.raises(ValueError, match=field_name):
            ClusterConfig(**{field_name: value})

    @pytest.mark.parametrize("level", ["l1", "l2"])
    def test_cache_with_fewer_lines_than_ways_rejected_by_name(self, level):
        """A 1 KB cache of 64-byte lines has 16 lines: it cannot hold 64 ways."""
        with pytest.raises(ValueError, match=f"{level}_assoc=64 exceeds the 16 lines"):
            ClusterConfig(**{f"{level}_size_kb": 1, f"{level}_assoc": 64})
        ClusterConfig(**{f"{level}_size_kb": 1, f"{level}_assoc": 16})

    def test_every_modelled_field_is_read_by_the_simulator(self):
        """Each field but ``l1_write_ports`` (not modelled) is read as
        ``config.<field>`` by code under ``repro/cluster/``, so a machine
        setting that changes only the cache key cannot creep back in."""
        read = set()
        for path in sorted(Path(repro.cluster.__file__).parent.glob("*.py")):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    owner = node.value
                    name = getattr(owner, "id", None) or getattr(owner, "attr", None)
                    if name == "config":
                        read.add(node.attr)
        unread = {field.name for field in dataclasses.fields(ClusterConfig)} - read
        assert unread == {"l1_write_ports"}


class TestCache:
    def test_hit_after_allocation(self):
        cache = SetAssociativeCache(size_kb=4, assoc=2, line_size=64, hit_latency=3)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)  # same line
        assert not cache.access(64)  # next line

    def test_every_miss_allocates(self):
        cache = SetAssociativeCache(size_kb=4, assoc=2, line_size=64, hit_latency=3)
        with pytest.raises(TypeError):
            cache.access(0, allocate=False)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(size_kb=1, assoc=2, line_size=64, hit_latency=1)
        sets = cache.num_sets
        conflicting = [i * sets * 64 for i in range(3)]  # three lines, same set
        cache.access(conflicting[0])
        cache.access(conflicting[1])
        cache.access(conflicting[2])  # evicts the LRU line (0)
        assert not cache.access(conflicting[0])

    def test_stats(self):
        cache = SetAssociativeCache(size_kb=4, assoc=2, line_size=64, hit_latency=3)
        cache.access(0)
        cache.access(0)
        assert cache.stats.accesses == 2 and cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.stats.accesses == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_kb=0, assoc=1, line_size=64, hit_latency=1)
        with pytest.raises(ValueError):
            SetAssociativeCache(size_kb=1, assoc=64, line_size=64, hit_latency=1)

    def test_hierarchy_latencies(self):
        config = ClusterConfig()
        hierarchy = MemoryHierarchy.from_config(config)
        first = hierarchy.load_latency(0)
        assert first == config.memory_latency
        assert hierarchy.load_latency(0) == config.l1_hit_latency
        summary = hierarchy.summary()
        assert summary["l1_accesses"] == 2.0

    def test_hierarchy_l2_hit(self):
        config = ClusterConfig(l1_size_kb=1, l1_assoc=1)
        hierarchy = MemoryHierarchy.from_config(config)
        # Touch enough lines to evict address 0 from the tiny L1 but keep it in L2.
        hierarchy.load_latency(0)
        for i in range(1, 64):
            hierarchy.load_latency(i * 64 * hierarchy.l1.num_sets)
        assert hierarchy.load_latency(0) == config.l2_hit_latency


class TestInterconnect:
    def test_latency(self):
        link = Interconnect(2, link_latency=1, copies_per_cycle=1)
        assert link.schedule_transfer(0, 1, ready_cycle=10) == 11

    def test_bandwidth_serialisation(self):
        link = Interconnect(2, link_latency=1, copies_per_cycle=1)
        arrivals = [link.schedule_transfer(0, 1, ready_cycle=5) for _ in range(3)]
        assert arrivals == [6, 7, 8]

    def test_directions_independent(self):
        link = Interconnect(2)
        a = link.schedule_transfer(0, 1, 0)
        b = link.schedule_transfer(1, 0, 0)
        assert a == b == 1

    def test_higher_bandwidth(self):
        link = Interconnect(2, link_latency=1, copies_per_cycle=2)
        arrivals = [link.schedule_transfer(0, 1, ready_cycle=0) for _ in range(4)]
        assert arrivals == [1, 1, 2, 2]

    def test_invalid_pairs(self):
        link = Interconnect(2)
        with pytest.raises(ValueError):
            link.schedule_transfer(0, 0, 0)
        with pytest.raises(ValueError):
            link.schedule_transfer(0, 5, 0)

    def test_transfer_statistics_and_reset(self):
        link = Interconnect(2)
        link.schedule_transfer(0, 1, 0)
        link.schedule_transfer(0, 1, 0)
        assert sum(link.transfers.values()) == 2
        link.reset()
        assert sum(link.transfers.values()) == 0


class TestIssueQueues:
    def test_capacities_from_config(self):
        queues = IssueQueues(ClusterConfig())
        assert queues.capacity_list()[IssueQueueKind.INT] == 48
        assert queues.capacity_list()[IssueQueueKind.COPY] == 24
        assert queues.issue_width(IssueQueueKind.COPY) == 1

    def test_allocate_release(self):
        queues = IssueQueues(ClusterConfig(iq_copy_size=2))
        assert queues.allocate(0, IssueQueueKind.COPY)
        assert queues.allocate(0, IssueQueueKind.COPY)
        assert not queues.allocate(0, IssueQueueKind.COPY)
        assert queues.free_entries(0, IssueQueueKind.COPY) == 0
        queues.release(0, IssueQueueKind.COPY)
        assert queues.free_entries(0, IssueQueueKind.COPY) == 1

    def test_release_empty_raises(self):
        queues = IssueQueues(ClusterConfig())
        with pytest.raises(RuntimeError):
            queues.release(0, IssueQueueKind.INT)

    def test_ready_list_is_oldest_first(self):
        queues = IssueQueues(ClusterConfig())
        queues.push_ready(0, IssueQueueKind.INT, 5, "b")
        queues.push_ready(0, IssueQueueKind.INT, 2, "a")
        assert queues.pop_ready(0, IssueQueueKind.INT) == "a"
        assert queues.pop_ready(0, IssueQueueKind.INT) == "b"
        assert queues.pop_ready(0, IssueQueueKind.INT) is None


class TestReorderBuffer:
    def test_capacity(self):
        rob = ReorderBuffer(2)
        assert rob.allocate("a") and rob.allocate("b")
        assert rob.is_full and not rob.allocate("c")
        assert rob.free_entries == 0

    def test_in_order_commit(self):
        rob = ReorderBuffer(4)
        entries = [SimpleNamespace(completed=False), SimpleNamespace(completed=True)]
        for entry in entries:
            rob.allocate(entry)
        # Head is not completed, so nothing retires even though a later µop is done.
        assert rob.commit_completed(4) == []
        entries[0].completed = True
        retired = rob.commit_completed(4)
        assert retired == entries
        assert rob.is_empty

    def test_commit_width_respected(self):
        rob = ReorderBuffer(8)
        entries = [SimpleNamespace(completed=True) for _ in range(6)]
        for entry in entries:
            rob.allocate(entry)
        assert rob.commit_completed(3) == entries[:3]
        assert len(rob) == 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestLoadStoreQueue:
    def test_allocate_release(self):
        lsq = LoadStoreQueue(2)
        assert lsq.allocate() and lsq.allocate()
        assert lsq.is_full and not lsq.allocate()
        lsq.release()
        assert lsq.free_entries == 1
        assert lsq.total_allocated == 2

    def test_release_empty_raises(self):
        with pytest.raises(RuntimeError):
            LoadStoreQueue(2).release()


class TestRegisterFiles:
    def test_allocation_by_kind(self):
        config = ClusterConfig(regfile_int_size=2, regfile_fp_size=1)
        files = RegisterFiles(config)
        assert files.can_allocate_counts(0, 2, 0)
        files.allocate_counts(0, 2, 0)
        assert not files.can_allocate_counts(0, 1, 0)
        assert files.can_allocate_counts(0, 0, 1)  # FP register still free
        files.allocate_counts(0, 0, 1)
        assert not files.can_allocate_counts(0, 0, 1)
        files.release_counts(0, 2, 0)
        assert files.can_allocate_counts(0, 1, 0)
        with pytest.raises(RuntimeError):
            files.allocate_counts(0, 0, 1)  # underflow

    def test_clusters_independent(self):
        files = RegisterFiles(ClusterConfig(regfile_int_size=1))
        files.allocate_counts(0, 1, 0)
        assert not files.can_allocate_counts(0, 1, 0)
        assert files.can_allocate_counts(1, 1, 0)

    def test_over_release_raises(self):
        files = RegisterFiles(ClusterConfig())
        with pytest.raises(RuntimeError):
            files.release_counts(0, 1, 0)


class TestRename:
    def test_initial_values_available_everywhere_by_default(self):
        table = RegisterLocationTable(num_registers=8, num_clusters=2)
        assert table.location_mask(3) == 0b11

    def test_live_ins_have_no_home_cluster_setting(self):
        with pytest.raises(TypeError):
            RegisterLocationTable(num_registers=8, num_clusters=2, initial_cluster=1)

    def test_define_moves_home(self):
        table = RegisterLocationTable(num_registers=8, num_clusters=2)
        value = table.define(3, producer="uop", cluster=1)
        assert table.location_mask(3) == 0b10
        assert not value.is_ready_in(1)
        value.mark_ready(1)
        assert value.is_ready_in(1)

    def test_redefinition_creates_fresh_value(self):
        table = RegisterLocationTable(num_registers=8, num_clusters=2)
        first = table.define(3, producer="a", cluster=0)
        second = table.define(3, producer="b", cluster=1)
        assert first is not second
        assert table.current(3) is second

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterLocationTable(0, 2)
        table = RegisterLocationTable(8, 2)
        with pytest.raises(ValueError):
            table.define(0, producer=None, cluster=9)


class TestMetrics:
    def test_derived_quantities(self):
        metrics = SimulationMetrics(num_clusters=2)
        metrics.cycles = 100
        metrics.committed_uops = 250
        metrics.copies_generated = 25
        metrics.allocation_stalls = [3, 7]
        metrics.steering_stalls = 5
        metrics.cluster_dispatch = [150, 100]
        assert metrics.ipc == pytest.approx(2.5)
        assert metrics.total_allocation_stalls == 10
        assert metrics.balance_stalls == 15

    def test_zero_division_guards(self):
        metrics = SimulationMetrics(num_clusters=2)
        assert metrics.ipc == 0.0
