"""Tests of the full clustered pipeline (repro.cluster.processor)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.processor import ClusteredProcessor, simulate_trace
from repro.steering.baselines import LoadBalanceSteering, RoundRobinSteering
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.opcodes import IssueQueueKind, UopClass
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import make_instruction, make_trace


def straight_line_trace(length=50, dependent=False):
    """A synthetic trace of INT ALU µops (optionally one serial chain)."""
    instructions = []
    for i in range(length):
        srcs = (10 + (i - 1) % 40,) if (dependent and i > 0) else (0,)
        instructions.append(
            make_instruction(UopClass.INT_ALU, dests=(10 + i % 40,), srcs=srcs)
        )
    return make_trace(instructions)


def fast_config(**overrides):
    defaults = dict(num_clusters=2, fetch_to_dispatch_latency=1, warm_caches=False)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestBasicExecution:
    def test_all_uops_commit(self):
        trace = straight_line_trace(100)
        metrics = simulate_trace(trace, OneClusterSteering(), fast_config())
        assert metrics.committed_uops == 100
        assert metrics.dispatched_uops == 100
        assert metrics.cycles > 0

    def test_one_cluster_never_generates_copies(self, small_trace):
        _, trace = small_trace
        metrics = simulate_trace(trace, OneClusterSteering(), fast_config())
        assert metrics.copies_generated == 0
        assert metrics.cluster_dispatch[1] == 0

    def test_ipc_bounded_by_machine_width(self, small_trace):
        _, trace = small_trace
        metrics = simulate_trace(trace, OccupancyAwareSteering(), fast_config())
        assert 0 < metrics.ipc <= ClusterConfig().dispatch_width

    def test_deterministic(self, small_trace):
        _, trace = small_trace
        a = simulate_trace(trace, OccupancyAwareSteering(), fast_config())
        b = simulate_trace(trace, OccupancyAwareSteering(), fast_config())
        assert a.cycles == b.cycles
        assert a.copies_generated == b.copies_generated
        assert a.to_dict() == b.to_dict()

    def test_serial_chain_takes_at_least_chain_latency(self):
        trace = straight_line_trace(60, dependent=True)
        metrics = simulate_trace(trace, OccupancyAwareSteering(), fast_config())
        # A fully serial chain of 60 single-cycle operations cannot finish in
        # fewer than 60 cycles regardless of machine width.
        assert metrics.cycles >= 60

    def test_parallel_trace_much_faster_than_serial(self):
        independent = straight_line_trace(120, dependent=False)
        serial = straight_line_trace(120, dependent=True)
        fast = simulate_trace(independent, OccupancyAwareSteering(), fast_config())
        slow = simulate_trace(serial, OccupancyAwareSteering(), fast_config())
        assert fast.cycles < slow.cycles

    def test_empty_dests_and_stores_commit(self):
        static_store = make_instruction(UopClass.STORE, dests=(), srcs=(0, 1))
        static_branch = make_instruction(UopClass.BRANCH, dests=(), srcs=(0,))
        trace = make_trace([static_store, static_branch], addresses=[64, 0])
        metrics = simulate_trace(trace, OneClusterSteering(), fast_config())
        assert metrics.committed_uops == 2

    def test_max_cycles_guard(self):
        trace = straight_line_trace(500)
        with pytest.raises(RuntimeError):
            simulate_trace(trace, OneClusterSteering(), fast_config(max_cycles=3))


class TestCopies:
    def test_cross_cluster_dependence_generates_copy(self):
        # µop 0 runs on cluster 0, µop 1 depends on it and is forced to cluster 1.
        producer = make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0,))
        consumer = make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(10,))
        trace = make_trace([producer, consumer], static_clusters=[0, 1])
        metrics = simulate_trace(trace, StaticAssignmentSteering(), fast_config())
        assert metrics.copies_generated == 1
        assert metrics.cluster_copies[0] == 1  # inserted in the producing cluster

    def test_same_cluster_dependence_needs_no_copy(self):
        producer = make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0,))
        consumer = make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(10,))
        trace = make_trace([producer, consumer], static_clusters=[1, 1])
        metrics = simulate_trace(trace, StaticAssignmentSteering(), fast_config())
        assert metrics.copies_generated == 0

    def test_copy_deduplication_for_multiple_consumers(self):
        # One producer on cluster 0 feeding two consumers on cluster 1: a
        # single copy suffices (the rename table knows the value location).
        producer = make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0,))
        consumers = [
            make_instruction(UopClass.INT_ALU, dests=(10 + i,), srcs=(10,)) for i in (1, 2)
        ]
        trace = make_trace([producer, *consumers], static_clusters=[0, 1, 1])
        metrics = simulate_trace(trace, StaticAssignmentSteering(), fast_config())
        assert metrics.copies_generated == 1

    def test_copy_adds_latency(self):
        def chain(cluster_of_consumer):
            producer = make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0,))
            consumer = make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(10,))
            return make_trace([producer, consumer], static_clusters=[0, cluster_of_consumer])

        local = simulate_trace(chain(0), StaticAssignmentSteering(), fast_config())
        remote = simulate_trace(chain(1), StaticAssignmentSteering(), fast_config())
        assert remote.cycles > local.cycles

    def test_round_robin_generates_many_copies_on_serial_chain(self):
        trace = straight_line_trace(80, dependent=True)
        metrics = simulate_trace(trace, RoundRobinSteering(), fast_config())
        # Most links of the chain cross clusters under round-robin steering
        # (not all: µops retried after a structural stall get re-steered, and
        # the retry can land them next to their producer).
        assert metrics.copies_generated >= len(trace) // 2
        assert metrics.copies_generated > 0


class TestStructuralLimits:
    def test_issue_queue_pressure_causes_allocation_stalls(self, small_trace):
        _, trace = small_trace
        tight = fast_config(iq_int_size=4, iq_fp_size=4)
        metrics = simulate_trace(trace, LoadBalanceSteering(), tight)
        assert metrics.total_allocation_stalls > 0
        assert metrics.committed_uops == len(trace)

    def test_small_rob_causes_rob_stalls(self, small_trace):
        _, trace = small_trace
        metrics = simulate_trace(trace, LoadBalanceSteering(), fast_config(rob_size=16))
        assert metrics.rob_stalls > 0

    def test_small_lsq_causes_lsq_stalls(self, small_trace):
        _, trace = small_trace
        metrics = simulate_trace(trace, LoadBalanceSteering(), fast_config(lsq_size=2))
        assert metrics.lsq_stalls > 0

    def test_tiny_copy_queue_still_completes(self):
        trace = straight_line_trace(60, dependent=True)
        metrics = simulate_trace(trace, RoundRobinSteering(), fast_config(iq_copy_size=1))
        assert metrics.committed_uops == 60

    def test_branch_mispredictions_slow_execution(self, small_profile):
        generator = WorkloadGenerator(small_profile.with_overrides(mispredict_rate=0.2))
        _, trace = generator.generate_compiled_trace(600, phase=0)
        with_penalty = simulate_trace(trace, OccupancyAwareSteering(), fast_config())
        without_penalty = simulate_trace(
            trace, OccupancyAwareSteering(), fast_config(model_branch_mispredictions=False)
        )
        assert with_penalty.cycles > without_penalty.cycles
        assert with_penalty.mispredictions > 0
        assert without_penalty.mispredict_stalls == 0

    def test_slower_link_hurts_copy_heavy_steering(self):
        trace = straight_line_trace(80, dependent=True)
        fast = simulate_trace(trace, RoundRobinSteering(), fast_config(link_latency=1))
        slow = simulate_trace(trace, RoundRobinSteering(), fast_config(link_latency=8))
        assert slow.cycles > fast.cycles


class TestSteeringContextView:
    def test_processor_exposes_context_interface(self, small_trace):
        _, trace = small_trace
        processor = ClusteredProcessor(fast_config(), OccupancyAwareSteering())
        processor.run(trace)
        assert processor.num_clusters == 2
        assert processor.cluster_occupancy(0) >= 0
        assert processor.queue_free(0, IssueQueueKind(trace.queue[0])) >= 0
        assert processor.register_location_mask(0) > 0

    def test_invalid_policy_cluster_detected(self, small_trace):
        class Broken(OneClusterSteering):
            def pick_cluster(self, uop, context):
                return 9

        _, trace = small_trace
        processor = ClusteredProcessor(fast_config(), Broken())
        with pytest.raises(ValueError):
            processor.run(trace)

    def test_vc_remaps_recorded_in_metrics(self, small_profile):
        from repro.partition.vc_partitioner import VirtualClusterPartitioner

        generator = WorkloadGenerator(small_profile)
        program, trace = generator.generate_compiled_trace(500, phase=0)
        trace.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
        metrics = simulate_trace(trace, VirtualClusterSteering(2), fast_config())
        assert metrics.vc_remaps > 0


class TestWarmCaches:
    def test_warmup_reduces_cycles(self, small_trace):
        _, trace = small_trace
        cold = simulate_trace(trace, OccupancyAwareSteering(), fast_config(warm_caches=False))
        warm = simulate_trace(trace, OccupancyAwareSteering(), fast_config(warm_caches=True))
        assert warm.cycles <= cold.cycles

    def test_warmup_does_not_change_committed_count(self, small_trace):
        _, trace = small_trace
        warm = simulate_trace(trace, OccupancyAwareSteering(), fast_config(warm_caches=True))
        assert warm.committed_uops == len(trace)


class TestCrossPolicyProperties:
    @settings(max_examples=10, deadline=None)
    @given(length=st.integers(min_value=20, max_value=200))
    def test_every_policy_commits_every_uop(self, length):
        trace = straight_line_trace(length, dependent=(length % 2 == 0))
        for policy in (
            OneClusterSteering(),
            OccupancyAwareSteering(),
            LoadBalanceSteering(),
            RoundRobinSteering(),
            VirtualClusterSteering(2),
        ):
            metrics = simulate_trace(trace, policy, fast_config())
            assert metrics.committed_uops == length

    def test_dispatch_counts_sum_to_trace_length(self, small_trace):
        _, trace = small_trace
        for policy in (OccupancyAwareSteering(), LoadBalanceSteering()):
            metrics = simulate_trace(trace, policy, fast_config())
            assert sum(metrics.cluster_dispatch) == len(trace)


class TestEventHeapHygiene:
    def test_heap_never_holds_drained_keys(self, small_trace):
        """Regression: ``_writeback`` must drop drained cycle keys eagerly.

        The old lazy-deletion scheme left stale keys on ``_event_heap`` until
        the next ``_next_event_cycle`` probe popped them, charging O(log n)
        per stale key to every idle-skip probe.  The invariant now is that
        after every step the heap holds exactly the keys of the live
        ``_events`` buckets.
        """

        class HeapAuditingProcessor(ClusteredProcessor):
            def _step(self):
                super()._step()
                assert sorted(self._event_heap) == sorted(self._events)

        _, trace = small_trace
        processor = HeapAuditingProcessor(
            fast_config(), OccupancyAwareSteering(), kernel="interpreter"
        )
        metrics = processor.run(trace)
        assert metrics.committed_uops == len(trace)
        # Fully drained at the end: no events, and no keys left behind.
        assert not processor._events and not processor._event_heap


class TestConservationLaws:
    """``SimulationMetrics.check_invariants`` passes real runs and names every breach."""

    @pytest.fixture
    def run(self, small_profile):
        config = ClusterConfig(num_clusters=2)
        _, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(600)
        metrics = ClusteredProcessor(config, OccupancyAwareSteering()).run(compiled)
        return metrics, compiled, config

    def test_real_run_keeps_every_law(self, run):
        metrics, compiled, config = run
        metrics.check_invariants(compiled, config)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda m: setattr(m, "committed_uops", m.committed_uops - 1), "trace length"),
            (lambda m: m.cluster_dispatch.__setitem__(0, m.cluster_dispatch[0] + 1), "cluster_dispatch"),
            (lambda m: setattr(m, "copies_generated", m.copies_generated + 1), "cluster_copies"),
            (lambda m: setattr(m, "mispredictions", m.branches + 1), "branches"),
            (lambda m: setattr(m, "cycles", 1), "commit width"),
            (lambda m: m.cache.__setitem__("l1_accesses", m.cache["l1_accesses"] + 1), "memory µops"),
            (lambda m: m.cache.__setitem__("l2_accesses", 0.0), "l2_accesses"),
        ],
    )
    def test_each_breach_is_named(self, run, tamper, message):
        metrics, compiled, config = run
        tamper(metrics)
        with pytest.raises(ValueError, match=message):
            metrics.check_invariants(compiled, config)

    def test_sanitized_runs_check_their_laws(self, small_profile, monkeypatch):
        """Every run checks itself on its frozen bound trace: a kernel that
        miscounted would raise at the end of ``run_bound``."""
        from repro.cluster.metrics import SimulationMetrics

        checked = []
        original = SimulationMetrics.check_invariants
        monkeypatch.setattr(
            SimulationMetrics,
            "check_invariants",
            lambda self, trace, config: checked.append(len(trace)) or original(self, trace, config),
        )
        _, compiled = WorkloadGenerator(small_profile).generate_compiled_trace(300)
        for kernel in ("interpreter", "vectorized"):
            ClusteredProcessor(ClusterConfig(), OneClusterSteering(), kernel=kernel).run(compiled)
        assert checked == [len(compiled)] * 2


@pytest.fixture(scope="module")
def galgel_trace():
    """178.galgel, phase 0, 300 µops: the trace a one-entry copy queue deadlocked."""
    from repro.workloads.spec2000 import profile_for

    return WorkloadGenerator(profile_for("178.galgel")).generate_compiled_trace(300, phase=0)


#: What bind says about a one-entry copy queue on a trace of two-source µops.
COPY_QUEUE_MESSAGE = r"iq_copy_size=1 is smaller than the 2 distinct in-trace sources of one µop"


class TestCopyQueueGuard:
    """A copy queue too small for one µop's sources is rejected at bind.

    A µop whose two sources live only in one other cluster needs two free
    entries of that cluster's copy queue at once; with one entry both
    kernels used to spin to ``max_cycles`` (5,000,000) for 15-26 s.
    """

    def test_trace_has_two_source_uops(self, galgel_trace):
        _, compiled = galgel_trace
        assert max(map(len, compiled.unique_src_tuples())) == 2
        assert max(map(len, compiled.dependency_plan().deps)) == 2

    @pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
    def test_one_entry_copy_queue_is_rejected(self, galgel_trace, kernel):
        _, compiled = galgel_trace
        config = ClusterConfig(num_clusters=4, iq_copy_size=1)
        processor = ClusteredProcessor(config, LoadBalanceSteering(), kernel=kernel)
        with pytest.raises(ValueError, match=COPY_QUEUE_MESSAGE):
            processor.run(compiled)

    @pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
    def test_two_entry_copy_queue_completes(self, galgel_trace, kernel):
        _, compiled = galgel_trace
        config = ClusterConfig(num_clusters=4, iq_copy_size=2)
        metrics = ClusteredProcessor(config, LoadBalanceSteering(), kernel=kernel).run(compiled)
        assert metrics.committed_uops == len(compiled)
        assert metrics.cycles == 297

    def test_single_cluster_machine_makes_no_copies(self, galgel_trace):
        """One cluster never copies, so its copy-queue size does not matter."""
        _, compiled = galgel_trace
        config = ClusterConfig(num_clusters=1, iq_copy_size=1)
        metrics = ClusteredProcessor(config, LoadBalanceSteering()).run(compiled)
        assert metrics.committed_uops == len(compiled)
        assert metrics.copies_generated == 0

    @pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
    def test_scenario_machine_override_is_rejected(self, tmp_path, monkeypatch, kernel):
        import json

        from repro.cli import main

        monkeypatch.setenv("REPRO_KERNEL", kernel)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = tmp_path / "tiny_copy_queue.json"
        path.write_text(
            json.dumps(
                {
                    "name": "tiny-copy-queue",
                    "report": "table",
                    "machine": {"preset": "table2-4c", "overrides": {"iq_copy_size": 1}},
                    "benchmarks": ["178.galgel"],
                    "configurations": [{"name": "LB", "policy": "load-balance"}],
                    "trace_length": 300,
                    "max_phases": 1,
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match=COPY_QUEUE_MESSAGE):
            main(["run", str(path), "--no-cache"])
