"""Parity contract between the interpreter and vectorized kernels.

The interpreter kernel (one ``_step`` per cycle over the compiled trace) is
the golden reference; the vectorized kernel runs the array tier over the
same trace and calls back into Python only on policy-acting cycles.  Both
must produce bit-identical metrics on every trace, with idle-cycle skipping
on or off.
These tests pin that contract:

* ``resolve_kernel`` precedence (explicit argument > ``$REPRO_KERNEL`` >
  built-in default, blank env treated as unset) and its rejection message,
* the full golden suite (all five Table 3 configurations) computed under
  every kernel and compared field-by-field against the interpreter,
* skip-vs-step parity: the same compiled trace with idle skipping disabled
  and enabled, under every kernel, including the bulk accounting of
  mispredict-redirect stall cycles that the skip path performs,
* the compiled steering tier: every builtin lowering (``compiled_spec``)
  runs fused and un-fused on the vectorized kernel and must be
  field-identical to the interpreter -- policy state included,
* form coverage: :data:`~repro.steering.base.SPEC_FORMS` holds exactly the
  forms the Table 3 policies lower to, every Table 3 configuration resolves
  to a fused form, the kernel has a code for each form, and every form's
  fused dispatch matches the interpreter on a fixed trace at two and four
  clusters,
* mid-batch fallback: a ``bind``/``run_bound`` sweep mixing lowered and
  un-lowered policies must match fresh per-policy interpreter runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.kernel import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    VectorizedKernel,
    _FORM_CALLBACK,
    _FORM_CODES,
    _resolve_spec,
    resolve_kernel,
)
from repro.cluster.processor import ClusteredProcessor, simulate_trace
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.golden import compute_golden_snapshot
from repro.partition.ob_partitioner import OperationBasedPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.steering.base import SPEC_FORMS, CompiledSteeringSpec, SteeringPolicy
from repro.steering.baselines import (
    DependenceOnlySteering,
    LoadBalanceSteering,
    RoundRobinSteering,
)
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.opcodes import UopClass
from repro.uops.registers import NUM_INT_REGISTERS
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for
from tests.conftest import make_instruction, make_trace


class TestResolveKernel:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel() == DEFAULT_KERNEL

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "vectorized")
        assert resolve_kernel("interpreter") == "interpreter"

    def test_env_applies_when_unpinned(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "interpreter")
        assert resolve_kernel() == "interpreter"

    def test_env_is_stripped_and_lowered(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "  INTERPRETER \t")
        assert resolve_kernel() == "interpreter"

    def test_blank_env_is_unset(self, monkeypatch):
        for blank in ("", "   ", "\t"):
            monkeypatch.setenv(KERNEL_ENV, blank)
            assert resolve_kernel() == DEFAULT_KERNEL

    def test_unknown_kernel_rejected(self, monkeypatch):
        valid = r"valid kernels: 'interpreter', 'vectorized'$"
        # The retired third kernel's name, and "auto" (the retired spelling
        # of None), are unknown kernels like any other.
        for bad in ("turbo", "auto", "vectorized" + "-jit"):
            monkeypatch.delenv(KERNEL_ENV, raising=False)
            with pytest.raises(ValueError, match=valid):
                resolve_kernel(bad)
            monkeypatch.setenv(KERNEL_ENV, bad)
            with pytest.raises(ValueError, match=valid):
                resolve_kernel()

    def test_rejection_lists_valid_kernels(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(ValueError) as excinfo:
            resolve_kernel("turbo")
        message = str(excinfo.value)
        assert "'turbo'" in message
        for kernel in KERNELS:
            assert repr(kernel) in message
        # The bad value came from the argument, not the environment.
        assert KERNEL_ENV not in message

    def test_rejection_attributes_env_source(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(ValueError) as excinfo:
            resolve_kernel()
        assert f"(from ${KERNEL_ENV})" in str(excinfo.value)

    def test_processor_honours_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "interpreter")
        processor = ClusteredProcessor(ClusterConfig(num_clusters=2), OneClusterSteering())
        assert processor.kernel == "interpreter"


@pytest.fixture(scope="module")
def golden_by_kernel():
    """The full golden snapshot computed once per kernel.

    ``monkeypatch`` is function-scoped, so the env pin is done by hand; the
    explicit pin also makes this test meaningful inside the CI parity matrix,
    which exports ``REPRO_KERNEL`` itself.
    """
    import os

    saved = os.environ.get(KERNEL_ENV)  # detlint: ok DET103 (save/restore around the pin)
    snapshots = {}
    try:
        for kernel in KERNELS:
            os.environ[KERNEL_ENV] = kernel
            snapshots[kernel] = compute_golden_snapshot()
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved
    return snapshots


class TestGoldenSuiteParity:
    @pytest.mark.parametrize("kernel", ["interpreter", "vectorized"])
    def test_golden_suite_keeps_conservation_laws(self, kernel, monkeypatch):
        """Every run checks its own conservation laws
        (``SimulationMetrics.check_invariants``) on a frozen bound trace, so
        a clean golden run is the check over the whole suite."""
        monkeypatch.setenv(KERNEL_ENV, kernel)
        assert compute_golden_snapshot()["cases"]

    def test_golden_suite_bit_identical_across_kernels(self, golden_by_kernel):
        reference = golden_by_kernel["interpreter"]
        for kernel in KERNELS:
            if kernel == "interpreter":
                continue
            other = golden_by_kernel[kernel]
            assert reference["settings"] == other["settings"]
            for case_i, case_k in zip(reference["cases"], other["cases"]):
                assert case_i == case_k, (
                    f"{kernel} divergence on "
                    f"{case_i['benchmark']}/{case_i['configuration']}"
                )


def _policy_factories():
    return {
        "OP": OccupancyAwareSteering,
        "VC": lambda: VirtualClusterSteering(2),
        "LD": LoadBalanceSteering,
        "RR": RoundRobinSteering,
        "1C": OneClusterSteering,
        "DEP": DependenceOnlySteering,
        "STATIC": StaticAssignmentSteering,
    }


def _annotate_for(policy, program, compiled):
    """Install the annotations of the compile-time pass the policy consumes
    (a generated trace is unannotated)."""
    if policy == "VC":
        compiled.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
    elif policy == "STATIC":
        compiled.annotate_from(OperationBasedPartitioner(2).annotate_program(program).columns)


def _run_all_modes(compiled, policy_factory, config):
    """Metrics dict for every (kernel, idle_skip) combination on one trace."""
    results = {}
    for kernel in KERNELS:
        for idle_skip in (False, True):
            processor = ClusteredProcessor(config, policy_factory(), kernel=kernel)
            processor.idle_skip = idle_skip
            metrics = processor.run(compiled)
            metrics.check_invariants(compiled, config)
            results[(kernel, idle_skip)] = metrics.to_dict()
    return results


class TestSkipVsStepParity:
    """Idle-cycle skipping must be invisible in the metrics, on both kernels."""

    @settings(max_examples=6, deadline=None)
    @given(
        benchmark=st.sampled_from(["164.gzip-1", "178.galgel"]),
        length=st.integers(min_value=120, max_value=400),
        phase=st.integers(min_value=0, max_value=1),
        policy=st.sampled_from(["OP", "VC", "LD", "RR", "1C"]),
    )
    def test_same_trace_same_metrics(self, benchmark, length, phase, policy):
        program, compiled = WorkloadGenerator(profile_for(benchmark)).generate_compiled_trace(
            length, phase=phase
        )
        _annotate_for(policy, program, compiled)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        results = _run_all_modes(compiled, _policy_factories()[policy], config)
        reference = results[("interpreter", False)]
        for mode, metrics in results.items():
            assert metrics == reference, f"{mode} diverged from plain interpreter"

    def test_mispredict_bulk_accounting_covered(self):
        """The skip path accounts redirect-stall cycles in bulk; pin a trace
        that actually exercises that branch (mispredict_stalls > 0) and check
        all four modes still agree bit-for-bit."""
        _, compiled = WorkloadGenerator(profile_for("164.gzip-1")).generate_compiled_trace(
            800, phase=0
        )
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        results = _run_all_modes(compiled, OccupancyAwareSteering, config)
        reference = results[("interpreter", False)]
        assert reference["mispredict_stalls"] > 0
        for mode, metrics in results.items():
            assert metrics == reference, f"{mode} diverged from plain interpreter"


#: One builtin policy per lowered form, built for ``n`` clusters, and the
#: compile-time pass whose annotations it reads (``None``: reads none).
#: The constant form targets the last cluster, so the fused branch is not
#: checked only on the cluster every fallback picks.
_FORM_POLICIES = {
    "constant": (lambda n: OneClusterSteering(n - 1), None),
    "static-table": (lambda n: StaticAssignmentSteering(), OperationBasedPartitioner),
    "occupancy-stall": (lambda n: OccupancyAwareSteering(), None),
    "mapping-table": (VirtualClusterSteering, VirtualClusterPartitioner),
}


class _CallbackOnlySteering(SteeringPolicy):
    """A policy without a lowering: always takes the per-µop callback path."""

    name = "callback-only"

    def pick_cluster(self, uop, context):
        return context.least_loaded_cluster()


class TestCompiledSpecs:
    """The lowering contract of the builtin policies and its validation."""

    def test_builtin_lowerings(self):
        """The closed vocabulary is exactly the Table 3 policies' forms, the
        kernel has a form code for each, and every Table 3 configuration
        takes a fused path."""
        assert SPEC_FORMS == ("constant", "static-table", "occupancy-stall", "mapping-table")
        assert set(_FORM_POLICIES) == set(SPEC_FORMS) == set(_FORM_CODES)
        for form, (factory, _) in _FORM_POLICIES.items():
            policy = factory(2)
            policy.reset(2)
            spec = policy.compiled_spec()
            assert spec is not None and spec.form == form, policy.name
        assert sorted(TABLE3_CONFIGURATIONS) == ["OB", "OP", "RHOP", "VC", "one-cluster"]
        for name, configuration in TABLE3_CONFIGURATIONS.items():
            policy = configuration.make_policy(2, 2)
            policy.reset(2)
            assert _resolve_spec(policy, 2)[1] != _FORM_CALLBACK, name

    def test_unlowered_policy_takes_callback_form(self):
        spec, form = _resolve_spec(_CallbackOnlySteering(), 2)
        assert spec is None and form == _FORM_CALLBACK

    def test_overridden_pick_cluster_disarms_inherited_spec(self):
        """A subclass overriding ``pick_cluster`` but inheriting
        ``compiled_spec`` must fall back to the callback path -- the parent's
        lowering no longer describes the subclass's decision function."""

        class Shifted(OneClusterSteering):
            def pick_cluster(self, uop, context):
                return (super().pick_cluster(uop, context) + 1) % context.num_clusters

        assert _resolve_spec(OneClusterSteering(), 2)[1] == _FORM_CODES["constant"]
        spec, form = _resolve_spec(Shifted(), 2)
        assert spec is None and form == _FORM_CALLBACK

        # Redeclaring the lowering (even by delegation) re-arms it.
        class Redeclared(Shifted):
            def compiled_spec(self):
                return super().compiled_spec()

        assert _resolve_spec(Redeclared(), 2)[1] == _FORM_CODES["constant"]

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown compiled-steering form"):
            CompiledSteeringSpec(form="magic")

    def test_constant_out_of_range_rejected(self):
        class Bad(_CallbackOnlySteering):
            def compiled_spec(self):
                return CompiledSteeringSpec(form="constant", target_cluster=7)

        with pytest.raises(ValueError, match="target cluster 7"):
            _resolve_spec(Bad(), 2)

    def test_mapping_length_mismatch_rejected(self):
        class Bad(_CallbackOnlySteering):
            def compiled_spec(self):
                return CompiledSteeringSpec(
                    form="mapping-table", num_virtual_clusters=3, mapping=(0, 1)
                )

        with pytest.raises(ValueError, match="2 entries, expected 3"):
            _resolve_spec(Bad(), 2)

    def test_mapping_out_of_range_rejected(self):
        class Bad(_CallbackOnlySteering):
            def compiled_spec(self):
                return CompiledSteeringSpec(
                    form="mapping-table", num_virtual_clusters=2, mapping=(0, 5)
                )

        with pytest.raises(ValueError, match="mapping entry 5"):
            _resolve_spec(Bad(), 2)

    def test_mapping_spec_snapshots_reset_state(self):
        policy = VirtualClusterSteering(4)
        policy.reset(3)
        spec = policy.compiled_spec()
        assert spec.mapping == (0, 1, 2, 0)
        assert spec.num_virtual_clusters == 4


def _run_lowered_mode(compiled, policy_factory, config, kernel, fused):
    """One simulation under a compiled-tier mode; returns (metrics, policy)."""
    policy = policy_factory()
    processor = ClusteredProcessor(config, policy, kernel=kernel)
    processor.fused_steering = fused
    metrics = processor.run(compiled)
    metrics.check_invariants(compiled, config)
    return metrics.to_dict(), policy


def _policy_state(policy):
    """The policy state that fused runs must hand back bit-identically."""
    if isinstance(policy, VirtualClusterSteering):
        return (policy.mapping, policy.remap_count)
    if isinstance(policy, RoundRobinSteering):
        return policy._next
    return None


class TestLoweredSteeringParity:
    """The fused fast path replicates the callback path."""

    @settings(max_examples=8, deadline=None)
    @given(
        benchmark=st.sampled_from(["164.gzip-1", "178.galgel"]),
        length=st.integers(min_value=120, max_value=400),
        phase=st.integers(min_value=0, max_value=1),
        policy=st.sampled_from(["OP", "VC", "LD", "RR", "1C", "DEP", "STATIC"]),
        num_clusters=st.sampled_from([2, 4]),
    )
    def test_lowered_policies_match_interpreter(
        self, benchmark, length, phase, policy, num_clusters
    ):
        program, compiled = WorkloadGenerator(profile_for(benchmark)).generate_compiled_trace(
            length, phase=phase
        )
        _annotate_for(policy, program, compiled)
        config = ClusterConfig(num_clusters=num_clusters, warm_caches=False)
        factory = _policy_factories()[policy]
        reference, ref_policy = _run_lowered_mode(
            compiled, factory, config, "interpreter", True
        )
        ref_state = _policy_state(ref_policy)
        for fused in (False, True):
            metrics, run_policy = _run_lowered_mode(
                compiled, factory, config, "vectorized", fused
            )
            assert metrics == reference, f"{policy} diverged with fused={fused}"
            assert _policy_state(run_policy) == ref_state, (
                f"{policy} final state diverged with fused={fused}"
            )


class TestEveryFormIsDispatched:
    """Each lowered form has a fused dispatch branch that matches the interpreter.

    Deterministic where the hypothesis property above samples: every
    (form, cluster count) pair runs, so a form whose fused branch went
    missing or drifted fails here by name.
    """

    @pytest.mark.parametrize("num_clusters", [2, 4])
    @pytest.mark.parametrize("form", SPEC_FORMS)
    def test_fused_form_matches_interpreter(self, form, num_clusters):
        factory, partitioner = _FORM_POLICIES[form]
        program, compiled = WorkloadGenerator(profile_for("164.gzip-1")).generate_compiled_trace(
            400, phase=0
        )
        if partitioner is not None:
            compiled.annotate_from(partitioner(num_clusters).annotate_program(program).columns)
        config = ClusterConfig(num_clusters=num_clusters)
        policy = factory(num_clusters)
        policy.reset(num_clusters)
        assert _resolve_spec(policy, num_clusters)[1] == _FORM_CODES[form]

        def run(kernel):
            return _run_lowered_mode(
                compiled, lambda: factory(num_clusters), config, kernel, True
            )

        reference, ref_policy = run("interpreter")
        fused, fused_policy = run("vectorized")
        for field_name, value in reference.items():
            assert fused[field_name] == value, f"{form}: {field_name} diverged"
        assert _policy_state(fused_policy) == _policy_state(ref_policy)


class TestMidTraceFallback:
    """Un-lowered policies fall back to the callback path inside one batch."""

    @staticmethod
    def _policies():
        return [
            VirtualClusterSteering(2),
            _CallbackOnlySteering(),
            RoundRobinSteering(),
        ]

    def test_run_bound_mixes_lowered_and_callback_policies(self):
        program, compiled = WorkloadGenerator(profile_for("178.galgel")).generate_compiled_trace(
            400, phase=0
        )
        compiled.annotate_from(VirtualClusterPartitioner(2).annotate_program(program).columns)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        reference = [
            ClusteredProcessor(config, policy, kernel="interpreter")
            .run(compiled)
            .to_dict()
            for policy in self._policies()
        ]
        policies = self._policies()
        processor = ClusteredProcessor(config, policies[0], kernel="vectorized")
        processor.bind(compiled)
        batch = [processor.run_bound(policy).to_dict() for policy in policies]
        assert batch == reference


class TestSimulateTraceKernel:
    def test_simulate_trace_follows_the_kernel_env(self, small_trace, monkeypatch):
        _, trace = small_trace
        vectorized_runs = []
        run = VectorizedKernel.run

        def counted_run(kernel, limit):
            vectorized_runs.append(limit)
            return run(kernel, limit)

        monkeypatch.setattr(VectorizedKernel, "run", counted_run)
        dumps = []
        for kernel in KERNELS:
            monkeypatch.setenv(KERNEL_ENV, kernel)
            dumps.append(simulate_trace(trace, OccupancyAwareSteering()).to_dict())
        assert dumps[0] == dumps[1]
        assert len(vectorized_runs) == 1  # only the "vectorized" run took that kernel


class TestTinyCacheParity:
    """The inlined cache model on the paths the default geometry never takes.

    With the Table 2 caches every figure trace fits in L2 (``l2_hit_rate``
    reads 1.0), so the golden and parity suites never miss in L2 or evict
    from it.  A 1 KB 2-way L1 over an 8 KB 2-way L2 makes the
    cache-miss-dominated traces miss and evict at both levels.
    """

    @pytest.mark.parametrize("warm_caches", [False, True])
    @pytest.mark.parametrize("policy", ["OP", "VC"])
    @pytest.mark.parametrize("trace_name", ["181.mcf", "179.art-1", "171.swim"])
    def test_vectorized_matches_interpreter(self, trace_name, policy, warm_caches):
        program, compiled = WorkloadGenerator(
            profile_for(trace_name)
        ).generate_compiled_trace(1200, phase=0)
        _annotate_for(policy, program, compiled)
        config = ClusterConfig(
            num_clusters=2,
            l1_size_kb=1,
            l1_assoc=2,
            l2_size_kb=8,
            l2_assoc=2,
            warm_caches=warm_caches,
        )
        results = {}
        for kernel in ("interpreter", "vectorized"):
            processor = ClusteredProcessor(
                config, _policy_factories()[policy](), kernel=kernel
            )
            metrics = processor.run(compiled)
            metrics.check_invariants(compiled, config)
            results[kernel] = (metrics.to_dict(), processor.memory.tag_state())
        reference, reference_tags = results["interpreter"]
        actual, actual_tags = results["vectorized"]
        assert reference["cache"]["l2_hit_rate"] < 1.0  # the L2-miss path ran
        for field_name, value in reference.items():
            assert actual[field_name] == value, f"{field_name} diverged"
        assert actual_tags == reference_tags  # same final contents, LRU order included


class TestCopySlotGrowth:
    """Dispatches that make several copy µops at once, at every slot boundary.

    A µop can need several copies at once (even from the same source
    cluster), and each takes a record slot.  The vectorized kernel once grew
    its record arrays on demand, and a growth check that reserved only
    ``num_clusters`` slots of headroom overflowed them (IndexError) when a
    µop-plus-two-copies dispatch landed two slots below capacity.  The arrays
    are now sized once from the dependence rows; these traces keep the
    boundary cases covered.
    """

    @staticmethod
    def _copy_heavy_trace(length):
        """Every fourth µop reads two defs at odd distances (1 and 3), so
        under round-robin steering on two clusters both sources live on the
        remote cluster and each def has a single consumer -- forcing
        two fresh copy µops in one dispatch."""
        reg = lambda i: 8 + (i % 97)  # noqa: E731
        return make_trace([
            make_instruction(
                UopClass.INT_ALU,
                dests=(reg(i),),
                srcs=(reg(i - 1), reg(i - 3)) if i % 4 == 3 else (0,),
            )
            for i in range(length)
        ])

    # Lengths chosen so a two-copy dispatch lands on the capacity boundary
    # (these crashed before the fix; neighbours keep coverage robust).
    @pytest.mark.parametrize("length", [43, 49, 55, 61, 62, 63])
    def test_multi_copy_dispatch_at_capacity_boundary(self, length):
        compiled = self._copy_heavy_trace(length)
        results = {}
        for kernel in ("interpreter", "vectorized"):
            processor = ClusteredProcessor(
                ClusterConfig(num_clusters=2), RoundRobinSteering(), kernel=kernel
            )
            results[kernel] = processor.run(compiled).to_dict()
        assert results["vectorized"] == results["interpreter"]


def _run_both_kernels(compiled, make_policy, config):
    """``{kernel: (metrics dict, final tag state, policy state)}`` of one run each."""
    results = {}
    for kernel in KERNELS:
        policy = make_policy()
        processor = ClusteredProcessor(config, policy, kernel=kernel)
        metrics = processor.run(compiled)
        metrics.check_invariants(compiled, config)
        results[kernel] = (
            metrics.to_dict(),
            processor.memory.tag_state(),
            _policy_state(policy),
        )
    return results


def _assert_kernels_agree(results):
    reference, reference_tags, reference_state = results["interpreter"]
    actual, actual_tags, actual_state = results["vectorized"]
    for field_name, value in reference.items():
        assert actual[field_name] == value, f"{field_name} diverged"
    assert actual_tags == reference_tags  # same final contents, LRU order included
    assert actual_state == reference_state


#: One small machine per resource the dispatch stage checks, and the stall
#: counters that resource raises when it is full.  The issue-queue,
#: copy-queue and register-file stalls share ``allocation_stalls``; OP never
#: steers into a full queue, so a full INT queue stalls its steering instead.
#: Two copy-queue entries is the least ``bind`` accepts: the trace has µops
#: with two distinct sources.
_PRESSURE_MACHINES = {
    "rob": ({"rob_size": 16}, ("rob_stalls",)),
    "lsq": ({"lsq_size": 2}, ("lsq_stalls",)),
    "int-queue": ({"iq_int_size": 4}, ("allocation_stalls", "steering_stalls")),
    "copy-queue": ({"iq_copy_size": 2}, ("allocation_stalls",)),
    "register-files": (
        {"regfile_int_size": 40, "regfile_fp_size": 40},
        ("allocation_stalls",),
    ),
}


@pytest.fixture(scope="module")
def pressure_trace():
    """A memory-heavy trace (181.mcf) and its program, generated once."""
    return WorkloadGenerator(profile_for("181.mcf")).generate_compiled_trace(600, phase=0)


class TestResourcePressureParity:
    """The kernels agree when the ROB, LSQ, queues and register files fill.

    At the Table 2 sizes most runs never fill a resource, so the stall
    paths -- the vectorized kernel's ROB and LSQ windows over trace indices
    among them -- would go unchecked.  Each case shrinks one resource, checks
    that its stall counter fires, and compares both kernels field for field:
    the metrics dict, the final cache contents and the policy's own state.
    OP and VC take the fused path, round-robin the per-µop callback path.
    """

    @pytest.mark.parametrize("num_clusters", [2, 4])
    @pytest.mark.parametrize("policy", ["OP", "VC", "RR"])
    @pytest.mark.parametrize("pressure", sorted(_PRESSURE_MACHINES))
    def test_kernels_agree_under_pressure(self, pressure_trace, pressure, policy, num_clusters):
        program, compiled = pressure_trace
        overrides, counters = _PRESSURE_MACHINES[pressure]
        config = ClusterConfig(num_clusters=num_clusters, **overrides)
        if policy == "VC":
            compiled.annotate_from(
                VirtualClusterPartitioner(num_clusters).annotate_program(program).columns
            )
            make_policy = lambda: VirtualClusterSteering(num_clusters)  # noqa: E731
        else:
            make_policy = _policy_factories()[policy]
        results = _run_both_kernels(compiled, make_policy, config)
        reference = results["interpreter"][0]
        stalls = [reference[name] for name in counters]
        assert sum(sum(s) if isinstance(s, list) else s for s in stalls) > 0, counters
        _assert_kernels_agree(results)


def _multi_dest_trace(length):
    """A trace cycling through µops with zero, one and two destinations.

    The two-destination µops write two integer registers, an integer and a
    floating-point register, or one register twice (the later write wins).
    Their consumers, two to four µops later, read both definitions, so
    round-robin steering places them on other clusters and copies both.
    """
    fp = NUM_INT_REGISTERS
    pattern = [
        make_instruction(UopClass.INT_ALU, dests=(1, 2), srcs=(6,)),
        make_instruction(UopClass.STORE, dests=(), srcs=(1, 2)),
        make_instruction(UopClass.INT_MUL, dests=(3,), srcs=(2, 1)),
        make_instruction(UopClass.LOAD, dests=(4, fp + 1), srcs=(3,)),
        make_instruction(UopClass.FP_ADD, dests=(fp + 2,), srcs=(fp + 1, 4)),
        make_instruction(UopClass.INT_ALU, dests=(5, 5), srcs=(1,)),
        make_instruction(UopClass.BRANCH, dests=(), srcs=(5, 4)),
        make_instruction(UopClass.INT_ALU, dests=(6,), srcs=(5, fp + 2)),
    ]
    instructions = [pattern[i % len(pattern)] for i in range(length)]
    addresses = [64 * (i % 37) for i in range(length)]
    return make_trace(instructions, addresses=addresses)


class TestMultiDestinationParity:
    """µops with two definitions dispatch, wake and copy the same on both kernels."""

    def test_trace_has_every_destination_count(self):
        counts = set(np.diff(_multi_dest_trace(64).dest_offsets).tolist())
        assert counts == {0, 1, 2}

    @pytest.mark.parametrize("num_clusters", [2, 4])
    @pytest.mark.parametrize("policy", ["RR", "OP"])
    def test_kernels_agree(self, policy, num_clusters):
        compiled = _multi_dest_trace(400)
        config = ClusterConfig(num_clusters=num_clusters)
        results = _run_both_kernels(compiled, _policy_factories()[policy], config)
        assert results["interpreter"][0]["copies_generated"] > 0
        _assert_kernels_agree(results)
