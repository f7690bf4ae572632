"""Parity contract between the interpreter and vectorized kernels.

The interpreter kernel (per-µop objects, one ``_step`` per cycle) is the
golden reference; the vectorized kernel runs the array tier over the SoA IR
and calls back into Python only on policy-acting cycles.  Both must produce
bit-identical metrics on every trace, with idle-cycle skipping on or off.
These tests pin that contract:

* ``resolve_kernel`` precedence (explicit argument > ``$REPRO_KERNEL`` >
  built-in default, blank env treated as unset) and its rejection message,
* the full golden suite (all five Table 3 configurations) computed under
  every kernel and compared field-by-field against the interpreter,
* skip-vs-step parity: the same compiled trace with idle skipping disabled
  and enabled, under every kernel, including the bulk accounting of
  mispredict-redirect stall cycles that the skip path performs,
* the compiled steering tier: every builtin lowering (``compiled_spec``)
  runs fused and un-fused, under ``vectorized`` and ``vectorized-jit``
  (including the pure-Python transcription twin via ``jitloop.FORCE_PURE``),
  and must be field-identical to the interpreter -- policy state included,
* mid-batch fallback: a ``run_many`` sweep mixing lowered and un-lowered
  policies must match fresh per-policy interpreter runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import jitloop
from repro.cluster.config import ClusterConfig
from repro.cluster.kernel import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    _FORM_CALLBACK,
    _resolve_spec,
    resolve_kernel,
)
from repro.cluster.processor import ClusteredProcessor, simulate_trace
from repro.experiments.golden import compute_golden_snapshot
from repro.partition.ob_partitioner import OperationBasedPartitioner
from repro.partition.vc_partitioner import VirtualClusterPartitioner
from repro.sanitize import SANITIZE_ENV
from repro.steering.base import CompiledSteeringSpec, SteeringPolicy
from repro.steering.baselines import (
    DependenceOnlySteering,
    LoadBalanceSteering,
    RoundRobinSteering,
)
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering
from repro.uops.compiled import compile_trace
from repro.uops.opcodes import UopClass
from repro.uops.uop import DynamicUop, StaticInstruction
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for


class TestResolveKernel:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel() == DEFAULT_KERNEL
        assert resolve_kernel("auto") == DEFAULT_KERNEL

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "vectorized")
        assert resolve_kernel("interpreter") == "interpreter"

    def test_env_applies_when_unpinned(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "interpreter")
        assert resolve_kernel() == "interpreter"
        assert resolve_kernel("auto") == "interpreter"

    def test_env_is_stripped_and_lowered(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "  INTERPRETER \t")
        assert resolve_kernel() == "interpreter"

    def test_blank_env_is_unset(self, monkeypatch):
        for blank in ("", "   ", "\t"):
            monkeypatch.setenv(KERNEL_ENV, blank)
            assert resolve_kernel() == DEFAULT_KERNEL

    def test_unknown_kernel_rejected(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(ValueError):
            resolve_kernel("turbo")
        monkeypatch.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(ValueError):
            resolve_kernel()

    def test_jit_kernel_accepted(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel("vectorized-jit") == "vectorized-jit"
        monkeypatch.setenv(KERNEL_ENV, "vectorized-jit")
        assert resolve_kernel() == "vectorized-jit"

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
        """Under the sanitizer every run checks its own conservation laws
        (``SimulationMetrics.check_invariants``), so a clean golden run is
        the check over the whole suite."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
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


def _annotate_for(policy, program):
    """Run the compile-time pass whose annotations the policy consumes."""
    if policy == "VC":
        VirtualClusterPartitioner(2).annotate_program(program)
    elif policy == "STATIC":
        OperationBasedPartitioner(2).annotate_program(program)


def _run_all_modes(compiled, policy_factory, config):
    """Metrics dict for every (kernel, idle_skip) combination on one trace."""
    results = {}
    for kernel in KERNELS:
        for idle_skip in (False, True):
            processor = ClusteredProcessor(config, policy_factory(), kernel=kernel)
            processor.idle_skip = idle_skip
            metrics = processor.run(compiled)
            metrics.check_invariants(compiled, config)
            results[(kernel, idle_skip)] = metrics.as_dict()
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
        program, trace = WorkloadGenerator(profile_for(benchmark)).generate_trace(
            length, phase=phase
        )
        _annotate_for(policy, program)
        compiled = compile_trace(trace)
        compiled.annotate_from(program)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        results = _run_all_modes(compiled, _policy_factories()[policy], config)
        reference = results[("interpreter", False)]
        for mode, metrics in results.items():
            assert metrics == reference, f"{mode} diverged from plain interpreter"

    def test_mispredict_bulk_accounting_covered(self):
        """The skip path accounts redirect-stall cycles in bulk; pin a trace
        that actually exercises that branch (mispredict_stalls > 0) and check
        all four modes still agree bit-for-bit."""
        program, trace = WorkloadGenerator(profile_for("164.gzip-1")).generate_trace(
            800, phase=0
        )
        compiled = compile_trace(trace)
        compiled.annotate_from(program)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        results = _run_all_modes(compiled, OccupancyAwareSteering, config)
        reference = results[("interpreter", False)]
        assert reference["mispredict_stalls"] > 0
        for mode, metrics in results.items():
            assert metrics == reference, f"{mode} diverged from plain interpreter"


class _CallbackOnlySteering(SteeringPolicy):
    """A policy without a lowering: always takes the per-µop callback path."""

    name = "callback-only"

    def pick_cluster(self, uop, context):
        return context.least_loaded_cluster()


class TestCompiledSpecs:
    """The lowering contract of the builtin policies and its validation."""

    def test_builtin_lowerings(self):
        expected = {
            "constant": OneClusterSteering(),
            "static-table": StaticAssignmentSteering(),
            "modulo": RoundRobinSteering(),
            "least-loaded": LoadBalanceSteering(),
            "dependence-count": DependenceOnlySteering(),
            "occupancy-stall": OccupancyAwareSteering(),
            "mapping-table": VirtualClusterSteering(2),
        }
        for form, policy in expected.items():
            policy.reset(2)
            spec = policy.compiled_spec()
            assert spec is not None and spec.form == form, policy.name

    def test_unlowered_policy_takes_callback_form(self):
        spec, form = _resolve_spec(_CallbackOnlySteering(), 2)
        assert spec is None and form == _FORM_CALLBACK

    def test_overridden_pick_cluster_disarms_inherited_spec(self):
        """A subclass overriding ``pick_cluster`` but inheriting
        ``compiled_spec`` must fall back to the callback path -- the parent's
        lowering no longer describes the subclass's decision function."""

        class Shifted(RoundRobinSteering):
            def pick_cluster(self, uop, context):
                return (super().pick_cluster(uop, context) + 1) % context.num_clusters

        spec, form = _resolve_spec(Shifted(), 2)
        assert spec is None and form == _FORM_CALLBACK
        # Redeclaring the lowering (even by delegation) re-arms it.

        class Redeclared(Shifted):
            def compiled_spec(self):
                return None

        spec, form = _resolve_spec(Redeclared(), 2)
        assert spec is None and form == _FORM_CALLBACK

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown compiled-steering form"):
            CompiledSteeringSpec(form="magic")  # parlint: ok PAR203 (deliberately invalid form; the test asserts rejection)

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


def _lowered_modes():
    """Every execution mode of the compiled steering tier.

    ``(kernel, fused_steering, force_pure)`` tuples: the callback path
    (``fused=False``), the fused array-tier fast path, and -- for the jit
    kernel -- the pure-Python transcription twin (``jitloop.FORCE_PURE``),
    which exercises ``jitloop._fused_loop_py`` even when numba is absent.
    """
    modes = []
    for kernel in ("vectorized", "vectorized-jit"):
        for fused in (False, True):
            modes.append((kernel, fused, False))
    modes.append(("vectorized-jit", True, True))
    return modes


def _run_lowered_mode(compiled, policy_factory, config, kernel, fused, force_pure):
    """One simulation under a compiled-tier mode; returns (metrics, policy)."""
    policy = policy_factory()
    processor = ClusteredProcessor(config, policy, kernel=kernel)
    processor.fused_steering = fused
    saved = jitloop.FORCE_PURE
    jitloop.FORCE_PURE = force_pure
    try:
        metrics = processor.run(compiled)
    finally:
        jitloop.FORCE_PURE = saved
    metrics.check_invariants(compiled, config)
    return metrics.as_dict(), policy


def _policy_state(policy):
    """The policy state that fused runs must hand back bit-identically."""
    if isinstance(policy, VirtualClusterSteering):
        return (policy.mapping, policy.remap_count)
    if isinstance(policy, RoundRobinSteering):
        return policy._next
    return None


class TestLoweredSteeringParity:
    """The fused fast path and the jit loop replicate the callback path."""

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
        program, trace = WorkloadGenerator(profile_for(benchmark)).generate_trace(
            length, phase=phase
        )
        _annotate_for(policy, program)
        compiled = compile_trace(trace)
        compiled.annotate_from(program)
        config = ClusterConfig(num_clusters=num_clusters, warm_caches=False)
        factory = _policy_factories()[policy]
        reference, ref_policy = _run_lowered_mode(
            compiled, factory, config, "interpreter", True, False
        )
        ref_state = _policy_state(ref_policy)
        for kernel, fused, force_pure in _lowered_modes():
            metrics, run_policy = _run_lowered_mode(
                compiled, factory, config, kernel, fused, force_pure
            )
            mode = (kernel, fused, "pure" if force_pure else "auto")
            assert metrics == reference, f"{policy} diverged under {mode}"
            assert _policy_state(run_policy) == ref_state, (
                f"{policy} final state diverged under {mode}"
            )

    def test_lowered_parity_under_sanitizer(self, monkeypatch):
        """The fused and jit paths never write the frozen bound trace."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        program, trace = WorkloadGenerator(profile_for("164.gzip-1")).generate_trace(
            300, phase=0
        )
        VirtualClusterPartitioner(2).annotate_program(program)
        compiled = compile_trace(trace)
        compiled.annotate_from(program)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        for name, factory in _policy_factories().items():
            reference, _ = _run_lowered_mode(
                compiled, factory, config, "interpreter", True, False
            )
            for kernel, fused, force_pure in _lowered_modes():
                metrics, _ = _run_lowered_mode(
                    compiled, factory, config, kernel, fused, force_pure
                )
                assert metrics == reference, (
                    f"{name} diverged under sanitizer in "
                    f"{(kernel, fused, force_pure)}"
                )


class TestMidTraceFallback:
    """Un-lowered policies fall back to the callback path inside one batch."""

    @staticmethod
    def _policies():
        return [
            VirtualClusterSteering(2),
            _CallbackOnlySteering(),
            RoundRobinSteering(),
        ]

    def test_run_many_mixes_lowered_and_callback_policies(self):
        program, trace = WorkloadGenerator(profile_for("178.galgel")).generate_trace(
            400, phase=0
        )
        VirtualClusterPartitioner(2).annotate_program(program)
        compiled = compile_trace(trace)
        compiled.annotate_from(program)
        config = ClusterConfig(num_clusters=2, warm_caches=False)
        reference = [
            ClusteredProcessor(config, policy, kernel="interpreter")
            .run(compiled)
            .as_dict()
            for policy in self._policies()
        ]
        for kernel in ("vectorized", "vectorized-jit"):
            policies = self._policies()
            processor = ClusteredProcessor(config, policies[0], kernel=kernel)
            batch = [m.as_dict() for m in processor.run_many(compiled, policies)]
            assert batch == reference, f"mixed batch diverged under {kernel}"


class TestJitTwinSelection:
    """The jit kernel's twin selection: numba when present, Python otherwise."""

    @pytest.mark.skipif(
        jitloop.JIT_ENABLED, reason="numba installed: jitted loop is selected"
    )
    def test_without_numba_fused_python_twin_is_selected(self):
        # ``jit_active()`` is False, so ``VectorizedKernel.run`` never
        # delegates to jitloop and the fused Python loop serves as the twin;
        # the transcription itself stays reachable via ``FORCE_PURE``.
        assert not jitloop.jit_active()
        assert jitloop._fused_loop is jitloop._fused_loop_py

    @pytest.mark.skipif(
        not jitloop.JIT_ENABLED, reason="numba not installed in this environment"
    )
    def test_with_numba_jitted_loop_is_selected(self):
        assert jitloop.jit_active()
        assert hasattr(jitloop._fused_loop, "py_func")
        assert jitloop._fused_loop.py_func is jitloop._fused_loop_py

    def test_force_pure_runs_the_transcription(self, small_trace):
        _, trace = small_trace
        saved = jitloop.FORCE_PURE
        jitloop.FORCE_PURE = True
        try:
            assert jitloop.jit_active()
            jitted = simulate_trace(
                trace, OccupancyAwareSteering(), kernel="vectorized-jit"
            )
        finally:
            jitloop.FORCE_PURE = saved
        reference = simulate_trace(
            trace, OccupancyAwareSteering(), kernel="interpreter"
        )
        assert jitted.as_dict() == reference.as_dict()


class TestSimulateTraceKernelKnob:
    def test_simulate_trace_accepts_kernel(self, small_trace):
        _, trace = small_trace
        a = simulate_trace(trace, OccupancyAwareSteering(), kernel="interpreter")
        b = simulate_trace(trace, OccupancyAwareSteering(), kernel="vectorized")
        assert a.as_dict() == b.as_dict()


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
        _annotate_for(policy, program)
        compiled.annotate_from(program)
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
    """Regression for the record-slot growth check in the vectorized kernel.

    One dispatch consumes a slot for the µop plus one per fresh copy µop, and
    a µop can need several copies at once (even from the same source cluster).
    The growth check used to reserve only ``num_clusters`` slots of headroom,
    so on a 2-cluster machine a µop-plus-two-copies dispatch landing exactly
    two slots below capacity overflowed the record arrays (IndexError).
    """

    @staticmethod
    def _copy_heavy_trace(length):
        """Every fourth µop reads two defs at odd distances (1 and 3), so
        under round-robin steering on two clusters both sources live on the
        remote cluster and each def has a single consumer -- forcing
        two fresh copy µops in one dispatch."""
        reg = lambda i: 8 + (i % 97)  # noqa: E731
        trace = []
        for i in range(length):
            srcs = (reg(i - 1), reg(i - 3)) if i % 4 == 3 else (0,)
            static = StaticInstruction(i, UopClass.INT_ALU, dests=(reg(i),), srcs=srcs)
            trace.append(DynamicUop(i, static))
        return compile_trace(trace)

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
