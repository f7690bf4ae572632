"""Unit tests for the synthetic workload substrate (repro.workloads)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.program.program import Program
from repro.uops.opcodes import UopClass
from repro.uops.registers import NUM_INT_REGISTERS, NUM_REGISTERS
from repro.workloads.generator import BenchmarkProfile, WorkloadGenerator, generate_program
from repro.workloads.kernels import (
    RegisterPool,
    branchy_kernel,
    parallel_chains_kernel,
    reduction_kernel,
    serial_chain_kernel,
    stream_kernel,
)
from repro.workloads.pinpoints import (
    MAX_PHASES,
    select_simulation_points,
    weighted_average,
)
from repro.workloads.spec2000 import (
    SPEC_FP_TRACES,
    SPEC_INT_TRACES,
    all_trace_names,
    profile_for,
)


FP_CLASSES = [UopClass.FP_ADD, UopClass.FP_MUL, UopClass.FP_DIV]


def make_pool():
    return RegisterPool(list(range(8, 24)), list(range(64, 80)), list(range(8)))


class TestKernels:
    def test_serial_chain_is_serial(self):
        rng = np.random.default_rng(0)
        specs = serial_chain_kernel(rng, 10, make_pool(), load_fraction=0.0)
        # Every instruction (after the first) reads the previous destination.
        for i in range(1, len(specs)):
            prev_dest = specs[i - 1][1][0]
            assert prev_dest in specs[i][2]

    def test_parallel_chains_count(self):
        rng = np.random.default_rng(1)
        specs = parallel_chains_kernel(
            rng, 30, make_pool(), num_chains=3, load_fraction=0.0, store_fraction=0.0,
            cross_chain_fraction=0.0,
        )
        from tests.conftest import block_ddg, make_instruction, predecessors

        instructions = [make_instruction(op, dests, srcs) for op, dests, srcs in specs]
        ddg = block_ddg(instructions)
        # With no cross-chain edges there are exactly 3 independent roots.
        assert sum(not predecessors(ddg, node) for node in range(len(ddg))) == 3

    def test_reduction_converges_to_single_value(self):
        rng = np.random.default_rng(2)
        specs = reduction_kernel(rng, 16, make_pool(), fp=True)
        from tests.conftest import block_ddg, leaves, make_instruction

        instructions = [make_instruction(op, dests, srcs) for op, dests, srcs in specs]
        ddg = block_ddg(instructions)
        # A reduction tree funnels into exactly one final leaf value.
        producing_leaves = [n for n in leaves(ddg) if instructions[n].dests]
        assert len(producing_leaves) == 1

    def test_stream_kernel_has_loads_and_stores(self):
        rng = np.random.default_rng(3)
        specs = stream_kernel(rng, 20, make_pool(), fp=True)
        classes = {op for op, _, _ in specs}
        assert UopClass.LOAD in classes and UopClass.STORE in classes

    def test_branchy_kernel_contains_branches(self):
        rng = np.random.default_rng(4)
        specs = branchy_kernel(rng, 40, make_pool(), branch_fraction=0.3)
        assert any(op == UopClass.BRANCH for op, _, _ in specs)

    def test_fp_kernels_use_fp_destinations(self):
        rng = np.random.default_rng(5)
        specs = parallel_chains_kernel(
            rng, 20, make_pool(), fp=True, load_fraction=0.0, store_fraction=0.0
        )
        for op, dests, _ in specs:
            if op in (UopClass.FP_ADD, UopClass.FP_MUL, UopClass.FP_DIV):
                assert all(NUM_INT_REGISTERS <= d < NUM_REGISTERS for d in dests)

    def test_register_pool_round_robin(self):
        pool = make_pool()
        first = pool.next_int()
        seen = {first}
        for _ in range(15):
            seen.add(pool.next_int())
        assert len(seen) == 16
        assert pool.next_int() == first  # wraps around

    def test_register_pool_requires_window(self):
        with pytest.raises(ValueError):
            RegisterPool([], [], [])


class TestBenchmarkProfile:
    def test_invalid_suite_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", suite="weird")

    def test_invalid_ilp_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", ilp=0)

    def test_with_overrides(self, small_profile):
        modified = small_profile.with_overrides(ilp=5)
        assert modified.ilp == 5 and small_profile.ilp == 3
        assert modified.name == small_profile.name


class TestWorkloadGenerator:
    def test_program_is_valid_and_deterministic(self, small_profile):
        a = generate_program(small_profile, phase=0)
        b = generate_program(small_profile, phase=0)
        for name in Program.COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # Rebuilding the program from its columns runs the validation again.
        Program(a.name, {name: getattr(a, name) for name in Program.COLUMNS})

    def test_phases_differ(self, small_profile):
        a = generate_program(small_profile, phase=0)
        b = generate_program(small_profile, phase=1)
        assert a.opclass.tolist() != b.opclass.tolist()

    def test_block_count_matches_profile(self, small_profile):
        program = generate_program(small_profile)
        assert program.num_blocks == small_profile.num_blocks

    def test_every_block_ends_with_branch(self, small_profile):
        program = generate_program(small_profile)
        last = program.block_start[1:] - 1
        assert (program.opclass[last] == UopClass.BRANCH).all()
        assert (program.block[last] == np.arange(program.num_blocks)).all()

    def test_fp_profile_produces_fp_instructions(self, small_fp_profile):
        program = generate_program(small_fp_profile)
        assert np.isin(program.opclass, FP_CLASSES).mean() > 0.3

    def test_int_profile_has_no_fp(self, small_profile):
        program = generate_program(small_profile)
        assert not np.isin(program.opclass, FP_CLASSES).any()

    def test_trace_generation_reuses_program(self, small_profile):
        generator = WorkloadGenerator(small_profile)
        program, trace = generator.generate_compiled_trace(500, phase=0)
        assert set(trace.sid.tolist()) <= set(range(program.num_instructions))
        assert len(trace) >= 500

    def test_address_model_scales_with_phase(self, small_profile):
        generator = WorkloadGenerator(small_profile)
        assert (
            generator.address_model(2).working_set_bytes
            > generator.address_model(0).working_set_bytes
        )

    def test_phase_seed_depends_on_phase_and_name(self, small_profile):
        generator = WorkloadGenerator(small_profile)
        other = WorkloadGenerator(small_profile.with_overrides(name="test.other"))
        assert generator.phase_seed(0) != generator.phase_seed(1)
        assert generator.phase_seed(0) != other.phase_seed(0)


class TestSpec2000:
    def test_trace_counts_match_figure5_axes(self):
        assert len(SPEC_INT_TRACES) == 26
        assert len(SPEC_FP_TRACES) == 14

    def test_all_trace_names_suites(self):
        assert set(all_trace_names("all")) == set(all_trace_names("int")) | set(
            all_trace_names("fp")
        )
        with pytest.raises(ValueError):
            all_trace_names("bogus")

    def test_profile_lookup(self):
        profile = profile_for("181.mcf")
        assert profile.suite == "int"
        with pytest.raises(KeyError):
            profile_for("999.unknown")

    def test_suites_are_labelled_consistently(self):
        for name, profile in SPEC_INT_TRACES.items():
            assert profile.suite == "int", name
        for name, profile in SPEC_FP_TRACES.items():
            assert profile.suite == "fp", name

    def test_memory_bound_benchmarks_have_large_working_sets(self):
        assert profile_for("181.mcf").working_set_kb > profile_for("186.crafty").working_set_kb
        assert profile_for("171.swim").working_set_kb > profile_for("177.mesa").working_set_kb

    def test_galgel_has_high_ilp(self):
        assert profile_for("178.galgel").ilp >= 5

    def test_profiles_generate_valid_programs(self):
        # Spot-check a few representative profiles end to end.
        for name in ("164.gzip-1", "176.gcc-2", "181.mcf", "178.galgel", "301.apsi"):
            program = generate_program(profile_for(name))  # validated as it is built
            assert program.num_instructions > 50


class TestPinPoints:
    def test_weights_sum_to_one(self, small_profile):
        points = select_simulation_points(small_profile)
        assert sum(p.weight for p in points) == pytest.approx(1.0)
        assert len(points) == small_profile.num_phases

    def test_max_phases_cap(self, small_profile):
        profile = small_profile.with_overrides(num_phases=30)
        points = select_simulation_points(profile)
        assert len(points) == MAX_PHASES
        points = select_simulation_points(profile, max_phases=4)
        assert len(points) == 4

    def test_deterministic_weights(self, small_profile):
        a = select_simulation_points(small_profile)
        b = select_simulation_points(small_profile)
        assert [p.weight for p in a] == [p.weight for p in b]

    def test_weighted_average(self, small_profile):
        points = select_simulation_points(small_profile)
        values = [10.0 for _ in points]
        assert weighted_average(values, points) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            weighted_average([1.0], points + points)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(phases=st.integers(min_value=1, max_value=10))
    def test_weighted_average_bounded_property(self, small_profile, phases):
        profile = small_profile.with_overrides(num_phases=phases)
        points = select_simulation_points(profile)
        rng = np.random.default_rng(phases)
        values = rng.uniform(5.0, 25.0, size=len(points)).tolist()
        average = weighted_average(values, points)
        assert min(values) - 1e-9 <= average <= max(values) + 1e-9
