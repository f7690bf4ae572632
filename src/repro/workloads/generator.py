"""Parametric synthetic benchmark generator.

A :class:`BenchmarkProfile` captures the program characteristics that matter
for instruction steering -- the mix of DDG shapes (kernels), the amount of
instruction-level parallelism, the memory and floating-point intensity, the
control-flow behaviour and the working-set size.  :class:`WorkloadGenerator`
turns a profile (and a phase index) into a static
:class:`~repro.program.program.Program` plus a compiled dynamic µop trace.

Phases model PinPoints simulation points: each phase uses a different seed
and a slightly different working set / kernel emphasis, so the weighted
averaging performed by the harness (as in the paper) is meaningful.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.program.program import EdgeRow, InstructionRow, Program
from repro.program.trace import AddressModel, TraceGenerator
from repro.uops.compiled import CompiledTrace
from repro.uops.opcodes import UopClass
from repro.uops.registers import NUM_FP_REGISTERS, NUM_INT_REGISTERS, NUM_REGISTERS
from repro.workloads.kernels import KERNEL_FUNCTIONS, RegisterPool
from repro.workloads.profile import BenchmarkProfile, KernelKind, phase_seed


class WorkloadGenerator:
    """Generate static programs and dynamic traces from a benchmark profile."""

    #: Number of disjoint register windows blocks rotate through; values
    #: produced in one block are therefore occasionally consumed a few blocks
    #: later, creating realistic cross-block (region-level) dependences.
    NUM_REGISTER_WINDOWS = 4
    #: Registers reserved as always-live "global" values (stack pointer,
    #: loop bounds, base addresses).
    NUM_LIVE_IN_REGISTERS = 8

    def __init__(self, profile: BenchmarkProfile):
        self.profile = profile

    # -- seeds -------------------------------------------------------------------
    def phase_seed(self, phase: int) -> int:
        """Deterministic seed of the given phase."""
        return phase_seed(self.profile, phase)

    # -- register windows --------------------------------------------------------
    def _pool_for_block(self, block_index: int) -> RegisterPool:
        live_ins = list(range(self.NUM_LIVE_IN_REGISTERS))
        usable_int = NUM_INT_REGISTERS - self.NUM_LIVE_IN_REGISTERS
        window_size = max(4, usable_int // self.NUM_REGISTER_WINDOWS)
        window_index = block_index % self.NUM_REGISTER_WINDOWS
        start = self.NUM_LIVE_IN_REGISTERS + window_index * window_size
        int_window = [start + i for i in range(window_size) if start + i < NUM_INT_REGISTERS]
        fp_window_size = max(4, NUM_FP_REGISTERS // self.NUM_REGISTER_WINDOWS)
        fp_start = NUM_INT_REGISTERS + window_index * fp_window_size
        fp_window = [fp_start + i for i in range(fp_window_size) if fp_start + i < NUM_REGISTERS]
        return RegisterPool(int_window, fp_window, live_ins)

    # -- kernel selection --------------------------------------------------------
    def _pick_kernel(self, rng: np.random.Generator) -> KernelKind:
        kinds = list(self.profile.kernel_mix.keys())
        weights = np.array([self.profile.kernel_mix[k] for k in kinds], dtype=float)
        weights = weights / weights.sum()
        return kinds[int(rng.choice(len(kinds), p=weights))]

    def _emit_kernel(
        self, kind: KernelKind, rng: np.random.Generator, size: int, pool: RegisterPool
    ) -> List[Tuple[UopClass, Tuple[int, ...], Tuple[int, ...]]]:
        profile = self.profile
        fp = profile.is_fp
        if kind == KernelKind.SERIAL_CHAIN:
            return KERNEL_FUNCTIONS[kind](
                rng, size, pool, fp=fp,
                load_fraction=profile.load_fraction,
                long_latency_fraction=profile.long_latency_fraction,
            )
        if kind == KernelKind.PARALLEL_CHAINS:
            return KERNEL_FUNCTIONS[kind](
                rng, size, pool,
                num_chains=profile.ilp, fp=fp,
                load_fraction=profile.load_fraction,
                store_fraction=profile.store_fraction,
                cross_chain_fraction=profile.cross_chain_fraction,
                long_latency_fraction=profile.long_latency_fraction,
            )
        if kind == KernelKind.REDUCTION:
            return KERNEL_FUNCTIONS[kind](
                rng, size, pool, fp=fp, load_fraction=profile.load_fraction
            )
        if kind == KernelKind.STREAM:
            return KERNEL_FUNCTIONS[kind](
                rng, size, pool, fp=fp,
                long_latency_fraction=profile.long_latency_fraction,
            )
        if kind == KernelKind.BRANCHY:
            return KERNEL_FUNCTIONS[kind](
                rng, size, pool,
                load_fraction=profile.load_fraction,
                branch_fraction=profile.branch_fraction,
            )
        raise ValueError(f"unknown kernel kind {kind}")

    # -- program construction ----------------------------------------------------
    def generate_program(self, phase: int = 0) -> Program:
        """Build the static program for simulation point ``phase``."""
        profile = self.profile
        rng = np.random.default_rng(self.phase_seed(phase))
        blocks: List[List[InstructionRow]] = []
        num_blocks = profile.num_blocks
        for bid in range(num_blocks):
            pool = self._pool_for_block(bid)
            kind = self._pick_kernel(rng)
            size = max(3, int(rng.normal(profile.block_size_mean, profile.block_size_mean * 0.25)))
            rows: List[InstructionRow] = list(self._emit_kernel(kind, rng, size, pool))
            # Every block ends with a branch reading the last produced value
            # (or a live-in when the kernel produced only stores).
            last_value = next((dests[0] for _, dests, _ in reversed(rows) if dests), 0)
            rows.append((UopClass.BRANCH, (), (last_value,)))
            blocks.append(rows)

        # Control flow: a ring of blocks with optional self-loops and skip
        # edges; the last block always wraps around to the entry.
        edges: List[EdgeRow] = []
        for bid in range(num_blocks):
            succ = (bid + 1) % num_blocks
            if rng.random() < profile.loop_fraction:
                trips = max(2.0, rng.normal(profile.loop_trip_mean, profile.loop_trip_mean * 0.3))
                p_back = 1.0 - 1.0 / trips
                edges += [(bid, bid, p_back, True), (bid, succ, 1.0 - p_back, False)]
            elif rng.random() < profile.skip_fraction and bid + 2 < num_blocks:
                edges += [(bid, succ, 0.7, False), (bid, bid + 2, 0.3, False)]
            else:
                edges.append((bid, succ, 1.0, False))

        return Program.from_blocks(f"{profile.name}.p{phase}", blocks, edges)

    # -- trace construction ------------------------------------------------------
    def address_model(self, phase: int = 0) -> AddressModel:
        """Address model of the given phase (working set grows with the phase)."""
        profile = self.profile
        scale = 1.0 + phase * profile.phase_memory_scale
        return AddressModel(
            working_set_bytes=int(profile.working_set_kb * 1024 * scale),
            strided_fraction=profile.strided_fraction,
        )

    def generate_compiled_trace(
        self, num_uops: int, phase: int = 0
    ) -> Tuple[Program, CompiledTrace]:
        """Build the phase program and expand a compiled trace from it.

        Returns the program, so callers can run compiler passes on it, and
        the unannotated trace; install a pass's columns with
        ``trace.annotate_from(report.columns)``
        (:meth:`~repro.uops.compiled.CompiledTrace.annotate_from`).
        """
        program = self.generate_program(phase)
        generator = TraceGenerator(
            program,
            seed=self.phase_seed(phase) ^ 0x5BD1E995,
            address_model=self.address_model(phase),
            mispredict_rate=self.profile.mispredict_rate,
        )
        return program, generator.generate_compiled(num_uops)


def generate_program(profile: BenchmarkProfile, phase: int = 0) -> Program:
    """Convenience wrapper: build the static program of ``profile`` at ``phase``."""
    return WorkloadGenerator(profile).generate_program(phase)
