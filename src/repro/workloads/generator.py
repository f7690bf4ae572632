"""Parametric synthetic benchmark generator.

A :class:`BenchmarkProfile` captures the program characteristics that matter
for instruction steering -- the mix of DDG shapes (kernels), the amount of
instruction-level parallelism, the memory and floating-point intensity, the
control-flow behaviour and the working-set size.  :class:`WorkloadGenerator`
turns a profile (and a phase index) into a static
:class:`~repro.program.program.Program` plus a dynamic µop trace.

Phases model PinPoints simulation points: each phase uses a different seed
and a slightly different working set / kernel emphasis, so the weighted
averaging performed by the harness (as in the paper) is meaningful.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.program.basic_block import BasicBlock
from repro.program.cfg import ControlFlowGraph
from repro.program.program import Program
from repro.program.trace import AddressModel, TraceGenerator
from repro.uops.compiled import CompiledTrace
from repro.uops.opcodes import UopClass
from repro.uops.registers import RegisterSpace
from repro.uops.uop import DynamicUop, StaticInstruction
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

    def __init__(self, profile: BenchmarkProfile, register_space: Optional[RegisterSpace] = None):
        self.profile = profile
        self.register_space = register_space or RegisterSpace()

    # -- seeds -------------------------------------------------------------------
    def phase_seed(self, phase: int) -> int:
        """Deterministic seed of the given phase."""
        return phase_seed(self.profile, phase)

    # -- register windows --------------------------------------------------------
    def _pool_for_block(self, block_index: int) -> RegisterPool:
        space = self.register_space
        live_ins = list(range(self.NUM_LIVE_IN_REGISTERS))
        usable_int = space.num_int - self.NUM_LIVE_IN_REGISTERS
        window_size = max(4, usable_int // self.NUM_REGISTER_WINDOWS)
        window_index = block_index % self.NUM_REGISTER_WINDOWS
        start = self.NUM_LIVE_IN_REGISTERS + window_index * window_size
        int_window = [start + i for i in range(window_size) if start + i < space.num_int]
        fp_window_size = max(4, space.num_fp // self.NUM_REGISTER_WINDOWS)
        fp_start = space.num_int + window_index * fp_window_size
        fp_window = [fp_start + i for i in range(fp_window_size) if fp_start + i < space.total]
        return RegisterPool(space, int_window, fp_window, live_ins)

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
        blocks: List[BasicBlock] = []
        cfg = ControlFlowGraph(entry=0)
        next_sid = 0
        num_blocks = profile.num_blocks
        for bid in range(num_blocks):
            pool = self._pool_for_block(bid)
            kind = self._pick_kernel(rng)
            size = max(3, int(rng.normal(profile.block_size_mean, profile.block_size_mean * 0.25)))
            specs = self._emit_kernel(kind, rng, size, pool)
            block = BasicBlock(bid, name=f"{kind.value}_{bid}")
            for opclass, dests, srcs in specs:
                block.append(StaticInstruction(next_sid, opclass, dests, srcs, block=bid))
                next_sid += 1
            # Every block ends with a branch reading the last produced value
            # (or a live-in when the kernel produced only stores).
            last_value = None
            for inst in reversed(block.instructions):
                if inst.dests:
                    last_value = inst.dests[0]
                    break
            if last_value is None:
                last_value = 0
            block.append(StaticInstruction(next_sid, UopClass.BRANCH, (), (last_value,), block=bid))
            next_sid += 1
            blocks.append(block)

        # Control flow: a ring of blocks with optional self-loops and skip
        # edges; the last block always wraps around to the entry.
        for bid in range(num_blocks):
            succ = (bid + 1) % num_blocks
            if rng.random() < profile.loop_fraction:
                trips = max(2.0, rng.normal(profile.loop_trip_mean, profile.loop_trip_mean * 0.3))
                p_back = 1.0 - 1.0 / trips
                cfg.add_edge(bid, bid, probability=p_back, is_back_edge=True)
                cfg.add_edge(bid, succ, probability=1.0 - p_back)
                cfg.set_loop_trip_count(bid, trips)
            elif rng.random() < profile.skip_fraction and bid + 2 < num_blocks:
                cfg.add_edge(bid, succ, probability=0.7)
                cfg.add_edge(bid, bid + 2, probability=0.3)
            else:
                cfg.add_edge(bid, succ, probability=1.0)

        program = Program(
            name=f"{profile.name}.p{phase}",
            blocks=blocks,
            cfg=cfg,
            register_space=self.register_space,
        )
        program.validate()
        return program

    # -- trace construction ------------------------------------------------------
    def address_model(self, phase: int = 0) -> AddressModel:
        """Address model of the given phase (working set grows with the phase)."""
        profile = self.profile
        scale = 1.0 + phase * profile.phase_memory_scale
        return AddressModel(
            working_set_bytes=int(profile.working_set_kb * 1024 * scale),
            strided_fraction=profile.strided_fraction,
        )

    def _trace_generator(self, phase: int, program: Program) -> TraceGenerator:
        """The seeded expander both trace forms share for ``phase``."""
        return TraceGenerator(
            program,
            seed=self.phase_seed(phase) ^ 0x5BD1E995,
            address_model=self.address_model(phase),
            mispredict_rate=self.profile.mispredict_rate,
        )

    def generate_trace(
        self, num_uops: int, phase: int = 0, program: Optional[Program] = None
    ) -> Tuple[Program, List[DynamicUop]]:
        """Build (or reuse) the phase program and expand a dynamic trace from it.

        Returns the program (so callers can run compiler passes on it before
        or after expanding the trace -- annotations are shared by reference)
        and the list of dynamic µops.
        """
        if program is None:
            program = self.generate_program(phase)
        return program, self._trace_generator(phase, program).generate(num_uops)

    def generate_compiled_trace(
        self, num_uops: int, phase: int = 0, program: Optional[Program] = None
    ) -> Tuple[Program, CompiledTrace]:
        """Build (or reuse) the phase program and expand a *compiled* trace.

        Bit-identical stream to :meth:`generate_trace` (same seed and walk),
        emitted directly in the simulator's structure-of-arrays form.  The
        compiled trace snapshots the program's current annotations; after
        running a compiler pass, refresh them with
        :meth:`~repro.uops.compiled.CompiledTrace.annotate_from`.
        """
        if program is None:
            program = self.generate_program(phase)
        return program, self._trace_generator(phase, program).generate_compiled(num_uops)


def generate_program(profile: BenchmarkProfile, phase: int = 0) -> Program:
    """Convenience wrapper: build the static program of ``profile`` at ``phase``."""
    return WorkloadGenerator(profile).generate_program(phase)
