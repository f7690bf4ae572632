"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.program.basic_block import BasicBlock
from repro.program.cfg import ControlFlowGraph
from repro.program.program import Program
from repro.uops.compiled import NO_ANNOTATION, CompiledTrace
from repro.uops.opcodes import UopClass
from repro.uops.uop import StaticInstruction
from repro.workloads.generator import BenchmarkProfile, WorkloadGenerator
from repro.workloads.kernels import KernelKind


def make_instruction(sid, opclass=UopClass.INT_ALU, dests=(), srcs=(), block=0):
    """Convenience constructor used across the test suite."""
    return StaticInstruction(sid, opclass, dests, srcs, block=block)


def make_trace(
    instructions,
    addresses=None,
    mispredicted=None,
    vc_ids=None,
    chain_leaders=None,
    static_clusters=None,
):
    """A hand-made trace: one µop per entry of ``instructions``, in order.

    Each µop copies its static instruction's registers and block;
    ``addresses`` and ``mispredicted`` give the per-µop dynamic facts (0 and
    ``False`` when omitted) and ``vc_ids`` / ``chain_leaders`` /
    ``static_clusters`` its annotations (``None`` entries, or an omitted
    column, read unannotated).
    """
    n = len(instructions)

    def annotation(values):
        if values is None:
            return None
        return [NO_ANNOTATION if value is None else value for value in values]

    return CompiledTrace.from_columns(
        sids=[inst.sid for inst in instructions],
        opclasses=[int(inst.opclass) for inst in instructions],
        srcs=[inst.srcs for inst in instructions],
        dests=[inst.dests for inst in instructions],
        blocks=[inst.block for inst in instructions],
        addresses=[0] * n if addresses is None else addresses,
        mispredicted=[False] * n if mispredicted is None else mispredicted,
        vc_ids=annotation(vc_ids),
        chain_leaders=chain_leaders,
        static_clusters=annotation(static_clusters),
    )


@pytest.fixture
def simple_block():
    """A small straight-line block with a clear dependence chain and a branch.

    R10 = R0 + R1 ; R11 = load(R10) ; R12 = R11 + R2 ; R13 = R3 + R4 ;
    branch(R12)
    """
    instructions = [
        make_instruction(0, UopClass.INT_ALU, dests=(10,), srcs=(0, 1)),
        make_instruction(1, UopClass.LOAD, dests=(11,), srcs=(10,)),
        make_instruction(2, UopClass.INT_ALU, dests=(12,), srcs=(11, 2)),
        make_instruction(3, UopClass.INT_ALU, dests=(13,), srcs=(3, 4)),
        make_instruction(4, UopClass.BRANCH, dests=(), srcs=(12,)),
    ]
    return BasicBlock(0, instructions)


@pytest.fixture
def two_chain_block():
    """A block with two completely independent dependence chains."""
    instructions = [
        make_instruction(0, UopClass.INT_ALU, dests=(10,), srcs=(0,)),
        make_instruction(1, UopClass.INT_ALU, dests=(20,), srcs=(1,)),
        make_instruction(2, UopClass.INT_ALU, dests=(11,), srcs=(10,)),
        make_instruction(3, UopClass.INT_ALU, dests=(21,), srcs=(20,)),
        make_instruction(4, UopClass.INT_ALU, dests=(12,), srcs=(11,)),
        make_instruction(5, UopClass.INT_ALU, dests=(22,), srcs=(21,)),
    ]
    return BasicBlock(0, instructions)


@pytest.fixture
def tiny_program(simple_block):
    """A two-block program with a loop on the first block."""
    second = BasicBlock(
        1,
        [
            make_instruction(10, UopClass.INT_ALU, dests=(14,), srcs=(12, 13)),
            make_instruction(11, UopClass.STORE, dests=(), srcs=(0, 14)),
            make_instruction(12, UopClass.BRANCH, dests=(), srcs=(14,)),
        ],
    )
    cfg = ControlFlowGraph(entry=0)
    cfg.add_edge(0, 0, probability=0.75, is_back_edge=True)
    cfg.add_edge(0, 1, probability=0.25)
    cfg.add_edge(1, 0, probability=1.0)
    cfg.set_loop_trip_count(0, 4.0)
    program = Program("tiny", [simple_block, second], cfg)
    program.validate()
    return program


@pytest.fixture
def small_profile():
    """A small, fast-to-simulate benchmark profile used by integration tests."""
    return BenchmarkProfile(
        name="test.small",
        suite="int",
        kernel_mix={
            KernelKind.PARALLEL_CHAINS: 0.6,
            KernelKind.BRANCHY: 0.2,
            KernelKind.SERIAL_CHAIN: 0.2,
        },
        ilp=3,
        block_size_mean=14,
        num_blocks=10,
        working_set_kb=64,
        num_phases=2,
        base_seed=42,
    )


@pytest.fixture
def small_fp_profile():
    """A small floating-point profile (stream + reduction kernels)."""
    return BenchmarkProfile(
        name="test.small-fp",
        suite="fp",
        kernel_mix={KernelKind.STREAM: 0.5, KernelKind.REDUCTION: 0.5},
        ilp=4,
        block_size_mean=20,
        num_blocks=8,
        working_set_kb=128,
        num_phases=2,
        base_seed=7,
    )


@pytest.fixture
def small_trace(small_profile):
    """A (program, compiled trace) pair of ~800 µops from the small profile."""
    generator = WorkloadGenerator(small_profile)
    return generator.generate_compiled_trace(800, phase=0)
