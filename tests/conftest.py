"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np
import pytest

from repro.program.ddg import build_ddg
from repro.partition.multilevel import _merge_edges
from repro.program.program import Program
from repro.uops.compiled import CompiledTrace, empty_annotations
from repro.uops.opcodes import UopClass, is_memory, latency_of
from repro.workloads.generator import BenchmarkProfile, WorkloadGenerator
from repro.workloads.kernels import KernelKind


class Instruction(NamedTuple):
    """A hand-made static instruction: one program row."""

    opclass: UopClass
    dests: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()

    @property
    def latency(self) -> int:
        return latency_of(self.opclass)

    @property
    def is_memory(self) -> bool:
        return is_memory(self.opclass)


def make_instruction(opclass=UopClass.INT_ALU, dests=(), srcs=()):
    """Convenience constructor used across the test suite."""
    return Instruction(UopClass(opclass), tuple(dests), tuple(srcs))


def make_program(*blocks, edges=(), name="test"):
    """A program whose block ``b`` holds the instructions ``blocks[b]``, in
    order; sids number them in block order."""
    rows = [[(inst.opclass, inst.dests, inst.srcs) for inst in block] for block in blocks]
    return Program.from_blocks(name, rows, edges)


def program_bytes(program):
    """Every column of ``program``, plus its name and entry."""
    meta = (program.name, program.entry)
    return repr(meta).encode() + b"".join(
        getattr(program, name).tobytes() for name in Program.COLUMNS
    )


def block_ddg(instructions):
    """The DDG of ``instructions`` as the one block of a program."""
    return build_ddg(make_program(instructions), range(len(instructions)))


def edge_latency(ddg):
    """``ddg``'s edges as ``{(producer, consumer): latency}``, in edge order."""
    return dict(zip(zip(ddg.pred_nodes, ddg.edge_consumers), ddg.edge_latencies))


def predecessors(ddg, node):
    """The producers ``node`` depends on, read from ``ddg``'s CSR arrays."""
    return ddg.pred_nodes[ddg.pred_start[node] : ddg.pred_start[node + 1]]


def leaves(ddg):
    """Nodes of ``ddg`` with no successor inside the region."""
    producers = set(ddg.pred_nodes)
    return [node for node in range(len(ddg)) if node not in producers]


def critical_nodes(info):
    """The nodes a :class:`CriticalityInfo` puts on some critical path."""
    return [i for i, c in enumerate(info.criticality) if c == info.critical_path_length]


def partition_graph(partitioner, node_weights, edge_weights, node_groups=None):
    """``partitioner``'s part of every node of a graph whose edges are
    ``{(u, v): weight}`` (direction ignored, parallel pairs summed); one
    balance group unless ``node_groups`` gives each node its own."""
    n = len(node_weights)
    edges = _merge_edges(
        [u for u, _ in edge_weights], [v for _, v in edge_weights], list(edge_weights.values()),
        range(n),
    )
    groups = list(node_groups) if node_groups is not None else [0] * n
    return partitioner.partition_edges(list(node_weights), edges, groups)


def traces_equal(a, b):
    """Column-for-column equality of two compiled traces' stored fields."""
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in CompiledTrace.STORED_FIELDS
    )


def make_trace(
    instructions,
    addresses=None,
    mispredicted=None,
    vc_ids=None,
    chain_leaders=None,
    static_clusters=None,
):
    """A hand-made trace: one µop per entry of ``instructions``, in order.

    The instructions form the one block of a program (µop ``i`` runs sid
    ``i``); ``addresses`` and ``mispredicted`` give the per-µop dynamic facts
    (0 and ``False`` when omitted) and ``vc_ids`` / ``chain_leaders`` /
    ``static_clusters`` its annotations (``None`` entries, or an omitted
    column, read unannotated).
    """
    n = len(instructions)
    trace = CompiledTrace(
        make_program(instructions),
        np.arange(n),
        [0] * n if addresses is None else addresses,
        [False] * n if mispredicted is None else mispredicted,
    )
    columns = empty_annotations(n)
    for column, values in zip(columns, (vc_ids, chain_leaders, static_clusters)):
        for i, value in enumerate(values or ()):
            if value is not None:
                column[i] = value
    return trace.install_annotations(columns)


@pytest.fixture
def simple_block():
    """A small straight-line block with a clear dependence chain and a branch.

    R10 = R0 + R1 ; R11 = load(R10) ; R12 = R11 + R2 ; R13 = R3 + R4 ;
    branch(R12)
    """
    return [
        make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0, 1)),
        make_instruction(UopClass.LOAD, dests=(11,), srcs=(10,)),
        make_instruction(UopClass.INT_ALU, dests=(12,), srcs=(11, 2)),
        make_instruction(UopClass.INT_ALU, dests=(13,), srcs=(3, 4)),
        make_instruction(UopClass.BRANCH, dests=(), srcs=(12,)),
    ]


@pytest.fixture
def two_chain_block():
    """A block with two completely independent dependence chains."""
    return [
        make_instruction(UopClass.INT_ALU, dests=(10,), srcs=(0,)),
        make_instruction(UopClass.INT_ALU, dests=(20,), srcs=(1,)),
        make_instruction(UopClass.INT_ALU, dests=(11,), srcs=(10,)),
        make_instruction(UopClass.INT_ALU, dests=(21,), srcs=(20,)),
        make_instruction(UopClass.INT_ALU, dests=(12,), srcs=(11,)),
        make_instruction(UopClass.INT_ALU, dests=(22,), srcs=(21,)),
    ]


@pytest.fixture
def tiny_program(simple_block):
    """A two-block program with a loop on the first block (sids 0-4 and 5-7)."""
    second = [
        make_instruction(UopClass.INT_ALU, dests=(14,), srcs=(12, 13)),
        make_instruction(UopClass.STORE, dests=(), srcs=(0, 14)),
        make_instruction(UopClass.BRANCH, dests=(), srcs=(14,)),
    ]
    edges = [(0, 0, 0.75, True), (0, 1, 0.25, False), (1, 0, 1.0, False)]
    return make_program(simple_block, second, edges=edges, name="tiny")


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
