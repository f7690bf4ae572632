"""Instruction-pattern kernels used to build synthetic benchmarks.

Each kernel emits a list of *instruction specs* -- ``(opclass, dests, srcs)``
tuples over an abstract register pool -- with a characteristic data-dependence
shape:

========================  =====================================================
Kernel                    DDG shape
========================  =====================================================
:func:`serial_chain_kernel`      one long serial chain (ILP ~ 1); models
                                 pointer chasing (mcf, parser, twolf)
:func:`parallel_chains_kernel`   ``k`` independent chains of equal length;
                                 the bread-and-butter case for steering
:func:`reduction_kernel`         balanced binary reduction tree; high ILP at
                                 the leaves collapsing to 1 at the root
                                 (FP codes such as galgel, swim)
:func:`stream_kernel`            load - compute - store per element, iterations
                                 independent; memory-bandwidth bound codes
                                 (art, swim, equake)
:func:`branchy_kernel`           short chains interleaved with compares and
                                 branches; control-dominated integer codes
                                 (gcc, perlbmk, crafty)
========================  =====================================================

Kernels are pure functions of their RNG and the register pool, so programs
built from them are fully reproducible.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.uops.opcodes import UopClass
from repro.uops.registers import RegisterSpace
from repro.workloads.profile import KernelKind

#: An instruction spec: (opclass, destination registers, source registers).
InstructionSpec = Tuple[UopClass, Tuple[int, ...], Tuple[int, ...]]


class RegisterPool:
    """Round-robin allocator over a register window.

    Each kernel invocation receives its own pool carved out of the program's
    register space so that independent chains use disjoint registers (no
    accidental false dependences) while values still get reused often enough
    for cross-block dependences to exist.
    """

    def __init__(
        self,
        space: RegisterSpace,
        int_window: Sequence[int],
        fp_window: Sequence[int],
        live_ins: Sequence[int],
    ) -> None:
        if not int_window:
            raise ValueError("integer register window must not be empty")
        self.space = space
        self._int_window = list(int_window)
        self._fp_window = list(fp_window) if fp_window else list(int_window)
        self._live_ins = list(live_ins) if live_ins else list(int_window[:1])
        self._int_next = 0
        self._fp_next = 0

    def live_in(self, rng: np.random.Generator) -> int:
        """A register holding a region live-in value."""
        return int(self._live_ins[int(rng.integers(0, len(self._live_ins)))])

    def next_int(self) -> int:
        """Allocate the next integer destination register (round robin)."""
        reg = self._int_window[self._int_next % len(self._int_window)]
        self._int_next += 1
        return int(reg)

    def next_fp(self) -> int:
        """Allocate the next floating-point destination register (round robin)."""
        reg = self._fp_window[self._fp_next % len(self._fp_window)]
        self._fp_next += 1
        return int(reg)


def _arith_op(rng: np.random.Generator, fp: bool, long_latency_fraction: float) -> UopClass:
    """Pick an arithmetic µop class; occasionally a long-latency one."""
    roll = rng.random()
    if fp:
        if roll < long_latency_fraction * 0.3:
            return UopClass.FP_DIV
        if roll < 0.5:
            return UopClass.FP_MUL
        return UopClass.FP_ADD
    if roll < long_latency_fraction * 0.2:
        return UopClass.INT_DIV
    if roll < long_latency_fraction:
        return UopClass.INT_MUL
    return UopClass.INT_ALU


def serial_chain_kernel(
    rng: np.random.Generator,
    size: int,
    pool: RegisterPool,
    fp: bool = False,
    load_fraction: float = 0.3,
    long_latency_fraction: float = 0.1,
) -> List[InstructionSpec]:
    """One serial dependence chain of ``size`` operations (ILP ~ 1).

    A fraction of the chain links are loads (pointer chasing): the loaded
    value feeds the next link, which is what makes these codes so hostile to
    clustering.
    """
    specs: List[InstructionSpec] = []
    current = pool.live_in(rng)
    for _ in range(max(1, size)):
        dest = pool.next_fp() if fp else pool.next_int()
        if rng.random() < load_fraction:
            specs.append((UopClass.LOAD, (dest,), (current,)))
        else:
            op = _arith_op(rng, fp, long_latency_fraction)
            other = pool.live_in(rng)
            specs.append((op, (dest,), (current, other)))
        current = dest
    return specs


def parallel_chains_kernel(
    rng: np.random.Generator,
    size: int,
    pool: RegisterPool,
    num_chains: int = 3,
    fp: bool = False,
    load_fraction: float = 0.25,
    store_fraction: float = 0.1,
    cross_chain_fraction: float = 0.1,
    long_latency_fraction: float = 0.1,
) -> List[InstructionSpec]:
    """``num_chains`` independent chains interleaved in program order.

    ``cross_chain_fraction`` of operations read a value from another chain,
    creating the occasional diagonal dependence that distinguishes a good
    partition (chains kept whole) from a bad one (chains split).
    """
    num_chains = max(1, num_chains)
    specs: List[InstructionSpec] = []
    heads: List[int] = [pool.live_in(rng) for _ in range(num_chains)]
    for i in range(max(1, size)):
        chain = i % num_chains
        dest = pool.next_fp() if fp else pool.next_int()
        roll = rng.random()
        srcs: Tuple[int, ...]
        if roll < load_fraction:
            op = UopClass.LOAD
            srcs = (heads[chain],)
        elif roll < load_fraction + store_fraction:
            op = UopClass.STORE
            address = pool.live_in(rng)
            specs.append((op, (), (address, heads[chain])))
            continue
        else:
            op = _arith_op(rng, fp, long_latency_fraction)
            if num_chains > 1 and rng.random() < cross_chain_fraction:
                other_chain = int(rng.integers(0, num_chains))
                srcs = (heads[chain], heads[other_chain])
            else:
                srcs = (heads[chain], pool.live_in(rng))
        specs.append((op, (dest,), srcs))
        heads[chain] = dest
    return specs


def reduction_kernel(
    rng: np.random.Generator,
    size: int,
    pool: RegisterPool,
    fp: bool = True,
    load_fraction: float = 0.5,
) -> List[InstructionSpec]:
    """Balanced binary reduction: ``size`` leaf values combined pairwise.

    The leaves are loads (or live-in reads); interior nodes are adds.  ILP is
    high near the leaves and collapses towards the root, giving the
    criticality analysis a clear gradient to work with.
    """
    leaves = max(2, size // 2)
    specs: List[InstructionSpec] = []
    frontier: List[int] = []
    for _ in range(leaves):
        dest = pool.next_fp() if fp else pool.next_int()
        if rng.random() < load_fraction:
            specs.append((UopClass.LOAD, (dest,), (pool.live_in(rng),)))
        else:
            op = UopClass.FP_ADD if fp else UopClass.INT_ALU
            specs.append((op, (dest,), (pool.live_in(rng), pool.live_in(rng))))
        frontier.append(dest)
    while len(frontier) > 1:
        next_frontier: List[int] = []
        for i in range(0, len(frontier) - 1, 2):
            dest = pool.next_fp() if fp else pool.next_int()
            op = UopClass.FP_ADD if fp else UopClass.INT_ALU
            specs.append((op, (dest,), (frontier[i], frontier[i + 1])))
            next_frontier.append(dest)
        if len(frontier) % 2 == 1:
            next_frontier.append(frontier[-1])
        frontier = next_frontier
    return specs


def stream_kernel(
    rng: np.random.Generator,
    size: int,
    pool: RegisterPool,
    fp: bool = True,
    ops_per_element: int = 2,
    long_latency_fraction: float = 0.15,
) -> List[InstructionSpec]:
    """Streaming loop body: load, a short computation, store -- per element.

    Iterations are mutually independent, so the DDG is a forest of small
    trees; these codes want balanced distribution more than anything else.
    """
    specs: List[InstructionSpec] = []
    elements = max(1, size // (ops_per_element + 2))
    for _ in range(elements):
        address = pool.live_in(rng)
        value = pool.next_fp() if fp else pool.next_int()
        specs.append((UopClass.LOAD, (value,), (address,)))
        current = value
        for _ in range(ops_per_element):
            dest = pool.next_fp() if fp else pool.next_int()
            op = _arith_op(rng, fp, long_latency_fraction)
            specs.append((op, (dest,), (current, pool.live_in(rng))))
            current = dest
        specs.append((UopClass.STORE, (), (address, current)))
    return specs


def branchy_kernel(
    rng: np.random.Generator,
    size: int,
    pool: RegisterPool,
    load_fraction: float = 0.3,
    branch_fraction: float = 0.2,
) -> List[InstructionSpec]:
    """Control-dominated integer code: short chains, compares and branches.

    Branches read the most recently produced value (the compare result), so
    they sit at the end of short dependence chains as in real integer code.
    """
    specs: List[InstructionSpec] = []
    recent: List[int] = [pool.live_in(rng)]
    for _ in range(max(1, size)):
        roll = rng.random()
        if roll < branch_fraction and specs:
            specs.append((UopClass.BRANCH, (), (recent[-1],)))
            continue
        dest = pool.next_int()
        if roll < branch_fraction + load_fraction:
            specs.append((UopClass.LOAD, (dest,), (recent[-1],)))
        else:
            src_a = recent[int(rng.integers(0, len(recent)))]
            src_b = pool.live_in(rng)
            specs.append((UopClass.INT_ALU, (dest,), (src_a, src_b)))
        recent.append(dest)
        if len(recent) > 4:
            recent.pop(0)
    return specs


#: Dispatch table from :class:`KernelKind` to the kernel function.
KERNEL_FUNCTIONS = {
    KernelKind.SERIAL_CHAIN: serial_chain_kernel,
    KernelKind.PARALLEL_CHAINS: parallel_chains_kernel,
    KernelKind.REDUCTION: reduction_kernel,
    KernelKind.STREAM: stream_kernel,
    KernelKind.BRANCHY: branchy_kernel,
}
