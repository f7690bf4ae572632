"""Dynamic trace expansion.

The paper's simulator is trace-driven: it executes traces of IA32 binaries
collected with Pin.  Our substitute expands a static :class:`~repro.program.program.Program`
into a stream of :class:`~repro.uops.uop.DynamicUop` by walking the CFG with
a seeded random generator:

* control flow follows the edge probabilities of the CFG (loops therefore
  iterate with their expected trip counts),
* memory instructions receive effective addresses from per-instruction
  address streams (strided or uniformly random within a configurable working
  set), so the cache hierarchy sees realistic locality,
* branch µops are occasionally flagged as mispredicted, which the front end
  of the simulator turns into fetch redirect penalties.

Everything is reproducible from the ``seed``.  Both output forms share one
seeded CFG walk: :meth:`TraceGenerator.generate` materialises
:class:`~repro.uops.uop.DynamicUop` objects referencing the program's static
instructions (annotations stay shared by reference), while
:meth:`TraceGenerator.generate_compiled` emits a
:class:`~repro.uops.compiled.CompiledTrace` directly -- per-instruction facts
are gathered once per static instruction and scattered across the dynamic
stream, so no per-µop Python object is ever created on the fast path.  The
two forms are interchangeable: ``generate_compiled(n)`` equals
``compile_trace(generate(n))`` for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.program.basic_block import BasicBlock
from repro.program.program import Program
from repro.uops.compiled import NO_ANNOTATION, CompiledTrace
from repro.uops.uop import DynamicUop, StaticInstruction

#: Cache line size assumed by the address model (bytes).
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class AddressModel:
    """Parameters of the synthetic effective-address streams.

    Parameters
    ----------
    working_set_bytes:
        Size of the region of memory touched by random accesses.  Working
        sets larger than the L1 (or L2) produce the corresponding miss
        behaviour.
    strided_fraction:
        Fraction of static memory instructions whose dynamic instances form a
        sequential strided stream (high spatial locality); the remainder
        access uniformly random lines of the working set.
    stride_bytes:
        Stride of the sequential streams.
    """

    working_set_bytes: int = 512 * 1024
    strided_fraction: float = 0.6
    stride_bytes: int = 8


class TraceGenerator:
    """Expand a static program into a dynamic µop trace.

    Parameters
    ----------
    program:
        The static program to execute.
    seed:
        Seed of the NumPy generator used for control flow, addresses and
        branch outcomes.
    address_model:
        Synthetic memory behaviour (see :class:`AddressModel`).
    mispredict_rate:
        Probability that a dynamic branch is flagged as mispredicted.
    """

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        address_model: Optional[AddressModel] = None,
        mispredict_rate: float = 0.02,
    ) -> None:
        self.program = program
        self.seed = int(seed)
        self.address_model = address_model or AddressModel()
        if not 0.0 <= mispredict_rate <= 1.0:
            raise ValueError("mispredict_rate must be in [0, 1]")
        self.mispredict_rate = float(mispredict_rate)
        self._rng = np.random.default_rng(self.seed)
        # Per static memory instruction: (is_strided, base_address, counter).
        self._streams: Dict[int, List[int]] = {}
        self._stream_is_strided: Dict[int, bool] = {}
        # Per block: its successor distribution (the CFG is fixed).
        self._successors: Dict[int, tuple] = {}

    # -- address streams ---------------------------------------------------------
    def _address_for(self, inst: StaticInstruction) -> int:
        """Next effective address for a dynamic instance of ``inst``."""
        model = self.address_model
        sid = inst.sid
        if sid not in self._stream_is_strided:
            self._stream_is_strided[sid] = bool(self._rng.random() < model.strided_fraction)
            base = int(self._rng.integers(0, max(1, model.working_set_bytes // CACHE_LINE_BYTES)))
            self._streams[sid] = [base * CACHE_LINE_BYTES, 0]
        if self._stream_is_strided[sid]:
            base, count = self._streams[sid]
            address = (base + count * model.stride_bytes) % model.working_set_bytes
            self._streams[sid][1] = count + 1
            return address
        line = int(self._rng.integers(0, max(1, model.working_set_bytes // CACHE_LINE_BYTES)))
        return line * CACHE_LINE_BYTES

    # -- control flow ------------------------------------------------------------
    def _next_block(self, bid: int) -> int:
        """Sample the next block id from the outgoing edges of ``bid``."""
        successors = self._successors.get(bid)
        if successors is None:
            successors = self._successors[bid] = self._successor_distribution(bid)
        targets, probabilities = successors
        if probabilities is None:
            return targets[0]
        return targets[int(self._rng.choice(len(targets), p=probabilities))]

    def _successor_distribution(self, bid: int):
        """``(target block ids, normalised probabilities)`` of ``bid``'s out-edges.

        The probabilities are ``None`` when the successor is fixed (no
        edges: back to the entry; one edge; or no positive weight), so no
        random draw is made -- exactly when the walk draws none.
        """
        edges = self.program.cfg.successors(bid)
        if not edges:
            return [self.program.cfg.entry], None
        targets = [edge.dst for edge in edges]
        if len(edges) == 1:
            return targets, None
        probabilities = np.array([e.probability for e in edges], dtype=float)
        total = probabilities.sum()
        if total <= 0:
            return targets, None
        probabilities /= total
        return targets, probabilities

    # -- expansion ---------------------------------------------------------------
    def _walk_blocks(self, num_uops: int) -> Iterator[BasicBlock]:
        """The seeded CFG walk shared by both trace forms.

        Yields basic blocks until at least ``num_uops`` instructions have
        been covered (the trace always ends at a block boundary).  Both
        :meth:`generate` and :meth:`generate_compiled` consume this walk and
        draw their per-µop randomness in the same order, which is what makes
        the two forms bit-identical for one seed.
        """
        count = 0
        bid = self.program.cfg.entry
        guard = 0
        max_blocks = num_uops * 4 + 16  # guard against degenerate CFGs with empty blocks
        while count < num_uops and guard < max_blocks:
            guard += 1
            block = self.program.block(bid)
            yield block
            count += len(block.instructions)
            bid = self._next_block(bid)

    def generate(self, num_uops: int) -> List[DynamicUop]:
        """Produce a trace of approximately ``num_uops`` dynamic µops.

        The trace always ends at a basic-block boundary, so the length may
        exceed ``num_uops`` by at most one block.  The returned µops share
        the program's :class:`StaticInstruction` instances, so compiler
        annotations applied to the program after expansion are visible
        through the trace.
        """
        if num_uops < 1:
            raise ValueError("num_uops must be positive")
        trace: List[DynamicUop] = []
        seq = 0
        for block in self._walk_blocks(num_uops):
            for inst in block.instructions:
                address = self._address_for(inst) if inst.is_memory else 0
                mispredicted = bool(
                    inst.is_branch and self._rng.random() < self.mispredict_rate
                )
                trace.append(DynamicUop(seq, inst, address=address, mispredicted=mispredicted))
                seq += 1
        if not trace:
            raise ValueError("trace expansion produced no µops (empty program?)")
        return trace

    def generate_compiled(self, num_uops: int) -> CompiledTrace:
        """Expand directly to a :class:`~repro.uops.compiled.CompiledTrace`.

        Identical stream to :meth:`generate` (same walk, same per-µop
        randomness), but no ``DynamicUop`` objects are created: the walk
        only records ``(sid, address, mispredict)`` and every static fact is
        gathered per distinct instruction afterwards.
        """
        if num_uops < 1:
            raise ValueError("num_uops must be positive")
        sids: List[int] = []
        addresses: List[int] = []
        mispredicted: List[bool] = []
        rng_random = self._rng.random
        rate = self.mispredict_rate
        address_for = self._address_for
        # Per block, its instructions' (instruction, sid, memory, branch)
        # facts, classified once per block rather than once per µop.  The
        # per-µop draws happen in the same order as in ``generate``.
        block_facts: Dict[int, List[tuple]] = {}
        for block in self._walk_blocks(num_uops):
            facts = block_facts.get(block.bid)
            if facts is None:
                facts = [
                    (inst, inst.sid, inst.is_memory, inst.is_branch)
                    for inst in block.instructions
                ]
                block_facts[block.bid] = facts
            for inst, sid, memory, branch in facts:
                sids.append(sid)
                addresses.append(address_for(inst) if memory else 0)
                mispredicted.append(branch and rng_random() < rate)
        if not sids:
            raise ValueError("trace expansion produced no µops (empty program?)")
        # Gather the static columns once per instruction, scatter per µop.
        rows = {
            inst.sid: (
                int(inst.opclass),
                inst.srcs,
                inst.dests,
                inst.block,
                NO_ANNOTATION if inst.vc_id is None else int(inst.vc_id),
                bool(inst.chain_leader),
                NO_ANNOTATION if inst.static_cluster is None else int(inst.static_cluster),
            )
            for block in self.program.blocks.values()
            for inst in block.instructions
        }
        opclasses, srcs, dests, blocks, vc_ids, leaders, static_clusters = zip(
            *[rows[sid] for sid in sids]
        )
        return CompiledTrace.from_columns(
            sids=sids,
            opclasses=opclasses,
            srcs=srcs,
            dests=dests,
            blocks=blocks,
            addresses=addresses,
            mispredicted=mispredicted,
            vc_ids=vc_ids,
            chain_leaders=leaders,
            static_clusters=static_clusters,
        )


def expand_trace(
    program: Program,
    num_uops: int,
    seed: int = 0,
    address_model: Optional[AddressModel] = None,
    mispredict_rate: float = 0.02,
) -> List[DynamicUop]:
    """Convenience wrapper around :class:`TraceGenerator`.

    See :class:`TraceGenerator` for parameter semantics.
    """
    generator = TraceGenerator(
        program,
        seed=seed,
        address_model=address_model,
        mispredict_rate=mispredict_rate,
    )
    return generator.generate(num_uops)
