"""Dynamic trace expansion.

The paper's simulator is trace-driven: it executes traces of IA32 binaries
collected with Pin.  Our substitute expands a static :class:`~repro.program.program.Program`
into a :class:`~repro.uops.compiled.CompiledTrace` by walking the CFG with a
seeded random generator:

* control flow follows the edge probabilities of the CFG (loops therefore
  iterate with their expected trip counts),
* memory instructions receive effective addresses from per-instruction
  address streams (strided or uniformly random within a configurable working
  set), so the cache hierarchy sees realistic locality,
* branch µops are occasionally flagged as mispredicted, which the front end
  of the simulator turns into fetch redirect penalties.

Everything is reproducible from the ``seed``.  The walk records only
``(sid, address, mispredict)`` per µop; the
:class:`~repro.uops.compiled.CompiledTrace` constructor gathers every static
column by sid, so no per-µop Python object is created.  ``tests/test_annotation_digests.py``
pins the generated streams of the figure 5 and figure 7 scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.program.program import Program
from repro.uops.compiled import CompiledTrace
from repro.uops.opcodes import is_branch, is_memory

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
    def _address_for(self, sid: int) -> int:
        """Next effective address for a dynamic instance of instruction ``sid``."""
        model = self.address_model
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
        edges = self.program.successors(bid)
        if not edges:
            return [self.program.entry], None
        targets = [dst for dst, _, _ in edges]
        if len(edges) == 1:
            return targets, None
        probabilities = np.array([probability for _, probability, _ in edges], dtype=float)
        total = probabilities.sum()
        if total <= 0:
            return targets, None
        probabilities /= total
        return targets, probabilities

    # -- expansion ---------------------------------------------------------------
    def generate_compiled(self, num_uops: int) -> CompiledTrace:
        """Produce a compiled trace of approximately ``num_uops`` dynamic µops.

        The trace always ends at a basic-block boundary, so the length may
        exceed ``num_uops`` by at most one block.  It is unannotated; a
        compile-time pass's columns are installed with
        :meth:`~repro.uops.compiled.CompiledTrace.annotate_from`.
        """
        if num_uops < 1:
            raise ValueError("num_uops must be positive")
        sids: List[int] = []
        addresses: List[int] = []
        mispredicted: List[bool] = []
        rng_random = self._rng.random
        rate = self.mispredict_rate
        address_for = self._address_for
        program = self.program
        opclasses = program.opclass.tolist()
        # Per block, its instructions' (sid, memory, branch) facts,
        # classified once per block rather than once per µop.
        block_facts: Dict[int, List[tuple]] = {}
        bid = program.entry
        guard = num_uops * 4 + 16  # bounds the walk on degenerate CFGs with empty blocks
        while len(sids) < num_uops and guard:
            guard -= 1
            facts = block_facts.get(bid)
            if facts is None:
                facts = [
                    (sid, is_memory(opclasses[sid]), is_branch(opclasses[sid]))
                    for sid in program.block_sids(bid)
                ]
                block_facts[bid] = facts
            for sid, memory, branch in facts:
                sids.append(sid)
                addresses.append(address_for(sid) if memory else 0)
                mispredicted.append(branch and rng_random() < rate)
            bid = self._next_block(bid)
        if not sids:
            raise ValueError("trace expansion produced no µops (empty program?)")
        return CompiledTrace(program, sids, addresses, mispredicted)
