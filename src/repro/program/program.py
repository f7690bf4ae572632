"""Static program container."""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Sequence

from repro.program.basic_block import BasicBlock
from repro.program.cfg import ControlFlowGraph
from repro.uops.registers import DEFAULT_REGISTER_SPACE, RegisterSpace
from repro.uops.uop import StaticInstruction


class Program:
    """A static program: basic blocks plus a control-flow graph.

    This is the unit the compile-time partitioners read and the trace
    expander executes; neither changes it.  Blocks are stored by id; the CFG
    references the same ids.

    Parameters
    ----------
    name:
        Program (benchmark/trace) name, used in reports.
    blocks:
        The basic blocks.
    cfg:
        Control-flow graph over the block ids.
    register_space:
        The architectural register namespace used by the instructions.
    """

    def __init__(
        self,
        name: str,
        blocks: Sequence[BasicBlock],
        cfg: ControlFlowGraph,
        register_space: RegisterSpace = DEFAULT_REGISTER_SPACE,
    ) -> None:
        self.name = name
        self.blocks: Dict[int, BasicBlock] = {b.bid: b for b in blocks}
        if len(self.blocks) != len(blocks):
            raise ValueError("duplicate basic-block ids in program")
        self.cfg = cfg
        self.register_space = register_space
        for bid in self.blocks:
            cfg.add_block(bid)
        self._memo: Dict[Hashable, object] = {}

    # -- derived values -------------------------------------------------------------
    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """The value stored on this program under ``key``; ``build()`` makes it once.

        For values derived from the program's structure -- blocks, CFG and
        instruction operands -- such as the compile-time passes' regions and
        region DDGs (:func:`repro.partition.base.region_ddg`).  The
        program's structure must not change once such a value is built.
        ``key`` must cover every input of ``build`` besides the program.
        """
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    def __getstate__(self) -> Dict[str, object]:
        # The memo is derived, and a copy (or an unpickled program) has its
        # own instructions, so it is never carried along.
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._memo = {}

    # -- queries -----------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    @property
    def num_instructions(self) -> int:
        """Total number of static instructions."""
        return sum(len(b) for b in self.blocks.values())

    def block(self, bid: int) -> BasicBlock:
        """Return the basic block with id ``bid``."""
        return self.blocks[bid]

    def all_instructions(self) -> Iterator[StaticInstruction]:
        """Iterate over every static instruction (block order, program order)."""
        for bid in sorted(self.blocks):
            yield from self.blocks[bid].instructions

    def sid_opclasses(self):
        """The µop class of every static id as a read-only ``int16`` column
        (``-1`` where no instruction has that id): it sizes the passes'
        sid-indexed columns and checks a trace's ``sid``/``opclass`` rows."""
        import numpy as np

        def build():
            sids = [inst.sid for inst in self.all_instructions()]
            column = np.full(max(sids, default=-1) + 1, -1, dtype=np.int16)
            column[sids] = [int(inst.opclass) for inst in self.all_instructions()]
            column.flags.writeable = False
            return column

        return self.memo("sid opclasses", build)

    def validate(self) -> None:
        """Check structural invariants of the program.

        * the CFG validates,
        * every CFG block id has a basic block,
        * static ids are unique,
        * register ids are within the register space.
        """
        self.cfg.validate()
        for bid in self.cfg.blocks:
            if bid not in self.blocks:
                raise ValueError(f"CFG references unknown block {bid}")
        seen = set()
        for inst in self.all_instructions():
            if inst.sid in seen:
                raise ValueError(f"duplicate static id {inst.sid}")
            seen.add(inst.sid)
            for reg in (*inst.dests, *inst.srcs):
                if not 0 <= reg < self.register_space.total:
                    raise ValueError(
                        f"instruction {inst.sid} references register {reg} outside the register space"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(name={self.name!r}, blocks={self.num_blocks}, "
            f"instructions={self.num_instructions})"
        )
