"""Static instructions.

The paper's hybrid scheme relies on a strict split of responsibilities:

* the **compiler** works on *static* instructions organised in basic blocks
  and data-dependence graphs, and derives steering annotations (virtual
  cluster id, chain-leader mark, or a static physical-cluster binding) for
  them;
* the **hardware** executes a *dynamic* stream of µops, each of which is an
  instance of a static instruction and inherits its annotations through the
  ISA extension.

:class:`StaticInstruction` models the compiler's side, a lightweight,
never-mutated ``__slots__`` class.  A pass's annotations are a value, not
fields of the instruction: columns indexed by static id
(:class:`~repro.partition.base.PartitionReport`).  The hardware's side is a
:class:`~repro.uops.compiled.CompiledTrace`: one array row per dynamic µop,
holding its static id and a copy of that instruction's annotations.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.uops.opcodes import UopClass, is_branch, is_memory, latency_of


class StaticInstruction:
    """One compiler-visible instruction.

    Parameters
    ----------
    sid:
        Unique static id within the program.
    opclass:
        The :class:`~repro.uops.opcodes.UopClass` of the instruction.
    dests:
        Destination architectural register ids (usually zero or one).
    srcs:
        Source architectural register ids.
    block:
        Id of the basic block containing the instruction.
    """

    __slots__ = ("sid", "opclass", "dests", "srcs", "block")

    def __init__(
        self,
        sid: int,
        opclass: UopClass,
        dests: Sequence[int] = (),
        srcs: Sequence[int] = (),
        block: int = 0,
    ) -> None:
        self.sid = int(sid)
        self.opclass = UopClass(opclass)
        self.dests: Tuple[int, ...] = tuple(map(int, dests))
        self.srcs: Tuple[int, ...] = tuple(map(int, srcs))
        self.block = int(block)

    # -- classification helpers -------------------------------------------------
    @property
    def latency(self) -> int:
        """Functional-unit latency of the instruction."""
        return latency_of(self.opclass)

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return is_memory(self.opclass)

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.opclass == UopClass.LOAD

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.opclass == UopClass.STORE

    @property
    def is_branch(self) -> bool:
        """True for control-flow instructions."""
        return is_branch(self.opclass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticInstruction(sid={self.sid}, {self.opclass.name}, "
            f"dests={self.dests}, srcs={self.srcs}, block={self.block})"
        )
