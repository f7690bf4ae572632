"""Static instructions and dynamic µops.

The paper's hybrid scheme relies on a strict split of responsibilities:

* the **compiler** works on *static* instructions organised in basic blocks
  and data-dependence graphs, and attaches steering annotations (virtual
  cluster id, chain-leader mark, or a static physical-cluster binding) to
  them;
* the **hardware** executes a *dynamic* stream of µops, each of which is an
  instance of a static instruction and inherits its annotations through the
  ISA extension.

:class:`StaticInstruction` and :class:`DynamicUop` model the two sides of
that split.  Both are lightweight ``__slots__`` classes because the simulator
creates one :class:`DynamicUop` per trace element (tens of thousands per
simulation point).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.uops.opcodes import (
    IssueQueueKind,
    UopClass,
    is_branch,
    is_floating_point,
    is_memory,
    latency_of,
    queue_of,
)


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

    Attributes
    ----------
    vc_id:
        Virtual cluster assigned by the compile-time VC partitioner
        (``None`` when the pass has not run).
    chain_leader:
        ``True`` when this instruction starts a new chain (Figure 3); only
        meaningful when ``vc_id`` is set.
    static_cluster:
        Physical cluster chosen by a software-only partitioner (OB / RHOP);
        ``None`` for hardware-only or hybrid steering.
    """

    __slots__ = (
        "sid",
        "opclass",
        "dests",
        "srcs",
        "block",
        "vc_id",
        "chain_leader",
        "static_cluster",
    )

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
        self.vc_id: Optional[int] = None
        self.chain_leader: bool = False
        self.static_cluster: Optional[int] = None

    # -- classification helpers -------------------------------------------------
    @property
    def latency(self) -> int:
        """Functional-unit latency of the instruction."""
        return latency_of(self.opclass)

    @property
    def queue(self) -> IssueQueueKind:
        """Issue queue this instruction is allocated into."""
        return queue_of(self.opclass)

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
    def is_fp(self) -> bool:
        """True for floating-point arithmetic."""
        return is_floating_point(self.opclass)

    @property
    def is_branch(self) -> bool:
        """True for control-flow instructions."""
        return is_branch(self.opclass)

    def clear_annotations(self) -> None:
        """Remove any steering annotations left by a previous compiler pass."""
        self.vc_id = None
        self.chain_leader = False
        self.static_cluster = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticInstruction(sid={self.sid}, {self.opclass.name}, "
            f"dests={self.dests}, srcs={self.srcs}, block={self.block}, "
            f"vc={self.vc_id}, leader={self.chain_leader}, static_cluster={self.static_cluster})"
        )


class DynamicUop:
    """One dynamic µop executed by the simulator.

    A dynamic µop references the static instruction it was fetched from and
    carries the per-instance information the simulator needs: sequence number,
    effective address of memory operations, and the branch outcome used to
    model front-end redirects.
    """

    __slots__ = ("seq", "static", "address", "mispredicted")

    def __init__(
        self,
        seq: int,
        static: StaticInstruction,
        address: int = 0,
        mispredicted: bool = False,
    ) -> None:
        self.seq = int(seq)
        self.static = static
        self.address = int(address)
        self.mispredicted = bool(mispredicted)

    # Delegation properties keep the hot simulator loops readable while
    # avoiding duplicated state per dynamic instance.
    @property
    def opclass(self) -> UopClass:
        """µop class of the underlying static instruction."""
        return self.static.opclass

    @property
    def dests(self) -> Tuple[int, ...]:
        """Destination registers."""
        return self.static.dests

    @property
    def srcs(self) -> Tuple[int, ...]:
        """Source registers."""
        return self.static.srcs

    @property
    def latency(self) -> int:
        """Functional-unit latency."""
        return self.static.latency

    @property
    def queue(self) -> IssueQueueKind:
        """Issue queue kind."""
        return self.static.queue

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.static.is_memory

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.static.is_store

    @property
    def is_branch(self) -> bool:
        """True for control-flow µops."""
        return self.static.is_branch

    @property
    def is_fp(self) -> bool:
        """True for floating-point arithmetic."""
        return self.static.is_fp

    @property
    def vc_id(self) -> Optional[int]:
        """Virtual cluster id inherited from the static instruction."""
        return self.static.vc_id

    @property
    def chain_leader(self) -> bool:
        """Chain-leader mark inherited from the static instruction."""
        return self.static.chain_leader

    @property
    def static_cluster(self) -> Optional[int]:
        """Static physical-cluster binding inherited from the static instruction."""
        return self.static.static_cluster

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicUop(seq={self.seq}, sid={self.static.sid}, {self.opclass.name})"
