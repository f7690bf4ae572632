"""µop classes, latencies and issue-queue routing.

The paper's processor executes x86 micro-ops.  We model the µop stream at the
granularity that matters for steering: every µop belongs to a *class* that
determines

* its execution latency on a functional unit,
* which per-cluster issue queue it occupies (integer, floating-point, or the
  dedicated copy queue of Table 2), and
* whether it touches memory (and therefore the unified LSQ / data cache).

Latencies follow common values for the era of the paper (Pentium-4 class
cores); the cross-scheme comparisons in the evaluation are insensitive to the
exact numbers as long as loads, FP and long-latency operations are much
slower than simple ALU operations.
"""

from __future__ import annotations

import enum
from typing import Mapping


class UopClass(enum.IntEnum):
    """Classes of micro-operations understood by the simulator."""

    INT_ALU = 0      #: simple integer ALU operation (add, logic, shift)
    INT_MUL = 1      #: integer multiply
    INT_DIV = 2      #: integer divide
    LOAD = 3         #: memory load (address generation + cache access)
    STORE = 4        #: memory store (address generation; data written at commit)
    BRANCH = 5       #: conditional / unconditional branch, call, return
    FP_ADD = 6       #: floating-point add / subtract / convert
    FP_MUL = 7       #: floating-point multiply
    FP_DIV = 8       #: floating-point divide / sqrt
    COPY = 9         #: inter-cluster copy µop (inserted by the hardware)
    NOP = 10         #: no-operation (used as padding in synthetic programs)


class IssueQueueKind(enum.IntEnum):
    """Which per-cluster issue queue a µop is allocated into (Table 2)."""

    INT = 0
    FP = 1
    COPY = 2


#: Execution latency (cycles on the functional unit) per µop class.  Loads use
#: this as the address-generation latency; the cache access latency is added
#: by the memory hierarchy model.
_LATENCY: Mapping[UopClass, int] = {
    UopClass.INT_ALU: 1,
    UopClass.INT_MUL: 3,
    UopClass.INT_DIV: 20,
    UopClass.LOAD: 1,
    UopClass.STORE: 1,
    UopClass.BRANCH: 1,
    UopClass.FP_ADD: 4,
    UopClass.FP_MUL: 6,
    UopClass.FP_DIV: 24,
    UopClass.COPY: 1,
    UopClass.NOP: 1,
}

#: Issue queue used by each µop class.
_QUEUE: Mapping[UopClass, IssueQueueKind] = {
    UopClass.INT_ALU: IssueQueueKind.INT,
    UopClass.INT_MUL: IssueQueueKind.INT,
    UopClass.INT_DIV: IssueQueueKind.INT,
    UopClass.LOAD: IssueQueueKind.INT,
    UopClass.STORE: IssueQueueKind.INT,
    UopClass.BRANCH: IssueQueueKind.INT,
    UopClass.FP_ADD: IssueQueueKind.FP,
    UopClass.FP_MUL: IssueQueueKind.FP,
    UopClass.FP_DIV: IssueQueueKind.FP,
    UopClass.COPY: IssueQueueKind.COPY,
    UopClass.NOP: IssueQueueKind.INT,
}

#: µop classes that allocate an LSQ entry and access the data cache.
MEM_OPCODES = frozenset({UopClass.LOAD, UopClass.STORE})

#: µop classes dispatched to the floating-point issue queue.
FP_OPCODES = frozenset({UopClass.FP_ADD, UopClass.FP_MUL, UopClass.FP_DIV})

#: µop classes dispatched to the integer issue queue (memory ops compute their
#: effective address on the integer side, as in the paper's baseline).
INT_OPCODES = frozenset(
    {
        UopClass.INT_ALU,
        UopClass.INT_MUL,
        UopClass.INT_DIV,
        UopClass.LOAD,
        UopClass.STORE,
        UopClass.BRANCH,
        UopClass.NOP,
    }
)


def latency_of(opclass: UopClass) -> int:
    """Return the functional-unit latency in cycles for ``opclass``.

    The table is indexed directly (``IntEnum`` members and plain ints hash
    alike); only a miss converts, so an invalid value raises ``UopClass``'s
    own ``ValueError``.
    """
    try:
        return _LATENCY[opclass]
    except (KeyError, TypeError):  # unhashable values miss too
        return _LATENCY[UopClass(opclass)]


def queue_of(opclass: UopClass) -> IssueQueueKind:
    """Return the per-cluster issue queue that ``opclass`` is allocated into."""
    try:
        return _QUEUE[opclass]
    except (KeyError, TypeError):
        return _QUEUE[UopClass(opclass)]


def is_memory(opclass: UopClass) -> bool:
    """True for loads and stores (they reserve an LSQ slot at dispatch)."""
    return opclass in MEM_OPCODES


def is_floating_point(opclass: UopClass) -> bool:
    """True for µops executed on the floating-point functional units."""
    return opclass in FP_OPCODES


def is_branch(opclass: UopClass) -> bool:
    """True for control-flow µops."""
    return opclass == UopClass.BRANCH
