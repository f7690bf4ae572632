"""Compiled µop traces: a structure-of-arrays intermediate representation.

:class:`CompiledTrace` is the one form of a dynamic µop stream: the trace
generator emits it, the engine persists and shares it, and both simulation
kernels execute it.  Every per-µop fact (issue queue, latency, memory flags,
deduplicated sources) is precomputed once into flat numpy arrays -- the same
hoist-everything-loop-invariant discipline the preconditioned-solver kernels
in SNIPPETS.md apply: the inner loop should only ever index, never recompute
(see DESIGN.md).

The representation has three layers:

* **stored columns** (numpy arrays, one element per µop).  Only ``sid``,
  ``address`` and ``mispredicted`` are dynamic; trace artifacts and
  shared-memory segments store those three next to the program's columns.
  The static ones -- basic block, µop class and the CSR-style (offsets +
  flat values) source/destination register lists -- are the program's
  rows, gathered by sid when the trace is built.  The steering annotations
  (``vc_id`` / ``chain_leader`` / ``static_cluster``, with ``-1`` encoding
  "unannotated") start unannotated; :meth:`CompiledTrace.annotate_from`
  gathers a compile-time pass's sid-indexed columns into them.  A µop's
  sequence number is its row.
* **derived columns**, recomputed from the µop class at construction time
  via vectorised table lookups: issue-queue kind, functional-unit latency and
  the memory/load/store/branch flags.  Editing
  :mod:`repro.uops.opcodes` therefore never stales an on-disk artifact.
* **hot-path caches**: plain Python lists/tuples materialised lazily from
  the arrays (``latency_list`` and friends).  The simulator's inner loops
  index these lists -- scalar indexing of numpy arrays allocates a numpy
  scalar per access and is *slower* than list indexing in pure Python, so
  the arrays are the storage format and the lists are the execution format.

The program's columns are validated once, when the
:class:`~repro.program.program.Program` is built, so a gather of them at
in-range sids is well-formed by construction; the constructor checks only
what the program cannot: the dynamic columns are one-dimensional and of one
length, and every sid names an instruction of the program.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.uops.opcodes import (
    IssueQueueKind,
    UopClass,
    is_branch,
    is_floating_point,
    is_memory,
    latency_of,
    queue_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.program.program import Program

#: Sentinel used in the ``vc_id`` / ``static_cluster`` columns for "no
#: annotation" (the policies' view reads it as ``None``).
NO_ANNOTATION = -1

#: Vectorised per-class lookup tables (index = UopClass value).
_LATENCY_TABLE = np.array([latency_of(c) for c in UopClass], dtype=np.int32)
_QUEUE_TABLE = np.array([int(queue_of(c)) for c in UopClass], dtype=np.int8)
_MEMORY_TABLE = np.array([is_memory(c) for c in UopClass], dtype=bool)
_LOAD_TABLE = np.array([c == UopClass.LOAD for c in UopClass], dtype=bool)
_STORE_TABLE = np.array([c == UopClass.STORE for c in UopClass], dtype=bool)
_BRANCH_TABLE = np.array([is_branch(c) for c in UopClass], dtype=bool)
_FP_TABLE = np.array([is_floating_point(c) for c in UopClass], dtype=bool)

#: Singleton enum members, indexable by the integer class/queue codes.
_UOP_CLASSES = list(UopClass)
_QUEUE_KINDS = list(IssueQueueKind)


def empty_annotations(size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vc_id, chain_leader, static_cluster)`` columns of ``size`` unannotated
    rows: ``-1``, ``False`` and ``-1``, in the trace's dtypes."""
    return (
        np.full(size, NO_ANNOTATION, dtype=np.int32),
        np.zeros(size, dtype=bool),
        np.full(size, NO_ANNOTATION, dtype=np.int32),
    )


def csr_from_rows(rows: Sequence[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack variable-length integer rows into (offsets, flat values) arrays."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(offsets[-1]))
    return offsets, flat


def rows_from_csr(offsets: np.ndarray, flat: np.ndarray) -> List[Tuple[int, ...]]:
    """Unpack CSR arrays back into a list of tuples of Python ints."""
    bounds = offsets.tolist()
    values = flat.tolist()
    return [tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def gather_csr(
    offsets: np.ndarray, flat: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR pair of ``rows`` (an index array) of the CSR pair ``(offsets, flat)``."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    gathered = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=gathered[1:])
    index = np.repeat(starts - gathered[:-1], counts) + np.arange(gathered[-1])
    return gathered, flat[index]


def _row_owner(offsets: np.ndarray) -> np.ndarray:
    """Row index of every flat CSR element (``int64``)."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def _last_writers(
    src_offsets: np.ndarray,
    src_regs: np.ndarray,
    dest_offsets: np.ndarray,
    dest_regs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map every deduplicated source operand to the definition that produces it.

    A *definition id* is a position in the destination CSR: definition ``d``
    is the ``dest_regs[d]`` write of µop ``i`` where
    ``dest_offsets[i] <= d < dest_offsets[i + 1]``.  A source of µop ``i``
    reads the last definition of its register by a µop *before* ``i`` (a
    µop's own writes follow its reads; of two writes of one register by one
    µop, the later definition id wins).  Sources with no in-trace writer
    (live-ins) are dropped -- the rename table marks live-ins available in
    every cluster, so dispatch planning never waits on them.  Returns the
    dependence lists in CSR form (``dep_offsets``, ``dep_defs``), each row in
    the first-occurrence source order ``_try_dispatch`` plans in.

    Array-native: sources are deduplicated per row by their first
    ``(µop, register)`` occurrence, and the last writer is one
    ``np.searchsorted`` over the definitions sorted by ``(register, µop)``
    keys -- stable, so equal keys keep definition-id order and the search's
    left neighbour is the latest qualifying write.
    """
    n = len(src_offsets) - 1
    dep_offsets = np.zeros(n + 1, dtype=np.int64)
    if not len(dest_regs):  # no in-trace writer: every source is a live-in
        return dep_offsets, np.zeros(0, dtype=np.int64)
    src_uop = _row_owner(src_offsets)
    regs = src_regs.astype(np.int64)
    # First occurrence of every (µop, register) pair, in trace order.
    _, first = np.unique(src_uop * (1 + int(regs.max(initial=0))) + regs, return_index=True)
    first.sort()
    use_uop = src_uop[first]
    use_reg = regs[first]
    stride = n + 1
    def_keys = dest_regs.astype(np.int64) * stride + _row_owner(dest_offsets)
    order = np.argsort(def_keys, kind="stable")
    # Left neighbour of (register, reading µop): the register's latest
    # definition by an earlier µop, unless it belongs to a smaller register
    # or there is none (index -1, masked out by ``below >= 0``).
    below = np.searchsorted(def_keys[order], use_reg * stride + use_uop, side="left") - 1
    candidate = order[below]
    found = (below >= 0) & (dest_regs[candidate] == use_reg)
    np.cumsum(np.bincount(use_uop[found], minlength=n), out=dep_offsets[1:])
    return dep_offsets, candidate[found].astype(np.int64, copy=False)


class DependencePlan(NamedTuple):
    """Per-trace dependence structure consumed by the vectorized kernel.

    Everything here is a pure function of the stored source/destination
    columns -- independent of steering annotations and machine configuration
    -- so one plan is shared by every run (and every policy) of a trace.
    """

    #: Per-µop tuple of producer definition ids, in deduplicated
    #: first-occurrence source order (live-in sources excluded).
    deps: List[Tuple[int, ...]]
    #: Producing µop index of each definition id.
    def_uop: List[int]
    #: Architectural register written by each definition id.
    def_reg: List[int]
    #: CSR offsets: µop ``i`` owns definition ids ``[o[i], o[i + 1])``.
    dest_offsets: List[int]

    @property
    def num_defs(self) -> int:
        """Total number of in-trace register definitions."""
        return len(self.def_uop)


class CompiledTrace:
    """A dynamic µop trace compiled to structure-of-arrays form.

    ``CompiledTrace(program, sid, address, mispredicted)`` is the one way to
    build a trace: row ``i`` is the dynamic instance of instruction
    ``sid[i]`` of ``program``, with effective address ``address[i]`` and
    mispredict bit ``mispredicted[i]``.  The static columns (block, µop
    class, source/destination registers) are gathered from the program's
    validated columns by sid, the derived columns are looked up from the µop
    class, and the trace starts unannotated.  The three dynamic columns are
    adopted as-is when their dtypes already match.
    """

    __slots__ = (
        "sid",
        "block",
        "opclass",
        "address",
        "mispredicted",
        "vc_id",
        "chain_leader",
        "static_cluster",
        "src_offsets",
        "src_regs",
        "dest_offsets",
        "dest_regs",
        "queue",
        "latency",
        "is_memory",
        "is_load",
        "is_store",
        "is_branch",
        "is_fp",
        "_cache",
    )

    #: The stored columns (the derived ones are recomputed from ``opclass``).
    STORED_FIELDS = (
        "sid",
        "block",
        "opclass",
        "address",
        "mispredicted",
        "vc_id",
        "chain_leader",
        "static_cluster",
        "src_offsets",
        "src_regs",
        "dest_offsets",
        "dest_regs",
    )

    #: The steering-annotation columns, in the order annotation values hold them.
    ANNOTATION_FIELDS = ("vc_id", "chain_leader", "static_cluster")

    def __init__(self, program: Program, sid, address, mispredicted) -> None:
        self.sid = np.asarray(sid, dtype=np.int64)
        self.address = np.asarray(address, dtype=np.int64)
        self.mispredicted = np.asarray(mispredicted, dtype=bool)
        for name in ("sid", "address", "mispredicted"):
            column = getattr(self, name)
            if column.ndim != 1 or len(column) != len(self.sid):
                raise ValueError(f"column {name!r} must be one-dimensional, one entry per µop")
        n = len(self.sid)
        if n and (self.sid.min() < 0 or self.sid.max() >= program.num_instructions):
            raise ValueError("column 'sid' names no instruction of the program")
        # Static columns: the program's rows, gathered by sid.
        self.block = program.block[self.sid]
        self.opclass = program.opclass[self.sid]
        self.src_offsets, self.src_regs = gather_csr(
            program.src_offsets, program.src_regs, self.sid
        )
        self.dest_offsets, self.dest_regs = gather_csr(
            program.dest_offsets, program.dest_regs, self.sid
        )
        self.vc_id, self.chain_leader, self.static_cluster = empty_annotations(n)
        # Derived columns: vectorised lookups on the µop class.
        self.queue = _QUEUE_TABLE[self.opclass]
        self.latency = _LATENCY_TABLE[self.opclass]
        self.is_memory = _MEMORY_TABLE[self.opclass]
        self.is_load = _LOAD_TABLE[self.opclass]
        self.is_store = _STORE_TABLE[self.opclass]
        self.is_branch = _BRANCH_TABLE[self.opclass]
        self.is_fp = _FP_TABLE[self.opclass]
        #: Lazily materialised hot-path lists (dropped on re-annotation).
        self._cache: Dict[Hashable, object] = {}

    # ------------------------------------------------------------------ basics --
    def __len__(self) -> int:
        return len(self.sid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTrace({len(self)} µops, {int(self.src_offsets[-1])} source operands)"

    def equals(self, other: "CompiledTrace") -> bool:
        """Array-for-array equality of the stored columns."""
        if not isinstance(other, CompiledTrace) or len(self) != len(other):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.STORED_FIELDS
        )

    # --------------------------------------------------------- hot-path caches --
    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """The value stored on this trace under ``key``; ``build()`` makes it once.

        Holds the hot-path lists below and values other layers derive from
        the trace -- a compile-time pass's annotation columns, the warmed
        cache tags of a memory geometry -- so each is computed once per
        trace and lives exactly as long as the trace.  ``key`` must cover
        every input of ``build`` besides the trace itself.
        """
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    def src_tuples(self) -> List[Tuple[int, ...]]:
        """Per-µop source registers, duplicates preserved (the steering view)."""
        return self.memo("srcs", lambda: rows_from_csr(self.src_offsets, self.src_regs))

    def unique_src_tuples(self) -> List[Tuple[int, ...]]:
        """Per-µop sources deduplicated in first-occurrence order (dispatch planning)."""
        return self.memo(
            "usrcs",
            lambda: [
                row if len(row) < 2 else tuple(dict.fromkeys(row))
                for row in self.src_tuples()
            ],
        )

    def dest_tuples(self) -> List[Tuple[int, ...]]:
        """Per-µop destination registers."""
        return self.memo("dests", lambda: rows_from_csr(self.dest_offsets, self.dest_regs))

    def queue_kinds(self) -> List[IssueQueueKind]:
        """Per-µop issue-queue kind as enum singletons."""
        return self.memo(
            "queue_kinds", lambda: [_QUEUE_KINDS[q] for q in self.queue.tolist()]
        )

    def queue_kind_ints(self) -> List[int]:
        """Per-µop issue-queue kind as plain ints (the vectorized kernel's form)."""
        return self.memo("queue_ints", self.queue.tolist)

    def latency_list(self) -> List[int]:
        """Per-µop functional-unit latency as plain ints."""
        return self.memo("latency", self.latency.tolist)

    def address_list(self) -> List[int]:
        """Per-µop effective address as plain ints."""
        return self.memo("address", self.address.tolist)

    def is_memory_list(self) -> List[bool]:
        """Per-µop memory flag as plain bools."""
        return self.memo("is_memory", self.is_memory.tolist)

    def is_load_list(self) -> List[bool]:
        """Per-µop load flag as plain bools."""
        return self.memo("is_load", self.is_load.tolist)

    def is_branch_list(self) -> List[bool]:
        """Per-µop branch flag as plain bools."""
        return self.memo("is_branch", self.is_branch.tolist)

    def is_fp_list(self) -> List[bool]:
        """Per-µop floating-point flag as plain bools."""
        return self.memo("is_fp", self.is_fp.tolist)

    def mispredicted_list(self) -> List[bool]:
        """Per-µop mispredict bit as plain bools."""
        return self.memo("mispredicted", self.mispredicted.tolist)

    def sid_list(self) -> List[int]:
        """Per-µop static id as plain ints."""
        return self.memo("sid", self.sid.tolist)

    def opclass_list(self) -> List[UopClass]:
        """Per-µop µop class as enum singletons."""
        return self.memo(
            "opclasses", lambda: [_UOP_CLASSES[c] for c in self.opclass.tolist()]
        )

    def vc_id_list(self) -> List[Optional[int]]:
        """Per-µop virtual-cluster id (``None`` when unannotated)."""
        return self.memo(
            "vc_id",
            lambda: [None if v == NO_ANNOTATION else v for v in self.vc_id.tolist()],
        )

    def chain_leader_list(self) -> List[bool]:
        """Per-µop chain-leader mark as plain bools."""
        return self.memo("chain_leader", self.chain_leader.tolist)

    def static_cluster_list(self) -> List[Optional[int]]:
        """Per-µop static physical-cluster binding (``None`` when unbound)."""
        return self.memo(
            "static_cluster",
            lambda: [None if v == NO_ANNOTATION else v for v in self.static_cluster.tolist()],
        )

    def dest_kind_counts(self, register_space) -> List[Tuple[int, int]]:
        """Per-µop ``(int, fp)`` destination counts for the given register space.

        Lets the register-file model allocate/release by count instead of
        classifying every destination register on every dispatch and commit.
        """
        key = f"dest_counts_{register_space.num_int}_{register_space.num_fp}"

        def build() -> List[Tuple[int, int]]:
            dest_int, dest_fp = self._dest_kind_arrays(register_space)
            return list(zip(dest_int.tolist(), dest_fp.tolist()))

        return self.memo(key, build)

    def _dest_kind_arrays(self, register_space) -> Tuple[np.ndarray, np.ndarray]:
        """Per-µop INT and FP destination counts as ``int64`` arrays.

        One cumulative sum of the FP flags over the destination CSR, read
        at the row bounds -- the shared source of :meth:`dest_kind_counts`
        and :meth:`dispatch_meta`.
        """
        key = f"dest_kind_arrays_{register_space.num_int}_{register_space.num_fp}"

        def build() -> Tuple[np.ndarray, np.ndarray]:
            fp_flags = (self.dest_regs >= register_space.num_int).astype(np.int64)
            running = np.zeros(len(fp_flags) + 1, dtype=np.int64)
            np.cumsum(fp_flags, out=running[1:])
            dest_fp = running[self.dest_offsets[1:]] - running[self.dest_offsets[:-1]]
            return np.diff(self.dest_offsets) - dest_fp, dest_fp

        return self.memo(key, build)

    def memory_access_plan(self) -> Tuple[List[int], List[bool]]:
        """``(addresses, is_load)`` of the memory µops, in trace order.

        Cache warm-up replays exactly this access stream; precomputing it
        keeps the per-run warm-up loop free of full-trace scans.
        """
        def build() -> Tuple[List[int], List[bool]]:
            index = np.flatnonzero(self.is_memory)
            return (self.address[index].tolist(), self.is_load[index].tolist())

        return self.memo("memory_plan", build)

    def dispatch_meta(self, register_space) -> List[tuple]:
        """Per-µop fused dispatch metadata for the vectorized kernel.

        One tuple per µop::

            (queue kind, is_memory, is_load, is_branch, mispredicted,
             int dests, fp dests, dependence row, first def id, past-last def id)

        The dispatch stage touches all of these fields for every µop it
        dispatches; fusing them into one cached tuple list turns eight
        scattered column lookups into a single list index plus an unpack.
        Keyed by register-space geometry (like :meth:`dest_kind_counts`)
        because the INT/FP destination split depends on it.
        """
        key = f"dispatch_meta_{register_space.num_int}_{register_space.num_fp}"

        def build() -> List[tuple]:
            plan = self.dependency_plan()
            dest_int, dest_fp = self._dest_kind_arrays(register_space)
            dest_offsets = plan.dest_offsets
            return list(
                zip(
                    self.queue_kind_ints(),
                    self.is_memory_list(),
                    self.is_load_list(),
                    self.is_branch_list(),
                    self.mispredicted_list(),
                    dest_int.tolist(),
                    dest_fp.tolist(),
                    plan.deps,
                    dest_offsets[:-1],
                    dest_offsets[1:],
                )
            )

        return self.memo(key, build)

    def dependency_plan(self) -> DependencePlan:
        """The :class:`DependencePlan` of the trace (built once, then cached).

        Annotation refreshes (:meth:`annotate_from`) do not invalidate it --
        the dynamic dependence structure never depends on steering
        annotations -- so the plan survives across every configuration of a
        batch, like the other dynamic-column caches.
        """
        def build() -> DependencePlan:
            return DependencePlan(
                deps=rows_from_csr(
                    *_last_writers(
                        self.src_offsets, self.src_regs, self.dest_offsets, self.dest_regs
                    )
                ),
                def_uop=_row_owner(self.dest_offsets).tolist(),
                def_reg=self.dest_regs.tolist(),
                dest_offsets=self.dest_offsets.tolist(),
            )

        return self.memo("dep_plan", build)

    # ---------------------------------------------------------------- freezing --
    def freeze(self) -> "CompiledTrace":
        """Mark every stored column read-only; in-place writes then raise.

        :meth:`ClusteredProcessor.bind` freezes every trace it binds:
        traces are shared across the memo, shm attachments and every
        configuration of a batch, so a frozen trace turns any
        in-place mutation of shared state into a ``ValueError`` at the
        offending line (the static half of this contract is detlint rule
        DET109).  Traces loaded from shared-memory segments arrive frozen
        already; freezing is idempotent and irreversible for a given array
        (callers needing a mutable trace rebuild one from copies).  Returns
        ``self`` for chaining.
        """
        for name in self.STORED_FIELDS:
            array = getattr(self, name)
            if array.flags.writeable:
                array.flags.writeable = False
        return self

    # ------------------------------------------------------------- annotations --
    def annotate_from(self, columns: Sequence[np.ndarray]) -> "CompiledTrace":
        """Install a compile-time pass's sid-indexed annotation columns.

        The dynamic µop stream never depends on annotations, so one compiled
        trace is shared by every steering configuration of a phase; a
        configuration's pass returns one column per ``ANNOTATION_FIELDS``
        entry, indexed by static id
        (:attr:`~repro.partition.base.PartitionReport.columns`), and every
        µop takes its instruction's value.  Returns ``self`` for chaining.
        """
        return self.install_annotations(tuple(column[self.sid] for column in columns))

    def install_annotations(self, columns: Sequence[np.ndarray]) -> "CompiledTrace":
        """Make ``columns`` (``ANNOTATION_FIELDS`` order) the annotation columns.

        The arrays *replace* the current ones and are never written into,
        so a memoised value can be installed as-is.  The installed arrays
        are marked read-only, so a frozen trace stays frozen across
        re-annotation.  Returns ``self`` for chaining.
        """
        for name, column in zip(self.ANNOTATION_FIELDS, columns):
            column.flags.writeable = False
            setattr(self, name, column)
            self._cache.pop(name, None)
        return self


class CompiledUopView:
    """Flyweight µop: the steering policies' view of one row of a trace.

    The simulator passes one (mutable-cursor) view instance to the steering
    policy per dispatch -- policies read ``uop.srcs`` / ``uop.queue`` /
    ``uop.vc_id``, and key per-instruction state on ``uop.sid``; each access
    is a single list index.  Setting :attr:`index` re-points the view at
    another µop of the same trace.
    """

    __slots__ = (
        "trace",
        "index",
        "_srcs",
        "_dests",
        "_queues",
        "_latencies",
        "_is_memory",
        "_is_load",
        "_is_branch",
        "_is_fp",
        "_addresses",
        "_mispredicted",
        "_vc_ids",
        "_leaders",
        "_static_clusters",
        "_sids",
        "_opclasses",
    )

    def __init__(self, trace: CompiledTrace) -> None:
        self.trace = trace
        self.index = 0
        self._srcs = trace.src_tuples()
        self._dests = trace.dest_tuples()
        self._queues = trace.queue_kinds()
        self._latencies = trace.latency_list()
        self._is_memory = trace.is_memory_list()
        self._is_load = trace.is_load_list()
        self._is_branch = trace.is_branch_list()
        self._is_fp = trace.is_fp_list()
        self._addresses = trace.address_list()
        self._mispredicted = trace.mispredicted_list()
        self._vc_ids = trace.vc_id_list()
        self._leaders = trace.chain_leader_list()
        self._static_clusters = trace.static_cluster_list()
        self._sids = trace.sid_list()
        self._opclasses = trace.opclass_list()

    @property
    def opclass(self) -> UopClass:
        """µop class."""
        return self._opclasses[self.index]

    @property
    def srcs(self) -> Tuple[int, ...]:
        """Source registers (duplicates preserved, as in the static encoding)."""
        return self._srcs[self.index]

    @property
    def dests(self) -> Tuple[int, ...]:
        """Destination registers."""
        return self._dests[self.index]

    @property
    def queue(self) -> IssueQueueKind:
        """Issue queue kind."""
        return self._queues[self.index]

    @property
    def latency(self) -> int:
        """Functional-unit latency."""
        return self._latencies[self.index]

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self._is_memory[self.index]

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self._is_load[self.index]

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self._is_memory[self.index] and not self._is_load[self.index]

    @property
    def is_branch(self) -> bool:
        """True for control-flow µops."""
        return self._is_branch[self.index]

    @property
    def is_fp(self) -> bool:
        """True for floating-point arithmetic."""
        return self._is_fp[self.index]

    @property
    def address(self) -> int:
        """Effective address of memory µops."""
        return self._addresses[self.index]

    @property
    def mispredicted(self) -> bool:
        """Mispredict bit of branch µops."""
        return self._mispredicted[self.index]

    @property
    def vc_id(self) -> Optional[int]:
        """Virtual-cluster annotation (``None`` when unannotated)."""
        return self._vc_ids[self.index]

    @property
    def chain_leader(self) -> bool:
        """Chain-leader mark."""
        return self._leaders[self.index]

    @property
    def static_cluster(self) -> Optional[int]:
        """Static physical-cluster binding (``None`` when unbound)."""
        return self._static_clusters[self.index]

    @property
    def sid(self) -> int:
        """Static id of the underlying instruction."""
        return self._sids[self.index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledUopView(index={self.index}, {self.opclass.name})"
