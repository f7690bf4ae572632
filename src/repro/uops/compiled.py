"""Compiled µop traces: a structure-of-arrays intermediate representation.

:class:`CompiledTrace` is the simulator-facing form of a dynamic µop stream.
Where a list of :class:`~repro.uops.uop.DynamicUop` re-derives per-µop facts
(issue queue, latency, memory flags, deduplicated sources) through Python
property indirection on every dispatch, a compiled trace precomputes all of
them once into flat numpy arrays -- the same hoist-everything-loop-invariant
discipline the preconditioned-solver kernels in SNIPPETS.md apply: the inner
loop should only ever index, never recompute (see DESIGN.md).

The representation has three layers:

* **stored columns** (numpy arrays, one element per µop): sequence number,
  static id, basic block, µop class, effective address, mispredict bit, the
  steering annotations (``vc_id`` / ``chain_leader`` / ``static_cluster``,
  with ``-1`` encoding "unannotated"), and CSR-style (offsets + flat values)
  source/destination register lists.  These are exactly what
  :meth:`CompiledTrace.save` persists, so on-disk trace artifacts stay small
  and independent of the latency/queue tables.
* **derived columns**, recomputed from the µop class at construction time
  via vectorised table lookups: issue-queue kind, functional-unit latency and
  the memory/load/store/branch flags.  Editing
  :mod:`repro.uops.opcodes` therefore never stales an on-disk artifact.
* **hot-path caches**: plain Python lists/tuples materialised lazily from
  the arrays (``latency_list`` and friends).  The simulator's inner loops
  index these lists -- scalar indexing of numpy arrays allocates a numpy
  scalar per access and is *slower* than list indexing in pure Python, so
  the arrays are the storage format and the lists are the execution format.

Losslessness: ``compile_trace(trace).materialize()`` rebuilds an equivalent
``DynamicUop`` list (shared static instructions reconstructed per ``sid``),
and ``compile_trace(materialize(c))`` equals ``c`` array-for-array -- the
round-trip property the test suite pins.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
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
from repro.uops.uop import DynamicUop, StaticInstruction

#: Sentinel used in the ``vc_id`` / ``static_cluster`` columns for "no
#: annotation" (the object model uses ``None``).
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


def _csr(rows: Sequence[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack variable-length integer rows into (offsets, flat values) arrays."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(offsets[-1]))
    return offsets, flat


def _uncsr(offsets: np.ndarray, flat: np.ndarray) -> List[Tuple[int, ...]]:
    """Unpack CSR arrays back into a list of tuples of Python ints."""
    bounds = offsets.tolist()
    values = flat.tolist()
    return [tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


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


class DispatchMetaArrays(NamedTuple):
    """The :meth:`CompiledTrace.dispatch_meta` facts as flat numpy arrays.

    This is the marshalling format of the jitted inner loop
    (:mod:`repro.cluster.jitloop`): where the Python-tier kernel wants lists
    and tuples (scalar indexing of numpy arrays is slower in pure Python),
    the jitted loop wants exactly the opposite -- contiguous typed arrays it
    can index without boxing.  All integer arrays are ``int64`` and all flag
    arrays are ``bool`` so the compiled loop is monomorphic.  Like the
    dependence plan, everything here is annotation-independent, so one
    instance is shared by every run of a trace.
    """

    #: Per-µop issue-queue kind (0=INT, 1=FP, 2=COPY).
    queue: np.ndarray
    #: Per-µop memory / load / branch / mispredict flags.
    is_memory: np.ndarray
    is_load: np.ndarray
    is_branch: np.ndarray
    mispredicted: np.ndarray
    #: Per-µop INT / FP destination counts (register-space dependent).
    dest_int: np.ndarray
    dest_fp: np.ndarray
    #: Per-µop functional-unit latency.
    latency: np.ndarray
    #: Source registers, duplicates preserved, CSR form (the steering view).
    src_offsets: np.ndarray
    src_regs: np.ndarray
    #: Producer definition ids per µop, CSR form (the dependence plan).
    dep_offsets: np.ndarray
    dep_defs: np.ndarray
    #: Definition ids owned by µop ``i``: ``[dest_offsets[i], dest_offsets[i+1])``.
    dest_offsets: np.ndarray
    #: Producing µop / written register of each definition id.
    def_uop: np.ndarray
    def_reg: np.ndarray


class CompiledTrace:
    """A dynamic µop trace compiled to structure-of-arrays form.

    Instances are built by :func:`compile_trace` (from ``DynamicUop`` lists),
    by :meth:`repro.program.trace.TraceGenerator.generate_compiled` (directly
    from a static program, no intermediate objects) or by :meth:`load` (from
    an on-disk artifact).  All constructor arguments are numpy arrays of
    equal length ``n`` except the CSR pairs (offset arrays of length
    ``n + 1``).
    """

    __slots__ = (
        "seq",
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

    #: Stored columns, in ``save``/``load`` order.
    STORED_FIELDS = (
        "seq",
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

    def __init__(
        self,
        seq: np.ndarray,
        sid: np.ndarray,
        block: np.ndarray,
        opclass: np.ndarray,
        address: np.ndarray,
        mispredicted: np.ndarray,
        vc_id: np.ndarray,
        chain_leader: np.ndarray,
        static_cluster: np.ndarray,
        src_offsets: np.ndarray,
        src_regs: np.ndarray,
        dest_offsets: np.ndarray,
        dest_regs: np.ndarray,
    ) -> None:
        self.seq = np.asarray(seq, dtype=np.int64)
        self.sid = np.asarray(sid, dtype=np.int64)
        self.block = np.asarray(block, dtype=np.int32)
        self.opclass = np.asarray(opclass, dtype=np.uint8)
        self.address = np.asarray(address, dtype=np.int64)
        self.mispredicted = np.asarray(mispredicted, dtype=bool)
        self.vc_id = np.asarray(vc_id, dtype=np.int32)
        self.chain_leader = np.asarray(chain_leader, dtype=bool)
        self.static_cluster = np.asarray(static_cluster, dtype=np.int32)
        self.src_offsets = np.asarray(src_offsets, dtype=np.int64)
        self.src_regs = np.asarray(src_regs, dtype=np.int32)
        self.dest_offsets = np.asarray(dest_offsets, dtype=np.int64)
        self.dest_regs = np.asarray(dest_regs, dtype=np.int32)
        n = len(self.seq)
        for name in ("sid", "block", "opclass", "address", "mispredicted",
                     "vc_id", "chain_leader", "static_cluster"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has length {len(getattr(self, name))}, expected {n}")
        for name in ("src_offsets", "dest_offsets"):
            if len(getattr(self, name)) != n + 1:
                raise ValueError(f"offset column {name!r} must have length n + 1")
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
        return len(self.seq)

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
        return self.memo("srcs", lambda: _uncsr(self.src_offsets, self.src_regs))

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
        return self.memo("dests", lambda: _uncsr(self.dest_offsets, self.dest_regs))

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

    def seq_list(self) -> List[int]:
        """Per-µop sequence number as plain ints."""
        return self.memo("seq", self.seq.tolist)

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
        at the row bounds -- the shared source of :meth:`dest_kind_counts`,
        :meth:`dispatch_meta` and :meth:`dispatch_meta_arrays`.
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

    def dispatch_meta_arrays(self, register_space) -> DispatchMetaArrays:
        """The dispatch metadata as :class:`DispatchMetaArrays` (jit kernel form).

        Keyed by register-space geometry like :meth:`dispatch_meta`; built
        from the same dependence plan, so both forms describe the identical
        structure (the jit parity suite pins this transitively by comparing
        run metrics).
        """
        key = f"dispatch_meta_arrays_{register_space.num_int}_{register_space.num_fp}"

        def build() -> DispatchMetaArrays:
            dep_offsets, dep_defs = self._dependence_arrays()
            dest_offsets = self.dest_offsets.astype(np.int64)
            dest_int, dest_fp = self._dest_kind_arrays(register_space)
            return DispatchMetaArrays(
                queue=self.queue.astype(np.int64),
                is_memory=self.is_memory,
                is_load=self.is_load,
                is_branch=self.is_branch,
                mispredicted=self.mispredicted,
                dest_int=dest_int,
                dest_fp=dest_fp,
                latency=self.latency.astype(np.int64),
                src_offsets=self.src_offsets.astype(np.int64),
                src_regs=self.src_regs.astype(np.int64),
                dep_offsets=dep_offsets,
                dep_defs=dep_defs,
                dest_offsets=dest_offsets,
                def_uop=_row_owner(dest_offsets),
                def_reg=self.dest_regs.astype(np.int64),
            )

        return self.memo(key, build)

    def memory_access_plan_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`memory_access_plan` as ``(int64 addresses, bool is_load)`` arrays."""
        def build() -> Tuple[np.ndarray, np.ndarray]:
            index = np.flatnonzero(self.is_memory)
            return (self.address[index].astype(np.int64), self.is_load[index])

        return self.memo("memory_plan_arrays", build)

    def _dependence_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The dependence lists as CSR ``(dep_offsets, dep_defs)`` arrays (cached)."""
        return self.memo(
            "dep_arrays",
            lambda: _last_writers(
                self.src_offsets, self.src_regs, self.dest_offsets, self.dest_regs
            ),
        )

    def dependency_plan(self) -> DependencePlan:
        """The :class:`DependencePlan` of the trace (built once, then cached).

        Annotation refreshes (:meth:`annotate_from`) do not invalidate it --
        the dynamic dependence structure never depends on steering
        annotations -- so the plan survives across every configuration of a
        batch, like the other dynamic-column caches.
        """
        def build() -> DependencePlan:
            return DependencePlan(
                deps=_uncsr(*self._dependence_arrays()),
                def_uop=_row_owner(self.dest_offsets).tolist(),
                def_reg=self.dest_regs.tolist(),
                dest_offsets=self.dest_offsets.tolist(),
            )

        return self.memo("dep_plan", build)

    # ---------------------------------------------------------------- freezing --
    @property
    def frozen(self) -> bool:
        """Whether the stored columns are marked read-only (write sanitizer).

        ``seq`` is the marker: it is never replaced after construction (only
        the annotation columns are, and :meth:`install_annotations`
        re-freezes those on frozen traces), so its flag reflects the whole
        trace.
        """
        return not self.seq.flags.writeable

    def freeze(self) -> "CompiledTrace":
        """Mark every stored column read-only; in-place writes then raise.

        This is the write sanitizer's teeth (``$REPRO_SANITIZE=1``; see
        :mod:`repro.sanitize`): traces are shared across the memo, the
        artifact store, shm segments and every configuration of a batch, so
        a frozen trace turns any in-place mutation of shared state into a
        ``ValueError`` at the offending line.  Views attached over
        shared-memory segments arrive frozen already; freezing is idempotent
        and irreversible for a given array (callers needing a mutable trace
        rebuild one from copies).  Returns ``self`` for chaining.
        """
        for name in self.STORED_FIELDS:
            array = getattr(self, name)
            if array.flags.writeable:
                array.flags.writeable = False
        return self

    # ------------------------------------------------------------- annotations --
    def annotate_from(self, program) -> "CompiledTrace":
        """Refresh the steering-annotation columns from ``program``'s statics.

        The dynamic µop stream never depends on annotations, so one compiled
        trace is shared by every steering configuration of a phase; a
        configuration's compile-time pass annotates the program (or clears
        it) and this scatters the per-``sid`` annotations across the per-µop
        columns.  Returns ``self`` for chaining.
        """
        size = int(self.sid.max()) + 1 if len(self.sid) else 0
        vc = np.full(size, NO_ANNOTATION, dtype=np.int32)
        leader = np.zeros(size, dtype=bool)
        static_cluster = np.full(size, NO_ANNOTATION, dtype=np.int32)
        for inst in program.all_instructions():
            sid = inst.sid
            if 0 <= sid < size:
                vc[sid] = NO_ANNOTATION if inst.vc_id is None else int(inst.vc_id)
                leader[sid] = bool(inst.chain_leader)
                static_cluster[sid] = (
                    NO_ANNOTATION if inst.static_cluster is None else int(inst.static_cluster)
                )
        return self.install_annotations(
            (vc[self.sid], leader[self.sid], static_cluster[self.sid])
        )

    def annotation_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only copies of the annotation columns, in ``ANNOTATION_FIELDS`` order.

        The value form of a configuration's annotations: it can be memoised
        (:meth:`memo`) and handed to :meth:`install_annotations` by every
        later configuration with the same compile-time pass, and nothing
        can edit it in place.
        """
        columns = tuple(getattr(self, name).copy() for name in self.ANNOTATION_FIELDS)
        for column in columns:
            column.flags.writeable = False
        return columns

    def install_annotations(self, columns: Sequence[np.ndarray]) -> "CompiledTrace":
        """Make ``columns`` (``ANNOTATION_FIELDS`` order) the annotation columns.

        The arrays *replace* the current ones and are never written into,
        so a memoised value can be installed as-is.  Frozen traces stay
        frozen: the installed arrays are marked read-only, as the sanitizer
        relies on.  Returns ``self`` for chaining.
        """
        refreeze = self.frozen
        for name, column in zip(self.ANNOTATION_FIELDS, columns):
            if refreeze:
                column.flags.writeable = False
            setattr(self, name, column)
            self._cache.pop(name, None)
        return self

    # ----------------------------------------------------------- materialise --
    def materialize(self) -> List[DynamicUop]:
        """Rebuild the equivalent :class:`DynamicUop` list.

        One :class:`StaticInstruction` is reconstructed per distinct ``sid``
        (dynamic instances of the same static instruction share it, exactly
        like traces expanded from a program), annotations included.
        """
        statics: Dict[int, StaticInstruction] = {}
        srcs = self.src_tuples()
        dests = self.dest_tuples()
        sids = self.sid.tolist()
        blocks = self.block.tolist()
        opclasses = self.opclass.tolist()
        vc_ids = self.vc_id_list()
        leaders = self.chain_leader_list()
        static_clusters = self.static_cluster_list()
        seqs = self.seq.tolist()
        addresses = self.address_list()
        mispredicts = self.mispredicted_list()
        trace: List[DynamicUop] = []
        for i, sid in enumerate(sids):
            static = statics.get(sid)
            if static is None:
                static = StaticInstruction(
                    sid, _UOP_CLASSES[opclasses[i]], dests[i], srcs[i], block=blocks[i]
                )
                static.vc_id = vc_ids[i]
                static.chain_leader = leaders[i]
                static.static_cluster = static_clusters[i]
                statics[sid] = static
            trace.append(
                DynamicUop(seqs[i], static, address=addresses[i], mispredicted=mispredicts[i])
            )
        return trace

    # ------------------------------------------------------------ persistence --
    def stored_columns(self) -> Dict[str, np.ndarray]:
        """The stored columns as ``{name: array}``, in ``STORED_FIELDS`` order.

        This is the serialisation surface shared by every persistence layer:
        :meth:`save` compresses these arrays to ``.npz``, the artifact store
        adds the program pickle, and the shared-memory segment layer copies
        their raw bytes into a block.  Passing the dict straight back to the
        constructor (``CompiledTrace(**columns)``) is zero-copy when dtypes
        already match -- the derived columns are recomputed, the stored ones
        are adopted as-is (including read-only views over shared buffers).
        """
        return {name: getattr(self, name) for name in self.STORED_FIELDS}

    @property
    def stored_nbytes(self) -> int:
        """Total payload bytes of the stored columns (uncompressed)."""
        return sum(array.nbytes for array in self.stored_columns().values())

    def save(self, path: Union[str, Path]) -> None:
        """Write the stored columns to a compressed ``.npz`` file."""
        np.savez_compressed(
            str(path), **{name: getattr(self, name) for name in self.STORED_FIELDS}
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompiledTrace":
        """Rebuild a compiled trace from a :meth:`save` artifact."""
        with np.load(str(path), allow_pickle=False) as data:
            missing = [name for name in cls.STORED_FIELDS if name not in data]
            if missing:
                raise ValueError(f"trace artifact {path} is missing columns {missing}")
            return cls(**{name: data[name] for name in cls.STORED_FIELDS})

    # ------------------------------------------------------------ constructors --
    @classmethod
    def from_columns(
        cls,
        sids: Sequence[int],
        opclasses: Sequence[int],
        srcs: Sequence[Tuple[int, ...]],
        dests: Sequence[Tuple[int, ...]],
        blocks: Sequence[int],
        addresses: Sequence[int],
        mispredicted: Sequence[bool],
        vc_ids: Sequence[int],
        chain_leaders: Sequence[bool],
        static_clusters: Sequence[int],
        seqs: Optional[Sequence[int]] = None,
    ) -> "CompiledTrace":
        """Build a trace from per-µop Python columns (annotation sentinel ``-1``)."""
        n = len(sids)
        src_offsets, src_regs = _csr(srcs)
        dest_offsets, dest_regs = _csr(dests)
        return cls(
            seq=np.arange(n, dtype=np.int64) if seqs is None else np.asarray(seqs, dtype=np.int64),
            sid=np.asarray(sids, dtype=np.int64),
            block=np.asarray(blocks, dtype=np.int32),
            opclass=np.asarray(opclasses, dtype=np.uint8),
            address=np.asarray(addresses, dtype=np.int64),
            mispredicted=np.asarray(mispredicted, dtype=bool),
            vc_id=np.asarray(vc_ids, dtype=np.int32),
            chain_leader=np.asarray(chain_leaders, dtype=bool),
            static_cluster=np.asarray(static_clusters, dtype=np.int32),
            src_offsets=src_offsets,
            src_regs=src_regs,
            dest_offsets=dest_offsets,
            dest_regs=dest_regs,
        )

    @classmethod
    def from_uops(cls, trace: Iterable[DynamicUop]) -> "CompiledTrace":
        """Compile a :class:`DynamicUop` sequence (see :func:`compile_trace`)."""
        sids, opclasses, srcs, dests, blocks = [], [], [], [], []
        addresses, mispredicts, vc_ids, leaders, static_clusters, seqs = [], [], [], [], [], []
        for uop in trace:
            static = uop.static
            sids.append(static.sid)
            opclasses.append(int(static.opclass))
            srcs.append(static.srcs)
            dests.append(static.dests)
            blocks.append(static.block)
            addresses.append(uop.address)
            mispredicts.append(uop.mispredicted)
            vc_ids.append(NO_ANNOTATION if static.vc_id is None else int(static.vc_id))
            leaders.append(bool(static.chain_leader))
            static_clusters.append(
                NO_ANNOTATION if static.static_cluster is None else int(static.static_cluster)
            )
            seqs.append(uop.seq)
        return cls.from_columns(
            sids, opclasses, srcs, dests, blocks, addresses, mispredicts,
            vc_ids, leaders, static_clusters, seqs=seqs,
        )


def compile_trace(trace: Union[CompiledTrace, Sequence[DynamicUop]]) -> CompiledTrace:
    """Compile ``trace`` into a :class:`CompiledTrace` (idempotent)."""
    if isinstance(trace, CompiledTrace):
        return trace
    return CompiledTrace.from_uops(trace)


class CompiledUopView:
    """Flyweight µop: the :class:`DynamicUop` interface over compiled arrays.

    The simulator passes one (mutable-cursor) view instance to the steering
    policy per dispatch instead of materialising a ``DynamicUop`` -- policies
    read ``uop.srcs`` / ``uop.queue`` / ``uop.vc_id`` exactly as before, but
    each access is a single list index.  Setting :attr:`index` re-points the
    view at another µop of the same trace.
    """

    __slots__ = (
        "trace",
        "index",
        "_statics",
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
        "_seqs",
    )

    def __init__(self, trace: CompiledTrace) -> None:
        self.trace = trace
        self.index = 0
        self._statics: Dict[int, StaticInstruction] = {}
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
        self._seqs = trace.seq_list()

    # The property set mirrors DynamicUop, so existing policies (including
    # user-registered ones) work unchanged on the compiled path.
    @property
    def seq(self) -> int:
        """Sequence number of the µop."""
        return self._seqs[self.index]

    @property
    def opclass(self) -> UopClass:
        """µop class."""
        return _UOP_CLASSES[self.trace.opclass[self.index]]

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
        return int(self.trace.sid[self.index])

    @property
    def static(self) -> StaticInstruction:
        """The underlying static instruction, rebuilt on demand per ``sid``.

        Policies keying per-instruction state on ``uop.static`` / ``.sid``
        keep working: instances are cached per ``sid``, so every dynamic
        occurrence of one instruction returns the same object (as on the
        ``DynamicUop`` path).  Note it is a *reconstruction* carrying the
        trace's annotation snapshot, not the program's own instance.
        """
        index = self.index
        sid = int(self.trace.sid[index])
        static = self._statics.get(sid)
        if static is None:
            static = StaticInstruction(
                sid,
                self.opclass,
                self._dests[index],
                self._srcs[index],
                block=int(self.trace.block[index]),
            )
            static.vc_id = self._vc_ids[index]
            static.chain_leader = self._leaders[index]
            static.static_cluster = self._static_clusters[index]
            self._statics[sid] = static
        return static

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledUopView(index={self.index}, seq={self.seq}, {self.opclass.name})"
