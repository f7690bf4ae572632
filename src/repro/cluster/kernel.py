"""The vectorized two-tier simulation kernel.

:class:`VectorizedKernel` executes a bound :class:`~repro.uops.compiled.
CompiledTrace` on flat, preallocated structure-of-arrays state instead of the
interpreter's per-µop ``_InFlight``/:class:`~repro.cluster.rename.Value`
object graph.  The design is two-tier (see DESIGN.md):

* **Python tier** -- the dispatch stage and the steering-policy callback.
  Policies may be stateful and are guaranteed to observe every cycle in
  which the dispatch stage acts, in dispatch order, with the exact
  machine-state view (:class:`~repro.steering.base.SteeringContext`) the
  interpreter provides.  The kernel object *is* the context: occupancy,
  queue-free and register-location queries read the same flat arrays the
  kernel mutates.
* **Array tier** -- everything else.  Issue/writeback/commit state lives in
  preallocated parallel arrays indexed by *record slot*: a µop's slot is its
  trace index and copy µops take the slots after the trace in creation
  order, so the ready heaps hold bare ints.  The per-trace dependence
  structure is precomputed once
  (:meth:`~repro.uops.compiled.CompiledTrace.dependency_plan`), and so are
  the facts a run only reads (dispatch metadata, issue latencies, cache
  sets and tags, the memory-µop prefix count behind the LSQ occupancy).
  The L1/L2 tag model runs inline in the issue stage on the processor's own
  cache objects, and idle stretches are skipped in bulk exactly as the
  interpreter does.

A third tier -- the **compiled steering tier** -- removes the per-µop Python
frames entirely for policies that declare their decision function: a policy
exposing :meth:`~repro.steering.base.SteeringPolicy.compiled_spec` has its
decision (one of the closed :data:`~repro.steering.base.SPEC_FORMS`) inlined
into the dispatch loop of the array tier (the *fused fast path*).
Un-lowered policies fall through to the per-µop callback path unchanged,
per dispatch, mid-batch.

The kernel is bit-identical to the interpreter: the golden-metrics suite and
the kernel-parity suite run both on the same traces and compare metrics
field-for-field.  The interpreter remains the golden reference
(``kernel="interpreter"``); the vectorized kernel is the default.
"""

from __future__ import annotations

import functools
import heapq
import os
import weakref
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.steering.base import (
    SPEC_FORMS,
    CompiledSteeringSpec,
    SteeringContext,
    SteeringPolicy,
)
from repro.uops.compiled import NO_ANNOTATION, CompiledTrace, CompiledUopView
from repro.uops.registers import NUM_REGISTERS

#: Environment variable overriding the default kernel choice.
KERNEL_ENV = "REPRO_KERNEL"

#: Recognised kernel implementations.
KERNELS = ("interpreter", "vectorized")

#: Kernel used when neither the constructor nor the environment picks one.
DEFAULT_KERNEL = "vectorized"

#: Integer codes of the lowered decision forms (0 = no spec, callback path).
#: The codes follow :data:`~repro.steering.base.SPEC_FORMS` order.
_FORM_CALLBACK = 0
_FORM_CODES = {name: code for code, name in enumerate(SPEC_FORMS, start=1)}
_FORM_CONSTANT = _FORM_CODES["constant"]
_FORM_TABLE = _FORM_CODES["static-table"]
_FORM_OCC = _FORM_CODES["occupancy-stall"]
_FORM_MAP = _FORM_CODES["mapping-table"]


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve a kernel choice to one of :data:`KERNELS`.

    An explicit ``kernel`` argument wins (so parity tests can pin both sides
    regardless of the environment); ``None`` defers to
    ``$REPRO_KERNEL`` when set and non-blank, and falls back to
    :data:`DEFAULT_KERNEL` otherwise.  Unknown values -- explicit or from the
    environment -- are rejected with an error naming every valid kernel (and
    the environment variable when that is where the value came from), never
    silently remapped.
    """
    choice = kernel
    from_env = False
    if choice is None:
        env = os.environ.get(KERNEL_ENV)
        if env is not None and env.strip():
            choice = env.strip().lower()
            from_env = True
        else:
            choice = DEFAULT_KERNEL
    if choice not in KERNELS:
        source = f" (from ${KERNEL_ENV})" if from_env else ""
        valid = ", ".join(repr(name) for name in KERNELS)
        raise ValueError(
            f"unknown simulation kernel {choice!r}{source}; valid kernels: {valid}"
        )
    return choice


def _resolve_spec(steering, num_clusters: int) -> Tuple[Optional[CompiledSteeringSpec], int]:
    """The policy's validated lowering for this run: ``(spec, form code)``.

    Returns ``(None, _FORM_CALLBACK)`` for policies without a lowering.
    Malformed specs (custom policies declaring impossible parameters) are
    rejected here with a clear error instead of steering µops out of range.

    A lowering is only honoured when it was declared at (or below) the class
    that defined ``pick_cluster``: a subclass overriding ``pick_cluster``
    while inheriting ``compiled_spec`` would otherwise fuse the *parent's*
    decision function and silently ignore the override.
    """
    mro = type(steering).__mro__
    pick_owner = next(c for c in mro if "pick_cluster" in c.__dict__)
    spec_owner = next(
        (c for c in mro if "compiled_spec" in c.__dict__), SteeringPolicy
    )
    if not issubclass(spec_owner, pick_owner):
        return None, _FORM_CALLBACK
    spec = steering.compiled_spec()
    if spec is None:
        return None, _FORM_CALLBACK
    form = _FORM_CODES[spec.form]  # CompiledSteeringSpec validated the name
    if form == _FORM_CONSTANT and not 0 <= spec.target_cluster < num_clusters:
        raise ValueError(
            f"compiled spec of policy {steering.name}: target cluster "
            f"{spec.target_cluster} does not exist in a {num_clusters}-cluster machine"
        )
    if form == _FORM_MAP:
        if len(spec.mapping) != spec.num_virtual_clusters:
            raise ValueError(
                f"compiled spec of policy {steering.name}: mapping has "
                f"{len(spec.mapping)} entries, expected {spec.num_virtual_clusters}"
            )
        for target in spec.mapping:
            if not 0 <= target < num_clusters:
                raise ValueError(
                    f"compiled spec of policy {steering.name}: mapping entry "
                    f"{target} is not a valid cluster"
                )
    return spec, form


def _sync_spec_state(steering, form: int, vc_map, vc_remaps: int) -> None:
    """Hand a fused run's final policy state back to the policy object."""
    if form == _FORM_MAP:
        steering.sync_compiled_state(
            {"mapping": tuple(vc_map), "remap_count": vc_remaps}
        )
    elif form != _FORM_CALLBACK:
        steering.sync_compiled_state({})


class VectorizedKernel(SteeringContext):
    """Flat-state cycle kernel bound to one :class:`ClusteredProcessor`.

    The processor owns configuration, policy, memory hierarchy, interconnect
    and metrics; the kernel owns the execution state.  Mutable per-cluster
    accounting (issue-queue occupancy, free physical registers, in-flight
    counters) is *borrowed* from the processor's models via their live-list
    accessors, so those models remain the single source of truth and the
    steering-visible context stays consistent with the interpreter's.
    """

    __slots__ = (
        # ``num_clusters`` implements the SteeringContext property as a slot:
        # the descriptor shadows the abstract property, and policies (which
        # read it on every pick) get a plain attribute load instead of a
        # Python-level property call.
        "num_clusters",
        "_processor",
        "_all_mask",
        "_num_regs",
        "_qcap",
        "_issue_widths",
        # per-trace hoists (bind time)
        "_n",
        "_compiled",
        "_plan",
        "_u_meta",
        "_u_exec_latency",
        "_u_dest_counts",
        "_u_memory_before",
        # run-time state exposed through the SteeringContext interface
        "_occ",
        "_inflight",
        "_cur_def",
        "_def_mask",
        "_def_home",
    )

    def __init__(self, processor) -> None:
        # A weak reference: the processor owns its kernel, and a cycle would
        # keep a finished batch's processor and bound trace alive until the
        # next cyclic garbage collection.
        self._processor = weakref.ref(processor)
        config = processor.config
        self.num_clusters = config.num_clusters
        self._all_mask = (1 << config.num_clusters) - 1
        self._num_regs = NUM_REGISTERS
        self._qcap = processor.issue_queues.capacity_list()
        self._issue_widths = processor.issue_queues.issue_width_list()
        self._n = 0
        self._compiled: Optional[CompiledTrace] = None
        self._occ: List[int] = []
        self._inflight: List[int] = []
        self._cur_def: List[int] = [-1] * self._num_regs  # every register a live-in
        self._def_mask: List[int] = []
        self._def_home: List[int] = []

    # ------------------------------------------------ SteeringContext interface --
    def cluster_occupancy(self, cluster: int) -> int:
        """In-flight µops (including pending copies) assigned to ``cluster``."""
        return self._inflight[cluster]

    def queue_free(self, cluster: int, kind) -> int:
        """Free entries of the ``kind`` issue queue of ``cluster``."""
        return self._qcap[kind] - self._occ[cluster * 3 + kind]

    def register_location_mask(self, reg: int) -> int:
        """Location bitmask of architectural register ``reg`` (rename-table view)."""
        d = self._cur_def[reg]
        if d < 0:
            # Live-in: available in every cluster (warmed-up machine), same
            # as the interpreter's initial rename-table state.
            return self._all_mask
        return self._def_mask[d] | (1 << self._def_home[d])

    # ------------------------------------------------------------------- binding --
    def bind(self, compiled: CompiledTrace) -> None:
        """Hoist the per-µop columns and the dependence plan of ``compiled``.

        All hoists are shared caches on the trace (the interpreter uses the
        same ones), so binding the same trace to many processors -- the batch
        scheduler's layout -- pays the materialisation once.
        """
        self._n = len(compiled)
        self._compiled = compiled
        self._plan = compiled.dependency_plan()
        self._u_meta = compiled.dispatch_meta()
        self._u_exec_latency = compiled.exec_latency_list()
        self._u_dest_counts = compiled.dest_kind_counts()
        self._u_memory_before = compiled.memory_before()

    # ------------------------------------------------------------------- running --
    def run(self, limit: int) -> None:
        """Simulate the bound trace on the processor's freshly-reset state.

        Mirrors the interpreter stage-for-stage (commit, writeback, issue,
        dispatch, fetch, idle skip); every divergence would show up in the
        parity suites.  On return ``processor.cycle`` and the scalar metric
        counters are written back; list-valued metrics are updated in place.
        """
        proc = self._processor()
        config = proc.config
        num_clusters = self.num_clusters
        metrics = proc.metrics
        steering = proc.steering
        compiled = self._compiled

        # Compiled steering tier: resolve the policy's lowering for this run.
        # The spec is requested fresh per run -- after the processor reset the
        # policy -- so stateful forms snapshot their post-reset state and get
        # the final state handed back when the run ends.  ``fused_steering``
        # (a processor knob, like ``idle_skip``) pins the per-µop callback
        # path for parity tests and baselines.
        spec, form = (
            _resolve_spec(steering, num_clusters)
            if proc.fused_steering
            else (None, _FORM_CALLBACK)
        )
        # The policy's µop view, fresh per run like the interpreter's (it
        # snapshots the annotation columns); fused forms read the columns
        # directly and never need one.
        view = CompiledUopView(compiled) if form == _FORM_CALLBACK else None

        # Per-form precomputation of the fused fast path (cheap, per run).
        # The constant and static-table forms share one per-µop choice
        # column; each form is one flag test in the dispatch loop.
        n = self._n
        table: List[int] = []
        idle_fraction = 0.0
        srcs_rows = None
        mask_clusters: Tuple[Tuple[int, ...], ...] = ()
        vc_col: List[int] = []
        leader_col: List[bool] = []
        vc_map: List[int] = []
        num_vc = 1
        fallback_balance = True
        vc_remaps = 0
        all_mask = self._all_mask
        cluster_ids = range(num_clusters)
        if form == _FORM_CONSTANT:
            table = [spec.target_cluster] * n
        elif form == _FORM_TABLE:
            # Annotations are re-read every run (like the view), so the
            # choice table is rebuilt from the live column each time.
            col = compiled.static_cluster
            table = (
                np.where(col == NO_ANNOTATION, spec.default_cluster, col).astype(
                    np.int64
                )
                % num_clusters
            ).tolist()
        elif form == _FORM_OCC:
            srcs_rows = compiled.src_tuples()
            mask_clusters = _mask_clusters(num_clusters)
            idle_fraction = spec.idle_fraction
        elif form == _FORM_MAP:
            vc_col = compiled.vc_id.tolist()
            leader_col = compiled.chain_leader_list()
            num_vc = spec.num_virtual_clusters
            fallback_balance = spec.fallback_balance
            vc_map = list(spec.mapping)
        use_table = form == _FORM_CONSTANT or form == _FORM_TABLE
        use_occ = form == _FORM_OCC
        use_map = form == _FORM_MAP

        # Borrowed live accounting (fresh from _reset_state): the issue-queue
        # occupancy, register-file free counts and per-cluster in-flight
        # counters stay owned by their models; the kernel mutates them in
        # place so context queries and post-run introspection agree.
        occ = proc.issue_queues.occupancy_list()
        inflight = proc._cluster_inflight
        free_int = proc.regfiles.free_int_list()
        free_fp = proc.regfiles.free_fp_list()
        self._occ = occ
        self._inflight = inflight

        # Per-trace hoists.
        meta = self._u_meta
        plan = self._plan
        def_uop = plan.def_uop
        def_reg = plan.def_reg
        dest_offsets = plan.dest_offsets
        exec_latency = self._u_exec_latency
        memory_before = self._u_memory_before
        dcounts = self._u_dest_counts

        # Register-definition state: one slot per in-trace definition
        # (replaces the interpreter's per-definition Value objects).  A
        # definition's home cluster is where its producer runs; ``def_mask``
        # holds the clusters copies have delivered it to.
        def_mask = [0] * plan.num_defs
        def_home = [0] * plan.num_defs
        cur_def = [-1] * self._num_regs
        self._def_mask = def_mask
        self._def_home = def_home
        self._cur_def = cur_def
        copy_map: Dict[int, int] = {}  # def id * num_clusters + target -> copy slot

        # Record slots.  A µop's slot is its trace index; copy µops take
        # slots n + 1, n + 2, ... in creation order, so ``slot > n`` marks a
        # copy.  Slot n is never used: its ``rec_completed`` stays False, so
        # the commit stage stops at the end of the trace without a bound
        # check.  Copy queues hold only copies and the INT/FP queues only
        # µops, and both kinds are created in slot order, so every ready
        # heap of bare slot ints pops oldest-first like the interpreter's
        # (seq, record) heaps.  A dispatch copies each producer of its
        # dependence row at most once, so the plan's row total bounds the
        # copies and the arrays never grow.
        cap = n + 1 + plan.num_deps
        rec_cluster = [0] * cap
        rec_pending = [0] * cap
        rec_completed = [False] * cap
        rec_heap: List[Optional[List[int]]] = [None] * cap  # ready heap a slot wakes into
        rec_copydef = [0] * cap
        rec_copytarget = [0] * cap
        rec_waiters: List[Optional[List[int]]] = [None] * cap
        next_slot = n + 1

        # Ready heaps per (cluster, kind); loads separate (L1 port sharing).
        ready: List[List[int]] = [[] for _ in range(num_clusters * 3)]
        ready_loads: List[List[int]] = [[] for _ in range(num_clusters * 3)]
        # The issue stage's walks, in qslot order: (qslot, heap, load heap,
        # issue slot numbers) for the INT/FP queues of the kinds the trace
        # uses (no µop class issues from a copy queue), (qslot, heap, issue
        # slot numbers, source cluster) for the copy queues.  The heaps are
        # mutated in place, never replaced.
        widths = self._issue_widths
        kinds = set(compiled.queue.tolist())
        uop_queues = [
            (qslot, ready[qslot], ready_loads[qslot], range(widths[qslot % 3]))
            for qslot in range(num_clusters * 3)
            if qslot % 3 in kinds and qslot % 3 != 2
        ]
        copy_queues = [
            (qslot, ready[qslot], range(widths[2]), qslot // 3)
            for qslot in range(2, num_clusters * 3, 3)
        ]
        total_ready = 0
        # Writeback events: completion cycle -> slots completing then.  The
        # idle skip never jumps past a key, so every key is in the future.
        events: Dict[int, List[int]] = {}

        # In-order window counters: µops dispatch in trace order, so the ROB
        # and the dispatch buffer are index ranges over the trace.
        commit_idx = 0  # next µop (trace index) to commit
        dispatch_pos = 0  # next µop to dispatch; [commit_idx, dispatch_pos) = ROB
        fetch_pos = 0  # [dispatch_pos, fetch_pos) = dispatch buffer
        ready_at = [0] * n  # dispatch-ready cycle per fetched µop
        trace_exhausted = False
        copies_in_flight = 0  # in-flight µops are the ROB range itself
        redirect_slot = -1
        blocked_until = 0
        cycle = 0

        # Configuration scalars.
        commit_width = config.commit_width
        dispatch_width = config.dispatch_width
        fetch_width = config.fetch_width
        fetch_latency = config.fetch_to_dispatch_latency
        rob_size = config.rob_size
        lsq_size = config.lsq_size
        read_ports = config.l1_read_ports
        redirect_penalty = config.mispredict_redirect_penalty
        model_mispredict = config.model_branch_mispredictions
        buffer_cap = proc._dispatch_buffer_cap
        qcap = self._qcap
        cap_copy = qcap[2]
        idle_skip = proc.idle_skip

        # Scalar metrics as locals (flushed in the finally block); the
        # list-valued ones are cheap enough to update in place.  Counts that
        # follow from the in-order windows -- commits, dispatches, copies,
        # branches and their per-cluster splits -- are read off them at the
        # end.
        m_steer = 0
        m_rob = 0
        m_lsq = 0
        m_mispredict_stalls = 0
        alloc_stalls = metrics.allocation_stalls

        # The memory hierarchy, inlined into the issue stage: the tag arrays
        # stay the processor's (warmed above; read by summary() and
        # tag_state() afterwards), the hit/access counters are locals.  Each
        # memory µop's sets and tags are per-trace columns of the geometry.
        memory = proc.memory
        l1 = memory.l1
        l2 = memory.l2
        cache_rows = compiled.cache_rows(memory.geometry)
        l1_sets = l1.set_lists()
        l2_sets = l2.set_lists()
        l1_sets_get = l1_sets.get
        l2_sets_get = l2_sets.get
        l1_assoc = l1.assoc
        l2_assoc = l2.assoc
        l1_latency = l1.hit_latency
        l2_latency = l2.hit_latency
        memory_latency = memory.memory_latency
        l1_accesses = 0
        l1_hits = 0
        l2_accesses = 0
        l2_hits = 0

        heappush = heapq.heappush
        heappop = heapq.heappop
        pick_cluster = steering.pick_cluster
        steering_name = steering.name
        schedule_transfer = proc.interconnect.schedule_transfer
        copy_map_get = copy_map.get
        events_get = events.get
        events_pop = events.pop

        try:
            while True:
                if (
                    trace_exhausted
                    and dispatch_pos == fetch_pos
                    and commit_idx == dispatch_pos
                    and copies_in_flight == 0
                ):
                    break

                # ------------------------------------------------------ commit --
                if rec_completed[commit_idx]:
                    commit_end = commit_idx + commit_width
                    while True:
                        cluster = rec_cluster[commit_idx]
                        inflight[cluster] -= 1
                        di, df = dcounts[commit_idx]
                        if di:
                            free_int[cluster] += di
                        if df:
                            free_fp[cluster] += df
                        commit_idx += 1
                        if commit_idx >= commit_end or not rec_completed[commit_idx]:
                            break

                # --------------------------------------------------- writeback --
                bucket = events_pop(cycle, None)
                if bucket is not None:
                    # The order of a bucket does not matter: every effect
                    # below is a set bit, a count or a heap push, and a
                    # heap pops by slot, whatever order it was pushed in.
                    for slot in bucket:
                        rec_completed[slot] = True
                        if slot > n:
                            # Copy arrived: value now available in the target
                            # cluster, producing cluster no longer loaded.
                            def_mask[rec_copydef[slot]] |= 1 << rec_copytarget[slot]
                            inflight[rec_cluster[slot]] -= 1
                            copies_in_flight -= 1
                        waiters = rec_waiters[slot]
                        if waiters is not None:
                            for waiter in waiters:
                                pending = rec_pending[waiter] - 1
                                rec_pending[waiter] = pending
                                if not pending:
                                    heappush(rec_heap[waiter], waiter)
                                    total_ready += 1
                    if redirect_slot >= 0 and rec_completed[redirect_slot]:
                        # Mispredicted branch resolved: front end restarts
                        # after the redirect penalty.
                        redirect_slot = -1
                        blocked_until = cycle + redirect_penalty

                # ------------------------------------------------------- issue --
                # Copy queues and µop queues share no state within a cycle
                # (different queues, the link only for copies, the read ports
                # and caches only for µops, events in any bucket order), so
                # each kind has its own walk.
                if total_ready:
                    loads_issued = 0
                    for qslot, main, loads, slots in uop_queues:
                        if not main and not loads:
                            continue
                        # ``issued`` counts the µops issued before the one
                        # in hand; a loop that runs out issued them all.
                        for issued in slots:
                            # Merge the two heaps by age; once the shared
                            # L1 read ports are saturated, ready loads
                            # stay untouched on theirs.
                            if (
                                loads
                                and loads_issued < read_ports
                                and (not main or loads[0] < main[0])
                            ):
                                slot = heappop(loads)
                                was_load = True
                            elif main:
                                slot = heappop(main)
                                was_load = False
                            else:
                                break
                            when = exec_latency[slot]
                            if when:
                                when += cycle
                            else:
                                # MemoryHierarchy.load_latency/store_access
                                # inlined: SetAssociativeCache.access's LRU
                                # update on the live set lists, L1 first.
                                # Loads go to L2 only on an L1 miss; stores
                                # write-allocate in both levels.
                                lat, set_index, tag, set2, tag2 = cache_rows[slot]
                                ways = l1_sets_get(set_index)
                                l1_accesses += 1
                                hit = False
                                if ways is None:
                                    l1_sets[set_index] = [tag]
                                elif tag in ways:
                                    if ways[0] != tag:
                                        ways.remove(tag)
                                        ways.insert(0, tag)
                                    l1_hits += 1
                                    hit = True
                                else:
                                    ways.insert(0, tag)
                                    if len(ways) > l1_assoc:
                                        ways.pop()
                                if was_load and hit:
                                    lat += l1_latency
                                else:
                                    ways = l2_sets_get(set2)
                                    l2_accesses += 1
                                    hit = False
                                    if ways is None:
                                        l2_sets[set2] = [tag2]
                                    elif tag2 in ways:
                                        if ways[0] != tag2:
                                            ways.remove(tag2)
                                            ways.insert(0, tag2)
                                        l2_hits += 1
                                        hit = True
                                    else:
                                        ways.insert(0, tag2)
                                        if len(ways) > l2_assoc:
                                            ways.pop()
                                    if was_load:
                                        lat += l2_latency if hit else memory_latency
                                if was_load:
                                    loads_issued += 1
                                when = cycle + (lat if lat > 1 else 1)
                            bucket = events_get(when)
                            if bucket is None:
                                events[when] = [slot]
                            else:
                                bucket.append(slot)
                        else:
                            issued = len(slots)
                        # Nothing in this stage reads the queue occupancy
                        # or the ready count, so they are settled per queue.
                        occ[qslot] -= issued
                        total_ready -= issued
                    for qslot, heap, slots, source in copy_queues if copies_in_flight else ():
                        if not heap:
                            continue
                        for issued in slots:
                            if not heap:
                                break
                            slot = heappop(heap)
                            # One execute cycle in the producing cluster,
                            # then the link.
                            when = schedule_transfer(source, rec_copytarget[slot], cycle + 1)
                            bucket = events_get(when)
                            if bucket is None:
                                events[when] = [slot]
                            else:
                                bucket.append(slot)
                        else:
                            issued = len(slots)
                        occ[qslot] -= issued
                        total_ready -= issued

                # ---------------------------------------------------- dispatch --
                # µops leave the fetch stage in order, so the dispatch-ready
                # ones are a prefix of the buffer: ready_at is nondecreasing
                # over [dispatch_pos, fetch_pos).
                if dispatch_pos < fetch_pos and ready_at[dispatch_pos] <= cycle:
                    if redirect_slot >= 0 or cycle < blocked_until:
                        m_mispredict_stalls += 1
                        dispatch_end = dispatch_pos  # a redirect stalls the head
                    else:
                        dispatch_end = bisect_right(ready_at, cycle, dispatch_pos, fetch_pos)
                        if dispatch_end > dispatch_pos + dispatch_width:
                            dispatch_end = dispatch_pos + dispatch_width
                        # Nothing commits during dispatch, so the ROB and
                        # LSQ limits are fixed for the cycle: the ROB is the
                        # index range [commit_idx, dispatch_pos) and the LSQ
                        # the memory µops in it.
                        rob_end = commit_idx + rob_size
                        lsq_end = memory_before[commit_idx] + lsq_size
                    while dispatch_pos < dispatch_end:
                        index = dispatch_pos
                        # The meta unpack has no side effects, so hoisting it
                        # above the steering decision (the occupancy form
                        # needs the queue kind) cannot perturb any metric.
                        (
                            kind,
                            uop_is_memory,
                            uop_is_load,
                            di,
                            df,
                            dep_row,
                            single_def,
                            redirects,
                        ) = meta[index]
                        # ---- steering decision (fused forms or callback) -------
                        # Every fused form replicates its policy's
                        # ``pick_cluster`` verbatim over the same observables
                        # (the kernel's own context arrays), at the same point
                        # in the loop -- the lowered parity suite pins
                        # bit-identity against the callback path.
                        if use_table:
                            cluster = table[index]
                        elif use_occ:
                            counts = [0] * num_clusters
                            for reg in srcs_rows[index]:
                                d = cur_def[reg]
                                for c in mask_clusters[
                                    all_mask if d < 0 else def_mask[d] | 1 << def_home[d]
                                ]:
                                    counts[c] += 1
                            best_count = -1
                            preferred = 0
                            preferred_occ = 0
                            for c in cluster_ids:
                                count = counts[c]
                                if count > best_count:
                                    best_count = count
                                    preferred = c
                                    preferred_occ = inflight[c]
                                elif count == best_count:
                                    occupancy = inflight[c]
                                    if occupancy < preferred_occ:
                                        preferred = c
                                        preferred_occ = occupancy
                            if occ[preferred * 3 + kind] < qcap[kind]:
                                cluster = preferred
                            else:
                                threshold = preferred_occ * idle_fraction
                                diverted = -1
                                diverted_occ = 0
                                for c in cluster_ids:
                                    if c == preferred or occ[c * 3 + kind] >= qcap[kind]:
                                        continue
                                    occupancy = inflight[c]
                                    if occupancy <= threshold and (
                                        diverted < 0 or occupancy < diverted_occ
                                    ):
                                        diverted = c
                                        diverted_occ = occupancy
                                if diverted < 0:
                                    m_steer += 1
                                    break
                                cluster = diverted
                        elif use_map:
                            vc = vc_col[index]
                            if vc < 0:
                                if fallback_balance:
                                    cluster = 0
                                    best_occ = inflight[0]
                                    for c in range(1, num_clusters):
                                        occupancy = inflight[c]
                                        if occupancy < best_occ:
                                            cluster = c
                                            best_occ = occupancy
                                else:
                                    cluster = 0
                            else:
                                vc = vc % num_vc
                                if leader_col[index]:
                                    cluster = 0
                                    best_occ = inflight[0]
                                    for c in range(1, num_clusters):
                                        occupancy = inflight[c]
                                        if occupancy < best_occ:
                                            cluster = c
                                            best_occ = occupancy
                                    if vc_map[vc] != cluster:
                                        vc_remaps += 1
                                    vc_map[vc] = cluster
                                else:
                                    cluster = vc_map[vc]
                        else:  # _FORM_CALLBACK
                            view.index = index
                            cluster = pick_cluster(view, self)
                            if cluster is None:
                                m_steer += 1
                                break
                            if cluster < 0 or cluster >= num_clusters:
                                raise ValueError(
                                    f"steering policy {steering_name} returned "
                                    f"invalid cluster {cluster}"
                                )
                        # ---- resource checks (the interpreter's _try_dispatch) --
                        if index >= rob_end:
                            m_rob += 1
                            break
                        if uop_is_memory and memory_before[index] >= lsq_end:
                            m_lsq += 1
                            break
                        qslot = cluster * 3 + kind
                        if occ[qslot] >= qcap[kind]:
                            alloc_stalls[cluster] += 1
                            break
                        if di and free_int[cluster] < di or df and free_fp[cluster] < df:
                            alloc_stalls[cluster] += 1
                            break
                        # ---- operand planning over definition ids --------------
                        # A value is in its home cluster once its producer
                        # completes, and in another cluster once a copy
                        # delivers it there (``def_mask``); a copy that is
                        # already mapped has not arrived yet.  The µop joins
                        # the waiters of every slot it waits on right away:
                        # only a full copy queue can still stall it, and that
                        # takes the registrations back.
                        pending = 0
                        new_copies = None
                        for d in dep_row:
                            source = def_home[d]
                            if source == cluster:
                                wait = def_uop[d]
                                if rec_completed[wait]:
                                    continue
                            elif def_mask[d] >> cluster & 1:
                                continue
                            else:
                                wait = copy_map_get(d * num_clusters + cluster)
                                if wait is None:
                                    if new_copies is None:
                                        new_copies = [(d, source)]
                                    else:
                                        new_copies.append((d, source))
                                    continue
                            waiters = rec_waiters[wait]
                            if waiters is None:
                                rec_waiters[wait] = [index]
                            else:
                                waiters.append(index)
                            pending += 1
                        if new_copies is not None:
                            # Every needed copy queue must have room, counting
                            # multiple copies from the same source cluster.
                            blocked_source = -1
                            if len(new_copies) == 1:
                                source = new_copies[0][1]
                                if cap_copy - occ[source * 3 + 2] < 1:
                                    blocked_source = source
                            else:
                                demand: Dict[int, int] = {}
                                for d, source in new_copies:
                                    demand[source] = demand.get(source, 0) + 1
                                for source, need in demand.items():
                                    if cap_copy - occ[source * 3 + 2] < need:
                                        blocked_source = source
                                        break
                            if blocked_source >= 0:
                                alloc_stalls[blocked_source] += 1
                                # ``index`` is the last waiter of each slot it
                                # joined above (twice for two defs of one
                                # producer), and of no other slot.
                                for d in dep_row:
                                    wait = (
                                        def_uop[d]
                                        if def_home[d] == cluster
                                        else copy_map_get(d * num_clusters + cluster)
                                    )
                                    waiters = None if wait is None else rec_waiters[wait]
                                    if waiters and waiters[-1] == index:
                                        waiters.pop()
                                break
                        # ---- every resource available: perform the dispatch ----
                        rec_cluster[index] = cluster
                        if new_copies is not None:
                            # One copy µop per new copy (a µop can need
                            # several, possibly from the same source cluster).
                            for d, source in new_copies:
                                cslot = next_slot
                                next_slot = cslot + 1
                                rec_cluster[cslot] = source
                                rec_copydef[cslot] = d
                                rec_copytarget[cslot] = cluster
                                rec_waiters[cslot] = [index]
                                copy_queue = source * 3 + 2
                                wait = def_uop[d]
                                if rec_completed[wait]:
                                    heappush(ready[copy_queue], cslot)
                                    total_ready += 1
                                else:
                                    rec_pending[cslot] = 1
                                    rec_heap[cslot] = ready[copy_queue]
                                    waiters = rec_waiters[wait]
                                    if waiters is None:
                                        rec_waiters[wait] = [cslot]
                                    else:
                                        waiters.append(cslot)
                                occ[copy_queue] += 1
                                inflight[source] += 1
                                copies_in_flight += 1
                                copy_map[d * num_clusters + cluster] = cslot
                            pending += len(new_copies)
                        if pending:
                            rec_pending[index] = pending
                            rec_heap[index] = ready_loads[qslot] if uop_is_load else ready[qslot]
                        else:
                            heappush(ready_loads[qslot] if uop_is_load else ready[qslot], index)
                            total_ready += 1
                        occ[qslot] += 1
                        if di:
                            free_int[cluster] -= di
                        if df:
                            free_fp[cluster] -= df
                        inflight[cluster] += 1
                        if single_def >= 0:
                            cur_def[def_reg[single_def]] = single_def
                            def_home[single_def] = cluster
                        elif single_def < -1:
                            for d in range(dest_offsets[index], dest_offsets[index + 1]):
                                cur_def[def_reg[d]] = d
                                def_home[d] = cluster
                        dispatch_pos += 1
                        if redirects and model_mispredict:
                            # The front end stalls from the next µop on: a
                            # ready one in this cycle's window counts a stall.
                            redirect_slot = index
                            if dispatch_pos < dispatch_end:
                                m_mispredict_stalls += 1
                            break

                # ------------------------------------------------------- fetch --
                if not trace_exhausted:
                    # Up to fetch_width µops while the buffer has room; the
                    # trace is exhausted when it runs out before either
                    # limit does (the interpreter's per-µop _fetch loop).
                    take = buffer_cap - fetch_pos + dispatch_pos
                    if fetch_width < take:
                        take = fetch_width
                    if n - fetch_pos < take:
                        take = n - fetch_pos
                        trace_exhausted = True
                    if take > 0:
                        ready_at[fetch_pos:fetch_pos + take] = [cycle + fetch_latency] * take
                        fetch_pos += take

                cycle += 1
                if cycle > limit:
                    raise RuntimeError(
                        f"simulation exceeded {limit} cycles "
                        f"({commit_idx} µops committed); possible deadlock"
                    )

                # --------------------------------------------------- idle skip --
                # Same veto conditions and candidate set as the interpreter's
                # _skip_idle_cycles (see its docstring for the argument);
                # cycles in which the dispatch stage would act are never
                # skipped, so stateful policies observe every acting cycle.
                if not idle_skip:
                    continue
                if total_ready:
                    continue
                if rec_completed[commit_idx]:
                    continue
                if not trace_exhausted and fetch_pos - dispatch_pos < buffer_cap:
                    continue
                buffer = dispatch_pos < fetch_pos
                if (
                    trace_exhausted
                    and not buffer
                    and commit_idx == dispatch_pos
                    and copies_in_flight == 0
                ):
                    continue  # finished; the loop head breaks
                redirect = redirect_slot >= 0
                blocked = redirect or cycle < blocked_until
                head_ready = ready_at[dispatch_pos] if buffer else 0
                if buffer and not blocked and head_ready <= cycle:
                    continue  # the dispatch stage acts this cycle
                goal = limit + 1
                if events:
                    next_event = min(events)
                    if next_event < goal:
                        goal = next_event
                if buffer and not blocked:
                    if head_ready < goal:
                        goal = head_ready
                elif blocked and not redirect:
                    if blocked_until < goal:
                        goal = blocked_until
                if goal <= cycle:
                    continue
                if buffer and blocked:
                    # Redirect-stalled cycles with a dispatch-ready head count
                    # one mispredict stall each; account the skipped ones.
                    stalled = goal - (cycle if cycle > head_ready else head_ready)
                    if stalled > 0:
                        m_mispredict_stalls += stalled
                cycle = goal
        finally:
            _sync_spec_state(steering, form, vc_map, vc_remaps)
            proc.cycle = cycle
            # Commit, dispatch and copy creation run in slot order, so their
            # counts are the window ends and their per-cluster splits the
            # clusters recorded in those slot ranges.
            metrics.committed_uops += commit_idx
            metrics.dispatched_uops += dispatch_pos
            metrics.copies_generated += next_slot - n - 1
            dispatched_to = rec_cluster[:dispatch_pos]
            copied_from = rec_cluster[n + 1 : next_slot]
            for cluster in cluster_ids:
                metrics.cluster_dispatch[cluster] += dispatched_to.count(cluster)
                metrics.cluster_copies[cluster] += copied_from.count(cluster)
            branches = compiled.is_branch[:dispatch_pos]
            metrics.branches += int(np.count_nonzero(branches))
            if model_mispredict:
                metrics.mispredictions += int(
                    np.count_nonzero(branches & compiled.mispredicted[:dispatch_pos])
                )
            metrics.steering_stalls += m_steer
            metrics.rob_stalls += m_rob
            metrics.lsq_stalls += m_lsq
            metrics.mispredict_stalls += m_mispredict_stalls
            l1.stats.accesses += l1_accesses
            l1.stats.hits += l1_hits
            l2.stats.accesses += l2_accesses
            l2.stats.hits += l2_hits


@functools.lru_cache(maxsize=None)
def _mask_clusters(num_clusters: int) -> Tuple[Tuple[int, ...], ...]:
    """The clusters of every location mask of ``num_clusters`` clusters, lowest first."""
    return tuple(
        tuple(c for c in range(num_clusters) if mask >> c & 1)
        for mask in range(1 << num_clusters)
    )
