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
  preallocated parallel arrays indexed by *record slot* (µops and copy µops
  share one slot space; slot order equals creation order, so the ready heaps
  hold bare ints).  The per-trace dependence structure is precomputed once
  (:meth:`~repro.uops.compiled.CompiledTrace.dependency_plan`), the L1/L2
  tag model runs inline in the issue stage on the processor's own cache
  objects, and idle stretches are skipped in bulk exactly as the
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

import heapq
import os
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.steering.base import (
    SPEC_FORMS,
    CompiledSteeringSpec,
    SteeringContext,
    SteeringPolicy,
)
from repro.uops.compiled import NO_ANNOTATION, CompiledTrace, CompiledUopView

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
    regardless of the environment); ``None``/``"auto"`` defers to
    ``$REPRO_KERNEL`` when set and non-blank, and falls back to
    :data:`DEFAULT_KERNEL` otherwise.  Unknown values -- explicit or from the
    environment -- are rejected with an error naming every valid kernel (and
    the environment variable when that is where the value came from), never
    silently remapped.
    """
    choice = kernel
    from_env = False
    if choice is None or choice == "auto":
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
            f"unknown simulation kernel {choice!r}{source}; "
            f"valid kernels: {valid} (or 'auto')"
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
        "_u_meta",
        "_def_uop",
        "_def_reg",
        "_dest_ranges",
        "_num_defs",
        "_u_latency",
        "_u_exec_latency",
        "_u_is_memory",
        "_u_address",
        "_u_dest_counts",
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
        self._num_regs = processor.register_space.total
        self._qcap = processor.issue_queues.capacity_list()
        self._issue_widths = processor.issue_queues.issue_width_list()
        self._n = 0
        self._compiled: Optional[CompiledTrace] = None
        self._occ: List[int] = []
        self._inflight: List[int] = []
        self._cur_def: List[int] = []
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
        plan = compiled.dependency_plan()
        self._n = len(compiled)
        self._compiled = compiled
        self._def_uop = plan.def_uop
        self._def_reg = plan.def_reg
        offsets = plan.dest_offsets
        self._dest_ranges = [range(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
        self._num_defs = plan.num_defs
        register_space = self._processor().register_space
        self._u_meta = compiled.dispatch_meta(register_space)
        self._u_latency = compiled.latency_list()
        # Issue-to-writeback delay of a non-memory µop (at least one cycle).
        self._u_exec_latency = [lat if lat > 1 else 1 for lat in self._u_latency]
        self._u_is_memory = compiled.is_memory_list()
        self._u_address = compiled.address_list()
        self._u_dest_counts = compiled.dest_kind_counts(register_space)

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
        view = CompiledUopView(self._compiled) if form == _FORM_CALLBACK else None

        # Per-form precomputation of the fused fast path (cheap, per run).
        const_cluster = 0
        table: List[int] = []
        idle_fraction = 0.0
        srcs_rows = None
        counts_buf: List[int] = []
        vc_col: List[int] = []
        leader_col: List[bool] = []
        vc_map: List[int] = []
        num_vc = 1
        fallback_balance = True
        vc_remaps = 0
        all_mask = self._all_mask
        if form == _FORM_CONSTANT:
            const_cluster = spec.target_cluster
        elif form == _FORM_TABLE:
            # Annotations are re-read every run (like the view), so the
            # choice table is rebuilt from the live column each time.
            col = self._compiled.static_cluster
            table = (
                np.where(col == NO_ANNOTATION, spec.default_cluster, col).astype(
                    np.int64
                )
                % num_clusters
            ).tolist()
        elif form == _FORM_OCC:
            srcs_rows = self._compiled.src_tuples()
            counts_buf = [0] * num_clusters
            idle_fraction = spec.idle_fraction
        elif form == _FORM_MAP:
            vc_col = self._compiled.vc_id.tolist()
            leader_col = self._compiled.chain_leader_list()
            num_vc = spec.num_virtual_clusters
            fallback_balance = spec.fallback_balance
            vc_map = list(spec.mapping)

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
        n = self._n
        meta = self._u_meta
        def_uop = self._def_uop
        def_reg = self._def_reg
        dest_ranges = self._dest_ranges
        latency = self._u_latency
        exec_latency = self._u_exec_latency
        is_memory = self._u_is_memory
        address = self._u_address
        dcounts = self._u_dest_counts

        # Register-definition state: one slot per in-trace definition
        # (replaces the interpreter's per-definition Value objects).
        def_mask = [0] * self._num_defs
        def_home = [0] * self._num_defs
        cur_def = [-1] * self._num_regs
        self._def_mask = def_mask
        self._def_home = def_home
        self._cur_def = cur_def
        copy_map: Dict[int, int] = {}  # def id * num_clusters + target -> copy slot

        # Record slots (µops and copies share one space; slot order equals
        # creation order, so heaps of bare slot ints pop oldest-first exactly
        # like the interpreter's (seq, record) heaps).
        cap = n + 16
        rec_uop = [-1] * cap  # trace index, -1 for copy µops
        rec_cluster = [0] * cap
        rec_qslot = [0] * cap  # cluster * 3 + queue kind
        rec_pending = [0] * cap
        rec_completed = [False] * cap
        rec_isload = [False] * cap
        rec_copydef = [0] * cap
        rec_copytarget = [0] * cap
        rec_waiters: List[Optional[List[int]]] = [None] * cap
        next_slot = 0
        uop_slot = [0] * n
        # Trace-index mirrors of the commit-relevant record state: commit
        # retires in trace order, so reading these avoids the slot
        # indirection on the (µop-count) hottest retirement path.
        uop_completed = [False] * n
        uop_cluster = [0] * n

        # Ready heaps per (cluster, kind); loads separate (L1 port sharing).
        ready: List[List[int]] = [[] for _ in range(num_clusters * 3)]
        ready_loads: List[List[int]] = [[] for _ in range(num_clusters * 3)]
        # The issue stage's walk, in qslot order: (qslot, heap, load heap,
        # issue width).  The heaps are mutated in place, never replaced.
        issue_slots = [
            (qslot, ready[qslot], ready_loads[qslot], self._issue_widths[qslot % 3])
            for qslot in range(num_clusters * 3)
        ]
        total_ready = 0
        events: Dict[int, List[int]] = {}
        event_heap: List[int] = []

        # In-order window counters: µops dispatch in trace order, so the ROB
        # and the dispatch buffer are index ranges over the trace.
        commit_idx = 0  # next µop (trace index) to commit
        dispatch_pos = 0  # next µop to dispatch; [commit_idx, dispatch_pos) = ROB
        fetch_pos = 0  # [dispatch_pos, fetch_pos) = dispatch buffer
        ready_at = [0] * n  # dispatch-ready cycle per fetched µop
        trace_exhausted = False
        lsq_count = 0
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
        # list-valued ones are cheap enough to update in place.  Commit and
        # dispatch run in trace order, so their counts are ``commit_idx``
        # and ``dispatch_pos`` themselves, and the per-cluster dispatch
        # counts are read off ``uop_cluster`` at the end.
        m_copies = 0
        m_steer = 0
        m_rob = 0
        m_lsq = 0
        m_mispredict_stalls = 0
        m_branches = 0
        m_mispredictions = 0
        alloc_stalls = metrics.allocation_stalls
        cluster_dispatch = metrics.cluster_dispatch
        cluster_copies = metrics.cluster_copies

        # The memory hierarchy, inlined into the issue stage: the tag arrays
        # stay the processor's (warmed above; read by summary() and
        # tag_state() afterwards), the hit/access counters are locals.
        memory = proc.memory
        l1 = memory.l1
        l2 = memory.l2
        l1_sets = l1.set_lists()
        l2_sets = l2.set_lists()
        l1_sets_get = l1_sets.get
        l2_sets_get = l2_sets.get
        l1_line = l1.line_size
        l2_line = l2.line_size
        l1_num_sets = l1.num_sets
        l2_num_sets = l2.num_sets
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
                if commit_idx < dispatch_pos and uop_completed[commit_idx]:
                    commit_end = commit_idx + commit_width
                    if commit_end > dispatch_pos:
                        commit_end = dispatch_pos
                    while True:
                        cluster = uop_cluster[commit_idx]
                        inflight[cluster] -= 1
                        di, df = dcounts[commit_idx]
                        if di or df:
                            free_int[cluster] += di
                            free_fp[cluster] += df
                        if is_memory[commit_idx]:
                            lsq_count -= 1
                        commit_idx += 1
                        if commit_idx >= commit_end or not uop_completed[commit_idx]:
                            break

                # --------------------------------------------------- writeback --
                bucket = events_pop(cycle, None)
                if bucket is not None:
                    # Drop the drained key (and any already-drained stragglers)
                    # so the idle skip reads the next event in O(1).
                    while event_heap and event_heap[0] <= cycle:
                        heappop(event_heap)
                    for slot in bucket:
                        rec_completed[slot] = True
                        uop = rec_uop[slot]
                        if uop < 0:
                            # Copy arrived: value now available in the target
                            # cluster, producing cluster no longer loaded.
                            def_mask[rec_copydef[slot]] |= 1 << rec_copytarget[slot]
                            inflight[rec_cluster[slot]] -= 1
                            copies_in_flight -= 1
                        else:
                            uop_completed[uop] = True
                            bit = 1 << rec_cluster[slot]
                            for d in dest_ranges[uop]:
                                def_mask[d] |= bit
                            if slot == redirect_slot:
                                # Mispredicted branch resolved: front end
                                # restarts after the redirect penalty.
                                redirect_slot = -1
                                blocked_until = cycle + redirect_penalty
                        waiters = rec_waiters[slot]
                        if waiters is not None:
                            for waiter in waiters:
                                pending = rec_pending[waiter] - 1
                                rec_pending[waiter] = pending
                                if pending == 0:
                                    qslot = rec_qslot[waiter]
                                    heappush(
                                        ready_loads[qslot]
                                        if rec_isload[waiter]
                                        else ready[qslot],
                                        waiter,
                                    )
                                    total_ready += 1
                            rec_waiters[slot] = None

                # ------------------------------------------------------- issue --
                if total_ready:
                    loads_issued = 0
                    for qslot, main, loads, width in issue_slots:
                        if not main and not loads:
                            continue
                        issued = 0
                        while issued < width:
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
                            uop = rec_uop[slot]
                            if uop < 0:
                                # One execute cycle in the producing
                                # cluster, then the link.
                                when = schedule_transfer(
                                    rec_cluster[slot], rec_copytarget[slot], cycle + 1
                                )
                            elif not is_memory[uop]:
                                when = cycle + exec_latency[uop]
                            else:
                                # MemoryHierarchy.load_latency/store_access
                                # inlined: SetAssociativeCache.access's LRU
                                # update on the live set lists, L1 first.
                                # Loads go to L2 only on an L1 miss; stores
                                # write-allocate in both levels.
                                line = address[uop] // l1_line
                                set_index = line % l1_num_sets
                                tag = line // l1_num_sets
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
                                lat = latency[uop]
                                if was_load and hit:
                                    lat += l1_latency
                                else:
                                    line = address[uop] // l2_line
                                    set_index = line % l2_num_sets
                                    tag = line // l2_num_sets
                                    ways = l2_sets_get(set_index)
                                    l2_accesses += 1
                                    hit = False
                                    if ways is None:
                                        l2_sets[set_index] = [tag]
                                    elif tag in ways:
                                        if ways[0] != tag:
                                            ways.remove(tag)
                                            ways.insert(0, tag)
                                        l2_hits += 1
                                        hit = True
                                    else:
                                        ways.insert(0, tag)
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
                                heappush(event_heap, when)
                            else:
                                bucket.append(slot)
                            issued += 1
                        # Nothing in this stage reads the queue occupancy
                        # or the ready count, so they are settled per queue.
                        occ[qslot] -= issued
                        total_ready -= issued

                # ---------------------------------------------------- dispatch --
                if dispatch_pos < fetch_pos:
                    dispatch_end = dispatch_pos + dispatch_width
                    if dispatch_end > fetch_pos:
                        dispatch_end = fetch_pos
                    # The front-end redirect state only changes in writeback
                    # (resolution) and right here (a mispredicted branch
                    # dispatching), so it is a flag, not a per-µop re-check.
                    blocked = redirect_slot >= 0 or cycle < blocked_until
                    while dispatch_pos < dispatch_end:
                        index = dispatch_pos
                        if ready_at[index] > cycle:
                            break
                        if blocked:
                            m_mispredict_stalls += 1
                            break
                        # The meta unpack has no side effects, so hoisting it
                        # above the steering decision (the occupancy form
                        # needs the queue kind) cannot perturb any metric.
                        (
                            kind,
                            uop_is_memory,
                            uop_is_load,
                            uop_is_branch,
                            uop_mispredicted,
                            di,
                            df,
                            dep_row,
                            dest_lo,
                            dest_hi,
                        ) = meta[index]
                        # ---- steering decision (fused forms or callback) -------
                        # Every fused form replicates its policy's
                        # ``pick_cluster`` verbatim over the same observables
                        # (the kernel's own context arrays), at the same point
                        # in the loop -- the lowered parity suite pins
                        # bit-identity against the callback path.
                        if form == _FORM_CALLBACK:
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
                        elif form == _FORM_OCC:
                            for c in range(num_clusters):
                                counts_buf[c] = 0
                            for reg in srcs_rows[index]:
                                d = cur_def[reg]
                                mask = (
                                    all_mask
                                    if d < 0
                                    else def_mask[d] | (1 << def_home[d])
                                )
                                for c in range(num_clusters):
                                    if mask >> c & 1:
                                        counts_buf[c] += 1
                            best_count = -1
                            preferred = 0
                            preferred_occ = 0
                            for c in range(num_clusters):
                                count = counts_buf[c]
                                if count > best_count:
                                    best_count = count
                                    preferred = c
                                    preferred_occ = inflight[c]
                                elif count == best_count:
                                    occupancy = inflight[c]
                                    if occupancy < preferred_occ:
                                        preferred = c
                                        preferred_occ = occupancy
                            if qcap[kind] - occ[preferred * 3 + kind] > 0:
                                cluster = preferred
                            else:
                                threshold = preferred_occ * idle_fraction
                                diverted = -1
                                diverted_occ = 0
                                for c in range(num_clusters):
                                    if (
                                        c == preferred
                                        or qcap[kind] - occ[c * 3 + kind] <= 0
                                    ):
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
                        elif form == _FORM_MAP:
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
                        elif form == _FORM_CONSTANT:
                            cluster = const_cluster
                        else:  # _FORM_TABLE
                            cluster = table[index]
                        # ---- resource checks (the interpreter's _try_dispatch) --
                        if dispatch_pos - commit_idx >= rob_size:
                            m_rob += 1
                            break
                        if uop_is_memory and lsq_count >= lsq_size:
                            m_lsq += 1
                            break
                        qslot = cluster * 3 + kind
                        if qcap[kind] - occ[qslot] <= 0:
                            alloc_stalls[cluster] += 1
                            break
                        if (di or df) and (
                            free_int[cluster] < di or free_fp[cluster] < df
                        ):
                            alloc_stalls[cluster] += 1
                            break
                        # ---- operand planning over definition ids --------------
                        wait_on = None
                        new_copies = None
                        for d in dep_row:
                            if def_mask[d] >> cluster & 1:
                                continue
                            pslot = uop_slot[def_uop[d]]
                            if not rec_completed[pslot] and rec_cluster[pslot] == cluster:
                                if wait_on is None:
                                    wait_on = [pslot]
                                else:
                                    wait_on.append(pslot)
                                continue
                            cslot = copy_map_get(d * num_clusters + cluster)
                            if cslot is not None and not rec_completed[cslot]:
                                if wait_on is None:
                                    wait_on = [cslot]
                                else:
                                    wait_on.append(cslot)
                                continue
                            source = def_home[d]
                            if source == cluster:
                                # The value appears here without a copy; wait
                                # on the producer if it is still in flight.
                                if not rec_completed[pslot]:
                                    if wait_on is None:
                                        wait_on = [pslot]
                                    else:
                                        wait_on.append(pslot)
                                continue
                            if new_copies is None:
                                new_copies = [(d, source)]
                            else:
                                new_copies.append((d, source))
                        if new_copies is not None:
                            # Every needed copy queue must have room, counting
                            # multiple copies from the same source cluster.
                            if len(new_copies) == 1:
                                source = new_copies[0][1]
                                if cap_copy - occ[source * 3 + 2] < 1:
                                    alloc_stalls[source] += 1
                                    break
                            else:
                                demand: Dict[int, int] = {}
                                for d, source in new_copies:
                                    demand[source] = demand.get(source, 0) + 1
                                blocked_source = -1
                                for source, need in demand.items():
                                    if cap_copy - occ[source * 3 + 2] < need:
                                        blocked_source = source
                                        break
                                if blocked_source >= 0:
                                    alloc_stalls[blocked_source] += 1
                                    break
                        # ---- every resource available: perform the dispatch ----
                        # One dispatch consumes a slot for the µop plus one per
                        # copy µop (a µop can need several copies, possibly
                        # from the same source cluster).  The record arrays
                        # always hold a free slot for every undispatched µop
                        # (cap - next_slot >= n - index), so only copies can
                        # need them to grow.
                        if (
                            new_copies is not None
                            and next_slot + len(new_copies) + n - index > cap
                        ):
                            grow = max(cap, len(new_copies))
                            rec_uop += [-1] * grow
                            rec_cluster += [0] * grow
                            rec_qslot += [0] * grow
                            rec_pending += [0] * grow
                            rec_completed += [False] * grow
                            rec_isload += [False] * grow
                            rec_copydef += [0] * grow
                            rec_copytarget += [0] * grow
                            rec_waiters += [None] * grow
                            cap += grow
                        slot = next_slot
                        next_slot = slot + 1
                        rec_uop[slot] = index
                        rec_cluster[slot] = cluster
                        rec_qslot[slot] = qslot
                        rec_isload[slot] = uop_is_load
                        uop_slot[index] = slot
                        uop_cluster[index] = cluster
                        if new_copies is not None:
                            for d, source in new_copies:
                                cslot = next_slot
                                next_slot = cslot + 1
                                rec_cluster[cslot] = source
                                rec_qslot[cslot] = source * 3 + 2
                                rec_copydef[cslot] = d
                                rec_copytarget[cslot] = cluster
                                pslot = uop_slot[def_uop[d]]
                                if rec_completed[pslot]:
                                    rec_pending[cslot] = 0
                                    heappush(ready[source * 3 + 2], cslot)
                                    total_ready += 1
                                else:
                                    rec_pending[cslot] = 1
                                    waiters = rec_waiters[pslot]
                                    if waiters is None:
                                        rec_waiters[pslot] = [cslot]
                                    else:
                                        waiters.append(cslot)
                                occ[source * 3 + 2] += 1
                                inflight[source] += 1
                                copies_in_flight += 1
                                m_copies += 1
                                cluster_copies[source] += 1
                                copy_map[d * num_clusters + cluster] = cslot
                                if wait_on is None:
                                    wait_on = [cslot]
                                else:
                                    wait_on.append(cslot)
                        if wait_on is None:
                            heappush(
                                ready_loads[qslot] if uop_is_load else ready[qslot],
                                slot,
                            )
                            total_ready += 1
                        else:
                            rec_pending[slot] = len(wait_on)
                            for dep_slot in wait_on:
                                waiters = rec_waiters[dep_slot]
                                if waiters is None:
                                    rec_waiters[dep_slot] = [slot]
                                else:
                                    waiters.append(slot)
                        occ[qslot] += 1
                        if di or df:
                            free_int[cluster] -= di
                            free_fp[cluster] -= df
                        if uop_is_memory:
                            lsq_count += 1
                        inflight[cluster] += 1
                        for d in dest_ranges[index]:
                            cur_def[def_reg[d]] = d
                            def_home[d] = cluster
                        if uop_is_branch:
                            m_branches += 1
                            if uop_mispredicted and model_mispredict:
                                m_mispredictions += 1
                                redirect_slot = slot
                                blocked = True
                        dispatch_pos += 1

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
                if commit_idx < dispatch_pos and uop_completed[commit_idx]:
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
                if event_heap:
                    next_event = event_heap[0]
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
            metrics.committed_uops += commit_idx  # commit is in trace order
            metrics.dispatched_uops += dispatch_pos  # dispatch is in trace order
            dispatched_to = uop_cluster[:dispatch_pos]
            for cluster in range(num_clusters):
                cluster_dispatch[cluster] += dispatched_to.count(cluster)
            metrics.copies_generated += m_copies
            metrics.steering_stalls += m_steer
            metrics.rob_stalls += m_rob
            metrics.lsq_stalls += m_lsq
            metrics.mispredict_stalls += m_mispredict_stalls
            metrics.branches += m_branches
            metrics.mispredictions += m_mispredictions
            l1.stats.accesses += l1_accesses
            l1.stats.hits += l1_hits
            l2.stats.accesses += l2_accesses
            l2.stats.hits += l2_hits
