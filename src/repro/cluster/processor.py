"""The clustered out-of-order pipeline.

:class:`ClusteredProcessor` ties the front end, the clustered back end, the
memory hierarchy and a run-time steering policy together into a trace-driven,
cycle-stepped simulation.  One simulated cycle performs, in order:

1. **commit** -- retire completed µops in order from the ROB head,
2. **writeback** -- process completion/arrival events scheduled for this
   cycle, mark values ready and wake dependent µops,
3. **issue** -- per cluster and per issue queue, issue the oldest ready µops
   up to the queue's issue width (loads also compete for the shared L1 read
   ports),
4. **dispatch** -- steer, rename, generate copy µops and allocate resources
   for the µops whose fetch-to-dispatch delay has elapsed,
5. **fetch** -- pull µops from the trace into the dispatch buffer.

The model follows Section 2 of the paper: once a µop is steered to a cluster
it stays there; if an operand lives in another cluster an explicit copy µop
is inserted in the *producing* cluster's copy queue and must traverse the
point-to-point link before the consumer can issue.

Performance notes (see DESIGN.md): the simulator is cycle-stepped but all
per-µop work is event-driven -- ready lists and waiter lists mean the inner
loops only touch µops whose state changes, never the full contents of the
48-entry issue queues.  The kernel consumes a
:class:`~repro.uops.compiled.CompiledTrace` -- every per-µop fact (queue
kind, latency, memory flags, deduplicated sources, destination register
kinds) is precomputed into flat lists before the first cycle, so dispatch
indexes instead of chasing object properties -- and the cycle loop
*skips idle cycles*: when no µop is ready, no event is due and the front end
is blocked or drained, the clock jumps straight to the next scheduled
event/dispatch-ready cycle.  Both restructurings are bit-identical to the
naive cycle-by-cycle object-chasing simulation (the golden-metrics suite
pins this).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.cache import MemoryHierarchy
from repro.cluster.config import ClusterConfig
from repro.cluster.interconnect import Interconnect
from repro.cluster.issue_queue import IssueQueues
from repro.cluster.kernel import VectorizedKernel, resolve_kernel
from repro.cluster.lsq import LoadStoreQueue
from repro.cluster.metrics import SimulationMetrics
from repro.cluster.regfile import RegisterFiles
from repro.cluster.rename import RegisterLocationTable, Value
from repro.cluster.rob import ReorderBuffer
from repro.steering.base import SteeringContext, SteeringPolicy
from repro.uops.compiled import CompiledTrace, CompiledUopView
from repro.uops.opcodes import IssueQueueKind
from repro.uops.registers import NUM_REGISTERS

#: Issue-queue kinds in the order the issue stage services them.
_ISSUE_KINDS = (IssueQueueKind.INT, IssueQueueKind.FP, IssueQueueKind.COPY)


class _InFlight:
    """Book-keeping record of one in-flight µop or copy µop."""

    __slots__ = (
        "order",
        "index",
        "cluster",
        "queue_kind",
        "latency",
        "pending",
        "issued",
        "completed",
        "is_copy",
        "copy_value",
        "copy_target",
        "dest_values",
        "waiters",
        "is_memory",
        "is_load",
        "address",
        "dests",
        "dest_int",
        "dest_fp",
    )

    def __init__(self, order: int, cluster: int, queue_kind: IssueQueueKind) -> None:
        self.order = order
        self.index = -1
        self.cluster = cluster
        self.queue_kind = queue_kind
        self.latency = 1
        self.pending = 0
        self.issued = False
        self.completed = False
        self.is_copy = False
        self.copy_value: Optional[Value] = None
        self.copy_target = -1
        self.dest_values: List[Value] = []
        self.waiters: List["_InFlight"] = []
        self.is_memory = False
        self.is_load = False
        self.address = 0
        self.dests: Tuple[int, ...] = ()
        self.dest_int = 0
        self.dest_fp = 0

    def __lt__(self, other: "_InFlight") -> bool:  # pragma: no cover - heap tie-break
        return self.order < other.order


class ClusteredProcessor(SteeringContext):
    """Cycle-level model of the clustered machine driven by a steering policy.

    Parameters
    ----------
    config:
        Architectural parameters (Table 2 defaults).
    steering:
        The run-time steering policy (one of :mod:`repro.steering`).
    kernel:
        Simulation kernel: ``"interpreter"`` (the original object-graph
        reference implementation), ``"vectorized"`` (the flat-state two-tier
        kernel, bit-identical and several times faster) or ``None`` to
        follow ``$REPRO_KERNEL`` and the built-in default.  The choice
        affects throughput only -- never metrics -- so it is a processor
        knob, not a :class:`ClusterConfig` field (result caches key on the
        config and must not fragment by kernel).
    """

    def __init__(
        self, config: ClusterConfig, steering: SteeringPolicy, kernel: Optional[str] = None
    ) -> None:
        self.config = config
        self.steering = steering
        self.kernel = resolve_kernel(kernel)
        #: Test/debug knob: ``False`` steps every cycle instead of skipping
        #: provably idle stretches (the skip-vs-step parity suite pins that
        #: both settings produce bit-identical metrics on both kernels).
        self.idle_skip = True
        #: Test/debug knob: ``False`` keeps every policy on the per-µop
        #: callback path even when it exposes a ``compiled_spec`` (the
        #: lowered parity suite pins that the fused fast path is bit-identical
        #: to the callback path; benchmarks use it as the pre-fusion baseline).
        self.fused_steering = True
        self._bound: Optional[CompiledTrace] = None
        self._reset_state()
        self._vkernel = VectorizedKernel(self) if self.kernel == "vectorized" else None

    # ------------------------------------------------------------------ state --
    def _reset_state(self) -> None:
        config = self.config
        self.cycle = 0
        self.metrics = SimulationMetrics(num_clusters=config.num_clusters)
        self.memory = MemoryHierarchy.from_config(config)
        self.interconnect = Interconnect(
            config.num_clusters, config.link_latency, config.copies_per_link_per_cycle
        )
        self.issue_queues = IssueQueues(config)
        self.regfiles = RegisterFiles(config)
        self.steering.reset(config.num_clusters)
        self._cluster_inflight = [0] * config.num_clusters
        self._dispatch_buffer_cap = config.fetch_width * (config.fetch_to_dispatch_latency + 2)
        if self.kernel == "vectorized":
            return  # the vectorized kernel keeps its own window, rename and events
        self.rob = ReorderBuffer(config.rob_size)
        self.lsq = LoadStoreQueue(config.lsq_size)
        self.rename = RegisterLocationTable(NUM_REGISTERS, config.num_clusters)
        self._events: Dict[int, List[_InFlight]] = {}
        self._event_heap: List[int] = []
        self._dispatch_buffer: Deque[Tuple[int, int]] = deque()
        self._trace_exhausted = False
        self._fetch_pos = 0
        self._num_uops = 0
        self._order = 0
        self._pending_redirect: Optional[_InFlight] = None
        self._dispatch_blocked_until = 0
        self._uops_in_flight = 0

    def _bind_trace(self, compiled: CompiledTrace) -> None:
        """Hoist every per-µop fact the pipeline needs into flat Python lists.

        This is the whole point of the compiled representation: after this,
        the per-cycle loops never call a property, classify a register or
        convert an enum -- they index (see DESIGN.md).  The vectorized
        kernel hoists its own (array-derived) forms, so the interpreter's
        lists are only built for the interpreter.
        """
        self._num_uops = len(compiled)
        if self._vkernel is not None:
            self._vkernel.bind(compiled)
            return
        self._u_queue = compiled.queue_kinds()
        self._u_latency = compiled.latency_list()
        self._u_is_memory = compiled.is_memory_list()
        self._u_is_load = compiled.is_load_list()
        self._u_is_branch = compiled.is_branch_list()
        self._u_address = compiled.address_list()
        self._u_mispredicted = compiled.mispredicted_list()
        self._u_dests = compiled.dest_tuples()
        self._u_usrcs = compiled.unique_src_tuples()
        self._u_dest_counts = compiled.dest_kind_counts()

    # ------------------------------------------------ SteeringContext interface --
    @property
    def num_clusters(self) -> int:
        """Number of physical clusters of the machine."""
        return self.config.num_clusters

    def cluster_occupancy(self, cluster: int) -> int:
        """In-flight µops (including pending copies) assigned to ``cluster``."""
        return self._cluster_inflight[cluster]

    def queue_free(self, cluster: int, kind: IssueQueueKind) -> int:
        """Free entries of the ``kind`` issue queue of ``cluster``."""
        return self.issue_queues.free_entries(cluster, kind)

    def register_location_mask(self, reg: int) -> int:
        """Location bitmask of architectural register ``reg`` (rename table view)."""
        if self._vkernel is not None:
            return self._vkernel.register_location_mask(reg)
        return self.rename.location_mask(reg)

    # ----------------------------------------------------------------- running --
    def bind(self, trace: CompiledTrace) -> CompiledTrace:
        """Hoist ``trace``'s per-µop columns for repeated :meth:`run_bound` calls.

        Binding pays the hoist cost once; every subsequent
        :meth:`run_bound` simulates the bound trace from a clean architectural
        state.  Annotation columns are *not* snapshotted here -- each run
        re-reads them, so callers may install another pass's columns (via
        :meth:`~repro.uops.compiled.CompiledTrace.annotate_from`) between
        runs.  The bound trace is frozen (its stored columns become
        read-only): it may be shared with sibling batches through the
        memo/artifact/shm layers, so an in-place write raises at the
        offending line instead of corrupting a sibling's run (DESIGN.md
        §7.3).  Returns the bound :class:`CompiledTrace`; anything else
        raises ``TypeError``, and a copy queue that could deadlock the
        machine raises ``ValueError``.
        """
        if not isinstance(trace, CompiledTrace):
            raise TypeError(f"expected a CompiledTrace, got {type(trace).__name__}")
        # Dispatch copies every in-trace source a cluster lacks, all from one
        # other cluster at worst: fewer copy-queue entries stall it forever.
        demand = max(map(len, trace.dependency_plan().deps), default=0)
        if self.config.num_clusters > 1 and self.config.iq_copy_size < demand:
            raise ValueError(
                f"iq_copy_size={self.config.iq_copy_size} is smaller than the {demand} "
                "distinct in-trace sources of one µop, which may all need a copy "
                "from one cluster at once: the machine would deadlock"
            )
        trace.freeze()
        self._bind_trace(trace)
        self._bound = trace
        return trace

    def run(self, trace: CompiledTrace) -> SimulationMetrics:
        """Execute ``trace`` to completion and return the collected metrics.

        Raises
        ------
        RuntimeError
            If the simulation exceeds ``config.max_cycles`` (deadlock guard).
        """
        self.bind(trace)
        return self.run_bound()

    def run_bound(self, steering: Optional[SteeringPolicy] = None) -> SimulationMetrics:
        """Simulate the bound trace from a clean architectural state.

        The batch-execution path: after one :meth:`bind`, every configuration
        of a trace runs through here -- optionally swapping in its own
        ``steering`` policy -- without re-hoisting the trace columns.  All
        architectural state (ROB, queues, register files, rename map, memory
        hierarchy, interconnect, metrics, the policy's own state via
        ``reset``) is rebuilt per run, so a ``run_bound`` is bit-identical to
        a fresh processor's :meth:`run` of the same trace (the batch
        determinism suite pins this).  Only the steering-annotation columns
        are re-read each run: callers may install another pass's columns
        with ``annotate_from`` between runs.
        """
        compiled = self._bound
        if compiled is None:
            raise RuntimeError("no trace bound; call bind() (or run()) first")
        if steering is not None:
            self.steering = steering
        self._reset_state()
        self._num_uops = len(compiled)  # _reset_state clears the fetch window
        limit = self.config.max_cycles
        if self.config.warm_caches:
            self._load_warm_caches(compiled)
        if self._vkernel is not None:
            # The kernel builds the policy's µop view itself, and only when
            # the policy takes the per-µop callback path.
            self._vkernel.run(limit)
        else:
            # Fresh per run, not per bind: the view snapshots annotation
            # lists, which change between the runs of a batch.
            self._view = CompiledUopView(compiled)
            idle_skip = self.idle_skip
            while not self._finished():
                self._step()
                if self.cycle > limit:
                    raise RuntimeError(
                        f"simulation exceeded {limit} cycles "
                        f"({self.metrics.committed_uops} µops committed); possible deadlock"
                    )
                if idle_skip:
                    self._skip_idle_cycles(limit)
        self.metrics.cycles = self.cycle
        self.metrics.cache = self.memory.summary()
        self.metrics.vc_remaps = getattr(self.steering, "remap_count", 0)
        # Every run checks its conservation laws (two column sums per run).
        self.metrics.check_invariants(compiled, self.config)
        return self.metrics

    def _load_warm_caches(self, compiled: CompiledTrace) -> None:
        """Start the memory hierarchy warm, replaying the warm-up once per geometry.

        The warmed tag state depends only on the trace's access plan and the
        cache geometry (sets, ways, line size of both levels) -- never on
        latencies, the steering policy or the rest of the machine -- so it
        is memoised on the trace: the first run of a (trace, geometry) pair
        replays the plan through :meth:`_warm_caches`, every later run
        starts from a copy of the snapshot with zeroed statistics.
        """

        def replay():
            self._warm_caches(compiled)
            return self.memory.tag_state()

        state = compiled.memo(("warm caches", self.memory.geometry), replay)
        self.memory.load_tag_state(state)

    def _warm_caches(self, compiled: CompiledTrace) -> None:
        """Pre-touch the trace's memory footprint, then zero the cache statistics.

        This models the steady state deep inside a PinPoints region: capacity
        and conflict behaviour are preserved (the working set still may not
        fit), but one-time compulsory misses do not dominate the short trace.
        """
        addresses, loads = compiled.memory_access_plan()
        load_latency = self.memory.load_latency
        store_access = self.memory.store_access
        for address, is_load in zip(addresses, loads):
            if is_load:
                load_latency(address)
            else:
                store_access(address)
        self.memory.l1.reset_stats()
        self.memory.l2.reset_stats()

    def _finished(self) -> bool:
        return (
            self._trace_exhausted
            and not self._dispatch_buffer
            and self.rob.is_empty
            and self._uops_in_flight == 0
        )

    def _step(self) -> None:
        self._commit()
        self._writeback()
        self._issue()
        self._dispatch()
        self._fetch()
        self.cycle += 1

    # ------------------------------------------------------------ idle skipping --
    def _next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending writeback event, or ``None``.

        ``_writeback`` drops drained keys from the heap eagerly, so the heap
        top is always live -- the old lazy-deletion pop loop here paid
        O(log n) per stale key on every idle-skip probe (the heap-hygiene
        regression test pins the invariant).
        """
        heap = self._event_heap
        return heap[0] if heap else None

    def _skip_idle_cycles(self, limit: int) -> None:
        """Jump the clock over cycles in which provably nothing can happen.

        A cycle is skippable only when every stage is inert: no ready µop to
        issue, no completed ROB head to commit, no due event, the fetch
        stage drained or blocked on a full dispatch buffer, and the dispatch
        stage either idle (empty buffer / head still in the fetch pipeline)
        or stalled on a branch redirect.  Redirect-stall cycles increment
        ``mispredict_stalls`` exactly as stepped cycles would, so skipping is
        invisible in the metrics.  Cycles in which the dispatch stage would
        *act* (even just to consult the steering policy or bump a stall
        counter that depends on machine state) are never skipped -- policies
        may be stateful, so they must observe every such cycle.
        """
        if self.issue_queues.total_ready:
            return
        head = self.rob.head()
        if head is not None and head.completed:
            return
        if not self._trace_exhausted and len(self._dispatch_buffer) < self._dispatch_buffer_cap:
            return
        if self._finished():
            return
        cycle = self.cycle
        buffer = self._dispatch_buffer
        redirect = self._pending_redirect is not None
        blocked = redirect or cycle < self._dispatch_blocked_until
        head_ready = buffer[0][0] if buffer else 0
        if buffer and not blocked and head_ready <= cycle:
            return  # the dispatch stage acts this cycle
        candidates = []
        next_event = self._next_event_cycle()
        if next_event is not None:
            candidates.append(next_event)
        if buffer and not blocked:
            candidates.append(head_ready)
        elif blocked and not redirect:
            candidates.append(self._dispatch_blocked_until)
        # No candidate means deadlock; jump to the guard so the run loop
        # raises exactly as cycle-by-cycle stepping eventually would.
        goal = min(min(candidates) if candidates else limit + 1, limit + 1)
        if goal <= cycle:
            return
        if buffer and blocked:
            # The redirect block is checked before the steering policy, so a
            # stalled cycle with a dispatch-ready head counts one mispredict
            # stall and touches nothing else -- account the skipped ones.
            stalled = goal - max(cycle, head_ready)
            if stalled > 0:
                self.metrics.mispredict_stalls += stalled
        self.cycle = goal

    # ------------------------------------------------------------------ commit --
    def _commit(self) -> None:
        retired = self.rob.commit_completed(self.config.commit_width)
        for record in retired:
            self.metrics.committed_uops += 1
            self._cluster_inflight[record.cluster] -= 1
            self._uops_in_flight -= 1
            if record.dests:
                self.regfiles.release_counts(record.cluster, record.dest_int, record.dest_fp)
            if record.is_memory:
                self.lsq.release()

    # --------------------------------------------------------------- writeback --
    def _writeback(self) -> None:
        records = self._events.pop(self.cycle, None)
        if not records:
            return
        # Eager heap hygiene: this cycle's key (and any already-drained
        # stragglers) leave the heap with the bucket, so the idle skip's
        # next-event probe is a plain heap peek.  Skipping never jumps past
        # an event cycle, so every key at or below the current cycle is
        # necessarily drained.
        heap = self._event_heap
        while heap and heap[0] <= self.cycle:
            heapq.heappop(heap)
        push_ready = self.issue_queues.push_ready
        for record in records:
            record.completed = True
            if record.is_copy:
                # The copy arrived at its target cluster: the value is now
                # available there and the copy no longer loads its producer
                # cluster.
                record.copy_value.mark_ready(record.copy_target)
                self._cluster_inflight[record.cluster] -= 1
                self._uops_in_flight -= 1
            else:
                for value in record.dest_values:
                    value.mark_ready(record.cluster)
                if record is self._pending_redirect:
                    # Mispredicted branch resolved: the front end restarts
                    # after the redirect penalty.
                    self._pending_redirect = None
                    self._dispatch_blocked_until = (
                        self.cycle + self.config.mispredict_redirect_penalty
                    )
            for waiter in record.waiters:
                waiter.pending -= 1
                if waiter.pending == 0 and not waiter.issued:
                    push_ready(
                        waiter.cluster, waiter.queue_kind, waiter.order, waiter,
                        is_load=waiter.is_load,
                    )
            record.waiters = []

    # ------------------------------------------------------------------- issue --
    def _issue(self) -> None:
        config = self.config
        issue_queues = self.issue_queues
        if not issue_queues.total_ready:
            return
        loads_issued = 0
        read_ports = config.l1_read_ports
        for cluster in range(config.num_clusters):
            for kind in _ISSUE_KINDS:
                width = issue_queues.issue_width(kind)
                issued = 0
                while issued < width:
                    # Once the shared L1 read ports are saturated, ready
                    # loads stay on their heap untouched (see DESIGN.md) --
                    # the selection is identical to popping, deferring and
                    # requeueing them, without the O(ready-list) churn.
                    record = issue_queues.pop_ready(
                        cluster, kind, allow_loads=loads_issued < read_ports
                    )
                    if record is None:
                        break
                    self._issue_record(record)
                    issued += 1
                    if record.is_load:
                        loads_issued += 1

    def _issue_record(self, record: _InFlight) -> None:
        record.issued = True
        self.issue_queues.release(record.cluster, record.queue_kind)
        if record.is_copy:
            # One cycle of execution in the producing cluster, then the link.
            value_ready = self.cycle + 1
            arrival = self.interconnect.schedule_transfer(
                record.cluster, record.copy_target, value_ready
            )
            self._schedule(arrival, record)
            return
        if record.is_load:
            latency = record.latency + self.memory.load_latency(record.address)
        elif record.is_memory:
            latency = record.latency
            self.memory.store_access(record.address)
        else:
            latency = record.latency
        self._schedule(self.cycle + max(1, latency), record)

    def _schedule(self, when: int, record: _InFlight) -> None:
        bucket = self._events.get(when)
        if bucket is None:
            self._events[when] = [record]
            heapq.heappush(self._event_heap, when)
        else:
            bucket.append(record)

    # ---------------------------------------------------------------- dispatch --
    def _dispatch(self) -> None:
        config = self.config
        buffer = self._dispatch_buffer
        if not buffer:
            return
        view = self._view
        steering = self.steering
        dispatched = 0
        while dispatched < config.dispatch_width and buffer:
            ready_cycle, index = buffer[0]
            if ready_cycle > self.cycle:
                break
            if self._pending_redirect is not None or self.cycle < self._dispatch_blocked_until:
                self.metrics.mispredict_stalls += 1
                break
            view.index = index
            cluster = steering.pick_cluster(view, self)
            if cluster is None:
                self.metrics.steering_stalls += 1
                break
            if not 0 <= cluster < config.num_clusters:
                raise ValueError(
                    f"steering policy {steering.name} returned invalid cluster {cluster}"
                )
            if not self._try_dispatch(index, cluster):
                break
            buffer.popleft()
            dispatched += 1

    def _try_dispatch(self, index: int, cluster: int) -> bool:
        """Allocate every resource for µop ``index`` on ``cluster``; ``False`` stalls dispatch."""
        kind = self._u_queue[index]
        if self.rob.is_full:
            self.metrics.rob_stalls += 1
            return False
        is_memory = self._u_is_memory[index]
        if is_memory and self.lsq.is_full:
            self.metrics.lsq_stalls += 1
            return False
        issue_queues = self.issue_queues
        if issue_queues.free_entries(cluster, kind) <= 0:
            self.metrics.allocation_stalls[cluster] += 1
            return False
        dests = self._u_dests[index]
        dest_int, dest_fp = self._u_dest_counts[index]
        if dests and not self.regfiles.can_allocate_counts(cluster, dest_int, dest_fp):
            self.metrics.allocation_stalls[cluster] += 1
            return False

        # Plan operand availability and the copies that must be generated.
        # ``wait_on``/``new_copies`` hold one entry per *distinct* source
        # operand that is not yet ready in the target cluster: either an
        # existing record to wait on, or a new copy that must be created (and
        # for which the source cluster's copy queue needs a free entry).  The
        # sources were deduplicated at trace compilation.
        rename = self.rename
        wait_on: List[_InFlight] = []
        new_copies: List[Tuple[Value, int]] = []  # (value, source cluster)
        copy_queue_demand: Optional[Dict[int, int]] = None
        for reg in self._u_usrcs[index]:
            value = rename.current(reg)
            if value.is_ready_in(cluster):
                continue
            producer = value.producer
            if producer is not None and not producer.completed and producer.cluster == cluster:
                wait_on.append(producer)
                continue
            existing_copy = value.copies.get(cluster)
            if existing_copy is not None and not existing_copy.completed:
                wait_on.append(existing_copy)
                continue
            source_cluster = value.home_cluster
            if source_cluster == cluster:
                # The value will appear in this cluster without a copy (its
                # producer completed between renaming and now, or it is a
                # live-in homed here); wait on the producer if still pending.
                if producer is not None and not producer.completed:
                    wait_on.append(producer)
                continue
            new_copies.append((value, source_cluster))
            if copy_queue_demand is None:
                copy_queue_demand = {}
            copy_queue_demand[source_cluster] = copy_queue_demand.get(source_cluster, 0) + 1

        if copy_queue_demand is not None:
            for source_cluster, demand in copy_queue_demand.items():
                if issue_queues.free_entries(source_cluster, IssueQueueKind.COPY) < demand:
                    self.metrics.allocation_stalls[source_cluster] += 1
                    return False

        # Every resource is available: perform the dispatch.
        record = _InFlight(self._next_order(), cluster, kind)
        record.index = index
        record.latency = self._u_latency[index]
        record.is_memory = is_memory
        record.is_load = self._u_is_load[index]
        record.address = self._u_address[index]
        record.dests = dests
        record.dest_int = dest_int
        record.dest_fp = dest_fp

        for value, source_cluster in new_copies:
            copy = self._create_copy(value, source_cluster, cluster)
            wait_on.append(copy)

        record.pending = len(wait_on)
        for dependency in wait_on:
            dependency.waiters.append(record)

        issue_queues.allocate(cluster, kind)
        if dests:
            self.regfiles.allocate_counts(cluster, dest_int, dest_fp)
        if is_memory:
            self.lsq.allocate()
        self.rob.allocate(record)
        self._cluster_inflight[cluster] += 1
        self._uops_in_flight += 1
        self.metrics.dispatched_uops += 1
        self.metrics.cluster_dispatch[cluster] += 1

        for reg in dests:
            value = rename.define(reg, record, cluster)
            record.dest_values.append(value)

        if self._u_is_branch[index]:
            self.metrics.branches += 1
            if self._u_mispredicted[index] and self.config.model_branch_mispredictions:
                self.metrics.mispredictions += 1
                self._pending_redirect = record

        if record.pending == 0:
            issue_queues.push_ready(cluster, kind, record.order, record, is_load=record.is_load)
        return True

    def _create_copy(self, value: Value, source_cluster: int, target_cluster: int) -> _InFlight:
        """Insert a copy µop in ``source_cluster`` moving ``value`` to ``target_cluster``."""
        copy = _InFlight(self._next_order(), source_cluster, IssueQueueKind.COPY)
        copy.is_copy = True
        copy.copy_value = value
        copy.copy_target = target_cluster
        producer = value.producer
        if producer is not None and not producer.completed:
            copy.pending = 1
            producer.waiters.append(copy)
        self.issue_queues.allocate(source_cluster, IssueQueueKind.COPY)
        self._cluster_inflight[source_cluster] += 1
        self._uops_in_flight += 1
        self.metrics.copies_generated += 1
        self.metrics.cluster_copies[source_cluster] += 1
        value.copies[target_cluster] = copy
        if copy.pending == 0:
            self.issue_queues.push_ready(source_cluster, IssueQueueKind.COPY, copy.order, copy)
        return copy

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    # ------------------------------------------------------------------- fetch --
    def _fetch(self) -> None:
        if self._trace_exhausted:
            return
        config = self.config
        buffer = self._dispatch_buffer
        cap = self._dispatch_buffer_cap
        position = self._fetch_pos
        total = self._num_uops
        ready_cycle = self.cycle + config.fetch_to_dispatch_latency
        fetched = 0
        while fetched < config.fetch_width and len(buffer) < cap:
            if position >= total:
                self._trace_exhausted = True
                break
            buffer.append((ready_cycle, position))
            position += 1
            fetched += 1
        self._fetch_pos = position


def simulate_trace(
    trace: CompiledTrace,
    steering: SteeringPolicy,
    config: Optional[ClusterConfig] = None,
) -> SimulationMetrics:
    """Convenience wrapper: run ``trace`` on a machine with ``steering``.

    Parameters
    ----------
    trace:
        Dynamic µops in program order, as a
        :class:`~repro.uops.compiled.CompiledTrace`.
    steering:
        Run-time steering policy.
    config:
        Machine configuration (its ``max_cycles`` is the deadlock guard);
        Table 2's 2-cluster machine by default.

    The kernel follows ``$REPRO_KERNEL`` (see :class:`ClusteredProcessor`).
    """
    return ClusteredProcessor(config or ClusterConfig(), steering).run(trace)
