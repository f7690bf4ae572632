"""Steering policy interface and hardware-structure declarations.

The dispatch stage of the simulator consults a :class:`SteeringPolicy` for
every µop it dispatches.  The policy sees the µop (including its compiler
annotations, i.e. the ISA extension) and a :class:`SteeringContext` exposing
exactly the information a real steering unit could observe:

* the current per-cluster workload (in-flight µop counters),
* the free entries of each per-cluster issue queue, and
* the register-location information maintained by the rename table
  (which clusters hold, or will produce, each architectural register).

Policies must not reach into any other simulator state -- that discipline is
what makes the Table 1 complexity comparison meaningful: a policy that never
calls :meth:`SteeringContext.register_location_mask` genuinely does not need
the dependence-check table.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from repro.uops.opcodes import IssueQueueKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uops.compiled import CompiledUopView

#: Sentinel returned by a policy that decides to stall the front end this cycle.
STALL: Optional[int] = None

#: Decision forms a :class:`CompiledSteeringSpec` may declare.  Every form is
#: a pure function of observables the :class:`SteeringContext` already scopes
#: (per-cluster occupancy, queue free counts, register-location masks) plus
#: the µop's own dispatch metadata -- nothing a real steering unit could not
#: observe, and nothing outside the context discipline documented above.
SPEC_FORMS = (
    # pick_cluster == target_cluster (one-cluster).
    "constant",
    # pick_cluster == (static_cluster[i] if annotated else default) % N
    # (software-only OB/RHOP steering).
    "static-table",
    # The paper's OP baseline: argmax located sources with occupancy
    # tie-breaks, then queue-full stalling with idle diversion.  May STALL.
    "occupancy-stall",
    # The paper's VC scheme: a flat virtual-to-physical mapping table,
    # remapped to the least loaded cluster at chain leaders.
    "mapping-table",
)


@dataclass(frozen=True)
class CompiledSteeringSpec:
    """Declarative lowering of a steering policy's decision function.

    A policy that can express :meth:`SteeringPolicy.pick_cluster` as one of
    the closed :data:`SPEC_FORMS` returns a spec from
    :meth:`SteeringPolicy.compiled_spec`; the vectorized kernel then runs the
    decision *inside* the array tier -- no per-µop Python frames.  The spec
    must reproduce ``pick_cluster`` bit-for-bit: the parity suites run
    every lowered policy through both tiers and compare metrics
    field-for-field.

    Specs are snapshots: the kernel requests a fresh one per run, after the
    policy's ``reset``, so stateful forms embed their post-reset state
    (``mapping``) and receive the final state back through
    :meth:`SteeringPolicy.sync_compiled_state` when the run completes.
    """

    #: One of :data:`SPEC_FORMS`.
    form: str
    #: ``constant``: the fixed target cluster.
    target_cluster: int = 0
    #: ``static-table``: cluster for µops without a static binding.
    default_cluster: int = 0
    #: ``occupancy-stall``: idle-diversion threshold fraction.
    idle_fraction: float = 0.5
    #: ``mapping-table``: number of virtual clusters (mapping-table entries).
    num_virtual_clusters: int = 1
    #: ``mapping-table``: send unannotated µops to the least loaded cluster
    #: (``True``) or to cluster 0 (``False``).
    fallback_balance: bool = True
    #: ``mapping-table``: initial virtual-to-physical mapping, index = vc.
    mapping: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.form not in SPEC_FORMS:
            raise ValueError(
                f"unknown compiled-steering form {self.form!r}; "
                f"expected one of {SPEC_FORMS}"
            )


@dataclass(frozen=True)
class SteeringHardware:
    """Hardware structures a steering scheme needs (the rows of Table 1)."""

    dependence_check: bool = False
    workload_counters: bool = False
    vote_unit: bool = False
    copy_generator: bool = False
    mapping_table_entries: int = 0


class SteeringContext(abc.ABC):
    """What the steering unit can observe about the machine at dispatch time."""

    @property
    @abc.abstractmethod
    def num_clusters(self) -> int:
        """Number of physical clusters."""

    @abc.abstractmethod
    def cluster_occupancy(self, cluster: int) -> int:
        """Number of in-flight µops currently assigned to ``cluster``."""

    @abc.abstractmethod
    def queue_free(self, cluster: int, kind: IssueQueueKind) -> int:
        """Free entries in the ``kind`` issue queue of ``cluster``."""

    @abc.abstractmethod
    def register_location_mask(self, reg: int) -> int:
        """Bitmask of clusters holding (or about to produce) register ``reg``.

        Bit ``c`` is set when the current value of the architectural register
        is available in cluster ``c`` or will be produced there by an
        in-flight µop.  A zero mask means the location is unknown (treated as
        "anywhere" by the policies).
        """

    # -- convenience helpers shared by several policies --------------------------
    def least_loaded_cluster(self) -> int:
        """Cluster with the fewest in-flight µops (lowest index wins ties)."""
        occupancy_of = self.cluster_occupancy
        best = 0
        best_occupancy = occupancy_of(0)
        for cluster in range(1, self.num_clusters):
            occupancy = occupancy_of(cluster)
            if occupancy < best_occupancy:
                best = cluster
                best_occupancy = occupancy
        return best


class SteeringPolicy(abc.ABC):
    """Base class of run-time steering policies."""

    #: Short name used in reports and experiment configs.
    name = "base"

    def reset(self, num_clusters: int) -> None:
        """Prepare internal state for a new simulation with ``num_clusters`` clusters."""
        self._num_clusters = int(num_clusters)

    @abc.abstractmethod
    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Return the destination cluster of ``uop``, or :data:`STALL`.

        Returning :data:`STALL` keeps the µop (and everything younger) in the
        dispatch buffer for this cycle; the simulator accounts it as a
        steering stall.
        """

    def hardware(self) -> SteeringHardware:
        """Hardware structures needed by the policy (Table 1 row)."""
        return SteeringHardware()

    # -- optional declarative lowering (the compiled steering tier) ---------------
    def compiled_spec(self) -> Optional[CompiledSteeringSpec]:
        """Declarative lowering of :meth:`pick_cluster`, or ``None``.

        Policies whose decision is a pure function of the context observables
        (one of :data:`SPEC_FORMS`) may return a :class:`CompiledSteeringSpec`
        so the vectorized kernels run the decision inside the array tier.
        The spec must be bit-identical to ``pick_cluster`` -- the lowered
        parity suite compares both paths field-for-field on every metric.
        Returning ``None`` (the default) keeps the policy on the per-µop
        callback path, which observes every acting cycle in dispatch order.

        Called once per run, *after* :meth:`reset`, so stateful forms embed
        their post-reset state in the spec (and adopt the final state back
        via :meth:`sync_compiled_state`).
        """
        return None

    def sync_compiled_state(self, state: Mapping[str, object]) -> None:
        """Adopt the final run state of a fused (lowered) execution.

        Called exactly once at the end of a run that executed this policy's
        :meth:`compiled_spec` instead of ``pick_cluster``.  ``state`` carries
        the form's run-time state (``mapping-table``: ``{"mapping": tuple,
        "remap_count": int}``; stateless forms: ``{}``), so post-run
        introspection -- e.g. the ``vc_remaps`` metric -- matches the
        callback path exactly.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
