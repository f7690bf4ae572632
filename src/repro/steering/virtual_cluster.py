"""``VC``: the paper's hybrid virtual-cluster steering (Figure 4).

The hardware half of the hybrid scheme is deliberately tiny:

* a **mapping table** with one entry per virtual cluster, holding the
  physical cluster each virtual cluster is currently mapped to, and
* the **workload balance counters** (one per physical cluster minus one in
  the paper's implementation; we model them as per-cluster in-flight
  counters, which carry the same information).

At decode, a µop carrying the chain-leader mark triggers a table update: its
virtual cluster is re-mapped to the least loaded physical cluster.  Every
other µop simply reads the table and follows the mapping of its virtual
cluster.  Copy generation happens afterwards exactly as in the traditional
design (the copy generator is the only other piece of hardware kept).

There is no dependence-check table and no vote unit, and -- crucially -- no
serialisation: the mapping lookup of µop *i* does not depend on the steering
decision of µop *i-1* in the same dispatch group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.scenarios.registry import register_policy
from repro.steering.base import (
    CompiledSteeringSpec,
    SteeringContext,
    SteeringHardware,
    SteeringPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uops.compiled import CompiledUopView


class VirtualClusterSteering(SteeringPolicy):
    """Map virtual clusters to physical clusters at run time.

    Parameters
    ----------
    num_virtual_clusters:
        Number of virtual clusters the ISA exposes (the size of the mapping
        table).  Must match (or exceed) the value used by the compile-time
        :class:`~repro.partition.vc_partitioner.VirtualClusterPartitioner`.
    fallback_balance:
        Where to send µops with no virtual-cluster annotation: ``True`` sends
        them to the least loaded cluster, ``False`` to cluster 0.
    """

    name = "VC"

    def __init__(self, num_virtual_clusters: int = 2, fallback_balance: bool = True) -> None:
        if num_virtual_clusters < 1:
            raise ValueError("num_virtual_clusters must be positive")
        self.num_virtual_clusters = int(num_virtual_clusters)
        self.fallback_balance = bool(fallback_balance)
        self._mapping: Dict[int, int] = {}
        #: Number of mapping-table updates performed (chain remaps); exposed
        #: for the analysis in Section 5.4.
        self.remap_count = 0

    def reset(self, num_clusters: int) -> None:
        super().reset(num_clusters)
        # Initial mapping: virtual cluster v -> physical cluster v mod N,
        # which is what a trivial power-on state would give.
        self._mapping = {
            vc: vc % num_clusters for vc in range(self.num_virtual_clusters)
        }
        self.remap_count = 0

    @property
    def mapping(self) -> Dict[int, int]:
        """Current virtual-to-physical mapping (copy; for inspection and tests)."""
        return dict(self._mapping)

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Figure 4: remap at chain leaders, follow the table otherwise."""
        vc = uop.vc_id
        if vc is None:
            # Un-annotated µop (e.g. code outside the compiler's view).
            if self.fallback_balance:
                return context.least_loaded_cluster()
            return 0
        vc = int(vc) % self.num_virtual_clusters
        if uop.chain_leader:
            target = context.least_loaded_cluster()
            if self._mapping.get(vc) != target:
                self.remap_count += 1
            self._mapping[vc] = target
            return target
        return self._mapping.get(vc, vc % context.num_clusters)

    def compiled_spec(self) -> Optional[CompiledSteeringSpec]:
        """Lower to the ``mapping-table`` form.

        The mapping table is exactly a flat int array indexed by virtual
        cluster (``reset`` populates every entry and ``pick_cluster``
        normalises ids into range before lookup), so the whole policy state
        ships as a tuple snapshot; the final mapping and the remap count come
        back through :meth:`sync_compiled_state`.
        """
        return CompiledSteeringSpec(
            form="mapping-table",
            num_virtual_clusters=self.num_virtual_clusters,
            fallback_balance=self.fallback_balance,
            mapping=tuple(
                self._mapping[vc] for vc in range(self.num_virtual_clusters)
            ),
        )

    def sync_compiled_state(self, state: Mapping[str, object]) -> None:
        """Adopt the fused run's final mapping table and remap count."""
        self._mapping = dict(enumerate(state["mapping"]))
        self.remap_count = int(state["remap_count"])

    def hardware(self) -> SteeringHardware:
        """Workload counters, the tiny mapping table, and the copy generator."""
        return SteeringHardware(
            dependence_check=False,
            workload_counters=True,
            vote_unit=False,
            copy_generator=True,
            mapping_table_entries=self.num_virtual_clusters,
        )


@register_policy("VC")
def _build_vc(num_clusters: int, num_virtual_clusters: int, **params) -> VirtualClusterSteering:
    """Registry builder for ``VC``: the mapping-table size follows the machine
    geometry unless the configuration pins it via ``num_virtual_clusters``."""
    params.setdefault("num_virtual_clusters", num_virtual_clusters)
    return VirtualClusterSteering(**params)
