"""Per-simulation statistics.

:class:`SimulationMetrics` gathers everything the paper's evaluation needs:

* **cycles / IPC** for the slowdown comparisons of Figures 5 and 7,
* **copy µops generated** for the copy-reduction scatter plots of Figure 6,
* **per-cluster issue-queue allocation stalls**, the paper's workload-balance
  metric ("workload balance improvement is computed as the total reduction of
  the allocation stalls in the issue queues", Section 5.3),
* per-cluster dispatch counts, steering stalls, cache behaviour and branch
  statistics for the ablation studies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List


def _check_count(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is a non-negative int (a bool is not)."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
        raise ValueError(
            f"SimulationMetrics field {name!r} must be a non-negative int, got {value!r}"
        )


@dataclass
class SimulationMetrics:
    """Counters produced by one run of :class:`~repro.cluster.processor.ClusteredProcessor`."""

    num_clusters: int
    cycles: int = 0
    committed_uops: int = 0
    dispatched_uops: int = 0
    copies_generated: int = 0
    steering_stalls: int = 0
    rob_stalls: int = 0
    lsq_stalls: int = 0
    mispredict_stalls: int = 0
    branches: int = 0
    mispredictions: int = 0
    #: Dispatched µops per cluster (workload distribution).
    cluster_dispatch: List[int] = field(default_factory=list)
    #: Issue-queue allocation stall events per cluster (the balance metric).
    allocation_stalls: List[int] = field(default_factory=list)
    #: Copy µops inserted per producing cluster.
    cluster_copies: List[int] = field(default_factory=list)
    #: Cache summary (filled in at the end of the run).
    cache: Dict[str, float] = field(default_factory=dict)
    #: Number of virtual-to-physical remaps performed (VC policy only).
    vc_remaps: int = 0

    def __post_init__(self) -> None:
        if not self.cluster_dispatch:
            self.cluster_dispatch = [0] * self.num_clusters
        if not self.allocation_stalls:
            self.allocation_stalls = [0] * self.num_clusters
        if not self.cluster_copies:
            self.cluster_copies = [0] * self.num_clusters

    # -- derived quantities --------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed µops per cycle (copies excluded, as they are overhead)."""
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def total_allocation_stalls(self) -> int:
        """Total issue-queue allocation stalls across clusters."""
        return sum(self.allocation_stalls)

    @property
    def balance_stalls(self) -> int:
        """Dispatch stalls attributable to back-end (per-cluster) resource pressure.

        This is the paper's workload-balance metric: allocation stalls in the
        issue queues.  Steering stalls are included because the
        occupancy-aware hardware policy *chooses* to stall instead of
        allocating into a full queue -- those cycles are allocation stalls in
        all but name, and excluding them would make OP look perfectly
        balanced by construction.
        """
        return self.total_allocation_stalls + self.steering_stalls

    # -- invariants ----------------------------------------------------------------
    def check_invariants(self, trace, config) -> None:
        """Check the conservation laws of a finished run; raise on any breach.

        ``trace`` is the simulated :class:`~repro.uops.compiled.CompiledTrace`
        and ``config`` the machine's
        :class:`~repro.cluster.config.ClusterConfig`.  The laws:

        * every µop commits: ``committed_uops == len(trace)``;
        * ``sum(cluster_dispatch) == dispatched_uops`` and
          ``sum(cluster_copies) == copies_generated``;
        * ``mispredictions <= branches``;
        * ``cycles >= committed_uops / commit_width``;
        * the cache model sees each memory µop once at L1
          (``l1_accesses`` == memory µops), and L2 every store plus the L1
          load misses (stores ``<= l2_accesses <= l1_accesses``).

        Raises ``ValueError`` naming every broken law.
        """
        memory_uops = int(trace.is_memory.sum())
        stores = int(trace.is_store.sum())
        l1_accesses = self.cache.get("l1_accesses")
        l2_accesses = self.cache.get("l2_accesses")
        broken = []
        if self.committed_uops != len(trace):
            broken.append(f"committed_uops {self.committed_uops} != trace length {len(trace)}")
        if sum(self.cluster_dispatch) != self.dispatched_uops:
            broken.append(
                f"sum(cluster_dispatch) {sum(self.cluster_dispatch)} != "
                f"dispatched_uops {self.dispatched_uops}"
            )
        if sum(self.cluster_copies) != self.copies_generated:
            broken.append(
                f"sum(cluster_copies) {sum(self.cluster_copies)} != "
                f"copies_generated {self.copies_generated}"
            )
        if self.mispredictions > self.branches:
            broken.append(f"mispredictions {self.mispredictions} > branches {self.branches}")
        if self.cycles * config.commit_width < self.committed_uops:
            broken.append(
                f"cycles {self.cycles} < committed_uops {self.committed_uops} / "
                f"commit width {config.commit_width}"
            )
        if l1_accesses != memory_uops:
            broken.append(f"l1_accesses {l1_accesses} != memory µops {memory_uops}")
        if l2_accesses is None or not stores <= l2_accesses <= (l1_accesses or 0):
            broken.append(
                f"l2_accesses {l2_accesses} outside [stores {stores}, "
                f"l1_accesses {l1_accesses}]"
            )
        if broken:
            raise ValueError("simulation metrics break conservation laws: " + "; ".join(broken))

    # -- serialisation -------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless, JSON-compatible dump of every counter.

        It preserves the exact field values -- integer counters stay
        integers -- so ``from_dict(to_dict(m)) == m`` holds bit-for-bit even
        after a JSON round trip.  The experiment engine relies on this
        for cross-process result transport and on-disk caching.
        """
        # asdict() covers every dataclass field (deep-copying the lists and
        # the cache dict), so new counters can never be forgotten here.
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationMetrics":
        """Rebuild a :class:`SimulationMetrics` from a :meth:`to_dict` dump.

        Unknown *and* missing keys are rejected so that stale cache entries
        written by an incompatible schema fail loudly instead of
        deserialising garbage (missing counters would otherwise silently
        become zeros).  So is a dump no run can produce: a counter that is
        not a non-negative int, fewer than one cluster, a per-cluster list
        whose length is not ``num_clusters``, or a non-numeric ``cache``
        value.  Each raises ``ValueError`` naming the field.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimulationMetrics fields: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ValueError(f"missing SimulationMetrics fields: {sorted(missing)}")
        kwargs = dict(data)
        for f in fields(cls):
            if f.type == "int":
                _check_count(f.name, kwargs[f.name])
        num_clusters = kwargs["num_clusters"]
        if num_clusters < 1:
            raise ValueError(
                f"SimulationMetrics field 'num_clusters' must be at least 1, got {num_clusters}"
            )
        for list_field in ("cluster_dispatch", "allocation_stalls", "cluster_copies"):
            value = kwargs[list_field]
            if not isinstance(value, (list, tuple)) or len(value) != num_clusters:
                raise ValueError(
                    f"SimulationMetrics field {list_field!r} must list one count per "
                    f"cluster ({num_clusters}), got {value!r}"
                )
            for count in value:
                _check_count(list_field, count)
            kwargs[list_field] = list(value)
        cache = kwargs["cache"]
        if not isinstance(cache, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in cache.values()
        ):
            raise ValueError(f"SimulationMetrics field 'cache' must map to numbers, got {cache!r}")
        kwargs["cache"] = dict(cache)
        return cls(**kwargs)
