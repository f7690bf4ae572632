"""Per-cluster physical register files.

Each cluster owns a 256-entry integer and a 256-entry floating-point register
file (Table 2).  A µop with a destination register claims a physical register
in its cluster at dispatch and returns it at commit; dispatch stalls when the
target cluster has no free physical register of the required kind.  This is
one of the resources that make the ``one-cluster`` configuration slow: with
every µop in the same cluster, a single register file has to hold the entire
in-flight window.
"""

from __future__ import annotations

from typing import List

from repro.cluster.config import ClusterConfig


class RegisterFiles:
    """Free-register accounting for every cluster, by register kind.

    Both kernels move plain ``(int, fp)`` destination counts: every
    destination register is classified once, at trace compilation (see
    :meth:`~repro.uops.compiled.CompiledTrace.dest_kind_counts`).

    Parameters
    ----------
    config:
        Machine configuration (register file sizes and cluster count).
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._free_int: List[int] = [config.regfile_int_size] * config.num_clusters
        self._free_fp: List[int] = [config.regfile_fp_size] * config.num_clusters

    # -- flat-state views (the vectorized kernel's borrow surface) -----------------
    def free_int_list(self) -> List[int]:
        """The *live* per-cluster free-INT-register list (mutated in place)."""
        return self._free_int

    def free_fp_list(self) -> List[int]:
        """The *live* per-cluster free-FP-register list (mutated in place)."""
        return self._free_fp

    def can_allocate_counts(self, cluster: int, need_int: int, need_fp: int) -> bool:
        """True when ``need_int`` INT and ``need_fp`` FP registers are free."""
        return self._free_int[cluster] >= need_int and self._free_fp[cluster] >= need_fp

    def allocate_counts(self, cluster: int, need_int: int, need_fp: int) -> None:
        """Claim registers by kind count (caller checked :meth:`can_allocate_counts`)."""
        if self._free_int[cluster] < need_int or self._free_fp[cluster] < need_fp:
            raise RuntimeError("physical register file underflow")
        self._free_int[cluster] -= need_int
        self._free_fp[cluster] -= need_fp

    def release_counts(self, cluster: int, need_int: int, need_fp: int) -> None:
        """Return registers by kind count (at commit)."""
        free_int = self._free_int[cluster] + need_int
        free_fp = self._free_fp[cluster] + need_fp
        if free_int > self.config.regfile_int_size or free_fp > self.config.regfile_fp_size:
            raise RuntimeError("physical register file overflow on release")
        self._free_int[cluster] = free_int
        self._free_fp[cluster] = free_fp
