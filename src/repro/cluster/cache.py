"""Data-cache hierarchy: set-associative L1 and L2 plus main memory.

The paper's machine has a unified (shared by all clusters) L1 data cache and
a unified L2.  Loads pay 3 cycles on an L1 hit, 13 on an L2 hit and at least
500 on a memory access (Table 2).  The model here is a standard LRU
set-associative tag array -- timing only, no data -- which is all the
steering comparison needs: what matters is that some benchmarks (mcf, art,
swim...) suffer long-latency misses that create the dynamic load imbalance
the hybrid scheme exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: ``(num_sets, assoc, line_size)`` of one cache level.
Geometry = Tuple[int, int, int]

#: Immutable contents of one cache level: its geometry plus
#: ``(set index, tags in LRU order)`` pairs (see
#: :meth:`SetAssociativeCache.tag_state`).
TagState = Tuple[Geometry, Tuple[Tuple[int, Tuple[int, ...]], ...]]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        """Number of misses."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1] (1.0 when the cache was never accessed)."""
        return self.hits / self.accesses if self.accesses else 1.0


class SetAssociativeCache:
    """LRU set-associative cache (tags only).

    Parameters
    ----------
    size_kb:
        Total capacity in kibibytes.
    assoc:
        Associativity (ways per set).
    line_size:
        Cache line size in bytes.
    hit_latency:
        Access latency on a hit, in cycles.
    """

    def __init__(self, size_kb: int, assoc: int, line_size: int, hit_latency: int) -> None:
        if size_kb < 1 or assoc < 1 or line_size < 1:
            raise ValueError("cache geometry parameters must be positive")
        total_lines = (size_kb * 1024) // line_size
        if total_lines < assoc:
            raise ValueError("cache too small for the requested associativity")
        self.num_sets = max(1, total_lines // assoc)
        self.assoc = int(assoc)
        self.line_size = int(line_size)
        self.hit_latency = int(hit_latency)
        # Per set: list of tags in LRU order (index 0 = most recently used).
        # Sets materialise lazily on first touch -- an absent key is an empty
        # set -- so constructing a hierarchy (every simulation run builds a
        # fresh one) does not pay for the tens of thousands of sets of an L2
        # the trace may never reach.
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheStats()

    def _locate(self, address: int):
        line = address // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int) -> bool:
        """Access ``address``; return ``True`` on a hit.

        On a miss the line is allocated (LRU replacement).
        """
        set_index, tag = self._locate(address)
        self.stats.accesses += 1
        ways = self._sets.get(set_index)
        if ways is None:
            self._sets[set_index] = [tag]
            return False
        if tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            self.stats.hits += 1
            return True
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            ways.pop()
        return False

    def set_lists(self) -> Dict[int, List[int]]:
        """The live contents: set index -> tags in LRU order (MRU first).

        An absent index is an empty set.  The vectorized kernel runs
        :meth:`access`'s LRU update inline on these lists (keeping the
        counters itself), so callers must not hold the dict across a
        :meth:`load_tag_state`, which replaces it.
        """
        return self._sets

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (contents are kept)."""
        self.stats = CacheStats()

    @property
    def geometry(self) -> Geometry:
        """Everything that shapes the contents: ``(num_sets, assoc, line_size)``."""
        return (self.num_sets, self.assoc, self.line_size)

    def tag_state(self) -> TagState:
        """An immutable snapshot of the contents (statistics excluded)."""
        return self.geometry, tuple((index, tuple(ways)) for index, ways in self._sets.items())

    def load_tag_state(self, state: TagState) -> None:
        """Replace the contents with a copy of ``state`` and zero the counters.

        ``state`` must come from a cache of the same geometry.  The hit
        latency is not part of the contents, so it stays this cache's own.
        """
        geometry, sets = state
        if geometry != self.geometry:
            raise ValueError(f"tag state of geometry {geometry} loaded into {self.geometry}")
        self._sets = {index: list(ways) for index, ways in sets}
        self.reset_stats()


class MemoryHierarchy:
    """L1 + L2 + memory; returns load latencies and records statistics.

    Parameters
    ----------
    l1 / l2:
        The two cache levels.
    memory_latency:
        Latency of an access that misses in both caches.
    """

    def __init__(self, l1: SetAssociativeCache, l2: SetAssociativeCache, memory_latency: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.memory_latency = int(memory_latency)

    @classmethod
    def from_config(cls, config) -> "MemoryHierarchy":
        """Build the hierarchy described by a :class:`~repro.cluster.config.ClusterConfig`."""
        l1 = SetAssociativeCache(
            config.l1_size_kb, config.l1_assoc, config.line_size, config.l1_hit_latency
        )
        l2 = SetAssociativeCache(
            config.l2_size_kb, config.l2_assoc, config.line_size, config.l2_hit_latency
        )
        return cls(l1, l2, config.memory_latency)

    def load_latency(self, address: int) -> int:
        """Latency (cycles) of a load to ``address``, updating both levels."""
        if self.l1.access(address):
            return self.l1.hit_latency
        if self.l2.access(address):
            return self.l2.hit_latency
        return self.memory_latency

    def store_access(self, address: int) -> None:
        """Record a store (write-allocate in both levels, latency hidden by the LSQ)."""
        self.l1.access(address)
        self.l2.access(address)

    @property
    def geometry(self) -> Tuple[Geometry, Geometry]:
        """The geometry of both levels: all that an access stream's effect depends on."""
        return self.l1.geometry, self.l2.geometry

    def tag_state(self) -> Tuple[TagState, TagState]:
        """An immutable snapshot of both levels' contents (statistics excluded)."""
        return self.l1.tag_state(), self.l2.tag_state()

    def load_tag_state(self, state: Tuple[TagState, TagState]) -> None:
        """Start both levels from a :meth:`tag_state` snapshot, with zeroed statistics."""
        self.l1.load_tag_state(state[0])
        self.l2.load_tag_state(state[1])

    def summary(self) -> Dict[str, float]:
        """Flat statistics dictionary for reports."""
        return {
            "l1_accesses": float(self.l1.stats.accesses),
            "l1_hit_rate": self.l1.stats.hit_rate,
            "l2_accesses": float(self.l2.stats.accesses),
            "l2_hit_rate": self.l2.stats.hit_rate,
        }
