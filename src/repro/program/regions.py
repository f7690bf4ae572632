"""Region (superblock) formation for the compile-time partitioners.

The paper's software side partitions "data dependence graphs" built over a
compilation scope larger than a hardware dispatch group -- that is precisely
the advantage it claims for software steering (Section 3.2: "a bigger window
of instructions is inspected at compile time").  We form superblock-style
regions: starting from a seed block, the region grows along the most likely
CFG successor until an instruction budget is reached, a block is revisited,
or the path probability falls below a threshold.

Every basic block belongs to exactly one region, so annotating all regions
annotates the whole program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.program.program import Program

#: Stop growing a region when the probability of the path from its seed
#: falls below this threshold.
MIN_PATH_PROBABILITY = 0.05


@dataclass
class Region:
    """One compilation region: an ordered list of block ids and their instructions' sids."""

    rid: int
    block_ids: List[int] = field(default_factory=list)
    sids: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.sids)


def form_regions(program: Program, max_instructions: int = 128) -> List[Region]:
    """Partition ``program`` into superblock regions.

    Parameters
    ----------
    program:
        The static program.
    max_instructions:
        Upper bound on the number of instructions in a region (the compiler's
        window size).

    Returns
    -------
    list[Region]
        Regions covering every block exactly once, ordered by seed block id.
    """
    if max_instructions < 1:
        raise ValueError("max_instructions must be positive")
    claimed: Set[int] = set()
    regions: List[Region] = []
    entry = program.entry
    # Seed regions starting from the CFG entry first, then any unclaimed block
    # in id order; this mirrors trace-based superblock formation seeded at the
    # hottest unvisited block without requiring a profile.
    seeds = [entry] + [b for b in range(program.num_blocks) if b != entry]
    for seed in seeds:
        if seed in claimed:
            continue
        block_ids: List[int] = []
        sids: List[int] = []
        bid = seed
        path_probability = 1.0
        while (
            bid is not None
            and bid not in claimed
            and len(sids) < max_instructions
            and path_probability >= MIN_PATH_PROBABILITY
        ):
            block = program.block_sids(bid)
            if sids and len(sids) + len(block) > max_instructions:
                break
            claimed.add(bid)
            block_ids.append(bid)
            sids.extend(block)
            # Follow the most likely forward successor; the first of equally
            # likely edges wins.
            best = None
            for dst, probability, back in program.successors(bid):
                if not back and (best is None or probability > best[1]):
                    best = (dst, probability)
            bid, probability = best if best is not None else (None, 0.0)
            path_probability *= probability
        regions.append(Region(len(regions), block_ids, tuple(sids)))
    return regions
