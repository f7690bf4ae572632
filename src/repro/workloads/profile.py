"""Benchmark profiles and their per-phase seeds.

A :class:`BenchmarkProfile` is plain data: it names a benchmark and the
knobs the generator (:mod:`repro.workloads.generator`) turns into a program
and a trace.  It lives apart from the generator so that job keys,
simulation points and the SPEC profile table load without numpy or the
trace machinery.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Dict


class KernelKind(enum.Enum):
    """Enumeration of the available kernels, used by benchmark profiles."""

    SERIAL_CHAIN = "serial_chain"
    PARALLEL_CHAINS = "parallel_chains"
    REDUCTION = "reduction"
    STREAM = "stream"
    BRANCHY = "branchy"


@dataclass(frozen=True)
class BenchmarkProfile:
    """Parameters of one synthetic benchmark trace.

    Parameters
    ----------
    name:
        Trace name (``"164.gzip-1"`` style names are used by the SPEC set).
    suite:
        ``"int"`` or ``"fp"``; determines which average the harness folds the
        benchmark into.
    kernel_mix:
        Relative weight of each :class:`KernelKind`
        when choosing the kernel of a basic block.
    ilp:
        Number of independent chains per parallel-chains block; the main knob
        controlling how much parallelism a steering scheme can exploit.
    block_size_mean:
        Mean number of instructions per basic block (before the terminator).
    num_blocks:
        Number of basic blocks in the synthetic program.
    loop_fraction:
        Fraction of blocks that are self-loop bodies.
    loop_trip_mean:
        Expected trip count of those loops.
    skip_fraction:
        Fraction of non-loop blocks with a two-way branch (fall-through or
        skip one block ahead).
    load_fraction / store_fraction / branch_fraction:
        Instruction-mix knobs passed to the kernels.
    long_latency_fraction:
        Fraction of arithmetic operations drawn from long-latency classes.
    cross_chain_fraction:
        Probability of a cross-chain dependence inside parallel-chains blocks.
    working_set_kb:
        Memory footprint of the trace; larger than L1/L2 produces misses.
    strided_fraction:
        Fraction of memory instructions with strided (high-locality) streams.
    mispredict_rate:
        Per-branch misprediction probability used by the trace expander.
    num_phases:
        Number of PinPoints-style simulation points (up to 10, as in the
        paper).
    phase_memory_scale:
        Relative working-set growth per phase (phases differ in memory
        behaviour).
    base_seed:
        Seed from which all per-phase seeds are derived.
    """

    name: str
    suite: str = "int"
    kernel_mix: Dict[KernelKind, float] = field(
        default_factory=lambda: {KernelKind.PARALLEL_CHAINS: 1.0}
    )
    ilp: int = 3
    block_size_mean: int = 24
    num_blocks: int = 24
    loop_fraction: float = 0.3
    loop_trip_mean: float = 12.0
    skip_fraction: float = 0.25
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.15
    long_latency_fraction: float = 0.10
    cross_chain_fraction: float = 0.10
    working_set_kb: int = 256
    strided_fraction: float = 0.6
    mispredict_rate: float = 0.03
    num_phases: int = 3
    phase_memory_scale: float = 0.5
    base_seed: int = 1

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"suite must be 'int' or 'fp', got {self.suite!r}")
        if self.ilp < 1:
            raise ValueError("ilp must be at least 1")
        if self.num_blocks < 2:
            raise ValueError("num_blocks must be at least 2")
        if not self.kernel_mix:
            raise ValueError("kernel_mix must not be empty")
        if self.num_phases < 1:
            raise ValueError("num_phases must be at least 1")

    @property
    def is_fp(self) -> bool:
        """True for floating-point benchmarks."""
        return self.suite == "fp"

    @cached_property
    def identity_json(self) -> str:
        """Every field (kernel-mix keys by name) as canonical JSON: sorted
        keys, no whitespace, the encoding of the engine's job keys.

        The profile fragment of the engine's cache and trace keys.  Encoded
        once per instance (fields are frozen).
        """
        data = asdict(self)
        data["kernel_mix"] = {kind.name: weight for kind, weight in self.kernel_mix.items()}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def with_overrides(self, **kwargs) -> "BenchmarkProfile":
        """Return a copy of the profile with the given fields replaced."""
        return replace(self, **kwargs)


def phase_seed(profile: BenchmarkProfile, phase: int) -> int:
    """Deterministic seed of simulation point ``phase`` of ``profile``."""
    name_hash = sum(ord(c) * (i + 1) for i, c in enumerate(profile.name)) % 100003
    return (profile.base_seed * 7919 + phase * 104729 + name_hash) % (2**31 - 1)
