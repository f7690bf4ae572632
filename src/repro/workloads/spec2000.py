"""SPEC CPU2000 trace profiles.

One :class:`~repro.workloads.profile.BenchmarkProfile` per trace used in
the paper's evaluation (Figures 5-7).  The x-axes of Figures 5 and 7 list the
traces: several benchmarks contribute multiple PinPoints traces
(``gzip-1``..``gzip-5``, ``gcc-1``..``gcc-5``, ...).

The profiles are synthetic but deliberately differentiated along the axes the
paper's analysis identifies as decisive for steering:

* integer codes have smaller blocks, shorter chains, more branches and more
  irregular memory (so copies hurt and balance is easy), while
* floating-point codes have larger blocks, higher ILP, regular strided
  memory and long-latency operations (so balance matters and good
  partitions pay off -- e.g. ``galgel``, which shows the largest VC benefit
  in the paper, gets a high-ILP, reduction-heavy profile).

Absolute performance is not expected to match the paper (the substrate is a
synthetic-trace simulator); the *relative* behaviour of the steering schemes
is what these profiles are designed to exercise.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.profile import BenchmarkProfile, KernelKind

# ---------------------------------------------------------------------------
# Profile helpers
# ---------------------------------------------------------------------------


def _int_profile(name: str, seed: int, **overrides) -> BenchmarkProfile:
    """Default integer-benchmark profile (branchy, modest ILP, irregular memory)."""
    defaults = dict(
        suite="int",
        kernel_mix={
            KernelKind.PARALLEL_CHAINS: 0.45,
            KernelKind.BRANCHY: 0.35,
            KernelKind.SERIAL_CHAIN: 0.20,
        },
        ilp=3,
        block_size_mean=18,
        num_blocks=24,
        loop_fraction=0.25,
        loop_trip_mean=10.0,
        skip_fraction=0.3,
        load_fraction=0.28,
        store_fraction=0.10,
        branch_fraction=0.18,
        long_latency_fraction=0.08,
        cross_chain_fraction=0.25,
        working_set_kb=192,
        strided_fraction=0.45,
        mispredict_rate=0.04,
        num_phases=3,
        base_seed=seed,
    )
    defaults.update(overrides)
    return BenchmarkProfile(name=name, **defaults)


def _fp_profile(name: str, seed: int, **overrides) -> BenchmarkProfile:
    """Default floating-point profile (large blocks, high ILP, regular memory)."""
    defaults = dict(
        suite="fp",
        kernel_mix={
            KernelKind.PARALLEL_CHAINS: 0.40,
            KernelKind.STREAM: 0.35,
            KernelKind.REDUCTION: 0.25,
        },
        ilp=4,
        block_size_mean=32,
        num_blocks=20,
        loop_fraction=0.45,
        loop_trip_mean=24.0,
        skip_fraction=0.15,
        load_fraction=0.30,
        store_fraction=0.12,
        branch_fraction=0.06,
        long_latency_fraction=0.18,
        cross_chain_fraction=0.18,
        working_set_kb=768,
        strided_fraction=0.75,
        mispredict_rate=0.01,
        num_phases=3,
        base_seed=seed,
    )
    defaults.update(overrides)
    return BenchmarkProfile(name=name, **defaults)


# ---------------------------------------------------------------------------
# Integer traces (26, as on the x-axis of Figure 5a / 7a)
# ---------------------------------------------------------------------------

SPEC_INT_TRACES: Dict[str, BenchmarkProfile] = {}


def _register_int(profile: BenchmarkProfile) -> None:
    SPEC_INT_TRACES[profile.name] = profile


# 164.gzip: compression -- tight loops over buffers, moderate ILP.
for _i in range(1, 6):
    _register_int(
        _int_profile(
            f"164.gzip-{_i}",
            seed=100 + _i,
            kernel_mix={
                KernelKind.PARALLEL_CHAINS: 0.55,
                KernelKind.BRANCHY: 0.25,
                KernelKind.STREAM: 0.20,
            },
            ilp=3,
            loop_fraction=0.4,
            working_set_kb=128 + 32 * _i,
            strided_fraction=0.65,
        )
    )

# 175.vpr: placement & routing -- pointer structures plus FP-ish geometry.
for _i in range(1, 3):
    _register_int(
        _int_profile(
            f"175.vpr-{_i}",
            seed=200 + _i,
            kernel_mix={
                KernelKind.PARALLEL_CHAINS: 0.4,
                KernelKind.SERIAL_CHAIN: 0.35,
                KernelKind.BRANCHY: 0.25,
            },
            ilp=2,
            working_set_kb=384,
            mispredict_rate=0.05,
        )
    )

# 176.gcc: compiler -- very branchy, large irregular footprint, low ILP.
for _i in range(1, 6):
    _register_int(
        _int_profile(
            f"176.gcc-{_i}",
            seed=300 + _i,
            kernel_mix={
                KernelKind.BRANCHY: 0.5,
                KernelKind.PARALLEL_CHAINS: 0.3,
                KernelKind.SERIAL_CHAIN: 0.2,
            },
            ilp=2,
            block_size_mean=14,
            num_blocks=32,
            branch_fraction=0.22,
            working_set_kb=512,
            strided_fraction=0.35,
            mispredict_rate=0.06,
        )
    )

# 181.mcf: minimum-cost flow -- pointer chasing, cache-miss dominated.
_register_int(
    _int_profile(
        "181.mcf",
        seed=400,
        kernel_mix={KernelKind.SERIAL_CHAIN: 0.6, KernelKind.PARALLEL_CHAINS: 0.4},
        ilp=2,
        load_fraction=0.38,
        working_set_kb=4096,
        strided_fraction=0.2,
        mispredict_rate=0.05,
    )
)

# 186.crafty: chess -- integer logic, high branch density, small working set.
_register_int(
    _int_profile(
        "186.crafty",
        seed=410,
        kernel_mix={KernelKind.BRANCHY: 0.45, KernelKind.PARALLEL_CHAINS: 0.55},
        ilp=4,
        block_size_mean=20,
        working_set_kb=96,
        strided_fraction=0.55,
        mispredict_rate=0.05,
    )
)

# 197.parser: NLP parser -- linked lists, low ILP.
_register_int(
    _int_profile(
        "197.parser",
        seed=420,
        kernel_mix={KernelKind.SERIAL_CHAIN: 0.5, KernelKind.BRANCHY: 0.3, KernelKind.PARALLEL_CHAINS: 0.2},
        ilp=2,
        load_fraction=0.33,
        working_set_kb=640,
        strided_fraction=0.3,
        mispredict_rate=0.06,
    )
)

# 252.eon: ray tracing in C++ -- mixed int/fp-ish computation, moderate ILP.
for _i in range(1, 4):
    _register_int(
        _int_profile(
            f"252.eon-{_i}",
            seed=500 + _i,
            kernel_mix={
                KernelKind.PARALLEL_CHAINS: 0.55,
                KernelKind.REDUCTION: 0.2,
                KernelKind.BRANCHY: 0.25,
            },
            ilp=4,
            block_size_mean=24,
            long_latency_fraction=0.14,
            working_set_kb=128,
            mispredict_rate=0.02,
        )
    )

# 253.perlbmk: interpreter -- extremely branchy, irregular.
_register_int(
    _int_profile(
        "253.perlbmk",
        seed=520,
        kernel_mix={KernelKind.BRANCHY: 0.55, KernelKind.SERIAL_CHAIN: 0.2, KernelKind.PARALLEL_CHAINS: 0.25},
        ilp=2,
        block_size_mean=12,
        num_blocks=36,
        branch_fraction=0.24,
        working_set_kb=320,
        mispredict_rate=0.07,
    )
)

# 254.gap: group theory -- integer arithmetic with multiplies.
_register_int(
    _int_profile(
        "254.gap",
        seed=530,
        ilp=3,
        long_latency_fraction=0.16,
        working_set_kb=448,
        strided_fraction=0.5,
    )
)

# 255.vortex: object database -- pointer heavy, large footprint.
for _i in range(1, 3):
    _register_int(
        _int_profile(
            f"255.vortex-{_i}",
            seed=540 + _i,
            kernel_mix={KernelKind.SERIAL_CHAIN: 0.4, KernelKind.BRANCHY: 0.3, KernelKind.PARALLEL_CHAINS: 0.3},
            ilp=3,
            load_fraction=0.34,
            working_set_kb=1024,
            strided_fraction=0.35,
        )
    )

# 256.bzip2: compression -- similar to gzip but larger blocks.
for _i in range(1, 4):
    _register_int(
        _int_profile(
            f"256.bzip2-{_i}",
            seed=560 + _i,
            kernel_mix={
                KernelKind.PARALLEL_CHAINS: 0.6,
                KernelKind.STREAM: 0.2,
                KernelKind.BRANCHY: 0.2,
            },
            ilp=3,
            block_size_mean=22,
            loop_fraction=0.45,
            working_set_kb=256 + 128 * _i,
            strided_fraction=0.7,
        )
    )

# 300.twolf: place & route -- pointer chasing and short chains.
_register_int(
    _int_profile(
        "300.twolf",
        seed=580,
        kernel_mix={KernelKind.SERIAL_CHAIN: 0.45, KernelKind.BRANCHY: 0.3, KernelKind.PARALLEL_CHAINS: 0.25},
        ilp=2,
        load_fraction=0.32,
        working_set_kb=288,
        strided_fraction=0.3,
        mispredict_rate=0.05,
    )
)


# ---------------------------------------------------------------------------
# Floating-point traces (14, as on the x-axis of Figure 5b)
# ---------------------------------------------------------------------------

SPEC_FP_TRACES: Dict[str, BenchmarkProfile] = {}


def _register_fp(profile: BenchmarkProfile) -> None:
    SPEC_FP_TRACES[profile.name] = profile


_register_fp(
    _fp_profile(
        "168.wupwise",
        seed=700,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.5, KernelKind.REDUCTION: 0.3, KernelKind.STREAM: 0.2},
        ilp=4,
        working_set_kb=512,
    )
)
_register_fp(
    _fp_profile(
        "171.swim",
        seed=705,
        kernel_mix={KernelKind.STREAM: 0.65, KernelKind.PARALLEL_CHAINS: 0.35},
        ilp=5,
        working_set_kb=4096,
        strided_fraction=0.9,
        loop_trip_mean=48.0,
    )
)
_register_fp(
    _fp_profile(
        "173.applu",
        seed=710,
        kernel_mix={KernelKind.STREAM: 0.45, KernelKind.PARALLEL_CHAINS: 0.35, KernelKind.REDUCTION: 0.2},
        ilp=4,
        working_set_kb=2048,
        strided_fraction=0.85,
    )
)
_register_fp(
    _fp_profile(
        "177.mesa",
        seed=715,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.55, KernelKind.STREAM: 0.25, KernelKind.BRANCHY: 0.2},
        ilp=3,
        block_size_mean=24,
        branch_fraction=0.12,
        working_set_kb=256,
        mispredict_rate=0.02,
    )
)
# galgel shows the largest VC-over-software-only gain in the paper (~20%):
# very high ILP with clear chain structure and long-latency FP operations.
_register_fp(
    _fp_profile(
        "178.galgel",
        seed=720,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.55, KernelKind.REDUCTION: 0.45},
        ilp=6,
        block_size_mean=40,
        long_latency_fraction=0.25,
        working_set_kb=384,
        loop_trip_mean=32.0,
    )
)
for _i in range(1, 3):
    _register_fp(
        _fp_profile(
            f"179.art-{_i}",
            seed=725 + _i,
            kernel_mix={KernelKind.STREAM: 0.6, KernelKind.REDUCTION: 0.4},
            ilp=4,
            working_set_kb=3072,
            strided_fraction=0.8,
            loop_trip_mean=64.0,
        )
    )
_register_fp(
    _fp_profile(
        "183.equake",
        seed=735,
        kernel_mix={KernelKind.STREAM: 0.5, KernelKind.PARALLEL_CHAINS: 0.3, KernelKind.SERIAL_CHAIN: 0.2},
        ilp=3,
        working_set_kb=2048,
        strided_fraction=0.6,
    )
)
_register_fp(
    _fp_profile(
        "187.facerec",
        seed=740,
        kernel_mix={KernelKind.REDUCTION: 0.4, KernelKind.PARALLEL_CHAINS: 0.4, KernelKind.STREAM: 0.2},
        ilp=4,
        working_set_kb=768,
    )
)
_register_fp(
    _fp_profile(
        "188.ammp",
        seed=745,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.4, KernelKind.SERIAL_CHAIN: 0.3, KernelKind.STREAM: 0.3},
        ilp=3,
        long_latency_fraction=0.22,
        working_set_kb=1024,
        strided_fraction=0.5,
    )
)
_register_fp(
    _fp_profile(
        "189.lucas",
        seed=750,
        kernel_mix={KernelKind.REDUCTION: 0.5, KernelKind.PARALLEL_CHAINS: 0.5},
        ilp=5,
        block_size_mean=36,
        working_set_kb=1536,
        strided_fraction=0.85,
    )
)
_register_fp(
    _fp_profile(
        "191.fma3d",
        seed=755,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.5, KernelKind.STREAM: 0.3, KernelKind.BRANCHY: 0.2},
        ilp=3,
        block_size_mean=28,
        branch_fraction=0.1,
        working_set_kb=1024,
    )
)
_register_fp(
    _fp_profile(
        "200.sixtrack",
        seed=760,
        kernel_mix={KernelKind.PARALLEL_CHAINS: 0.6, KernelKind.REDUCTION: 0.4},
        ilp=4,
        block_size_mean=44,
        long_latency_fraction=0.2,
        working_set_kb=192,
        loop_trip_mean=40.0,
    )
)
_register_fp(
    _fp_profile(
        "301.apsi",
        seed=765,
        kernel_mix={KernelKind.STREAM: 0.4, KernelKind.PARALLEL_CHAINS: 0.4, KernelKind.REDUCTION: 0.2},
        ilp=4,
        working_set_kb=896,
        strided_fraction=0.7,
    )
)


# ---------------------------------------------------------------------------
# Lookup helpers
# ---------------------------------------------------------------------------

ALL_TRACES: Dict[str, BenchmarkProfile] = {**SPEC_INT_TRACES, **SPEC_FP_TRACES}


def all_trace_names(suite: str = "all") -> List[str]:
    """Names of the traces in ``suite`` (``"int"``, ``"fp"`` or ``"all"``)."""
    if suite == "int":
        return list(SPEC_INT_TRACES)
    if suite == "fp":
        return list(SPEC_FP_TRACES)
    if suite == "all":
        return list(ALL_TRACES)
    raise ValueError(f"unknown suite {suite!r}; expected 'int', 'fp' or 'all'")


def profile_for(name: str) -> BenchmarkProfile:
    """Return the profile of trace ``name`` (raises ``KeyError`` if unknown)."""
    return ALL_TRACES[name]
