"""Diff fresh benchmark runs against the committed snapshots.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py            # runs pytest itself
    PYTHONPATH=src python scripts/check_bench_regression.py --fresh fresh.json
    PYTHONPATH=src python scripts/check_bench_regression.py \
        --fresh eng.json --substrate-fresh sub.json
    PYTHONPATH=src python scripts/check_bench_regression.py --strict   # warnings -> exit 1

Compares per-benchmark throughput (1 / mean wall-clock) of a fresh
``benchmarks/test_engine_sweep.py`` run against the committed reference
snapshot ``benchmarks/BENCH_engine.json`` -- and, when a substrate JSON is
supplied (``--substrate-fresh``), of a ``benchmarks/test_simulator_
throughput.py`` run against ``benchmarks/BENCH_substrate.json`` -- and
**warns** on any benchmark whose throughput regressed by more than the
threshold (default 30 %).  It also recomputes the headlines and warns when
any falls below its floor:

* **shared memory** -- the speedup of the shared-memory multi-trace sweep
  over the pickle-path multi-trace sweep (floor 0.85x: the substrate must at
  least match the pickle path; the sub-1.0 floor only absorbs single-core
  CI noise, the committed snapshot itself records >=1.0x),
* **kernel speedup** (substrate suite) -- the vectorized two-tier kernel
  versus the interpreter kernel on the same compiled trace, under the OP
  and VC policies (floor 1.5x; the committed snapshot records >=2x),
* **fused steering** (substrate suite) -- the compiled steering tier (the
  fused dispatch fast path) versus the per-µop callback path on the same
  kernel, under OP and VC (floor 1.05x; the committed snapshot records
  ~1.1-1.2x -- the fast path removes Python frames from dispatch only, so
  the honest headline is modest),
* **adaptive savings** -- the planned-vs-executed simulation-run ratio the
  adaptive race scheduler records in ``test_race_adaptive``'s ``extra_info``
  (floor 3.0x; the committed snapshot records 5.0x).  A *count* ratio, not a
  wall-clock one, so machine speed cannot move it -- only a changed stopping
  decision can, and
* **adaptivity-off overhead** -- the wall-clock ratio of the hand-rolled
  exhaustive grid over the adaptive machinery running the identical grid
  with its stopping rule disabled (floor 0.9x to absorb CI noise; the
  committed snapshot records >=1.0x).

Name drift between a snapshot and the fresh run is reported both ways: a
snapshot benchmark missing from the fresh run always warns, and when names
are *also* new on the fresh side the script warns about a possible rename
-- a renamed benchmark would otherwise silently stop being checked.

Warnings do not fail the run by default (benchmark machines vary); pass
``--strict`` to turn them into a non-zero exit for gating jobs.

**Schema errors always fail** (exit 2), strict or not: a bench JSON that is
missing its ``benchmarks`` list, an entry's name or a usable positive
``stats.mean`` is broken tooling, not machine variance, and silently
"passing" on it would make every later comparison meaningless.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "benchmarks" / "BENCH_engine.json"
BENCH_FILE = REPO_ROOT / "benchmarks" / "test_engine_sweep.py"
ADAPTIVE_BENCH_FILE = REPO_ROOT / "benchmarks" / "test_engine_adaptive.py"
SUBSTRATE_SNAPSHOT_PATH = REPO_ROOT / "benchmarks" / "BENCH_substrate.json"

#: The pair whose ratio is the shared-memory substrate headline.
SHM_BASELINE = "test_multi_trace_sweep_pickle"
SHM_SUBJECT = "test_multi_trace_sweep_shm"
MIN_SHM_SPEEDUP = 0.85

#: Substrate pairs whose ratios are the vectorized-kernel speedup headlines.
KERNEL_OP_BASELINE = "test_simulator_throughput_op_interpreter"
KERNEL_OP_SUBJECT = "test_simulator_throughput_op"
KERNEL_VC_BASELINE = "test_simulator_throughput_vc_interpreter"
KERNEL_VC_SUBJECT = "test_simulator_throughput_vc"
MIN_KERNEL_SPEEDUP = 1.5

#: Substrate pairs whose ratios are the compiled-steering-tier headlines.
#: The default benchmarks run the fused fast path; the ``_callback`` twins
#: pin ``fused_steering=False`` on the same kernel and trace.
FUSED_OP_BASELINE = "test_simulator_throughput_op_callback"
FUSED_OP_SUBJECT = "test_simulator_throughput_op"
FUSED_VC_BASELINE = "test_simulator_throughput_vc_callback"
FUSED_VC_SUBJECT = "test_simulator_throughput_vc"
MIN_FUSED_SPEEDUP = 1.05

#: The adaptive-savings headline: planned vs executed simulation runs of the
#: racing campaign, read from the benchmark's recorded extra_info counts.
ADAPTIVE_BENCH = "test_race_adaptive"
MIN_ADAPTIVE_SAVINGS = 3.0

#: The adaptivity-off no-regression pair: the adaptive machinery with its
#: stopping rule disabled must not cost wall-clock over the hand-rolled
#: exhaustive grid it replaces.
ADAPTIVE_OFF_BASELINE = "test_replicated_manual_grid"
ADAPTIVE_OFF_SUBJECT = "test_replicated_exhaustive_scheduler"
MIN_ADAPTIVE_OFF_SPEEDUP = 0.9

#: Exit code for a structurally broken bench JSON (fails CI unconditionally).
SCHEMA_ERROR_EXIT = 2


class SchemaError(ValueError):
    """A bench JSON file that cannot be meaningfully compared."""


def load_means(path: Path) -> dict:
    """``{benchmark name: mean seconds}`` from a pytest-benchmark JSON file.

    Validates the parts of the pytest-benchmark schema this script consumes
    and raises :class:`SchemaError` (with the offending file and field) on
    anything unusable -- truncated files, missing lists, entries without a
    name or a positive ``stats.mean``.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read bench JSON ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or "benchmarks" not in data:
        raise SchemaError(f"{path}: missing the top-level 'benchmarks' list")
    entries = data["benchmarks"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{path}: 'benchmarks' must be a non-empty list")
    means = {}
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise SchemaError(f"{path}: benchmarks[{position}] has no usable 'name'")
        name = entry["name"]
        stats = entry.get("stats")
        if not isinstance(stats, dict) or "mean" not in stats:
            raise SchemaError(f"{path}: {name} has no 'stats.mean'")
        try:
            mean = float(stats["mean"])
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: {name} stats.mean {stats['mean']!r} is not a number")
        if not mean > 0:
            raise SchemaError(f"{path}: {name} stats.mean must be positive, got {mean!r}")
        means[name] = mean
    return means


def load_extra_info(path: Path) -> dict:
    """``{benchmark name: extra_info dict}`` from a pytest-benchmark JSON file.

    Tolerant where :func:`load_means` is strict: ``extra_info`` is optional
    per benchmark (older snapshots predate it), so entries without one simply
    map to ``{}``.  Structural problems -- unreadable file, missing list,
    nameless entries -- still raise :class:`SchemaError`.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read bench JSON ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        raise SchemaError(f"{path}: missing the top-level 'benchmarks' list")
    info = {}
    for position, entry in enumerate(data["benchmarks"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise SchemaError(f"{path}: benchmarks[{position}] has no usable 'name'")
        extra = entry.get("extra_info")
        info[entry["name"]] = extra if isinstance(extra, dict) else {}
    return info


def run_fresh(output: Path) -> None:
    """Produce a fresh benchmark JSON by running the engine benchmarks."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        str(ADAPTIVE_BENCH_FILE),
        "--benchmark-only",
        f"--benchmark-json={output}",
        "-q",
    ]
    print("+ " + " ".join(command), flush=True)
    subprocess.run(command, check=True, cwd=REPO_ROOT)


def compare_means(snapshot: dict, fresh: dict, threshold: float) -> int:
    """Print the snapshot-vs-fresh table for one suite; return the warning count."""
    warnings = 0
    print(f"{'benchmark':<42} {'snapshot':>10} {'fresh':>10} {'throughput':>11}")
    for name in sorted(snapshot):
        if name not in fresh:
            print(f"{name:<42} missing from the fresh run")
            warnings += 1
            continue
        snap_mean, fresh_mean = snapshot[name], fresh[name]
        # Throughput ratio: >1 means faster than the snapshot.
        ratio = snap_mean / fresh_mean
        print(f"{name:<42} {snap_mean*1e3:>8.1f}ms {fresh_mean*1e3:>8.1f}ms {ratio:>10.2f}x")
        regression = (1.0 - ratio) * 100.0
        if regression > threshold:
            print(
                f"WARNING: {name} throughput regressed {regression:.0f}% "
                f"(>{threshold:.0f}% threshold) vs the committed snapshot"
            )
            warnings += 1
    missing = sorted(set(snapshot) - set(fresh))
    extra = sorted(set(fresh) - set(snapshot))
    for name in extra:
        print(f"note: {name} has no snapshot entry (new benchmark?)")
    if missing and extra:
        # A rename shows up as one name vanishing while another appears; the
        # vanished one would silently stop being regression-checked.
        print(
            "WARNING: benchmark names drifted between the snapshot and the "
            f"fresh run (missing: {', '.join(missing)}; new: {', '.join(extra)}) "
            "-- renamed benchmarks need the snapshot regenerated or they go "
            "unchecked"
        )
        warnings += 1
    return warnings


def check_headline(fresh: dict, baseline: str, subject: str, floor: float, label: str) -> int:
    """Print one headline ratio; return 1 if it warned, else 0."""
    if baseline not in fresh or subject not in fresh:
        print(f"note: {label} headline skipped ({baseline}/{subject} not both present)")
        return 0
    speedup = fresh[baseline] / fresh[subject]
    print(f"{label} speedup: {speedup:.2f}x (floor {floor:.2f}x)")
    if speedup < floor:
        print(
            f"WARNING: {label} speedup {speedup:.2f}x fell below the "
            f"{floor:.2f}x floor of the reference snapshot"
        )
        return 1
    return 0


def check_adaptive_savings(extra_info: dict) -> int:
    """Print the planned-vs-executed run-count headline; return 1 on warning.

    Unlike the wall-clock headlines this is a pure count ratio read from
    ``test_race_adaptive``'s recorded ``extra_info`` -- machine speed cannot
    move it, only a changed stopping decision can.  A racing benchmark that
    ran without recording its counts is broken tooling, so that raises
    :class:`SchemaError` rather than skipping.
    """
    if ADAPTIVE_BENCH not in extra_info:
        print(f"note: adaptive-savings headline skipped ({ADAPTIVE_BENCH} not present)")
        return 0
    counts = extra_info[ADAPTIVE_BENCH]
    try:
        planned = int(counts["planned_runs"])
        executed = int(counts["executed_runs"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError(
            f"{ADAPTIVE_BENCH} ran without usable planned_runs/executed_runs "
            f"extra_info (got {counts!r})"
        )
    if executed <= 0 or planned < executed:
        raise SchemaError(
            f"{ADAPTIVE_BENCH} recorded impossible run counts: "
            f"planned={planned}, executed={executed}"
        )
    savings = planned / executed
    print(
        f"adaptive-savings run ratio: {savings:.2f}x "
        f"({planned} planned / {executed} executed, floor {MIN_ADAPTIVE_SAVINGS:.2f}x)"
    )
    if savings < MIN_ADAPTIVE_SAVINGS:
        print(
            f"WARNING: adaptive savings {savings:.2f}x fell below the "
            f"{MIN_ADAPTIVE_SAVINGS:.2f}x floor -- the racing scheduler is "
            "executing more of the grid than the reference stopping decisions"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=SNAPSHOT_PATH,
        help="committed reference snapshot (default benchmarks/BENCH_engine.json)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="fresh benchmark JSON to compare; omitted = run the benchmarks now",
    )
    parser.add_argument(
        "--substrate-fresh",
        type=Path,
        default=None,
        help=(
            "fresh substrate benchmark JSON (test_simulator_throughput.py run) to "
            "diff against benchmarks/BENCH_substrate.json; omitted = substrate "
            "suite not checked"
        ),
    )
    parser.add_argument(
        "--substrate-snapshot",
        type=Path,
        default=SUBSTRATE_SNAPSHOT_PATH,
        help="committed substrate snapshot (default benchmarks/BENCH_substrate.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=30.0,
        help="warn when throughput regressed by more than this percentage (default 30)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit non-zero if any warning fired"
    )
    args = parser.parse_args(argv)

    try:
        snapshot = load_means(args.snapshot)
        if args.fresh is not None:
            fresh = load_means(args.fresh)
            fresh_extra = load_extra_info(args.fresh)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                fresh_path = Path(tmp) / "fresh.json"
                run_fresh(fresh_path)
                fresh = load_means(fresh_path)
                fresh_extra = load_extra_info(fresh_path)
        substrate_snapshot = substrate_fresh = None
        if args.substrate_fresh is not None:
            substrate_snapshot = load_means(args.substrate_snapshot)
            substrate_fresh = load_means(args.substrate_fresh)
    except SchemaError as exc:
        # Broken tooling, not machine variance: fail regardless of --strict.
        print(f"SCHEMA ERROR: {exc}")
        return SCHEMA_ERROR_EXIT

    warnings = compare_means(snapshot, fresh, args.threshold)
    print()
    warnings += check_headline(
        fresh, SHM_BASELINE, SHM_SUBJECT, MIN_SHM_SPEEDUP, "shared-memory-vs-pickle"
    )
    warnings += check_headline(
        fresh,
        ADAPTIVE_OFF_BASELINE,
        ADAPTIVE_OFF_SUBJECT,
        MIN_ADAPTIVE_OFF_SPEEDUP,
        "adaptivity-off-overhead",
    )
    try:
        warnings += check_adaptive_savings(fresh_extra)
    except SchemaError as exc:
        print(f"SCHEMA ERROR: {exc}")
        return SCHEMA_ERROR_EXIT

    if substrate_fresh is not None:
        print()
        warnings += compare_means(substrate_snapshot, substrate_fresh, args.threshold)
        print()
        warnings += check_headline(
            substrate_fresh,
            KERNEL_OP_BASELINE,
            KERNEL_OP_SUBJECT,
            MIN_KERNEL_SPEEDUP,
            "vectorized-kernel-vs-interpreter (OP)",
        )
        warnings += check_headline(
            substrate_fresh,
            KERNEL_VC_BASELINE,
            KERNEL_VC_SUBJECT,
            MIN_KERNEL_SPEEDUP,
            "vectorized-kernel-vs-interpreter (VC)",
        )
        warnings += check_headline(
            substrate_fresh,
            FUSED_OP_BASELINE,
            FUSED_OP_SUBJECT,
            MIN_FUSED_SPEEDUP,
            "fused-steering-vs-callback (OP)",
        )
        warnings += check_headline(
            substrate_fresh,
            FUSED_VC_BASELINE,
            FUSED_VC_SUBJECT,
            MIN_FUSED_SPEEDUP,
            "fused-steering-vs-callback (VC)",
        )

    if warnings:
        print(f"\n{warnings} warning(s).")
        return 1 if args.strict else 0
    print("\nno regressions beyond threshold.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
