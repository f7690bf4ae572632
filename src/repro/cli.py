"""Command-line interface for the reproduction.

Exposes the experiment drivers without writing any Python::

    python -m repro run figure5 --jobs 4
    python -m repro run my_scenario.json --benchmarks 164.gzip-1 181.mcf
    python -m repro scenarios list
    python -m repro list-configs
    python -m repro quickstart --benchmark 178.galgel --trace-length 4000
    python -m repro list-benchmarks --suite fp

Every experiment is a *scenario*: a declarative, JSON-serializable
description of machine, workloads, configurations and sweep axes (see
:mod:`repro.scenarios`).  ``run`` executes either a built-in named scenario
(``figure5``, ``table1``, ``sweep-link-latency``...) or a ``.json`` scenario
file; ``scenarios list`` shows the built-ins, ``list-configs`` the registered
policies, partitioners and machine presets custom scenarios can draw from.

Every command prints the same plain-text tables the benchmark harness emits.

Running experiments in parallel
-------------------------------
Every experiment command routes its simulations through the experiment
engine (:mod:`repro.engine`) and accepts these knobs:

``--jobs N``
    Simulate the ``benchmark x phase x configuration`` job matrix on ``N``
    worker processes (default 1 = serial, in-process).  Results are
    bit-identical for every ``N`` -- traces are regenerated from their seeds
    inside each worker, the simulator is deterministic and the weighted
    reassembly happens in a fixed order in the parent process -- so
    ``run figure5 --jobs 4`` prints exactly the same tables as ``--jobs 1``.

``--cache-dir PATH``
    On-disk result cache (default ``.repro_cache``, or ``$REPRO_CACHE_DIR``,
    resolved when the command runs).  Repeated figure runs and overlapping
    sweeps skip already-simulated points.  Entries are keyed by the full
    simulation *inputs* (profile, phase, configuration identity, trace
    length, the resolved machine configuration and the register space), so
    for unchanged code a hit is exactly the metrics a fresh run would
    produce.  Keys cannot see edits to simulator *logic*: after such a
    change, bump :data:`repro.engine.job.CACHE_SCHEMA_VERSION` or pass
    ``--no-cache``.  Every cached report ends with an ``[engine] ...
    hits/misses`` footer so replayed results are always visible.

``--no-cache``
    Disable the cache for this invocation (simulate everything afresh).

``--trace-dir PATH`` / ``--no-trace-artifacts``
    Compiled phase traces are persisted as content-addressed ``.npz``
    artifacts (default ``<cache dir>/traces``) so parallel workers and
    repeated runs *load* traces instead of regenerating them.  Artifacts are
    keyed by the trace inputs only (profile, phase, length, register space),
    so every steering configuration of a phase -- and every sweep touching
    the same phases -- shares one artifact.  ``--no-cache`` also disables
    artifacts unless an explicit ``--trace-dir`` is given;
    ``--no-trace-artifacts`` turns them off on their own.

``--shared-mem`` / ``--no-shared-mem``
    Shared-memory trace residency for parallel runs (on by default
    where the platform supports it): each distinct compiled trace is
    published once into a ``multiprocessing.shared_memory`` segment and
    workers attach by name and copy it out, instead of every worker
    acquiring the trace on its own.  Segments are unlinked when the run's
    engine shuts down; reports end with a ``[shm] segments=... bytes=...``
    footer when segments were used.  Bit-identical to ``--no-shared-mem``
    (the pickle path).

``--adaptive`` / ``--no-adaptive``
    Early stopping for the statistical scenarios (``replicated`` / ``race``
    / ``crossover`` report kinds, see :mod:`repro.scenarios.adaptive`).
    The default follows the scenario's declared stopping rule;
    ``--no-adaptive`` runs the exhaustive grid and *replays* the stopping
    decisions, so the report tables are byte-identical either way -- only
    the number of simulation runs paid for differs.  Adaptive runs end
    with an ``[adaptive] planned=... executed=...`` footer.  Scenarios
    without a stopping rule ignore both flags.

Jobs always run in batches: one batch per distinct phase trace, the result
cache consulted per batch (fully cached batches skip the workers entirely),
and each remaining batch runs all its configurations against a single
in-memory compiled trace on one reused processor.  Reports end with a
``[batch] traces=... configs=...`` footer.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

from repro.engine import AUTO_TRACE_ROOT, ParallelRunner, ResultCache
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.registry import MACHINES, PARTITIONERS, POLICIES, SCENARIOS
from repro.scenarios.runner import REPORT_KINDS, run_scenario
from repro.scenarios.spec import ScenarioSpec, scenario_overrides
from repro.workloads.spec2000 import all_trace_names


def resolve_cache_dir() -> str:
    """The cache directory used when ``--cache-dir`` is not passed.

    Read from ``$REPRO_CACHE_DIR`` at *invocation* time (not import time),
    so setting the variable after ``import repro.cli`` is honoured.
    """
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The cache directory selected by ``--cache-dir`` / ``--no-cache``."""
    if args.no_cache:
        return None
    return args.cache_dir if args.cache_dir is not None else resolve_cache_dir()


def _trace_root(args: argparse.Namespace):
    """The trace-artifact directory selected by the trace/cache options."""
    if getattr(args, "no_trace_artifacts", False):
        return None
    if getattr(args, "trace_dir", None) is not None:
        return args.trace_dir
    return AUTO_TRACE_ROOT  # follow the result cache (<cache dir>/traces)


def _engine(args: argparse.Namespace) -> ParallelRunner:
    """The engine configured by the ``--jobs`` / cache / trace / shm options."""
    cache_dir = _cache_dir(args)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return ParallelRunner(
        max_workers=args.jobs,
        cache=cache,
        trace_root=_trace_root(args),
        shared_memory=getattr(args, "shared_mem", None),
    )


def _engine_footer(engine: ParallelRunner) -> str:
    """One-line cache/parallelism summary appended to every cached report.

    Makes cache hits visible: a stale cache (e.g. after changing simulator
    code without bumping the engine's ``CACHE_SCHEMA_VERSION``) would
    otherwise silently reproduce old numbers.  Commands that never consult
    the cache (e.g. ``run table1``, which simulates nothing) get no footer.
    """
    footer = ""
    if engine.cache is not None:
        stats = engine.cache.stats()
        if stats["hits"] + stats["misses"] + stats["stores"] > 0:
            footer += (
                f"[engine] jobs={engine.max_workers}  cache={engine.cache.root}  "
                f"hits={stats['hits']} misses={stats['misses']} stored={stats['stores']}  "
                "(cached results skip simulation; use --no-cache to force fresh runs)\n"
            )
    store = engine.trace_store
    if store is not None:
        # Aggregated across processes: the runner's own (inline) store
        # counters plus the per-task deltas reported back by pool workers,
        # so parallel runs account their trace traffic exactly.
        trace_stats = engine.trace_stats()
        if trace_stats["hits"] + trace_stats["misses"] + trace_stats["stores"] > 0:
            footer += (
                f"[traces] dir={store.root}  loaded={trace_stats['hits']} "
                f"generated={trace_stats['misses']} stored={trace_stats['stores']}  "
                "(compiled traces are shared across configurations and runs)\n"
            )
    batch_stats = engine.batch_stats
    if batch_stats["jobs"] > 0:
        # After every completed run, configs == executed + cached.
        footer += (
            f"[batch] traces={batch_stats['batches']} configs={batch_stats['jobs']} "
            f"executed={batch_stats['executed_jobs']} cached={batch_stats['cached_jobs']} "
            f"max-width={batch_stats['max_width']} "
            f"fully-cached-batches={batch_stats['cached_batches']}  "
            "(each batch runs all configurations of one trace)\n"
        )
    shm_stats = engine.shm_stats()
    if shm_stats["published"] + shm_stats["reused"] > 0:
        footer += (
            f"[shm] segments={shm_stats['segments']} bytes={shm_stats['bytes']} "
            f"published={shm_stats['published']} reused={shm_stats['reused']}  "
            "(compiled traces resident in shared memory; workers attach "
            "by name; --no-shared-mem restores the pickle path)\n"
        )
    adaptive = engine.adaptive_stats
    if adaptive["planned"] > 0:
        # Recorded only by enabled stopping rules, so --no-adaptive runs
        # (and every non-statistical scenario) keep their footers unchanged.
        footer += (
            f"[adaptive] planned={adaptive['planned']} "
            f"executed={adaptive['executed']} "
            f"saved={adaptive['planned'] - adaptive['executed']} "
            f"resolved={adaptive['stop_resolved']} "
            f"retired={adaptive['stop_retired']} tied={adaptive['stop_tied']} "
            f"won={adaptive['stop_won']} capped={adaptive['stop_capped']} "
            f"bisected={adaptive['stop_bisected']}  "
            "(stopping rules retire runs once the report is resolved; "
            "--no-adaptive pays for the full grid, same tables)\n"
        )
    return footer


def _benchmarks(args: argparse.Namespace) -> Optional[List[str]]:
    if getattr(args, "benchmarks", None):
        known = set(all_trace_names("all"))
        unknown = [name for name in args.benchmarks if name not in known]
        if unknown:
            raise SystemExit(f"unknown benchmarks: {unknown}")
        return list(args.benchmarks)
    return None


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: a clean error instead of a traceback."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache-dir`` / ``--no-cache``, shared by every experiment command."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the simulation job matrix "
        "(default 1 = serial; results are bit-identical for any N)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="on-disk result cache; repeated runs and overlapping sweeps "
        "skip already-simulated points (default '.repro_cache', "
        "overridable via $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this invocation",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="PATH",
        help="directory for shared compiled-trace artifacts "
        "(default '<cache dir>/traces'; artifacts are keyed by the trace "
        "inputs, so all configurations of a phase share one file)",
    )
    parser.add_argument(
        "--no-trace-artifacts",
        action="store_true",
        help="regenerate traces from their seeds instead of loading artifacts",
    )
    parser.add_argument(
        "--shared-mem",
        dest="shared_mem",
        action="store_true",
        default=None,
        help="publish each compiled trace once into shared memory so parallel "
        "workers attach by name (default: on where the platform supports "
        "it; bit-identical either way)",
    )
    parser.add_argument(
        "--no-shared-mem",
        dest="shared_mem",
        action="store_false",
        help="ship traces over the classic pickle path instead of shared memory",
    )
    parser.add_argument(
        "--adaptive",
        dest="adaptive",
        action="store_true",
        default=None,
        help="force early stopping on for statistical scenarios (default: "
        "follow the scenario's declared stopping rule)",
    )
    parser.add_argument(
        "--no-adaptive",
        dest="adaptive",
        action="store_false",
        help="run the exhaustive grid and replay the stopping decisions "
        "(byte-identical tables, every run paid for)",
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """``run``'s scenario overrides plus the engine options."""
    parser.add_argument(
        "--trace-length",
        type=int,
        default=None,
        help="dynamic µops per simulation point (default: the scenario's)",
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=None,
        help="PinPoints phases per benchmark (max 10; default: the scenario's)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, help="trace names (default: the scenario's set)"
    )
    _add_engine_options(parser)


def _execute_spec(spec: ScenarioSpec, args: argparse.Namespace) -> str:
    """Validate ``spec``, run it on the args-configured engine, append the footer.

    User errors -- typo'd registry names, a figure kind on the wrong machine,
    sweep axes on a non-sweep kind, bad override fields -- exit cleanly
    instead of surfacing as raw tracebacks.
    """
    try:
        spec.validate()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"invalid scenario {spec.name!r}: {exc}")
    engine = _engine(args)
    try:
        report = run_scenario(spec, engine, adaptive=getattr(args, "adaptive", None))
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"cannot run scenario {spec.name!r}: {exc}")
    finally:
        # Read the footer before releasing the substrate: shutdown unlinks
        # the resident shared-memory segments (so nothing outlives the
        # command), while the cumulative footer counters survive it.
        footer = _engine_footer(engine)
        engine.shutdown()
    return report + footer


def _load_scenario(ref: str) -> ScenarioSpec:
    """Resolve ``run``'s positional: a ``.json`` file path or a built-in name.

    Explicit paths (``.json`` suffix or a path separator) always mean a file;
    otherwise built-in names win, so a stray ``figure5`` file or directory in
    the working directory cannot shadow the built-in scenario.
    """
    explicit_path = ref.endswith(".json") or os.path.sep in ref
    if not explicit_path and ref in SCENARIOS:
        return builtin_scenario(ref)
    if explicit_path or os.path.exists(ref):
        if not os.path.exists(ref):
            raise SystemExit(f"scenario file not found: {ref}")
        try:
            return ScenarioSpec.from_file(ref)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            raise SystemExit(f"invalid scenario file {ref}: {exc}")
    raise SystemExit(
        f"unknown scenario {ref!r}; built-ins: {', '.join(SCENARIOS.names())} "
        "(or pass a .json scenario file)"
    )


# -- commands -------------------------------------------------------------------------


def _overridden(spec: ScenarioSpec, **overrides) -> ScenarioSpec:
    """:func:`scenario_overrides`, with a bad value (``--trace-length 0``) exiting cleanly."""
    try:
        return scenario_overrides(spec, **overrides)
    except ValueError as exc:
        raise SystemExit(f"invalid scenario {spec.name!r}: {exc}")


def cmd_run(args: argparse.Namespace) -> str:
    """``run``: execute a built-in scenario or a JSON scenario file, overrides applied."""
    spec = _overridden(
        _load_scenario(args.scenario),
        benchmarks=_benchmarks(args),
        trace_length=args.trace_length,
        max_phases=args.phases,
    )
    return _execute_spec(spec, args)


def cmd_scenarios(args: argparse.Namespace) -> str:
    """``scenarios list``: the built-in named scenarios."""
    lines = []
    for name in SCENARIOS.names():
        spec = builtin_scenario(name)
        lines.append(f"{name:<26} [{spec.report}]  {spec.description}")
    return "\n".join(lines) + "\n"


def cmd_list_configs(args: argparse.Namespace) -> str:
    """``list-configs``: registered configurations, policies, partitioners, machines."""
    sections = [
        (
            "Table 3 configurations",
            [f"{c.name:<14} {c.description}" for c in TABLE3_CONFIGURATIONS.values()],
        ),
        ("steering policies", POLICIES.names()),
        ("partitioners", PARTITIONERS.names()),
        ("machine presets", MACHINES.names()),
        ("report kinds", REPORT_KINDS.names()),
    ]
    lines = []
    for title, entries in sections:
        lines.append(f"{title}:")
        lines.extend(f"  {entry}" for entry in entries)
        lines.append("")
    return "\n".join(lines)


def cmd_list_benchmarks(args: argparse.Namespace) -> str:
    """``list-benchmarks``: print the available trace names."""
    names = all_trace_names(args.suite)
    return "\n".join(names) + "\n"


def cmd_quickstart(args: argparse.Namespace) -> str:
    """``quickstart``: the ``quickstart`` scenario with ``--benchmark`` applied."""
    spec = _overridden(
        builtin_scenario("quickstart"),
        benchmarks=None if args.benchmark is None else [args.benchmark],
        trace_length=args.trace_length,
    )
    return _execute_spec(spec, args)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the virtual-cluster hybrid steering paper (IPPS 2008).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a built-in scenario or a .json scenario file"
    )
    run_parser.add_argument(
        "scenario",
        help="built-in scenario name (see 'scenarios list') or path to a scenario file",
    )
    _add_common_options(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    scenarios_parser = subparsers.add_parser("scenarios", help="inspect built-in scenarios")
    scenarios_parser.add_argument("action", nargs="?", choices=("list",), default="list")
    scenarios_parser.set_defaults(handler=cmd_scenarios)

    configs_parser = subparsers.add_parser(
        "list-configs", help="list registered configurations, policies, partitioners, machines"
    )
    configs_parser.set_defaults(handler=cmd_list_configs)

    list_parser = subparsers.add_parser("list-benchmarks", help="list available trace names")
    list_parser.add_argument("--suite", choices=("int", "fp", "all"), default="all")
    list_parser.set_defaults(handler=cmd_list_benchmarks)

    quick_parser = subparsers.add_parser("quickstart", help="five configurations on one benchmark")
    # Omitted options (None) take the quickstart scenario's values.
    quick_parser.add_argument("--benchmark", help="trace name (default: the scenario's)")
    quick_parser.add_argument(
        "--trace-length", type=int, help="µops per simulation point (default: the scenario's)"
    )
    _add_engine_options(quick_parser)
    quick_parser.set_defaults(handler=cmd_quickstart)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse arguments, run the selected command, print its report."""
    parser = build_parser()
    args = parser.parse_args(argv)
    print(args.handler(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
