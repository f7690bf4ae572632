"""Set-up cost of one ``repro`` CLI command, measured from outside as a process.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/setup_probe.py run figure5 --jobs 2 --cache-dir DIR

Does what ``python -m repro <argv>`` does before its first simulation --
interpreter start, ``import repro``, argument parsing, scenario and engine
construction -- and exits.  The caller times the process from launch to exit.
"""

from __future__ import annotations

import sys

from repro.cli import build_parser
from repro.engine import ParallelRunner, ResultCache
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import scenario_overrides


def main(argv) -> int:
    args = build_parser().parse_args(argv)
    spec = scenario_overrides(
        builtin_scenario(args.scenario),
        benchmarks=args.benchmarks or None,
        trace_length=args.trace_length,
        max_phases=args.phases,
    )
    spec.validate()
    engine = ParallelRunner(
        max_workers=args.jobs,
        cache=ResultCache(args.cache_dir),
        shared_memory=args.shared_mem,
    )
    engine.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
