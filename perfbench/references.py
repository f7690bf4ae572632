"""Regenerate the reference report tables under ``reference/``.

Usage, from the repository root::

    python3 perfbench/references.py

Runs each workload's CLI command once with ``--no-cache`` (figure5, and the
sweep for every seed variant) and stores its tables with the footers
stripped.  Regenerate only for an intended change of simulated results.
"""

from __future__ import annotations

import subprocess
import sys

import run


def write_reference(workload: run.Workload) -> None:
    completed = subprocess.run(
        run.python("-m", "repro", *workload.argv, "--no-cache"),
        check=True,
        capture_output=True,
        text=True,
        env=run.child_env(),
        cwd=run.ROOT,
    )
    path = run.REFERENCES / f"{workload.reference}.txt"
    path.write_text(run.tables(completed.stdout), encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main() -> int:
    run.REFERENCES.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    write_reference(run.make_workload("fig5-cold", 0))
    for variant in range(run.SWEEP_VARIANTS):
        write_reference(run.make_workload("sweep-cold", variant))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
