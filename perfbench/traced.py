"""One traced in-process run of ``python -m repro <argv>``.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/traced.py OUT.json LAUNCH_TIME -- run figure5 --cache-dir DIR

``LAUNCH_TIME`` is the caller's ``time.time()`` just before it started this
process, so ``startup.import_s`` covers interpreter start plus
``import repro.cli``.  The CLI's report (normally printed) and the layer
records of :mod:`layers` are written to ``OUT.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv) -> int:
    out_path, launch = argv[0], float(argv[1])
    cli_argv = argv[argv.index("--") + 1 :]
    import repro.cli

    imported = time.time()
    import layers

    rec = layers.install()
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        exit_code = repro.cli.main(cli_argv)
    record = rec.export()
    record.update(
        {
            "startup_import_s": imported - launch,
            "exit_code": exit_code,
            "report": report.getvalue(),
            "worker_totals": rec.worker_totals,
            "parallel_window_s": rec.parallel_window_s,
            "max_workers": rec.max_workers,
        }
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
