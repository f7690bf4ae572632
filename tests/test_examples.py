"""The example scripts that drive the compile-time passes by hand still run.

``examples/compiler_pass_inspection.py`` and ``examples/custom_workload.py``
call the partitioner and annotation APIs directly (a pass's sid-indexed
columns, ``CompiledTrace.annotate_from``), so a change to those APIs must
keep them working.  Each runs as its own process, as a user would run it,
and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["compiler_pass_inspection.py", "custom_workload.py"])
def test_pass_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
