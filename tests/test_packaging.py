"""Packaging: project metadata and the import-time footprint of the CLI.

* ``pyproject.toml`` carries the metadata ``setup.py`` defers to, and its
  version is the package's own ``repro.__version__``.
* ``import repro.cli`` loads no optional graph library: every CLI start pays
  for what the import pulls in, and ``networkx`` alone cost about 0.1 s.
  Nor does it load the lint driver, which has its own front end.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_metadata_matches_package():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["dependencies"] == ["numpy"]


def test_cli_import_leaves_networkx_unloaded():
    code = "import sys, repro.cli; sys.exit(int('networkx' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert result.returncode == 0, "import repro.cli pulled in networkx"


def test_cli_import_leaves_the_lint_driver_unloaded():
    code = (
        "import sys, repro.cli; "
        "sys.exit(int('repro.analysis.framework' in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert result.returncode == 0, "import repro.cli pulled in the lint driver"
