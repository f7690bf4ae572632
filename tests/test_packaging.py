"""Packaging: project metadata and the import-time footprint of the CLI.

* ``pyproject.toml`` carries the metadata ``setup.py`` defers to, and its
  version is the package's own ``repro.__version__``.
* ``import repro.cli`` loads no optional graph library: every CLI start pays
  for what the import pulls in, and ``networkx`` alone cost about 0.1 s.
  Nor does it load the lint driver, which has its own front end.
* ``python -m repro.analysis`` loads no numpy, so the lint jobs need none.
* A figure replayed from the result cache loads neither numpy nor the
  simulator nor the worker pool (``concurrent.futures``, ``logging``) nor
  the adaptive scheduler nor the partitioning algorithms: package exports
  resolve lazily, each module imports numpy where it touches arrays, and
  the partitioner modules import their algorithms when a region is
  partitioned.  Validating figure5 (the set-up path) loads none of them
  either, although it builds every policy and partitioner.
* ``perfbench/layers.py`` can still wrap every name it patches.
* Every ``__all__`` name of every ``repro`` package still resolves.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

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


def test_lint_driver_leaves_numpy_unloaded():
    """CI's lint jobs install no numpy: ``python -m repro.analysis`` must not need it."""
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro.analysis', 'src']\n"
        "try:\n"
        "    runpy.run_module('repro.analysis', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n"
        "sys.exit(int('numpy' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, "python -m repro.analysis pulled in numpy"


#: Modules a cache replay must not load: they are what makes a cold start slow.
REPLAY_UNLOADED = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "logging",
    "repro.cluster.kernel",
    "repro.uops.compiled",
    "repro.engine.adaptive",
    "repro.scenarios.adaptive",
    "repro.partition.multilevel",
    "repro.partition.chains",
    "repro.analysis.slack",
    "repro.analysis.criticality",
    "repro.program.ddg",
    "repro.program.regions",
)


def test_validating_figure5_leaves_the_replay_unloaded_modules_unloaded():
    """The set-up path builds every policy and partitioner but runs no pass."""
    code = (
        "import sys, repro.cli\n"
        "from repro.scenarios.builtin import builtin_scenario\n"
        "builtin_scenario('figure5').validate()\n"
        "found = [name for name in {unloaded!r} if name in sys.modules]\n"
        "sys.exit(f'validate loaded {{found}}' if found else 0)\n"
    ).format(unloaded=REPLAY_UNLOADED)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_perfbench_wrappers_resolve_after_import_repro_cli():
    """``perfbench/layers.py`` wraps names after ``import repro.cli``: each must exist."""
    code = (
        "import sys\n"
        "sys.path.insert(0, {perfbench!r})\n"
        "import repro.cli, layers\n"
        "layers.install()\n"
        "from repro.engine import parallel\n"
        "assert parallel.as_completed.__wrapped__.__module__ == 'repro.engine.parallel'\n"
        "assert parallel.execute_batch.__wrapped__.__name__ == 'execute_batch'\n"
        "assert parallel._prepare_job.__wrapped__.__name__ == '_prepare_job'\n"
    ).format(perfbench=str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

REPLAY_ARGV = [
    "run", "figure5", "--benchmarks", "164.gzip-1", "178.galgel", "--trace-length", "600",
]


def _tables(report: str) -> str:
    return "".join(line for line in report.splitlines(True) if not line.startswith("["))


def test_cache_replay_leaves_numpy_and_the_simulator_unloaded(tmp_path, capsys):
    cache_argv = REPLAY_ARGV + ["--cache-dir", str(tmp_path / "cache")]
    assert main(cache_argv) == 0
    filled = capsys.readouterr().out
    code = (
        "import sys\n"
        "UNLOADED = {unloaded!r}\n"
        "def loaded(stage):\n"
        "    found = [name for name in UNLOADED if name in sys.modules]\n"
        "    if found:\n"
        "        sys.exit(f'{{stage}} loaded {{found}}')\n"
        "import repro\n"
        "loaded('import repro')\n"
        "import repro.cli\n"
        "loaded('import repro.cli')\n"
        "repro.cli.main({argv!r})\n"
        "loaded('the replay')\n"
    ).format(unloaded=REPLAY_UNLOADED, argv=cache_argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "hits=10 misses=0" in result.stdout
    assert _tables(result.stdout) == _tables(filled)


def _packages():
    src = ROOT / "src"
    return sorted(
        ".".join(path.parent.relative_to(src).parts)
        for path in (src / "repro").rglob("__init__.py")
    )


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing for {missing}"


def test_all_lists_eager_names_then_lazy_names_in_map_order():
    from repro._lazy import lazy_exports

    _, _, names = lazy_exports("pkg", {".a": ("x", "y"), ".b": ("z",)}, eager=("v",))
    assert names == ["v", "x", "y", "z"]
