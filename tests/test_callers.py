"""Every function, class and method in ``src/repro`` has a caller outside tests.

A definition that only tests call is code the reproduction does not run.
This guard parses ``src/repro`` and ``examples/`` with :mod:`ast` and fails
on any definition whose name nothing else references: a load of the name,
an attribute, an import, a keyword or an identifier-like string (``getattr``
targets, registry names).  Docstrings do not count as callers, and neither
do the tables of :func:`repro._lazy.lazy_exports`: exporting a name does not
call it.  A method counts only attribute, string and class-body references,
so a local variable that shares its name does not keep it alive.

Exempt are dunder methods, ``ast.NodeVisitor`` ``visit_*`` methods (the
visitor dispatches on the name) and definitions a registry decorator
registers (builders, policies, report kinds), which are reached by their
registered name.  Everything else without a caller must be deleted, moved
into ``tests/`` as a helper, or listed in :data:`ALLOWED` with the contract
that keeps it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: Definitions kept without a caller in ``src/`` or ``examples/``, each
#: mapped to the contract that keeps it.
ALLOWED = {
    "compute_golden_snapshot": "scripts/regenerate_golden_metrics.py rewrites "
    "tests/golden/ from it, and the golden tests compare against it",
    "paper_table1_claims": "the CI benchmarks job checks the paper's Table 1 "
    "claims with it (benchmarks/test_table1_complexity.py)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _skipped_nodes(tree):
    """Docstrings and ``lazy_exports(...)`` arguments: mentions, not callers."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            skipped.update(sub for arg in node.args for sub in ast.walk(arg))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(first.value)
    return skipped


def _class_body_names(tree):
    """Names loaded in class-level statements (``visit_X = _visit``)."""
    names = Counter()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for statement in cls.body:
                if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.update(
                        node.id for node in ast.walk(statement) if isinstance(node, ast.Name)
                    )
    return names


def _is_registered(node) -> bool:
    """Decorated with ``register_*(...)`` or ``<registry>.register(...)``."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(func, "id", None) or getattr(func, "attr", "")
        if name == "register" or name.startswith("register_"):
            return True
    return False


def _scan():
    """``(definitions, name references, member references)`` over src and examples."""
    names, members = Counter(), Counter()
    definitions = []
    for path in sorted(SRC.rglob("*.py")) + sorted(EXAMPLES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = _skipped_nodes(tree)
        members.update(_class_body_names(tree))
        for node in ast.walk(tree):
            if node in skipped:
                continue
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.alias):
                names[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Attribute):
                members[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg:
                members[node.arg] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER.match(node.value):
                    members[node.value] += 1
        if path.is_relative_to(SRC):
            for parent in ast.walk(tree):
                body = getattr(parent, "body", None)
                for node in body if isinstance(body, list) else ():
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        is_method = isinstance(parent, ast.ClassDef)
                        definitions.append((path.relative_to(ROOT), node, is_method))
    return definitions, names, members


def _uncalled():
    """``[(name, "path:line")]`` of every non-exempt definition without a caller."""
    definitions, names, members = _scan()
    uncalled = []
    for path, node, is_method in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("visit_") or _is_registered(node):
            continue
        if members[name] + (0 if is_method else names[name]) == 0:
            uncalled.append((name, f"{path}:{node.lineno}"))
    return uncalled


def test_every_definition_has_a_caller_outside_tests():
    uncalled = [f"{where} {name}" for name, where in _uncalled() if name not in ALLOWED]
    assert not uncalled, (
        "definitions that only tests call (delete them, move them into tests/, "
        f"or list them in ALLOWED with the contract that keeps them): {uncalled}"
    )


def test_allow_list_names_only_uncalled_definitions():
    """Each entry still names a definition that nothing else calls."""
    uncalled = {name for name, _ in _uncalled()}
    assert set(ALLOWED) <= uncalled
    assert all(contract.strip() for contract in ALLOWED.values())
