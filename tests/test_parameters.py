"""Every defaulted parameter in ``src/repro`` is set by some call.

A parameter with a default that no call ever passes is a setting with one
value: the default is the only path the reproduction runs, and the others
are code nobody exercises.  This guard parses ``src/repro`` and
``examples/`` with :mod:`ast` and fails on any defaulted parameter of a
function, method or class that no call there passes, by keyword, by
position, or through ``*args`` / ``**kwargs``.

Calls resolve by name, as in ``tests/test_callers.py``: ``f(...)`` and
``obj.f(...)`` call every definition named ``f`` (so a call of one
same-named method counts for all of them); calling a class, or
``cls(...)`` and ``super().__init__(...)`` inside one, calls the
``__init__`` it defines or inherits from a base class in ``src/repro``;
``TABLE[key](...)`` calls every function a module-level dict literal
``TABLE`` maps to.  Exempt are dunder
methods other than ``__init__`` (their callers are the language) and
registry-decorated builders, whose parameters a scenario's JSON sets by
name.  Every other defaulted parameter without a caller must be deleted or
listed in :data:`ALLOWED` with the contract that keeps it.

Dataclass fields are not covered: scenario JSON and machine overrides set
most of them by name through ``**`` calls (``with_overrides``), which a
name-based scan cannot follow to the class.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from tests.test_callers import EXAMPLES, ROOT, SRC, _is_registered

#: Defaulted parameters kept although no call in ``src/`` or ``examples/``
#: sets them, as ``"definition(parameter=)"`` mapped to the contract that
#: keeps each.
ALLOWED = {
    "main(argv=)": "cli.main and analysis.framework.main are console entry points: "
    "the installed script calls them bare (argparse reads sys.argv), tests pass argv",
    "ClusteredProcessor.__init__(kernel=)": "runs follow $REPRO_KERNEL; the kernel-parity "
    "suites pin both kernels side by side in one process, which the contract that the "
    "kernels are bit-identical rests on",
    "SegmentRegistry.__init__(max_resident=)": "the opt-in shared-memory path goes whole "
    "with ROADMAP item 3 once perfbench/ stops naming SegmentRegistry; until then "
    "tests/test_engine_shm.py pins its eviction at small caps",
}


def _dict_tables(tree):
    """``{name: [function names]}`` of the module-level dict literals of ``tree``."""
    tables = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        if isinstance(value, ast.Dict):
            functions = [v.id for v in value.values if isinstance(v, ast.Name)]
            for target in targets:
                if isinstance(target, ast.Name) and functions:
                    tables[target.id] = functions
    return tables


def _is_static(node) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)


def _defaulted(node, is_method):
    """``[(name, positional index or None)]`` of ``node``'s defaulted parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = 1 if is_method and not _is_static(node) else 0
    first_default = len(positional) - len(args.defaults)
    found = [
        (arg.arg, index - bound)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    found += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]
    return found


def _scan():
    """``(definitions, calls)``: each definition with defaulted parameters as
    ``(label, callee name, [(parameter, index)], "path:line")``, and per
    callee name the ``ast.Call`` nodes that reach it."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py")) + sorted(EXAMPLES.glob("*.py"))
    }
    tables, bases, inits = {}, {}, set()
    for tree in trees.values():
        tables.update(_dict_tables(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bases[cls.name] = [getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases]
                if any(
                    isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in cls.body
                ):
                    inits.add(cls.name)

    def init_owner(name):
        """The class whose ``__init__`` a call of class ``name`` runs."""
        seen = set()
        while name in bases and name not in inits and name not in seen:
            seen.add(name)
            name = next((b for b in bases[name] if b in bases), None)
        return name

    calls = defaultdict(list)
    definitions = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                # ``cls(...)`` and ``super().__init__(...)`` inside a class body.
                base = next((b for b in bases[node.name] if b in bases), None)
                for call in ast.walk(node):
                    func = getattr(call, "func", None)
                    if getattr(func, "id", None) == "cls":
                        calls[init_owner(node.name)].append(call)
                    elif getattr(func, "attr", None) == "__init__" and base is not None:
                        calls[init_owner(base)].append(call)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                names = {func.id, init_owner(func.id)}
            elif isinstance(func, ast.Attribute):
                names = {func.attr}
            elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
                names = set(tables.get(func.value.id, ()))
            else:
                names = set()
            for name in names:
                calls[name].append(node)
        if not path.is_relative_to(SRC):
            continue
        for parent in ast.walk(tree):
            body = getattr(parent, "body", None)
            for node in body if isinstance(body, list) else ():
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                is_method = isinstance(parent, ast.ClassDef)
                name = node.name
                if name.startswith("__") and name.endswith("__") and name != "__init__":
                    continue
                if _is_registered(node):
                    continue
                callee = parent.name if name == "__init__" else name
                label = f"{parent.name}.{name}" if is_method else name
                params = _defaulted(node, is_method)
                if params:
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    definitions.append((label, callee, params, where))
    return definitions, calls


def _passes(call, parameter, index) -> bool:
    """Whether ``call`` sets ``parameter`` (positional ``index``, or keyword-only)."""
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg == parameter:
            return True
    if index is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > index


def _unset():
    """``[("label(parameter=)", "path:line")]`` of every defaulted parameter no call sets."""
    definitions, calls = _scan()
    return [
        (f"{label}({parameter}=)", where)
        for label, callee, params, where in definitions
        for parameter, index in params
        if not any(_passes(call, parameter, index) for call in calls[callee])
    ]


def test_every_defaulted_parameter_is_set_by_a_call():
    unset = [f"{where} {key}" for key, where in _unset() if key not in ALLOWED]
    assert not unset, (
        "defaulted parameters that no call in src/ or examples/ sets (delete them, "
        f"or list them in ALLOWED with the contract that keeps them): {unset}"
    )


def test_allow_list_names_only_unset_parameters():
    """Each entry still names a parameter that no call sets."""
    unset = {key for key, _ in _unset()}
    assert set(ALLOWED) <= unset
    assert all(contract.strip() for contract in ALLOWED.values())
