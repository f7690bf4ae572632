"""The determinism-lint rule set.

Each rule is an AST check tuned to one hazard class that has actually
threatened (or would threaten) this codebase's bit-identity contract: the
golden/determinism/parity suites assert that every execution substrate --
serial interpreter, vectorized kernel, process pools, shared-memory segments,
cache replay -- produces byte-for-byte identical metrics.  Dynamic tests
sample that contract on the workloads they happen to run; these rules check
the hazard *patterns* on every line of every file (see DESIGN.md §7).

Rules are deliberately syntactic and local: no type inference, no cross-file
dataflow.  Where a pattern has a sanctioned idiom (seeded ``default_rng``,
``sorted(...)`` around a set, env reads inside the ``resolve_*`` helper
family) the rule recognises it and stays silent; everything else is a
finding that must be fixed or explicitly suppressed with
``# detlint: ok <RULE> (rationale)`` on the offending line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "check_module",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule (the check lives in the visitor)."""

    rule_id: str
    name: str
    hazard: str


#: The rule catalogue, in rule-id order (DESIGN.md §7 documents each).
RULES: Tuple[Rule, ...] = (
    Rule(
        "DET101",
        "unseeded-random",
        "module-level RNG (`random.*`, legacy `np.random.*`, or "
        "`default_rng()` without a seed) draws from process-global state; "
        "results then depend on call order across the whole process",
    ),
    Rule(
        "DET102",
        "wall-clock",
        "wall-clock reads (`time.time`, `perf_counter`, `datetime.now`, ...) "
        "feeding anything but benchmark timing make results run-dependent",
    ),
    Rule(
        "DET103",
        "env-read",
        "`os.environ` reads outside the `resolve_*` helper family scatter "
        "configuration resolution and bypass its validation/warning rules",
    ),
    Rule(
        "DET104",
        "set-iteration",
        "iterating a set has interpreter/hash-seed-dependent order; any "
        "result-affecting accumulation or scheduling over it diverges "
        "between processes",
    ),
    Rule(
        "DET105",
        "unordered-reduction",
        "`sum()`/`reduce()` over a set (or keyed `min`/`max` with set ties) "
        "is a floating-point reduction in nondeterministic order",
    ),
    Rule(
        "DET106",
        "mutable-default",
        "mutable default arguments are shared across calls (and across the "
        "jobs/configs pickled from them); mutation leaks state between runs",
    ),
    Rule(
        "DET107",
        "id-key",
        "`id(obj)` as a cache/memo key is an address: unstable across "
        "processes and reusable after garbage collection",
    ),
    Rule(
        "DET108",
        "builtin-hash",
        "builtin `hash()` of str/bytes is salted per process "
        "(PYTHONHASHSEED); any key, order or decision derived from it "
        "diverges between workers",
    ),
    Rule(
        "DET109",
        "trace-column-write",
        "in-place writes to CompiledTrace or Program columns mutate state "
        "that may be shared (memo, shm segment) by sibling batches; columns "
        "must be replaced, never edited",
    ),
    Rule(
        "DET110",
        "fs-order",
        "directory listings (`os.listdir`, `glob`, `Path.iterdir`, ...) come "
        "back in filesystem order; iterate them sorted or the walk order is "
        "host-dependent",
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}

#: Legacy ``numpy.random`` module-level functions (global-state RNG).
_NP_RANDOM_LEGACY = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "normal",
        "uniform", "standard_normal", "bytes", "get_state", "set_state",
    }
)

#: Wall-clock reading callables, by module attribute name.
_TIME_CALLS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
    }
)
_DATETIME_CALLS = frozenset({"now", "utcnow", "today"})

#: Directory-listing callables whose result order is filesystem-dependent.
_FS_LIST_CALLS = frozenset({"listdir", "scandir", "glob", "iglob", "rglob", "iterdir"})

#: CompiledTrace and Program column attribute names (DET109): a trace is
#: shared by the memo, shm attachments and every configuration of a batch,
#: and a program with it, with the regions and DDGs memoised on it.  Kept in
#: sync with ``CompiledTrace.STORED_FIELDS`` and ``Program.COLUMNS`` by a
#: unit test rather than an import so the linter stays importable without
#: numpy.
TRACE_COLUMN_ATTRS = frozenset(
    {
        "sid", "block", "opclass", "address", "mispredicted",
        "vc_id", "chain_leader", "static_cluster",
        "src_offsets", "src_regs", "dest_offsets", "dest_regs",
        "block_start", "edge_src", "edge_dst", "edge_probability", "edge_back",
    }
)

#: Reductions whose value depends on operand order (DET105).
_ORDER_SENSITIVE_REDUCTIONS = frozenset({"sum", "fsum", "reduce"})

#: Reductions order-sensitive only under a tie-breaking ``key=`` (DET105).
_TIE_SENSITIVE_REDUCTIONS = frozenset({"min", "max"})

#: Set-operation methods that produce a new set (DET104/DET105 operands).
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Callables that consume an iterable in order (flagged when fed a set).
_ORDER_MATERIALISERS = frozenset({"list", "tuple", "enumerate"})


def _call_name(node: ast.AST) -> Optional[str]:
    """``f`` for a bare-name call ``f(...)``, else ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute chain rooted at a Name (``a.b.c``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    """One pass over a module, accumulating findings for every rule."""

    def __init__(self, path: str, module_name: str) -> None:
        self.path = path
        self.module_name = module_name
        self.findings: List[Finding] = []
        #: Local aliases of the modules the rules care about, seeded with the
        #: canonical names and extended by import-tracking (``import numpy as
        #: np`` makes ``np.random...`` resolvable).
        self._module_alias: Dict[str, str] = {}
        #: Names bound by ``from <module> import <name>`` to "module.name".
        self._from_imports: Dict[str, str] = {}
        #: Enclosing function-name stack (innermost last).
        self._func_stack: List[str] = []
        #: Whether the file belongs to the trace-IR package (DET109 owner).
        self._owns_trace_columns = "/uops/" in path.replace("\\", "/") or (
            module_name.startswith("repro.uops")
        )

    # ------------------------------------------------------------- helpers --
    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule_id, self.path, getattr(node, "lineno", 1), message)
        )

    def _resolves(self, node: ast.AST, dotted: str) -> bool:
        """Whether ``node`` is an attribute chain naming ``dotted``.

        Honours ``import x.y``, ``import x.y as z`` and ``from x import y``
        bindings seen earlier in the module.
        """
        return self._canonical_chain(node) == dotted

    def _in_function_matching(self, *prefixes: str) -> bool:
        return any(
            any(name.startswith(prefix) for prefix in prefixes)
            for name in self._func_stack
        )

    def _in_benchmark_context(self) -> bool:
        """Whether the current scope is benchmark code (wall clocks allowed).

        Timing the host is exactly what benchmarks do; the hazard DET102
        guards against is host time leaking into *simulated* results.
        Benchmark code is recognised by path (a ``benchmarks`` directory
        segment), by module name, or by an enclosing ``bench``/``timing``
        function.
        """
        if "benchmarks" in Path(self.path).parts:
            return True
        module_tail = self.module_name.rsplit(".", 1)[-1]
        if module_tail.startswith("bench") or module_tail.endswith("_bench"):
            return True
        return any("bench" in name or "timing" in name for name in self._func_stack)

    def _is_set_expr(self, node: ast.AST) -> bool:
        """Whether ``node`` syntactically produces a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        name = _call_name(node)
        if name in {"set", "frozenset"}:
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            # ``a - b`` / ``a & b`` on sets; only recognisable when at least
            # one side is itself syntactically a set.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _iterable_source(self, node: ast.AST) -> ast.AST:
        """Peel order-preserving wrappers (generators) off an iterable expr."""
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and len(node.generators) == 1:
            return node.generators[0].iter
        return node

    # ------------------------------------------------------------- imports --
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._module_alias[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self._module_alias[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- functions --
    def _visit_function(self, node) -> None:
        self._check_mutable_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_mutable_defaults(self, node) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or _call_name(default) in {"list", "dict", "set", "bytearray"}
            if mutable:
                self._report(
                    "DET106",
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and build inside the body",
                )

    # --------------------------------------------------------------- calls --
    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_call(node)
        self._check_clock_call(node)
        self._check_env_call(node)
        self._check_reduction_call(node)
        self._check_hash_call(node)
        self._check_key_method_call(node)
        self._check_materialised_set(node)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call) -> None:
        chain = self._canonical_chain(node.func)
        if chain is None:
            return
        if chain == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self._report(
                    "DET101",
                    node,
                    "`default_rng()` without a seed draws entropy from the "
                    "OS; pass the run's seed explicitly",
                )
            return
        parts = chain.split(".")
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] in _NP_RANDOM_LEGACY:
                self._report(
                    "DET101",
                    node,
                    f"legacy `np.random.{parts[2]}()` uses the process-global "
                    "RNG; use a seeded `np.random.default_rng(seed)` generator",
                )
            return
        if parts[0] == "random" and len(parts) == 2 and parts[1] != "Random":
            self._report(
                "DET101",
                node,
                f"module-level `random.{parts[1]}()` uses the process-global "
                "RNG; use a seeded `random.Random(seed)` instance",
            )

    def _check_clock_call(self, node: ast.Call) -> None:
        chain = self._canonical_chain(node.func)
        if chain is None:
            return
        parts = chain.split(".")
        is_clock = (parts[0] == "time" and len(parts) == 2 and parts[1] in _TIME_CALLS) or (
            len(parts) >= 2 and parts[-2] == "datetime" and parts[-1] in _DATETIME_CALLS
        )
        if is_clock and not self._in_benchmark_context():
            self._report(
                "DET102",
                node,
                f"wall-clock read `{chain}()` outside benchmark code; "
                "simulated results must not depend on host time",
            )

    def _check_env_call(self, node: ast.Call) -> None:
        chain = self._canonical_chain(node.func)
        if chain in {"os.environ.get", "os.getenv"} and not self._in_resolver():
            self._report(
                "DET103",
                node,
                f"`{chain}()` outside the `resolve_*` helper family; route "
                "environment configuration through one validated resolver",
            )

    def _check_reduction_call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name is None and isinstance(node.func, ast.Attribute):
            chain = self._canonical_chain(node.func)
            if chain in {"math.fsum", "functools.reduce"}:
                name = chain.split(".")[-1]
        if name is None or not node.args:
            return
        arg_index = 1 if name == "reduce" and len(node.args) > 1 else 0
        source = self._iterable_source(node.args[arg_index])
        if not self._is_set_expr(source):
            return
        if name in _ORDER_SENSITIVE_REDUCTIONS:
            self._report(
                "DET105",
                node,
                f"`{name}()` over a set reduces in hash order; sort the "
                "operands (or reduce over the ordered source collection)",
            )
        elif name in _TIE_SENSITIVE_REDUCTIONS and any(
            kw.arg == "key" for kw in node.keywords
        ):
            self._report(
                "DET105",
                node,
                f"keyed `{name}()` over a set breaks ties in hash order; "
                "sort the operands first",
            )

    def _check_hash_call(self, node: ast.Call) -> None:
        if _call_name(node) == "hash" and "__hash__" not in self._func_stack:
            self._report(
                "DET108",
                node,
                "builtin `hash()` is salted per process (PYTHONHASHSEED); "
                "derive keys from `hashlib` digests of canonical encodings",
            )

    def _check_key_method_call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"get", "setdefault", "pop"}
            and node.args
            and self._contains_id_call(node.args[0])
        ):
            self._report(
                "DET107",
                node,
                f"`id(...)` used as a `.{node.func.attr}()` key; object "
                "addresses are process-local and recycled by the GC",
            )

    def _check_materialised_set(self, node: ast.Call) -> None:
        name = _call_name(node)
        is_join = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if (name in _ORDER_MATERIALISERS or is_join) and node.args:
            source = self._iterable_source(node.args[0])
            if self._is_set_expr(source):
                label = name or "str.join"
                self._report(
                    "DET104",
                    node,
                    f"`{label}()` materialises a set in hash order; wrap the "
                    "set in `sorted(...)`",
                )

    # -------------------------------------------------- subscripts & loops --
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._contains_id_call(node.slice):
            self._report(
                "DET107",
                node,
                "`id(...)` used as a subscript key; object addresses are "
                "process-local and recycled by the GC",
            )
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._check_trace_column_store(node)
        if (
            self._resolves(node.value, "os.environ")
            and isinstance(node.ctx, ast.Load)
            and not self._in_resolver()
        ):
            self._report(
                "DET103",
                node,
                "`os.environ[...]` read outside the `resolve_*` helper "
                "family; route environment configuration through one "
                "validated resolver",
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._check_trace_column_store(node.target)
        self.generic_visit(node)

    def _check_trace_column_store(self, node: ast.Subscript) -> None:
        if self._owns_trace_columns:
            return
        if (
            isinstance(node.value, ast.Attribute)
            and node.value.attr in TRACE_COLUMN_ATTRS
        ):
            self._report(
                "DET109",
                node,
                f"in-place write to trace column `.{node.value.attr}[...]`; "
                "stored columns may be shared (memo/artifact/shm) -- build a "
                "new array and replace the attribute instead",
            )

    def _check_loop_iter(self, iter_node: ast.AST) -> None:
        source = self._iterable_source(iter_node)
        if self._is_set_expr(source):
            self._report(
                "DET104",
                source,
                "iteration over a set visits elements in hash order; wrap it "
                "in `sorted(...)` (or keep an ordered collection)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_loop_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop_iter(node.iter)
        self.generic_visit(node)

    # Comprehensions: a list/dict built over a set inherits its hash order
    # (dict insertion order included), so those are flagged.  A *set*
    # comprehension has no order to corrupt, and a bare generator
    # expression's order-sensitivity belongs to whatever consumes it (the
    # call checks peel one generator level), so both stay silent here.
    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            self._check_loop_iter(generator.iter)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        for generator in node.generators:
            self._check_loop_iter(generator.iter)
        self.generic_visit(node)

    # ------------------------------------------------------- fs-order walk --
    def visit_Compare(self, node: ast.Compare) -> None:
        if (
            any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and self._contains_id_call(node.left)
        ):
            self._report(
                "DET107",
                node,
                "`id(...)` used in a membership test; object addresses are "
                "process-local and recycled by the GC",
            )
        self.generic_visit(node)

    # --------------------------------------------------------- more checks --
    def _canonical_chain(self, node: ast.AST) -> Optional[str]:
        """Dotted chain with import aliases resolved to canonical modules."""
        chain = _attr_chain(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        real = self._module_alias.get(head)
        if real is not None and real != head:
            head = real
        else:
            bound = self._from_imports.get(head)
            if bound is not None:
                head = bound
        canonical = head + ("." + rest if rest else "")
        # ``np`` is overwhelmingly numpy in this repo even without the import
        # in view (fixtures, doctest snippets).
        if canonical.startswith("np.random"):
            canonical = "numpy" + canonical[2:]
        return canonical

    def _in_resolver(self) -> bool:
        return self._in_function_matching("resolve_", "_resolve")

    @staticmethod
    def _contains_id_call(node: ast.AST) -> bool:
        return any(_call_name(sub) == "id" for sub in ast.walk(node))


def _fs_order_findings(tree: ast.Module, visitor: _Visitor) -> Iterator[Finding]:
    """DET110: directory listings iterated (or materialised) unsorted.

    Separate pass: it needs the *consumer* context (loop iter / list() arg),
    and the sanctioned idiom is any ``sorted(...)`` wrapper in between.
    """
    consumers: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            consumers.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            # Set comprehensions are order-insensitive sinks; generator
            # expressions defer to their consumer (handled via the call arg).
            consumers.extend(generator.iter for generator in node.generators)
        elif isinstance(node, ast.Call) and _call_name(node) in {"list", "tuple", "enumerate"}:
            if node.args:
                consumers.append(node.args[0])
    for consumer in consumers:
        source = visitor._iterable_source(consumer)
        if not isinstance(source, ast.Call):
            continue
        chain = visitor._canonical_chain(source.func)
        attr = chain.rsplit(".", 1)[-1] if chain else (
            source.func.attr if isinstance(source.func, ast.Attribute) else None
        )
        if attr in _FS_LIST_CALLS:
            yield Finding(
                "DET110",
                visitor.path,
                source.lineno,
                f"`{attr}()` results iterated in filesystem order; wrap the "
                "listing in `sorted(...)`",
            )


def check_module(source: str, path: str, module_name: str = "") -> List[Finding]:
    """All findings for one module's source text (before suppressions apply).

    Raises :class:`SyntaxError` when the source does not parse; the caller
    turns that into its own diagnostics channel.
    """
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path, module_name or path)
    visitor.visit(tree)
    findings = list(visitor.findings)
    findings.extend(_fs_order_findings(tree, visitor))
    seen: Set[Tuple[str, int, str]] = set()
    unique: List[Finding] = []
    for finding in sorted(findings, key=lambda f: (f.line, f.rule)):
        key = (finding.rule, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique
