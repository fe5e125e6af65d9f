"""``reprolint`` — the ``repro lint`` analyzer: one parse per file, local rules.

:func:`lint_paths` reads and parses every file once and judges one
statement at a time (catalogue in :mod:`repro.analysis.rules`):

* **HYG2xx** — locking and error-handling hygiene, everywhere: callers may
  drive a ``Client`` from their own threads;
* **DET103** and **DET105** — in a *chaincode module* (a file under a
  ``chaincodes/`` directory or defining a ``Chaincode`` subclass): a read
  of the environment or of a clock, and ``json.dumps`` without
  ``sort_keys``.

Whether the system writes the same bytes for the same input is not proved
here but checked by running it twice (``tests/differential.py``); DET103
covers the reads two such runs can agree on — a variable neither run sets,
a clock compared with an instant neither run's clock has passed (DESIGN.md,
"Determinism is checked by running twice").

The rules resolve imports through their aliases but infer no types, so
they aim at the unambiguous spellings of each bug class and accept
``# reprolint: disable=HYG204``-style pragmas (naming a live rule) for the
rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.errors import AnalysisError

from .rules import Finding, parse_pragmas

_CONTAINER_CONSTRUCTORS = {
    "dict", "list", "set", "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque", "defaultdict", "OrderedDict",
    "Counter", "deque",
}

# DET103: what a chaincode must not read, by the dotted name it resolves to.
_AMBIENT = {
    **dict.fromkeys(("os.environ", "os.environb", "os.getenv", "os.getenvb"),
                    "the environment"),
    **dict.fromkeys((
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
        "time.clock_gettime", "time.clock_gettime_ns", "datetime.datetime.now",
        "datetime.datetime.utcnow", "datetime.datetime.today", "datetime.date.today",
    ), "a clock"),
}


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, chaincode: bool) -> None:
        self.path = path
        self.chaincode = chaincode
        self.findings: list[Finding] = []
        self.aliases: dict[str, str] = {}
        self.module_containers: set[str] = set()
        # `global` names per enclosing function; the module is scopes[0].
        self.scopes: list[set[str]] = [set()]
        self._lock_depth = 0  # nesting depth of `with <lock>:` blocks

    # -- helpers ----------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding.for_rule(
                rule_id, self.path,
                getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
                message,
            )
        )

    def _dotted(self, node: ast.expr) -> str | None:
        """Resolve an attribute/name chain to its aliased dotted origin."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def _in_function(self) -> bool:
        return len(self.scopes) > 1

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- scopes ------------------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self.scopes.append(set())
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        # Writes lexically inside `with <lock>:` are what HYG204's fix hint
        # asks for — don't flag them.
        locks = sum(1 for item in node.items if self._looks_like_lock(item.context_expr))
        self._lock_depth += locks
        self.generic_visit(node)
        self._lock_depth -= locks

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Global(self, node: ast.Global) -> None:
        self.scopes[-1].update(node.names)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._in_function() and self._is_container_value(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module_containers.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            isinstance(node.target, ast.Name)
            and node.value is not None
            and not self._in_function()
            and self._is_container_value(node.value)
        ):
            self.module_containers.add(node.target.id)
        self.generic_visit(node)

    def _is_container_value(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            dotted = self._dotted(value.func)
            return dotted in _CONTAINER_CONSTRUCTORS
        return False

    # -- DET103: ambient reads in chaincode ------------------------------

    def _check_ambient(self, node: ast.Attribute | ast.Name) -> None:
        if self.chaincode and isinstance(node.ctx, ast.Load):
            dotted = self._dotted(node)
            if dotted in _AMBIENT:
                self._emit("DET103", node, f"{dotted} reads {_AMBIENT[dotted]} in chaincode")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_ambient(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_ambient(node)

    # -- DET105 and HYG201: calls -----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.chaincode
            and self._dotted(node.func) == "json.dumps"
            and not self._has_sort_keys(node)
        ):
            self._emit(
                "DET105", node,
                "json.dumps without sort_keys=True produces order-dependent bytes",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and self._looks_like_lock(node.func.value)
            and not self._is_try_lock(node)
        ):
            self._emit(
                "HYG201", node,
                "explicit lock.acquire(); the matching release() can be skipped "
                "by an exception",
            )
        self.generic_visit(node)

    @staticmethod
    def _has_sort_keys(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "sort_keys":
                return not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
            if kw.arg is None:  # **kwargs: give the benefit of the doubt
                return True
        return False

    @staticmethod
    def _looks_like_lock(node: ast.expr) -> bool:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        return name is not None and "lock" in name.lower()

    @staticmethod
    def _is_try_lock(node: ast.Call) -> bool:
        if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value is False:
            return True
        for kw in node.keywords:
            if kw.arg == "blocking" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return True
        return False

    # -- HYG204: module-level shared state --------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id in self.module_containers
            and self._in_function()
            and node.value.id not in self.scopes[-1]
            and self._lock_depth == 0
        ):
            self._emit(
                "HYG204", node,
                f"write to module-level container {node.value.id!r} inside a function",
            )
        self.generic_visit(node)

    # -- HYG202: swallowed exceptions -------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
        )
        body_is_noop = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body
        )
        if broad and body_is_noop:
            self._emit(
                "HYG202", node,
                "broad except with an empty body swallows the error",
            )
        self.generic_visit(node)

    # -- HYG203: mutable default arguments --------------------------------

    def _check_mutable_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(default, ast.Call)
                and self._dotted(default.func) in _CONTAINER_CONSTRUCTORS
            ):
                self._emit(
                    "HYG203", default,
                    f"mutable default argument in {node.name}()",
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def is_chaincode_module(path: str, tree: ast.Module) -> bool:
    """A module whose code runs inside endorsement simulation."""
    posix = Path(path).as_posix()
    if "/chaincodes/" in posix or posix.startswith("chaincodes/"):
        return True
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                if base_name == "Chaincode":
                    return True
    return False


@dataclass
class LintReport:
    """What ``repro lint`` found in a set of files, after pragmas."""

    findings: list[Finding]
    stats: dict   # modules, suppressed


def _lint_module(source: str, path: str) -> tuple[list[Finding], int]:
    """The findings pragmas keep in one module, and how many they dropped."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    pragmas = parse_pragmas(source, path)
    visitor = _Visitor(path, is_chaincode_module(path, tree))
    visitor.visit(tree)
    kept = [f for f in visitor.findings if pragmas.allows(f.rule_id, f.line)]
    return kept, len(visitor.findings) - len(kept)


def _display_path(path: Path) -> str:
    """Stable repo-relative posix path so baselines survive checkout moves."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: list[str | Path]) -> LintReport:
    """Lint every ``.py`` file under the given files/directories, each file
    once however many of the paths name it; ``stats["modules"]`` is the
    number of files linted."""
    linted: set[Path] = set()
    findings: list[Finding] = []
    suppressed = 0
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
        elif root.is_file():
            files = [root]
        else:
            raise AnalysisError(f"lint target does not exist: {root}")
        for file in files:
            resolved = file.resolve()
            if resolved in linted:
                continue
            linted.add(resolved)
            try:
                source = file.read_text(encoding="utf-8")
            except OSError as exc:
                raise AnalysisError(f"cannot read {file}: {exc}") from exc
            kept, dropped = _lint_module(source, _display_path(file))
            findings.extend(kept)
            suppressed += dropped
    findings.sort(key=_report_order)
    return LintReport(findings, {"modules": len(linted), "suppressed": suppressed})


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text, shown as *path*."""
    kept, _ = _lint_module(source, path)
    return sorted(kept, key=_report_order)


def _report_order(f: Finding) -> tuple:
    return (f.path, f.line, f.col, f.rule_id, f.message)
