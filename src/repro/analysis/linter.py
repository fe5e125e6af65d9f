"""``reprolint`` — AST-based determinism and hygiene analyzer.

Two rule families (catalogue in :mod:`repro.analysis.rules`):

* **DET1xx** fire only in *chaincode modules* — files under a
  ``chaincodes/`` directory or defining a ``Chaincode`` subclass. Chaincode
  is simulated independently by every endorser, so any ambient input (wall
  clock, RNG, environment, uuid, hash order) or non-canonical encoding
  diverges the rwsets and voids the endorsement-policy comparison.
* **HYG2xx** fire everywhere — locking and error-handling hygiene (callers
  may drive a ``Client`` from their own threads).

The analyzer is purely syntactic: imports are resolved through their
aliases (``import numpy.random as nr`` still trips DET102) but no types are
inferred, so the rules aim at the unambiguous spellings of each bug class
and accept ``# reprolint: disable=RULE`` pragmas for the rest.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

from repro.errors import AnalysisError

from .rules import Finding, parse_pragmas

# Dotted call targets that read ambient state, per rule. Public: the flow
# analyzer (repro.analysis.flow.taint) seeds its taint sources from these
# same tables, so a spelling added here is caught both locally (DET1xx in
# chaincode) and interprocedurally (FLOW5xx into any consensus sink).
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns", "time.localtime",
    "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
RANDOM_ROOTS = ("random.", "secrets.", "numpy.random.")
RANDOM_CALLS = frozenset({"os.urandom"})
ENV_CALLS = frozenset({"os.getenv", "os.environb.get"})
ENV_ATTRS = frozenset({"os.environ", "os.environb"})
UUID_CALLS = frozenset({"uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5"})

# Backwards-compatible private aliases (internal call sites below).
_CLOCK_CALLS = CLOCK_CALLS
_RANDOM_ROOTS = RANDOM_ROOTS
_ENV_CALLS = ENV_CALLS
_ENV_ATTRS = ENV_ATTRS
_UUID_CALLS = UUID_CALLS
_SET_CONSTRUCTORS = {"set", "frozenset"}
_MUTATING_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "remove", "discard", "insert", "sort",
}
_CONTAINER_CONSTRUCTORS = {
    "dict", "list", "set", "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque", "defaultdict", "OrderedDict",
    "Counter", "deque",
}

# Float presentation types in a format spec / printf string.
_FLOAT_SPEC_CHARS = "feEgG%"


def _is_float_format_spec(spec: str) -> bool:
    spec = spec.strip()
    return bool(spec) and spec[-1] in _FLOAT_SPEC_CHARS


def _printf_has_float(fmt: str) -> bool:
    i = 0
    while True:
        i = fmt.find("%", i)
        if i < 0 or i + 1 >= len(fmt):
            return False
        j = i + 1
        while j < len(fmt) and fmt[j] in "-+ #0123456789.*":
            j += 1
        if j < len(fmt) and fmt[j] in "feEgG":
            return True
        i = j + 1


class _Scope:
    """One function (or module) body: tracked locals and globals."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.global_names: set[str] = set()


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, chaincode: bool) -> None:
        self.path = path
        self.chaincode = chaincode
        self.findings: list[Finding] = []
        self.aliases: dict[str, str] = {}
        self.module_containers: set[str] = set()
        self.scopes: list[_Scope] = [_Scope()]
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
        self.scopes.append(_Scope())
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
        self.scopes[-1].global_names.update(node.names)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        is_container = self._is_container_value(node.value)
        is_set = self._is_set_value(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if not self._in_function() and is_container:
                    self.module_containers.add(target.id)
                if is_set:
                    self.scopes[-1].set_names.add(target.id)
                elif target.id in self.scopes[-1].set_names:
                    self.scopes[-1].set_names.discard(target.id)
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

    def _is_set_value(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            dotted = self._dotted(value.func)
            return dotted in _SET_CONSTRUCTORS
        return False

    # -- DET: calls into ambient state ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if self.chaincode and dotted is not None:
            if dotted in _CLOCK_CALLS:
                self._emit("DET101", node, f"call to {dotted}() reads the wall clock")
            elif (
                dotted.startswith(_RANDOM_ROOTS)
                or dotted in ("random", "secrets")
                or dotted in RANDOM_CALLS
            ):
                self._emit("DET102", node, f"call to {dotted}() is a nondeterministic source")
            elif dotted in _ENV_CALLS:
                self._emit("DET103", node, f"call to {dotted}() reads the process environment")
            elif dotted in _UUID_CALLS:
                self._emit("DET104", node, f"call to {dotted}() generates a per-process uuid")
            elif dotted == "json.dumps" and not self._has_sort_keys(node):
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
        if self.chaincode:
            self._check_format_call(node)
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

    def _check_format_call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, str)
        ):
            fmt = node.func.value.value
            for seg in fmt.split("{")[1:]:
                field = seg.split("}")[0]
                if ":" in field and _is_float_format_spec(field.rsplit(":", 1)[1]):
                    self._emit(
                        "DET107", node,
                        f"float presentation format {field.rsplit(':', 1)[1]!r} in state value",
                    )
                    break

    # -- DET103: os.environ attribute access ------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.chaincode:
            dotted = self._dotted(node)
            if dotted in _ENV_ATTRS:
                self._emit("DET103", node, f"{dotted} read in chaincode")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id in self.module_containers
            and self._in_function()
            and node.value.id not in self.scopes[-1].global_names
            and self._lock_depth == 0
        ):
            self._emit(
                "HYG204", node,
                f"write to module-level container {node.value.id!r} inside a function",
            )
        self.generic_visit(node)

    # -- DET106: iteration over sets --------------------------------------

    def _check_iter(self, iter_node: ast.expr, node: ast.AST) -> None:
        if not self.chaincode:
            return
        if self._is_set_value(iter_node):
            self._emit("DET106", node, "iteration over a set literal (hash order)")
        elif (
            isinstance(iter_node, ast.Name)
            and iter_node.id in self.scopes[-1].set_names
        ):
            self._emit(
                "DET106", node,
                f"iteration over set {iter_node.id!r} (hash order)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iter(comp.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- DET107: float formatting -----------------------------------------

    def visit_FormattedValue(self, node: ast.FormattedValue) -> None:
        if self.chaincode and node.format_spec is not None:
            for part in ast.walk(node.format_spec):
                if (
                    isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                    and _is_float_format_spec(part.value)
                ):
                    self._emit(
                        "DET107", node,
                        f"float presentation format {part.value!r} in f-string",
                    )
                    break
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self.chaincode
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
            and _printf_has_float(node.left.value)
        ):
            self._emit("DET107", node, "printf-style float formatting in state value")
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


def lint_source(
    source: str, path: str = "<string>", *, chaincode: bool | None = None
) -> list[Finding]:
    """Lint one module's source text; returns pragma-filtered findings."""
    tree = parse_source(source, path)
    if chaincode is None:
        chaincode = is_chaincode_module(path, tree)
    visitor = _Visitor(path, chaincode)
    visitor.visit(tree)
    pragmas = parse_pragmas(source)
    findings = [f for f in visitor.findings if pragmas.allows(f.rule_id, f.line)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _display_path(path: Path) -> str:
    """Stable repo-relative posix path so baselines survive checkout moves."""
    try:
        rel = path.resolve().relative_to(Path(os.getcwd()).resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def parse_source(source: str, path: str = "<string>") -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc


def read_source(path: Path) -> tuple[str, str]:
    """``(display path, source text)`` of one file, for either analyzer."""
    try:
        return _display_path(path), path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc


def lint_file(path: str | Path, *, chaincode: bool | None = None) -> list[Finding]:
    shown, source = read_source(Path(path))
    return lint_source(source, shown, chaincode=chaincode)


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise AnalysisError(f"lint target does not exist: {p}")
    return files


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
