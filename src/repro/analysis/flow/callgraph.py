"""Whole-program call graph with alias-aware name resolution.

The flow analyzer's taint pass sees the program through one index, built
here in two phases:

1. **Index** — every module under the scan roots is parsed and its
   imports, classes, functions, and methods are registered under
   *qualified names* (``repro.util.clock.WallClock.now``). Relative
   imports resolve against the module's package; ``import x as y`` and
   ``from x import f as g`` aliases resolve exactly as in the linter.
2. **Resolve** — every call site in every function body is resolved to
   either a program function (an intra-program edge), an external dotted
   name (``time.time`` — matched against source/sink tables), or left
   unresolved. Method calls resolve through the receiver when it is
   ``self``/``cls`` (walking the declared base-class chain) and otherwise
   through a *unique-method* index: an attribute call whose name names
   exactly one method in the whole program resolves to it; ambiguous names
   stay unresolved rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError

from ..linter import parse_source, read_source

# Method names too generic to resolve through the unique-method index even
# when the program happens to define exactly one: these collide with
# builtin container/stdlib APIs constantly.
_GENERIC_METHODS = frozenset({
    "get", "put", "add", "append", "update", "pop", "items", "keys",
    "values", "copy", "clear", "run", "close", "read", "write", "send",
    "now", "result", "submit", "join", "start", "stop", "name", "next",
})


@dataclass(frozen=True)
class Callee:
    """Resolved target of one call site."""

    kind: str        # "func" (program function) | "external" (dotted name)
    target: str      # qualname or external dotted path
    line: int
    col: int


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function body, after resolution."""

    node: ast.Call
    callee: Callee | None          # None = unresolved


@dataclass
class FunctionInfo:
    """One function or method registered in the program index."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None     # enclosing class, for methods
    params: list[str]              # positional parameter names (self included)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    qualname: str
    module: str
    bases: list[str]               # resolved dotted base names (best effort)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class ModuleInfo:
    name: str
    path: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)


class Program:
    """The resolved whole-program index the flow passes consume."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.method_index: dict[str, list[str]] = {}
        # caller qualname -> [callee qualname]
        self.edges: dict[str, list[str]] = {}

    # -- lookups -----------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def callers_of(self, qualname: str) -> list[str]:
        return sorted(
            caller for caller, outs in self.edges.items() if qualname in outs
        )

    def resolve_method(self, class_qualname: str, method: str) -> str | None:
        """Look up *method* on a class, walking declared bases."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            cq = queue.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            info = self.classes.get(cq)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def to_dict(self) -> dict:
        """JSON view for ``repro flowcheck --callgraph-out``."""
        return {
            "modules": sorted(self.modules),
            "functions": {
                q: {
                    "path": f.path,
                    "line": f.line,
                    "class": f.class_qualname,
                }
                for q, f in sorted(self.functions.items())
            },
            "edges": sorted(
                [caller, target]
                for caller, outs in self.edges.items()
                for target in outs
            ),
        }


# ---------------------------------------------------------------------------
# Phase 1: index
# ---------------------------------------------------------------------------


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for *path* under scan root *root*.

    ``src/repro/x/y.py`` scanned as root ``src/repro`` becomes ``repro.x.y``:
    names are taken relative to the root's parent, so intra-package imports
    (``from repro.util import …``) resolve against the same namespace the
    interpreter would use with ``PYTHONPATH=src``.
    """
    try:
        rel = path.resolve().relative_to(root.resolve().parent)
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def _collect_aliases(
    body: list[ast.stmt], module: str, *, is_package: bool = False
) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: level 1 = this package, 2 = parent, …
                # For a plain module, its package is one component up; a
                # package __init__ *is* its package, so strip one less.
                strip = node.level if not is_package else node.level - 1
                base_parts = module.split(".")
                base_parts = base_parts[: len(base_parts) - strip] if strip else base_parts
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.If):
            # `if TYPE_CHECKING:` / version guards hide imports the runtime
            # still semantically depends on — index both branches.
            aliases.update(_collect_aliases(node.body, module, is_package=is_package))
            aliases.update(_collect_aliases(node.orelse, module, is_package=is_package))
    return aliases


def _dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _index_function(
    program: Program,
    module: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualprefix: str,
    class_qualname: str | None,
) -> None:
    qualname = f"{qualprefix}.{node.name}"
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    info = FunctionInfo(
        qualname=qualname,
        module=module.name,
        path=module.path,
        node=node,
        class_qualname=class_qualname,
        params=params,
    )
    program.functions[qualname] = info
    if class_qualname is not None:
        program.classes[class_qualname].methods.setdefault(node.name, qualname)
        program.method_index.setdefault(node.name, []).append(qualname)
    # Nested defs become their own functions under `<qual>.<locals>`;
    # the walk stops at def/class boundaries so deeper nesting indexes
    # under its own parent.
    for child in _direct_child_defs(node):
        _index_function(program, module, child, f"{qualname}.<locals>", class_qualname)


def _direct_child_defs(parent: ast.AST) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Defs in *parent*'s body that are not inside another def/class."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    stack: list[ast.AST] = [
        child for child in ast.iter_child_nodes(parent)
    ]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
            continue
        if isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))
    found.sort(key=lambda n: (n.lineno, n.col_offset))
    return found


def _index_module(program: Program, module: ModuleInfo, *, is_package: bool = False) -> None:
    program.modules[module.name] = module
    module.aliases = _collect_aliases(
        module.tree.body, module.name, is_package=is_package
    )
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _index_function(program, module, node, module.name, None)
        elif isinstance(node, ast.ClassDef):
            class_qualname = f"{module.name}.{node.name}"
            bases = []
            for base in node.bases:
                dotted = _dotted_name(base, module.aliases)
                if dotted is not None:
                    # A bare base name refers to a class in this module.
                    if "." not in dotted and f"{module.name}.{dotted}" != class_qualname:
                        dotted = f"{module.name}.{dotted}"
                    bases.append(dotted)
            program.classes[class_qualname] = ClassInfo(
                qualname=class_qualname, module=module.name, bases=bases
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _index_function(program, module, item, class_qualname, class_qualname)


# ---------------------------------------------------------------------------
# Phase 2: resolve calls
# ---------------------------------------------------------------------------


class Resolver:
    """Resolves names inside one function body to program/external targets."""

    def __init__(self, program: Program, fn: FunctionInfo) -> None:
        self.program = program
        self.fn = fn
        self.module = program.modules[fn.module]
        self.aliases = self.module.aliases

    def _expand(self, dotted: str) -> str:
        """Apply the module alias map to the chain's root segment."""
        root, _, rest = dotted.partition(".")
        root = self.aliases.get(root, root)
        return f"{root}.{rest}" if rest else root

    def resolve_dotted(self, dotted: str) -> Callee | None:
        """Map an alias-expanded dotted path onto the program index."""
        program = self.program
        # Exact function (module.func or module.Class.method via import).
        if dotted in program.functions:
            return Callee("func", dotted, 0, 0)
        # Class constructor -> its __init__ (or the class itself when the
        # class has no explicit __init__; passes treat that as opaque).
        if dotted in program.classes:
            init = program.resolve_method(dotted, "__init__")
            return Callee("func", init, 0, 0) if init else Callee("external", dotted, 0, 0)
        # module.Class.method spelled through an imported module object.
        head, _, attr = dotted.rpartition(".")
        if head in program.classes:
            target = program.resolve_method(head, attr)
            if target is not None:
                return Callee("func", target, 0, 0)
        return None

    def resolve_callable(self, node: ast.expr) -> Callee | None:
        """Resolve a call target / function reference expression."""
        program, fn = self.program, self.fn
        line = getattr(node, "lineno", fn.line)
        col = getattr(node, "col_offset", 0)

        if isinstance(node, ast.Name):
            expanded = self.aliases.get(node.id, node.id)
            if "." not in expanded:
                # Nested function defined in this (or an enclosing) function.
                scope = fn.qualname
                while scope:
                    nested = f"{scope}.<locals>.{expanded}"
                    if nested in program.functions:
                        return Callee("func", nested, line, col)
                    scope = scope.rsplit(".<locals>.", 1)[0] if ".<locals>." in scope else ""
                # Module-level function or class in this module.
                local = f"{fn.module}.{expanded}"
                hit = self.resolve_dotted(local)
                if hit is not None:
                    return Callee(hit.kind, hit.target, line, col)
                return Callee("external", expanded, line, col)
            hit = self.resolve_dotted(expanded)
            if hit is not None:
                return Callee(hit.kind, hit.target, line, col)
            return Callee("external", expanded, line, col)

        if isinstance(node, ast.Attribute):
            # self.method / cls.method: walk the declared class hierarchy.
            recv = node.value
            if isinstance(recv, ast.Name) and recv.id in ("self", "cls") \
                    and fn.class_qualname is not None:
                target = program.resolve_method(fn.class_qualname, node.attr)
                if target is not None:
                    return Callee("func", target, line, col)
                return None  # unknown attribute on self: field or inherited-external
            dotted = _dotted_name(node, self.aliases)
            if dotted is not None:
                expanded = self._expand(dotted)
                hit = self.resolve_dotted(expanded)
                if hit is not None:
                    return Callee(hit.kind, hit.target, line, col)
                # The chain is external only when its root is an *imported*
                # name (``time.time``, ``os.environ.get``). A bare local
                # variable receiver falls through to the method index.
                base = node
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in self.aliases:
                    return Callee("external", expanded, line, col)
            # obj.method(): unique-method fallback.
            candidates = program.method_index.get(node.attr, [])
            if len(candidates) == 1 and node.attr not in _GENERIC_METHODS:
                return Callee("func", candidates[0], line, col)
            return None
        return None


def _own_statements(fn: FunctionInfo) -> list[ast.AST]:
    """All AST nodes of a function body, excluding nested def bodies
    (nested defs are separate functions in the index)."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(fn.node.body)
    while stack:
        node = stack.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)
    return out


def _resolve_calls(program: Program) -> None:
    for fn in program.functions.values():
        resolver = Resolver(program, fn)
        sites: list[CallSite] = []
        for node in _own_statements(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = resolver.resolve_callable(node.func)
            sites.append(CallSite(node=node, callee=callee))
            outs = program.edges.setdefault(fn.qualname, [])
            if callee is not None and callee.kind == "func":
                outs.append(callee.target)
        # Deterministic order for downstream traversals.
        sites.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
        fn.calls = sites
    for outs in program.edges.values():
        outs.sort()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_program(paths: list[str | Path]) -> Program:
    """Parse and index every ``.py`` file under the given roots."""
    program = Program()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
        elif root.is_file():
            files = [root]
        else:
            raise AnalysisError(f"flow target does not exist: {root}")
        base = root if root.is_dir() else root.parent
        for file in files:
            name = module_name_for(file, base)
            if name in program.modules:
                continue
            shown, source = read_source(file)
            _index_module(
                program,
                ModuleInfo(
                    name=name, path=shown, source=source, tree=parse_source(source, shown)
                ),
                is_package=file.name == "__init__.py",
            )
    _resolve_calls(program)
    return program
