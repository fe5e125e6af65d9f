"""Structural guards: one thread of control, ``repro.analysis`` is a leaf,
and no module lives only for its own tests.

The framework spawns no threads or processes of its own (callers may bring
theirs; the locks that keep shared counters exact stay), and only the CLI
may depend on the analyzers at import time — everything else reaches the
sanitizers through a lazy import at the hook site.

Every module under ``repro`` has a caller outside ``tests/``: another
``repro`` module, an example or a benchmark. A package ``__init__`` that
re-exports a module is not a caller; whoever imports the re-exported name
from the package is. ``repro.__main__`` is run by ``python -m repro``, never
imported, so it needs no caller.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
REPO = ROOT.parents[1]
SPAWNERS = (
    "ThreadPoolExecutor", "ProcessPoolExecutor", "concurrent.futures",
    "threading.Thread", "threading.Timer",
)


def _imported(stmt: ast.stmt, package: list[str]) -> list[str]:
    """Absolute dotted names one import statement binds or loads."""
    if isinstance(stmt, ast.Import):
        return [alias.name for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        base = package[: len(package) - stmt.level + 1] if stmt.level else []
        module = ".".join(base + ([stmt.module] if stmt.module else []))
        return [module] + [f"{module}.{alias.name}" for alias in stmt.names]
    return []


def test_no_spawned_threads_and_no_import_time_dependency_on_analysis():
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        package = ["repro", *rel.parts[:-1]]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled = set()
        for node in ast.walk(tree):
            spelled.update(_imported(node, package))
            if isinstance(node, (ast.Name, ast.Attribute)):
                spelled.add(ast.unparse(node))
        for name in spelled:
            if any(name == s or name.endswith("." + s) or name.startswith(s + ".")
                   for s in SPAWNERS):
                offenders.append(f"{rel}: names {name}")
        if rel.parts[0] == "analysis" or rel.as_posix() == "cli.py":
            continue
        for stmt in tree.body:
            for name in _imported(stmt, package):
                if name == "repro.analysis" or name.startswith("repro.analysis."):
                    offenders.append(f"{rel}:{stmt.lineno}: module-level import of {name}")
    assert offenders == []


# Modules kept without a caller in the system, each with its reason.
ORPHANS_ALLOWED = {
    "repro.vision.eval": "the oracle tests/test_vision_eval.py uses to check "
    "Fig. 3's claim that static cameras get better recall than drones",
}


def _parsed():
    """(importer, is_init, package, tree) for every ``repro`` module, example
    and benchmark; an importer outside ``src`` is named by its path."""
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        package = ["repro", *rel.parts[:-1]]
        is_init = path.stem == "__init__"
        name = ".".join(package if is_init else [*package, path.stem])
        yield name, is_init, package, ast.parse(path.read_text(encoding="utf-8"))
    for top in ("examples", "benchmarks"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield path.relative_to(REPO).as_posix(), False, [], tree


def test_every_module_has_a_caller_outside_its_tests():
    reexports = {}  # "repro.pkg.Name" -> "repro.pkg.mod.Name"
    imports = {}
    for importer, is_init, package, tree in _parsed():
        if not is_init:
            imports[importer] = {n for node in ast.walk(tree) for n in _imported(node, package)}
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom):
                source = _imported(stmt, package)[0]
                for alias in stmt.names:
                    exported = f"{importer}.{alias.asname or alias.name}"
                    if exported != f"{source}.{alias.name}":  # not `from . import mod`
                        reexports[exported] = f"{source}.{alias.name}"
    modules = {m for m in imports if m.startswith("repro.")} - {"repro.__main__"}
    called = set()
    for names in imports.values():
        for name in names:
            while name in reexports:
                name = reexports[name]
            while name not in modules and "." in name:
                name = name.rsplit(".", 1)[0]
            called.add(name)
    assert sorted(modules - called - ORPHANS_ALLOWED.keys()) == []
