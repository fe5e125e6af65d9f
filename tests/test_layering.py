"""Structural guards: one thread of control, ``repro.analysis`` is a leaf,
and no module, name or knob lives only for its own tests.

The framework spawns no threads or processes of its own (callers may bring
theirs; the locks that keep shared counters exact stay), and only the CLI
may depend on the analyzers at import time — everything else reaches the
sanitizers through a lazy import at the hook site.

Every module under ``repro`` has a caller outside ``tests/``: another
``repro`` module, an example or a benchmark. A package ``__init__`` that
re-exports a module is not a caller; whoever imports the re-exported name
from the package is. ``repro.__main__`` is run by ``python -m repro``, never
imported, so it needs no caller.

Within a module, every public top-level function and class is named
somewhere besides its own definition: in ``src/``, ``benchmarks/`` or
``examples/``. A package ``__init__`` re-export and a test do not count.

Every :class:`~repro.core.FrameworkConfig` field is set by keyword in
``src/``, ``benchmarks/`` or ``examples/``; a field no caller sets to a
second value is a constant, not a knob.
"""

import ast
import re
from collections import Counter
from dataclasses import fields
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


# Public top-level names kept with no caller in the system: test oracles and
# fixture entry points, each with its reason.
ENTRY_POINTS_ALLOWED = {
    "evaluate_frames": "repro.vision.eval's entry point; the Fig. 3 oracle "
    "(see ORPHANS_ALLOWED) that tests/test_vision_eval.py runs",
    "lint_source": "lints one source string as its own program: the fixture "
    "entry point the analyzer tests feed their snippets through",
}


def test_every_public_top_level_name_is_named_elsewhere():
    """A public top-level function or class (no leading underscore, so
    dunders are exempt) whose name appears nowhere in ``src/``,
    ``benchmarks/`` or ``examples/`` but at its definition and in package
    re-exports has no caller outside its tests: it goes."""
    words = Counter()
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts and path.name != "__init__.py":
                text = path.read_text(encoding="utf-8", errors="replace")
                words.update(re.findall(r"\w+", text))
    definitions = Counter()
    sites = {}
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions[node.name] += 1
                    sites[node.name] = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
    assert ENTRY_POINTS_ALLOWED.keys() <= definitions.keys()
    unnamed = [
        sites[name]
        for name, n in definitions.items()
        if words[name] <= n and name not in ENTRY_POINTS_ALLOWED
    ]
    assert sorted(unnamed) == []


# FrameworkConfig fields kept although no caller sets them, each with its reason.
DEPLOYMENT_SETTINGS = {
    "channel_name": "a deployment identifier: the channel the peers join",
    "orgs": "a deployment identifier: the organizations on the channel",
    "strict_admission": "the paper's §III admission behaviour; "
    "tests/test_strict_admission.py turns it on",
}


CONFIG_SETTERS = ("FrameworkConfig", "replace", "dataclasses.replace")


def _config_keywords(tree: ast.Module) -> set[str]:
    """Field names one module passes to ``FrameworkConfig`` or to
    ``dataclasses.replace``: their keywords, plus every string dict key
    when it splats a mapping into one."""
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in CONFIG_SETTERS
    ]
    names = {kw.arg for call in calls for kw in call.keywords if kw.arg is not None}
    if any(kw.arg is None for call in calls for kw in call.keywords):
        names |= {
            key.value
            for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    return names


def test_every_framework_config_field_is_set_outside_the_tests():
    from repro.core import FrameworkConfig

    set_by_callers = set()
    for _importer, _is_init, _package, tree in _parsed():
        set_by_callers |= _config_keywords(tree)
    names = {f.name for f in fields(FrameworkConfig)}
    assert DEPLOYMENT_SETTINGS.keys() <= names
    assert sorted(names - set_by_callers - DEPLOYMENT_SETTINGS.keys()) == []
