"""Structural guard: one thread of control, and ``repro.analysis`` is a leaf.

The framework spawns no threads or processes of its own (callers may bring
theirs; the locks that keep shared counters exact stay), and only the CLI
may depend on the analyzers at import time — everything else reaches the
sanitizers through a lazy import at the hook site.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
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
