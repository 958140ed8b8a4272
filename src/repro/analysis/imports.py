"""Static import-graph reachability for scope-limited rules.

The determinism rule only cares about code that can influence
``repro.engine.jobs`` cache-key construction — anything a job spec
imports (eagerly *or* lazily inside a function body) can leak
nondeterminism into a content hash or a worker-side recomputation.
This module builds that reachable set from the files being analyzed,
without importing any of them, and the per-file alias map the unit,
interval, call-graph and hot-path passes resolve names against.

Both helpers take a file's nodes in :func:`ast.walk` order (the
analyzer walks each tree once and shares the tuple).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath


def module_name_for(rel_path: str) -> str | None:
    """Dotted module name for a repo-relative ``.py`` path, if importable.

    Strips a leading ``src/`` component (the layout this repo uses) and
    maps ``pkg/__init__.py`` to ``pkg``.  Returns ``None`` for paths
    that are not Python modules.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if not all(p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


def imported_modules(nodes: Iterable[ast.AST], module: str) -> set[str]:
    """Every module ``module``'s source imports, eager or lazy.

    Relative imports resolve against ``module``'s package.  ``from m
    import x`` contributes both ``m`` and ``m.x`` — ``x`` may be a
    submodule, and claiming both costs nothing because unknown names
    simply never match an analyzed file.
    """
    package_parts = module.split(".")[:-1]
    out: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            if base:
                out.add(base)
                for alias in node.names:
                    out.add(f"{base}.{alias.name}")
    return out


def build_import_map(
    nodes: Iterable[ast.AST], module: str | None
) -> dict[str, str]:
    """Local name -> dotted import target, from one file's imports.

    Relative imports are anchored at ``module``'s package.
    """
    out: dict[str, str] = {}
    package = (module or "").split(".")[:-1]
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package[: len(package) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                out[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return out


@dataclass
class ImportGraph:
    """Module-level import graph over the analyzed files."""

    edges: dict[str, set[str]] = field(default_factory=dict)

    def add_module(self, module: str, nodes: Iterable[ast.AST]) -> None:
        self.edges[module] = imported_modules(nodes, module)

    def reachable_from(self, roots: tuple[str, ...]) -> set[str]:
        """Transitive closure over modules present in the graph.

        Importing a submodule also imports its ancestor packages, so
        each known module's ancestors join the frontier too.
        """
        seen: set[str] = set()
        frontier = [r for r in roots if r in self.edges]
        while frontier:
            module = frontier.pop()
            if module in seen:
                continue
            seen.add(module)
            for target in self.edges.get(module, ()):
                candidates = [target]
                parts = target.split(".")
                candidates.extend(
                    ".".join(parts[:i]) for i in range(1, len(parts))
                )
                for cand in candidates:
                    if cand in self.edges and cand not in seen:
                        frontier.append(cand)
        return seen


def build_import_graph(files: dict[str, Iterable[ast.AST]]) -> ImportGraph:
    """Graph over ``{rel_path: nodes}`` for every path that is a module."""
    graph = ImportGraph()
    for rel_path, nodes in files.items():
        module = module_name_for(rel_path)
        if module is not None:
            graph.add_module(module, nodes)
    return graph


def rel_posix(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` with POSIX separators (best effort)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()
