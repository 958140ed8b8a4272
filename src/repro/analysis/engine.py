"""The analysis driver: file collection, parsing, rule dispatch.

One :class:`Analyzer` run parses every target file once and walks each
tree once: the node tuple and the file's import map live on its
:class:`FileContext`, and every per-file rule and harvest reads them
instead of re-walking the AST.  The run builds the project-wide import
graph (for reachability-scoped rules), hands each file to each
applicable rule, runs the project passes (call graph, range check), and
filters the raw findings through inline suppressions.  Baseline
filtering happens one layer up, in :mod:`repro.analysis.baseline`, so
library callers can see the full finding set.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.imports import (
    ImportGraph,
    build_import_graph,
    build_import_map,
    module_name_for,
    rel_posix,
)
from repro.analysis.registry import Rule, select_rules
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions
from repro.analysis.unitsig import (
    EMPTY_TABLE,
    SignatureTable,
    harvest_signatures,
)

#: Modules whose import closure the determinism rule polices: everything
#: that can influence a job spec's content hash or its worker-side
#: recomputation.
DETERMINISM_ROOTS = ("repro.engine.jobs",)

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".eggs"}


@dataclass
class ProjectContext:
    """Whole-run state shared by every file's analysis."""

    root: Path
    import_graph: ImportGraph
    determinism_scope: set[str] = field(default_factory=set)
    #: True when none of DETERMINISM_ROOTS exist among the analyzed
    #: files; reachability is then unknowable and reachability-scoped
    #: rules fall back to checking everything (fixture/sandbox mode).
    determinism_scope_is_global: bool = False
    #: Cross-module unit signatures for the dataflow rules (RPR101-103).
    unit_signatures: SignatureTable = field(default=EMPTY_TABLE)


@dataclass
class FileContext:
    """One parsed file plus everything a rule needs to inspect it.

    ``nodes`` is ``tuple(ast.walk(tree))``: rules iterate it instead of
    walking the tree again, in the same breadth-first order.
    ``imports`` is the file's local-name -> dotted-target import map.
    """

    path: Path
    rel_path: str
    source: str
    lines: list[str]
    tree: ast.Module
    nodes: tuple[ast.AST, ...]
    imports: dict[str, str]
    module: str | None
    project: ProjectContext
    suppressions: SuppressionIndex

    @property
    def is_test(self) -> bool:
        """Heuristic: test files get looser treatment from src-only rules."""
        return is_test_path(self.rel_path)

    @property
    def in_determinism_scope(self) -> bool:
        if self.project.determinism_scope_is_global:
            return not self.is_test
        return (
            self.module is not None
            and self.module in self.project.determinism_scope
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def unit_diagnostics(self):
        """Unit-dataflow diagnostics for this file, computed once.

        All three flow rules (RPR101-103) consume the same pass; the
        first caller pays for the interpretation, the rest filter.
        """
        if self._unit_diags is None:
            from repro.analysis.dataflow import analyze_units

            self._unit_diags = analyze_units(self)
        return self._unit_diags

    def interval_diagnostics(self):
        """Interval-domain diagnostics for this file, computed once.

        The numeric-safety and loop rules (RPR301/303/310) share one
        interpretation the same way the unit rules share theirs.
        """
        if self._interval_diags is None:
            from repro.analysis.intervals import analyze_intervals

            self._interval_diags = analyze_intervals(self)
        return self._interval_diags

    _unit_diags: list | None = field(default=None, repr=False)
    _interval_diags: list | None = field(default=None, repr=False)


class PathPartsCache:
    """Tiny helper so ``is_test`` stays allocation-light on big runs."""

    _cache: dict[str, tuple[str, ...]] = {}

    @classmethod
    def parts(cls, rel_path: str) -> tuple[str, ...]:
        parts = cls._cache.get(rel_path)
        if parts is None:
            parts = tuple(rel_path.split("/"))
            cls._cache[rel_path] = parts
        return parts


def is_test_path(rel_path: str) -> bool:
    """Whether a repo-relative posix path names a test/bench file.

    Shared by :attr:`FileContext.is_test` and the project snapshot
    (test files never enter the call graph — their fixtures break
    concurrency discipline on purpose).
    """
    parts = PathPartsCache.parts(rel_path)
    return (
        "tests" in parts
        or "test" in parts
        or parts[-1].startswith(("test_", "bench_"))
        or parts[-1].endswith("_test.py")
    )


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


class Analyzer:
    """Runs a rule set over a file tree.

    Args:
        root: directory findings' paths are reported relative to
            (normally the repo root).
        select: optional rule-id allowlist.
        ignore: optional rule-id denylist.
        rules: explicit rule instances (overrides select/ignore).
        report_only: optional set of repo-relative posix paths; when
            given, the whole tree is still analyzed (project passes need
            global facts) but only findings anchored in these files are
            reported.  This is the ``--changed`` mode.
    """

    def __init__(
        self,
        root: Path | str = ".",
        select: list[str] | None = None,
        ignore: list[str] | None = None,
        rules: tuple[Rule, ...] | None = None,
        report_only: set[str] | None = None,
    ) -> None:
        self.root = Path(root)
        self.rules = rules if rules is not None else select_rules(select, ignore)
        self.report_only = report_only

    def analyze_paths(self, paths: list[Path | str]) -> AnalysisResult:
        """Analyze files and directories; returns all raw findings.

        Files that fail to parse produce an ``RPR000`` syntax-error
        finding rather than aborting the run.
        """
        files = collect_files([Path(p) for p in paths])
        result = AnalysisResult(files_scanned=len(files))

        parsed: dict[str, tuple[Path, str, ast.Module, tuple[ast.AST, ...]]] = {}
        for path in files:
            rel = rel_posix(path, self.root)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                result.parse_errors += 1
                line = getattr(exc, "lineno", None) or 1
                result.findings.append(
                    Finding(
                        rule="RPR000",
                        path=rel,
                        line=line,
                        col=1,
                        message=f"file could not be parsed: {exc}",
                        severity=Severity.ERROR,
                    )
                )
                continue
            parsed[rel] = (path, source, tree, tuple(ast.walk(tree)))

        graph = build_import_graph(
            {rel: nodes for rel, (_, _, _, nodes) in parsed.items()}
        )
        scope = graph.reachable_from(DETERMINISM_ROOTS)
        harvests = [
            harvest_signatures(tree, module_name_for(rel))
            for rel, (_, _, tree, _) in parsed.items()
        ]
        project = ProjectContext(
            root=self.root,
            import_graph=graph,
            determinism_scope=scope,
            determinism_scope_is_global=not scope,
            unit_signatures=SignatureTable.merge(harvests),
        )

        file_rules = tuple(r for r in self.rules if r.scope == "file")
        project_rules = tuple(r for r in self.rules if r.scope == "project")
        interval_rules = tuple(r for r in self.rules if r.scope == "intervals")

        contexts: list[FileContext] = []
        for rel, (path, source, tree, nodes) in parsed.items():
            lines = source.splitlines()
            module = module_name_for(rel)
            ctx = FileContext(
                path=path,
                rel_path=rel,
                source=source,
                lines=lines,
                tree=tree,
                nodes=nodes,
                imports=build_import_map(nodes, module),
                module=module,
                project=project,
                suppressions=parse_suppressions(lines, tree),
            )
            contexts.append(ctx)
            for rule in file_rules:
                if not rule.applies_to(ctx):
                    continue
                for finding in rule.check(ctx):
                    if ctx.suppressions.covers(finding):
                        result.suppressed.append(finding)
                    else:
                        result.findings.append(finding)

        lines_by_rel = {ctx.rel_path: ctx.lines for ctx in contexts}
        suppress_maps = {ctx.rel_path: ctx.suppressions._by_line for ctx in contexts}
        src_contexts = [ctx for ctx in contexts if not ctx.is_test]

        callgraph_pass_s = 0.0
        if project_rules:
            from repro.analysis.callgraph import harvest_callgraph
            from repro.analysis.concurrency import (
                ProjectSnapshot,
                run_project_rules,
            )

            start = time.perf_counter()
            cg_harvests = {
                ctx.rel_path: (
                    ctx.module,
                    harvest_callgraph(ctx.tree, ctx.module, ctx.imports),
                )
                for ctx in src_contexts
            }
            snapshot = ProjectSnapshot.build(
                cg_harvests, lines_by_rel, suppress_maps
            )
            proj_findings, proj_suppressed = run_project_rules(
                project_rules, snapshot
            )
            result.findings.extend(proj_findings)
            result.suppressed.extend(proj_suppressed)
            callgraph_pass_s = time.perf_counter() - start

        range_pass_s = 0.0
        if interval_rules:
            (range_rule,) = interval_rules  # RPR302 is the one range rule
            from repro.analysis.intervals import (
                harvest_interval_facts,
                run_range_pass,
            )

            start = time.perf_counter()
            facts = {
                ctx.rel_path: harvest_interval_facts(ctx) for ctx in src_contexts
            }
            for p in run_range_pass(facts, project.unit_signatures):
                finding = Finding(
                    rule=range_rule.id,
                    path=p["path"],
                    line=p["line"],
                    col=p["col"],
                    message=p["message"],
                    severity=range_rule.severity,
                    snippet=p.get("snippet", ""),
                    context=p.get("context", ""),
                )
                covered = finding.rule in suppress_maps.get(
                    finding.path, {}
                ).get(finding.line, set())
                if covered:
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)
            range_pass_s = time.perf_counter() - start

        result.findings.sort(key=Finding.sort_key)
        result.suppressed.sort(key=Finding.sort_key)
        result.stats = {
            "files": len(files),
            "analyzed": len(parsed),
            "callgraph_rules": len(project_rules),
            "callgraph_pass_s": round(callgraph_pass_s, 4),
            "range_rules": len(interval_rules),
            "range_pass_s": round(range_pass_s, 4),
        }
        return self._filter_report(result)

    def _filter_report(self, result: AnalysisResult) -> AnalysisResult:
        """Drop findings outside ``report_only``, when set (--changed)."""
        if self.report_only is None:
            return result
        result.findings = [
            f for f in result.findings if f.path in self.report_only
        ]
        result.suppressed = [
            f for f in result.suppressed if f.path in self.report_only
        ]
        return result
