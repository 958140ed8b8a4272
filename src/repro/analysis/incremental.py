"""Incremental, parallel analysis driver.

The in-process driver in :mod:`repro.analysis.engine` re-parses and
re-checks every file on every run.  This driver makes ``repro analyze``
scale with the *change*, not the tree, by splitting a run into cached
units stored in the engine's content-addressed result store:

1. **Harvest** (per file, keyed by content hash): the file's module
   name, its import edges, and its unit signatures.  A warm run
   rebuilds the project-wide import graph and signature table without
   re-parsing a single unchanged file.
2. **Rule results** (per file, keyed by content hash + rule set +
   rule-set version + determinism-scope flags + signature-table
   digest): the findings and suppressions of one file, produced by an
   :class:`~repro.engine.analysis_jobs.AnalyzeFileJob` fanned out over
   the engine's process-pool executor.  Cold runs use all cores; warm
   runs hit the store and touch only changed files.
3. **Call-graph pass** (one entry, keyed by every non-test file's
   call-graph facts + suppression maps + signature digest): the
   interprocedural concurrency findings (RPR2xx).
4. **Interval facts + range pass**: per-file boundary-crossing numeric
   values (kind ``analysis_intervals``, keyed by content hash), and
   one project-wide range-check entry (kind ``analysis_range_pass``,
   keyed by the facts + suppression digest and the signature-table
   digest, which covers the declared physical-range table).  This is
   what backs RPR302.

Because the signature-table digest is part of every rule-result key, an
edit that changes a function's *signature* re-analyzes the whole tree
(cross-module rules may change anywhere), while a body-only edit
re-analyzes exactly one file.  That is the correct invalidation, not an
approximation.
"""

from __future__ import annotations

import ast
import hashlib
import json
import time
from pathlib import Path

from repro.analysis.callgraph import CALLGRAPH_VERSION, harvest_callgraph
from repro.analysis.concurrency import (
    ProjectSnapshot,
    run_project_rules,
    suppress_from_payload,
    suppress_payload,
)
from repro.analysis.engine import (
    DETERMINISM_ROOTS,
    FileContext,
    ProjectContext,
    is_test_path,
    range_findings,
)
from repro.analysis.intervals import (
    INTERVALS_VERSION,
    harvest_interval_facts,
    run_range_pass,
)
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.imports import (
    ImportGraph,
    imported_modules,
    module_name_for,
    rel_posix,
)
from repro.analysis.registry import Rule, get_rule
from repro.analysis.suppressions import parse_suppressions
from repro.analysis.unitsig import SignatureTable, harvest_signatures

#: Bump when the harvest payload shape or semantics change.
#: v3: signature payloads carry module constant values and the declared
#: physical-range table.
HARVEST_VERSION = 3

#: Bump whenever any rule's logic changes in a way that can alter its
#: findings; cached per-file verdicts from older rule code then read as
#: misses.  (Adding/removing rules needs no bump — the active rule ids
#: are part of every cache key.)
#: v2: finding payloads carry the semantic fingerprint context.
#: v3: RPR008 flags ``store.load``.
RULESET_VERSION = 3

#: Default cache location, relative to the analysis root.
DEFAULT_CACHE_DIR = ".repro-cache/analysis"


def _finding_payload(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "severity": finding.severity.value,
        "snippet": finding.snippet,
        "context": finding.context,
    }


def _finding_from_payload(rel_path: str, payload: dict) -> Finding:
    return Finding(
        rule=payload["rule"],
        path=rel_path,
        line=payload["line"],
        col=payload["col"],
        message=payload["message"],
        severity=Severity(payload["severity"]),
        snippet=payload.get("snippet", ""),
        context=payload.get("context", ""),
    )


def run_rules_on_source(
    rel_path: str,
    source: str,
    module: str | None,
    rule_ids: tuple[str, ...],
    in_scope: bool,
    scope_global: bool,
    sig_payload: dict,
) -> dict:
    """Run rules over one file's source; the worker-side entry point.

    Pure function of its arguments: it rebuilds a minimal
    :class:`FileContext` (the cross-module facts arrive predigested as
    ``in_scope``/``scope_global``/``sig_payload``) and returns plain
    JSON finding records, which is what lets the result be cached by
    content.
    """
    tree = ast.parse(source, filename=rel_path)
    lines = source.splitlines()
    scope = {module} if (in_scope and module and not scope_global) else set()
    project = ProjectContext(
        root=Path("."),
        import_graph=ImportGraph(),
        determinism_scope=scope,
        determinism_scope_is_global=scope_global,
        unit_signatures=SignatureTable.from_payload(sig_payload),
    )
    ctx = FileContext(
        path=Path(rel_path),
        rel_path=rel_path,
        source=source,
        lines=lines,
        tree=tree,
        module=module,
        project=project,
        suppressions=parse_suppressions(lines, tree),
    )
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule_id in rule_ids:
        rule = get_rule(rule_id)
        if rule.scope != "file":
            # Project rules run once, driver-side, over the merged
            # call-graph snapshot — never in a per-file worker.
            continue
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressions.covers(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return {
        "findings": [_finding_payload(f) for f in findings],
        "suppressed": [_finding_payload(f) for f in suppressed],
    }


class IncrementalDriver:
    """Cache-backed, process-parallel analysis of a file list.

    Args:
        root: directory findings are reported relative to.
        rules: registry rule instances to run (must be registered —
            workers rebuild them by id).
        cache_dir: result-store directory (created on demand).
        workers: process count for the executor; ``None`` = all cores,
            ``1`` = in-process serial (still cached).
    """

    def __init__(
        self,
        root: Path,
        rules: tuple[Rule, ...],
        cache_dir: Path,
        workers: int | None = None,
    ) -> None:
        from repro.engine.store import ResultStore

        self.root = root
        self.rules = rules
        self.workers = workers
        self.store = ResultStore(cache_dir)

    # ---- harvest layer -------------------------------------------------

    def _harvest_key(self, rel: str, digest: str) -> str:
        from repro.engine.jobs import content_hash

        return content_hash(
            {
                "kind": "analysis_harvest",
                "v": HARVEST_VERSION,
                "path": rel,
                "content": digest,
            }
        )

    def _harvest_file(
        self, path: Path, rel: str
    ) -> tuple[str, str | None, dict, int]:
        """(digest, source, harvest payload, store hits) for one file.

        The source text is decoded from the same bytes the digest was
        computed over, so a concurrent edit can never pair one
        revision's hash with another's content.
        """
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        try:
            source = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            source = None
            decode_error: Exception | None = exc
        else:
            decode_error = None
        key = self._harvest_key(rel, digest)
        cached = self.store.get(key)
        if cached is not None:
            return digest, source, cached, 1
        module = module_name_for(rel)
        if source is None:
            payload = {"ok": False, "error": str(decode_error), "line": 1}
        else:
            try:
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, ValueError) as exc:
                payload = {
                    "ok": False,
                    "error": str(exc),
                    "line": getattr(exc, "lineno", None) or 1,
                }
            else:
                lines = source.splitlines()
                payload = {
                    "ok": True,
                    "module": module,
                    "imports": sorted(imported_modules(tree, module))
                    if module
                    else [],
                    "signatures": harvest_signatures(tree, module),
                    # Call-graph layer: this file's interprocedural
                    # facts, plus its suppression map so a suppression
                    # edit invalidates the cached project pass.
                    "callgraph": harvest_callgraph(tree, module),
                    "suppress": suppress_payload(
                        parse_suppressions(lines, tree)
                    ),
                }
        self.store.put(key, "analysis_harvest", payload)
        return digest, source, payload, 0

    # ---- driver --------------------------------------------------------

    def analyze_files(self, files: list[Path]) -> AnalysisResult:
        from repro.engine.analysis_jobs import AnalyzeFileJob
        from repro.engine.executor import ExecutorConfig, JobExecutor
        from repro.engine.jobs import canonical_json, content_hash

        result = AnalysisResult(files_scanned=len(files))
        harvest_hits = 0
        digests: dict[str, str] = {}
        harvests: dict[str, dict] = {}
        sources: dict[str, str] = {}
        for path in files:
            rel = rel_posix(path, self.root)
            try:
                digest, source, payload, hit = self._harvest_file(path, rel)
            except OSError as exc:
                result.parse_errors += 1
                result.findings.append(
                    Finding(
                        rule="RPR000",
                        path=rel,
                        line=1,
                        col=1,
                        message=f"file could not be read: {exc}",
                        severity=Severity.ERROR,
                    )
                )
                continue
            harvest_hits += hit
            digests[rel] = digest
            harvests[rel] = payload
            if source is not None:
                sources[rel] = source

        graph = ImportGraph()
        for rel, payload in harvests.items():
            if payload.get("ok") and payload.get("module"):
                graph.edges[payload["module"]] = set(payload["imports"])
        scope = graph.reachable_from(DETERMINISM_ROOTS)
        scope_global = not scope

        table = SignatureTable.merge(
            [p["signatures"] for p in harvests.values() if p.get("ok")]
        )
        sig_json = canonical_json(table.as_payload())
        sig_hash = hashlib.sha256(sig_json.encode()).hexdigest()

        file_rules = tuple(r for r in self.rules if r.scope == "file")
        project_rules = tuple(r for r in self.rules if r.scope == "project")
        interval_rules = tuple(r for r in self.rules if r.scope == "intervals")
        rule_ids = tuple(rule.id for rule in file_rules)
        jobs: list[AnalyzeFileJob] = []
        for rel, payload in harvests.items():
            if not payload.get("ok"):
                result.parse_errors += 1
                result.findings.append(
                    Finding(
                        rule="RPR000",
                        path=rel,
                        line=payload.get("line") or 1,
                        col=1,
                        message=f"file could not be parsed: {payload['error']}",
                        severity=Severity.ERROR,
                    )
                )
                continue
            module = payload.get("module")
            jobs.append(
                AnalyzeFileJob(
                    rel_path=rel,
                    content_hash=digests[rel],
                    module=module,
                    rule_ids=rule_ids,
                    ruleset_version=RULESET_VERSION,
                    in_scope=bool(module and module in scope),
                    scope_global=scope_global,
                    sig_hash=sig_hash,
                    source=sources[rel],
                    sig_json=sig_json,
                )
            )

        executor = JobExecutor(
            config=ExecutorConfig(max_workers=self.workers),
            store=self.store,
        )
        outcomes = executor.execute(list(jobs))

        analyzed = cached = failed = 0
        for job in jobs:
            outcome = outcomes[job.cache_key]
            if outcome.status == "failed":
                failed += 1
                result.findings.append(
                    Finding(
                        rule="RPR000",
                        path=job.rel_path,
                        line=1,
                        col=1,
                        message=f"analysis job failed: {outcome.error}",
                        severity=Severity.ERROR,
                    )
                )
                continue
            if outcome.status == "cached":
                cached += 1
            else:
                analyzed += 1
            for entry in outcome.result["findings"]:
                result.findings.append(_finding_from_payload(job.rel_path, entry))
            for entry in outcome.result["suppressed"]:
                result.suppressed.append(
                    _finding_from_payload(job.rel_path, entry)
                )

        callgraph_status = "skipped"
        callgraph_pass_s = 0.0
        if project_rules:
            start = time.perf_counter()
            callgraph_status = self._project_pass(
                project_rules, harvests, sources, sig_hash, result
            )
            callgraph_pass_s = time.perf_counter() - start

        range_status = "skipped"
        range_pass_s = 0.0
        intervals_hits = intervals_misses = 0
        if interval_rules:
            start = time.perf_counter()
            range_status, intervals_hits, intervals_misses = self._range_pass(
                interval_rules,
                harvests,
                sources,
                digests,
                table,
                sig_hash,
                result,
            )
            range_pass_s = time.perf_counter() - start

        result.findings.sort(key=Finding.sort_key)
        result.suppressed.sort(key=Finding.sort_key)
        result.stats = {
            "driver": "incremental",
            "files": len(files),
            "analyzed": analyzed,
            "cached": cached,
            "failed": failed,
            "harvest_hits": harvest_hits,
            "harvest_misses": len(harvests) - harvest_hits,
            "callgraph_rules": len(project_rules),
            "callgraph_pass": callgraph_status,
            "callgraph_pass_s": round(callgraph_pass_s, 4),
            "range_rules": len(interval_rules),
            "range_pass": range_status,
            "range_pass_s": round(range_pass_s, 4),
            "intervals_hits": intervals_hits,
            "intervals_misses": intervals_misses,
            "workers": self.workers,
            "store": self.store.stats.as_dict(),
        }
        return result

    # ---- call-graph (project) layer ------------------------------------

    def _project_pass(
        self,
        project_rules: tuple[Rule, ...],
        harvests: dict[str, dict],
        sources: dict[str, str],
        sig_hash: str,
        result: AnalysisResult,
    ) -> str:
        """Run (or replay) the interprocedural pass; returns its status.

        The pass result is cached as ONE store entry keyed by the
        digest of every non-test file's call-graph facts *and*
        suppression map, the signature-table digest, and the
        rule/format versions.  A warm unchanged tree replays the cached
        findings without building the graph; a body edit changes one
        file's facts and recomputes the pass in-process from the (all
        cached) harvests; a signature edit flips ``sig_hash`` and so
        invalidates this layer together with every per-file result —
        the promised signature-digest invalidation.
        """
        from repro.engine.jobs import canonical_json, content_hash

        cg_facts = {
            rel: {
                "callgraph": payload["callgraph"],
                "suppress": payload["suppress"],
            }
            for rel, payload in sorted(harvests.items())
            if payload.get("ok") and not is_test_path(rel)
        }
        cg_hash = hashlib.sha256(
            canonical_json(cg_facts).encode()
        ).hexdigest()
        pass_key = content_hash(
            {
                "kind": "analysis_callgraph_pass",
                "hv": HARVEST_VERSION,
                "cgv": CALLGRAPH_VERSION,
                "rv": RULESET_VERSION,
                "rules": [rule.id for rule in project_rules],
                "cg": cg_hash,
                "sig": sig_hash,
            }
        )
        cached = self.store.get(pass_key)
        if cached is not None:
            for entry in cached["findings"]:
                result.findings.append(
                    _finding_from_payload(entry["path"], entry)
                )
            for entry in cached["suppressed"]:
                result.suppressed.append(
                    _finding_from_payload(entry["path"], entry)
                )
            return "cached"

        snapshot = ProjectSnapshot.build(
            harvests={
                rel: (harvests[rel].get("module"), facts["callgraph"])
                for rel, facts in cg_facts.items()
            },
            lines={
                rel: sources[rel].splitlines()
                for rel in cg_facts
                if rel in sources
            },
            suppress={
                rel: suppress_from_payload(facts["suppress"])
                for rel, facts in cg_facts.items()
            },
        )
        findings, suppressed = run_project_rules(project_rules, snapshot)
        self.store.put(
            pass_key,
            "analysis_callgraph_pass",
            {
                "findings": [
                    {**_finding_payload(f), "path": f.path} for f in findings
                ],
                "suppressed": [
                    {**_finding_payload(f), "path": f.path} for f in suppressed
                ],
            },
        )
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
        return "computed"

    # ---- interval (range) layer ----------------------------------------

    def _interval_facts(
        self, rel: str, digest: str, source: str
    ) -> tuple[dict, int]:
        """(facts, store hit) for one file's interval harvest."""
        from repro.engine.jobs import content_hash

        key = content_hash(
            {
                "kind": "analysis_intervals",
                "v": INTERVALS_VERSION,
                "path": rel,
                "content": digest,
            }
        )
        cached = self.store.get(key)
        if cached is not None:
            return cached, 1
        tree = ast.parse(source, filename=rel)
        facts = harvest_interval_facts(
            tree, module_name_for(rel), source.splitlines()
        )
        self.store.put(key, "analysis_intervals", facts)
        return facts, 0

    def _range_pass(
        self,
        interval_rules: tuple[Rule, ...],
        harvests: dict[str, dict],
        sources: dict[str, str],
        digests: dict[str, str],
        table: SignatureTable,
        sig_hash: str,
        result: AnalysisResult,
    ) -> tuple[str, int, int]:
        """Run (or replay) the project range check; returns its status.

        Cached as one entry keyed by every non-test file's interval
        facts *and* suppression map, plus the signature-table digest —
        which covers the declared physical-range table, so editing an
        envelope in ``constants.PHYSICAL_RANGES`` recomputes the pass.
        """
        from repro.engine.jobs import canonical_json, content_hash

        hits = misses = 0
        facts_by_path: dict[str, dict] = {}
        keyed: dict[str, dict] = {}
        for rel, payload in sorted(harvests.items()):
            if not payload.get("ok") or is_test_path(rel) or rel not in sources:
                continue
            facts, hit = self._interval_facts(rel, digests[rel], sources[rel])
            facts_by_path[rel] = facts
            keyed[rel] = {"facts": facts, "suppress": payload["suppress"]}
            hits += hit
            misses += 1 - hit
        facts_hash = hashlib.sha256(canonical_json(keyed).encode()).hexdigest()
        pass_key = content_hash(
            {
                "kind": "analysis_range_pass",
                "hv": HARVEST_VERSION,
                "iv": INTERVALS_VERSION,
                "rv": RULESET_VERSION,
                "rules": [rule.id for rule in interval_rules],
                "facts": facts_hash,
                "sig": sig_hash,
            }
        )
        cached = self.store.get(pass_key)
        if cached is not None:
            for entry in cached["findings"]:
                result.findings.append(
                    _finding_from_payload(entry["path"], entry)
                )
            for entry in cached["suppressed"]:
                result.suppressed.append(
                    _finding_from_payload(entry["path"], entry)
                )
            return "cached", hits, misses

        payloads = run_range_pass(facts_by_path, table)
        findings: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in range_findings(interval_rules, payloads):
            suppress = harvests[finding.path].get("suppress", {})
            if finding.rule in set(suppress.get(str(finding.line), ())):
                suppressed.append(finding)
            else:
                findings.append(finding)
        self.store.put(
            pass_key,
            "analysis_range_pass",
            {
                "findings": [
                    {**_finding_payload(f), "path": f.path} for f in findings
                ],
                "suppressed": [
                    {**_finding_payload(f), "path": f.path} for f in suppressed
                ],
            },
        )
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
        return "computed", hits, misses
