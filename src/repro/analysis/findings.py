"""Finding and severity model for the static-analysis suite.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`~Finding.fingerprint` deliberately excludes the line *number* —
it hashes the rule id, the file path, and either the rule-supplied
``context`` (a semantic anchor like ``call:qualname:param``) or, when
none is given, the normalised source line — so a finding keeps its
identity (and stays matched against the committed baseline) when
unrelated edits shift code up or down a file, and for project-scope
rules even when the anchoring line itself is reformatted or reordered.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Finding severity, ordered from most to least severe."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def sarif_level(self) -> str:
        """The SARIF ``level`` string for this severity."""
        return {"error": "error", "warning": "warning", "note": "note"}[self.value]

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule identifier (``RPR001`` ...).
        path: file path relative to the analysis root, POSIX separators.
        line: 1-based source line.
        col: 1-based source column.
        message: human-readable description of the violation.
        severity: finding severity.
        snippet: the stripped source line (fingerprint fallback basis).
        context: optional semantic anchor supplied by the rule (e.g.
            ``attr:ClassName.field`` or ``call:qualname:param``); when
            set it replaces the snippet in the fingerprint so identity
            survives reformatting of the anchoring line.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    snippet: str = ""
    context: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number free)."""
        anchor = self.context or " ".join(self.snippet.split())
        basis = f"{self.rule}|{self.path}|{anchor}"
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        """One-line ``path:line:col RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


@dataclass
class AnalysisResult:
    """Everything one analysis run produced.

    Attributes:
        findings: unsuppressed, unbaselined findings (the ones that gate).
        baselined: findings matched by the committed baseline.
        suppressed: findings silenced by inline ``# repro: ignore[...]``.
        stale_baseline: baseline fingerprints that matched nothing (fixed
            debt that should be ratcheted out of the baseline file).
        files_scanned: number of files analyzed.
        parse_errors: files that could not be parsed (also findings).
        stats: run statistics (file counts, project-pass rule counts
            and seconds) for ``--stats``/``--stats-json``.
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when nothing gates: no new findings, no stale baseline."""
        return not self.findings and not self.stale_baseline

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))
