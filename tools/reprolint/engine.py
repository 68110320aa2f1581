"""Core machinery of reprolint: findings, checkers, suppression, walking.

The engine is rule-agnostic.  A rule is a :class:`Checker` subclass that
declares a ``code``/``name``/``description``, optional ``include`` /
``exclude`` path globs, and yields :class:`Finding` objects from
:meth:`Checker.check`.  The :class:`LintRunner` walks the requested files,
parses each one exactly once, dispatches to every applicable rule, and
filters findings through the suppression comments collected from the
token stream.

The run is **two-pass**.  Pass 1 parses every requested file into a
:class:`FileContext` and runs the per-file checkers.  Pass 2 (only when a
:class:`ProjectChecker` is registered) assembles the parsed contexts into
a :class:`~tools.reprolint.project.ProjectContext` — symbol table, import
graph, approximate call graph — and hands the whole program to each
project rule.  Project findings honor the same ``# reprolint: disable``
comments as per-file ones.

A :func:`load_baseline` / :func:`apply_baseline` pair implements the
ratchet: pre-existing findings recorded in a baseline file are filtered
out (by path/code/message, counted), so new code is held to the rules
without a flag-day cleanup — and fixing a finding permanently lowers the
allowance.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.reprolint.project import ProjectContext

#: Matches ``# reprolint: disable=REPRO001,REPRO002`` and bare
#: ``# reprolint: disable`` (which suppresses every rule on the line).
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable-file|disable)\s*(?:=\s*(?P<codes>[A-Z0-9, ]+))?"
)

#: File-level suppressions must appear within the first N physical lines.
_FILE_SUPPRESS_WINDOW = 10

#: Marker meaning "all rules" in a suppression set.
ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a checker may want to know about one source file."""

    path: Path
    #: POSIX-style path relative to the lint root (used for include globs).
    relpath: str
    source: str
    tree: ast.Module
    #: line number -> set of suppressed codes ("*" suppresses all).
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: codes suppressed for the whole file ("*" suppresses all).
    file_suppressions: Set[str] = field(default_factory=set)

    def is_suppressed(self, line: int, code: str) -> bool:
        if ALL_RULES in self.file_suppressions or code in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(line)
        return codes is not None and (ALL_RULES in codes or code in codes)


class Checker:
    """Base class for reprolint rules.

    Subclasses set ``code`` (e.g. ``"REPRO001"``), ``name`` (a short
    kebab-case slug), ``description``, and optionally ``include`` /
    ``exclude`` glob patterns matched against the file's POSIX relpath.
    ``check`` yields findings; the engine applies suppressions.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: fnmatch globs; empty means "every file".
    include: Tuple[str, ...] = ()
    #: fnmatch globs; matched files are skipped even if included.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if self.include and not any(
            fnmatch.fnmatch(relpath, pat) for pat in self.include
        ):
            return False
        return not any(fnmatch.fnmatch(relpath, pat) for pat in self.exclude)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectChecker(Checker):
    """Base class for whole-program rules (pass 2).

    Where a :class:`Checker` sees one file, a project rule sees the
    assembled :class:`~tools.reprolint.project.ProjectContext` and may
    anchor findings in any analyzed file.  ``include``/``exclude`` globs
    are applied by the rule itself (via :meth:`applies_to`) rather than
    by the engine, because a single project rule typically scopes
    different sub-checks to different trees.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# Baseline ratchet
# --------------------------------------------------------------------- #
BASELINE_SCHEMA_VERSION = 1


def baseline_key(finding: Finding) -> str:
    """Stable identity of a finding for baseline bookkeeping.

    Line/column are deliberately excluded so unrelated edits above a
    baselined finding do not un-baseline it.
    """
    return f"{finding.path}::{finding.code}::{finding.message}"


def load_baseline(path: Path) -> Dict[str, int]:
    """Read a baseline file into ``key -> allowed count``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("entries", {})
    return {str(key): int(count) for key, count in entries.items()}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    counts: Dict[str, int] = {}
    for finding in findings:
        key = baseline_key(finding)
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "schema": BASELINE_SCHEMA_VERSION,
        "entries": dict(sorted(counts.items())),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> List[Finding]:
    """Drop findings covered by the baseline, consuming counts.

    Findings beyond the recorded count for a key (a *regression*) are
    kept, as is anything not in the baseline at all.
    """
    remaining = dict(baseline)
    kept: List[Finding] = []
    for finding in findings:
        key = baseline_key(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            kept.append(finding)
    return kept


def collect_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract per-line and per-file suppression sets from comments.

    Uses the token stream (not a regex over raw lines) so that ``#``
    characters inside string literals never register as comments.
    """
    line_suppressions: Dict[int, Set[str]] = {}
    file_suppressions: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            raw = match.group("codes")
            codes = (
                {c.strip() for c in raw.split(",") if c.strip()}
                if raw
                else {ALL_RULES}
            )
            if match.group("scope") == "disable-file":
                if tok.start[0] <= _FILE_SUPPRESS_WINDOW:
                    file_suppressions |= codes
            else:
                line_suppressions.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass  # the AST parse will report the real syntax problem
    return line_suppressions, file_suppressions


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class LintRunner:
    """Runs per-file and project checkers over a set of paths."""

    def __init__(
        self,
        checkers: Sequence[Checker],
        root: Optional[Path] = None,
    ) -> None:
        self.checkers = [c for c in checkers if not isinstance(c, ProjectChecker)]
        self.project_checkers = [
            c for c in checkers if isinstance(c, ProjectChecker)
        ]
        self.root = (root if root is not None else Path.cwd()).resolve()

    def _relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def load_context(self, path: Path) -> Tuple[Optional[FileContext], List[Finding]]:
        """Parse one file; a syntax error yields a REPRO000 finding."""
        relpath = self._relpath(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return None, [
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    code="REPRO000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        line_supp, file_supp = collect_suppressions(source)
        ctx = FileContext(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            line_suppressions=line_supp,
            file_suppressions=file_supp,
        )
        return ctx, []

    def _check_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for checker in self.checkers:
            if not checker.applies_to(ctx.relpath):
                continue
            for finding in checker.check(ctx):
                if not ctx.is_suppressed(finding.line, finding.code):
                    findings.append(finding)
        return findings

    def lint_file(self, path: Path) -> List[Finding]:
        """Single-file entry point (per-file rules only)."""
        ctx, findings = self.load_context(path)
        if ctx is not None:
            findings.extend(self._check_file(ctx))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    def build_project(self, paths: Sequence[Path]) -> "ProjectContext":
        """Pass 1 only: parse everything and assemble the project view."""
        from tools.reprolint.project import ProjectContext

        contexts: List[FileContext] = []
        for path in iter_python_files(paths):
            ctx, _ = self.load_context(path)
            if ctx is not None:
                contexts.append(ctx)
        return ProjectContext.build(contexts, root=self.root)

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        contexts: List[FileContext] = []
        findings: List[Finding] = []
        # Pass 1: parse once, run per-file rules.
        for path in iter_python_files(paths):
            ctx, parse_findings = self.load_context(path)
            findings.extend(parse_findings)
            if ctx is not None:
                contexts.append(ctx)
                findings.extend(self._check_file(ctx))
        # Pass 2: whole-program rules over the assembled symbol table.
        if self.project_checkers:
            from tools.reprolint.project import ProjectContext

            project = ProjectContext.build(contexts, root=self.root)
            by_relpath = {ctx.relpath: ctx for ctx in contexts}
            for checker in self.project_checkers:
                for finding in checker.check_project(project):
                    ctx = by_relpath.get(finding.path)
                    if ctx is not None and ctx.is_suppressed(
                        finding.line, finding.code
                    ):
                        continue
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings


def lint_paths(
    paths: Sequence[Path],
    checkers: Optional[Sequence[Checker]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Convenience wrapper used by tests and the CLI."""
    if checkers is None:
        from tools.reprolint.rules import ALL_CHECKERS, ALL_PROJECT_CHECKERS

        checkers = [cls() for cls in (*ALL_CHECKERS, *ALL_PROJECT_CHECKERS)]
    return LintRunner(checkers, root=root).run(list(paths))
