"""The invariant-lint framework: findings, suppression, annotation parsing.

PRs 3-5 made this reproduction a concurrent system whose correctness
rests on invariants nothing checked mechanically: lock discipline in the
cache and serving tiers, fingerprint completeness in the staged
pipeline, determinism of every value that flows into a content key, and
the canonical-CSR contract the zero-copy mmap tier depends on.  This
package makes those invariants *enforceable*:

- :mod:`repro.analysis.rules` — AST checkers, one per invariant, each
  producing :class:`Finding` records with a stable ``rule`` id.
- :mod:`repro.analysis.sanitizer` — the runtime twin: instrumented
  locks + guarded-attribute tracers that catch what static analysis
  cannot (actual cross-thread access, lock-order inversions under load).
- ``python -m repro.analysis`` — the CLI gate; a tier-1 test runs it
  over the whole repo and fails on any unsuppressed finding.

Source annotations (the contract between code and checkers)
-----------------------------------------------------------
``# guarded-by: <lock>``
    Trailing comment on an attribute assignment inside a class (usually
    in ``__init__``).  Declares that ``self.<attr>`` may only be read or
    written inside a ``with self.<lock>:`` block in methods of that
    class (``__init__``/``__del__`` are exempt — the object is not yet
    / no longer shared).  The same annotation drives the runtime
    sanitizer: :func:`collect_guarded` parses it from the class source
    so both tiers enforce one declaration.

``# fingerprint-stage: <stage>``
    Trailing comment on a ``def`` line in ``repro.api.pipeline``.
    Declares the method implements one pipeline stage; every config
    field the method (or its nested ``build`` closures) reads must then
    appear in that stage's *cumulative* fingerprint
    (``STAGE_FIELDS`` in ``repro.api.artifacts``) — an under-keyed
    stage silently serves stale artifacts.

``# repro: ignore[rule-id]`` / ``# repro: ignore``
    Suppresses findings of one rule (or all rules) on the annotated
    line; multi-line statements may carry the comment on any of their
    lines.  Suppressions are deliberate and greppable.
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import textwrap
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

#: Trailing annotation declaring an attribute lock-guarded.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Trailing annotation binding a method to a pipeline stage.
FINGERPRINT_STAGE_RE = re.compile(
    r"#\s*fingerprint-stage:\s*([A-Za-z_][A-Za-z0-9_]*)"
)

#: ``# repro: ignore[rule-a, rule-b]`` (scoped) or ``# repro: ignore``.
IGNORE_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_\-,\s]*)\])?"
)

#: Directories never scanned.
SKIP_DIR_NAMES = {"__pycache__", ".git", ".pytest_cache"}


@dataclass
class Finding:
    """One checker hit: where, which rule, and what is wrong."""

    file: str
    line: int
    rule: str
    message: str
    severity: str = "error"

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class SuppressionMap:
    """Per-line ``# repro: ignore`` comments, with usage tracking.

    ``lines`` maps a 1-based line number to the set of rule ids the
    comment names (empty set = blanket, suppresses every rule).  Each
    suppression that actually shields a finding records its line in
    ``used`` — the ``unused-suppression`` audit reports the rest.

    Suppressions are parsed from real ``tokenize`` COMMENT tokens, not
    raw lines: an ignore-shaped substring inside a string literal (test
    fixtures embed plenty) is data, not a directive — treating it as one
    would both suppress real findings and flood the audit with
    false "unused" hits.
    """

    def __init__(
        self,
        lines: Optional[Dict[int, set]] = None,
        used: Optional[Iterable[int]] = None,
    ):
        self.lines: Dict[int, set] = dict(lines or {})
        self.used: Set[int] = set(used or ())

    @classmethod
    def from_text(cls, text: str) -> "SuppressionMap":
        lines: Dict[int, set] = {}
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(text).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = None
        if tokens is not None:
            candidates = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        else:  # unparseable: fall back to the raw-line scan
            candidates = list(enumerate(text.splitlines(), start=1))
        for number, chunk in candidates:
            match = IGNORE_RE.search(chunk)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                lines[number] = set()
            else:
                lines[number] = {
                    rule.strip() for rule in rules.split(",") if rule.strip()
                }
        return cls(lines)

    def is_suppressed(
        self, rule: str, line: int, end_line: Optional[int] = None
    ) -> bool:
        end_line = line if end_line is None else end_line
        for number in range(line, end_line + 1):
            rules = self.lines.get(number)
            if rules is not None and (not rules or rule in rules):
                self.used.add(number)
                return True
        return False

    def to_dict(self) -> Dict[str, List[str]]:
        return {str(n): sorted(r) for n, r in self.lines.items()}

    @classmethod
    def from_dict(
        cls, data: Dict[str, List[str]], used: Iterable[int] = ()
    ) -> "SuppressionMap":
        return cls({int(n): set(r) for n, r in data.items()}, used)


class SourceFile:
    """One parsed module: AST + raw lines + per-line suppressions."""

    def __init__(self, path: Union[str, Path], text: str):
        self.path = Path(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.suppression_map = SuppressionMap.from_text(text)
        #: line -> set of suppressed rule ids; empty set = all rules.
        self.suppressions: Dict[int, set] = self.suppression_map.lines

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def is_suppressed(
        self, rule: str, line: int, end_line: Optional[int] = None
    ) -> bool:
        """True when an ignore comment covers ``rule`` on this statement."""
        return self.suppression_map.is_suppressed(rule, line, end_line)


class Rule:
    """Base class: one invariant checker over one :class:`SourceFile`."""

    rule_id: str = ""
    description: str = ""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Optional[Finding]:
        """A :class:`Finding` at ``node``, or None when suppressed."""
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", line)
        if source.is_suppressed(self.rule_id, line, end_line):
            return None
        return Finding(
            file=str(source.path), line=line, rule=self.rule_id, message=message
        )


class ProjectRule(Rule):
    """A rule that runs once over the whole project, not per file.

    ``check`` is a no-op; :func:`analyze_paths` builds one
    :class:`repro.analysis.graph.ProjectGraph` from every scanned file's
    summary and calls :meth:`check_project` after the per-file rules.
    Findings are filtered through the per-file suppression maps like any
    other rule's.
    """

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph) -> Iterator[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Annotation parsing shared by the static rules and the runtime sanitizer
# ---------------------------------------------------------------------- #


def guarded_attributes_from_source(
    lines: Sequence[str], class_node: ast.ClassDef
) -> Dict[str, str]:
    """``{attribute: lock_name}`` declared via ``# guarded-by:`` comments.

    Recognizes annotations trailing ``self.<attr> = ...`` (or annotated
    ``self.<attr>: T = ...``) assignments anywhere inside the class —
    conventionally in ``__init__`` — plus class-level ``attr = ...``
    declarations (shared state such as a class-wide lock-guarded slot).
    """
    guarded: Dict[str, str] = {}
    for node in ast.walk(class_node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        line_index = node.lineno - 1
        if not (0 <= line_index < len(lines)):
            continue
        match = GUARDED_BY_RE.search(lines[line_index])
        if match is None:
            continue
        lock_name = match.group(1)
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                guarded[target.attr] = lock_name
            elif isinstance(target, ast.Name):
                guarded[target.id] = lock_name
    return guarded


def collect_guarded(cls: type) -> Dict[str, str]:
    """``{attribute: lock_name}`` for a live class, via its source.

    The runtime sanitizer's entry point into the static annotations: one
    ``# guarded-by:`` declaration drives both the AST checker and the
    instrumented-object tracer, so the two tiers can never disagree
    about what is supposed to be guarded.  Annotations are inherited:
    a subclass instance is traced for its base classes' guarded state
    too.  Classes without readable source (builtins, REPL definitions)
    contribute ``{}``.
    """
    guarded: Dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        guarded.update(_own_guarded(klass))
    return guarded


def _own_guarded(cls: type) -> Dict[str, str]:
    """The annotations declared in ``cls``'s own class body."""
    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    lines = source.splitlines()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            return guarded_attributes_from_source(lines, node)
    return {}


def fingerprint_stage_markers(source: SourceFile) -> Dict[str, str]:
    """``{function_name: stage}`` from ``# fingerprint-stage:`` comments.

    The marker trails the ``def`` line (or any line of a multi-line
    signature) of the method implementing the stage.
    """
    markers: Dict[str, str] = {}
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first_body_line = node.body[0].lineno if node.body else node.lineno
        for line in range(node.lineno, first_body_line + 1):
            match = FINGERPRINT_STAGE_RE.search(source.line_text(line))
            if match is not None:
                markers[node.name] = match.group(1)
                break
    return markers


# ---------------------------------------------------------------------- #
# Running the rules
# ---------------------------------------------------------------------- #


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run over a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "ok": self.ok,
        }


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted, caches skipped."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            out.append(path)
            continue
        if not path.is_dir():
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in SKIP_DIR_NAMES for part in candidate.parts):
                continue
            out.append(candidate)
    seen = set()
    unique: List[Path] = []
    for path in out:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def default_rules() -> List[Rule]:
    """One instance of every repo checker (import-cycle-free accessor)."""
    from repro.analysis.rules import ALL_RULES

    return [rule_cls() for rule_cls in ALL_RULES]


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
    cache=None,
) -> AnalysisResult:
    """Run every rule over every python file under ``paths``.

    Unparseable files produce a ``parse-error`` finding rather than
    crashing the analyzer — a syntax error in tree the gate covers is
    itself a failure worth surfacing.

    Per-file work (parsing, the per-file rules, summarization) is
    memoized in ``cache`` (an :class:`repro.analysis.graph.AnalysisCache`)
    when one is given, keyed by content hash; project-wide rules
    (:class:`ProjectRule`) recompute from the cached summaries every
    run.  The ``unused-suppression`` audit runs last, over the
    suppression-usage record the other rules left behind — a suppression
    is only judged unused when every rule it names actually ran (a
    blanket ``# repro: ignore`` requires the full default rule set).
    """
    rules = list(default_rules() if rules is None else rules)
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    audit_rules = [r for r in rules if getattr(r, "is_audit", False)]
    local_rules = [
        r for r in rules
        if not isinstance(r, ProjectRule) and not getattr(r, "is_audit", False)
    ]
    from repro.analysis.graph import FileSummary, ProjectGraph, \
        summarize_source  # local import: graph imports core

    need_summaries = bool(project_rules) or cache is not None
    rule_token = ",".join(sorted(r.rule_id for r in local_rules))
    result = AnalysisResult()
    summaries: Dict[str, FileSummary] = {}
    smaps: Dict[str, SuppressionMap] = {}

    for path in iter_python_files(paths):
        spath = str(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            result.findings.append(
                Finding(
                    file=spath, line=1, rule="parse-error",
                    message=f"unreadable file: {exc}",
                )
            )
            continue
        result.files_scanned += 1
        key = None
        if cache is not None:
            key = cache.key_for(path, data, rule_token)
            entry = cache.lookup(spath, key)
            if entry is not None:
                for raw in entry["findings"]:
                    result.findings.append(Finding(**raw))
                smaps[spath] = SuppressionMap.from_dict(
                    entry.get("suppressions", {}), entry.get("used", ())
                )
                if entry.get("summary") is not None:
                    summaries[spath] = FileSummary.from_dict(entry["summary"])
                continue
        try:
            source = SourceFile(path, data.decode("utf-8"))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            line = int(getattr(exc, "lineno", None) or 1)
            msg = getattr(exc, "msg", None) or str(exc)
            found = Finding(
                file=spath, line=line, rule="parse-error",
                message=f"syntax error: {msg}",
            )
            result.findings.append(found)
            if cache is not None:
                cache.store(spath, key, {
                    "findings": [found.to_dict()], "suppressions": {},
                    "used": [], "summary": None,
                })
            continue
        file_findings: List[Finding] = []
        for rule in local_rules:
            file_findings.extend(rule.check(source))
        summary = summarize_source(source) if need_summaries else None
        smaps[spath] = source.suppression_map
        if summary is not None:
            summaries[spath] = summary
        result.findings.extend(file_findings)
        if cache is not None:
            cache.store(spath, key, {
                "findings": [f.to_dict() for f in file_findings],
                "suppressions": source.suppression_map.to_dict(),
                "used": sorted(source.suppression_map.used),
                "summary": summary.to_dict() if summary else None,
            })

    if project_rules and summaries:
        graph = ProjectGraph(summaries, smaps)
        for rule in project_rules:
            for found in rule.check_project(graph):
                smap = smaps.get(found.file)
                if smap is not None and smap.is_suppressed(
                    found.rule, found.line
                ):
                    continue
                result.findings.append(found)

    if audit_rules:
        executed = {r.rule_id for r in local_rules + project_rules}
        from repro.analysis.rules import ALL_RULES

        checkable = {
            cls.rule_id for cls in ALL_RULES
            if not getattr(cls, "is_audit", False)
        }
        full_run = checkable <= executed
        audit_id = audit_rules[0].rule_id
        for spath in sorted(smaps):
            smap = smaps[spath]
            for line in sorted(smap.lines):
                if line in smap.used:
                    continue
                named = smap.lines[line]
                if not named:  # blanket ignore: needs the full rule set
                    if not full_run:
                        continue
                elif not named <= executed:
                    continue
                # Explicit ignore[unused-suppression] opts a line out of
                # the audit; a *blanket* ignore does not get to shield
                # itself (that exemption would be circular — every dead
                # blanket ignore would self-justify).
                if named and smap.is_suppressed(audit_id, line):
                    continue
                scope = "all rules" if not named else ", ".join(sorted(named))
                result.findings.append(
                    Finding(
                        file=spath, line=line, rule=audit_id,
                        message=(
                            f"suppression ({scope}) shields no finding — "
                            f"stale ignores rot the gate; delete it"
                        ),
                        severity="warning",
                    )
                )

    result.findings.sort(key=lambda f: (f.file, f.line, f.rule))
    if cache is not None:
        cache.save()
    return result
