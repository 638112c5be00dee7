"""Finding records and inline-suppression parsing for the repro linter.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain frozen dataclasses so reporters and the test-suite gate can
treat them as values.

Suppressions are trailing comments of the form::

    denom == 0.0   # repro-lint: disable=REP-N201 (exact sentinel: ...)

The parenthesised justification is mandatory: a suppression without one is
inactive and itself reported as ``REP-S001`` so that every silenced finding
carries a reason reviewers can audit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

SUPPRESSION_RULE_ID = "REP-S001"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+?)"
    r"(?:\s*\((?P<reason>[^)]*)\))?\s*$")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def format_text(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``repro-lint: disable=...`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    @property
    def active(self) -> bool:
        """Reason-less suppressions are inert (and flagged as REP-S001)."""
        return bool(self.reason.strip())

    def covers(self, finding: Finding) -> bool:
        return (self.active and finding.line == self.line
                and finding.rule in self.rules)


def parse_suppressions(lines: list[str]) -> list[Suppression]:
    """All suppression comments of a source file, one per physical line."""
    found = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",")
            if part.strip())
        found.append(Suppression(line=lineno, rules=rules,
                                 reason=match.group("reason") or ""))
    return found
