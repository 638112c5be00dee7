"""The lint driver: file discovery, rule execution, suppressions.

The engine is import-light and stdlib-only so it can run in CI, in the
test suite (``tests/test_static_analysis.py`` gates tier-1 on it) and from
the ``repro lint`` CLI with identical behaviour.  :func:`lint_source`
lints a source string, which is what the rule unit tests use.

Every rule is file-local: one run parses each file once and runs the
rules over that one tree.  Most rules apply only to files inside the
``repro`` package; ``tests/`` and ``benchmarks/`` files still get
parse-error and suppression-hygiene checks, plus the rules whose
``package_only`` is false (REP-R802 covers bench output handles).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import (
    SEVERITY_ERROR,
    SUPPRESSION_RULE_ID,
    Finding,
    parse_suppressions,
)
from repro.analysis.rules import FileContext, Rule, default_rules

PARSE_ERROR_RULE_ID = "REP-E000"

# Directory names never worth linting (virtualenvs, build output, VCS).
SKIP_DIRS = frozenset({
    "__pycache__", ".venv", "venv", "build", "dist", ".git", ".eggs",
    ".mypy_cache", ".pytest_cache", ".ruff_cache", "node_modules",
})


@dataclass(slots=True)
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.add(path)
        elif path.is_dir():
            files.update(p for p in path.rglob("*.py")
                         if not SKIP_DIRS.intersection(p.parts))
    return sorted(files)


def _relpath(path: Path) -> str:
    """``path`` relative to the working directory when it lies below it.

    The relpath places the file in the package, so lint from the
    repository root (as CI does) or pass paths that keep their ``repro``
    component.
    """
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(
    source: str,
    relpath: str = "repro/module.py",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string; findings sorted by location.

    ``relpath`` places the file: the part after its last ``repro``
    component decides which directory-scoped rules apply.
    """
    if rules is None:
        rules = default_rules()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [Finding(
            rule=PARSE_ERROR_RULE_ID, severity=SEVERITY_ERROR,
            path=relpath, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; nothing else was checked")]
    suppressions = parse_suppressions(lines)
    findings = [
        Finding(
            rule=SUPPRESSION_RULE_ID, severity=SEVERITY_ERROR,
            path=relpath, line=suppression.line, col=1,
            message="suppression without a justification is inactive",
            hint="append a reason: "
                 "# repro-lint: disable=REP-XNNN (why it is safe)")
        for suppression in suppressions if not suppression.active
    ]
    ctx = FileContext(relpath=relpath, tree=tree)
    for rule in rules:
        if rule.package_only and not ctx.in_package:
            continue
        findings.extend(
            found for found in rule.check(ctx)
            if not any(s.covers(found) for s in suppressions))
    findings.sort(key=lambda f: f.sort_key)
    return findings


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint every ``.py`` file under the given files/directories."""
    if rules is None:
        rules = default_rules()
    files = iter_python_files(Path(p) for p in paths)
    result = LintResult(files_checked=len(files))
    for path in files:
        result.findings.extend(lint_source(
            path.read_text(encoding="utf-8"), _relpath(path), rules))
    result.findings.sort(key=lambda f: f.sort_key)
    return result
