"""Finding reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult


def render_text(result: LintResult) -> str:
    """One line (plus its hint) per finding, then a summary line."""
    parts = [finding.format_text() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    parts.append(f"{len(result.findings)} {noun} "
                 f"({result.files_checked} files checked)")
    return "\n".join(parts)


def render_json(result: LintResult) -> str:
    """The full result as a JSON document (stable key order)."""
    payload = {
        "findings": [finding.to_json() for finding in result.findings],
        "summary": {
            "count": len(result.findings),
            "files_checked": result.files_checked,
            "clean": result.clean,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
