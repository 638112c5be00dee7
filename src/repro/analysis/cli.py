"""Command-line front end of the linter: ``repro lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 missing path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import default_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to the ``repro lint`` subparser."""
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/repro")],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.name:<26} [{rule.severity}]  "
                  f"{rule.hint}")
        return 0

    missing = [str(p) for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    result = lint_paths(args.paths)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1
