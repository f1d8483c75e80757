"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit status 0 when every checked file is clean, 1 when any rule fired,
2 on usage errors — the contract the CI ``static-analysis`` job gates on.
``--format json`` emits a stable machine-readable envelope for tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.lint.base import Diagnostic
from repro.lint.rules import all_rules
from repro.lint.runner import lint_paths

__all__ = ["main", "build_parser", "format_json", "format_rule_table"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Whole-project static analyzer for the repro numerical core "
            "(rules R002, R007-R011; see docs/LINTING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def format_rule_table() -> str:
    rows = [(rule.rule_id, rule.name, rule.summary) for rule in all_rules()]
    id_w = max(len(r[0]) for r in rows)
    name_w = max(len(r[1]) for r in rows)
    lines = [f"{'ID':<{id_w}}  {'NAME':<{name_w}}  SUMMARY"]
    for rule_id, name, summary in rows:
        lines.append(f"{rule_id:<{id_w}}  {name:<{name_w}}  {summary}")
    return "\n".join(lines)


def format_json(diagnostics: List[Diagnostic], rule_ids: List[str]) -> str:
    """The machine-readable report envelope (stable key order)."""
    payload: Dict[str, Any] = {
        "version": 1,
        "rules": rule_ids,
        "count": len(diagnostics),
        "diagnostics": [
            {
                "path": diag.path,
                "line": diag.line,
                "col": diag.col,
                "rule_id": diag.rule_id,
                "message": diag.message,
            }
            for diag in diagnostics
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(format_rule_table())
        return 0
    paths = args.paths or ["src"]
    select = args.select.split(",") if args.select is not None else None
    try:
        diagnostics = lint_paths(paths, select=select)
    except ValueError as err:
        parser.error(str(err))  # exits 2
        return 2  # pragma: no cover - parser.error raises SystemExit
    if args.format == "json":
        active = select_ids(select)
        print(format_json(diagnostics, active))
    else:
        for diag in diagnostics:
            print(diag.format())
    if diagnostics:
        if args.format == "text":
            print(
                f"repro.lint: {len(diagnostics)} violation(s) found",
                file=sys.stderr,
            )
        return 1
    return 0


def select_ids(select: Optional[List[str]]) -> List[str]:
    """The active rule ids for a ``--select`` argument, in id order."""
    if select is None:
        return [rule.rule_id for rule in all_rules()]
    wanted = {part.strip().upper() for part in select} - {""}
    return [rule.rule_id for rule in all_rules() if rule.rule_id in wanted]
