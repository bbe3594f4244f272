"""Command-line front-end: ``python -m tools.rrlint [paths...]``.

Exit status is 0 when the linted files have no violations and no parse
errors, 1 otherwise, so the command slots directly into CI.  ``--format
json`` emits a machine-readable report (uploaded as a CI artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from tools.rrlint.engine import Violation
from tools.rrlint.project import run_project
from tools.rrlint.rules import ALL_RULES, RULES_BY_ID

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``tools.rrlint`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.rrlint",
        description=(
            "Repo-specific invariant linter: whole-program rules "
            "enforcing the RNG, API-surface, hygiene, broad-except, "
            "resource-lifecycle, exception-flow, and layering contracts "
            "of this codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (id, name, rationale) and exit",
    )
    return parser


def _print_human(
    violations: list[Violation], errors: list[str], n_files: int
) -> None:
    for violation in violations:
        print(violation.render())
    for message in errors:
        print(f"parse error: {message}")
    print(f"{n_files} files checked: {len(violations)} violation(s)")


def _print_json(
    violations: list[Violation], errors: list[str], n_files: int
) -> None:
    payload = {
        "version": 2,
        "files_checked": n_files,
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "rationale": rule.rationale,
            }
            for rule in ALL_RULES
        ],
        "violations": [v.to_dict() for v in violations],
        "parse_errors": errors,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def _select_rules(raw: str) -> list[str] | None:
    """Parse ``--select``; ``None`` means an unknown/empty selection."""
    wanted = [
        code.strip().upper() for code in raw.split(",") if code.strip()
    ]
    if not wanted:
        print("--select got an empty rule list", file=sys.stderr)
        return None
    unknown = [code for code in wanted if code not in RULES_BY_ID]
    if unknown:
        print(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known: {', '.join(RULES_BY_ID)}",
            file=sys.stderr,
        )
        return None
    return wanted


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name}\n    {rule.rationale}")
        return 0
    rules = list(ALL_RULES)
    if args.select is not None:
        wanted = _select_rules(args.select)
        if wanted is None:
            return 2
        rules = [RULES_BY_ID[code] for code in wanted]
    try:
        violations, errors, project = run_project(args.paths, rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    printer = _print_json if args.format == "json" else _print_human
    printer(violations, errors, len(project.modules))
    return 1 if violations or errors else 0
