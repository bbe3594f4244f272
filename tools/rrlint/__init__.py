"""Repo-specific static analysis: the invariant linter behind
``python -m tools.rrlint``.

A development tool, not part of the installed ``repro`` package: it is
pure stdlib and lints files by path, so it runs from the repo root
without ``repro`` importable.  It keeps only the invariants the test
suite does not already catch (rules ``RR001``, ``RR004``, ``RR005``,
``RR007``–``RR009`` and ``RR011``): RNG discipline for exact
captured-state rebuilds, a declared and documented API surface,
``assert``-free library code, no silent broad
``except``, and the whole-program resource, exception and layering
contracts.  See :mod:`tools.rrlint.engine` for the rule framework and
:mod:`tools.rrlint.rules` for the registry.
"""

from __future__ import annotations

from tools.rrlint.cli import main
from tools.rrlint.engine import Rule, SourceFile, Violation, run_source
from tools.rrlint.rules import ALL_RULES, RULES_BY_ID

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "SourceFile",
    "Violation",
    "main",
    "run_source",
]
