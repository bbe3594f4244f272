"""Repo-specific static analysis: the invariant linter behind
``python -m tools.rrlint``.

A development tool, not part of the installed ``repro`` package: it is
pure stdlib and lints files by path, so it runs from the repo root
without ``repro`` importable.  It turns the correctness invariants the
codebase learned the hard way into lint-time checks (rules ``RR001``,
``RR002`` and ``RR004``–``RR011``): RNG discipline for exact
captured-state rebuilds, the int64-id / uint64-fingerprint dtype
contract, a declared and documented API surface, ``assert``- and
mutable-default-free library code, exactness-preserving budget clipping
via ``clip_batch_hits``, and the whole-program resource, exception,
process-boundary and layering contracts.  See
:mod:`tools.rrlint.engine` for the rule framework and
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
