"""RR005 — no ``assert`` statements in library code.

``assert`` vanishes under ``python -O``, so an invariant guarded by one
is an invariant that silently stops being checked in optimized
deployments — the ``assert cpf is not None`` in ``families/valiant.py``
was the canonical offender.  Guards must raise real exceptions.  The
test suite never runs under ``-O``, so it cannot see a guard vanish.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation

__all__ = ["HygieneRule"]


class HygieneRule(Rule):
    """Flag ``assert`` statements."""

    rule_id = "RR005"
    name = "no-assert"
    rationale = (
        "asserts vanish under `python -O` so runtime invariants must "
        "raise real exceptions"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find assert statements."""
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    src,
                    node,
                    "assert statement: stripped under `python -O`, so the "
                    "invariant silently stops being checked — raise "
                    "ValueError/RuntimeError instead",
                )
