"""RR005 — no ``assert`` statements, no mutable default arguments.

``assert`` vanishes under ``python -O``, so an invariant guarded by one
is an invariant that silently stops being checked in optimized
deployments — the ``assert cpf is not None`` in ``families/valiant.py``
was the canonical offender.  Guards must raise real exceptions.

Mutable defaults (``def f(xs=[])``) are evaluated once at definition
time and shared across calls; with index specs and stats dicts flowing
through the API this is a state-leak bug waiting to happen.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["HygieneRule"]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in _MUTABLE_CALLS:
            return True
    return False


class HygieneRule(Rule):
    """Flag ``assert`` statements and mutable default arguments."""

    rule_id = "RR005"
    name = "no-assert-no-mutable-default"
    rationale = (
        "asserts vanish under `python -O` so runtime invariants must "
        "raise real exceptions; mutable defaults are shared across calls"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find assert statements and mutable default arguments."""
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    src,
                    node,
                    "assert statement: stripped under `python -O`, so the "
                    "invariant silently stops being checked — raise "
                    "ValueError/RuntimeError instead",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_literal(default):
                        yield self.violation(
                            src,
                            default,
                            f"mutable default argument in `{node.name}`: "
                            "evaluated once and shared across calls — "
                            "default to None and construct inside",
                        )
