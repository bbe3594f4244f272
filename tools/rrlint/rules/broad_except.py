"""RR007 — broad-exception discipline.

``except Exception: pass`` (and bare ``except: pass``) silently swallows
*every* failure, including the ones it was never written for: wrapped
around a snapshot handle's ``close()`` in ``serving/server.py``, it
would hide a handle that failed to release its files along with any
benign double close it meant to ignore.  A swallow must either name the
specific exceptions it expects or do *something* with the surprise (log,
warn, count, re-raise); a silent broad handler does neither.

The rule flags ``except Exception`` / bare ``except`` handlers whose
body is only ``pass`` (or ``...``).  Broad handlers that act on the
exception — warn once, record it, return a sentinel — are fine; so are
narrow silent handlers (``except FileNotFoundError: pass``), which
document exactly what they expect.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["BroadExceptRule"]

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare `except:`
        return True
    dotted = dotted_name(handler.type)
    return dotted is not None and dotted.rsplit(".", 1)[-1] in _BROAD


def _is_silent(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # `...` or a docstring-style constant
        return False
    return True


class BroadExceptRule(Rule):
    """Flag ``except Exception`` / bare ``except`` with a ``pass`` body."""

    rule_id = "RR007"
    name = "broad-except-discipline"
    rationale = (
        "`except Exception: pass` swallows failures it was never written "
        "for; silent handlers must name the exceptions they expect, and "
        "broad ones must act on the surprise (warn, log, re-raise)"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find broad exception handlers that silently discard the error."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and _is_silent(node.body):
                caught = (
                    "bare except"
                    if node.type is None
                    else f"except {dotted_name(node.type)}"
                )
                yield self.violation(
                    src,
                    node,
                    f"silent broad handler ({caught}: pass): narrow it to "
                    "the exceptions actually expected, or surface the "
                    "unexpected ones (warnings/logging) instead of "
                    "swallowing them",
                )
