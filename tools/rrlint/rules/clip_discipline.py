"""RR006 — budget clipping goes through ``budgeted_hits``, never slices.

The exactness argument of sharded serving (PR 4) hinges on *table-
granularity* clipping: a shard may drop only the hits the merged
Theorem 6.1 budget scan could never reach, and it must record the
pre-clip ``full_table_counts`` so the merge recomputes exact stats.
:meth:`repro.index.backends.IndexBackend.budgeted_hits` implements
exactly that (the packed backend clips on the count matrix before it
gathers), with :func:`repro.index.backends.clip_batch_hits` as its
reference path for backends without a budgeted gather.
Slicing a :class:`BatchHits` stream directly (``block.hits[:budget]``)
cuts mid-table, loses the pre-clip counts, and silently breaks the
bit-identical-to-unsharded guarantee — so any slice of a ``.hits``
attribute outside ``clip_batch_hits`` itself (or the per-query
``BatchHits.segment`` accessor) is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation

__all__ = ["ClipDisciplineRule"]

# Functions allowed to slice a hit stream: the clipping device itself and
# the per-query segment accessor (which partitions, never truncates).
_EXEMPT_FUNCTIONS = frozenset({"clip_batch_hits", "segment"})


class ClipDisciplineRule(Rule):
    """Flag direct slicing of ``BatchHits.hits`` streams."""

    rule_id = "RR006"
    name = "clip-discipline"
    rationale = (
        "pool/merge code must reduce hit streams via budgeted_hits or "
        "clip_batch_hits (table-granularity, pre-clip counts preserved); "
        "slicing "
        ".hits directly breaks the exact-merge guarantee"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find Slice subscripts over `.hits` attributes."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Subscript):
                continue
            if not isinstance(node.slice, ast.Slice):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Attribute) and value.attr == "hits"
            ):
                continue
            if src.enclosing_function(node.lineno) in _EXEMPT_FUNCTIONS:
                continue
            yield self.violation(
                src,
                node,
                "direct slice of a BatchHits `.hits` stream: budget "
                "reduction must go through budgeted_hits or "
                "clip_batch_hits so the clip "
                "stays table-granular and full_table_counts survive for "
                "the exact merge",
            )
