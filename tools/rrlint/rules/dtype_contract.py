"""RR002 — id arrays are int64, fingerprints are uint64.

The backend boundary contract (:meth:`IndexBackend.bucket` and the
persistence payloads): point-id arrays crossing it are **int64** and
fingerprint arrays are **uint64**.  The PR 4 ``bucket()`` bug — int32-
narrowed ids leaking out of :class:`PackedBackend` — is exactly the class
this rule catches: an ``astype``/array-creation that narrows an id-like
array, or gives a fingerprint-like array a signed/narrow dtype, anywhere
except the one sanctioned site (:meth:`PackedBackend.build` in
``index/backends.py``, which narrows ids *internally* and widens them
back at ``bucket()``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["DtypeContractRule"]

_ID_NAME = re.compile(r"(^|_)ids?($|_)")
_FP_NAME = re.compile(r"(^|_)(fps?|fingerprints?)($|_)")

_NARROW_INT = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)
_SIGNED_OR_NARROW = _NARROW_INT | {"int64", "int_", "intp", "int"}

_CREATION_FUNCS = frozenset(
    {"array", "asarray", "empty", "zeros", "ones", "full", "arange"}
)

# The one sanctioned narrowing site: PackedBackend.build may store ids
# narrowed (it widens at the bucket() boundary).
_SANCTIONED = ("repro/index/backends.py", "build")


def _dtype_leaf(node: ast.expr) -> str | None:
    """Terminal dtype name of a literal dtype expression (``np.int32`` →
    ``"int32"``, ``"int32"`` → ``"int32"``); ``None`` when dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    dotted = dotted_name(node)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1]
    return None


def _context_names(node: ast.Call) -> set[str]:
    """Identifiers that tell us *what* is being cast: names inside the
    call's receiver/arguments plus the assignment targets of the
    statement the call sits in."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    parent = getattr(node, "parent", None)
    while parent is not None and not isinstance(parent, ast.stmt):
        parent = getattr(parent, "parent", None)
    if isinstance(parent, ast.Assign):
        for target in parent.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    elif isinstance(parent, ast.AnnAssign) and isinstance(
        parent.target, ast.Name
    ):
        names.add(parent.target.id)
    return names


class DtypeContractRule(Rule):
    """Flag dtype narrowing of id arrays / mistyping of fingerprints."""

    rule_id = "RR002"
    name = "dtype-contract"
    rationale = (
        "id arrays crossing the backend boundary are int64 and "
        "fingerprints uint64; narrowing outside PackedBackend.build "
        "reintroduces the PR 4 bucket() dtype bug"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find statically-narrowing casts of id/fingerprint arrays."""
        sanctioned_file = src.path_endswith(_SANCTIONED[0])
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dtype_expr = self._dtype_argument(node)
            if dtype_expr is None:
                continue
            leaf = _dtype_leaf(dtype_expr)
            if leaf is None:
                continue  # dynamic dtype: not statically checkable
            if sanctioned_file and (
                src.enclosing_function(node.lineno) == _SANCTIONED[1]
            ):
                continue
            names = _context_names(node)
            id_like = any(_ID_NAME.search(n) for n in names)
            fp_like = any(_FP_NAME.search(n) for n in names)
            if id_like and leaf in _NARROW_INT:
                yield self.violation(
                    src,
                    node,
                    f"id array narrowed to {leaf}: ids crossing the "
                    "backend boundary must be int64 (only "
                    "PackedBackend.build may narrow, and it widens back "
                    "at bucket())",
                )
            elif fp_like and leaf in _SIGNED_OR_NARROW:
                yield self.violation(
                    src,
                    node,
                    f"fingerprint array typed {leaf}: fingerprints are "
                    "uint64 (splitmix64 output; signed/narrow dtypes "
                    "corrupt ordering and searchsorted probes)",
                )

    def _dtype_argument(self, node: ast.Call) -> ast.expr | None:
        """The dtype expression of an ``astype`` call or an array-creation
        call with a ``dtype=`` keyword; ``None`` otherwise."""
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            return node.args[0]
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in _CREATION_FUNCS:
            for kw in node.keywords:
                if kw.arg == "dtype":
                    return kw.value
        return None
