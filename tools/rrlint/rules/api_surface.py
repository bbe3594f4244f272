"""RR004 — the public API surface is declared and documented.

Three checks per module:

* every name listed in ``__all__`` is actually defined (catches the
  rename-without-updating-``__all__`` drift that silently breaks
  ``from repro.x import *`` and API docs);
* every *public* module-level function/class is exported in ``__all__``
  when the module declares one (the reverse drift: a new public name
  that never becomes importable surface);
* every public function and method carries a docstring.

Dunder methods are exempt from the docstring requirement (their contract
is the data model).  Annotation coverage is not checked here: the
strict ``mypy`` gate (``disallow_untyped_defs``) already enforces it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["ApiSurfaceRule"]


def _declared_all(tree: ast.Module) -> tuple[list[str], bool]:
    """Names assigned to ``__all__`` at module level, and whether the
    module declares one at all."""
    names: list[str] = []
    declared = False
    for node in tree.body:
        values: list[ast.expr] = []
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            declared = True
            values.append(node.value)
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            declared = True
            values.append(node.value)
        for value in values:
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.append(element.value)
    return names, declared


def _bound_names(statements: list[ast.stmt]) -> set[str]:
    """All names a statement list binds in module scope, descending into
    ``if``/``try``/``with``/loop bodies (still module scope)."""
    bound: set[str] = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            bound |= _bound_names(node.body)
            bound |= _bound_names(getattr(node, "orelse", []))
            for handler in getattr(node, "handlers", []):
                bound |= _bound_names(handler.body)
            bound |= _bound_names(getattr(node, "finalbody", []))
        elif isinstance(node, (ast.For, ast.While, ast.With)):
            bound |= _bound_names(node.body)
    return bound


def _decorator_leaves(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    leaves: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted is not None:
            leaves.add(dotted.rsplit(".", 1)[-1])
    return leaves


class ApiSurfaceRule(Rule):
    """Hold ``__all__`` and docstrings to the public API."""

    rule_id = "RR004"
    name = "api-surface"
    rationale = (
        "__all__ must match the defined public names, and public "
        "functions need docstrings (annotation coverage is mypy --strict's)"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Run the __all__-consistency and docstring checks."""
        exported, declared = _declared_all(src.tree)
        if declared:
            bound = _bound_names(src.tree.body)
            for name in exported:
                if name not in bound:
                    yield self.violation(
                        src,
                        src.tree.body[0] if src.tree.body else src.tree,
                        f"__all__ lists `{name}` which is not defined in "
                        "the module",
                    )
            exported_set = set(exported)
            for node in src.tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if not node.name.startswith("_") and (
                        node.name not in exported_set
                    ):
                        kind = (
                            "class"
                            if isinstance(node, ast.ClassDef)
                            else "function"
                        )
                        yield self.violation(
                            src,
                            node,
                            f"public {kind} `{node.name}` is not exported "
                            "in __all__ (export it or underscore-prefix "
                            "it)",
                        )
        yield from self._check_defs(src, src.tree.body, in_class=False)

    def _check_defs(
        self, src: SourceFile, statements: list[ast.stmt], in_class: bool
    ) -> Iterator[Violation]:
        for node in statements:
            if isinstance(node, ast.ClassDef):
                yield from self._check_defs(src, node.body, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(src, node, in_class)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from self._check_defs(src, node.body, in_class)

    def _check_function(
        self,
        src: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Violation]:
        # Private names are skipped; dunders are public but their
        # contract is the data model, so they need no docstring either.
        if node.name.startswith("_"):
            return
        decorators = _decorator_leaves(node)
        if decorators & {"overload", "setter", "deleter"}:
            return
        if ast.get_docstring(node) is None:
            label = "method" if in_class else "function"
            yield self.violation(
                src,
                node,
                f"public {label} `{node.name}` missing docstring",
            )
