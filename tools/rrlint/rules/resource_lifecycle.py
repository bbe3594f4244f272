"""RR008: OS-backed resources must provably reach their cleanup call.

``SharedMemory`` segments, process/thread pools, ``np.memmap`` views,
zip archives, and open file handles all pin OS state (fds, ``/dev/shm``
segments, worker processes) that outlives an exception unless cleanup
is structural.  The rule accepts a resource acquisition when it is:

- used as a context manager (``with``) or wrapped in
  ``contextlib.closing``/``ExitStack.enter_context``,
- registered with ``weakref.finalize``,
- cleaned up in a ``try/finally`` (or an except-cleanup-and-reraise
  block),
- handed off: returned/yielded to the caller, captured by a closure,
  stored on an object, or passed whole to another function (ownership
  transfer — the receiver is then checked at its own site).

Straight-line ``x = open(...) ... x.close()`` is exactly the
leak-on-exception shape this rule exists to reject.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name
from tools.rrlint.project import ProjectModule, _iter_scopes, project_context

__all__ = ["ResourceLifecycleRule"]

_RESOURCE_LEAVES = {
    "SharedMemory": "shared-memory segment",
    "ProcessPoolExecutor": "process pool",
    "ThreadPoolExecutor": "thread pool",
    "memmap": "memory-mapped view",
    "ZipFile": "zip archive",
}
_CLEANUP_METHODS = {
    "close",
    "unlink",
    "shutdown",
    "terminate",
    "release",
    "cleanup",
    "stop",
    "__exit__",
}
_WRAPPER_LEAVES = {"finalize", "closing", "enter_context", "push"}
_CLASS_CLEANUP_METHODS = {"close", "shutdown", "stop", "__exit__", "__del__"}


class ResourceLifecycleRule(Rule):
    """Require structural cleanup for OS-backed resource acquisitions."""

    rule_id = "RR008"
    name = "resource-lifecycle"
    rationale = (
        "SharedMemory/pools/memmap/file handles must reach close/unlink/"
        "shutdown on all paths: with, try-finally, or weakref.finalize"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Flag resource acquisitions with no structural cleanup path."""
        _, mod = project_context(self, src)
        for qualname, scope in _iter_scopes(mod):
            for node in ast.walk(scope if qualname != "<module>" else mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                if qualname == "<module>" and self._in_function(node, mod):
                    continue
                kind = self._resource_kind(node)
                if kind is None:
                    continue
                if self._managed(mod, qualname, scope, node):
                    continue
                yield self.violation(
                    src,
                    node,
                    f"{kind} acquired in {qualname} has no structural "
                    "cleanup path (use with, try/finally, or "
                    "weakref.finalize)",
                )

    def _in_function(self, node: ast.AST, mod: ProjectModule) -> bool:
        current = getattr(node, "parent", None)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return True
            current = getattr(current, "parent", None)
        return False

    def _resource_kind(self, node: ast.Call) -> str | None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        if dotted == "open":
            return "file handle"
        return _RESOURCE_LEAVES.get(dotted.split(".")[-1])

    def _managed(
        self,
        mod: ProjectModule,
        qualname: str,
        scope: ast.AST,
        node: ast.Call,
    ) -> bool:
        parent = getattr(node, "parent", None)
        # with SharedMemory(...) as x / with open(...) ...
        current: ast.AST | None = node
        while current is not None and current is not scope:
            if isinstance(current, ast.withitem):
                return True
            current = getattr(current, "parent", None)
        # weakref.finalize(obj, cleanup, open(...)) / closing(open(...))
        if isinstance(parent, ast.Call):
            wrapper = dotted_name(parent.func)
            if wrapper is not None and wrapper.split(".")[-1] in _WRAPPER_LEAVES:
                return True
        # return np.memmap(...) — ownership transfers to the caller.
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        binding = self._binding(node)
        if binding is None:
            return False
        if isinstance(binding, ast.Name):
            return self._name_managed(binding.id, scope)
        if isinstance(binding, ast.Attribute):
            dotted = dotted_name(binding)
            if dotted is None:
                return False
            return self._attr_managed(dotted, qualname, scope, mod)
        return False

    def _binding(self, node: ast.Call) -> ast.expr | None:
        """The assignment target receiving the resource, if any."""
        current: ast.AST = node
        parent = getattr(node, "parent", None)
        while isinstance(parent, (ast.Tuple, ast.List)):
            current = parent
            parent = getattr(parent, "parent", None)
        if isinstance(parent, ast.Assign) and parent.value is current:
            if len(parent.targets) == 1:
                return parent.targets[0]
            return None
        if isinstance(parent, ast.AnnAssign) and parent.value is current:
            return parent.target
        return None

    def _name_managed(self, name: str, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            # Escapes: returned/yielded, closed over, stored on an
            # object, or passed whole to another function.
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _references(node.value, name):
                    return True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not scope and _references(node, name):
                    return True
            elif isinstance(node, ast.Lambda) and _references(node.body, name):
                return True
            elif isinstance(node, ast.withitem) and _references(
                node.context_expr, name
            ):
                return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    for target in node.targets
                ) and _references(node.value, name):
                    return True
            elif isinstance(node, ast.Try):
                if node.finalbody and _cleans_up(node.finalbody, name):
                    return True
                handler_cleans = any(
                    _cleans_up(handler.body, name)
                    for handler in node.handlers
                )
                handler_raises = any(
                    isinstance(inner, ast.Raise)
                    for handler in node.handlers
                    for inner in ast.walk(handler)
                )
                if handler_cleans and handler_raises:
                    return True
            elif isinstance(node, ast.Call):
                wrapper = dotted_name(node.func)
                if (
                    wrapper is not None
                    and wrapper.split(".")[-1] in _WRAPPER_LEAVES
                    and any(_references(arg, name) for arg in node.args)
                ):
                    return True
                if any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in node.args
                ):
                    return True
        return False

    def _attr_managed(
        self,
        dotted: str,
        qualname: str,
        scope: ast.AST,
        mod: ProjectModule,
    ) -> bool:
        attr = dotted.split(".")[-1]
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                wrapper = dotted_name(node.func)
                if wrapper is not None and wrapper.split(".")[-1] in _WRAPPER_LEAVES:
                    if any(
                        dotted_name(arg) == dotted for arg in node.args
                    ):
                        return True
            elif isinstance(node, ast.Try) and node.finalbody:
                if _cleans_up_attr(node.finalbody, dotted):
                    return True
        if "." not in qualname:
            return False
        cls_name = qualname.split(".")[0]
        info = mod.classes.get(cls_name)
        if info is None:
            return False
        for method_name in _CLASS_CLEANUP_METHODS:
            method = info.methods.get(method_name)
            if method is None:
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute) and node.attr == attr:
                    return True
        return False


def _references(node: ast.AST, name: str) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and inner.id == name:
            return True
    return False


def _cleans_up(body: list[ast.stmt], name: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if (
                dotted is not None
                and dotted.startswith(name + ".")
                and dotted.split(".")[-1] in _CLEANUP_METHODS
            ):
                return True
            if any(
                isinstance(arg, ast.Name) and arg.id == name
                for arg in node.args
            ):
                return True
    return False


def _cleans_up_attr(body: list[ast.stmt], dotted: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if (
                func is not None
                and func.startswith(dotted + ".")
                and func.split(".")[-1] in _CLEANUP_METHODS
            ):
                return True
            if any(dotted_name(arg) == dotted for arg in node.args):
                return True
    return False
