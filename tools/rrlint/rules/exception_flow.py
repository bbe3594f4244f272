"""RR009: public functions must document the project exceptions they raise.

The raise-set of every public function is inferred through the call
graph (to a fixpoint, filtered by enclosing ``try/except`` handlers)
and compared against its docstring.  Only exception classes *defined in
this project* (``PoolRecoveryError``, ``IndexIntegrityError``, ...)
are enforced — builtins like ``ValueError`` are conventional enough
that requiring them everywhere would bury the signal — and classes
defined in fault-injection modules (``repro.serving.faults``) are
exempt: they only exist under injected faults, never in production
flow.

The inverse is checked too: a project exception listed in a formal
``Raises:`` docstring section that the call graph cannot reach is
flagged as stale documentation.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation
from tools.rrlint.project import Project, ProjectModule, project_context

__all__ = ["ExceptionFlowRule"]

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SECTION_HEADERS = {
    "args",
    "arguments",
    "parameters",
    "returns",
    "yields",
    "raises",
    "notes",
    "examples",
    "attributes",
    "warns",
    "see also",
    "references",
}


class ExceptionFlowRule(Rule):
    """Diff inferred raise-sets against public docstrings."""

    rule_id = "RR009"
    name = "exception-flow"
    rationale = (
        "the raise-set of every public function, inferred through the "
        "call graph, must appear in its docstring; documented-but-"
        "unreachable project exceptions are stale"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Flag undocumented escapees and stale Raises entries."""
        project, mod = project_context(self, src)
        known = _project_exception_names(project)
        for qualname, node in _public_functions(mod):
            doc = ast.get_docstring(node)
            if not doc:
                continue  # RR004 already owns missing-docstring
            inferred = {
                name
                for exc_module, name in project.raise_set(mod.name, qualname)
                if exc_module in project.modules
                and not exc_module.endswith(".faults")
                and project.is_exception_class((exc_module, name))
            }
            for name in sorted(inferred):
                if re.search(rf"\b{re.escape(name)}\b", doc):
                    continue
                yield self.violation(
                    src,
                    node,
                    f"public function {qualname} may raise {name} "
                    "(inferred through the call graph) but its docstring "
                    "does not mention it",
                )
            documented = {
                word
                for word in _WORD_RE.findall(_raises_section(doc))
                if word in known
            }
            for name in sorted(documented - inferred):
                yield self.violation(
                    src,
                    node,
                    f"docstring of {qualname} documents {name} under "
                    "Raises but the call graph cannot reach it",
                )


def _public_functions(
    mod: ProjectModule,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    for name, node in mod.functions.items():
        if not name.startswith("_"):
            yield name, node
    for cls_name, info in mod.classes.items():
        if cls_name.startswith("_"):
            continue
        for method_name, method in info.methods.items():
            if method_name.startswith("_"):
                continue
            yield f"{cls_name}.{method_name}", method


def _project_exception_names(project: Project) -> frozenset[str]:
    names: set[str] = set()
    for module_name, mod in project.modules.items():
        for cls_name in mod.classes:
            if project.is_exception_class((module_name, cls_name)):
                names.add(cls_name)
    return frozenset(names)


def _raises_section(doc: str) -> str:
    out: list[str] = []
    active = False
    for line in doc.splitlines():
        stripped = line.strip()
        header = stripped.rstrip(":").lower()
        if header == "raises":
            active = True
            continue
        if active:
            if header in _SECTION_HEADERS:
                active = False
                continue
            if stripped and set(stripped) <= {"-", "="}:
                continue  # numpy-style underline
            out.append(line)
    return "\n".join(out)
