"""RR010: everything crossing the process-pool boundary must pickle.

A callable handed to ``ProcessPoolExecutor.submit``/``map`` travels to
the worker over a pipe, and whatever it raises travels back — so the
target must be a module-top-level function (lambdas, nested functions,
and bound methods are not picklable by reference), no argument may be a
lambda, and every exception class reachable from worker code must be
module-top-level too (the ``IndexIntegrityError`` lesson: a non-trivial
``__init__`` signature broke unpickling across the executor pipe until
``__reduce__`` was fixed; the runtime pickle round-trip self-check
lives in the test suite).  Thread-pool submissions are exempt — they
never cross a pickle boundary.

The rule also confines the fault-injection hooks: ``repro.serving.faults``
may only be imported from within ``serving/`` so injection surface
cannot leak into library code.
"""

from __future__ import annotations

from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation
from tools.rrlint.project import Project, Submission, project_context

__all__ = ["ProcessBoundaryRule"]

_FAULTS_MODULE = "repro.serving.faults"


class ProcessBoundaryRule(Rule):
    """Enforce pickle-safety of pool submissions and faults confinement."""

    rule_id = "RR010"
    name = "process-boundary"
    rationale = (
        "pool-submitted callables, their arguments, and every exception "
        "reachable from worker code must be module-top-level and "
        "pickle-safe; repro.serving.faults stays inside serving/"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Flag unpicklable pool submissions and faults-hook leakage."""
        project, mod = project_context(self, src)
        for edge in mod.imports:
            target = project.effective_target(edge)
            is_faults = (
                target == _FAULTS_MODULE
                or target.startswith(_FAULTS_MODULE + ".")
                or (edge.target == "repro.serving" and edge.symbol == "faults")
            )
            if is_faults and not mod.name.startswith("repro.serving"):
                yield Violation(
                    rule=self.rule_id,
                    path=src.path,
                    line=edge.line,
                    col=0,
                    message=(
                        "repro.serving.faults imported outside serving/: "
                        "fault-injection hooks must not leak into library "
                        "code"
                    ),
                )
        for sub in project.submissions(mod.name):
            if sub.pool_kind != "process":
                continue
            where = f"in {sub.function}" if sub.function != "<module>" else ""
            if sub.target_kind == "lambda":
                yield self.violation(
                    src,
                    sub.node,
                    f"lambda submitted to process pool {where}: lambdas "
                    "are not picklable; use a module-top-level function",
                )
            elif sub.target_kind == "unresolved":
                yield self.violation(
                    src,
                    sub.node,
                    f"process-pool submission {where} has a target the "
                    "resolver cannot prove is a module-top-level function "
                    "(nested functions and bound callables do not pickle)",
                )
            else:
                yield from self._check_resolved(src, project, sub)
            if sub.has_lambda_arg:
                yield self.violation(
                    src,
                    sub.node,
                    f"lambda argument in process-pool submission {where}: "
                    "arguments must be picklable",
                )

    def _check_resolved(
        self,
        src: SourceFile,
        project: Project,
        sub: Submission,
    ) -> Iterator[Violation]:
        if sub.target is None:
            return
        target_module, qualname = sub.target
        if "." in qualname:
            yield self.violation(
                src,
                sub.node,
                f"method {target_module}.{qualname} submitted to process "
                "pool: submit targets must be module-top-level functions",
            )
            return
        raise_set = project.raise_set(target_module, qualname)
        for exc_module, exc_name in sorted(raise_set):
            if exc_module == "<unresolved>":
                yield self.violation(
                    src,
                    sub.node,
                    f"exception {exc_name} reachable from pool worker "
                    f"{qualname} cannot be resolved to a module-top-level "
                    "class: it may not unpickle across the executor pipe",
                )
                continue
            if exc_module not in project.modules:
                continue
            info = project.modules[exc_module].classes.get(exc_name)
            if info is None:
                yield self.violation(
                    src,
                    sub.node,
                    f"exception {exc_name} reachable from pool worker "
                    f"{qualname} is not a module-top-level class in "
                    f"{exc_module}: it may not unpickle across the "
                    "executor pipe",
                )
