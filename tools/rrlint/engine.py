"""Core machinery of the repo-specific invariant linter.

The :mod:`tools.rrlint` linter enforces, at lint time, the invariants of
this codebase that the test suite cannot see: every random draw must come
from a generator whose state a saved index captures, and the public
surface, ``python -O``-proof guards, exception handling, resource cleanup,
documented raises and package layering must hold on paths no test takes.
Each invariant is an AST :class:`Rule` with a stable ``RR0xx`` id; the
engine parses every file once, hands a :class:`SourceFile` to each rule,
and filters ``# noqa: RR0xx`` suppressions.

Suppression syntax follows flake8: a bare ``# noqa`` comment on the
violation's reported line suppresses everything on that line, and
``# noqa: RR001`` (or a comma-separated list) suppresses only the named
rules.  A list naming only other tools' codes (``# noqa: E731``)
suppresses no RR rule.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from tools.rrlint.project import Project

__all__ = [
    "Violation",
    "SourceFile",
    "Rule",
    "run_source",
    "dotted_name",
]

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
    re.IGNORECASE,
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule hit: where it happened and why it matters.

    ``line``/``col`` are 1-based/0-based as in :mod:`ast`.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (the ``--format json`` payload)."""
        return dataclasses.asdict(self)

    def render(self) -> str:
        """Human-readable one-liner, ``path:line:col: RR0xx message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class SourceFile:
    """One parsed module plus the lookups every rule needs.

    Parsing happens once here; rules receive the shared tree.  Parent
    pointers (``node.parent``) are attached to every AST node.
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._attach_parents()
        self._noqa: dict[int, frozenset[str] | None] = {}
        self._scan_noqa()

    def _attach_parents(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node  # type: ignore[attr-defined]

    def _scan_noqa(self) -> None:
        for lineno, comment in self._iter_comments():
            match = _NOQA_RE.search(comment)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                self._noqa[lineno] = None  # bare noqa: suppress everything
            else:
                self._noqa[lineno] = frozenset(
                    code.strip().upper() for code in codes.split(",")
                )

    def _iter_comments(self) -> Iterator[tuple[int, str]]:
        """Yield ``(lineno, comment_text)`` for real ``#`` comments only.

        Tokenizing (rather than regexing whole lines) keeps noqa-looking
        text inside string literals from suppressing anything — a string
        containing ``"# noqa"`` is data, not a directive.
        """
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError):
            # The file parsed as AST but confused the tokenizer (rare;
            # e.g. trailing backslash edge cases) — fall back to the
            # line-based scan so suppressions keep working.
            for lineno, line in enumerate(self.lines, start=1):
                yield lineno, line
            return
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string

    def is_suppressed(self, violation: Violation) -> bool:
        """Whether a ``# noqa`` comment on the violation line covers it."""
        codes = self._noqa.get(violation.line, frozenset())
        if codes is None:
            return True
        return violation.rule in codes

    def path_endswith(self, *suffixes: str) -> bool:
        """Posix-path suffix test used by per-file rule exemptions."""
        return self.path.endswith(suffixes)


class Rule:
    """Base class for one lintable invariant.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rule_id`` is the stable ``RR0xx`` code used in output and ``# noqa``
    comments; ``rationale`` is the one-line "why" shown by
    ``--list-rules`` and the README.
    """

    rule_id: str = "RR000"
    name: str = "abstract"
    rationale: str = ""

    #: Whole-program context for flow-aware rules; ``None`` when linting
    #: a lone file outside :func:`tools.rrlint.project.run_project`.
    _project: "Project | None" = None

    def set_project(self, project: "Project | None") -> None:
        """Attach (or detach, with ``None``) whole-program context.

        Rule instances in the registry are singletons, so the runner is
        responsible for resetting this to ``None`` after a project run.
        """
        self._project = project

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Yield every violation of this rule in ``src``."""
        raise NotImplementedError

    def violation(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule=self.rule_id,
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def dotted_name(node: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"``; ``None`` if the
    expression is not a pure name/attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def run_source(
    src: SourceFile, rules: Iterable[Rule]
) -> list[Violation]:
    """Run ``rules`` over one parsed file, honoring ``# noqa``."""
    found: list[Violation] = []
    for rule in rules:
        for violation in rule.check(src):
            if not src.is_suppressed(violation):
                found.append(violation)
    found.sort(key=lambda v: (v.line, v.col, v.rule))
    return found
