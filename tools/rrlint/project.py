"""Whole-program semantic model behind the flow-aware lint rules.

:class:`Project` parses every file once, builds a module-level symbol
table and an import graph (eager vs lazy edges), and resolves calls
through a conservative name-resolution call graph: it follows ``from x
import y as z`` aliasing and re-exports through ``__init__``, dispatches
method calls on classes whose construction it can see (including
``staticmethod``/``classmethod`` access via the class name,
``self``/``cls``, and annotated parameters).  Lambdas, callables
passed as values (``functools.partial``, executor submissions) and calls
through values it cannot type are *conservatively unresolved* — never
guessed.

On top of the model it offers the queries the flow-aware rules need:
per-function raise-sets propagated to a fixpoint through the call graph
(filtered by enclosing ``try/except`` handlers), package-layer
assignments for the layering contract, and import-cycle detection.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import pathlib
from typing import Iterator, Mapping, Sequence

from tools.rrlint.engine import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    run_source,
)

__all__ = [
    "PACKAGE_LAYERS",
    "ImportEdge",
    "ProjectModule",
    "Project",
    "layer_of",
    "module_name_for_path",
    "project_context",
    "run_project",
]

#: Allowed layering of the ``repro`` package, lowest layer first.  A
#: module may only *eagerly* import same-or-lower layers; lazy
#: (function-scoped or ``TYPE_CHECKING``) imports are exempt.  The root
#: ``repro/__init__`` sits above the stack: it may import anything.
PACKAGE_LAYERS: Mapping[str, int] = {
    "utils": 0,
    "core": 0,
    "spaces": 0,
    "families": 1,
    "bounds": 1,
    "booleancube": 1,
    "index": 2,
    "data": 2,
    "privacy": 2,
    "api": 3,
    "serving": 4,
}


def layer_of(module: str) -> int | None:
    """Layer rank of a dotted ``repro`` module, ``None`` if unranked.

    Unranked modules (the root ``repro`` package itself, subpackages
    missing from :data:`PACKAGE_LAYERS`, and anything outside ``repro``)
    are exempt from the layering contract.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) == 1:
        return None
    return PACKAGE_LAYERS.get(parts[1])


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for a source path.

    Drops a trailing ``__init__`` and everything up to and including a
    ``src`` component, so ``src/repro/api.py`` maps to ``repro.api``.
    Used for in-memory sources; :meth:`Project.load` computes names from
    real package directories instead.
    """
    posix = path.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[: -len(".py")]
    parts = [part for part in posix.split("/") if part not in ("", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[cut + 1 :]
    return ".".join(parts)


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One import statement binding, as seen by the graph.

    ``symbol`` is the imported name for ``from target import symbol``
    forms (``"*"`` for star imports) and ``None`` for plain ``import
    target`` forms.  ``lazy`` marks function-scoped or
    ``TYPE_CHECKING``-guarded imports, which the layering rule exempts.
    """

    importer: str
    target: str
    symbol: str | None
    alias: str
    line: int
    lazy: bool


@dataclasses.dataclass(frozen=True)
class _Symbol:
    kind: str  # "function" | "class" | "import" | "assign"
    edge: ImportEdge | None = None


@dataclasses.dataclass(eq=False)
class _ClassInfo:
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    method_kinds: dict[str, str]  # "instance" | "static" | "class"


@dataclasses.dataclass(eq=False)
class _FuncFacts:
    callees: list[tuple[tuple[str, str], frozenset[str]]]
    raises: list[tuple[tuple[str, str], frozenset[str]]]


class ProjectModule:
    """One parsed module: source, import edges, and symbol table."""

    def __init__(self, name: str, source: SourceFile, is_package: bool) -> None:
        self.name = name
        self.source = source
        self.is_package = is_package
        self.imports: list[ImportEdge] = []
        self.symbols: dict[str, _Symbol] = {}
        self.classes: dict[str, _ClassInfo] = {}
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._build()

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Dotted parts of the package that relative imports resolve in."""
        parts = self.name.split(".")
        return tuple(parts if self.is_package else parts[:-1])

    def _build(self) -> None:
        self._scan_body(self.tree.body, lazy=False, module_scope=True)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_body(node.body, lazy=True, module_scope=False)

    @property
    def tree(self) -> ast.Module:
        """The module's AST (shared with :class:`SourceFile`)."""
        return self.source.tree

    def _scan_body(
        self, body: Sequence[ast.stmt], lazy: bool, module_scope: bool
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                self._record_import(stmt, lazy, module_scope)
            elif isinstance(stmt, ast.ImportFrom):
                self._record_import_from(stmt, lazy, module_scope)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if module_scope:
                    self.symbols[stmt.name] = _Symbol("function")
                    self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                if module_scope:
                    self.symbols[stmt.name] = _Symbol("class")
                    self._record_class(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if module_scope:
                    for name in _assigned_names(stmt):
                        self.symbols.setdefault(name, _Symbol("assign"))
            elif isinstance(stmt, ast.If):
                branch_lazy = lazy or _is_type_checking_test(stmt.test)
                self._scan_body(stmt.body, branch_lazy, module_scope)
                self._scan_body(stmt.orelse, lazy, module_scope)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._scan_body(block, lazy, module_scope)
                for handler in stmt.handlers:
                    self._scan_body(handler.body, lazy, module_scope)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan_body(stmt.body, lazy, module_scope)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._scan_body(stmt.body, lazy, module_scope)
                self._scan_body(stmt.orelse, lazy, module_scope)

    def _record_import(
        self, stmt: ast.Import, lazy: bool, module_scope: bool
    ) -> None:
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            edge = ImportEdge(
                importer=self.name,
                target=alias.name,
                symbol=None,
                alias=bound,
                line=stmt.lineno,
                lazy=lazy,
            )
            self.imports.append(edge)
            if module_scope:
                self.symbols[bound] = _Symbol("import", edge)

    def _record_import_from(
        self, stmt: ast.ImportFrom, lazy: bool, module_scope: bool
    ) -> None:
        if stmt.level:
            base = list(self.package_parts)
            if stmt.level > 1:
                base = base[: len(base) - (stmt.level - 1)]
            target_parts = base + (stmt.module.split(".") if stmt.module else [])
            target = ".".join(target_parts)
        else:
            target = stmt.module or ""
        if not target:
            return
        for alias in stmt.names:
            bound = alias.asname or alias.name
            edge = ImportEdge(
                importer=self.name,
                target=target,
                symbol=alias.name,
                alias=bound,
                line=stmt.lineno,
                lazy=lazy,
            )
            self.imports.append(edge)
            if module_scope and alias.name != "*":
                self.symbols[bound] = _Symbol("import", edge)

    def _record_class(self, stmt: ast.ClassDef) -> None:
        bases = tuple(
            dotted for dotted in (dotted_name(base) for base in stmt.bases)
            if dotted is not None
        )
        methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        kinds: dict[str, str] = {}
        for member in stmt.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            methods[member.name] = member
            kind = "instance"
            for decorator in member.decorator_list:
                leaf = dotted_name(decorator)
                if leaf == "staticmethod":
                    kind = "static"
                elif leaf == "classmethod":
                    kind = "class"
            kinds[member.name] = kind
        self.classes[stmt.name] = _ClassInfo(
            name=stmt.name,
            node=stmt,
            bases=bases,
            methods=methods,
            method_kinds=kinds,
        )


def _assigned_names(stmt: ast.Assign | ast.AnnAssign) -> Iterator[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    yield element.id


def _is_type_checking_test(test: ast.expr) -> bool:
    dotted = dotted_name(test)
    return dotted is not None and dotted.split(".")[-1] == "TYPE_CHECKING"


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope's nodes without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _builtin_exception_ancestors(name: str) -> tuple[str, ...] | None:
    obj = getattr(builtins, name, None)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return tuple(cls.__name__ for cls in obj.__mro__[1:])
    return None


class Project:
    """Whole-program model: modules, import graph, call graph, raise-sets.

    Build one with :meth:`from_sources` (in-memory, used by tests and
    the single-file fallback) or :meth:`load` (from disk).  All derived
    structures — function facts, raise-set fixpoint, cycles — are
    computed lazily and cached on the instance; a Project is immutable
    once built.
    """

    def __init__(self, modules: Mapping[str, ProjectModule]) -> None:
        self.modules: dict[str, ProjectModule] = dict(modules)
        self._path_index = {
            mod.source.path: name for name, mod in self.modules.items()
        }
        self._facts: dict[tuple[str, str], _FuncFacts] | None = None
        self._raise_cache: dict[tuple[str, str], frozenset[tuple[str, str]]] | None = None
        self._cycles: tuple[tuple[str, ...], ...] | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[SourceFile],
        names: Sequence[str] | None = None,
    ) -> "Project":
        """Build a project from already-parsed sources.

        ``names`` supplies dotted module names aligned with ``sources``;
        when omitted they are derived with :func:`module_name_for_path`.
        """
        if names is None:
            names = [module_name_for_path(src.path) for src in sources]
        modules: dict[str, ProjectModule] = {}
        for name, src in zip(names, sources):
            is_package = src.path.endswith("__init__.py")
            modules[name] = ProjectModule(name, src, is_package)
        return cls(modules)

    @classmethod
    def load(
        cls, paths: Sequence[str | pathlib.Path]
    ) -> tuple["Project", list[str]]:
        """Parse files/directories from disk into a project.

        Returns ``(project, parse_errors)``.  Module names are derived
        from package directories (walking ``__init__.py`` markers above
        each argument), so both ``src`` and deeper anchors work.  A file
        that cannot be read, is not UTF-8, or does not parse contributes
        a message to ``parse_errors`` instead of aborting the run.
        """
        entries: dict[pathlib.Path, str] = {}
        for raw in paths:
            anchor = pathlib.Path(raw)
            if anchor.is_dir():
                prefix = _package_prefix(anchor)
                for file in sorted(anchor.rglob("*.py")):
                    rel = file.relative_to(anchor)
                    entries[file] = _dotted_from_parts(prefix + list(rel.parts))
            elif anchor.suffix == ".py":
                prefix = _package_prefix(anchor.parent)
                entries[anchor] = _dotted_from_parts(prefix + [anchor.name])
            else:
                raise FileNotFoundError(
                    f"not a python file or directory: {anchor}"
                )
        sources: list[SourceFile] = []
        names: list[str] = []
        errors: list[str] = []
        for file, name in sorted(entries.items(), key=lambda item: str(item[0])):
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                errors.append(f"{file}: {exc}")
                continue
            try:
                sources.append(SourceFile(str(file), text))
            except SyntaxError as exc:
                errors.append(f"{file}: {exc.msg} (line {exc.lineno})")
                continue
            names.append(name)
        return cls.from_sources(sources, names), errors

    # -- lookups ------------------------------------------------------

    def module_for(self, path: str) -> ProjectModule | None:
        """The module whose source file is ``path`` (posix-normalized)."""
        name = self._path_index.get(path.replace("\\", "/"))
        return self.modules.get(name) if name is not None else None

    def resolve(self, module: str, dotted: str) -> tuple[str, str] | None:
        """Resolve a dotted reference in ``module`` to ``(module, qualname)``.

        Handles plain names, import aliases (including chained
        re-exports through ``__init__``), module-attribute references
        like ``np.memmap`` or ``persistence.read_arrays``, and
        ``ClassName.method`` access.  Returns ``None`` when the
        reference cannot be conservatively resolved.
        """
        parts = dotted.split(".")
        if len(parts) == 1:
            return self._resolve_symbol(module, parts[0], frozenset())
        alias = self._module_alias(module, parts)
        if alias is not None:
            target_module, rest = alias
            if not rest:
                return None
            if len(rest) == 1:
                if target_module in self.modules:
                    return self._resolve_symbol(
                        target_module, rest[0], frozenset()
                    )
                return (target_module, rest[0])
            resolved = self.resolve(target_module, ".".join(rest))
            if resolved is not None:
                return resolved
            base = self._resolve_symbol(target_module, rest[0], frozenset())
            if base is not None and len(rest) == 2:
                return self._class_member(base, rest[1])
            return None
        base = self._resolve_symbol(module, parts[0], frozenset())
        if base is not None and len(parts) == 2:
            return self._class_member(base, parts[1])
        return None

    def _class_member(
        self, base: tuple[str, str], member: str
    ) -> tuple[str, str] | None:
        base_module, base_name = base
        if base_module in self.modules:
            info = self.modules[base_module].classes.get(base_name)
            if info is not None:
                found = self._find_method(base_module, base_name, member)
                if found is not None:
                    return found
                return (base_module, f"{base_name}.{member}")
        return None

    def _resolve_symbol(
        self, module: str, name: str, seen: frozenset[tuple[str, str]]
    ) -> tuple[str, str] | None:
        if module not in self.modules:
            return (module, name)
        mod = self.modules[module]
        symbol = mod.symbols.get(name)
        if symbol is None:
            return None
        if symbol.kind != "import":
            return (module, name)
        edge = symbol.edge
        if edge is None or edge.symbol is None or edge.symbol == "*":
            return None
        key = (edge.target, edge.symbol)
        if key in seen:
            return None
        if edge.target in self.modules:
            target_mod = self.modules[edge.target]
            if edge.symbol in target_mod.symbols:
                return self._resolve_symbol(
                    edge.target, edge.symbol, seen | {key}
                )
            return None
        if f"{edge.target}.{edge.symbol}" in self.modules:
            return None
        return (edge.target, edge.symbol)

    def _module_alias(
        self, module: str, parts: Sequence[str]
    ) -> tuple[str, list[str]] | None:
        """If ``parts[0]`` is bound to a module, return it plus the rest."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        symbol = mod.symbols.get(parts[0])
        if symbol is None or symbol.kind != "import" or symbol.edge is None:
            return None
        edge = symbol.edge
        if edge.symbol is None:
            root = edge.target if edge.alias != edge.target.split(".")[0] else edge.target.split(".")[0]
            candidate_parts = root.split(".") + list(parts[1:])
        else:
            candidate = f"{edge.target}.{edge.symbol}"
            if candidate not in self.modules:
                return None
            candidate_parts = candidate.split(".") + list(parts[1:])
        # Longest prefix of candidate_parts that names a known module
        # wins; otherwise fall back to the shortest sensible split.
        for split in range(len(candidate_parts), 0, -1):
            head = ".".join(candidate_parts[:split])
            if head in self.modules:
                return head, list(candidate_parts[split:])
        if edge.symbol is None:
            return edge.target, list(parts[1:])
        return ".".join(candidate_parts[: len(candidate_parts) - len(parts) + 1]), list(parts[1:])

    def _find_method(
        self, module: str, cls: str, method: str
    ) -> tuple[str, str] | None:
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [(module, cls)]
        while queue:
            cur_module, cur_cls = queue.pop(0)
            if (cur_module, cur_cls) in seen or cur_module not in self.modules:
                continue
            seen.add((cur_module, cur_cls))
            info = self.modules[cur_module].classes.get(cur_cls)
            if info is None:
                continue
            if method in info.methods:
                return (cur_module, f"{cur_cls}.{method}")
            for base in info.bases:
                resolved = self.resolve(cur_module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    # -- import graph -------------------------------------------------

    def effective_target(self, edge: ImportEdge) -> str:
        """The module an edge really points at (submodule-aware)."""
        if edge.symbol and edge.symbol != "*":
            candidate = f"{edge.target}.{edge.symbol}"
            if candidate in self.modules:
                return candidate
        return edge.target

    def eager_import_graph(self) -> dict[str, frozenset[str]]:
        """Project-internal eager import adjacency (module → modules)."""
        graph: dict[str, set[str]] = {name: set() for name in self.modules}
        for mod in self.modules.values():
            for edge in mod.imports:
                if edge.lazy:
                    continue
                target = self.effective_target(edge)
                if target in self.modules and target != mod.name:
                    graph[mod.name].add(target)
        return {name: frozenset(deps) for name, deps in graph.items()}

    def import_cycles(self) -> tuple[tuple[str, ...], ...]:
        """Strongly connected components of size > 1 in the eager graph."""
        if self._cycles is None:
            graph = self.eager_import_graph()
            self._cycles = tuple(_sccs(graph))
        return self._cycles

    # -- function facts / call graph ----------------------------------

    def _ensure_facts(self) -> dict[tuple[str, str], _FuncFacts]:
        if self._facts is None:
            facts: dict[tuple[str, str], _FuncFacts] = {}
            for name, mod in self.modules.items():
                analyzer = _FunctionAnalyzer(self, mod)
                for qual, node in _iter_scopes(mod):
                    facts[(name, qual)] = analyzer.analyze(qual, node)
            self._facts = facts
        return self._facts

    def callees(self, module: str, qualname: str) -> frozenset[tuple[str, str]]:
        """Resolved direct callees of one function or method."""
        facts = self._ensure_facts().get((module, qualname))
        if facts is None:
            return frozenset()
        return frozenset(callee for callee, _ in facts.callees)

    def raise_set(
        self, module: str, qualname: str
    ) -> frozenset[tuple[str, str]]:
        """Exception classes that may escape one function.

        Propagated to a fixpoint through the call graph; exceptions
        swallowed by enclosing ``try/except`` handlers (without a bare
        re-raise) are filtered at each hop.  Classes are ``(module,
        name)`` pairs with ``("builtins", name)`` for builtins.
        """
        if self._raise_cache is None:
            facts = self._ensure_facts()
            sets: dict[tuple[str, str], set[tuple[str, str]]] = {}
            for key, fact in facts.items():
                sets[key] = {
                    exc
                    for exc, caught in fact.raises
                    if not self._swallowed(exc, caught)
                }
            changed = True
            while changed:
                changed = False
                for key, fact in facts.items():
                    bucket = sets[key]
                    before = len(bucket)
                    for callee, caught in fact.callees:
                        for exc in sets.get(callee, ()):
                            if not self._swallowed(exc, caught):
                                bucket.add(exc)
                    if len(bucket) != before:
                        changed = True
            self._raise_cache = {
                key: frozenset(bucket) for key, bucket in sets.items()
            }
        return self._raise_cache.get((module, qualname), frozenset())

    # -- exception taxonomy -------------------------------------------

    def exception_ancestors(self, exc: tuple[str, str]) -> tuple[str, ...]:
        """Base-class names of an exception class, nearest first."""
        module, name = exc
        if module == "builtins":
            return _builtin_exception_ancestors(name) or ()
        out: list[str] = []
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [exc]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            cur_module, cur_name = cur
            if cur != exc and cur_name not in out:
                out.append(cur_name)
            info = (
                self.modules[cur_module].classes.get(cur_name)
                if cur_module in self.modules
                else None
            )
            if info is None:
                builtin = _builtin_exception_ancestors(cur_name)
                if builtin is not None:
                    out.extend(base for base in builtin if base not in out)
                continue
            for base in info.bases:
                leaf = base.split(".")[-1]
                resolved = self.resolve(cur_module, base)
                queue.append(
                    resolved if resolved is not None else ("builtins", leaf)
                )
        return tuple(out)

    def is_exception_class(self, ref: tuple[str, str]) -> bool:
        """Whether ``(module, name)`` plausibly names an exception class."""
        module, name = ref
        if module == "builtins" or module not in self.modules:
            return _builtin_exception_ancestors(name) is not None
        info = self.modules[module].classes.get(name)
        if info is None:
            return False
        ancestors = self.exception_ancestors(ref)
        if any(
            _builtin_exception_ancestors(base) is not None
            or base in ("Exception", "BaseException")
            for base in ancestors
        ):
            return True
        return name.endswith(("Error", "Exception", "Warning"))

    def _swallowed(
        self, exc: tuple[str, str], caught: frozenset[str]
    ) -> bool:
        if not caught:
            return False
        names = {exc[1], *self.exception_ancestors(exc)}
        return bool(names & caught)


def _package_prefix(directory: pathlib.Path) -> list[str]:
    parts: list[str] = []
    current = directory
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return list(reversed(parts))


def _dotted_from_parts(parts: Sequence[str]) -> str:
    cleaned = [part[:-3] if part.endswith(".py") else part for part in parts]
    if cleaned and cleaned[-1] == "__init__":
        cleaned = cleaned[:-1]
    return ".".join(cleaned)


def _iter_scopes(
    mod: ProjectModule,
) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(qualname, scope_node)`` for the module body, functions,
    and methods (nested defs stay inside their parent's scope)."""
    yield "<module>", mod.tree
    for name, node in mod.functions.items():
        yield name, node
    for cls_name, info in mod.classes.items():
        for method_name, method in info.methods.items():
            yield f"{cls_name}.{method_name}", method


def _sccs(graph: Mapping[str, frozenset[str]]) -> list[tuple[str, ...]]:
    """Tarjan SCCs of size > 1, each sorted, in deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[tuple[str, ...]] = []

    def strongconnect(node: str) -> None:
        work: list[tuple[str, Iterator[str]]] = [
            (node, iter(sorted(graph.get(node, ()))))
        ]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[current] = min(low[current], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    out.append(tuple(sorted(component)))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    out.sort()
    return out


class _FunctionAnalyzer:
    """Per-scope fact extraction: callees and raises."""

    def __init__(self, project: Project, mod: ProjectModule) -> None:
        self.project = project
        self.mod = mod

    def analyze(self, qualname: str, scope: ast.AST) -> _FuncFacts:
        """Extract callee edges and raise sites for one scope."""
        local_names, var_types = self._scan_locals(qualname, scope)
        facts = _FuncFacts(callees=[], raises=[])
        for node in _walk_scope(scope):
            if isinstance(node, ast.Call):
                self._handle_call(
                    qualname, scope, node, local_names, var_types, facts
                )
            elif isinstance(node, ast.Raise):
                self._handle_raise(qualname, scope, node, facts)
        return facts

    # -- locals -------------------------------------------------------

    def _scan_locals(
        self, qualname: str, scope: ast.AST
    ) -> tuple[set[str], dict[str, tuple[str, str]]]:
        local_names: set[str] = set()
        var_types: dict[str, tuple[str, str]] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            params = (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
            for param in params:
                local_names.add(param.arg)
                if param.annotation is not None:
                    self._note_annotation(param.arg, param.annotation, var_types)
        for node in _walk_scope(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._note_assignment(node, local_names, var_types)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        local_names.add(item.optional_vars.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in _target_names(node.target):
                    local_names.add(name)
        return local_names, var_types

    def _note_annotation(
        self,
        name: str,
        annotation: ast.expr,
        var_types: dict[str, tuple[str, str]],
    ) -> None:
        dotted = dotted_name(annotation)
        if dotted is None:
            return
        resolved = self.project.resolve(self.mod.name, dotted)
        if resolved is not None and self._is_class(resolved):
            var_types[name] = resolved

    def _note_assignment(
        self,
        node: ast.Assign | ast.AnnAssign,
        local_names: set[str],
        var_types: dict[str, tuple[str, str]],
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        pairs: list[tuple[ast.expr, ast.expr | None]] = []
        for target in targets:
            if (
                isinstance(target, ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(target.elts) == len(node.value.elts)
            ):
                pairs.extend(zip(target.elts, node.value.elts))
            else:
                pairs.append((target, node.value))
        for target, value in pairs:
            for name in _target_names(target):
                local_names.add(name)
                if value is None or not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Call):
                    dotted = dotted_name(value.func)
                    if dotted is None:
                        continue
                    resolved = self.project.resolve(self.mod.name, dotted)
                    if resolved is not None and self._is_class(resolved):
                        var_types[name] = resolved

    def _is_class(self, ref: tuple[str, str]) -> bool:
        module, name = ref
        return (
            module in self.project.modules
            and name in self.project.modules[module].classes
        )

    # -- calls --------------------------------------------------------

    def _handle_call(
        self,
        qualname: str,
        scope: ast.AST,
        node: ast.Call,
        local_names: set[str],
        var_types: dict[str, tuple[str, str]],
        facts: _FuncFacts,
    ) -> None:
        resolved = self._resolve_callable(
            qualname, node.func, local_names, var_types
        )
        if resolved is None:
            return
        callee = self._as_callable(resolved)
        if callee is not None:
            facts.callees.append((callee, self._caught_around(node, scope)))

    def _as_callable(self, resolved: tuple[str, str]) -> tuple[str, str] | None:
        """Map a resolved reference to the function the call executes."""
        module, name = resolved
        if module not in self.project.modules:
            return None
        mod = self.project.modules[module]
        if name in mod.functions:
            return resolved
        if name in mod.classes:
            ctor = self.project._find_method(module, name, "__init__")
            return ctor
        if "." in name:
            cls_name, method = name.split(".", 1)
            info = mod.classes.get(cls_name)
            if info is not None and method in info.methods:
                return resolved
            return None
        return None

    def _resolve_callable(
        self,
        qualname: str,
        expr: ast.expr,
        local_names: set[str],
        var_types: dict[str, tuple[str, str]],
    ) -> tuple[str, str] | None:
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        head = parts[0]
        own_class = qualname.split(".")[0] if "." in qualname else None
        if head in ("self", "cls") and own_class is not None:
            if len(parts) == 2:
                return self.project._find_method(
                    self.mod.name, own_class, parts[1]
                )
            return None
        if head == "cls" and own_class is not None and len(parts) == 1:
            return self.project._find_method(
                self.mod.name, own_class, "__init__"
            )
        if head in var_types:
            if len(parts) == 2:
                cls_module, cls_name = var_types[head]
                return self.project._find_method(
                    cls_module, cls_name, parts[1]
                )
            return None
        if len(parts) == 1:
            if head in local_names:
                return None
            return self.project.resolve(self.mod.name, head)
        if head in local_names:
            return None
        return self.project.resolve(self.mod.name, dotted)

    # -- raises -------------------------------------------------------

    def _handle_raise(
        self,
        qualname: str,
        scope: ast.AST,
        node: ast.Raise,
        facts: _FuncFacts,
    ) -> None:
        caught = self._caught_around(node, scope)
        if node.exc is None:
            handler = self._enclosing_handler(node, scope)
            if handler is not None:
                for leaf in _handler_type_names(handler):
                    exc = self._resolve_exception(leaf)
                    if exc is not None:
                        facts.raises.append((exc, caught))
            return
        expr = node.exc
        if isinstance(expr, ast.Call):
            expr = expr.func
        dotted = dotted_name(expr)
        if dotted is None:
            return
        exc = self._resolve_exception(dotted)
        if exc is not None:
            facts.raises.append((exc, caught))

    def _resolve_exception(self, dotted: str) -> tuple[str, str] | None:
        resolved = self.project.resolve(self.mod.name, dotted)
        if resolved is not None:
            module, name = resolved
            if module in self.project.modules:
                if name in self.project.modules[module].classes:
                    return resolved
                return None
            return (module, name)
        leaf = dotted.split(".")[-1]
        if _builtin_exception_ancestors(leaf) is not None:
            return ("builtins", leaf)
        return None

    def _caught_around(self, node: ast.AST, scope: ast.AST) -> frozenset[str]:
        names: set[str] = set()
        child: ast.AST = node
        current = getattr(node, "parent", None)
        while current is not None and current is not scope:
            if isinstance(current, ast.Try) and child in current.body:
                for handler in current.handlers:
                    if _handler_reraises(handler):
                        continue
                    names.update(_handler_type_names(handler))
            child = current
            current = getattr(current, "parent", None)
        return frozenset(names)

    def _enclosing_handler(
        self, node: ast.AST, scope: ast.AST
    ) -> ast.ExceptHandler | None:
        current = getattr(node, "parent", None)
        while current is not None and current is not scope:
            if isinstance(current, ast.ExceptHandler):
                return current
            current = getattr(current, "parent", None)
        return None


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _handler_type_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: set[str] = set()
    for expr in exprs:
        dotted = dotted_name(expr)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
    return names


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in _walk_scope(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


def project_context(
    rule: Rule, src: SourceFile
) -> tuple[Project, ProjectModule]:
    """Project context for one rule check.

    Returns the whole-program project attached by :func:`run_project`
    when it covers ``src``; otherwise falls back to a single-file
    project so the flow-aware rules degrade gracefully (resolution just
    stops at the file boundary) instead of failing.
    """
    attached = getattr(rule, "_project", None)
    if attached is not None:
        mod = attached.module_for(src.path)
        if mod is not None:
            return attached, mod
    fallback = Project.from_sources([src])
    return fallback, next(iter(fallback.modules.values()))


def run_project(
    paths: Sequence[str | pathlib.Path], rules: Sequence[Rule]
) -> tuple[list[Violation], list[str], Project]:
    """Lint a whole source tree with project context attached.

    Parses ``paths`` into a :class:`Project`, attaches it to every rule
    via :meth:`tools.rrlint.engine.Rule.set_project`, runs the rules
    over each file, and always detaches the project afterwards (rule
    instances in the registry are shared singletons).  Returns
    ``(violations, parse_errors, project)``.
    """
    project, errors = Project.load(paths)
    violations: list[Violation] = []
    try:
        for rule in rules:
            rule.set_project(project)
        for mod in sorted(
            project.modules.values(), key=lambda item: item.source.path
        ):
            violations.extend(run_source(mod.source, rules))
    finally:
        for rule in rules:
            rule.set_project(None)
    return violations, errors, project
