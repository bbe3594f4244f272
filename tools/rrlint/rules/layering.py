"""RR011: the import graph must respect the package layering.

The allowed stack, lowest layer first (see
:data:`tools.rrlint.project.PACKAGE_LAYERS`)::

    utils / core / spaces          (layer 0)
    families / bounds / booleancube (layer 1)
    index / data / privacy          (layer 2)
    api                             (layer 3)
    serving                         (layer 4)

A module may only *eagerly* import modules at the same or a lower
layer; lazy imports (function-scoped or behind ``TYPE_CHECKING``) are
exempt — they are how ``api`` reaches ``serving`` for ``shards=`` specs
without inverting the stack.  Eager import cycles are forbidden
outright.
"""

from __future__ import annotations

from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation
from tools.rrlint.project import layer_of, project_context

__all__ = ["LayeringRule"]


class LayeringRule(Rule):
    """Enforce downward-only eager imports and an acyclic import graph."""

    rule_id = "RR011"
    name = "layering"
    rationale = (
        "eager imports must flow down the utils/core/spaces -> "
        "families/bounds/booleancube -> index/data -> api -> serving "
        "stack, with no cycles; lazy imports are exempt"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Flag upward eager imports and report each import cycle once."""
        project, mod = project_context(self, src)
        importer_layer = layer_of(mod.name)
        if importer_layer is not None:
            for edge in mod.imports:
                if edge.lazy:
                    continue
                target = project.effective_target(edge)
                target_layer = layer_of(target)
                if target_layer is None or target_layer <= importer_layer:
                    continue
                yield Violation(
                    rule=self.rule_id,
                    path=src.path,
                    line=edge.line,
                    col=0,
                    message=(
                        f"{mod.name} (layer {importer_layer}) eagerly "
                        f"imports {target} (layer {target_layer}); only "
                        "same-or-lower layers may be imported eagerly"
                    ),
                )
        for cycle in project.import_cycles():
            if mod.name != cycle[0]:
                continue
            yield Violation(
                rule=self.rule_id,
                path=src.path,
                line=1,
                col=0,
                message=(
                    "eager import cycle among modules: " + ", ".join(cycle)
                ),
            )
