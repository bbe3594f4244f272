"""RR001 — randomness must flow through :mod:`repro.utils.rng`.

Index persistence revives saved indexes by replaying captured
``Generator`` state (``pair_rng_state`` → ``rng_from_state``), which is
only exact when every draw in the library goes through generators that
:func:`repro.utils.rng.ensure_rng` / :func:`~repro.utils.rng.spawn_rngs`
handed out.  Legacy ``np.random.*`` module-state calls draw from hidden
global state that no snapshot captures, and ad-hoc ``default_rng()``
construction bypasses the one place allowed to mint generators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.rrlint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["RngDisciplineRule"]

# numpy.random module-state API (and the legacy RandomState class): all of
# it draws from process-global state that rng_state() snapshots never see.
_LEGACY = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "beta",
        "gamma",
        "RandomState",
    }
)

# The one module allowed to construct generators directly.
_SANCTIONED_SUFFIX = "repro/utils/rng.py"


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module paths they import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _resolve(call_path: str, aliases: dict[str, str]) -> str:
    """Expand the leading segment of a dotted call path via the import
    alias table (``np.random.rand`` → ``numpy.random.rand``)."""
    head, _, rest = call_path.partition(".")
    base = aliases.get(head, head)
    return f"{base}.{rest}" if rest else base


class RngDisciplineRule(Rule):
    """Flag legacy ``np.random`` module state and ad-hoc ``default_rng``."""

    rule_id = "RR001"
    name = "rng-discipline"
    rationale = (
        "randomness must flow through utils/rng.py so captured RNG state "
        "revives identical hash pairs; module-state np.random.* and ad-hoc "
        "default_rng() escape the snapshot"
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Find legacy module-state and ad-hoc generator calls."""
        aliases = _import_aliases(src.tree)
        sanctioned = src.path_endswith(_SANCTIONED_SUFFIX)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw is None:
                continue
            resolved = _resolve(raw, aliases)
            if not resolved.startswith("numpy.random."):
                continue
            leaf = resolved.rsplit(".", 1)[1]
            if leaf in _LEGACY:
                yield self.violation(
                    src,
                    node,
                    f"legacy module-state call `{raw}(...)`: draws from "
                    "hidden global state that rng_state() snapshots never "
                    "capture; take an explicit Generator from "
                    "repro.utils.rng.ensure_rng / spawn_rngs",
                )
            elif leaf == "default_rng" and not sanctioned:
                yield self.violation(
                    src,
                    node,
                    f"ad-hoc `{raw}(...)`: generators must be minted by "
                    "repro.utils.rng (ensure_rng / spawn_rngs) so every "
                    "stream is revivable from captured state",
                )
