"""Rule registry for the repo-specific invariant linter.

One module per rule; :data:`ALL_RULES` is the canonical ordered registry
the CLI and tests consume.  Rule ids are stable — they appear in
``# noqa`` comments — so a retired rule's id is never reused.  Retired:
RR003 (transport hygiene), which never fired; RR010 (process boundary),
with the process pool it checked; RR002 (dtype contract) and RR006 (clip
discipline), whose planted bugs the tier-1 suite already catches: the
backend dtype test and the batch, coalesced and sharded exactness
suites.
"""

from __future__ import annotations

from tools.rrlint.engine import Rule
from tools.rrlint.rules.api_surface import ApiSurfaceRule
from tools.rrlint.rules.broad_except import BroadExceptRule
from tools.rrlint.rules.exception_flow import ExceptionFlowRule
from tools.rrlint.rules.hygiene import HygieneRule
from tools.rrlint.rules.layering import LayeringRule
from tools.rrlint.rules.resource_lifecycle import ResourceLifecycleRule
from tools.rrlint.rules.rng_discipline import RngDisciplineRule

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "ApiSurfaceRule",
    "BroadExceptRule",
    "ExceptionFlowRule",
    "HygieneRule",
    "LayeringRule",
    "ResourceLifecycleRule",
    "RngDisciplineRule",
]

ALL_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    ApiSurfaceRule(),
    HygieneRule(),
    BroadExceptRule(),
    ResourceLifecycleRule(),
    ExceptionFlowRule(),
    LayeringRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
