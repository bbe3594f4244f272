"""Rule registry for the repo-specific invariant linter.

One module per rule; :data:`ALL_RULES` is the canonical ordered registry
the CLI and tests consume.  Rule ids are stable — they appear in
``# noqa`` comments — so a retired rule's id is never reused (RR003,
transport hygiene, was retired without ever firing; RR010, process
boundary, was retired with the process pool it checked).
"""

from __future__ import annotations

from tools.rrlint.engine import Rule
from tools.rrlint.rules.api_surface import ApiSurfaceRule
from tools.rrlint.rules.broad_except import BroadExceptRule
from tools.rrlint.rules.clip_discipline import ClipDisciplineRule
from tools.rrlint.rules.dtype_contract import DtypeContractRule
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
    "ClipDisciplineRule",
    "DtypeContractRule",
    "ExceptionFlowRule",
    "HygieneRule",
    "LayeringRule",
    "ResourceLifecycleRule",
    "RngDisciplineRule",
]

ALL_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    DtypeContractRule(),
    ApiSurfaceRule(),
    HygieneRule(),
    ClipDisciplineRule(),
    BroadExceptRule(),
    ResourceLifecycleRule(),
    ExceptionFlowRule(),
    LayeringRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
