"""Shared utilities: random-generator plumbing and argument validation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_finite,
    check_in_closed_interval,
    check_in_open_interval,
    check_positive,
    check_probability,
    check_real_dtype,
    check_unit_vectors,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_finite",
    "check_in_closed_interval",
    "check_in_open_interval",
    "check_positive",
    "check_probability",
    "check_real_dtype",
    "check_unit_vectors",
]
