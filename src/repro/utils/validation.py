"""Argument validation helpers used across the library.

These raise ``ValueError`` (``TypeError`` for a wrong dtype) with uniform,
descriptive messages so call sites stay one-liners and error reporting is
consistent across modules.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_finite",
    "check_in_closed_interval",
    "check_in_open_interval",
    "check_positive",
    "check_probability",
    "check_real_dtype",
    "check_unit_vectors",
]


def check_positive(value: float, name: str) -> float:
    """Validate ``value > 0`` and return it."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Validate ``0 <= value <= 1`` and return it."""
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_in_closed_interval(value: float, low: float, high: float, name: str) -> float:
    """Validate ``low <= value <= high`` and return it."""
    if not np.isfinite(value) or value < low or value > high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return float(value)


def check_in_open_interval(value: float, low: float, high: float, name: str) -> float:
    """Validate ``low < value < high`` and return it."""
    if not np.isfinite(value) or value <= low or value >= high:
        raise ValueError(f"{name} must lie in ({low}, {high}), got {value!r}")
    return float(value)


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that every entry of ``array`` is finite and return it."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    return array


def check_real_dtype(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` holds bool, integer or real floating values
    and return it.

    Raises ``TypeError`` otherwise: an object array may hold anything, a
    string array would be parsed as numbers, and a complex array would
    lose its imaginary part on the way to a real dtype.
    """
    array = np.asarray(array)
    if array.dtype.kind not in "biuf":
        raise TypeError(
            f"{name} must have a bool, integer or real floating dtype, "
            f"got {array.dtype}"
        )
    return array


def check_unit_vectors(points: np.ndarray, name: str = "points", atol: float = 1e-6) -> np.ndarray:
    """Validate that the rows of ``points`` have unit Euclidean norm.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` or ``(d,)``.
    name:
        Name used in the error message.
    atol:
        Absolute tolerance on ``| ||x|| - 1 |``.

    Returns
    -------
    numpy.ndarray
        ``points`` reshaped to ``(n, d)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    norms = np.linalg.norm(points, axis=1)
    if not np.allclose(norms, 1.0, atol=atol):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(
            f"{name} must be unit vectors (max norm deviation {worst:.3g} > atol {atol:.3g})"
        )
    return points
