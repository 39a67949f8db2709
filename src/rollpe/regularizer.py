"""Smoothness diagnostics over the circular latent topology.

A representation that stays self-correlated under small positional shifts
is also close in Euclidean distance; ``lipschitz_gap`` reports both views
of the same gap.  ``circular_laplacian_loss`` is the matching auxiliary
penalty: the quadratic form of the cycle-graph Laplacian, small exactly
when neighboring latent dimensions vary smoothly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roll_core import _as_vector, _check_finite
from .spectral import SpectralBranch, roll_continuous

__all__ = ["SmoothnessReport", "lipschitz_gap", "circular_laplacian_loss"]


@dataclass(frozen=True)
class SmoothnessReport:
    correlation: float    # q . roll(q, dp) / ||q||^2
    distance: float       # || q - roll(q, dp) ||
    epsilon_bound: float  # 1 - correlation


@np.errstate(over="ignore", invalid="ignore")
def lipschitz_gap(q, delta_p: float, lam: float = 1.0) -> SmoothnessReport:
    """Self-correlation and Euclidean gap of ``q`` under a fractional shift.

    Whenever the shift is an isometry (integer steps, or odd length), the
    two views satisfy distance^2 = 2 ||q||^2 (1 - correlation).  A NaN or
    +-inf in ``q``, and finite entries whose squares overflow, raise
    ``FloatingPointError``; no warning escapes.
    """
    q = _as_vector(q)
    norm_sq = float(q @ q)
    if norm_sq == 0.0:
        raise ValueError("q must be a nonzero vector")

    rolled = roll_continuous(q, delta_p, lam, SpectralBranch.CENTERED)
    correlation = float(q @ rolled) / norm_sq
    distance = float(np.linalg.norm(q - rolled))
    _check_finite(np.array([norm_sq, correlation, distance]), "||q||^2, correlation and distance")
    return SmoothnessReport(
        correlation=correlation, distance=distance, epsilon_bound=1.0 - correlation
    )


def circular_laplacian_loss(q) -> float:
    """Cycle-graph Laplacian quadratic form: sum_i (q[i] - q[(i+1) % n])^2.

    Summed with ``math.fsum`` so the value is exactly invariant under
    cyclic relabeling of the coordinates.  A NaN or +-inf in ``q`` raises
    ``FloatingPointError``.
    """
    q = _as_vector(q)
    _check_finite(q, "q")
    if q.size < 2:
        raise ValueError("q must have at least two entries")
    diff = q - np.roll(q, -1)
    return math.fsum((diff * diff).tolist())
