"""Rotary positional encoding and its correspondence with fractional rolls.

A rotary encoding multiplies each coordinate pair v[2k] + 1j*v[2k+1] by
exp(1j*p*omega_k), from the phase table the fractional roll scales its
Fourier bins by.  Diagonalizing the circular shift shows a fractional roll
is exactly such a rotation after an orthogonal change of basis built from
the real and imaginary parts of the DFT rows: each conjugate frequency
pair becomes one rotation plane with omega_k = 2*pi*k / (lambda*n), the
DC row is a fixed coordinate, and (for even n) the Nyquist row evolves by
cos(pi*p/lambda).  ``equivalence_residual`` runs both code paths on the
same inputs and returns the absolute score gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .roll_core import _as_count, _as_rows, _as_vector, _check_finite, _check_wavelength
from .spectral import SpectralBranch, _phases, dft_matrix, roll_continuous

__all__ = [
    "FrequencySchedule",
    "rope_apply",
    "classic_schedule",
    "roll_induced_schedule",
    "realified_fourier_basis",
    "equivalence_residual",
]


@dataclass(frozen=True)
class FrequencySchedule:
    """Per-plane rotation frequencies omega_k (one entry per 2-D plane)."""

    omegas: np.ndarray

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if omegas.ndim != 1:
            raise ValueError("omegas must be a 1-D vector")
        if omegas.size and not np.all(np.isfinite(omegas)):
            raise ValueError("all frequencies must be finite")
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)

    @property
    def planes(self) -> int:
        return int(self.omegas.size)


def rope_apply(v, p, sched: FrequencySchedule) -> np.ndarray:
    """Rotate each pair (v[2k], v[2k+1]) by angle p * omega_k (counterclockwise).

    ``v`` is one vector with a scalar ``p``, a (t, 2m) stack of rows with
    (t,) positions, row i rotated at p[i], or an (s, t, 2m) stack of s
    row-sets sharing those positions; a vector is the one-row case.  Pair
    k, read as v[2k] + 1j*v[2k+1], is multiplied by exp(1j*p*omega_k) from
    one (t, m) phase table.  The schedule needs one plane per pair.  A
    non-finite or misshapen position raises ``ValueError``, a NaN or +-inf
    in ``v`` ``FloatingPointError``.
    """
    rows, pos, shape = _as_rows(v, p, "v")
    _check_finite(rows, "v")
    if rows.shape[-1] != 2 * sched.planes:
        raise ValueError(
            f"schedule has {sched.planes} planes but v has length {rows.shape[-1]}"
        )
    # the table at the pairs' rank: numpy rounds a lone pair against fewer axes another way
    pairs = np.ascontiguousarray(rows).view(complex)
    phases = _phases(pos, sched.omegas)[(None,) * (pairs.ndim - 2)]
    return (pairs * phases).view(float).reshape(shape)


def classic_schedule(n: int) -> FrequencySchedule:
    """Rotary frequencies omega_k = 10000**(-2k/n), k < n/2, built once per n and shared."""
    n = _as_count(n)
    if n % 2 != 0:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return _classic_schedule(n)


@lru_cache(maxsize=32)
def _classic_schedule(n: int) -> FrequencySchedule:
    return FrequencySchedule(omegas=10000.0 ** (-2.0 * np.arange(n // 2) / n))


def roll_induced_schedule(n: int, lam: float = 1.0) -> FrequencySchedule:
    """Rotation frequencies induced by a fractional roll of dimension ``n``.

    One plane per conjugate frequency pair of the centered shift
    logarithm: omega_k = 2*pi*k / (lam*n) for k = 1..ceil(n/2)-1.  The DC
    coordinate (and, for even n, the Nyquist coordinate) carry no plane.
    """
    n = _as_count(n)
    _check_wavelength(lam)
    k = np.arange(1, (n + 1) // 2)
    return FrequencySchedule(omegas=2.0 * np.pi * k / (lam * n))


def realified_fourier_basis(n: int) -> np.ndarray:
    """Orthogonal n-by-n basis exposing the rotation planes of a roll.

    Rows, in order: the DC row of the DFT; for each conjugate pair k,
    sqrt(2) * Re and sqrt(2) * Im of DFT row k; and, for even n, the
    (real) Nyquist row.  In these coordinates a fractional roll acts as
    identity (+) 2-D rotations (+) a cos-scaled Nyquist coordinate.
    """
    n = _as_count(n)
    fmat = dft_matrix(n)
    rows = [fmat[0].real]
    for k in range(1, (n + 1) // 2):
        rows.append(np.sqrt(2.0) * fmat[k].real)
        rows.append(np.sqrt(2.0) * fmat[k].imag)
    if n % 2 == 0:
        rows.append(fmat[n // 2].real)
    return np.stack(rows)


def equivalence_residual(q, k, p_q: float, p_k: float, lam: float = 1.0) -> float:
    """Score gap between the roll path and the rotary path on the same inputs.

    Path A rolls q and k fractionally (centered branch) and takes the dot
    product.  Path B changes basis with :func:`realified_fourier_basis`,
    rotates the planes by the roll-induced schedule, keeps DC fixed,
    scales Nyquist by cos(pi*p/lam), and takes the dot product.  Returns
    |score_A - score_B|.
    """
    q = _as_vector(q, "q")
    k = _as_vector(k, "k")
    if q.size != k.size:
        raise ValueError("query and key must share the same length")
    n = q.size
    positions = [p_q, p_k]

    rolled_q, rolled_k = roll_continuous(
        np.stack([q, k]), positions, lam, SpectralBranch.CENTERED
    )
    score_a = float(rolled_q @ rolled_k)

    basis = realified_fourier_basis(n)
    cq, ck = basis @ q, basis @ k
    sched = roll_induced_schedule(n, lam)
    m = sched.planes

    score_b = cq[0] * ck[0]
    if m:
        planes_q, planes_k = rope_apply(
            np.stack([cq[1 : 1 + 2 * m], ck[1 : 1 + 2 * m]]), positions, sched
        )
        score_b += float(planes_q @ planes_k)
    if n % 2 == 0:
        score_b += (
            math.cos(math.pi * p_q / lam)
            * math.cos(math.pi * p_k / lam)
            * cq[-1]
            * ck[-1]
        )
    return abs(score_a - float(score_b))
