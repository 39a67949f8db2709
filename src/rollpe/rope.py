"""Rotary positional encoding and its correspondence with fractional rolls.

A rotary encoding rotates consecutive coordinate pairs (v[2k], v[2k+1]) by
position-proportional angles p * omega_k.  Diagonalizing the circular
shift shows a fractional roll is exactly such a rotation after an
orthogonal change of basis built from the real and imaginary parts of the
DFT rows: each conjugate frequency pair becomes one rotation plane with
omega_k = 2*pi*k / (lambda*n), the DC row is a fixed coordinate, and (for
even n) the Nyquist row evolves by cos(pi*p/lambda).
``equivalence_residual`` runs both code paths on the same inputs and
returns the absolute score gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roll_core import _as_count, _as_vector, _check_position, _check_wavelength
from .spectral import SpectralBranch, dft_matrix, roll_continuous

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


def rope_apply(v, p: float, sched: FrequencySchedule) -> np.ndarray:
    """Rotate each pair (v[2k], v[2k+1]) by angle p * omega_k (counterclockwise)."""
    v = _as_vector(v, "v")
    _check_position(p)
    if v.size != 2 * sched.planes:
        raise ValueError(
            f"schedule has {sched.planes} planes but v has length {v.size}"
        )
    ang = p * sched.omegas
    c, s = np.cos(ang), np.sin(ang)
    x, y = v[0::2], v[1::2]
    out = np.empty_like(v)
    out[0::2] = c * x - s * y
    out[1::2] = s * x + c * y
    return out


def classic_schedule(n: int) -> FrequencySchedule:
    """Standard rotary frequencies omega_k = 10000**(-2k/n), k = 0..n/2-1."""
    n = _as_count(n)
    if n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    k = np.arange(n // 2)
    return FrequencySchedule(omegas=10000.0 ** (-2.0 * k / n))


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

    score_a = float(
        roll_continuous(q, p_q, lam, SpectralBranch.CENTERED)
        @ roll_continuous(k, p_k, lam, SpectralBranch.CENTERED)
    )

    basis = realified_fourier_basis(n)
    cq, ck = basis @ q, basis @ k
    sched = roll_induced_schedule(n, lam)
    m = sched.planes

    score_b = cq[0] * ck[0]
    if m:
        score_b += float(
            rope_apply(cq[1 : 1 + 2 * m], p_q, sched)
            @ rope_apply(ck[1 : 1 + 2 * m], p_k, sched)
        )
    if n % 2 == 0:
        score_b += (
            math.cos(math.pi * p_q / lam)
            * math.cos(math.pi * p_k / lam)
            * cq[-1]
            * ck[-1]
        )
    return abs(score_a - float(score_b))
