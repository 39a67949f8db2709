"""Rotary positional encoding and its correspondence with fractional rolls.

A rotary encoding multiplies each coordinate pair v[2k] + 1j*v[2k+1] by
exp(1j*p*omega_k), from the phase table the fractional roll scales its
Fourier bins by.  Diagonalizing the circular shift shows a fractional roll
is exactly such a rotation after an orthogonal change of basis built from
the real and imaginary parts of the DFT rows: each conjugate frequency
pair becomes one rotation plane with omega_k = 2*pi*k / (lambda*n), the
DC row is a fixed coordinate, and (for even n) the Nyquist row evolves by
cos(pi*p/lambda).  ``equivalence_residual`` runs both code paths on the
same inputs and returns the absolute score gap, for one query/key pair
or for a (T, n) stack of T pairs in one kernel call per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .roll_core import (
    _as_count,
    _as_pair,
    _as_positions,
    _as_rows,
    _check_finite,
    _check_positive,
    _raising,
)
from .spectral import SpectralBranch, _phases, dft_matrix, roll_continuous

__all__ = [
    "FrequencySchedule",
    "rope_apply",
    "classic_schedule",
    "roll_induced_schedule",
    "realified_fourier_basis",
    "equivalence_residual",
]


@dataclass(frozen=True, eq=False)
class FrequencySchedule:
    """Per-plane rotation frequencies omega_k (one entry per 2-D plane).

    ``omegas`` is a read-only float64 copy of the frequencies given, so
    the caller's array stays theirs.  They are read as positions are
    (``roll_core._as_positions``): a string, bytes, a bool, a complex
    number or a Python int beyond the float64 range raises ``ValueError``,
    as do a non-finite frequency and any shape but a scalar or a vector.
    """

    omegas: np.ndarray

    def __post_init__(self):
        omegas = np.atleast_1d(_as_positions(self.omegas, "frequencies"))
        if omegas.ndim != 1:
            raise ValueError("omegas must be a 1-D vector")
        if omegas.size and not np.all(np.isfinite(omegas)):
            raise ValueError("all frequencies must be finite")
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)

    @property
    def planes(self) -> int:
        return int(self.omegas.size)


@_raising()
def rope_apply(v, p, sched: FrequencySchedule) -> np.ndarray:
    """Rotate each pair (v[2k], v[2k+1]) by angle p * omega_k (counterclockwise).

    ``v`` is one vector with a scalar ``p``, a (t, 2m) stack of rows with
    (t,) positions, row i rotated at p[i], or an (s, t, 2m) stack of s
    row-sets sharing those positions; a vector is the one-row case.  Pair
    k, read as v[2k] + 1j*v[2k+1], is multiplied by exp(1j*p*omega_k) from
    one (t, m) phase table.  The schedule needs one plane per pair.  A
    non-finite or misshapen position raises ``ValueError``; a NaN or +-inf
    in ``v``, a position and frequency whose product p * omega_k
    overflows, and finite pairs whose rotation overflows raise
    ``FloatingPointError``.
    """
    rows, pos, shape = _as_rows(v, p, "v")
    _check_finite(rows, "v")
    if rows.shape[-1] != 2 * sched.planes:
        raise ValueError(
            f"schedule has {sched.planes} planes but v has length {rows.shape[-1]}"
        )
    return _rotate_pairs(rows, _phases(pos, sched.omegas)).reshape(shape)


def _classic_table(pos: np.ndarray, n: int) -> np.ndarray:
    """The (t, n/2) phases of ``classic_schedule(n)``, the rotary table attention encodes with."""
    return _phases(pos, classic_schedule(n).omegas)


def _sinusoid_table(pos: np.ndarray, n: int) -> np.ndarray:
    """The (t, n) sinusoidal APE rows: sin at even dims, cos at odd, of the classic phases."""
    phases = _phases(pos, classic_schedule(n).omegas)
    table = np.empty((pos.size, 2 * phases.shape[1]))
    table[:, 0::2] = phases.imag
    table[:, 1::2] = phases.real
    return table


def _rotate_pairs(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Pair k of each (..., t, 2m) row times its row of the (t, m) ``table``, unchecked."""
    # the table at the pairs' rank: numpy rounds a lone pair against fewer axes another way
    pairs = np.ascontiguousarray(rows).view(complex)
    return (pairs * table[(None,) * (pairs.ndim - 2)]).view(float)


def classic_schedule(n: int) -> FrequencySchedule:
    """Rotary frequencies omega_k = 10000**(-2k/n), k < n/2, built once per n and shared."""
    n = _as_count(n)
    if n % 2 != 0:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return _classic_schedule(n)


@lru_cache(maxsize=32)
def _classic_schedule(n: int) -> FrequencySchedule:
    return FrequencySchedule(omegas=10000.0 ** (-2.0 * np.arange(n // 2) / n))


@_raising()
def roll_induced_schedule(n: int, lam: float = 1.0) -> FrequencySchedule:
    """Rotation frequencies induced by a fractional roll of dimension ``n``.

    One plane per conjugate frequency pair of the centered shift
    logarithm: omega_k = 2*pi*k / (lam*n) for k = 1..ceil(n/2)-1.  The DC
    coordinate (and, for even n, the Nyquist coordinate) carry no plane.
    A ``lam`` so small that a frequency overflows raises ``FloatingPointError``.
    """
    n = _as_count(n)
    _check_positive(lam, "lambda")
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
    pairs = fmat[1 : (n + 1) // 2]
    planes = np.sqrt(2.0) * np.stack([pairs.real, pairs.imag], axis=1).reshape(-1, n)
    rows = [fmat[:1].real, planes]
    if n % 2 == 0:
        rows.append(fmat[n // 2 : n // 2 + 1].real)
    return np.concatenate(rows)


@_raising()
def equivalence_residual(q, k, p_q, p_k, lam: float = 1.0) -> float | np.ndarray:
    """Score gap between the roll path and the rotary path on the same inputs.

    Path A rolls q and k fractionally (centered branch) and takes the dot
    product.  Path B changes basis with :func:`realified_fourier_basis`,
    rotates the planes by the roll-induced schedule, keeps DC fixed,
    scales Nyquist by cos(pi*p/lam), and takes the dot product.  Returns
    |score_A - score_B|.  ``q`` and ``k`` are two vectors with scalar
    positions, or two (T, n) stacks with (T,) positions each, checked as
    T trials into a (T,) array; a vector is the one-row case and returns
    a float.  Either way each path makes one kernel call on the (2T, n)
    stack [Q; K] at the concatenated positions, and the basis and the
    schedule are built once.  A non-finite or misshapen position raises
    ``ValueError``; a NaN or +-inf in ``q`` or ``k`` raises
    ``FloatingPointError``, as do a ``lam`` so small that a frequency or
    an angle p * omega_k overflows and finite scores that overflow.
    """
    q, k = _as_pair(q, k)
    q_rows, pos_q, _ = _as_rows(q, p_q, "q")
    k_rows, pos_k, _ = _as_rows(k, p_k, "k")
    t, n = q_rows.shape
    rows = np.concatenate([q_rows, k_rows])
    positions = np.concatenate([pos_q, pos_k])
    _check_positive(lam, "lambda")

    rolled = roll_continuous(rows, positions, lam, SpectralBranch.CENTERED)
    score_a = (rolled[:t] * rolled[t:]).sum(axis=-1)

    # einsum, not a BLAS product: a row's coordinates then do not depend on
    # how many rows share the call, so row i of a stack equals its vector call
    coords = np.einsum("tj,ij->ti", rows, realified_fourier_basis(n))
    sched = roll_induced_schedule(n, lam)
    m = sched.planes
    score_b = coords[:t, 0] * coords[t:, 0]
    if m:
        planes = rope_apply(coords[:, 1 : 1 + 2 * m], positions, sched)
        score_b += (planes[:t] * planes[t:]).sum(axis=-1)
    if n % 2 == 0:
        nyquist = np.cos(np.pi * positions / lam) * coords[:, -1]
        score_b += nyquist[:t] * nyquist[t:]
    residual = np.abs(score_a - score_b)
    _check_finite(residual, "residual")
    return float(residual[0]) if q.ndim == 1 else residual
