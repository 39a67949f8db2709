"""Continuous roll operators from the Fourier logarithm of the shift matrix.

The one-step shift S is diagonal in the DFT basis with eigenvalues
exp(2*pi*1j*k/n), so a matrix logarithm amounts to choosing one imaginary
angle per eigenvalue.  Two branches are provided:

* ``RAW``      -- angles 2*pi*k/n for k = 0..n-1, all non-negative.  This
                  is the textbook diagonalization, but not the principal
                  logarithm: fractional shifts of real vectors become
                  genuinely complex and only their real part is returned.
                  That real part keeps the mean of q and scales the rest
                  by exactly |cos(pi*p/lambda)|, so
                  ||RAW(q, p) - mean|| = |cos(pi*p/lambda)| ||q - mean||
                  and at half-integer p/lambda only the mean survives.
* ``CENTERED`` -- the same angles wrapped into (-pi, pi].  The spectrum
                  is conjugate-symmetric, the generator is (for odd n)
                  real and skew-symmetric, and fractional shifts act as
                  band-limited interpolation.

Both branches exponentiate back to S exactly at integer shifts.  For even
n the CENTERED branch keeps the Nyquist angle at +pi; returning the real
part makes that coefficient evolve as cos(pi*p/lambda), which preserves
integer shifts but damps Nyquist energy at fractional ones (the only
deviation from strict isometry, and it is exactly sin(pi*p/lambda)^2
times the Nyquist energy of the input).

Fractional rolls are computed with a real FFT: a roll is a per-frequency
phase on bins 0..n/2 (RAW adds one per-bin factor), so no n-by-n matrix
is built and the output is real by construction.  A (t, n) stack of rows,
or an (s, t, n) stack of row-sets at shared positions, is rolled in one
pass over a (t, n/2+1) table of unit phases, from the ``_phases`` that
rope's rotations come from too.  The dense DFT matrix builds the
generator; the generator's residual diagnostics read exp(A) off A's first
column through numpy's FFT, as circulants allow, so they check it by a
path that shares no matrix with its construction.  No general-purpose
(Pade / scaling-squaring) matrix exponential is used anywhere in the
library.

The DFT matrix of a size and the generator of a (size, branch) are
constants: each is built once, on first use, and every later call returns
the same read-only object.  The caches hold the 64 most recent DFT sizes
and the 128 most recent generators, each n*n complex values (16 * n**2
bytes), so one pass over n = 1..32 and both branches keeps all of its
entries.  ``generator_residuals`` is not cached: it measures whatever
generator it is handed, against a per-size circulant gather index
(8 * n**2 bytes) kept for the 64 most recent sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .roll_core import _as_count, _as_rows, _check_finite, _check_positive, _raising

__all__ = [
    "SpectralBranch",
    "ShiftGenerator",
    "GeneratorResiduals",
    "dft_matrix",
    "branch_angles",
    "log_shift_generator",
    "roll_continuous",
    "generator_residuals",
]

class SpectralBranch(Enum):
    """Choice of eigenvalue angles for the shift-matrix logarithm."""

    RAW = "raw"
    CENTERED = "centered"


@dataclass(frozen=True, eq=False)
class ShiftGenerator:
    """Matrix logarithm of the one-step shift in a given spectral branch.

    ``matrix`` is n-by-n complex, circulant and skew-Hermitian, with
    exp(matrix) equal to the one-step shift.  Immutable after
    construction: ``matrix`` is a read-only complex copy of the array it
    was given, so the caller's array stays theirs.  An ``n`` that is not
    a positive integer, a ``branch`` that is not a ``SpectralBranch``
    member, and a matrix of any shape but (n, n) or with a NaN or +-inf
    entry raise ``ValueError``.  Build via :func:`log_shift_generator`,
    which returns one shared instance per (n, branch); a hand-built
    generator is for checking :func:`generator_residuals`.
    """

    n: int
    branch: SpectralBranch
    matrix: np.ndarray

    def __post_init__(self):
        n = _as_count(self.n)
        _check_branch(self.branch)
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n}-by-{n}, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix must hold finite entries")
        matrix.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class GeneratorResiduals:
    """Frobenius residuals of the three ShiftGenerator invariants."""

    skew: float
    exp_vs_shift: float
    circulant: float


def _check_branch(branch) -> None:
    if not isinstance(branch, SpectralBranch):
        raise ValueError(f"branch must be a SpectralBranch member, got {branch!r}")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(-2*pi*1j*j*k/n) / sqrt(n), built once per n and shared.

    The array is read-only; copy it before writing to it.
    """
    return _dft_matrix(_as_count(n))


# An LRU cache smaller than a cycle of keys misses on every call of the cycle.
# The invariant sweep's generator checks cycle through n = 1..32 on both
# branches: 64 generators, whose builds read 32 DFT sizes, and 32 gather
# indices.  Each cache here holds twice its share of that cycle.
@lru_cache(maxsize=64)
def _dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    fmat = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    fmat.setflags(write=False)
    return fmat


@lru_cache(maxsize=64)
def _circulant_gather(n: int) -> np.ndarray:
    """The read-only index[i, j] = (j - i) % n that rebuilds a circulant from its row 0."""
    j = np.arange(n)
    index = (j[None, :] - j[:, None]) % n
    index.setflags(write=False)
    return index


def branch_angles(n: int, branch: SpectralBranch) -> np.ndarray:
    """Eigenvalue angles theta_k of the chosen logarithm branch.

    RAW gives 2*pi*k/n; CENTERED wraps each angle into (-pi, pi], which
    for even n leaves the Nyquist angle at +pi.  ``branch`` must be a
    member of :class:`SpectralBranch`; its string value is not accepted.
    """
    n = _as_count(n)
    _check_branch(branch)
    k = np.arange(n)
    if branch is SpectralBranch.CENTERED:
        k = np.where(k <= n // 2, k, k - n)
    return 2.0 * np.pi * k / n


def log_shift_generator(n: int, branch: SpectralBranch = SpectralBranch.CENTERED) -> ShiftGenerator:
    """The generator A = F^H diag(1j * theta_k) F for the branch.

    Built once per (n, branch) and shared; its ``matrix`` is read-only.
    """
    n = _as_count(n)
    _check_branch(branch)
    return _log_shift_generator(n, branch)


@lru_cache(maxsize=128)
def _log_shift_generator(n: int, branch: SpectralBranch) -> ShiftGenerator:
    fmat = dft_matrix(n)
    theta = branch_angles(n, branch)
    matrix = fmat.conj().T @ (1j * theta[:, None] * fmat)
    return ShiftGenerator(n=n, branch=branch, matrix=matrix)


def _phases(pos: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(1j * pos[i] * angles[k]), the (t, m) phase table of every rotary kernel."""
    return np.exp(1j * pos[:, None] * angles)


@_raising()
def roll_continuous(
    q,
    p,
    lam: float = 1.0,
    branch: SpectralBranch = SpectralBranch.CENTERED,
) -> np.ndarray:
    """Roll ``q`` by a real amount ``p`` with period stretched by ``lam``.

    ``q`` is one vector with a scalar ``p``, a (t, n) stack of rows with
    (t,) positions, row i rolled by p[i], or an (s, t, n) stack of s
    row-sets sharing those positions; a vector is the one-row case of the
    same computation.  Scales each bin k = 0..n/2 of the real spectrum of
    each row by exp(2*pi*1j*k*r/n), r = p/lam, from one (t, n/2+1) phase
    table, and transforms back, so the output is real by construction.
    The RAW branch, whose complex output is reduced to its real part, is
    the same map with every non-DC bin further scaled by
    exp(-1j*pi*r) * cos(pi*r): it keeps the mean and damps the rest by
    exactly |cos(pi*p/lam)|, which leaves only the mean at half-integer
    p/lam.  Both branches have exact period
    lam * n in p, so p is first reduced modulo that period, which keeps
    huge positions as accurate as small ones.  At integer p/lam this
    reproduces the discrete roll for both branches.  A non-finite or
    misshapen position raises ``ValueError``; a NaN or +-inf in ``q``, and
    finite rows whose spectra overflow, raise ``FloatingPointError``.
    """
    _check_positive(lam, "lambda")
    _check_branch(branch)
    rows, pos, shape = _as_rows(q, p)
    _check_finite(rows, "q")
    return _roll_spectra(rows, _roll_table(pos, rows.shape[-1], lam, branch)).reshape(shape)


def _roll_table(pos: np.ndarray, n: int, lam: float, branch: SpectralBranch) -> np.ndarray:
    """The (t, n/2+1) table that scales the real spectrum of a row at each of the (t,) ``pos``.

    Bin k at position p is exp(2*pi*1j*k*r/n), r = p/lam with p reduced
    modulo the period lam * n first; RAW folds its factor
    exp(-1j*pi*r) * cos(pi*r) into every non-DC bin.  Nothing is checked.
    """
    r = np.fmod(pos, lam * n) / lam
    table = _phases(r, 2.0 * np.pi / n * np.arange(n // 2 + 1))
    if branch is SpectralBranch.RAW:
        table[:, 1:] *= (np.exp(-1j * np.pi * r) * np.cos(np.pi * r))[:, None]
    return table


def _roll_spectra(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """irfft(rfft(rows) * table): the (..., t, n) rows rolled by a ``_roll_table``, unchecked."""
    # one out-of-place product: scaling bins in place rounds a lone bin another way
    return np.fft.irfft(np.fft.rfft(rows, axis=-1) * table, rows.shape[-1], axis=-1)


@_raising()
def generator_residuals(gen: ShiftGenerator) -> GeneratorResiduals:
    """Measure how well a generator satisfies its defining invariants.

    skew:          || A + A^H ||_F
    exp_vs_shift:  || exp(A) - S ||_F, with exp taken through the Fourier
                   spectrum of the stored matrix's first column, valid
                   because A is circulant
    circulant:     || A - circulant reconstruction from row 0 ||_F

    exp(A) and S are circulant, with first columns ifft(exp(fft(A[:, 0])))
    and e_{n-1}, and two circulants lie sqrt(n) times their first columns'
    distance apart, so no n-by-n product is formed.  A hand-built matrix
    whose entries overflow a residual raises ``FloatingPointError``.
    """
    a = gen.matrix
    n = gen.n
    skew = _frobenius(a + a.conj().T)

    exp_col = np.fft.ifft(np.exp(np.fft.fft(a[:, 0])))
    exp_col[-1] -= 1.0
    exp_vs_shift = math.sqrt(n) * _frobenius(exp_col)

    circulant = _frobenius(a - a[0][_circulant_gather(n)])
    return GeneratorResiduals(skew=skew, exp_vs_shift=exp_vs_shift, circulant=circulant)


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of an array, by the ravel and dot products it uses, as a float."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
