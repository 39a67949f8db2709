"""Discrete circular roll operator and the rolled attention score.

The one-step shift matrix S has its ones on the superdiagonal plus one in
the bottom-left corner, so (S q)[i] = q[(i + 1) % n]: rolling by p steps
moves the value at slot i + p into slot i.  Scores follow the rotary
convention: encode query and key independently, then take the scaled dot
product.  Because S is a permutation, the score depends only on the
position difference p_k - p_q; ``relative_form_score`` evaluates that
closed form directly (through the dense shift matrix) and serves as the
independent cross-check for ``rollpe_score``.  Both scores take two
vectors, or two (T, n) stacks scored row by row into a (T,) array, so a
sweep checks all its trials in one call; a vector is the one-row case.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "roll_discrete",
    "shift_matrix",
    "rollpe_score",
    "relative_form_score",
]


# One check per argument kind, shared by every public entry point.  The
# vector checks stay scalar tests, so a single-vector call stays cheap;
# ``_as_rows`` checks a whole stack with one reduction per argument.


def _as_vector(x, name: str = "q") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D real vector")
    return arr


def _as_steps(p, name: str = "shift count") -> int:
    """``p`` as an int; fractions, NaN, +-inf and arrays raise ``ValueError``."""
    try:
        steps = int(p)
    except (OverflowError, TypeError, ValueError):
        steps = None
    if steps is None or steps != p:
        raise ValueError(f"{name} must be an integer, got {p!r}")
    return steps


def _as_count(n, name: str = "n", least: int = 1) -> int:
    """``n`` as an int >= ``least``; fractions, NaN, inf and less raise ``ValueError``."""
    if not n >= least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")
    return _as_steps(n, name)


def _check_positive(x, name: str) -> None:
    """``ValueError`` unless ``x`` is finite and positive: a wavelength, ``d``, a threshold."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {x!r}")


def _check_finite(x: np.ndarray, name: str) -> None:
    """``FloatingPointError`` unless every entry of ``x`` is finite."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{name} must be finite")


def _as_rows(x, p, name: str = "q") -> tuple[np.ndarray, np.ndarray, tuple]:
    """``x`` as rows with (t,) positions ``p``, plus the shape of ``x``.

    A vector takes a scalar position and is the one-row case, returned as
    (1, n); a (t, n) stack takes one position per row; an (s, t, n) stack
    holds s row-sets that share the (t,) positions, row i of each at p[i].
    A table built over the (t,) positions therefore broadcasts against the
    rows of every shape.  A wrong shape or a non-finite position raises
    ``ValueError``, in one reduction whatever t is.  The entries of ``x``
    are left to the caller to check.
    """
    arr = np.asarray(x, dtype=float)
    pos = np.asarray(p, dtype=float)
    if arr.ndim not in (1, 2, 3) or arr.size == 0:
        raise ValueError(
            f"{name} must be a non-empty 1-D vector, (t, n) stack of rows "
            "or (s, t, n) stack of row-sets"
        )
    if pos.shape != arr.shape[-2:-1]:
        raise ValueError(
            f"{name} of shape {arr.shape} needs positions of shape {arr.shape[-2:-1]}, "
            f"got {pos.shape}"
        )
    finite = np.isfinite(pos)
    if not finite.all():
        raise ValueError(f"position must be finite, got {float(pos[~finite][0])!r}")
    return (arr if arr.ndim > 1 else arr[None]), pos.reshape(-1), arr.shape


def _as_pair(q, k) -> tuple[np.ndarray, np.ndarray]:
    """``q`` and ``k`` as two vectors, or two (T, n) stacks of rows, of one shape.

    The score functions take these two shapes only; any other, and a
    query and key that differ in length or in row count, raise
    ``ValueError``.
    """
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    if q.ndim not in (1, 2) or q.size == 0:
        raise ValueError("q must be a non-empty 1-D vector or (T, n) stack of rows")
    if k.shape != q.shape:
        raise ValueError(f"query and key must share one shape, got {q.shape} and {k.shape}")
    return q, k


def _as_shifts(q: np.ndarray, p):
    """The shift of vector ``q``, or the (t,) shifts of a stack, reduced mod n.

    A vector takes any integer ``p`` and gets an int.  A (t, n) or
    (s, t, n) stack gets an integer array: positions of an integer dtype,
    and Python ints beyond int64, are reduced with an integer modulus,
    exactly at any magnitude; others are read as float64.  A fractional,
    non-finite or misshapen position raises ``ValueError`` before any
    reduction.
    """
    if q.ndim == 1:
        return _as_steps(p) % _as_vector(q).size
    _, pos, _ = _as_rows(q, p)
    n = q.shape[-1]
    ints = np.asarray(p)
    if ints.dtype.kind in "iu":
        # widened first, so that a narrow dtype cannot overflow at n
        return (ints.astype(ints.dtype.kind + "8") % n).astype(np.intp)
    if ints.dtype.kind == "O":
        # Python ints too large for int64: reduced one by one, exactly
        return np.array([_as_steps(v) % n for v in ints.reshape(-1)], dtype=np.intp)
    fractional = pos != np.floor(pos)
    if fractional.any():
        raise ValueError(f"shift count must be an integer, got {float(pos[fractional][0])!r}")
    # fmod is exact, so every integer-valued float reduces to the right step
    return np.fmod(pos, n).astype(np.intp)


def roll_discrete(q, p) -> np.ndarray:
    """Roll ``q`` by ``p`` steps: output[i] = q[(i + p) % n].

    ``q`` is one vector with an integer ``p``, rolled by two slice
    copies; a (t, n) stack of rows with (t,) integer positions, row i
    rolled by p[i]; or an (s, t, n) stack of s row-sets sharing those
    positions.  A stack is rolled in one gather (see ``_as_shifts`` for
    how positions are read).  Pure index permutation, exact in floating
    point, so NaN and +-inf entries move like any other.  A fractional,
    non-finite or misshapen position raises ``ValueError``.  Always
    returns a fresh array.
    """
    q = np.asarray(q, dtype=float)
    s = _as_shifts(q, p)
    if q.ndim > 1:
        return _roll_rows(q, s)
    n = q.size
    if s == 0:
        return q.copy()
    out = np.empty_like(q)
    out[: n - s] = q[s:]
    out[n - s :] = q[:s]
    return out


def _roll_rows(q: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row i of the (t, n) or (s, t, n) float stack ``q`` rolled by shifts[i], in one gather.

    ``shifts`` holds (t,) integers already reduced into [-n, n), and
    nothing is checked here: ``roll_discrete`` and ``mproll`` check their
    positions once, before they reduce them.
    """
    n = q.shape[-1]
    # windows[..., i, k] is doubled[..., i, k:k + n], row i rolled by k,
    # so the gather needs no (t, n) index table and no integer modulo
    doubled = np.concatenate([q, q], axis=-1)
    windows = np.ndarray((*q.shape, n), float, doubled, 0, (*doubled.strides, doubled.itemsize))
    return windows[..., np.arange(len(shifts)), shifts, :]


def shift_matrix(n: int, p: int = 1) -> np.ndarray:
    """Dense integer matrix of the p-step roll on length-``n`` vectors.

    Row i carries its single 1 in column (i + p) % n, so
    ``shift_matrix(n, p) @ q`` equals ``roll_discrete(q, p)``.  Kept as an
    explicit oracle; production paths always roll by indexing.
    """
    n = _as_count(n)
    mat = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    mat[idx, (idx + _as_steps(p)) % n] = 1
    return mat


def _score_scale(n: int, d: float | None) -> float:
    """sqrt(d) for a score between two length-``n`` encodings.

    ``d`` defaults to ``n`` and must be finite and positive.  Shared by
    every score function in the package, ``attend`` and the CLI's
    ``--d-override`` check; the callers check that the lengths agree.
    """
    if d is None:
        d = float(n)
    _check_positive(d, "d")
    return math.sqrt(d)


def rollpe_score(q, k, p_q, p_k, d: float | None = None) -> float | np.ndarray:
    """Attention score between ``q`` rolled to ``p_q`` and ``k`` rolled to ``p_k``.

    ``q`` and ``k`` are two vectors with integer positions, or two (T, n)
    stacks with (T,) integer positions each, and the score of each row
    pair is returned as a (T,) array; a vector is the one-row case and
    returns a float.  Each side is rolled by one ``roll_discrete`` call.
    ``d`` is the softmax normalizer (score is divided by sqrt(d));
    defaults to the vector length.
    """
    q, k = _as_pair(q, k)
    scale = _score_scale(q.shape[-1], d)
    scores = (roll_discrete(q, p_q) * roll_discrete(k, p_k)).sum(axis=-1) / scale
    return float(scores) if q.ndim == 1 else scores


def relative_form_score(q, k, delta, d: float | None = None) -> float | np.ndarray:
    """Closed-form rolled score from the position difference alone.

    Evaluates q^T S^delta k / sqrt(d) through the dense shift matrix,
    where delta = p_k - p_q.  ``q`` and ``k`` are two vectors with an
    integer ``delta``, or two (T, n) stacks with (T,) integer deltas,
    scored row by row into a (T,) array.  Each distinct S^delta is built
    once and contracted with the rows that use it, so memory stays
    O(T*n + n^2).  Deliberately not routed through ``roll_discrete`` so
    it stays an independent check.
    """
    q, k = _as_pair(q, k)
    n = q.shape[-1]
    scale = _score_scale(n, d)
    shifts = np.reshape(_as_shifts(q, delta), -1) % n
    q_rows, k_rows = q.reshape(-1, n), k.reshape(-1, n)
    scores = np.empty(len(shifts))
    # a set, not np.unique: its first call costs the process 1.5 MiB of resident memory
    for shift in set(shifts.tolist()):
        rows = shifts == shift
        scores[rows] = np.einsum(
            "ti,ij,tj->t", q_rows[rows], shift_matrix(n, shift).astype(float), k_rows[rows]
        )
    scores /= scale
    return float(scores[0]) if q.ndim == 1 else scores
