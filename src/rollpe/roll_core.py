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

import functools
import math
import numbers
import sys

import numpy as np

__all__ = [
    "roll_discrete",
    "shift_matrix",
    "rollpe_score",
    "relative_form_score",
]


# The library's one floating-point policy (README, "Floating-point policy"):
# every public entry point that can set a floating-point flag runs under
# ``@_raising()``, which sets all four flags, so no error state the caller
# has set changes what it returns or raises.  Finite inputs that overflow,
# an invalid operation such as inf - inf, and a division by zero raise
# ``FloatingPointError`` where they happen, with no warning.  Underflow is
# ignored: its error is below the smallest subnormal step, and the softmax
# meets it on every negligible term.  A NaN input sets no flag, so outputs
# keep their ``_check_finite``.  A partial, not one shared errstate: under
# numpy < 2 a shared instance entered again by a nested call leaves the
# raising state set after the call returns.
_raising = functools.partial(np.errstate, all="raise", under="ignore")


# One check per argument kind, shared by every public entry point.  The
# vector checks stay scalar tests, so a single-vector call stays cheap;
# ``_as_rows`` checks a whole stack with one reduction per argument.


def _as_vector(x, name: str = "q") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D real vector")
    return arr


# True compares as 1 and is a Real, but a bool is a flag, not a count, a shift or a length
_BOOLS = (bool, np.bool_)


def _as_steps(p, name: str = "shift count") -> int:
    """``p`` as an int; fractions, NaN, +-inf, bools and arrays raise ``ValueError``."""
    try:
        steps = None if isinstance(p, _BOOLS) else int(p)
    except (OverflowError, TypeError, ValueError):
        steps = None
    if steps is None or steps != p:
        raise ValueError(f"{name} must be an integer, got {p!r}")
    return steps


def _as_count(n, name: str = "n", least: int = 1) -> int:
    """``n`` as an int >= ``least``; fractions, NaN, inf, bools and less raise ``ValueError``."""
    if isinstance(n, _BOOLS) or not n >= least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")
    return _as_steps(n, name)


# float and int come first: an isinstance check on numbers.Real alone costs about 1 us
_REALS = (float, int, numbers.Real)
_FLOAT_MAX = sys.float_info.max


def _check_positive(x, name: str) -> None:
    """``ValueError`` unless ``x`` is a finite, positive real: a wavelength, ``d``, a threshold.

    A string, an array, a bool or any other value that is not a real number is
    refused too, and so is a Python int beyond the float64 range, which compares
    below inf but cannot be converted to a float.
    """
    if not (isinstance(x, _REALS) and not isinstance(x, _BOOLS) and 0 < x <= _FLOAT_MAX):
        raise ValueError(f"{name} must be finite and positive, got {x!r}")


def _check_finite(x: np.ndarray, name: str) -> None:
    """``FloatingPointError`` unless every entry of ``x`` is finite."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{name} must be finite")


def _holds_bool(p: list | tuple) -> bool:
    """Whether the list or tuple ``p`` holds a bool at any depth, also inside an array in it."""
    # an object array keeps each number's type, so one pass in C finds a bool;
    # only a 0-d array stays an array in it
    entries = np.array(p, dtype=object).reshape(-1)
    types = set(map(type, entries))
    return not types.isdisjoint(_BOOLS) or (np.ndarray in types and any(
        v.dtype.kind == "b" for v in entries if isinstance(v, np.ndarray)
    ))


def _as_positions(p, name: str = "positions") -> np.ndarray:
    """``p`` as a new float64 array; ``ValueError`` unless it holds real numbers float64 can hold.

    Strings and bytes, which a float conversion would parse, bools, which
    are a mask rather than positions, and complex numbers are refused, also
    inside a list or tuple, where a bool among numbers would read as 0 or 1;
    an object array, such as Python ints beyond int64, is checked entry by
    entry, and a Python int beyond the float64 range is refused too, where
    the conversion would raise ``OverflowError``.  The errors call the
    values ``name``: positions, or a schedule's frequencies.
    """
    arr = np.asarray(p)
    kind = arr.dtype.kind
    # an array's dtype already shows a bool (asarray returns an array itself,
    # which keeps this cheap), as does a list of bools alone; a list or tuple
    # of numbers is searched for one
    listed = arr is not p and isinstance(p, (list, tuple))
    if kind in "iufO" and listed and _holds_bool(p):
        raise ValueError(f"{name} must be real numbers, got a bool in the {type(p).__name__}")
    if kind not in "iufO" or (kind == "O" and not all(
        isinstance(v, _REALS) and not isinstance(v, _BOOLS) for v in arr.flat
    )):
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    try:
        return arr.astype(float)
    except OverflowError:
        raise ValueError(f"{name} must lie within the float64 range") from None


def _as_rows(x, p, name: str = "q") -> tuple[np.ndarray, np.ndarray, tuple]:
    """``x`` as rows with (t,) positions ``p``, plus the shape of ``x``.

    A vector takes a scalar position and is the one-row case, returned as
    (1, n); a (t, n) stack takes one position per row; an (s, t, n) stack
    holds s row-sets that share the (t,) positions, row i of each at p[i].
    A table built over the (t,) positions therefore broadcasts against the
    rows of every shape.  A wrong shape or a position that is not a finite
    real raises ``ValueError``, in one reduction whatever t is.  The
    entries of ``x`` are left to the caller to check.
    """
    arr = np.asarray(x, dtype=float)
    pos = _as_positions(p)
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


def _as_shifts(q: np.ndarray, p) -> np.ndarray:
    """The (t,) integer shifts of ``q``'s rows, reduced mod n; a vector is the one-row case.

    A vector takes any integer ``p``, reduced exactly whatever its
    magnitude, into a (1,) array.  A (t, n) or (s, t, n) stack takes (t,)
    positions: those of an integer dtype, and Python ints beyond int64 but
    within the float64 range, are reduced with an integer modulus,
    exactly; others are read as float64.  A fractional, non-finite or
    misshapen position raises ``ValueError`` before any reduction.
    """
    if q.ndim == 1:
        return np.array([_as_steps(p) % _as_vector(q).size])
    _, pos, _ = _as_rows(q, p)
    n = q.shape[-1]
    ints = np.asarray(p)
    if ints.dtype.kind in "iu":
        # widened first, so that a narrow dtype cannot overflow at n
        return (ints.astype(ints.dtype.kind + "8") % n).astype(np.intp)
    if ints.dtype.kind == "O":
        # Python ints too large for int64: reduced one by one, exactly
        return np.array([_as_steps(v) % n for v in ints.reshape(-1)], dtype=np.intp)
    return _float_shifts(pos, n)


def _float_shifts(pos: np.ndarray, n: int) -> np.ndarray:
    """The (t,) float positions ``pos`` as integer shifts in (-n, n): a roll's position table.

    ``pos`` must be finite; a fractional entry raises ``ValueError``, on
    every call.
    """
    return _reduced_steps(pos, n).astype(np.intp)


def _reduced_steps(pos: np.ndarray, n: int) -> np.ndarray:
    """The float positions ``pos``, of any shape, reduced modulo n into (-n, n), still floats.

    ``pos`` must be finite; a fractional entry raises ``ValueError``, on
    every call.
    """
    # fmod is exact: the fractional parts, then each integer-valued float reduced to its
    # step.  count_nonzero costs a quarter of any()'s fixed cost, and a float n spares
    # numpy resolving a Python int's dtype.
    fractions = np.fmod(pos, 1.0)
    if np.count_nonzero(fractions):
        raise ValueError(f"shift count must be an integer, got {float(pos[fractions != 0][0])!r}")
    return np.fmod(pos, float(n))


# The seeded sweeps (the CLI's checks and the witness search) draw and score
# their trials in blocks of at most this many bytes and trials, so memory does
# not grow with the trial count.  32 trials at t = n = 8 share one attend, and
# glibc malloc reuses heap memory (on x86-64 Linux, 8 MiB blocks took ~200
# page faults every default report).
_BLOCK_BYTES = 64 * 2**10
_BLOCK_TRIALS = 32


def _blocks(trials: int, trial_bytes: int):
    """(block, used) per block of a seeded sweep, lazily: its full size and the trials it runs.

    A block holds as many trials of ``trial_bytes`` each as fit
    ``_BLOCK_BYTES``, at most ``_BLOCK_TRIALS`` and at least one.  Every
    block is drawn at its full size, one generator call per quantity,
    and only its first ``used`` trials run, so a trial's inputs depend on
    the seed, the shape and its index, never on the trial count.
    """
    block = max(1, min(_BLOCK_TRIALS, _BLOCK_BYTES // trial_bytes))
    return ((block, min(block, trials - start)) for start in range(0, trials, block))


def roll_discrete(q, p) -> np.ndarray:
    """Roll ``q`` by ``p`` steps: output[i] = q[(i + p) % n].

    ``q`` is one vector with an integer ``p``; a (t, n) stack of rows
    with (t,) integer positions, row i rolled by p[i]; or an (s, t, n)
    stack of s row-sets sharing those positions (see ``_as_shifts`` for
    how positions are read).  A stack is rolled by one ``take`` through
    the (t, n) flat index ``_roll_index`` builds from its shifts, and a
    vector, the one-row case, is one slice of its doubled copy.  Pure
    index permutation, exact in floating point, so NaN and +-inf entries
    move like any other.  A fractional, non-finite or misshapen position
    raises ``ValueError``.  Always returns a fresh array.
    """
    q = np.asarray(q, dtype=float)
    shifts = _as_shifts(q, p)
    if q.ndim > 1:
        return _roll_rows(q, _roll_index(shifts, q.shape[-1]))
    # one slice: the one-row take and its index build take a vector five times as long
    return np.concatenate((q, q))[shifts[0] : shifts[0] + q.size]


@functools.lru_cache(maxsize=32)
def _windows(n: int) -> np.ndarray:
    """The read-only (n, n) view whose row s is (arange(n) + s) % n, over 2n integers."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) % n, n)[:n]


def _roll_index(shifts: np.ndarray, n: int) -> np.ndarray:
    """The (..., t, n) flat roll index of the (..., t) integer ``shifts``, each in [-n, n).

    Row i is i*n + (arange(n) + shifts[..., i]) % n: the positions, in a
    row-set's rows flattened to t*n entries, that row i rolled by
    shifts[..., i] reads.  Its rows come from ``_windows``, so no modulo
    runs over the t*n entries.  Nothing is checked here.
    """
    index = _windows(n)[shifts]
    index += _row_starts(shifts.shape[-1], n)
    return index


@functools.lru_cache(maxsize=32)
def _row_starts(t: int, n: int) -> np.ndarray:
    """The read-only (t, 1) column of row starts i*n.

    Kept, as the windows are: at t <= 32 building it costs about half of
    the add it feeds.
    """
    starts = np.arange(0, t * n, n)[:, None]
    starts.setflags(write=False)
    return starts


def _roll_rows(q: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (t, n) or (s, t, n) float stack ``q`` rolled through its (t, n) ``_roll_index``.

    One ``take`` over each row-set's rows flattened to t*n entries, from
    any memory layout: the reshape copies one that cannot be flattened
    in place.  Nothing is checked here: this is the core of
    ``roll_discrete``, which checks its positions once, before it
    reduces them, and of attention's roll, on rows its batch has checked.
    """
    return np.take(q.reshape(*q.shape[:-2], -1), index, axis=-1)


def shift_matrix(n: int, p: int = 1) -> np.ndarray:
    """Dense integer matrix of the p-step roll on length-``n`` vectors.

    Row i carries its single 1 in column (i + p) % n, so
    ``shift_matrix(n, p) @ q`` equals ``roll_discrete(q, p)``.  Kept as an
    explicit oracle; production paths always roll by indexing.
    """
    n = _as_count(n)
    mat = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    mat[idx, (idx + _as_steps(p) % n) % n] = 1
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


@_raising()
def rollpe_score(q, k, p_q, p_k, d: float | None = None) -> float | np.ndarray:
    """Attention score between ``q`` rolled to ``p_q`` and ``k`` rolled to ``p_k``.

    ``q`` and ``k`` are two vectors with integer positions, or two (T, n)
    stacks with (T,) integer positions each, and the score of each row
    pair is returned as a (T,) array; a vector is the one-row case and
    returns a float.  Each side is rolled by one ``roll_discrete`` call.
    ``d`` is the softmax normalizer (score is divided by sqrt(d));
    defaults to the vector length.  A score that is not finite, from
    products that overflow or from a NaN or +-inf entry, raises
    ``FloatingPointError``.
    """
    q, k = _as_pair(q, k)
    scale = _score_scale(q.shape[-1], d)
    scores = (roll_discrete(q, p_q) * roll_discrete(k, p_k)).sum(axis=-1) / scale
    _check_finite(scores, "score")
    return float(scores) if q.ndim == 1 else scores


@_raising()
def relative_form_score(q, k, delta, d: float | None = None) -> float | np.ndarray:
    """Closed-form rolled score from the position difference alone.

    Evaluates q^T S^delta k / sqrt(d) through the dense shift matrix,
    where delta = p_k - p_q.  ``q`` and ``k`` are two vectors with an
    integer ``delta``, or two (T, n) stacks with (T,) integer deltas,
    scored row by row into a (T,) array.  Each distinct S^delta is built
    once and contracted with the rows that use it, so memory stays
    O(T*n + n^2).  Deliberately not routed through ``roll_discrete`` so
    it stays an independent check.  A score that is not finite raises
    ``FloatingPointError``, as in ``rollpe_score``.
    """
    q, k = _as_pair(q, k)
    n = q.shape[-1]
    scale = _score_scale(n, d)
    shifts = _as_shifts(q, delta) % n
    q_rows, k_rows = q.reshape(-1, n), k.reshape(-1, n)
    scores = np.empty(len(shifts))
    # a set, not np.unique: its first call costs the process 1.5 MiB of resident memory
    for shift in set(shifts.tolist()):
        rows = shifts == shift
        scores[rows] = np.einsum(
            "ti,ij,tj->t", q_rows[rows], shift_matrix(n, shift).astype(float), k_rows[rows]
        )
    scores /= scale
    _check_finite(scores, "score")
    return float(scores[0]) if q.ndim == 1 else scores
