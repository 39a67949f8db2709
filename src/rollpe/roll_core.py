"""Discrete circular roll operator and the rolled attention score.

The one-step shift matrix S has its ones on the superdiagonal plus one in
the bottom-left corner, so (S q)[i] = q[(i + 1) % n]: rolling by p steps
moves the value at slot i + p into slot i.  Scores follow the rotary
convention: encode query and key independently, then take the scaled dot
product.  Because S is a permutation, the score depends only on the
position difference p_k - p_q; ``relative_form_score`` evaluates that
closed form directly (through the dense shift matrix) and serves as the
independent cross-check for ``rollpe_score``.
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


def _as_vector(x, name: str = "q") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D real vector")
    return arr


def _as_steps(p) -> int:
    steps = int(p)
    if steps != p:
        raise ValueError(f"shift count must be an integer, got {p!r}")
    return steps


def roll_discrete(q, p: int) -> np.ndarray:
    """Roll ``q`` by ``p`` steps: output[i] = q[(i + p) % n].

    Pure index permutation, exact in floating point.  Any integer ``p``
    is accepted; it is reduced with a non-negative modulus.  Always
    returns a fresh array.
    """
    q = _as_vector(q)
    n = q.shape[0]
    s = _as_steps(p) % n
    if s == 0:
        return q.copy()
    out = np.empty_like(q)
    out[: n - s] = q[s:]
    out[n - s :] = q[:s]
    return out


def shift_matrix(n: int, p: int = 1) -> np.ndarray:
    """Dense integer matrix of the p-step roll on length-``n`` vectors.

    Row i carries its single 1 in column (i + p) % n, so
    ``shift_matrix(n, p) @ q`` equals ``roll_discrete(q, p)``.  Kept as an
    explicit oracle; production paths always roll by indexing.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    mat = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    mat[idx, (idx + _as_steps(p)) % n] = 1
    return mat


def _score_scale(n_q: int, n_k: int, d: float | None) -> float:
    """sqrt(d) for a score between length-``n_q`` and length-``n_k`` encodings.

    The lengths must agree; ``d`` defaults to that length and must be
    finite and positive.  Shared by every score function in the package,
    ``attend`` and the CLI's ``--d-override`` check.
    """
    if n_q != n_k:
        raise ValueError("query and key must share the same length")
    if d is None:
        d = float(n_q)
    if not 0 < d < math.inf:
        raise ValueError("d must be finite and positive")
    return math.sqrt(d)


def rollpe_score(q, k, p_q: int, p_k: int, d: float | None = None) -> float:
    """Attention score between ``q`` rolled to ``p_q`` and ``k`` rolled to ``p_k``.

    ``d`` is the softmax normalizer (score is divided by sqrt(d));
    defaults to the vector length.
    """
    q = _as_vector(q, "q")
    k = _as_vector(k, "k")
    scale = _score_scale(q.size, k.size, d)
    return float(roll_discrete(q, p_q) @ roll_discrete(k, p_k) / scale)


def relative_form_score(q, k, delta: int, d: float | None = None) -> float:
    """Closed-form rolled score from the position difference alone.

    Evaluates q^T S^delta k / sqrt(d) through the dense shift matrix,
    where delta = p_k - p_q.  Deliberately not routed through
    ``roll_discrete`` so it stays an independent check.
    """
    q = _as_vector(q, "q")
    k = _as_vector(k, "k")
    scale = _score_scale(q.size, k.size, d)
    return float(q @ shift_matrix(q.size, delta).astype(float) @ k / scale)
