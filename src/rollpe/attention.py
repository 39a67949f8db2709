"""Scaled dot-product attention with pluggable positional encodings.

The layer owns no learned parameters: callers pass Q/K/V directly and a
``PEConfig`` naming the encoding.  Encodings are applied to query and key
rows only (never values), either on the whole row with a scalar position
or axially, with each half of the row encoded by one coordinate of a 2-D
position.  Every encoding here is a linear map of the row, which is what
lets ``grad_check`` compare an analytic input gradient against central
finite differences.

Each ``attend`` call writes two t x t arrays: the logits, with the
1/sqrt(d) scale folded into the (t, n) query side, and the scores, built
from them by one subtraction into a new array followed by an in-place
exponential and row normalisation.  ``grad_check`` differences the loss
row by row: bumping Q[i, j] moves only row i of the scores, so it scores
every bumped query row against the unbumped keys in one softmax call
instead of running a whole ``attend`` per bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .multiplex import MultiplexBank, mproll
from .roll_core import _as_count, _as_steps, _check_wavelength, _score_scale, roll_discrete
from .rope import classic_schedule, rope_apply
from .spectral import SpectralBranch, roll_continuous

__all__ = [
    "PEKind",
    "PEConfig",
    "AttentionBatch",
    "AttentionOutput",
    "attend",
    "sinusoidal_ape",
    "grad_check",
]


class PEKind(str, Enum):
    NONE = "none"
    SINUSOIDAL_APE = "sinusoidal-ape"
    ROLL_DISCRETE = "roll-discrete"
    ROLL_CONTINUOUS = "roll-continuous"
    ROPE = "rope"
    MULTIPLEXED_ROLL = "multiplexed-roll"


@dataclass(frozen=True)
class PEConfig:
    """Which positional encoding to apply, plus its parameters.

    ``axial`` splits the head dimension in half and encodes each half
    with one coordinate of a 2-D position.  ``kind`` and ``branch`` may be
    given as members or as their string values; ``lam`` must be finite and
    positive and ``waves`` a positive integer, whatever the kind.  The RAW
    branch keeps each vector's mean and damps the rest by |cos(pi*p/lam)|,
    so at half-integer p/lam a RAW-encoded row is only its mean.
    """

    kind: PEKind = PEKind.NONE
    lam: float = 1.0
    branch: SpectralBranch = SpectralBranch.CENTERED
    waves: int = 1
    axial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", PEKind(self.kind))
        object.__setattr__(self, "branch", SpectralBranch(self.branch))
        object.__setattr__(self, "waves", _as_count(self.waves, "waves"))
        _check_wavelength(self.lam)


# float64 represents every integer of smaller magnitude exactly
_POSITION_LIMIT = 2.0**53


@dataclass(frozen=True)
class AttentionBatch:
    """Q/K/V row matrices (t tokens by head dim n) with per-token positions.

    ``positions`` has shape (t,) for scalar positions or (t, 2) for axial
    encodings.  Every entry must be finite, and every position below 2**53
    in magnitude, so that integer positions are stored exactly.  Neither
    t nor n may be 0.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        # copy so the batch owns (immutable) data, never the caller's arrays
        q = np.array(self.q, dtype=float)
        k = np.array(self.k, dtype=float)
        v = np.array(self.v, dtype=float)
        pos = np.array(self.positions, dtype=float)
        if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
            raise ValueError("Q, K, V must be 2-D matrices of one shared shape")
        _as_count(q.shape[0], "t (tokens)")
        _as_count(q.shape[1], "n (head dimension)")
        if pos.shape[0] != q.shape[0] or pos.ndim not in (1, 2):
            raise ValueError("positions must have one row per token")
        if pos.ndim == 2 and pos.shape[1] != 2:
            raise ValueError("axial positions must be (t, 2)")
        for name, arr in (("q", q), ("k", k), ("v", v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite values")
        # NaN and inf fail this bound too; below it every integer is exact
        if not (np.abs(pos) < _POSITION_LIMIT).all():
            raise ValueError("positions must be finite and below 2**53 in magnitude")
        for name, arr in (("q", q), ("k", k), ("v", v), ("positions", pos)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def tokens(self) -> int:
        return self.q.shape[0]

    @property
    def dim(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class AttentionOutput:
    output: np.ndarray   # t x n aggregated values
    scores: np.ndarray   # t x t post-softmax attention weights
    logits: np.ndarray   # t x t pre-softmax scores


@lru_cache(maxsize=32)
def _multiplex_projections(n: int, waves: int) -> tuple:
    """Fixed deterministic component maps for the multiplexed encoding.

    The speed-1 map is the identity so a single wave reduces exactly to
    the discrete roll; higher speeds use seeded dense maps.
    """
    rng = np.random.default_rng([n, waves, 0x5157])
    mats = [np.eye(n)]
    for _ in range(waves - 1):
        mats.append(rng.standard_normal((n, n)) / math.sqrt(n))
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def _encode_1d(
    v: np.ndarray, p: float, pe: PEConfig, transpose: bool = False
) -> np.ndarray:
    """Encode one (sub-)row at position ``p``, or apply that map's transpose.

    Every encoding is affine in ``v``; ``transpose=True`` applies the
    transpose of its linear part, which is what a gradient needs.  Rolls
    and rotations transpose to the same map at -p (the Nyquist cos factor
    is symmetric); the absolute embedding is an offset, so its linear part
    is the identity.  Sub-vector lengths are checked by ``_check_batch``.
    """
    kind = pe.kind
    if kind is PEKind.NONE:
        return v
    if kind is PEKind.SINUSOIDAL_APE:
        if transpose:
            return v
        return v + sinusoidal_ape([_as_steps(p, "position")], v.size)[0]
    if kind is PEKind.ROLL_CONTINUOUS:
        return roll_continuous(v, -p if transpose else p, pe.lam, pe.branch)
    if kind is PEKind.ROPE:
        return rope_apply(v, -p if transpose else p, classic_schedule(v.size))
    p_int = _as_steps(p, "position")
    if kind is PEKind.ROLL_DISCRETE:
        return roll_discrete(v, -p_int if transpose else p_int)
    if kind is PEKind.MULTIPLEXED_ROLL:
        mats = _multiplex_projections(v.size, pe.waves)
        if transpose:
            return sum(
                m.T @ roll_discrete(v, -w * p_int) for w, m in enumerate(mats, start=1)
            )
        return mproll(MultiplexBank([m @ v for m in mats]), p_int)
    raise ValueError(f"unknown encoding kind {kind!r}")


def _encode_row(
    v: np.ndarray, pos, pe: PEConfig, axial: bool, transpose: bool = False
) -> np.ndarray:
    """Encode a row at a scalar position, or axially at a 2-D one.

    Axially, the first half of ``v`` is encoded with pos[0] and the
    second with pos[1].  ``transpose`` is passed on to ``_encode_1d``.
    """
    if not axial:
        return _encode_1d(v, float(pos), pe, transpose)
    half = v.size // 2
    return np.concatenate(
        [
            _encode_1d(v[:half], float(pos[0]), pe, transpose),
            _encode_1d(v[half:], float(pos[1]), pe, transpose),
        ]
    )


def _check_batch(batch: AttentionBatch, pe: PEConfig) -> None:
    n = batch.dim
    if pe.axial:
        if batch.positions.ndim != 2:
            raise ValueError("axial encoding requires (t, 2) positions")
        if n % 2 != 0:
            raise ValueError("axial encoding requires an even head dimension")
        n //= 2
    elif batch.positions.ndim != 1:
        raise ValueError("scalar encoding requires (t,) positions")
    if pe.kind in (PEKind.ROPE, PEKind.SINUSOIDAL_APE) and n % 2 != 0:
        raise ValueError(f"{pe.kind.value} requires an even sub-vector length, got {n}")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row softmax of ``z`` in one new array; ``z`` is left as it is.

    Raises ``FloatingPointError`` if a row maximum is not finite: the
    logits overflowed or hold NaN, and the softmax would be NaN.
    """
    peak = z.max(axis=1, keepdims=True)
    if not np.isfinite(peak).all():
        raise FloatingPointError("attention logits overflowed")
    e = np.subtract(z, peak)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _attention_weights(enc_q: np.ndarray, enc_k: np.ndarray, scale: float):
    """Logits enc_q enc_k^T / scale and their row softmax: two new arrays."""
    logits = (enc_q / scale) @ enc_k.T
    return logits, _softmax_rows(logits)


def _encode_rows(
    x: np.ndarray, positions: np.ndarray, pe: PEConfig, transpose: bool = False
) -> np.ndarray:
    """Encode row i of ``x`` at positions[i]; the identity returns ``x`` itself."""
    if pe.kind is PEKind.NONE:
        return x
    return np.stack(
        [_encode_row(row, pos, pe, pe.axial, transpose) for row, pos in zip(x, positions)]
    )


def attend(batch: AttentionBatch, pe: PEConfig, d: float | None = None) -> AttentionOutput:
    """softmax(enc(Q) enc(K)^T / sqrt(d)) V with the configured encoding.

    ``d`` defaults to the head dimension and must be finite and positive.
    Raises ``FloatingPointError`` if the logits overflow.
    """
    _check_batch(batch, pe)
    scale = _score_scale(batch.dim, batch.dim, d)
    enc_q = _encode_rows(batch.q, batch.positions, pe)
    enc_k = _encode_rows(batch.k, batch.positions, pe)
    logits, scores = _attention_weights(enc_q, enc_k, scale)
    return AttentionOutput(output=scores @ batch.v, scores=scores, logits=logits)


def sinusoidal_ape(positions, n: int) -> np.ndarray:
    """Fixed sin/cos absolute position table, one row per position.

    Row p holds sin(p * f_i) at even dims and cos(p * f_i) at odd dims,
    with f_i = 10000**(-2i/n).
    """
    n = _as_count(n)
    if n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1:
        raise ValueError("positions must be a 1-D vector")
    freqs = 10000.0 ** (-2.0 * np.arange(n // 2) / n)
    ang = positions[:, None] * freqs[None, :]
    table = np.empty((positions.size, n))
    table[:, 0::2] = np.sin(ang)
    table[:, 1::2] = np.cos(ang)
    return table


def grad_check(pe: PEConfig, batch: AttentionBatch, eps: float = 1e-5) -> float:
    """Max relative gap between analytic and finite-difference input gradients.

    The scalar loss is the sum of all attention outputs; the gradient is
    taken with respect to every entry of Q.  Central differences use the
    given step and are row-local: bumping Q[i, j] changes only row i of
    the scores, so each of the 2*t*n bumped query rows is encoded on its
    own and scored against the unbumped keys, all in one softmax call,
    and only row i's loss term is differenced.  The other rows' terms
    cancel exactly, so this is the whole-loss central difference without
    its cancellation error.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    _check_batch(batch, pe)
    analytic = _loss_grad_wrt_q(batch, pe)
    fd = _loss_grad_fd(batch, pe, eps)
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(fd))):
        raise FloatingPointError("non-finite values encountered in gradient check")
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / denom).max())


def _loss_grad_fd(batch: AttentionBatch, pe: PEConfig, eps: float) -> np.ndarray:
    """Row-local central differences of sum(attend(batch).output) in Q."""
    t, n = batch.q.shape
    steps = eps * np.eye(n)
    # bumped[i, 0, j] = Q[i] + eps e_j and bumped[i, 1, j] = Q[i] - eps e_j
    bumped = np.stack([batch.q[:, None] + steps, batch.q[:, None] - steps], axis=1)
    enc = _encode_rows(
        bumped.reshape(2 * t * n, n), np.repeat(batch.positions, 2 * n, axis=0), pe
    )
    enc_k = _encode_rows(batch.k, batch.positions, pe)
    _, scores = _attention_weights(enc, enc_k, _score_scale(n, n, None))
    # row i's loss term is scores[i] @ V summed over its columns
    terms = (scores @ batch.v.sum(axis=1)).reshape(t, 2, n)
    return (terms[:, 0] - terms[:, 1]) / (2.0 * eps)


def _loss_grad_wrt_q(batch: AttentionBatch, pe: PEConfig) -> np.ndarray:
    scale = _score_scale(batch.dim, batch.dim, None)
    enc_q = _encode_rows(batch.q, batch.positions, pe)
    enc_k = _encode_rows(batch.k, batch.positions, pe)
    _, scores = _attention_weights(enc_q, enc_k, scale)

    # loss = sum(scores @ V): d loss / d scores[i, j] = sum_m V[j, m]
    v_sum = batch.v.sum(axis=1)
    g_logits = scores * (v_sum - (scores @ v_sum)[:, None])
    g_enc_q = g_logits @ enc_k / scale
    return _encode_rows(g_enc_q, batch.positions, pe, transpose=True)
