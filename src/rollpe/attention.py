"""Scaled dot-product attention with pluggable positional encodings.

The layer owns no learned parameters: callers pass Q/K/V directly and a
``PEConfig`` naming the encoding.  Encodings are applied to query and key
rows only (never values), either on the whole row with a scalar position
or axially, with each half of the row encoded by one coordinate of a 2-D
position.  Every encoding here is an affine map of the row, which is what
lets ``grad_check`` compare an analytic input gradient against central
finite differences.  ``attend`` makes one kernel call per batch: Q and K
are encoded together as the (2, t, n) stack [Q, K], whose two row-sets
share the (t,) positions, so the kernel builds its position table once.
Axially the two halves of row i are rows 2i and 2i + 1 of the stack
reshaped to (2, 2t, n/2), at the flattened (t, 2) positions, so both
halves share that one call too.  The multiplexed roll is one ``mproll``
call on the (W, 2t, n) stack of the projected components of Q and K.

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

from .multiplex import mproll
from .roll_core import _as_count, _as_shifts, _check_wavelength, _score_scale, roll_discrete
from .rope import classic_schedule, rope_apply
from .spectral import SpectralBranch, _phases, roll_continuous

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
        if pos.ndim not in (1, 2) or pos.shape[0] != q.shape[0]:
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
def _multiplex_projections(n: int, waves: int) -> np.ndarray:
    """Fixed deterministic (W, n, n) component maps for the multiplexed encoding.

    The speed-1 map is the identity so a single wave reduces exactly to
    the discrete roll; higher speeds use seeded dense maps.  Read-only.
    """
    rng = np.random.default_rng([n, waves, 0x5157])
    mats = np.empty((waves, n, n))
    mats[0] = np.eye(n)
    mats[1:] = rng.standard_normal((waves - 1, n, n)) / math.sqrt(n)
    mats.setflags(write=False)
    return mats


def _check_batch(batch: AttentionBatch, pe: PEConfig) -> None:
    if pe.axial:
        if batch.positions.ndim != 2:
            raise ValueError("axial encoding requires (t, 2) positions")
        if batch.dim % 2 != 0:
            raise ValueError("axial encoding requires an even head dimension")
    elif batch.positions.ndim != 1:
        raise ValueError("scalar encoding requires (t,) positions")


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
    """Encode row i of ``x`` at positions[i], or apply that map's transpose.

    ``x`` is (t, n) rows or an (s, t, n) stack of row-sets that share the
    positions.  The identity returns ``x`` itself; axially each half of the
    rows is encoded at its own coordinate, in the same kernel call.
    """
    if pe.kind is PEKind.NONE:
        return x
    if not pe.axial:
        return _encode(x, positions, pe, transpose)
    *lead, t, n = x.shape
    halves = x.reshape(*lead, 2 * t, n // 2)
    return _encode(halves, positions.reshape(-1), pe, transpose).reshape(x.shape)


def _encode_qk(batch: AttentionBatch, pe: PEConfig) -> tuple[np.ndarray, np.ndarray]:
    """enc(Q) and enc(K), from one kernel call on the stack [Q, K]."""
    if pe.kind is PEKind.NONE:
        return batch.q, batch.k
    enc_q, enc_k = _encode_rows(np.stack([batch.q, batch.k]), batch.positions, pe)
    return enc_q, enc_k


def _encode(x: np.ndarray, p: np.ndarray, pe: PEConfig, transpose: bool) -> np.ndarray:
    """Row i of ``x`` (of each row-set of a stack) encoded at p[i], in one kernel call.

    ``transpose=True`` applies the transpose of the linear part, as a
    gradient needs: the identity for the absolute embedding, an offset;
    each roll and rope at -p; sum_w M_w^T S^(-w*p) for the multiplexed
    roll sum_w S^(w*p) M_w.
    """
    n = x.shape[-1]
    if pe.kind is PEKind.SINUSOIDAL_APE:
        return x if transpose else x + sinusoidal_ape(p, n)
    if transpose:
        p = -p
    if pe.kind is PEKind.ROLL_DISCRETE:
        return roll_discrete(x, p)
    if pe.kind is PEKind.ROLL_CONTINUOUS:
        return roll_continuous(x, p, pe.lam, pe.branch)
    if pe.kind is PEKind.ROPE:
        return rope_apply(x, p, classic_schedule(n))
    mats = _multiplex_projections(n, pe.waves)
    if not transpose:
        # the row-sets of a stack as one (rows, n) stack at tiled positions
        rows = x.reshape(-1, n)
        comps = rows @ mats.swapaxes(1, 2)
        return mproll(comps, np.tile(p, len(rows) // len(p))).reshape(x.shape)
    # reduced first, so that w * p stays an exact integer beyond 2**53 / w
    p = _as_shifts(x, p)
    return sum(roll_discrete(x, w * p) @ m for w, m in enumerate(mats, start=1))


def attend(batch: AttentionBatch, pe: PEConfig, d: float | None = None) -> AttentionOutput:
    """softmax(enc(Q) enc(K)^T / sqrt(d)) V with the configured encoding.

    ``d`` defaults to the head dimension and must be finite and positive.
    Raises ``FloatingPointError`` if the logits overflow.
    """
    _check_batch(batch, pe)
    scale = _score_scale(batch.dim, batch.dim, d)
    logits, scores = _attention_weights(*_encode_qk(batch, pe), scale)
    return AttentionOutput(output=scores @ batch.v, scores=scores, logits=logits)


def sinusoidal_ape(positions, n: int) -> np.ndarray:
    """Fixed sin/cos absolute position table, one row per position.

    Row p holds sin(p * f_i) at even dims and cos(p * f_i) at odd dims, the
    imaginary and real parts of rope's phases, f_i = 10000**(-2i/n) (``classic_schedule``).
    Any finite position is accepted; NaN or +-inf positions raise ``ValueError``.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1:
        raise ValueError("positions must be a 1-D vector")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    phases = _phases(positions, classic_schedule(n).omegas)
    table = np.empty((positions.size, 2 * phases.shape[1]))
    table[:, 0::2] = phases.imag
    table[:, 1::2] = phases.real
    return table


def grad_check(pe: PEConfig, batch: AttentionBatch, eps: float = 1e-5) -> float:
    """Max relative gap between analytic and finite-difference input gradients.

    The scalar loss is the sum of all attention outputs; the gradient is
    taken with respect to every entry of Q.  Central differences use the
    given step and are row-local: bumping Q[i, j] changes only row i of
    the scores, so the 2n bumped copies of Q are encoded with K as one
    (2n + 1, t, n) stack at the batch's positions, every bumped query row
    is scored against the unbumped keys in one softmax call, and only
    row i's loss term is differenced.  The other rows' terms
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
    steps = eps * np.eye(n)[:, None]
    # stack[j, i] = Q[i] + eps e_j, stack[n + j, i] = Q[i] - eps e_j, stack[2n] = K
    stack = np.concatenate([batch.q + steps, batch.q - steps, batch.k[None]])
    enc = _encode_rows(stack, batch.positions, pe)
    _, scores = _attention_weights(
        enc[:-1].reshape(2 * n * t, n), enc[-1], _score_scale(n, n, None)
    )
    # row i's loss term is scores[i] @ V summed over its columns
    terms = (scores @ batch.v.sum(axis=1)).reshape(2, n, t)
    return (terms[0] - terms[1]).T / (2.0 * eps)


def _loss_grad_wrt_q(batch: AttentionBatch, pe: PEConfig) -> np.ndarray:
    scale = _score_scale(batch.dim, batch.dim, None)
    enc_q, enc_k = _encode_qk(batch, pe)
    _, scores = _attention_weights(enc_q, enc_k, scale)

    # loss = sum(scores @ V): d loss / d scores[i, j] = sum_m V[j, m]
    v_sum = batch.v.sum(axis=1)
    g_logits = scores * (v_sum - (scores @ v_sum)[:, None])
    g_enc_q = g_logits @ enc_k / scale
    return _encode_rows(g_enc_q, batch.positions, pe, transpose=True)
