"""Scaled dot-product attention with pluggable positional encodings.

The layer owns no learned parameters: callers pass Q/K/V directly and a
``PEConfig`` naming the encoding.  Encodings are applied to query and key
rows only (never values), either on the whole row with a scalar position
or axially, with each half of the row encoded by one coordinate of a 2-D
position.  Every encoding here is an affine map of the row, which is what
lets ``grad_check`` compare an analytic input gradient against central
finite differences.  The analytic gradient reads each row's linear map
off the forward encoder: one call on the (n + 1, t, n) stack holding e_j
in row-set j and zeros in the last gives J_i e_j = enc[j, i] - enc[n, i],
so no transposed encoder is written out.

A batch is (t, n) Q, K, V with (t,) positions, (t, 2) when axial, or B
row-sets: (B, t, n) arrays with (B, t) or (B, t, 2) positions.  The 2-D
batch is the B-less case of the same code, and row-set b of a batched
``attend`` matches ``attend`` on batch b to 1e-14 relative to its
largest value (a stacked matmul need not round as its 2-D slices do).

``attend`` makes one kernel call per batch, whatever B is: Q and K are
encoded together as the (2, B*t, n) stack [Q, K] at the flattened
(B*t,) positions, so the kernel builds its position table once.
Axially the two halves of row i are rows 2i and 2i + 1 of the stack
reshaped to (2, 2B*t, n/2), at the flattened positions, so both halves
share that one call too.  The multiplexed roll is one ``mproll`` call
on the (W, 2B*t, n) stack of the projected components of Q and K.

Each ``attend`` call writes two (..., t, t) arrays: the logits, with the
1/sqrt(d) scale folded into the query side, and the scores, built from
them by one subtraction into a new array followed by an in-place
exponential and row normalisation, all on the last axis.  ``grad_check``
takes 2-D batches only and differences the loss row by row: bumping
Q[i, j] moves only row i of the scores, so it scores every bumped query
row against the unbumped keys in one softmax call instead of running a
whole ``attend`` per bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .multiplex import mproll
from .roll_core import _as_count, _check_positive, _score_scale, roll_discrete
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
        _check_positive(self.lam, "lambda")


# float64 represents every integer of smaller magnitude exactly
_POSITION_LIMIT = 2.0**53


@dataclass(frozen=True)
class AttentionBatch:
    """Q/K/V row matrices (t tokens by head dim n) with per-token positions.

    ``positions`` has shape (t,) for scalar positions or (t, 2) for axial
    encodings.  B row-sets are (B, t, n) Q, K and V with (B, t) or
    (B, t, 2) positions, row-set b at positions[b]; the (t, n) batch is
    the B-less case, and row-set b attends as the (t, n) batch b would,
    to 1e-14 relative to its largest value.  Every entry must be finite,
    and every position below 2**53 in magnitude, so that integer
    positions are stored exactly.  None of B, t and n may be 0.
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
        if q.ndim not in (2, 3) or q.shape != k.shape or q.shape != v.shape:
            raise ValueError(
                "Q, K, V must be (t, n) matrices or (B, t, n) stacks of one shared shape"
            )
        if q.ndim == 3:
            _as_count(q.shape[0], "B (row-sets)")
        _as_count(q.shape[-2], "t (tokens)")
        _as_count(q.shape[-1], "n (head dimension)")
        rows = q.shape[:-1]  # (t,) or (B, t); axial positions add a trailing 2
        if pos.shape != rows:
            if pos.shape[:-1] != rows:
                raise ValueError("positions must have one row per token")
            if pos.shape[-1] != 2:
                raise ValueError("axial positions must be (t, 2) or (B, t, 2)")
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
        return self.q.shape[-2]

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


@dataclass(frozen=True)
class AttentionOutput:
    output: np.ndarray   # (..., t, n) aggregated values
    scores: np.ndarray   # (..., t, t) post-softmax attention weights
    logits: np.ndarray   # (..., t, t) pre-softmax scores


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
    axial = batch.positions.ndim == batch.q.ndim
    if pe.axial:
        if not axial:
            raise ValueError("axial encoding requires (t, 2) or (B, t, 2) positions")
        if batch.dim % 2 != 0:
            raise ValueError("axial encoding requires an even head dimension")
    elif axial:
        raise ValueError("scalar encoding requires (t,) or (B, t) positions")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of ``z`` over its last axis, in one new array; ``z`` is left as it is.

    Raises ``FloatingPointError`` if a row maximum is not finite: the
    logits overflowed or hold NaN, and the softmax would be NaN.
    """
    peak = z.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise FloatingPointError("attention logits overflowed")
    e = np.subtract(z, peak)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _attention_weights(enc_q: np.ndarray, enc_k: np.ndarray, scale: float):
    """Logits enc_q enc_k^T / scale and their row softmax: two new (..., t, t) arrays."""
    logits = (enc_q / scale) @ enc_k.swapaxes(-1, -2)
    return logits, _softmax_rows(logits)


def _encode_qk(batch: AttentionBatch, pe: PEConfig) -> tuple[np.ndarray, np.ndarray]:
    """enc(Q) and enc(K), from one kernel call on the stack [Q, K]."""
    if pe.kind is PEKind.NONE:
        return batch.q, batch.k
    enc_q, enc_k = _encode(np.stack([batch.q, batch.k]), batch.positions, pe)
    return enc_q, enc_k


def _encode(x: np.ndarray, positions: np.ndarray, pe: PEConfig) -> np.ndarray:
    """Each row of ``x`` (of each row-set of a stack) encoded at its position, in one kernel call.

    ``positions`` is (t,) or (B, t), or with a trailing 2 when axial, and
    ``x`` is (..., t, n) or (..., B, t, n): its rows match the positions
    and any axes before them stack row-sets that share them.  The rows
    are read as (s, B*t, n) at the flattened positions, or as (s, 2B*t,
    n/2) half-rows when axial, so each half is encoded at its own
    coordinate.  The identity returns ``x`` itself.
    """
    if pe.kind is PEKind.NONE:
        return x
    n = x.shape[-1] // 2 if pe.axial else x.shape[-1]
    p = positions.reshape(-1)
    rows = x.reshape(-1, p.size, n)
    if pe.kind is PEKind.SINUSOIDAL_APE:
        enc = rows + sinusoidal_ape(p, n)
    elif pe.kind is PEKind.ROLL_DISCRETE:
        enc = roll_discrete(rows, p)
    elif pe.kind is PEKind.ROLL_CONTINUOUS:
        enc = roll_continuous(rows, p, pe.lam, pe.branch)
    elif pe.kind is PEKind.ROPE:
        enc = rope_apply(rows, p, classic_schedule(n))
    else:
        # the row-sets of a stack as one (rows, n) stack at tiled positions
        flat = rows.reshape(-1, n)
        comps = flat @ _multiplex_projections(n, pe.waves).swapaxes(1, 2)
        enc = mproll(comps, np.tile(p, len(rows)))
    return enc.reshape(x.shape)


def attend(batch: AttentionBatch, pe: PEConfig, d: float | None = None) -> AttentionOutput:
    """softmax(enc(Q) enc(K)^T / sqrt(d)) V with the configured encoding.

    A batch of B row-sets gives (B, t, n) outputs and (B, t, t) scores
    and logits, row-set b at its own positions, from the same one kernel
    call.  ``d`` defaults to the head dimension and must be finite and positive.
    Raises ``FloatingPointError`` if the logits overflow.
    """
    _check_batch(batch, pe)
    scale = _score_scale(batch.dim, d)
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
    its cancellation error.  A batch of B row-sets raises ``ValueError``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    if batch.q.ndim != 2:
        raise ValueError(f"grad_check takes a (t, n) batch, got Q of shape {batch.q.shape}")
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
    enc = _encode(stack, batch.positions, pe)
    _, scores = _attention_weights(
        enc[:-1].reshape(2 * n * t, n), enc[-1], _score_scale(n, None)
    )
    # row i's loss term is scores[i] @ V summed over its columns
    terms = (scores @ batch.v.sum(axis=1)).reshape(2, n, t)
    return (terms[0] - terms[1]).T / (2.0 * eps)


def _loss_grad_wrt_q(batch: AttentionBatch, pe: PEConfig) -> np.ndarray:
    scale = _score_scale(batch.dim, None)
    enc_q, enc_k = _encode_qk(batch, pe)
    _, scores = _attention_weights(enc_q, enc_k, scale)

    # loss = sum(scores @ V): d loss / d scores[i, j] = sum_m V[j, m]
    v_sum = batch.v.sum(axis=1)
    g_logits = scores * (v_sum - (scores @ v_sum)[:, None])
    g_enc_q = g_logits @ enc_k / scale

    # row i's map is affine, enc_i(x) = J_i x + c_i: encoding the basis stack
    # [e_0, ..., e_(n-1), 0] gives column j of J_i as enc[j, i] - enc[n, i]
    t, n = batch.q.shape
    basis = np.zeros((n + 1, t, n))
    basis[:n] = np.eye(n)[:, None]
    enc = _encode(basis, batch.positions, pe)
    jac = enc[:n] - enc[n]
    # d loss / d Q[i] = J_i^T g_enc_q[i], whose entry j is (J_i e_j) . g_enc_q[i]
    return (jac.swapaxes(0, 1) @ g_enc_q[:, :, None])[..., 0]
