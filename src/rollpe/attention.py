"""Scaled dot-product attention with pluggable positional encodings.

The layer owns no learned parameters: callers pass Q/K/V directly and a
``PEConfig`` naming the encoding.  Encodings are applied to query and key
rows only (never values), either on the whole row with a scalar position
or axially, with each half of the row encoded by one coordinate of a 2-D
position.  Every encoding here is a linear map of the row, which is what
lets ``grad_check`` compare an analytic input gradient against central
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .multiplex import MultiplexBank, mproll
from .roll_core import roll_discrete
from .rope import classic_schedule, rope_apply
from .spectral import SpectralBranch, roll_continuous

__all__ = [
    "PEKind",
    "PEConfig",
    "AttentionBatch",
    "AttentionOutput",
    "attend",
    "sinusoidal_ape",
    "axial_encode",
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
    with one coordinate of a 2-D position.
    """

    kind: PEKind = PEKind.NONE
    lam: float = 1.0
    branch: SpectralBranch = SpectralBranch.CENTERED
    waves: int = 1
    axial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", PEKind(self.kind))
        if self.kind is PEKind.ROLL_CONTINUOUS and not self.lam > 0:
            raise ValueError("continuous roll requires lambda > 0")
        if self.waves < 1:
            raise ValueError("waves must be at least 1")


@dataclass(frozen=True)
class AttentionBatch:
    """Q/K/V row matrices (t tokens by head dim n) with per-token positions.

    ``positions`` has shape (t,) for scalar positions or (t, 2) for axial
    encodings.  Every entry must be finite.
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
        if pos.shape[0] != q.shape[0] or pos.ndim not in (1, 2):
            raise ValueError("positions must have one row per token")
        if pos.ndim == 2 and pos.shape[1] != 2:
            raise ValueError("axial positions must be (t, 2)")
        for name, arr in (("q", q), ("k", k), ("v", v), ("positions", pos)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite values")
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


def _require_integer(p: float, kind: PEKind) -> int:
    if not float(p).is_integer():
        raise ValueError(f"{kind.value} requires integer positions, got {p!r}")
    return int(p)


def _check_subdim(n: int, pe: PEConfig) -> None:
    if pe.kind in (PEKind.ROPE, PEKind.SINUSOIDAL_APE) and n % 2 != 0:
        raise ValueError(f"{pe.kind.value} requires an even sub-vector length, got {n}")


def _encode_1d(
    v: np.ndarray, p: float, pe: PEConfig, transpose: bool = False
) -> np.ndarray:
    """Encode one (sub-)row at position ``p``, or apply that map's transpose.

    Every encoding is affine in ``v``; ``transpose=True`` applies the
    transpose of its linear part, which is what a gradient needs.  Rolls
    and rotations transpose to the same map at -p (the Nyquist cos factor
    is symmetric); the absolute embedding is an offset, so its linear part
    is the identity.  Sub-vector lengths are checked by the callers.
    """
    kind = pe.kind
    if kind is PEKind.NONE:
        return v
    if kind is PEKind.SINUSOIDAL_APE:
        if transpose:
            return v
        return v + sinusoidal_ape([_require_integer(p, kind)], v.size)[0]
    if kind is PEKind.ROLL_CONTINUOUS:
        return roll_continuous(v, -p if transpose else p, pe.lam, pe.branch)
    if kind is PEKind.ROPE:
        return rope_apply(v, -p if transpose else p, classic_schedule(v.size))
    p_int = _require_integer(p, kind)
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


def axial_encode(v, pos, pe: PEConfig) -> np.ndarray:
    """Encode the first half of ``v`` with pos[0] and the second with pos[1]."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size % 2 != 0:
        raise ValueError("axial encoding requires an even-length 1-D vector")
    _check_subdim(v.size // 2, pe)
    return _encode_row(v, pos, pe, axial=True)


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
    _check_subdim(n, pe)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _encoded_qk(batch: AttentionBatch, pe: PEConfig):
    rows = range(batch.tokens)
    pos = batch.positions
    enc_q = np.stack([_encode_row(batch.q[i], pos[i], pe, pe.axial) for i in rows])
    enc_k = np.stack([_encode_row(batch.k[i], pos[i], pe, pe.axial) for i in rows])
    return enc_q, enc_k


def attend(batch: AttentionBatch, pe: PEConfig, d: float | None = None) -> AttentionOutput:
    """softmax(enc(Q) enc(K)^T / sqrt(d)) V with the configured encoding.

    ``d`` defaults to the head dimension.
    """
    _check_batch(batch, pe)
    if d is None:
        d = float(batch.dim)
    if not d > 0:
        raise ValueError("d must be positive")
    enc_q, enc_k = _encoded_qk(batch, pe)
    logits = enc_q @ enc_k.T / math.sqrt(d)
    scores = _softmax_rows(logits)
    return AttentionOutput(output=scores @ batch.v, scores=scores, logits=logits)


def sinusoidal_ape(positions, n: int) -> np.ndarray:
    """Fixed sin/cos absolute position table, one row per position.

    Row p holds sin(p * f_i) at even dims and cos(p * f_i) at odd dims,
    with f_i = 10000**(-2i/n).
    """
    if n < 2 or n % 2 != 0:
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
    given step.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    _check_batch(batch, pe)
    d = float(batch.dim)

    analytic = _loss_grad_wrt_q(batch, pe, d)

    fd = np.empty_like(analytic)
    base_q = np.array(batch.q)
    for i in range(batch.tokens):
        for j in range(batch.dim):
            for sign, slot in ((+1.0, 0), (-1.0, 1)):
                bumped = base_q.copy()
                bumped[i, j] += sign * eps
                shifted = AttentionBatch(bumped, batch.k, batch.v, batch.positions)
                val = float(attend(shifted, pe, d).output.sum())
                if slot == 0:
                    f_plus = val
                else:
                    fd[i, j] = (f_plus - val) / (2.0 * eps)

    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(fd))):
        raise FloatingPointError("non-finite values encountered in gradient check")
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / denom).max())


def _loss_grad_wrt_q(batch: AttentionBatch, pe: PEConfig, d: float) -> np.ndarray:
    enc_q, enc_k = _encoded_qk(batch, pe)
    scores = _softmax_rows(enc_q @ enc_k.T / math.sqrt(d))

    # loss = sum(scores @ V): d loss / d scores[i, j] = sum_m V[j, m]
    g_scores = np.broadcast_to(batch.v.sum(axis=1), scores.shape)
    dots = np.sum(scores * g_scores, axis=1, keepdims=True)
    g_logits = scores * (g_scores - dots)
    g_enc_q = g_logits @ enc_k / math.sqrt(d)

    return np.stack(
        [
            _encode_row(g_enc_q[i], batch.positions[i], pe, pe.axial, transpose=True)
            for i in range(batch.tokens)
        ]
    )
