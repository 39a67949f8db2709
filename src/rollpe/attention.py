"""Scaled dot-product attention with pluggable positional encodings.

The layer owns no learned parameters: callers pass Q/K/V directly and a
``PEConfig`` naming the encoding.  Encodings are applied to query and key
rows only (never values), either on the whole row with a scalar position
or axially, with each half of the row encoded by one coordinate of a 2-D
position.  Every encoding here is an affine map of the row, so
``grad_check`` reads the loss's derivative along a direction U off the
forward encoder, J_i U_i = enc(U)[i] - enc(0)[i]: one kernel call on
3k + 3 row-sets for k seeded directions, whatever n is.

A batch is (t, n) Q, K, V with (t,) positions, (t, 2) when axial, or B
row-sets: (B, t, n) arrays with (B, t) or (B, t, 2) positions.  The 2-D
batch is the B-less case of the same code, and row-set b of a batched
``attend`` matches ``attend`` on batch b to 1e-14 relative to its
largest value (a stacked matmul need not round as its 2-D slices do).

``attend`` makes one kernel call per batch, whatever B is: Q and K are
encoded together as the (2, B*t, n) stack [Q, K] at the flattened
(B*t,) positions, against one position table over those positions.
Axially the two halves of row i are rows 2i and 2i + 1 of the stack
reshaped to (2, 2B*t, n/2), at the flattened positions, so both halves
share that one call too.  Each kind is a position table (phases,
``sinusoidal_ape`` rows, flat roll indices or wave shifts) and a core
that applies it, both shared with the kind's public kernel, which
checks its input first; one lookup, ``_kind``, states them, with the
rest of what ``_encode`` reads of a kind.  ``attend`` and
``grad_check`` call the cores directly, on rows the batch has checked,
and take the tables from a small memo (``_table``): a table depends
only on the positions and the kind's parameters, so positions that
repeat, such as one grid, build it once.

The relative configs (per ``_kind``: rope, roll-discrete, one wave, and
roll-continuous centered at an odd length) encode each row-set at its
positions less its first, per coordinate, so their logits depend on
position differences alone: a common offset changes no bit of the
discrete rolls' and leaves rope's angles rounded to eps * |p - p0|, not
eps * |p|.  ``_from_origin`` builds those tables, keyed by the raw
positions, and fetches the table at the origin-relative ones from the
same memo, so row-sets a common offset apart share one build and a
repeat of the raw positions hits with no NumPy call.  The other configs
keep their tables at absolute positions.

Each ``attend`` call writes one (2, ..., t, t) block: the logits in its
first half, with the 1/sqrt(d) scale folded into the query side, and the
scores in its second, built from them by an exponential with no shift
by the row maximum, a row sum and a scaling by its reciprocal, all on
the last axis; only a row whose sum overflows or falls below 1 is
shifted (see ``_softmax_rows``).  Q and K are encoded straight from the
batch's one [Q, K, V] block, with no copy.  One allocation rather than
two lets glibc's malloc keep the memory from call to call: two 8 MiB
arrays at t = 1024 were handed back to the kernel after each call and
page-faulted in again by the next.

At small t a call's fixed cost is most of its time, so the two steps
every call pays are kept short: ``AttentionBatch`` checks and copies its
arguments in one pass, and ``_softmax_rows`` settles the common case,
every row unshifted, with one reduction over the row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .multiplex import _superpose, _wave_table
from .roll_core import (
    _as_count,
    _as_positions,
    _check_positive,
    _float_shifts,
    _raising,
    _reduced_steps,
    _roll_index,
    _roll_rows,
    _score_scale,
)
from .rope import _classic_table, _rotate_pairs, _sinusoid_table
from .spectral import SpectralBranch, _roll_spectra, _roll_table

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
    positive (it is stored as a float) and ``waves`` a positive integer,
    whatever the kind.  The RAW branch keeps each vector's mean and damps
    the rest by |cos(pi*p/lam)|, so at half-integer p/lam a RAW-encoded row
    is only its mean.
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
        object.__setattr__(self, "lam", float(self.lam))


# The members the per-call dispatch compares against, as module names: PEKind's
# metaclass defines __getattr__, so an attribute lookup on the class costs about
# 0.1 us, several times per call, where the fixed cost is most of an attend at t = 8.
_NONE, _APE, _DISCRETE, _CONTINUOUS, _ROPE, _MULTIPLEXED = PEKind
_CENTERED = SpectralBranch.CENTERED

# float64 represents every integer of smaller magnitude exactly
_POSITION_LIMIT = 2.0**53


@dataclass(frozen=True, init=False, eq=False)
class AttentionBatch:
    """Q/K/V row matrices (t tokens by head dim n) with per-token positions.

    ``positions`` has shape (t,) for scalar positions or (t, 2) for axial
    encodings.  B row-sets are (B, t, n) Q, K and V with (B, t) or
    (B, t, 2) positions, row-set b at positions[b]; the (t, n) batch is
    the B-less case, and row-set b attends as the (t, n) batch b would,
    to 1e-14 relative to its largest value.  Every entry must be finite,
    and every position below 2**53 in magnitude, so that integer
    positions are stored exactly.  None of B, t and n may be 0.  The batch
    copies Q, K and V into one read-only (3, ..., t, n) block, checked by
    one scan, and ``q``, ``k`` and ``v`` are its views.

    ``__init__`` checks its arguments and sets each field once, straight
    into the instance dict.  ``dataclasses.replace`` passes the four
    arguments back through it, so a replaced batch is checked as a new
    one is.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    positions: np.ndarray
    # the (3, ..., t, n) block [Q, K, V] that q, k and v are views of
    _qkv: np.ndarray = field(init=False, repr=False)

    def __init__(self, q, k, v, positions):
        q = np.asarray(q, dtype=float)
        k = np.asarray(k, dtype=float)
        v = np.asarray(v, dtype=float)
        pos = _as_positions(positions)  # a new array, which the batch then owns
        shape = q.shape
        if q.ndim not in (2, 3) or k.shape != shape or v.shape != shape:
            raise ValueError(
                "Q, K, V must be (t, n) matrices or (B, t, n) stacks of one shared shape"
            )
        if not all(shape):
            # one test for every axis; _as_count words the error for the first empty one
            if q.ndim == 3:
                _as_count(shape[0], "B (row-sets)")
            _as_count(shape[-2], "t (tokens)")
            _as_count(shape[-1], "n (head dimension)")
        rows = shape[:-1]  # (t,) or (B, t); axial positions add a trailing 2
        if pos.shape != rows:
            if pos.shape[:-1] != rows:
                raise ValueError("positions must have one row per token")
            if pos.shape[-1] != 2:
                raise ValueError("axial positions must be (t, 2) or (B, t, 2)")
        # one copy, so the batch owns (immutable) data, never the caller's arrays
        qkv = np.array((q, k, v))
        if not np.isfinite(qkv).all():
            name = next(name for name, part in zip("qkv", qkv) if not np.isfinite(part).all())
            raise ValueError(f"{name} holds non-finite values")
        # NaN fails this bound too, as does inf; below it every integer is exact
        if not np.abs(pos).max() < _POSITION_LIMIT:
            raise ValueError("positions must be finite and below 2**53 in magnitude")
        qkv.setflags(write=False)
        pos.setflags(write=False)
        # frozen: the fields go straight into the instance dict, each once
        self.__dict__.update(q=qkv[0], k=qkv[1], v=qkv[2], positions=pos, _qkv=qkv)

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


@dataclass(frozen=True, eq=False)
class AttentionOutput:
    """``attend``'s result.

    ``logits`` and ``scores`` are the two halves of one (2, ..., t, t)
    allocation, so keeping only one of them keeps both alive.  A row of
    ``scores`` is exp of its logits times the reciprocal of their sum,
    with no shift by the row maximum unless that sum overflowed or fell
    below 1, so scores are not bit-identical to a shifted softmax: they
    are the closer of the two to an exact softmax of the same logits.
    """

    output: np.ndarray   # (..., t, n) aggregated values
    scores: np.ndarray   # (..., t, t) post-softmax attention weights
    logits: np.ndarray   # (..., t, t) pre-softmax scores


@lru_cache(maxsize=32)
def _multiplex_projections(n: int, waves: int) -> np.ndarray:
    """Fixed deterministic (W - 1, n, n) component maps of speeds 2..W, read-only.

    The speed-1 map is the identity, so a single wave reduces exactly to
    the discrete roll; ``_multiplexed`` passes the rows for it.  Higher speeds
    use dense maps seeded by (n, W).
    """
    rng = np.random.default_rng([n, waves, 0x5157])
    mats = rng.standard_normal((waves - 1, n, n)) / math.sqrt(n)
    mats.setflags(write=False)
    return mats


def _discrete_table(pos: np.ndarray, n: int) -> np.ndarray:
    """The (t, n) flat roll index at the (t,) ``pos``; a fractional position raises ``ValueError``."""
    return _roll_index(_float_shifts(pos, n), n)


def _multiplex_table(pos: np.ndarray, n: int, waves: int) -> np.ndarray:
    """The (W, t) wave shifts at the (t,) ``pos``; a fractional position raises ``ValueError``."""
    return _wave_table(_float_shifts(pos, n), waves, n)


def _multiplexed(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The multiplexed roll's core: the (..., t, n) ``rows`` as W waves superposed by the (W, t)
    ``table``, unchecked.

    The speed-1 wave is the rows themselves; only the W - 1 seeded maps are multiplied.
    """
    waves = [rows]
    if len(table) > 1:
        n = rows.shape[-1]
        maps = _multiplex_projections(n, len(table)).swapaxes(1, 2)
        waves.extend(np.matmul(rows.reshape(-1, n), maps).reshape(len(maps), *rows.shape))
    return _superpose(waves, table)


# Position tables kept from call to call: a table depends on the positions
# and its kind's parameters only, never on Q or K.  An entry is kept only
# when its table and key bytes come to at most _TABLE_BYTES, and the memo
# is emptied when it holds _TABLES_KEPT entries, so it never holds more than
# 1 MiB of tables and keys (about 1.1 MiB with the Python objects around
# them); a relative config's table is kept under two keys, its raw and its
# origin-relative positions, and counts once per key.  Every table of attend
# at t = 16, n = 32, axial, is kept (the largest, roll-continuous, comes to
# 4.9 KiB); none at t = 1024, n = 64.
_TABLE_BYTES = 8 * 2**10
_TABLES_KEPT = 128
_tables: dict = {}


def _table(build, pos: np.ndarray, *params) -> np.ndarray:
    """``build(pos, *params)``, kept read-only and shared with later calls when small enough.

    The key is the builder, its parameters and the exact bytes of the
    float64 ``pos``: 0.0 and -0.0 compare and hash equal, but their tables
    can differ in the sign of a zero, so each gets its own.  A build that
    raises keeps nothing and raises again on the next call.
    """
    key = (build, *params, pos.tobytes())
    table = _tables.get(key)
    if table is None:
        table = build(pos, *params)
        if table.nbytes + pos.nbytes <= _TABLE_BYTES:
            table.setflags(write=False)
            if len(_tables) >= _TABLES_KEPT:
                _tables.clear()
            _tables[key] = table
    return table


def _from_origin(pos, size, coords, period, discrete, build, *params) -> np.ndarray:
    """``build``'s table at each row-set's positions less its first, per coordinate.

    ``pos`` holds row-sets of ``size`` positions of ``coords`` coordinates
    each, flattened.  A roll first reduces them by its ``period``: a
    ``discrete`` one with ``_reduced_steps`` at n, which also refuses a
    fractional position, the continuous one with ``np.fmod`` at
    lambda * n.  Both are exact, so an integer difference stays exact even
    where |p - p0| >= 2**53; rope, with no period, passes None.  The
    difference is rounded once, to within eps * |p - p0|.  The discrete
    rolls reduce the differences into [0, n) as well, exactly, so every
    integer offset, not only one a multiple of n, leaves the same key.
    The table comes from ``_table``, so row-sets that differ by a common
    offset share one build.
    """
    if period is not None:
        pos = _reduced_steps(pos, period) if discrete else np.fmod(pos, period)
    if pos.size == size:  # one row-set of scalar positions: one subtraction, no views
        rel = pos - pos[0]
    else:
        rows = pos.reshape(-1, size, coords)
        rel = (rows - rows[:, :1]).ravel()
    if discrete:
        rel %= period
    return _table(build, rel, *params)


def _check_batch(batch: AttentionBatch, pe: PEConfig) -> None:
    axial = batch.positions.ndim == batch.q.ndim
    if pe.axial:
        if not axial:
            raise ValueError("axial encoding requires (t, 2) or (B, t, 2) positions")
        if batch.dim % 2 != 0:
            raise ValueError("axial encoding requires an even head dimension")
    elif axial:
        raise ValueError("scalar encoding requires (t,) or (B, t) positions")


def _softmax_rows(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``z`` over its last axis, into ``out`` or one new array; ``z`` is left as it is.

    Each row is exp(z) times the reciprocal of its sum, with no shift,
    wherever that sum is finite and at least 1: then nothing overflowed,
    and a term that exp left subnormal stays below the smallest normal
    once scaled, so no score loses precision the shifted softmax would
    keep.  Only the other rows, whose exp overflowed or whose sum fell
    below 1, take the shifted softmax exp(z - max(z)).  The choice is made
    per row, so a row-set of a stack scores as its 2-D slice would.

    The common case, every row unshifted, is settled by one reduction,
    min(sum) >= 1, which a NaN sum fails too; under ``roll_core._raising``,
    as ``attend`` and ``grad_check`` run it, an exp or a row sum that
    overflows raises, and so does a +inf logit, whose row sum is inf and
    scales it by 0 to NaN.  Any other call goes whole to
    ``_softmax_rows_shifted``, which chooses row by row, so each row takes
    the same path, and gets the same bits, as under a per-row test alone.
    One reduction costs less than min and max tests over the row sums,
    which shows on small logits, where the fixed cost is most of a call.
    Raises ``FloatingPointError`` if a shifted row's maximum is not
    finite: the logits overflowed or hold NaN, and the softmax would be
    NaN.
    """
    try:
        e = np.exp(z, out)
        total = e.sum(axis=-1, keepdims=True)
        if total.min() >= 1.0:
            e *= np.reciprocal(total, out=total)
            return e
    except FloatingPointError:
        pass  # outside the handler, so a shifted row's own error is not chained to this one
    return _softmax_rows_shifted(z, out)


@np.errstate(over="ignore")
def _softmax_rows_shifted(z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``_softmax_rows``, choosing per row: shifted where the unshifted sum is inf, NaN or below 1.

    The one exception to ``roll_core._raising``: overflow raises nothing
    here, since an overflowed exp fails the row-sum test, and a z - max(z)
    that overflows to -inf gives the 0 the score rounds to anyway.
    """
    e = np.exp(z, out)
    total = e.sum(axis=-1, keepdims=True)
    # a NaN sum propagates through min and fails the test
    if not (total.min() >= 1.0 and total.max() < np.inf):
        redo = ~((total >= 1.0) & (total < np.inf))[..., 0]
        rows = z[redo]
        peak = rows.max(axis=-1, keepdims=True)
        if not np.isfinite(peak).all():
            raise FloatingPointError("attention logits overflowed")
        shifted = np.exp(rows - peak)
        e[redo] = shifted
        total[redo] = shifted.sum(axis=-1, keepdims=True)
    e *= np.reciprocal(total, out=total)
    return e


def _attention_weights(enc_q: np.ndarray, enc_k: np.ndarray, scale: float):
    """Logits enc_q enc_k^T / scale and their row softmax: one new (2, ..., t, t) block's halves."""
    # enc_k's leading axes broadcast against enc_q's, which the block keeps
    block = np.empty((2, *enc_q.shape[:-1], enc_k.shape[-2]))
    logits = np.matmul(enc_q / scale, enc_k.swapaxes(-1, -2), block[0])
    return logits, _softmax_rows(logits, block[1])


def _kind(pe: PEConfig, n: int) -> tuple | None:
    """What ``_encode`` needs of an encoding config ``pe`` at (sub-)length ``n``, each fact once.

    Returns (core, build, params, period, discrete, relative): the core
    that applies a table to the rows; the table's builder and its
    parameters; the roll's period (None for rope and the sinusoidal APE);
    whether that roll is discrete, so that ``_from_origin`` reduces by it
    exactly and wraps into [0, n); and whether the config is relative, its
    logits depending on positions only through their differences: rope,
    roll-discrete, the multiplexed roll with one wave, and roll-continuous
    on the centered branch at an odd length.  ``none``, which encodes no
    position, has none of these: it gives None.
    """
    kind = pe.kind
    if kind is _APE:
        return np.add, _sinusoid_table, (n,), None, False, False
    if kind is _DISCRETE:
        return _roll_rows, _discrete_table, (n,), n, True, True
    if kind is _CONTINUOUS:
        relative = pe.branch is _CENTERED and n % 2 == 1
        return _roll_spectra, _roll_table, (n, pe.lam, pe.branch), pe.lam * n, False, relative
    if kind is _ROPE:
        return _rotate_pairs, _classic_table, (n,), None, False, True
    if kind is _MULTIPLEXED:
        return _multiplexed, _multiplex_table, (n, pe.waves), n, True, pe.waves == 1
    return None


def _encode(x: np.ndarray, positions: np.ndarray, pe: PEConfig) -> np.ndarray:
    """Each row of ``x`` (of each row-set of a stack) encoded at its position, in one core call.

    ``positions`` is (t,) or (B, t), or with a trailing 2 when axial, and
    ``x`` is (..., t, n) or (..., B, t, n): its rows match the positions
    and any axes before them stack row-sets that share them.  The rows
    are read as (s, B*t, n) at the flattened positions, or as (s, 2B*t,
    n/2) half-rows when axial, so each half is encoded at its own
    coordinate.  The kind's table over those positions comes from
    ``_table``, at origin-relative positions for a relative config
    (``_kind``), and its core takes the rows unchecked: the batch has
    checked them.  The identity returns ``x`` itself.
    """
    if pe.kind is _NONE:
        return x
    n = x.shape[-1] // 2 if pe.axial else x.shape[-1]
    core, build, params, period, discrete, relative = _kind(pe, n)
    p = positions.reshape(-1)
    if relative:
        # the row-set length and the coordinates per position key the split into row-sets;
        # the raw positions key the table, so a repeat of them hits with no NumPy call
        size = positions.shape[-2] if pe.axial else positions.shape[-1]
        table = _table(_from_origin, p, size, 1 + pe.axial, period, discrete, build, *params)
    else:
        table = _table(build, p, *params)
    return core(x.reshape(-1, positions.size, n), table).reshape(x.shape)


@_raising()
def attend(batch: AttentionBatch, pe: PEConfig, d: float | None = None) -> AttentionOutput:
    """softmax(enc(Q) enc(K)^T / sqrt(d)) V with the configured encoding.

    A batch of B row-sets gives (B, t, n) outputs and (B, t, t) scores
    and logits, row-set b at its own positions, from the same one kernel
    call.  ``d`` defaults to the head dimension and must be finite and positive.
    Finite inputs whose encodings, logits or outputs overflow raise
    ``FloatingPointError`` where they overflow, for every kind.
    """
    _check_batch(batch, pe)
    scale = _score_scale(batch.dim, d)
    if pe.kind is _NONE:  # skipping the call and the unpacking shows at t = 8
        enc_q, enc_k = batch.q, batch.k
    else:
        enc_q, enc_k = _encode(batch._qkv[:2], batch.positions, pe)
    logits, scores = _attention_weights(enc_q, enc_k, scale)
    return AttentionOutput(scores @ batch.v, scores, logits)


@_raising()
def sinusoidal_ape(positions, n: int) -> np.ndarray:
    """Fixed sin/cos absolute position table, one row per position.

    Row p holds sin(p * f_i) at even dims and cos(p * f_i) at odd dims, the
    imaginary and real parts of rope's phases, f_i = 10000**(-2i/n) (``classic_schedule``).
    Any finite position is accepted; NaN or +-inf positions raise ``ValueError``.
    """
    positions = _as_positions(positions)
    if positions.ndim != 1 or not np.isfinite(positions).all():
        raise ValueError("positions must be a 1-D vector of finite values")
    return _sinusoid_table(positions, n)


# how many seeded directions grad_check differentiates along, and their seed
_DIRECTIONS, _DIRECTION_SEED = 4, 0x6772


@lru_cache(maxsize=32)
def _directions(t: int, n: int) -> np.ndarray:
    """Fixed deterministic (k, t, n) directions of unit Frobenius norm, read-only."""
    u = np.random.default_rng([t, n, _DIRECTION_SEED]).standard_normal((_DIRECTIONS, t, n))
    u /= np.linalg.norm(u, axis=(1, 2), keepdims=True)
    u.setflags(write=False)
    return u


@_raising()
def grad_check(pe: PEConfig, batch: AttentionBatch, eps: float = 1e-5) -> float:
    """Max relative gap between analytic and finite-difference directional derivatives.

    The loss, the sum of all attention outputs, is differentiated in Q
    along k seeded (t, n) directions U of unit norm, forward-mode (read
    off the encoded U) and by central differences at Q +- eps U: ``eps``,
    a real number in [1e-7, 1e-3], is the step along U.  A batch's gap is
    the largest of its row-sets'.  As in ``attend``, finite inputs whose
    derivatives overflow raise ``FloatingPointError``.
    """
    _check_positive(eps, "eps")
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    _check_batch(batch, pe)
    analytic, fd = _loss_grads(batch, pe, eps)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / denom).max())


def _loss_grads(batch: AttentionBatch, pe: PEConfig, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """<dL/dQ, U> of L = sum(attend(batch).output) per direction U, analytic and differenced.

    Both are (k,), or (k, B) for B row-sets, each with its own L.
    """
    scale = _score_scale(batch.dim, None)
    u = _directions(*batch.q.shape[-2:])
    k = len(u)
    if batch.q.ndim == 3:
        u = u[:, None]  # every row-set takes the same directions
    # the 3k + 3 entries U_1..U_k, 0, Q + eps U_1..k, Q - eps U_1..k, Q and K
    stack = np.concatenate([
        np.broadcast_to(u, (k, *batch.q.shape)), np.zeros((1, *batch.q.shape)),
        batch.q + eps * u, batch.q - eps * u, batch.q[None], batch.k[None],
    ])
    # one memory order whatever layout the core returns, so the reductions below round alike
    enc = np.ascontiguousarray(_encode(stack, batch.positions, pe))
    enc_k = enc[-1]
    _, scores = _attention_weights(enc[k + 1:-1], enc_k, scale)

    # loss = sum(scores @ V): d loss / d scores[i, j] = sum_m V[j, m], and
    # row i's loss term is scores[i] @ v_sum
    v_sum = batch.v.sum(axis=-1)
    terms = (scores @ v_sum[..., None])[..., 0]
    # differenced row by row, then summed: the sum's rounding does not enter the difference
    fd = (terms[:k] - terms[k:-1]).sum(axis=-1) / (2.0 * eps)

    g_logits = scores[-1] * (v_sum[..., None, :] - terms[-1][..., None])
    g_enc_q = g_logits @ enc_k / scale
    # row i's map is affine, enc_i(x) = J_i x + c_i, so J_i U_i = enc(U)[i] - enc(0)[i]
    analytic = (g_enc_q * (enc[:k] - enc[k])).sum(axis=(-2, -1))
    return analytic, fd
