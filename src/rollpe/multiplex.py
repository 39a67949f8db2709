"""Multiplexed rolls: superpositions of components traveling at speeds w*p.

A bank of W component vectors, one (W, n) array, is rolled at speeds
1*p, 2*p, ..., W*p and summed; a (W, t, n) stack is t banks rolled at
once.  With a single component this reduces exactly to the plain roll;
with two or more the cross-speed terms make scores depend on absolute
position, so translation invariance breaks (generically), which
``equivariance_violation_witness`` demonstrates by seeded search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .roll_core import (
    _as_count,
    _as_pair,
    _as_shifts,
    _blocks,
    _check_finite,
    _check_positive,
    _raising,
    _roll_rows,
    _score_scale,
)

__all__ = [
    "EquivarianceWitness",
    "mproll",
    "mproll_score",
    "equivariance_violation_witness",
]


@_raising()
def mproll(components, p) -> np.ndarray:
    """Sum of components[w-1] rolled by w*p, w = 1..W.

    ``components`` is a (W, t, n) stack with (t,) integer positions, row i
    of every component rolled by w*p[i]; a (W, n) bank with an integer
    ``p`` is the one-row stack.  ``p`` is checked as ``roll_discrete``
    checks it, once, then reduced mod n, so w*p stays an exact integer at
    any magnitude.  All W*t rows roll in the one gather ``roll_discrete``
    uses and the waves are summed in order 1..W.  Any other shape raises
    ``ValueError``.  A NaN or +-inf component, and finite components whose
    sum overflows, raise ``FloatingPointError``.
    """
    comps = np.asarray(components, dtype=float)
    if comps.ndim not in (2, 3) or comps.size == 0:
        raise ValueError("components must be a non-empty (W, n) bank or (W, t, n) stack")
    _check_finite(comps, "components")
    return _superpose(comps, _wave_table(_as_shifts(comps[0], p), len(comps), comps.shape[-1]))


def _wave_table(steps, waves: int, n: int) -> np.ndarray:
    """The (W, t) shifts w * steps mod n of waves w = 1..W, from (t,) steps reduced mod n.

    w * (p mod n) is reduced again, so the gather takes it unchecked.
    """
    return np.arange(1, waves + 1)[:, None] * steps % n


def _superpose(comps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Sum over w of comps[w] rolled row by row by the (W, t) ``table[w]``, unchecked.

    ``comps`` is (W, ..., n) with its rows in row-sets of t, each row-set
    at the table's t positions.  All rows roll in one gather and the
    waves are summed in order 1..W.
    """
    n = comps.shape[-1]
    rows = comps.reshape(-1, n)
    reps = len(rows) // table.size
    # row i of every row-set of wave w takes table[w, i]
    shifts = table if reps == 1 else table[:, None].repeat(reps, axis=1)
    return _roll_rows(rows, shifts.reshape(-1)).reshape(comps.shape).sum(axis=0)


@_raising()
def mproll_score(bank_q, bank_k, p_q, p_k, d: float | None = None) -> float | np.ndarray:
    """Scaled dot product of the multiplexed encodings of query and key.

    Two (W, n) banks with integer positions give a float; two (W, T, n)
    stacks with (T,) positions give (T,) scores, each bit for bit its bank call.
    A NaN or +-inf entry, and sums or products that overflow, raise
    ``FloatingPointError``.
    """
    enc_q, enc_k = _as_pair(mproll(bank_q, p_q), mproll(bank_k, p_k))
    scores = (enc_q * enc_k).sum(axis=-1) / _score_scale(enc_q.shape[-1], d)
    return float(scores) if enc_q.ndim == 1 else scores


# the smallest score gap that counts as a witness: the search's default and the CLI's threshold
_WITNESS_GAP = 1e-3


@dataclass(frozen=True, eq=False)
class EquivarianceWitness:
    """Outcome of the translation-invariance violation search.

    ``found`` is False when the budget was exhausted without a violating
    configuration (inconclusive, e.g. always for W = 1); the remaining
    fields then describe the first attempt with the largest gap.
    """

    found: bool
    attempts: int
    gap: float
    bank_q: np.ndarray | None = None   # the (W, n) query bank
    bank_k: np.ndarray | None = None   # the (W, n) key bank
    p_q: int = 0
    p_k: int = 0
    t: int = 0
    score_before: float = 0.0
    score_after: float = 0.0


def equivariance_violation_witness(
    n: int,
    waves: int,
    seed: int,
    budget: int = 10_000,
    gap_threshold: float = _WITNESS_GAP,
) -> EquivarianceWitness:
    """Search seeded random banks/offsets for a score that moves under a common shift.

    Draws banks and positions from a deterministic generator until
    |score(p_q + t, p_k + t) - score(p_q, p_k)| exceeds ``gap_threshold``.
    Attempts run in the blocks the CLI's sweeps use (``roll_core._blocks``):
    as many as fit 64 KiB of draws, at most 32.  A block draws its banks,
    positions and shifts in one generator call each, always at its full
    size, and runs only the attempts the budget has left, so an attempt's
    inputs never depend on the budget.  Each block is scored with two
    stacked ``mproll_score`` calls.  The result is the first attempt over
    the threshold, else the first with the largest gap.  A single-wave
    bank never produces a witness; the search then exhausts its budget.
    ``gap_threshold`` must be finite and positive, ``seed`` an integer of
    at least 0.
    """
    _check_positive(gap_threshold, "gap_threshold")
    n = _as_count(n, least=3)
    waves = _as_count(waves, "waves")
    budget = _as_count(budget, "budget")
    rng = np.random.default_rng(_as_count(seed, "seed", least=0))
    best = EquivarianceWitness(found=False, attempts=budget, gap=0.0)
    # an attempt draws two (W, n) banks, two positions and a shift
    for b, (size, used) in enumerate(_blocks(budget, 16 * waves * n + 24)):
        banks = rng.standard_normal((size, 2, waves, n))[:used]   # attempt i: query and key banks
        p_q, p_k = rng.integers(0, n, size=(size, 2))[:used].T
        t = rng.integers(1, n, size=size)[:used]
        stacks = banks.transpose(1, 2, 0, 3)
        before = mproll_score(*stacks, p_q, p_k)
        after = mproll_score(*stacks, p_q + t, p_k + t)
        gaps = np.abs(after - before)
        over = np.flatnonzero(gaps > gap_threshold)
        i = int(over[0]) if over.size else int(np.argmax(gaps))
        witness = EquivarianceWitness(
            found=bool(over.size), attempts=b * size + i + 1, gap=float(gaps[i]),
            bank_q=banks[i, 0].copy(), bank_k=banks[i, 1].copy(),
            p_q=int(p_q[i]), p_k=int(p_k[i]), t=int(t[i]),
            score_before=float(before[i]), score_after=float(after[i]),
        )
        if witness.found:
            return witness
        if witness.gap > best.gap:
            best = witness
    return replace(best, attempts=budget)
