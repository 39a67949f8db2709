"""Multiplexed rolls: superpositions of components traveling at speeds w*p.

A bank of W component vectors, one (W, n) array, is rolled at speeds
1*p, 2*p, ..., W*p and summed.  With a single component this reduces
exactly to the plain roll; with two or more the cross-speed terms make
scores depend on absolute position, so translation invariance breaks
(generically), which ``equivariance_violation_witness`` demonstrates by
seeded search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .roll_core import _as_count, _as_shifts, _score_scale, roll_discrete

__all__ = [
    "EquivarianceWitness",
    "mproll",
    "mproll_score",
    "equivariance_violation_witness",
]


def mproll(components, p) -> np.ndarray:
    """Sum of components[w-1] rolled by w*p, w = 1..W.

    ``components`` is a (W, n) bank with an integer ``p``, or a (W, t, n)
    stack with (t,) integer positions, row i of every component rolled
    by w*p[i].  ``p`` is checked as ``roll_discrete`` checks it, then
    reduced mod n once, so w*p stays an exact integer at any magnitude.
    A stack rolls all W*t rows in one gather and sums the waves in order
    1..W.  Any other shape raises ``ValueError``.
    """
    comps = np.asarray(components, dtype=float)
    if comps.ndim not in (2, 3) or comps.size == 0:
        raise ValueError("components must be a non-empty (W, n) bank or (W, t, n) stack")
    p = _as_shifts(comps[0], p)
    if comps.ndim == 2:
        return sum(roll_discrete(c, w * p) for w, c in enumerate(comps, start=1))
    waves, t, n = comps.shape
    shifts = np.arange(1, waves + 1)[:, None] * p
    rolled = roll_discrete(comps.reshape(waves * t, n), shifts.reshape(-1))
    return rolled.reshape(comps.shape).sum(axis=0)


def mproll_score(bank_q, bank_k, p_q: int, p_k: int, d: float | None = None) -> float:
    """Scaled dot product of the two multiplexed encodings of (W, n) banks."""
    enc_q, enc_k = mproll(bank_q, p_q), mproll(bank_k, p_k)
    if enc_q.ndim != 1 or enc_k.ndim != 1:
        raise ValueError("mproll_score takes two (W, n) banks")
    return float(enc_q @ enc_k / _score_scale(enc_q.size, enc_k.size, d))


@dataclass(frozen=True)
class EquivarianceWitness:
    """Outcome of the translation-invariance violation search.

    ``found`` is False when the budget was exhausted without a violating
    configuration (inconclusive, e.g. always for W = 1); the remaining
    fields then describe the best attempt seen.
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
    gap_threshold: float = 1e-3,
) -> EquivarianceWitness:
    """Search seeded random banks/offsets for a score that moves under a common shift.

    Draws banks and positions from a deterministic generator until
    |score(p_q + t, p_k + t) - score(p_q, p_k)| exceeds ``gap_threshold``.
    A single-wave bank can never produce a witness; the search then
    simply exhausts its budget.
    """
    n = _as_count(n, least=3)
    waves = _as_count(waves, "waves")
    budget = _as_count(budget, "budget")
    rng = np.random.default_rng(seed)
    best = EquivarianceWitness(found=False, attempts=budget, gap=0.0)
    for attempt in range(budget):
        bank_q = rng.standard_normal((waves, n))
        bank_k = rng.standard_normal((waves, n))
        p_q, p_k = (int(x) for x in rng.integers(0, n, size=2))
        t = int(rng.integers(1, n))
        before = mproll_score(bank_q, bank_k, p_q, p_k)
        after = mproll_score(bank_q, bank_k, p_q + t, p_k + t)
        gap = abs(after - before)
        witness = EquivarianceWitness(
            found=gap > gap_threshold,
            attempts=attempt + 1,
            gap=gap,
            bank_q=bank_q,
            bank_k=bank_k,
            p_q=p_q,
            p_k=p_k,
            t=t,
            score_before=before,
            score_after=after,
        )
        if witness.found:
            return witness
        if gap > best.gap:
            best = witness
    return replace(best, attempts=budget)
