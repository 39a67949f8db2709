"""Where the continuous roll is relative: ``attend`` logits under a common real shift.

At odd n (odd half length, axially) the centered branch is an orthogonal
one-parameter group, so the logits depend only on position differences
at any real shift s.  At even n it is not: the Nyquist coordinate
c = sum_j (-1)^j q_j / sqrt(n) evolves as cos(pi p / lam), so a common
shift moves logit (i, j) by exactly

    c_q[i] c_k[j] / (2 sqrt(d)) * [cos(pi (p_i + p_j + 2s) / lam) - cos(pi (p_i + p_j) / lam)]

and by nothing else.  The even-n property pins that drift rather than
hiding it.  Positions and shifts are multiples of 2**-8, so p + s is
exact in float64 and the shifted batch is an exact common shift.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend

_STEP = 2.0**-8
# multiples of 2**-8 of magnitude at most 1e6
_POSITION = st.integers(-256_000_000, 256_000_000).map(lambda i: i * _STEP)
_LAMBDA = st.floats(0.25, 4.0)
_SEEDS = st.integers(0, 2**32 - 1)
_EPS = np.finfo(float).eps


def _logits(q, k, positions, lam):
    """Centered roll-continuous logits at (t, 1) or, axially, (t, 2) positions."""
    axial = positions.shape[1] == 2
    pe = PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=lam, axial=axial)
    batch = AttentionBatch(q, k, np.zeros_like(q), positions if axial else positions[:, 0])
    return attend(batch, pe).logits


def _draw_shift(data, n, axial):
    """A random batch's q, k, (t, width) positions, (width,) shift, lam and logits
    before and after the shift, width being 2 axially and 1 otherwise."""
    width = 2 if axial else 1
    t = data.draw(st.integers(1, 6), label="t")
    positions = data.draw(st.lists(_POSITION, min_size=t * width, max_size=t * width))
    positions = np.array(positions).reshape(t, width)
    shift = np.array(data.draw(st.lists(_POSITION, min_size=width, max_size=width)))
    lam = data.draw(_LAMBDA, label="lam")
    q, k = np.random.default_rng(data.draw(_SEEDS, label="seed")).standard_normal((2, t, n))
    before = _logits(q, k, positions, lam)
    after = _logits(q, k, positions + shift, lam)
    return q, k, positions, shift, lam, before, after


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 16), axial=st.booleans())
def test_odd_length_logits_are_invariant_under_any_real_shift(data, m, axial):
    """Centered, odd (sub-)length: relative at every real shift, to 1e-12."""
    n = 2 * (2 * m + 1) if axial else 2 * m + 1
    *_, before, after = _draw_shift(data, n, axial)
    np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


def _nyquist_cos(x, lam):
    """cos(pi x / lam), with x reduced exactly by the period 2 lam first."""
    return np.cos(np.pi * np.fmod(x, 2.0 * lam) / lam)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 16), axial=st.booleans())
def test_even_length_logits_drift_by_the_nyquist_term(data, m, axial):
    """Centered, even (sub-)length: the logits move by the Nyquist drift, exactly.

    The tolerance is 1e-12 plus the rounding of the two encoded Nyquist
    phases on each side: the roll reduces p modulo the float64 product
    lam * n, which leaves each phase pi * p / lam off by at most
    pi * eps * (|p| / lam + 2n).
    """
    n = 2 * (2 * m) if axial else 2 * m
    q, k, pos, shift, lam, before, after = _draw_shift(data, n, axial)
    halves = pos.shape[1]
    half = n // halves
    sign = (-1.0) ** np.arange(half) / math.sqrt(half)
    largest = max(np.abs(pos).max(), np.abs(pos + shift).max())
    phase_error = 4.0 * (math.pi * _EPS * (largest / lam + 2 * half) + _EPS)
    drift = np.zeros_like(before)
    tolerance = np.full_like(before, 1e-12)
    for h in range(halves):
        c_q = q[:, h * half : (h + 1) * half] @ sign
        c_k = k[:, h * half : (h + 1) * half] @ sign
        weight = np.outer(c_q, c_k) / math.sqrt(n)
        x = pos[:, h, None] + pos[None, :, h]
        drift += weight / 2.0 * (_nyquist_cos(x + 2.0 * shift[h], lam) - _nyquist_cos(x, lam))
        tolerance += np.abs(weight) * phase_error
    assert (np.abs((after - before) - drift) <= tolerance).all()
