"""An (s, t, n) stack of row-sets at shared (t,) positions is s separate (t, n) calls.

``attend`` encodes Q and K as one such stack, so that each kernel builds
its position table once; every row-set must come out bit for bit as its
own call would leave it.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe.roll_core import roll_discrete
from rollpe.rope import classic_schedule, rope_apply
from rollpe.spectral import SpectralBranch, roll_continuous

_ROW_SETS = st.integers(1, 3)
_SEEDS = st.integers(0, 2**32 - 1)
_REALS = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=5)


def _assert_row_sets_match(kernel, s, n, positions, seed):
    stack = np.random.default_rng(seed).standard_normal((s, len(positions), n))
    positions = np.array(positions, dtype=float)
    got = kernel(stack, positions)
    assert got.shape == stack.shape
    for rows, out in zip(stack, got):
        np.testing.assert_array_equal(out, kernel(rows, positions))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    s=_ROW_SETS,
    n=st.integers(1, 9),
    positions=st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=5),
    seed=_SEEDS,
)
def test_roll_discrete(s, n, positions, seed):
    _assert_row_sets_match(roll_discrete, s, n, positions, seed)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    s=_ROW_SETS,
    n=st.integers(1, 9),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    branch=st.sampled_from(list(SpectralBranch)),
    positions=_REALS,
    seed=_SEEDS,
)
def test_roll_continuous(s, n, lam, branch, positions, seed):
    kernel = partial(roll_continuous, lam=lam, branch=branch)
    _assert_row_sets_match(kernel, s, n, positions, seed)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(s=_ROW_SETS, planes=st.integers(1, 5), positions=_REALS, seed=_SEEDS)
def test_rope_apply(s, planes, positions, seed):
    kernel = partial(rope_apply, sched=classic_schedule(2 * planes))
    _assert_row_sets_match(kernel, s, 2 * planes, positions, seed)


def test_rope_apply_lone_pair():
    """One row-set of one row of one pair rounds as its (1, 2) call and its vector call.

    numpy multiplies a lone complex pair broadcast against a table of lower
    rank in a different rounding from every other shape, so this is the
    shape most likely to drift."""
    rng = np.random.default_rng(7)
    sched = classic_schedule(2)
    for v, p in zip(rng.standard_normal((200, 2)), rng.uniform(-1e3, 1e3, 200)):
        stacked = rope_apply(v[None, None], [p], sched)
        np.testing.assert_array_equal(stacked[0], rope_apply(v[None], [p], sched))
        np.testing.assert_array_equal(stacked[0, 0], rope_apply(v, p, sched))


def test_roll_continuous_raw_lone_bin():
    """Row-sets of one row with one non-DC bin (n = 2, 3) round as their own RAW calls.

    numpy scales a lone bin in place in a different rounding from a stack
    of them, so the RAW damping must ride in the phase table that every
    row-set's spectrum is multiplied by once."""
    rng = np.random.default_rng(7)
    raw = partial(roll_continuous, branch=SpectralBranch.RAW)
    for n in (2, 3):
        for rows, p in zip(rng.standard_normal((200, 2, 1, n)), rng.uniform(-1e3, 1e3, 200)):
            stacked = raw(rows, [p])
            for row, out in zip(rows, stacked):
                np.testing.assert_array_equal(out, raw(row, [p]))
