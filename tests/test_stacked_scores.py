"""A (T, n) stack of query/key pairs is scored as T vector calls.

``rollpe_score``, ``relative_form_score`` and ``equivalence_residual``
take two vectors, or two (T, n) stacks with (T,) positions (deltas for
the relative form), and return one score per row.  The CLI checks every
trial of a sweep in one such call, so row i of a stack must agree with
the vector call on row i, to 1e-15 of ||q_i|| ||k_i||.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe.roll_core import relative_form_score, rollpe_score
from rollpe.rope import equivalence_residual

_SEEDS = st.integers(0, 2**32 - 1)
# odd and even lengths, with and without a Nyquist row
_LENGTHS = st.integers(1, 17)
_SHIFTS = st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=6)
_D = st.one_of(st.none(), st.floats(0.25, 64.0))


def _pairs(seed, t, n):
    return np.random.default_rng(seed).standard_normal((2, t, n))


def _assert_rows_match(stacked, q, k, vector_call):
    assert stacked.shape == (len(q),)
    for i, (got, q_i, k_i) in enumerate(zip(stacked, q, k)):
        want = vector_call(i)
        assert isinstance(want, float)
        assert abs(got - want) <= 1e-15 * np.linalg.norm(q_i) * np.linalg.norm(k_i)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=_LENGTHS, data=st.data(), d=_D, seed=_SEEDS)
def test_rollpe_score(n, data, d, seed):
    p_q = data.draw(_SHIFTS)
    p_k = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=len(p_q), max_size=len(p_q)))
    q, k = _pairs(seed, len(p_q), n)
    stacked = rollpe_score(q, k, np.array(p_q), np.array(p_k), d)
    _assert_rows_match(stacked, q, k, lambda i: rollpe_score(q[i], k[i], p_q[i], p_k[i], d))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=_LENGTHS, deltas=_SHIFTS, d=_D, seed=_SEEDS)
def test_relative_form_score(n, deltas, d, seed):
    q, k = _pairs(seed, len(deltas), n)
    stacked = relative_form_score(q, k, np.array(deltas), d)
    _assert_rows_match(stacked, q, k, lambda i: relative_form_score(q[i], k[i], deltas[i], d))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=_LENGTHS,
    lam=st.floats(0.25, 4.0),
    positions=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=6
    ),
    seed=_SEEDS,
)
def test_equivalence_residual(n, lam, positions, seed):
    p_q, p_k = np.array(positions).T
    q, k = _pairs(seed, len(positions), n)
    stacked = equivalence_residual(q, k, p_q, p_k, lam)
    _assert_rows_match(
        stacked, q, k, lambda i: equivalence_residual(q[i], k[i], p_q[i], p_k[i], lam)
    )


def test_one_row_stack_is_the_vector_call():
    """A (1, n) stack returns a length-1 array; the vector returns a float."""
    q, k = _pairs(5, 1, 8)
    assert equivalence_residual(q, k, [1.5], [-0.25]).shape == (1,)
    assert rollpe_score(q, k, [2], [7]).shape == (1,)
    assert relative_form_score(q, k, [5]).shape == (1,)
    assert rollpe_score(q[0], k[0], 2, 7) == rollpe_score(q, k, [2], [7])[0]
