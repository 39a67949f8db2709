"""Tests for the discrete roll operator and the rolled score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe import roll_core
from rollpe.roll_core import (
    relative_form_score,
    roll_discrete,
    rollpe_score,
    shift_matrix,
)


def _unit_vectors(n_max=32):
    """Strategy for pairs of same-length unit-normalized vectors."""

    @st.composite
    def pair(draw):
        n = draw(st.integers(min_value=1, max_value=n_max))
        elems = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
        q = np.asarray(draw(st.lists(elems, min_size=n, max_size=n)))
        k = np.asarray(draw(st.lists(elems, min_size=n, max_size=n)))
        q = q / max(np.linalg.norm(q), 1.0)
        k = k / max(np.linalg.norm(k), 1.0)
        return q, k

    return pair()


class TestRollDiscrete:
    def test_identity(self):
        np.testing.assert_array_equal(roll_discrete([1, 2, 3, 4], 0), [1, 2, 3, 4])

    def test_one_step(self):
        np.testing.assert_array_equal(roll_discrete([1, 2, 3, 4], 1), [2, 3, 4, 1])

    def test_full_period(self):
        np.testing.assert_array_equal(roll_discrete([1, 2, 3, 4], 4), [1, 2, 3, 4])

    def test_matches_matrix_oracle(self):
        """roll by indexing agrees with the explicit matrix-vector product."""
        rng = np.random.default_rng(42)
        q = rng.standard_normal(8)
        np.testing.assert_array_equal(roll_discrete(q, 5), shift_matrix(8, 5) @ q)

    @pytest.mark.parametrize("p", [-7, -1, 0, 3, 11, 100])
    def test_matrix_oracle_all_shifts(self, p):
        rng = np.random.default_rng(p + 200)
        q = rng.standard_normal(6)
        np.testing.assert_array_equal(roll_discrete(q, p), shift_matrix(6, p) @ q)

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            roll_discrete([], 1)
        with pytest.raises(ValueError):
            # a stack takes one position per row, not a scalar
            roll_discrete(np.ones((2, 2)), 1)

    @pytest.mark.parametrize("p", [0, 3, -7, 10**30, -10**25, np.int8(-5), np.uint64(2**63 + 5)])
    def test_a_vector_shift_is_the_one_row_stack_of_shifts(self, p):
        """A vector's shift comes back as the (1,) shifts of its one-row stack, exactly reduced."""
        shifts = roll_core._as_shifts(np.arange(5.0), p)
        assert shifts.shape == (1,) and shifts.dtype.kind == "i"
        assert shifts[0] == int(p) % 5

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        q=st.lists(st.floats(-100, 100), min_size=1, max_size=24),
        p=st.integers(-1000, 1000),
    )
    def test_periodicity_exact(self, q, p):
        """roll(q, p) == roll(q, p mod n) bit for bit."""
        q = np.asarray(q)
        np.testing.assert_array_equal(
            roll_discrete(q, p), roll_discrete(q, p % q.size)
        )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        q=st.lists(st.floats(-100, 100), min_size=1, max_size=24),
        a=st.integers(-50, 50),
        b=st.integers(-50, 50),
    )
    def test_composition_exact(self, q, a, b):
        """Rolling twice equals rolling by the summed shift, exactly."""
        q = np.asarray(q)
        np.testing.assert_array_equal(
            roll_discrete(roll_discrete(q, a), b), roll_discrete(q, a + b)
        )


class TestRollDiscreteStack:
    """A (t, n) stack rolls row i by p[i] in one gather."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 24),
        positions=st.lists(st.integers(-(2**53 - 1), 2**53 - 1), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_vector_roll(self, n, positions, seed):
        """Bit for bit, also at positions near 2**53 and below zero."""
        q = np.random.default_rng(seed).standard_normal((len(positions), n))
        got = roll_discrete(q, np.array(positions, dtype=float))
        assert got.shape == q.shape
        for row, p, out in zip(q, positions, got):
            np.testing.assert_array_equal(out, roll_discrete(row, int(p)))

    def test_positions_beyond_int64_reduce_exactly(self):
        q = np.random.default_rng(3).standard_normal((3, 7))
        positions = [2.0**80, -1e300, 2.0**63]
        got = roll_discrete(q, positions)
        for row, p, out in zip(q, positions, got):
            np.testing.assert_array_equal(out, roll_discrete(row, int(p)))

    @pytest.mark.parametrize("p", [2**60 + 1, -(2**62 + 3)])
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
    def test_integer_positions_beyond_2_53_match_vector_roll(self, p, as_array):
        """Integer positions reduce exactly; read as float64 they would land on p - 1 or p + 3."""
        for n in (3, 5, 7):
            q = np.arange(float(n))
            positions = np.array([p], dtype=np.int64) if as_array else [p]
            np.testing.assert_array_equal(roll_discrete(q[None], positions)[0], roll_discrete(q, p))

    @pytest.mark.parametrize("p", [2**70 + 1, -(2**70 + 3)], ids=["2**70+1", "-(2**70+3)"])
    def test_python_ints_beyond_int64_match_vector_roll(self, p):
        """A list of such ints is an object array; read as float64 it would lose the low bits."""
        for n in (3, 5, 7):
            q = np.arange(float(n))
            want = roll_discrete(q, p)
            np.testing.assert_array_equal(roll_discrete(q[None], [p])[0], want)
            np.testing.assert_array_equal(roll_discrete(q[None, None], [p])[0, 0], want)

    def test_vector_shift_beyond_float_range_reduces_exactly(self):
        """A vector's shift is reduced as an int, never read as a float, so 10**400 is a shift."""
        q = np.arange(7.0)
        for p in (10**400, -(10**400)):
            np.testing.assert_array_equal(roll_discrete(q, p), roll_discrete(q, p % 7))

    def test_fraction_beside_a_python_int_beyond_int64_raises(self):
        with pytest.raises(ValueError, match="must be an integer"):
            roll_discrete(np.ones((2, 4)), [2**70, 0.5])

    def test_narrow_integer_positions_do_not_overflow(self):
        q = np.arange(300.0)
        for dtype in (np.int8, np.uint8, np.int16, np.uint64):
            got = roll_discrete(q[None], np.array([100], dtype=dtype))[0]
            np.testing.assert_array_equal(got, roll_discrete(q, 100))

    def test_fractional_position_raises(self):
        with pytest.raises(ValueError, match="must be an integer"):
            roll_discrete(np.ones((3, 4)), [0.0, 2.5, 1.0])

    def test_non_finite_entries_move_like_any_other(self):
        """A permutation neither creates nor hides a NaN or +-inf, in a stack or a vector."""
        q = np.arange(15.0).reshape(3, 5)
        q[0, 1], q[1, 4], q[2, 0] = np.nan, np.inf, -np.inf
        positions = [1, -2, 7]
        got = roll_discrete(q, positions)
        for row, p, out in zip(q, positions, got):
            np.testing.assert_array_equal(out, roll_discrete(row, p))
        assert np.isnan(got).sum() == 1 and np.isinf(got).sum() == 2

    def test_returns_a_fresh_array(self):
        q = np.ones((2, 3))
        assert not np.shares_memory(roll_discrete(q, [0, 0]), q)


class TestShiftMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(shift_matrix(3, 0), np.eye(3, dtype=int))

    def test_one_step_rows(self):
        np.testing.assert_array_equal(
            shift_matrix(3, 1), [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )

    def test_period(self):
        np.testing.assert_array_equal(shift_matrix(3, 3), np.eye(3, dtype=int))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            shift_matrix(0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("p", [-3, 0, 1, 7])
    def test_permutation_and_orthogonality(self, n, p):
        """Exactly one 1 per row/column and S^T S = I in integer arithmetic."""
        s = shift_matrix(n, p)
        assert s.sum(axis=0).tolist() == [1] * n
        assert s.sum(axis=1).tolist() == [1] * n
        np.testing.assert_array_equal(s.T @ s, np.eye(n, dtype=int))


class TestRollpeScore:
    def test_unit_dot(self):
        assert rollpe_score([1.0, 0.0], [1.0, 0.0], 0, 0, d=1) == 1.0

    def test_orthogonal_one_hots(self):
        assert rollpe_score([1.0, 0, 0], [0, 1.0, 0], 0, 0, d=1) == 0.0

    def test_matches_relative_form(self):
        """Encoded-pair score equals the closed form at delta = p_k - p_q."""
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal((2, 16))
        got = rollpe_score(q, k, p_q=3, p_k=7, d=16)
        want = relative_form_score(q, k, delta=4, d=16)
        assert abs(got - want) <= 1e-12

    def test_default_d_is_length(self):
        q = np.ones(4)
        assert rollpe_score(q, q, 0, 0) == pytest.approx(4 / np.sqrt(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rollpe_score([1.0, 2.0], [1.0], 0, 0)
        with pytest.raises(ValueError):
            rollpe_score([1.0, 2.0], [1.0, 2.0], 0, 0, d=0.0)

    @pytest.mark.parametrize("d", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_d(self, d):
        with pytest.raises(ValueError, match="finite"):
            rollpe_score([1.0, 2.0], [1.0, 2.0], 0, 1, d=d)
        with pytest.raises(ValueError, match="finite"):
            relative_form_score([1.0, 2.0], [1.0, 2.0], 1, d=d)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        pair=_unit_vectors(),
        p_q=st.integers(-64, 64),
        p_k=st.integers(-64, 64),
        t=st.integers(-64, 64),
    )
    def test_translation_equivariance(self, pair, p_q, p_k, t):
        """Common integer shifts of both positions never move the score."""
        q, k = pair
        base = rollpe_score(q, k, p_q, p_k)
        shifted = rollpe_score(q, k, p_q + t, p_k + t)
        assert abs(base - shifted) <= 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(pair=_unit_vectors(), p_q=st.integers(-64, 64), p_k=st.integers(-64, 64))
    def test_relative_form_property(self, pair, p_q, p_k):
        q, k = pair
        got = rollpe_score(q, k, p_q, p_k)
        want = relative_form_score(q, k, p_k - p_q)
        assert abs(got - want) <= 1e-12


class TestRelativeFormScore:
    def test_self_overlap(self):
        assert relative_form_score([1.0, 0, 0], [1.0, 0, 0], 0, d=1) == 1.0

    def test_explicit_matrix_oracle(self):
        q, k = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        want = q @ shift_matrix(2, 1) @ k
        assert relative_form_score(q, k, 1, d=1) == pytest.approx(want, abs=1e-15)

    def test_brute_force_over_base_positions(self):
        """All (p_q, p_q + 5) pairs collapse onto the delta = 5 closed form."""
        rng = np.random.default_rng(11)
        q, k = rng.standard_normal((2, 12))
        want = relative_form_score(q, k, 5, d=12)
        for p_q in range(12):
            got = rollpe_score(q, k, p_q, p_q + 5, d=12)
            assert abs(got - want) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_form_score([1.0], [1.0, 2.0], 0)
