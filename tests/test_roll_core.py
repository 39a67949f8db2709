"""Tests for the discrete roll operator and the rolled score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            roll_discrete(np.ones((2, 2)), 1)

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
