"""Tests for multiplexed rolls and the equivariance-violation search."""

import numpy as np
import pytest

from rollpe.multiplex import (
    MultiplexBank,
    equivariance_violation_witness,
    mproll,
    mproll_score,
)
from rollpe.roll_core import roll_discrete, rollpe_score


class TestMproll:
    def test_single_wave_reduces_to_plain_roll(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(6)
        for p in (-3, 0, 2, 11):
            np.testing.assert_array_equal(
                mproll(MultiplexBank([c]), p), roll_discrete(c, p)
            )

    def test_zero_shift_sums_components(self):
        a, b = np.arange(4.0), np.ones(4)
        np.testing.assert_array_equal(mproll(MultiplexBank([a, b]), 0), a + b)

    def test_two_speed_index_arithmetic(self):
        # speed 1 moves c1 by 1, speed 2 moves c2 by 2
        bank = MultiplexBank([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        want = roll_discrete([1.0, 0, 0, 0], 1) + roll_discrete([0, 1.0, 0, 0], 2)
        got = mproll(bank, 1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 2.0])

    def test_linearity_in_the_bank(self):
        rng = np.random.default_rng(1)
        a1, a2, b1, b2 = rng.standard_normal((4, 5))
        summed = mproll(MultiplexBank([a1 + b1, a2 + b2]), 3)
        parts = mproll(MultiplexBank([a1, a2]), 3) + mproll(MultiplexBank([b1, b2]), 3)
        np.testing.assert_allclose(summed, parts, atol=1e-12)

    def test_rejects_bad_banks(self):
        with pytest.raises(ValueError):
            MultiplexBank([])
        with pytest.raises(ValueError):
            MultiplexBank([[1.0, 2.0], [1.0, 2.0, 3.0]])


class TestMprollScore:
    def test_single_wave_equals_rollpe_score(self):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((2, 8))
        got = mproll_score(MultiplexBank([q]), MultiplexBank([k]), 3, 7)
        assert got == pytest.approx(rollpe_score(q, k, 3, 7), abs=1e-12)

    def test_zero_positions_plain_dot(self):
        q1, q2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        k1, k2 = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        got = mproll_score(MultiplexBank([q1, q2]), MultiplexBank([k1, k2]), 0, 0, d=1.0)
        assert got == pytest.approx((q1 + q2) @ (k1 + k2))

    def test_single_shared_speed_is_translation_invariant(self):
        rng = np.random.default_rng(3)
        q, k = rng.standard_normal((2, 9))
        base = mproll_score(MultiplexBank([q]), MultiplexBank([k]), 2, 5)
        for t in (-7, 1, 13):
            moved = mproll_score(MultiplexBank([q]), MultiplexBank([k]), 2 + t, 5 + t)
            assert abs(moved - base) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mproll_score(MultiplexBank([np.ones(3)]), MultiplexBank([np.ones(4)]), 0, 0)

    def test_rejects_non_finite_d(self):
        bank = MultiplexBank([np.ones(3)])
        with pytest.raises(ValueError, match="finite"):
            mproll_score(bank, bank, 0, 1, d=np.inf)


class TestEquivarianceViolationWitness:
    def test_two_waves_find_witness(self):
        w = equivariance_violation_witness(8, 2, seed=0)
        assert w.found
        assert w.gap > 1e-3
        # the witness must replay: shifting both positions moves the score
        before = mproll_score(w.bank_q, w.bank_k, w.p_q, w.p_k)
        after = mproll_score(w.bank_q, w.bank_k, w.p_q + w.t, w.p_k + w.t)
        assert abs(after - before) == pytest.approx(w.gap)
        assert before == pytest.approx(w.score_before)
        assert after == pytest.approx(w.score_after)

    def test_three_waves_small_n(self):
        w = equivariance_violation_witness(3, 3, seed=1)
        assert w.found and w.gap > 1e-3

    def test_single_wave_always_exhausts_budget(self):
        for seed in (0, 1, 7):
            w = equivariance_violation_witness(8, 1, seed=seed, budget=300)
            assert not w.found
            assert w.attempts == 300
            assert w.gap <= 1e-3

    def test_deterministic_in_seed(self):
        a = equivariance_violation_witness(8, 2, seed=5)
        b = equivariance_violation_witness(8, 2, seed=5)
        assert a.gap == b.gap and a.attempts == b.attempts

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            equivariance_violation_witness(2, 2, seed=0)
        with pytest.raises(ValueError):
            equivariance_violation_witness(8, 0, seed=0)
        with pytest.raises(ValueError):
            equivariance_violation_witness(8, 2, seed=0, budget=0)
