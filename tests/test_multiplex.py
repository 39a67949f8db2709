"""Tests for multiplexed rolls and the equivariance-violation search."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe import multiplex, roll_core
from rollpe.multiplex import (
    equivariance_violation_witness,
    mproll,
    mproll_score,
)
from rollpe.roll_core import roll_discrete, rollpe_score


def _summed_rolls(bank, p):
    """Oracle: sum_w roll_discrete(bank[w-1], w * p) with exact integer w * p."""
    return sum(roll_discrete(c, w * p) for w, c in enumerate(bank, start=1))


class TestMproll:
    def test_single_wave_reduces_to_plain_roll(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(6)
        for p in (-3, 0, 2, 11):
            np.testing.assert_array_equal(mproll(c[None], p), roll_discrete(c, p))

    def test_zero_shift_sums_components(self):
        a, b = np.arange(4.0), np.ones(4)
        np.testing.assert_array_equal(mproll([a, b], 0), a + b)

    def test_two_speed_index_arithmetic(self):
        # speed 1 moves c1 by 1, speed 2 moves c2 by 2
        bank = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        want = roll_discrete([1.0, 0, 0, 0], 1) + roll_discrete([0, 1.0, 0, 0], 2)
        got = mproll(bank, 1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 2.0])

    def test_linearity_in_the_bank(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 2, 5))
        np.testing.assert_allclose(mproll(a + b, 3), mproll(a, 3) + mproll(b, 3), atol=1e-12)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        waves=st.integers(1, 3),
        n=st.sampled_from([1, 2, 5, 6, 7, 8]),
        positions=st.lists(st.integers(-(2**53 - 1), 2**53 - 1), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_match_banks(self, waves, n, positions, seed):
        """Row i of a (W, t, n) stack is the (W, n) bank of its rows at p[i], bit for bit."""
        stack = np.random.default_rng(seed).standard_normal((waves, len(positions), n))
        got = mproll(stack, np.array(positions, dtype=float))
        assert got.shape == stack.shape[1:]
        for i, p in enumerate(positions):
            np.testing.assert_array_equal(got[i], mproll(stack[:, i], p))

    @pytest.mark.parametrize("p", [-5, 0, 3, 2**60 + 1])
    def test_bank_is_the_one_row_stack(self, p):
        """A (W, n) bank rolls as the (W, 1, n) stack at [p], bit for bit."""
        bank = np.random.default_rng(6).standard_normal((3, 7))
        want = mproll(bank[:, None], [p])[0]
        assert mproll(bank, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [2**60 + 1, -(2**62 + 3), 3**50])
    def test_bank_beyond_2_53_is_exact(self, p):
        bank = np.random.default_rng(4).standard_normal((3, 7))
        np.testing.assert_array_equal(mproll(bank, p), _summed_rolls(bank, p))

    @pytest.mark.parametrize("p", [2**70 + 1, -(2**70 + 3)], ids=["2**70+1", "-(2**70+3)"])
    def test_stack_beyond_int64_is_exact(self, p):
        """Python ints too large for int64 reduce exactly, as the bank's do."""
        stack = np.random.default_rng(5).standard_normal((3, 2, 7))
        got = mproll(stack, [p, 1 - p])
        np.testing.assert_array_equal(got[0], _summed_rolls(stack[:, 0], p))
        np.testing.assert_array_equal(got[1], _summed_rolls(stack[:, 1], 1 - p))

    @pytest.mark.parametrize(
        "bank",
        [np.ones(4), np.ones((1, 2, 3, 4)), np.zeros((0, 4)), np.zeros((2, 0)), []],
        ids=["one-d", "four-d", "no-waves", "empty-components", "empty"],
    )
    def test_rejects_bad_banks(self, bank):
        with pytest.raises(ValueError, match="components must be"):
            mproll(bank, 0)

    def test_rejects_ragged_banks(self):
        with pytest.raises(ValueError):
            mproll([[1.0, 2.0], [1.0, 2.0, 3.0]], 0)

    @pytest.mark.parametrize(
        "components, p",
        [(np.ones((3, 5)), -7), (np.ones((2, 4, 5)), [0.0, 3.0, -9.0, 2.0**52])],
        ids=["bank", "stack"],
    )
    def test_positions_are_checked_once(self, components, p, monkeypatch):
        """The reduced shifts go to the gather unchecked: one position check per call."""
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = roll_core._as_shifts
        monkeypatch.setattr(roll_core, "_as_shifts", counted)
        monkeypatch.setattr(multiplex, "_as_shifts", counted)
        mproll(components, p)
        assert len(calls) == 1


class TestMprollScore:
    def test_single_wave_equals_rollpe_score(self):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((2, 8))
        got = mproll_score(q[None], k[None], 3, 7)
        assert got == pytest.approx(rollpe_score(q, k, 3, 7), abs=1e-12)

    def test_zero_positions_plain_dot(self):
        q1, q2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        k1, k2 = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        got = mproll_score([q1, q2], [k1, k2], 0, 0, d=1.0)
        assert got == pytest.approx((q1 + q2) @ (k1 + k2))

    def test_single_shared_speed_is_translation_invariant(self):
        rng = np.random.default_rng(3)
        q, k = rng.standard_normal((2, 1, 9))
        base = mproll_score(q, k, 2, 5)
        for t in (-7, 1, 13):
            moved = mproll_score(q, k, 2 + t, 5 + t)
            assert abs(moved - base) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mproll_score(np.ones((1, 3)), np.ones((1, 4)), 0, 0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        waves=st.integers(1, 3),
        n=st.sampled_from([1, 3, 8, 9, 16]),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_score_as_banks(self, waves, n, rows, seed):
        """Row i of a (W, T, n) stack score is the score of its (W, n) banks, bit for bit."""
        rng = np.random.default_rng(seed)
        stack_q, stack_k = rng.standard_normal((2, waves, rows, n))
        p_q, p_k = rng.integers(-3 * n, 3 * n, size=(2, rows))
        got = mproll_score(stack_q, stack_k, p_q, p_k)
        assert got.shape == (rows,)
        for i in range(rows):
            assert got[i] == mproll_score(stack_q[:, i], stack_k[:, i], int(p_q[i]), int(p_k[i]))

    @pytest.mark.parametrize(
        "bank_q, bank_k",
        [(np.ones((2, 4)), np.ones((2, 1, 4))), (np.ones((2, 3, 4)), np.ones((2, 2, 4)))],
        ids=["bank-stack", "rows"],
    )
    def test_rejects_a_bank_and_key_of_different_shapes(self, bank_q, bank_k):
        p_k = np.zeros(bank_k.shape[1]) if bank_k.ndim == 3 else 0
        p_q = np.zeros(bank_q.shape[1]) if bank_q.ndim == 3 else 0
        with pytest.raises(ValueError, match="query and key must share one shape"):
            mproll_score(bank_q, bank_k, p_q, p_k)

    def test_rejects_non_finite_d(self):
        bank = np.ones((1, 3))
        with pytest.raises(ValueError, match="finite"):
            mproll_score(bank, bank, 0, 1, d=np.inf)


def _attempt_inputs(n, waves, seed):
    """Each attempt's (bank_q, bank_k, p_q, p_k, t) as the search draws them, without end:
    whole blocks of 1, 2, 4, ... attempts (at most 2**16 // (waves * n)), one call per quantity."""
    rng = np.random.default_rng(seed)
    size = 1
    while True:
        size = min(size, max(1, 2**16 // (waves * n)))
        banks = rng.standard_normal((size, 2, waves, n))
        positions = rng.integers(0, n, size=(size, 2))
        shifts = rng.integers(1, n, size=size)
        for (bank_q, bank_k), (p_q, p_k), t in zip(banks, positions, shifts):
            yield bank_q, bank_k, int(p_q), int(p_k), int(t)
        size *= 2


def _per_attempt_witness(n, waves, seed, budget, gap_threshold):
    """Oracle: score each attempt alone with bank calls, on the search's inputs."""
    best = (0.0, None)
    attempts = islice(_attempt_inputs(n, waves, seed), budget)
    for attempt, (bank_q, bank_k, p_q, p_k, t) in enumerate(attempts, start=1):
        before = mproll_score(bank_q, bank_k, p_q, p_k)
        after = mproll_score(bank_q, bank_k, p_q + t, p_k + t)
        fields = (abs(after - before), bank_q, bank_k, p_q, p_k, t, before, after)
        if fields[0] > gap_threshold:
            return True, attempt, fields
        if fields[0] > best[0]:
            best = fields
    return False, budget, best


def _searched_inputs(monkeypatch, n, waves, seed, budget):
    """The (bank_q, bank_k, p_q, p_k, t) of every attempt a search scores, read off its
    ``mproll_score`` calls: each block's unshifted call, then its shifted one."""
    calls = []
    score = multiplex.mproll_score

    def recording(*args):
        calls.append(args)
        return score(*args)

    monkeypatch.setattr(multiplex, "mproll_score", recording)
    equivariance_violation_witness(n, waves, seed, budget=budget, gap_threshold=1e3)
    return [
        (stack_q[:, i], stack_k[:, i], int(p_q[i]), int(p_k[i]), int(shifted[i] - p_q[i]))
        for (stack_q, stack_k, p_q, p_k), (_, _, shifted, _) in zip(calls[::2], calls[1::2])
        for i in range(len(p_q))
    ]


class TestEquivarianceViolationWitness:
    @pytest.mark.parametrize("gap_threshold", [1e-3, 2.0, 5.0, 1e3])
    @pytest.mark.parametrize("waves", [1, 2, 3])
    @pytest.mark.parametrize("n, seed", [(3, 0), (8, 1), (16, 2)])
    def test_blocks_score_as_single_attempts(self, n, seed, waves, gap_threshold):
        """Scoring in blocks of 1, 2, 4, ... picks the attempt the one-by-one loop picks:
        the first over the threshold, or else the first with the largest gap, bit for bit."""
        w = equivariance_violation_witness(n, waves, seed, budget=100, gap_threshold=gap_threshold)
        found, attempts, (gap, bank_q, bank_k, *rest) = _per_attempt_witness(
            n, waves, seed, 100, gap_threshold
        )
        assert (w.found, w.attempts, w.gap) == (found, attempts, gap)
        assert [w.p_q, w.p_k, w.t, w.score_before, w.score_after] == rest
        np.testing.assert_array_equal(w.bank_q, bank_q)
        np.testing.assert_array_equal(w.bank_k, bank_k)

    @pytest.mark.parametrize("waves", [1, 2, 3])
    @pytest.mark.parametrize("n, seed", [(3, 4), (8, 3)])
    def test_attempts_keep_their_inputs_whatever_the_budget(self, n, seed, waves, monkeypatch):
        """Budgets 37 and 100 score every attempt within 37 on the same inputs, the oracle's:
        a block is drawn whole even when the budget ends inside it."""
        want = list(islice(_attempt_inputs(n, waves, seed), 100))
        for budget in (37, 100):
            got = _searched_inputs(monkeypatch, n, waves, seed, budget)
            assert len(got) == budget
            for (bank_q, bank_k, *ints), (want_q, want_k, *want_ints) in zip(got, want):
                np.testing.assert_array_equal(bank_q, want_q)
                np.testing.assert_array_equal(bank_k, want_k)
                assert ints == want_ints

    def test_two_waves_find_witness(self):
        w = equivariance_violation_witness(8, 2, seed=0)
        assert w.found
        assert w.bank_q.shape == w.bank_k.shape == (2, 8)
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
        """An exhausted search reports its budget and keeps its best attempt, which replays."""
        for seed in (0, 1, 7):
            w = equivariance_violation_witness(8, 1, seed=seed, budget=300)
            assert not w.found
            assert w.attempts == 300
            assert w.gap <= 1e-3
            before = mproll_score(w.bank_q, w.bank_k, w.p_q, w.p_k)
            after = mproll_score(w.bank_q, w.bank_k, w.p_q + w.t, w.p_k + w.t)
            assert (before, after) == (w.score_before, w.score_after)
            assert abs(after - before) == w.gap > 0.0

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
