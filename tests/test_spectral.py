"""Tests for the spectral (continuous roll) module."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe import spectral
from rollpe.regularizer import lipschitz_gap
from rollpe.roll_core import roll_discrete, shift_matrix
from rollpe.rope import equivalence_residual
from rollpe.spectral import (
    ShiftGenerator,
    SpectralBranch,
    branch_angles,
    dft_matrix,
    generator_residuals,
    log_shift_generator,
    roll_continuous,
)

RAW = SpectralBranch.RAW
CENTERED = SpectralBranch.CENTERED
BOTH = (RAW, CENTERED)


def _dense_roll(q, p, lam, branch):
    """Oracle: exponentiate the shift logarithm through the dense DFT matrix.

    The eigenvalue angles are written out here rather than taken from
    ``branch_angles`` so the check does not share code with the FFT path.
    """
    n = q.size
    k = np.arange(n)
    if branch is CENTERED:
        k = np.where(2 * k <= n, k, k - n)
    f = dft_matrix(n)
    phases = np.exp(2j * np.pi * k * p / (lam * n))
    return (f.conj().T @ (phases * (f @ q))).real


class TestDftMatrix:
    def test_n1(self):
        np.testing.assert_array_equal(dft_matrix(1), [[1.0 + 0j]])

    def test_n2(self):
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(dft_matrix(2), want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
    def test_unitarity(self, n):
        f = dft_matrix(n)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestBranchAngles:
    def test_raw(self):
        np.testing.assert_allclose(branch_angles(4, RAW), 2 * np.pi * np.arange(4) / 4)

    def test_centered_wraps_into_half_open_interval(self):
        theta = branch_angles(5, CENTERED)
        assert np.all(theta > -np.pi) and np.all(theta <= np.pi)
        np.testing.assert_allclose(theta, 2 * np.pi * np.array([0, 1, 2, -2, -1]) / 5)

    def test_centered_even_keeps_nyquist_positive(self):
        assert branch_angles(4, CENTERED)[2] == pytest.approx(np.pi)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_branches_agree_mod_two_pi(self, n):
        gap = branch_angles(n, RAW) - branch_angles(n, CENTERED)
        np.testing.assert_allclose(gap / (2 * np.pi), np.round(gap / (2 * np.pi)), atol=1e-12)


class TestLogShiftGenerator:
    def test_n1_is_zero(self):
        gen = log_shift_generator(1, RAW)
        np.testing.assert_array_equal(gen.matrix, np.zeros((1, 1)))

    def test_exp_reproduces_shift_scipy_oracle(self):
        """General-purpose matrix exponential of A recovers the one-step shift."""
        gen = log_shift_generator(4, RAW)
        np.testing.assert_allclose(
            scipy.linalg.expm(gen.matrix), shift_matrix(4, 1), atol=1e-9
        )

    def test_centered_odd_is_real_skew_symmetric(self):
        gen = log_shift_generator(5, CENTERED)
        assert np.abs(gen.matrix.imag).max() <= 1e-12
        real = gen.matrix.real
        assert np.abs(real + real.T).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 17])
    @pytest.mark.parametrize("branch", BOTH)
    def test_invariant_residuals(self, n, branch):
        res = generator_residuals(log_shift_generator(n, branch))
        assert res.skew <= 1e-10
        assert res.exp_vs_shift <= 1e-9
        assert res.circulant <= 1e-10

    @pytest.mark.parametrize("delta", [1e-3, -0.25])
    @pytest.mark.parametrize("branch", BOTH)
    def test_circulant_residual_catches_a_moved_entry(self, branch, delta):
        """One entry off row 0 moved by delta leaves a matrix |delta| from circulant."""
        gen = log_shift_generator(6, branch)
        matrix = gen.matrix.copy()
        matrix[3, 1] += delta
        res = generator_residuals(ShiftGenerator(gen.n, gen.branch, matrix))
        assert res.circulant == pytest.approx(abs(delta), abs=1e-12)

    def test_n1_residuals_exactly_zero(self):
        res = generator_residuals(log_shift_generator(1, RAW))
        assert res.skew == 0.0
        assert res.exp_vs_shift == 0.0
        assert res.circulant == 0.0

    def test_centered_odd_skew_residual(self):
        res = generator_residuals(log_shift_generator(7, CENTERED))
        assert res.skew <= 1e-10

    @pytest.mark.parametrize("branch", BOTH)
    def test_scipy_expm_cross_check(self, branch):
        for n in (3, 6):
            gen = log_shift_generator(n, branch)
            np.testing.assert_allclose(
                scipy.linalg.expm(gen.matrix), shift_matrix(n, 1), atol=1e-9
            )


class TestCaches:
    """dft_matrix and log_shift_generator return one shared read-only value per key."""

    def test_repeated_calls_return_the_same_object(self):
        assert dft_matrix(8) is dft_matrix(8)
        assert log_shift_generator(8) is log_shift_generator(8, CENTERED)
        assert log_shift_generator(8, RAW) is log_shift_generator(8, RAW)
        assert log_shift_generator(8, RAW) is not log_shift_generator(8, CENTERED)

    @pytest.mark.parametrize(
        "shared",
        [lambda: dft_matrix(4), lambda: log_shift_generator(4, RAW).matrix],
        ids=["dft_matrix", "generator"],
    )
    def test_shared_matrices_are_read_only(self, shared):
        with pytest.raises(ValueError, match="read-only"):
            shared()[0, 0] = 1.0
        assert shared()[0, 0] != 1.0

    def test_equal_counts_share_one_entry(self):
        """np.array(8) is unhashable, so the count is validated before the cache sees it."""
        counts = (8, 8.0, np.int64(8), np.array(8))
        assert all(dft_matrix(n) is dft_matrix(8) for n in counts)
        assert all(log_shift_generator(n, RAW) is log_shift_generator(8, RAW) for n in counts)

    def test_one_sweep_pass_keeps_its_first_entries(self):
        """The invariant sweep's generator checks cycle through n = 1..32 and both branches.

        An LRU cache smaller than that cycle would have evicted the first key
        by the time the cycle comes back to it, and miss on every call.
        """
        first_gen = log_shift_generator(1, RAW)
        first_dft = dft_matrix(1)
        for n in range(1, 33):
            for branch in SpectralBranch:
                generator_residuals(log_shift_generator(n, branch))
        assert log_shift_generator(1, RAW) is first_gen
        assert dft_matrix(1) is first_dft

    @pytest.mark.parametrize("n", range(1, 65))
    def test_cached_values_equal_the_formula_bytewise(self, n):
        j = np.arange(n)
        fmat = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
        assert dft_matrix(n).tobytes() == fmat.tobytes()
        for branch in BOTH:
            k = np.arange(n)
            if branch is CENTERED:
                k = np.where(2 * k <= n, k, k - n)
            theta = 2.0 * np.pi * k / n
            want = fmat.conj().T @ (1j * theta[:, None] * fmat)
            assert log_shift_generator(n, branch).matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 33))
    def test_residuals_equal_the_norm_formulas_exactly(self, n):
        """Kept per-size constants and the ravel-and-dot norm change no bit of the residuals."""
        for branch in BOTH:
            gen = log_shift_generator(n, branch)
            moved = gen.matrix.copy()
            moved[n // 2, 0] += 1e-3
            for a in (gen.matrix, moved):
                fmat = dft_matrix(n)
                exp_a = fmat.conj().T @ (np.exp(np.sqrt(n) * (fmat @ a[:, 0]))[:, None] * fmat)
                j = np.arange(n)
                want = (
                    float(np.linalg.norm(a + a.conj().T)),
                    float(np.linalg.norm(exp_a - shift_matrix(n, 1))),
                    float(np.linalg.norm(a - a[0][(j[None, :] - j[:, None]) % n])),
                )
                res = generator_residuals(ShiftGenerator(n, branch, a))
                assert (res.skew, res.exp_vs_shift, res.circulant) == want
        assert not any(c.flags.writeable for c in spectral._residual_constants(n))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: dft_matrix(0),
            lambda: dft_matrix(2.5),
            lambda: log_shift_generator(2.5),
            lambda: log_shift_generator(5, "raw"),
        ],
        ids=["dft_matrix(0)", "dft_matrix(2.5)", "log_shift_generator(2.5)",
             "log_shift_generator(5, 'raw')"],
    )
    def test_a_refused_call_leaves_the_caches_untouched(self, call):
        before = (spectral._dft_matrix.cache_info(), spectral._log_shift_generator.cache_info())
        with pytest.raises(ValueError):
            call()
        after = (spectral._dft_matrix.cache_info(), spectral._log_shift_generator.cache_info())
        assert after == before


class TestRollContinuous:
    @pytest.mark.parametrize("branch", BOTH)
    def test_zero_shift_is_identity(self, branch):
        rng = np.random.default_rng(3)
        q = rng.standard_normal(7)
        np.testing.assert_allclose(roll_continuous(q, 0.0, 1.0, branch), q, atol=1e-12)

    @pytest.mark.parametrize("branch", BOTH)
    def test_integer_shift_matches_discrete(self, branch):
        q = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(
            roll_continuous(q, 2.0, 1.0, branch), roll_discrete(q, 2), atol=1e-9
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 64])
    @pytest.mark.parametrize("branch", BOTH)
    def test_integer_consistency_sweep(self, n, branch):
        rng = np.random.default_rng(n)
        q = rng.standard_normal(n)
        for s in (-2 * n + 1, -3, -1, 0, 1, 2, n, 2 * n + 1):
            np.testing.assert_allclose(
                roll_continuous(q, float(s), 1.0, branch),
                roll_discrete(q, s),
                atol=1e-9,
            )

    def test_half_step_against_dense_exponential(self):
        """Fractional shift of a one-hot equals expm((p/lam) A) q and keeps norm."""
        q = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        gen = log_shift_generator(5, CENTERED)
        want = scipy.linalg.expm(0.5 * gen.matrix) @ q
        got = roll_continuous(q, 0.5, 1.0, CENTERED)
        np.testing.assert_allclose(got, want.real, atol=1e-10)
        assert abs(np.linalg.norm(got) - np.linalg.norm(q)) <= 1e-10

    def test_group_property_centered_odd(self):
        """exp((a+c)A) = exp(aA) exp(cA) holds on real vectors for odd n."""
        rng = np.random.default_rng(8)
        q = rng.standard_normal(9)
        for a, c in ((0.3, 1.4), (-2.2, 0.9), (5.5, -7.75)):
            two_step = roll_continuous(roll_continuous(q, a), c)
            np.testing.assert_allclose(two_step, roll_continuous(q, a + c), atol=1e-9)

    def test_group_property_even_without_nyquist(self):
        """Even n composes once the (cos-damped) Nyquist component is absent."""
        rng = np.random.default_rng(9)
        q = rng.standard_normal(8)
        spec = np.fft.fft(q)
        spec[4] = 0.0
        q = np.fft.ifft(spec).real
        two_step = roll_continuous(roll_continuous(q, 0.7), -2.1)
        np.testing.assert_allclose(two_step, roll_continuous(q, -1.4), atol=1e-9)

    @pytest.mark.parametrize("branch", BOTH)
    def test_group_property_integer_steps(self, branch):
        rng = np.random.default_rng(10)
        q = rng.standard_normal(6)
        two_step = roll_continuous(roll_continuous(q, 2.0, 1.0, branch), 3.0, 1.0, branch)
        np.testing.assert_allclose(two_step, roll_continuous(q, 5.0, 1.0, branch), atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 9, 17])
    def test_isometry_odd(self, n):
        rng = np.random.default_rng(n)
        q = rng.standard_normal(n)
        for p in (0.25, 1.5, -3.7):
            out = roll_continuous(q, p, 1.0, CENTERED)
            assert abs(np.linalg.norm(out) - np.linalg.norm(q)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_even_norm_loss_is_exactly_nyquist_energy(self, n):
        """||q||^2 - ||out||^2 = sin(pi p / lam)^2 |Fq_{n/2}|^2."""
        rng = np.random.default_rng(n + 1)
        q = rng.standard_normal(n)
        lam, p = 1.0, 0.3
        out = roll_continuous(q, p, lam, CENTERED)
        nyq_energy = abs(np.fft.fft(q)[n // 2] / np.sqrt(n)) ** 2
        lost = q @ q - out @ out
        assert abs(lost - np.sin(np.pi * p / lam) ** 2 * nyq_energy) <= 1e-10

    def test_even_isometry_without_nyquist(self):
        rng = np.random.default_rng(12)
        q = rng.standard_normal(8)
        spec = np.fft.fft(q)
        spec[4] = 0.0
        q = np.fft.ifft(spec).real
        out = roll_continuous(q, 0.3, 1.0, CENTERED)
        assert abs(np.linalg.norm(out) - np.linalg.norm(q)) <= 1e-10

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 33),
        lam=st.floats(0.25, 4.0),
        p=st.floats(-50.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raw_keeps_the_mean_and_damps_the_rest_by_cos(self, n, lam, p, seed):
        """RAW(q, p) - mean has norm |cos(pi p / lam)| ||q - mean||, odd and even n."""
        q = np.random.default_rng(seed).standard_normal(n)
        out = roll_continuous(q, p, lam, RAW)
        mean = q.mean()
        rest = float(np.linalg.norm(q - mean))
        assert abs(out.mean() - mean) <= 1e-12 * float(np.linalg.norm(q))
        damped = abs(math.cos(math.pi * p / lam)) * rest
        assert abs(float(np.linalg.norm(out - mean)) - damped) <= 1e-12 * rest

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("p", [0.5, 1.5, -2.5])
    def test_raw_at_half_integer_shift_is_only_the_mean(self, n, p):
        q = np.arange(1.0, n + 1.0)
        np.testing.assert_allclose(
            roll_continuous(q, 2.0 * p, 2.0, RAW), np.full(n, q.mean()), atol=1e-12
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("branch", BOTH)
    def test_periodicity_with_wavelength(self, lam, branch):
        rng = np.random.default_rng(17)
        for n in (4, 7):
            q = rng.standard_normal(n)
            for p in (0.0, 0.6, -4.3):
                np.testing.assert_allclose(
                    roll_continuous(q, p + lam * n, lam, branch),
                    roll_continuous(q, p, lam, branch),
                    atol=1e-9,
                )

    def test_branches_disagree_at_fractional_shift(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal(4)
        gap = np.abs(
            roll_continuous(q, 0.5, 1.0, RAW) - roll_continuous(q, 0.5, 1.0, CENTERED)
        ).max()
        assert gap > 1e-3

    def test_rejects_bad_arguments(self):
        q = np.ones(4)
        with pytest.raises(ValueError):
            roll_continuous(q, np.nan)
        with pytest.raises(ValueError):
            roll_continuous(q, np.inf)
        with pytest.raises(ValueError):
            roll_continuous(q, 1.0, lam=0.0)
        with pytest.raises(ValueError):
            roll_continuous(q, 1.0, lam=-2.0)


class TestRollContinuousFft:
    """The FFT implementation against the dense DFT oracle."""

    def test_matches_dense_path(self):
        """Random (q, p, lam) across odd and even sizes, both branches."""
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(20):
            for n in (1, 2, 3, 4, 5, 16, 17, 64):
                for branch in BOTH:
                    q = rng.standard_normal(n)
                    lam = float(rng.uniform(0.5, 3.0))
                    p = float(rng.uniform(-2 * lam * n, 2 * lam * n))
                    gap = np.abs(
                        roll_continuous(q, p, lam, branch) - _dense_roll(q, p, lam, branch)
                    ).max()
                    worst = max(worst, float(gap))
        assert worst <= 1e-9

    def test_zero_shift(self):
        q = np.arange(1.0, 7.0)
        for branch in BOTH:
            np.testing.assert_allclose(roll_continuous(q, 0.0, 1.0, branch), q, atol=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_full_period(self, lam):
        rng = np.random.default_rng(21)
        q = rng.standard_normal(12)
        for branch in BOTH:
            np.testing.assert_allclose(
                roll_continuous(q, 12 * lam, lam, branch), q, atol=1e-9
            )

    def test_rejects_bad_arguments(self):
        for q in (np.ones((2, 4)), np.ones(0)):
            with pytest.raises(ValueError):
                roll_continuous(q, 0.5)

    def test_nan_input_raises_instead_of_returning_nan(self):
        """roll_continuous checks its own rows: a NaN in q raises FloatingPointError."""
        with pytest.raises(FloatingPointError):
            roll_continuous(np.array([np.nan, 1.0, 2.0]), 0.5)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 5, 8, 9, 16]),
        branch=st.sampled_from(BOTH),
        lam=st.sampled_from([0.5, 1.0, 2.0]),
        steps=st.integers(-(10**15), 10**15),
    )
    def test_huge_integer_positions_match_discrete(self, n, branch, lam, steps):
        """Reducing p modulo lam * n keeps |p| up to 1e15 exact to machine precision.

        Power-of-two wavelengths keep steps * lam exact in float64.
        """
        q = np.random.default_rng(n).standard_normal(n)
        got = roll_continuous(q, steps * lam, lam, branch)
        np.testing.assert_allclose(got, roll_discrete(q, steps), rtol=0, atol=1e-12)


class TestRollContinuousStack:
    """A (t, n) stack rolls row i by p[i] in one call."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 33),
        branch=st.sampled_from(BOTH),
        lam=st.floats(0.25, 4.0),
        positions=st.lists(
            st.floats(-1e15, 1e15, allow_nan=False), min_size=1, max_size=6, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_dense_oracle(self, n, branch, lam, positions, seed):
        """Row by row against the dense DFT oracle, at p reduced by the exact period lam * n."""
        q = np.random.default_rng(seed).standard_normal((len(positions), n))
        got = roll_continuous(q, np.array(positions), lam, branch)
        assert got.shape == q.shape
        for row, p, out in zip(q, positions, got):
            want = _dense_roll(row, math.fmod(p, lam * n), lam, branch)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("branch", BOTH)
    def test_one_row_stack_is_the_vector_call(self, branch):
        q = np.random.default_rng(8).standard_normal(7)
        np.testing.assert_array_equal(
            roll_continuous(q[None], [2.3], 1.5, branch)[0], roll_continuous(q, 2.3, 1.5, branch)
        )


def _with_entry(bad, n):
    q = np.arange(1.0, n + 1.0)
    q[1] = bad
    return q


_NON_FINITE = {
    f"roll_continuous-n{n}-{branch.value}-{bad}": (
        lambda n=n, branch=branch, bad=bad: roll_continuous(_with_entry(bad, n), 0.5, 1.0, branch)
    )
    for n in (4, 5)
    for branch in BOTH
    for bad in (math.nan, math.inf, -math.inf)
}
_NON_FINITE["lipschitz_gap"] = lambda: lipschitz_gap(_with_entry(math.nan, 4), 0.5)
_NON_FINITE["equivalence_residual"] = lambda: equivalence_residual(
    _with_entry(math.nan, 4), np.ones(4), 0.5, 1.5
)


@pytest.mark.parametrize("call", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_non_finite_input_raises(call):
    """NaN or +-inf in q raises for every size and branch instead of returning NaN."""
    with pytest.raises(FloatingPointError):
        call()
