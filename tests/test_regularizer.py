"""Tests for the smoothness diagnostics and the cycle Laplacian loss.

``TestLipschitzOracle`` checks ``lipschitz_gap`` against closed forms
built from ``dft_matrix`` and ``branch_angles`` alone (plus the generator
for the small-shift limit), with no call into its roll: the distance at
one full wavelength is the Laplacian loss, the distance at any shift is a
Parseval sum over the centered spectrum, and at odd n the correlation
gap of a small shift is its second-order generator term.
"""

import math

import numpy as np
import pytest

from rollpe.regularizer import circular_laplacian_loss, lipschitz_gap
from rollpe.roll_core import roll_discrete
from rollpe.spectral import SpectralBranch, branch_angles, dft_matrix, log_shift_generator


def _mode(n, k):
    """Unit-normalized cosine mode at cycle frequency k."""
    v = np.cos(2 * np.pi * k * np.arange(n) / n)
    return v / np.linalg.norm(v)


class TestLipschitzGap:
    def test_zero_shift(self):
        rng = np.random.default_rng(0)
        rep = lipschitz_gap(rng.standard_normal(8), 0.0)
        assert rep.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.distance <= 1e-10
        assert rep.epsilon_bound == pytest.approx(0.0, abs=1e-12)

    def test_constant_vector_is_shift_invariant(self):
        rep = lipschitz_gap(np.full(9, 2.5), 3.7)
        assert rep.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.distance < 1e-10

    def test_one_hot_integer_shift(self):
        q = np.zeros(8)
        q[0] = 1.0
        rep = lipschitz_gap(q, 1.0)
        assert rep.correlation == pytest.approx(0.0, abs=1e-12)
        assert rep.distance == pytest.approx(np.sqrt(2.0) * np.linalg.norm(q), abs=1e-10)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -5.0])
    def test_distance_squared_identity_integer_shifts(self, delta):
        rng = np.random.default_rng(int(abs(delta)) + 1)
        q = rng.standard_normal(10)
        rep = lipschitz_gap(q, delta)
        norm_sq = q @ q
        assert rep.distance**2 == pytest.approx(
            2.0 * norm_sq * (1.0 - rep.correlation), abs=1e-10 * max(1.0, norm_sq)
        )

    def test_small_shift_high_correlation(self):
        rng = np.random.default_rng(5)
        rep = lipschitz_gap(rng.standard_normal(17), 0.01)
        assert rep.correlation > 0.99

    def test_unit_norm_correlation_bounds(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal(9)
        q /= np.linalg.norm(q)
        for dp in (0.3, 1.7, 4.2):
            rep = lipschitz_gap(q, dp)
            assert -1.0 - 1e-12 <= rep.correlation <= 1.0 + 1e-12
            assert rep.distance >= 0.0

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            lipschitz_gap(np.zeros(4), 1.0)


def _spectral_distance_sq(q, delta, lam):
    """||q - roll(q, delta)||^2 from the unitary DFT and the centered angles.

    Each bin k of F q turns by theta_k delta / lam, so it contributes
    2 |(F q)_k|^2 (1 - cos(theta_k delta / lam)); at even n the real
    Nyquist bin is scaled by cos(pi delta / lam) instead, contributing
    |(F q)_N|^2 (1 - cos(pi delta / lam))^2.
    """
    n = len(q)
    power = np.abs(dft_matrix(n) @ q) ** 2
    gap = 1.0 - np.cos(branch_angles(n, SpectralBranch.CENTERED) * delta / lam)
    terms = 2.0 * power * gap
    if n % 2 == 0:
        terms[n // 2] = power[n // 2] * gap[n // 2] ** 2
    return math.fsum(terms.tolist())


class TestLipschitzOracle:
    @pytest.mark.parametrize("n", [2, 7, 8, 13])
    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_one_wavelength_distance_is_the_laplacian_loss(self, n, lam):
        """A shift of one wavelength is one roll step, whose squared gap is the cycle loss."""
        q = np.random.default_rng(n).standard_normal(n)
        got = lipschitz_gap(q, lam, lam).distance ** 2
        want = circular_laplacian_loss(q)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [5, 8, 9, 16])
    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("delta", [0.3, -1.0, 2.5, 11.75])
    def test_distance_is_the_spectral_sum(self, n, lam, delta):
        q = np.random.default_rng([n, 1]).standard_normal(n)
        got = lipschitz_gap(q, delta, lam).distance ** 2
        want = _spectral_distance_sq(q, delta, lam)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [3, 7, 11])
    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_small_shift_correlation_gap_is_second_order(self, n, lam):
        """At odd n the generator A is real and skew, so 1 - c = (delta^2 / 2 lam^2) ||A q||^2 / ||q||^2
        up to a relative O(delta^2)."""
        delta = 1e-4
        q = np.random.default_rng([n, 2]).standard_normal(n)
        a_q = log_shift_generator(n).matrix @ q
        predicted = delta**2 / (2.0 * lam**2) * float(np.vdot(a_q, a_q).real) / (q @ q)
        ratio = lipschitz_gap(q, delta, lam).epsilon_bound / predicted
        assert abs(ratio - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [5, 9, 15])
    @pytest.mark.parametrize("delta", [0.37, -2.6, 7.1])
    def test_distance_squared_identity_odd_fractional_shifts(self, n, delta):
        """At odd n a fractional shift is an isometry too, so the two views describe one gap."""
        q = np.random.default_rng([n, 3]).standard_normal(n)
        rep = lipschitz_gap(q, delta)
        norm_sq = q @ q
        assert rep.distance**2 == pytest.approx(
            2.0 * norm_sq * (1.0 - rep.correlation), abs=1e-10 * max(1.0, norm_sq)
        )


class TestCircularLaplacianLoss:
    def test_constant_vector_nullspace(self):
        assert circular_laplacian_loss(np.full(6, 3.3)) == 0.0

    def test_one_hot(self):
        assert circular_laplacian_loss([1.0, 0.0, 0.0, 0.0]) == 2.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_eigen_identity(self, k):
        """Fourier modes scale the loss by the cycle eigenvalue 2 - 2cos(2 pi k/n)."""
        n = 8
        q = _mode(n, k)
        want = (2.0 - 2.0 * np.cos(2 * np.pi * k / n)) * (q @ q)
        assert circular_laplacian_loss(q) == pytest.approx(want, abs=1e-10)

    def test_eigen_identity_first_mode_unnormalized(self):
        n = 8
        q = np.cos(2 * np.pi * np.arange(n) / n)
        want = (2.0 - 2.0 * np.cos(2 * np.pi / n)) * (q @ q)
        assert circular_laplacian_loss(q) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("p", [-5, 0, 1, 3, 9])
    def test_shift_invariance_exact(self, p):
        rng = np.random.default_rng(p + 10)
        q = rng.standard_normal(11)
        assert circular_laplacian_loss(roll_discrete(q, p)) == circular_laplacian_loss(q)

    def test_monotone_in_frequency(self):
        """Lower cycle frequencies are strictly smoother."""
        n = 12
        losses = [circular_laplacian_loss(_mode(n, k)) for k in range(n // 2 + 1)]
        for low, high in zip(losses, losses[1:]):
            assert low < high

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError):
            circular_laplacian_loss([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(FloatingPointError):
            circular_laplacian_loss([bad, 1.0, 2.0])
