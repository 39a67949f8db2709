"""Tests for the smoothness diagnostics and the cycle Laplacian loss."""

import math

import numpy as np
import pytest

from rollpe.regularizer import circular_laplacian_loss, lipschitz_gap
from rollpe.roll_core import roll_discrete


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
