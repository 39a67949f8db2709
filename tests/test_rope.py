"""Tests for rotary encodings, schedules, and the roll correspondence."""

import math

import numpy as np
import pytest

from rollpe.rope import (
    FrequencySchedule,
    classic_schedule,
    equivalence_residual,
    realified_fourier_basis,
    roll_induced_schedule,
    rope_apply,
)
from rollpe.roll_core import rollpe_score
from rollpe.spectral import SpectralBranch, log_shift_generator


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestRopeApply:
    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        sched = FrequencySchedule(np.array([0.3, 1.1, 2.0]))
        np.testing.assert_array_equal(rope_apply(v, 0.0, sched), v)

    def test_zero_frequency_freezes_pair(self):
        sched = FrequencySchedule(np.array([0.0]))
        np.testing.assert_allclose(rope_apply([1.0, 0.0], 17.3, sched), [1.0, 0.0])

    def test_quarter_and_half_turns(self):
        sched = FrequencySchedule(np.array([np.pi / 2, np.pi]))
        got = rope_apply([1.0, 0.0, 1.0, 0.0], 1.0, sched)
        np.testing.assert_allclose(got, [0.0, 1.0, -1.0, 0.0], atol=1e-12)

    def test_blockwise_rotation_oracle(self):
        """Each pair is rotated by its own explicit 2x2 rotation matrix."""
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8)
        omegas = np.array([0.4, 1.3, 2.2, 3.0])
        p = 0.77
        got = rope_apply(v, p, FrequencySchedule(omegas))
        for i, omega in enumerate(omegas):
            want = _rotation(p * omega) @ v[2 * i : 2 * i + 2]
            np.testing.assert_allclose(got[2 * i : 2 * i + 2], want, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stack_matches_explicit_rotations(self, m):
        """Row i of a (t, 2m) stack is rotated at p[i], pair by pair."""
        rng = np.random.default_rng(50 + m)
        sched = FrequencySchedule(rng.uniform(0.0, 3.0, size=m))
        x = rng.standard_normal((6, 2 * m))
        positions = rng.uniform(-1e3, 1e3, size=6)
        got = rope_apply(x, positions, sched)
        assert got.shape == x.shape
        for out, row, p in zip(got, x, positions):
            for i, omega in enumerate(sched.omegas):
                want = _rotation(p * omega) @ row[2 * i : 2 * i + 2]
                np.testing.assert_allclose(out[2 * i : 2 * i + 2], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda rng: rng.standard_normal((5, 6)),
            lambda rng: np.asfortranarray(rng.standard_normal((5, 6))),
            lambda rng: np.asfortranarray(rng.standard_normal((2, 5, 6))),
            lambda rng: rng.standard_normal((5, 12))[:, ::2],
            lambda rng: rng.standard_normal((10, 6))[::2],
            lambda rng: rng.standard_normal((5, 7))[:, 1:],
            lambda rng: rng.standard_normal((2, 5, 7))[:, :, 1:],
        ],
        ids=[
            "contiguous", "fortran", "fortran-row-sets", "strided-columns",
            "strided-rows", "offset", "offset-row-sets",
        ],
    )
    def test_any_memory_layout_matches_a_contiguous_copy(self, layout):
        """Pairs are read from a contiguous copy when they must be: the result
        is bit for bit that of the copy, and the caller's array is untouched."""
        rng = np.random.default_rng(57)
        x = layout(rng)
        before = x.copy()
        positions = rng.uniform(-1e3, 1e3, size=x.shape[-2])
        sched = classic_schedule(6)
        got = rope_apply(x, positions, sched)
        np.testing.assert_array_equal(got, rope_apply(np.ascontiguousarray(x), positions, sched))
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, bad):
        """NaN or +-inf in v raises instead of coming back rotated into other slots."""
        with pytest.raises(FloatingPointError):
            rope_apply([bad, 1.0, 2.0, 3.0], 0.5, classic_schedule(4))

    def test_isometry(self):
        rng = np.random.default_rng(6)
        sched = classic_schedule(10)
        for p in (0.1, -7.7, 42.0):
            v = rng.standard_normal(10)
            assert abs(np.linalg.norm(rope_apply(v, p, sched)) - np.linalg.norm(v)) <= 1e-12

    def test_relativity(self):
        """Scores move only with the position difference."""
        rng = np.random.default_rng(7)
        sched = classic_schedule(8)
        q, k = rng.standard_normal((2, 8))
        for p_q, p_k in ((0.5, 2.25), (-3.0, 1.0), (10.0, 10.0)):
            lhs = rope_apply(q, p_q, sched) @ rope_apply(k, p_k, sched)
            rhs = rope_apply(q, 0.0, sched) @ rope_apply(k, p_k - p_q, sched)
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize(
        "p, sched",
        [(1e8, FrequencySchedule([1e300])), (-1e7, roll_induced_schedule(8, 1e-300))],
        ids=["huge-frequency", "roll-induced-tiny-lambda"],
    )
    def test_finite_angles_at_huge_frequencies_pass(self, p, sched):
        v = np.arange(1.0, 2 * sched.planes + 1)
        out = rope_apply(v, p, sched)
        assert np.isfinite(out).all()
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)

    def test_rejects_odd_length_and_mismatch(self):
        sched = FrequencySchedule(np.array([1.0]))
        with pytest.raises(ValueError):
            rope_apply([1.0, 2.0, 3.0], 1.0, sched)
        with pytest.raises(ValueError):
            rope_apply([1.0, 2.0, 3.0, 4.0], 1.0, sched)


class TestSchedules:
    def test_classic_n2(self):
        np.testing.assert_allclose(classic_schedule(2).omegas, [1.0])

    def test_classic_n4(self):
        np.testing.assert_allclose(classic_schedule(4).omegas, [1.0, 0.01])

    def test_classic_n8_third_plane(self):
        assert classic_schedule(8).omegas[3] == pytest.approx(10000.0 ** (-6.0 / 8.0))

    def test_classic_rejects_odd(self):
        with pytest.raises(ValueError, match="even integer, got 7"):
            classic_schedule(7)

    def test_classic_omegas_are_read_only(self):
        sched = classic_schedule(8)
        assert not sched.omegas.flags.writeable
        with pytest.raises(ValueError):
            sched.omegas[0] = 2.0
        np.testing.assert_array_equal(sched.omegas, 10000.0 ** (-np.arange(4) / 4.0))

    @pytest.mark.parametrize("n", [8, 8.0, np.int64(8), np.array(8)], ids=repr)
    def test_classic_accepts_integral_values(self, n):
        """Integral spellings of n give one shared schedule, equal call after call."""
        first, second = classic_schedule(n), classic_schedule(n)
        assert first == second
        assert first is classic_schedule(8)

    def test_roll_induced_n4_single_plane(self):
        sched = roll_induced_schedule(4, 1.0)
        np.testing.assert_allclose(sched.omegas, [np.pi / 2])

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_roll_induced_matches_generator_spectrum(self, n):
        """Plane frequencies are the positive eigen-angles of the centered log."""
        gen = log_shift_generator(n, SpectralBranch.CENTERED)
        angles = np.sort(np.linalg.eigvals(gen.matrix).imag)
        positive = angles[(angles > 1e-9) & (angles < np.pi - 1e-9)]
        np.testing.assert_allclose(
            np.sort(roll_induced_schedule(n, 1.0).omegas), positive, atol=1e-9
        )

    def test_roll_induced_n5(self):
        np.testing.assert_allclose(
            roll_induced_schedule(5, 1.0).omegas, [2 * np.pi / 5, 4 * np.pi / 5]
        )

    def test_roll_induced_wavelength_scaling(self):
        np.testing.assert_allclose(
            roll_induced_schedule(5, 2.0).omegas, [np.pi / 5, 2 * np.pi / 5]
        )

    def test_roll_induced_plane_count(self):
        # DC never carries a plane; even n also reserves the Nyquist slot.
        assert roll_induced_schedule(3).planes == 1
        assert roll_induced_schedule(4).planes == 1
        assert roll_induced_schedule(8).planes == 3
        assert roll_induced_schedule(9).planes == 4

    def test_schedules_do_not_coincide_under_lambda_matching(self):
        """|2 pi k / (lam n)| with lam = pi/ln(10000) stays away from the
        classic exponentials: the extra exponentiation is not a rescaling."""
        lam = math.pi / math.log(10000.0)
        induced = roll_induced_schedule(8, lam).omegas
        classic = classic_schedule(8).omegas
        overlap = min(len(induced), len(classic))
        assert np.abs(induced[:overlap] - classic[:overlap]).max() > 1e-2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            roll_induced_schedule(0)
        with pytest.raises(ValueError):
            roll_induced_schedule(4, lam=0.0)
        with pytest.raises(ValueError):
            FrequencySchedule(np.array([np.inf]))


class TestRealifiedBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 17])
    def test_orthogonal(self, n):
        u = realified_fourier_basis(n)
        assert u.shape == (n, n)
        np.testing.assert_allclose(u @ u.T, np.eye(n), atol=1e-12)

    def test_dc_row_is_uniform(self):
        np.testing.assert_allclose(realified_fourier_basis(4)[0], np.full(4, 0.5))

    def test_nyquist_row_alternates(self):
        np.testing.assert_allclose(
            realified_fourier_basis(4)[-1], np.array([1, -1, 1, -1]) / 2.0
        )


class TestEquivalenceResidual:
    def test_zero_positions(self):
        rng = np.random.default_rng(1)
        q, k = rng.standard_normal((2, 8))
        assert equivalence_residual(q, k, 0.0, 0.0, 1.0) < 1e-12

    def test_generic_fractional_positions(self):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((2, 8))
        assert equivalence_residual(q, k, 1.3, -2.7, 1.0) < 1e-9

    def test_equal_positions_reduce_to_plain_dot(self):
        rng = np.random.default_rng(3)
        q, k = rng.standard_normal((2, 5))
        assert equivalence_residual(q, k, 10.0, 10.0, 3.0) < 1e-12

    def test_sweep_over_sizes_and_wavelengths(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for n in (3, 4, 5, 8, 16, 17):
            for lam in (0.5, 1.0, 2.0):
                for _ in range(12):
                    q, k = rng.standard_normal((2, n))
                    p_q, p_k = rng.uniform(-3 * n, 3 * n, size=2)
                    worst = max(worst, equivalence_residual(q, k, p_q, p_k, lam))
        assert worst <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalence_residual(np.ones(4), np.ones(5), 0.0, 0.0)

    def test_finite_angles_at_tiny_lambda_give_finite_residuals(self):
        rng = np.random.default_rng(6)
        q, k = rng.standard_normal((2, 20, 8))
        p_q, p_k = rng.uniform(-24.0, 24.0, size=(2, 20))
        assert np.isfinite(equivalence_residual(q, k, p_q, p_k, 1e-306)).all()


class TestArgmaxStability:
    def test_low_pass_self_score_peaks_at_zero_offset(self):
        """A smooth (DC + fundamental) vector scores itself highest in place."""
        n = 16
        j = np.arange(n)
        q = 1.0 + 0.7 * np.cos(2 * np.pi * (j + 2) / n)
        scores = [rollpe_score(q, q, 0, delta) for delta in range(n)]
        assert int(np.argmax(scores)) == 0
        assert all(scores[0] > s for s in scores[1:])
