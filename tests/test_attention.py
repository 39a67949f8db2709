"""Tests for the attention layer and its pluggable encodings."""

import numpy as np
import pytest

from rollpe.attention import (
    AttentionBatch,
    PEConfig,
    PEKind,
    attend,
    axial_encode,
    grad_check,
    sinusoidal_ape,
)
from rollpe import attention
from rollpe.attention import _encode_row, _loss_grad_fd, _softmax_rows
from rollpe.roll_core import roll_discrete
from rollpe.rope import classic_schedule, rope_apply
from rollpe.spectral import SpectralBranch, roll_continuous

ALL_KINDS = list(PEKind)


def _batch(rng, t, n, positions=None):
    q, k, v = rng.standard_normal((3, t, n))
    if positions is None:
        positions = np.arange(t)
    return AttentionBatch(q, k, v, positions)


def _pe(kind, **kwargs):
    return PEConfig(kind=kind, **kwargs)


class TestAttend:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_token_scores_one(self, kind):
        rng = np.random.default_rng(0)
        batch = _batch(rng, 1, 8)
        out = attend(batch, _pe(kind, waves=2))
        np.testing.assert_allclose(out.scores, [[1.0]])

    def test_score_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = attend(_batch(rng, 6, 8), _pe(PEKind.ROPE))
        np.testing.assert_allclose(out.scores.sum(axis=1), np.ones(6), atol=1e-10)
        assert (out.scores >= 0).all()

    def test_equal_positions_match_no_encoding(self):
        """A common roll moves every row by the same isometry: scores unchanged."""
        rng = np.random.default_rng(2)
        batch = _batch(rng, 5, 8, positions=np.full(5, 3))
        plain = attend(batch, _pe(PEKind.NONE))
        rolled = attend(batch, _pe(PEKind.ROLL_DISCRETE))
        np.testing.assert_allclose(rolled.scores, plain.scores, atol=1e-12)
        np.testing.assert_allclose(rolled.output, plain.output, atol=1e-12)

    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.ROLL_DISCRETE),
            _pe(PEKind.ROLL_CONTINUOUS, lam=1.0),
            _pe(PEKind.ROPE),
        ],
        ids=["roll-discrete", "roll-continuous", "rope"],
    )
    def test_translation_invariance_1d(self, pe):
        rng = np.random.default_rng(3)
        q, k, v = rng.standard_normal((3, 6, 8))
        base = attend(AttentionBatch(q, k, v, np.arange(6)), pe)
        moved = attend(AttentionBatch(q, k, v, np.arange(6) + 3), pe)
        np.testing.assert_allclose(moved.scores, base.scores, atol=1e-12)

    def test_translation_invariance_continuous_real_positions_odd_half(self):
        """Odd dimension: fractional positions are exactly relative too."""
        rng = np.random.default_rng(4)
        q, k, v = rng.standard_normal((3, 5, 9))
        pos = rng.uniform(-4.0, 4.0, size=5)
        pe = _pe(PEKind.ROLL_CONTINUOUS, lam=1.5)
        base = attend(AttentionBatch(q, k, v, pos), pe)
        moved = attend(AttentionBatch(q, k, v, pos + 2), pe)
        np.testing.assert_allclose(moved.scores, base.scores, atol=1e-12)

    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.ROLL_DISCRETE, axial=True),
            _pe(PEKind.ROLL_CONTINUOUS, axial=True),
            _pe(PEKind.ROPE, axial=True),
        ],
        ids=["roll-discrete", "roll-continuous", "rope"],
    )
    def test_translation_invariance_axial(self, pe):
        rng = np.random.default_rng(5)
        q, k, v = rng.standard_normal((3, 6, 8))
        pos = np.stack([np.arange(6), np.arange(6)[::-1]], axis=1)
        base = attend(AttentionBatch(q, k, v, pos), pe)
        moved = attend(AttentionBatch(q, k, v, pos + np.array([2, 5])), pe)
        np.testing.assert_allclose(moved.scores, base.scores, atol=1e-12)

    def test_multiplexed_breaks_translation_invariance(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.standard_normal((3, 6, 8))
        pe = _pe(PEKind.MULTIPLEXED_ROLL, waves=2)
        base = attend(AttentionBatch(q, k, v, np.arange(6)), pe)
        moved = attend(AttentionBatch(q, k, v, np.arange(6) + 3), pe)
        assert np.abs(moved.scores - base.scores).max() > 1e-3

    def test_d_override(self):
        rng = np.random.default_rng(7)
        batch = _batch(rng, 4, 8)
        hot = attend(batch, _pe(PEKind.NONE), d=1e-2)
        cold = attend(batch, _pe(PEKind.NONE), d=1e4)
        # smaller d sharpens the softmax
        assert hot.scores.max() > cold.scores.max()
        for bad in (0.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                attend(batch, _pe(PEKind.NONE), d=bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("kind", [PEKind.NONE, PEKind.ROLL_DISCRETE, PEKind.ROPE])
    def test_overflowing_logits_raise(self, kind):
        """Finite Q/K whose products overflow must not come back as NaN scores."""
        big = np.full((4, 8), 1e200)
        batch = AttentionBatch(big, big, np.ones((4, 8)), np.arange(4))
        with pytest.raises(FloatingPointError, match="overflow"):
            attend(batch, _pe(kind))
        mixed = big.copy()
        mixed[:, ::2] *= -1
        with pytest.raises(FloatingPointError, match="overflow"):
            # +inf and -inf products meet in one sum: NaN logits
            attend(AttentionBatch(big, mixed, np.ones((4, 8)), np.arange(4)), _pe(PEKind.NONE))

    def test_encoding_isometries(self):
        rng = np.random.default_rng(8)
        v9, v8 = rng.standard_normal(9), rng.standard_normal(8)
        for enc, vec, p in [
            (_pe(PEKind.ROLL_DISCRETE), v8, 4),
            (_pe(PEKind.ROLL_CONTINUOUS, lam=2.0), v9, 1.3),
            (_pe(PEKind.ROPE), v8, 2.6),
        ]:
            out = attend(
                AttentionBatch([vec], [vec], [vec], [p]), enc
            )
            assert out.scores.shape == (1, 1)
        # direct norm checks on the row maps
        assert abs(
            np.linalg.norm(roll_discrete(v8, 4)) - np.linalg.norm(v8)
        ) <= 1e-10
        assert abs(
            np.linalg.norm(roll_continuous(v9, 1.3, 2.0)) - np.linalg.norm(v9)
        ) <= 1e-10
        assert abs(
            np.linalg.norm(rope_apply(v8, 2.6, classic_schedule(8)))
            - np.linalg.norm(v8)
        ) <= 1e-10

    def test_arity_validation(self):
        rng = np.random.default_rng(9)
        q, k, v = rng.standard_normal((3, 4, 8))
        axial_pos = np.stack([np.arange(4), np.arange(4)], axis=1)
        with pytest.raises(ValueError):
            attend(AttentionBatch(q, k, v, axial_pos), _pe(PEKind.ROLL_DISCRETE))
        with pytest.raises(ValueError):
            attend(AttentionBatch(q, k, v, np.arange(4)), _pe(PEKind.ROLL_DISCRETE, axial=True))

    def test_divisibility_validation(self):
        rng = np.random.default_rng(10)
        q, k, v = rng.standard_normal((3, 3, 7))
        with pytest.raises(ValueError):
            attend(AttentionBatch(q, k, v, np.arange(3)), _pe(PEKind.ROPE))
        q6, k6, v6 = rng.standard_normal((3, 3, 6))
        pos2 = np.stack([np.arange(3), np.arange(3)], axis=1)
        with pytest.raises(ValueError):
            # halves of length 3 cannot host rotation pairs
            attend(AttentionBatch(q6, k6, v6, pos2), _pe(PEKind.ROPE, axial=True))

    def test_integer_position_enforcement(self):
        rng = np.random.default_rng(11)
        batch = _batch(rng, 3, 8, positions=np.array([0.0, 1.5, 2.0]))
        with pytest.raises(ValueError):
            attend(batch, _pe(PEKind.ROLL_DISCRETE))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=0.0)
        with pytest.raises(ValueError):
            PEConfig(kind=PEKind.MULTIPLEXED_ROLL, waves=0)

    @pytest.mark.parametrize("field", ["q", "k", "v", "positions"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, field, bad):
        rng = np.random.default_rng(12)
        arrays = dict(zip("qkv", rng.standard_normal((3, 4, 8))), positions=np.arange(4.0))
        arrays[field][1] = bad
        with pytest.raises(ValueError, match=field):
            AttentionBatch(**arrays)

    def test_position_magnitude_bound(self):
        """Integer positions from 2**53 on cannot be stored exactly and are refused."""
        rng = np.random.default_rng(21)
        q, k, v = rng.standard_normal((3, 2, 8))
        limit = 2**53
        for bad in (limit, limit + 1, -limit, 2**70):
            with pytest.raises(ValueError, match="positions"):
                AttentionBatch(q, k, v, np.array([0, bad], dtype=object))
        with pytest.raises(ValueError, match="positions"):
            AttentionBatch(q, k, v, np.array([0, limit + 1], dtype=np.int64))
        edge = AttentionBatch(q, k, v, [0, limit - 1])
        assert edge.positions[1] == limit - 1
        out = attend(edge, _pe(PEKind.ROLL_DISCRETE))
        np.testing.assert_allclose(out.scores.sum(axis=1), np.ones(2), atol=1e-12)
        # fractional positions up to 1e15 stay accepted
        frac = AttentionBatch(q, k, v, [1e15 + 0.375, -1e15 - 0.5])
        out = attend(frac, _pe(PEKind.ROLL_CONTINUOUS))
        assert np.isfinite(out.output).all()


class TestEncodeTranspose:
    """The transpose mode of the row encoder is the adjoint of the encoding."""

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.NONE),
            _pe(PEKind.SINUSOIDAL_APE),
            _pe(PEKind.ROLL_DISCRETE),
            _pe(PEKind.ROLL_CONTINUOUS, lam=1.3, branch=SpectralBranch.RAW),
            _pe(PEKind.ROLL_CONTINUOUS, lam=1.3, branch=SpectralBranch.CENTERED),
            _pe(PEKind.ROPE),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=3),
        ],
        ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}",
    )
    def test_adjoint_identity(self, pe, axial):
        """<enc(x) - enc(0), y> == <x, enc^T(y)> for the kind's positions."""
        rng = np.random.default_rng(13)
        n = 12
        integer = pe.kind in (
            PEKind.SINUSOIDAL_APE, PEKind.ROLL_DISCRETE, PEKind.MULTIPLEXED_ROLL
        )
        shape = (5, 2) if axial else (5,)
        if integer:
            positions = rng.integers(-20, 20, size=shape).astype(float)
        else:
            positions = rng.uniform(-20.0, 20.0, size=shape)
        for pos in positions:
            x, y = rng.standard_normal((2, n))
            linear = _encode_row(x, pos, pe, axial) - _encode_row(np.zeros(n), pos, pe, axial)
            adjoint = _encode_row(y, pos, pe, axial, transpose=True)
            assert abs(linear @ y - x @ adjoint) <= 1e-12


def _two_pass_reference(batch, pe):
    """Plain per-row encode, then logits, softmax and values, one array each."""
    rows = range(batch.tokens)
    pos = batch.positions
    enc_q = np.stack([_encode_row(batch.q[i], pos[i], pe, pe.axial) for i in rows])
    enc_k = np.stack([_encode_row(batch.k[i], pos[i], pe, pe.axial) for i in rows])
    logits = enc_q @ enc_k.T / np.sqrt(batch.dim)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    scores = e / e.sum(axis=1, keepdims=True)
    return scores @ batch.v, scores, logits


class TestAttentionCore:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_two_pass_reference(self, kind):
        rng = np.random.default_rng(22)
        batch = _batch(rng, 256, 16)
        pe = _pe(kind, waves=2)
        out = attend(batch, pe)
        for name, want in zip(("output", "scores", "logits"), _two_pass_reference(batch, pe)):
            np.testing.assert_allclose(getattr(out, name), want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_outputs_alias_nothing(self, kind):
        batch = _batch(np.random.default_rng(23), 6, 8)
        out = attend(batch, _pe(kind, waves=2))
        arrays = [out.output, out.scores, out.logits, batch.q, batch.k, batch.v, batch.positions]
        for i, a in enumerate(arrays[:3]):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((5, 5)) * 30
        np.testing.assert_allclose(_softmax_rows(z).sum(axis=1), np.ones(5), atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((4, 6))
        shifted = z.copy()
        shifted[2] += 11.25
        np.testing.assert_allclose(
            _softmax_rows(shifted), _softmax_rows(z), atol=1e-12
        )


class TestSinusoidalApe:
    def test_position_zero_alternates(self):
        row = sinusoidal_ape([0], 8)[0]
        np.testing.assert_allclose(row, [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_unit_frequency_dims(self):
        p = 2.3
        row = sinusoidal_ape([p], 6)[0]
        assert row[0] == pytest.approx(np.sin(p))
        assert row[1] == pytest.approx(np.cos(p))

    def test_distinct_positions_distinct_rows(self):
        table = sinusoidal_ape(np.arange(10), 16)
        gaps = np.linalg.norm(table[:, None, :] - table[None, :, :], axis=-1)
        off_diag = gaps[~np.eye(10, dtype=bool)]
        assert off_diag.min() > 0

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            sinusoidal_ape([0, 1], 7)


class TestAxialEncode:
    def test_zero_positions_identity_for_linear_kinds(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal(8)
        for kind in (PEKind.ROLL_DISCRETE, PEKind.ROLL_CONTINUOUS, PEKind.ROPE):
            got = axial_encode(v, (0, 0), _pe(kind, axial=True))
            np.testing.assert_allclose(got, v, atol=1e-12)

    def test_manual_split_oracle(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal(10)
        got = axial_encode(v, (3, 1), _pe(PEKind.ROLL_DISCRETE, axial=True))
        want = np.concatenate([roll_discrete(v[:5], 3), roll_discrete(v[5:], 1)])
        np.testing.assert_array_equal(got, want)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            axial_encode(np.ones(5), (0, 0), _pe(PEKind.ROLL_DISCRETE, axial=True))


class TestGradCheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind(self, kind):
        rng = np.random.default_rng(16)
        batch = _batch(rng, 3, 4) if kind is PEKind.NONE else _batch(rng, 4, 8)
        assert grad_check(_pe(kind, waves=2), batch, eps=1e-5) < 1e-5

    @pytest.mark.parametrize("kind", [PEKind.ROLL_DISCRETE, PEKind.ROPE])
    def test_axial_kinds(self, kind):
        rng = np.random.default_rng(17)
        q, k, v = rng.standard_normal((3, 4, 8))
        pos = np.stack([np.arange(4), 2 * np.arange(4)], axis=1)
        batch = AttentionBatch(q, k, v, pos)
        assert grad_check(_pe(kind, axial=True), batch, eps=1e-5) < 1e-5

    def test_continuous_fractional_positions(self):
        rng = np.random.default_rng(18)
        q, k, v = rng.standard_normal((3, 4, 8))
        batch = AttentionBatch(q, k, v, rng.uniform(-3, 3, size=4))
        pe = _pe(PEKind.ROLL_CONTINUOUS, lam=1.5)
        assert grad_check(pe, batch, eps=1e-5) < 1e-5

    def test_continuous_raw_branch(self):
        """The transpose-at-(-p) identity also holds for the raw spectrum."""
        rng = np.random.default_rng(20)
        q, k, v = rng.standard_normal((3, 4, 8))
        batch = AttentionBatch(q, k, v, rng.uniform(-3, 3, size=4))
        pe = _pe(PEKind.ROLL_CONTINUOUS, lam=0.8, branch=SpectralBranch.RAW)
        assert grad_check(pe, batch, eps=1e-5) < 1e-5

    def test_eps_bounds(self):
        rng = np.random.default_rng(19)
        batch = _batch(rng, 2, 4)
        with pytest.raises(ValueError):
            grad_check(_pe(PEKind.NONE), batch, eps=1e-8)
        with pytest.raises(ValueError):
            grad_check(_pe(PEKind.NONE), batch, eps=1e-2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        big = np.full((3, 8), 1e200)
        batch = AttentionBatch(big, big, np.ones((3, 8)), np.arange(3))
        with pytest.raises(FloatingPointError):
            grad_check(_pe(PEKind.ROLL_DISCRETE), batch)


def _whole_attend_fd(batch, pe, eps):
    """The central difference of the summed output, one whole attend per bump."""
    fd = np.empty(batch.q.shape)
    for i in range(batch.tokens):
        for j in range(batch.dim):
            loss = []
            for sign in (+1.0, -1.0):
                bumped = np.array(batch.q)
                bumped[i, j] += sign * eps
                shifted = AttentionBatch(bumped, batch.k, batch.v, batch.positions)
                loss.append(float(attend(shifted, pe).output.sum()))
            fd[i, j] = (loss[0] - loss[1]) / (2.0 * eps)
    return fd


_GRAD_CONFIGS = [
    _pe(PEKind.NONE),
    _pe(PEKind.SINUSOIDAL_APE),
    _pe(PEKind.ROLL_DISCRETE),
    _pe(PEKind.ROLL_CONTINUOUS, lam=1.5, branch=SpectralBranch.CENTERED),
    _pe(PEKind.ROLL_CONTINUOUS, lam=0.8, branch=SpectralBranch.RAW),
    _pe(PEKind.ROPE),
    _pe(PEKind.MULTIPLEXED_ROLL, waves=2),
]


class TestRowLocalDifferences:
    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe", _GRAD_CONFIGS, ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}")
    def test_match_whole_attend_differences(self, pe, axial):
        rng = np.random.default_rng(24)
        t, n = 4, 8
        shape = (t, 2) if axial else (t,)
        if pe.kind in (PEKind.ROLL_CONTINUOUS, PEKind.ROPE):
            positions = rng.uniform(-5.0, 5.0, size=shape)
        else:
            positions = rng.integers(-5, 6, size=shape).astype(float)
        q, k, v = rng.standard_normal((3, t, n))
        batch = AttentionBatch(q, k, v, positions)
        pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
        got = _loss_grad_fd(batch, pe, 1e-5)
        np.testing.assert_allclose(got, _whole_attend_fd(batch, pe, 1e-5), rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.ROLL_DISCRETE),
            _pe(PEKind.ROLL_CONTINUOUS, lam=1.5),
            _pe(PEKind.ROPE),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=2),
        ],
        ids=lambda pe: pe.kind.value,
    )
    def test_catch_a_wrong_transpose(self, pe, monkeypatch):
        """With the forward map standing in for its transpose the check must fail."""
        forward = attention._encode_row

        def wrong(v, pos, pe, axial, transpose=False):
            return forward(v, pos, pe, axial)

        monkeypatch.setattr(attention, "_encode_row", wrong)
        rng = np.random.default_rng(25)
        q, k, v = rng.standard_normal((3, 4, 8))
        batch = AttentionBatch(q, k, v, np.array([0.0, 1.0, 3.0, 6.0]))
        assert grad_check(pe, batch) > 1e-2
