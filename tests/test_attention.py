"""Tests for the attention layer and its pluggable encodings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollpe.attention import (
    AttentionBatch,
    PEConfig,
    PEKind,
    attend,
    grad_check,
    sinusoidal_ape,
)
from rollpe import attention
from rollpe.attention import (
    _encode,
    _loss_grad_fd,
    _loss_grad_wrt_q,
    _multiplex_projections,
    _softmax_rows,
)
from rollpe.multiplex import mproll
from rollpe.roll_core import roll_discrete, shift_matrix
from rollpe.rope import classic_schedule, rope_apply
from rollpe.spectral import SpectralBranch, branch_angles, dft_matrix, roll_continuous

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
        for kind in (PEKind.ROLL_DISCRETE, PEKind.MULTIPLEXED_ROLL):
            with pytest.raises(ValueError, match="must be an integer"):
                attend(batch, _pe(kind, waves=2))

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

    @pytest.mark.parametrize(
        "shape, axis", [((0, 8), "tokens"), ((4, 0), "head dimension")], ids=["t=0", "n=0"]
    )
    def test_rejects_empty_axis(self, shape, axis):
        empty = np.zeros(shape)
        with pytest.raises(ValueError, match=axis):
            AttentionBatch(empty, empty, empty, np.arange(shape[0]))

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


_KERNEL_CASES = [
    (_pe(PEKind.ROLL_CONTINUOUS, branch=SpectralBranch.CENTERED), "roll_continuous"),
    (_pe(PEKind.ROLL_CONTINUOUS, branch=SpectralBranch.RAW), "roll_continuous"),
    (_pe(PEKind.ROPE), "rope_apply"),
    (_pe(PEKind.ROLL_DISCRETE), "roll_discrete"),
    (_pe(PEKind.SINUSOIDAL_APE), "sinusoidal_ape"),
    (_pe(PEKind.MULTIPLEXED_ROLL, waves=1), "mproll"),
    (_pe(PEKind.MULTIPLEXED_ROLL, waves=3), "mproll"),
]
_KERNEL_IDS = [
    "roll-continuous/centered", "roll-continuous/raw", "rope", "roll-discrete",
    "sinusoidal-ape", "multiplexed-roll/W=1", "multiplexed-roll/W=3",
]


def _attend(batch, pe):
    return attend(batch, pe)


def _grad_check(batch, pe):
    return grad_check(pe, batch)


def _count_kernel_calls(monkeypatch, run, pe, axial, b=None):
    """Kernel calls attention makes in run(batch, pe) on a 64 x 8 batch, or b of them, by name."""
    calls = dict.fromkeys(
        ["roll_continuous", "rope_apply", "classic_schedule", "roll_discrete",
         "sinusoidal_ape", "mproll"],
        0,
    )

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(attention, name, counted(name, getattr(attention, name)))
    rng = np.random.default_rng(26)
    rows = (64,) if b is None else (b, 64)
    positions = rng.integers(-50, 50, size=rows + (2,) if axial else rows).astype(float)
    pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
    run(AttentionBatch(*rng.standard_normal((3, *rows, 8)), positions), pe)
    return calls


class TestPhaseKindsEncodeOncePerBatch:
    """Every kind encodes Q and K, and both axial halves, in one kernel call."""

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe, kernel", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_kernel_calls_per_attend(self, pe, kernel, axial, monkeypatch):
        """One call per side would be 2, per axial half 4, per row 2t = 128; B row-sets
        share the one call too."""
        for b in (None, 1, 4):
            calls = _count_kernel_calls(monkeypatch, _attend, pe, axial, b)
            monkeypatch.undo()
            kernel_calls = calls.pop(kernel)
            assert kernel_calls == 1
            assert calls.pop("classic_schedule") <= 1
            assert set(calls.values()) == {0}

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe, kernel", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_kernel_calls_per_grad_check(self, pe, kernel, axial, monkeypatch):
        """One call each for [Q, K], the Jacobian's basis stack and the bumped stack."""
        calls = _count_kernel_calls(monkeypatch, _grad_check, pe, axial)
        assert calls.pop(kernel) == 3
        assert calls.pop("classic_schedule") <= 3
        assert set(calls.values()) == {0}

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("run", [_attend, _grad_check], ids=["attend", "grad_check"])
    def test_none_calls_no_kernel(self, run, axial, monkeypatch):
        calls = _count_kernel_calls(monkeypatch, run, _pe(PEKind.NONE), axial)
        assert set(calls.values()) == {0}


def _side_encode(x, positions, pe):
    """One side's (t, n) rows through its kind's public kernel, one call per axial half."""
    if pe.axial:
        half = x.shape[1] // 2
        flat = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves)
        return np.concatenate(
            [
                _side_encode(x[:, :half], positions[:, 0], flat),
                _side_encode(x[:, half:], positions[:, 1], flat),
            ],
            axis=1,
        )
    n = x.shape[1]
    if pe.kind is PEKind.NONE:
        return x
    if pe.kind is PEKind.SINUSOIDAL_APE:
        return x + sinusoidal_ape(positions, n)
    if pe.kind is PEKind.ROLL_DISCRETE:
        return roll_discrete(x, positions)
    if pe.kind is PEKind.ROLL_CONTINUOUS:
        return roll_continuous(x, positions, pe.lam, pe.branch)
    if pe.kind is PEKind.ROPE:
        return rope_apply(x, positions, classic_schedule(n))
    return mproll(x @ _multiplex_projections(n, pe.waves).swapaxes(1, 2), positions)


class TestAttendMatchesPerSideKernels:
    """Encoding [Q, K] in one call changes no bit of what one call per side gave."""

    @pytest.mark.parametrize(
        "t, n, axial",
        [(8, 8, False), (8, 8, True), (16, 32, "grid"), (33, 64, False), (33, 64, True)],
        ids=["8x8", "8x8-axial", "16x32-grid", "33x64", "33x64-axial"],
    )
    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.NONE),
            _pe(PEKind.SINUSOIDAL_APE),
            _pe(PEKind.ROLL_DISCRETE),
            _pe(PEKind.ROLL_CONTINUOUS, lam=0.5, branch=SpectralBranch.CENTERED),
            _pe(PEKind.ROLL_CONTINUOUS, lam=2.0, branch=SpectralBranch.RAW),
            _pe(PEKind.ROPE),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=1),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=2),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=3),
        ],
        ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}/W={pe.waves}",
    )
    def test_attend_matches_per_side_kernels(self, pe, t, n, axial):
        """Bit for bit, but for the multiplexed roll: its projection is one matmul over
        both sides, which BLAS may round differently, so it matches to 1e-12 relative."""
        rng = np.random.default_rng(t * n)
        if axial == "grid":
            grid = np.arange(4.0)
            positions = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        else:
            positions = rng.integers(-(2**40), 2**40, size=(t, 2) if axial else t).astype(float)
            if pe.kind in (PEKind.ROLL_CONTINUOUS, PEKind.ROPE):
                positions += rng.uniform(-0.5, 0.5, size=positions.shape)
        batch = AttentionBatch(*rng.standard_normal((3, t, n)), positions)
        pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, bool(axial))
        got = attend(batch, pe)
        enc_q, enc_k = (_side_encode(x, positions, pe) for x in (batch.q, batch.k))
        logits, scores = attention._attention_weights(enc_q, enc_k, math.sqrt(n))
        pairs = [(got.logits, logits), (got.scores, scores), (got.output, scores @ batch.v)]
        for have, want in pairs:
            if pe.kind is PEKind.MULTIPLEXED_ROLL:
                assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()
            else:
                np.testing.assert_array_equal(have, want)


def _vector_encode(v, p, pe):
    """One (sub-)row at the scalar position p through the per-vector kernel of its kind."""
    n = v.size
    if pe.kind is PEKind.NONE:
        return v
    if pe.kind is PEKind.SINUSOIDAL_APE:
        return v + sinusoidal_ape([p], n)[0]
    if pe.kind is PEKind.ROLL_DISCRETE:
        return roll_discrete(v, int(p))
    if pe.kind is PEKind.ROLL_CONTINUOUS:
        return roll_continuous(v, p, pe.lam, pe.branch)
    if pe.kind is PEKind.ROPE:
        return rope_apply(v, p, classic_schedule(n))
    return mproll(_multiplex_projections(n, pe.waves) @ v, int(p))


class TestEncodeRowsMatchVectorKernels:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        branch=st.sampled_from(list(SpectralBranch)),
        lam=st.sampled_from([0.5, 1.0, 1.7]),
        waves=st.integers(1, 3),
        half=st.integers(1, 12),
        axial=st.booleans(),
        t=st.integers(1, 6),
        data=st.data(),
    )
    def test_rows_match_vector_kernels(
        self, kind, branch, lam, waves, half, axial, t, data
    ):
        """Row i of the batched encoding is the per-vector kernel at positions[i]."""
        if kind in (PEKind.ROPE, PEKind.SINUSOIDAL_APE):
            half += half % 2
        if kind in (PEKind.ROLL_DISCRETE, PEKind.MULTIPLEXED_ROLL):
            coord = st.integers(-(2**53 - 1), 2**53 - 1)
        else:
            coord = st.floats(-1e15, 1e15, allow_nan=False)
        shape = (t, 2) if axial else (t,)
        positions = np.array(
            data.draw(st.lists(coord, min_size=math.prod(shape), max_size=math.prod(shape))),
            dtype=float,
        ).reshape(shape)
        n = 2 * half if axial else half
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((t, n))
        pe = PEConfig(kind, lam, branch, waves, axial)
        flat = PEConfig(kind, lam, branch, waves)
        got = _encode(x, positions, pe)
        assert got.shape == (t, n)
        for row, pos, out in zip(x, positions, got):
            if axial:
                want = np.concatenate([
                    _vector_encode(row[:half], pos[0], flat),
                    _vector_encode(row[half:], pos[1], flat),
                ])
            else:
                want = _vector_encode(row, pos, flat)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_multiplexed_roll_beyond_2_53_over_w(self):
        """Speeds w * p stay exact where the float 3 * p would round."""
        x = np.random.default_rng(29).standard_normal((3, 7))
        positions = np.array([2**53 - 1, -(2**53 - 3), 2**52 + 1], dtype=float)
        pe = _pe(PEKind.MULTIPLEXED_ROLL, waves=3)
        got = _encode(x, positions, pe)
        for row, p, out in zip(x, positions, got):
            want = _vector_encode(row, p, pe)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def _dense_roll(v, p, pe):
    """Fractional roll through dense DFT phases, as the CLI's bench oracle builds it."""
    n = v.size
    fmat = dft_matrix(n)
    phases = np.exp(1j * branch_angles(n, pe.branch) * (p / pe.lam))
    return (fmat.conj().T @ (phases * (fmat @ v))).real


def _rotate_pairs(v, p):
    """Rotate each pair (v[2k], v[2k+1]) by p * 10000**(-2k/n) with an explicit 2x2 matrix."""
    out = np.empty_like(v)
    for k in range(v.size // 2):
        a = p * 10000.0 ** (-2.0 * k / v.size)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        out[2 * k : 2 * k + 2] = rot @ v[2 * k : 2 * k + 2]
    return out


def _ape_row(p, n):
    """The sin/cos table row at p from its formula, one entry at a time."""
    row = np.empty(n)
    for i in range(n // 2):
        freq = 10000.0 ** (-2.0 * i / n)
        row[2 * i], row[2 * i + 1] = math.sin(p * freq), math.cos(p * freq)
    return row


def _multiplex_maps(n, waves):
    """The component maps, rebuilt from their seed: the identity, then seeded dense maps."""
    rng = np.random.default_rng([n, waves, 0x5157])
    return [np.eye(n)] + [rng.standard_normal((n, n)) / math.sqrt(n) for _ in range(waves - 1)]


def _reference_row(v, pos, pe):
    """One row encoded on its own through dense matrices, none of the library's kernels."""
    if pe.axial:
        half = v.size // 2
        flat = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves)
        return np.concatenate(
            [_reference_row(v[:half], pos[0], flat), _reference_row(v[half:], pos[1], flat)]
        )
    if pe.kind is PEKind.NONE:
        return v
    if pe.kind is PEKind.SINUSOIDAL_APE:
        return v + _ape_row(float(pos), v.size)
    if pe.kind is PEKind.ROLL_DISCRETE:
        return shift_matrix(v.size, int(pos)) @ v
    if pe.kind is PEKind.ROLL_CONTINUOUS:
        return _dense_roll(v, float(pos), pe)
    if pe.kind is PEKind.ROPE:
        return _rotate_pairs(v, float(pos))
    maps = _multiplex_maps(v.size, pe.waves)
    return sum(shift_matrix(v.size, w * int(pos)) @ m @ v for w, m in enumerate(maps, start=1))


def _two_pass_reference(batch, pe):
    """Plain per-row encode, then logits, softmax and values, one array each."""
    rows = range(batch.tokens)
    pos = batch.positions
    enc_q = np.stack([_reference_row(batch.q[i], pos[i], pe) for i in rows])
    enc_k = np.stack([_reference_row(batch.k[i], pos[i], pe) for i in rows])
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
    def test_axial_matches_two_pass_reference(self, kind):
        """Each half of a row is encoded at its own coordinate."""
        rng = np.random.default_rng(27)
        positions = rng.integers(-40, 40, size=(64, 2)).astype(float)
        batch = _batch(rng, 64, 16, positions=positions)
        pe = _pe(kind, waves=2, axial=True)
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

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_every_dim_matches_the_formula(self, n):
        """Dim 2i holds sin(p * f_i) and dim 2i + 1 cos(p * f_i), f_i = 10000**(-2i/n).

        Each f_i is the formula's value to within one rounding: a vectorised
        and a scalar pow may differ in the last bit, and at |p| = 1e6 that
        bit moves the angle by 1e-10.  So the table is checked to 1e-12 at
        the frequencies themselves, for |p| up to 1e6.
        """
        freqs = classic_schedule(n).omegas
        for i, f in enumerate(freqs):
            assert f == pytest.approx(10000.0 ** (-2.0 * i / n), rel=2.3e-16, abs=0)
        rng = np.random.default_rng(n)
        positions = np.concatenate(
            [[0.0, 1.0, -2.5, 1e6, -1e6], rng.uniform(-10.0, 10.0, 8), rng.uniform(-1e6, 1e6, 8)]
        )
        want = np.empty((positions.size, n))
        for row, p in enumerate(positions):
            for i, f in enumerate(freqs):
                want[row, 2 * i] = math.sin(p * f)
                want[row, 2 * i + 1] = math.cos(p * f)
        np.testing.assert_allclose(sinusoidal_ape(positions, n), want, rtol=0, atol=1e-12)

    def test_distinct_positions_distinct_rows(self):
        table = sinusoidal_ape(np.arange(10), 16)
        gaps = np.linalg.norm(table[:, None, :] - table[None, :, :], axis=-1)
        off_diag = gaps[~np.eye(10, dtype=bool)]
        assert off_diag.min() > 0

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            sinusoidal_ape([0, 1], 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sinusoidal_ape([0.0, bad], 4)

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    def test_attend_at_fractional_positions(self, axial):
        """The embedding is added at any finite position, as the public table gives it."""
        rng = np.random.default_rng(28)
        t, n = 5, 8
        positions = rng.uniform(-30.0, 30.0, size=(t, 2) if axial else t)
        batch = _batch(rng, t, n, positions=positions)
        if axial:
            table = np.concatenate(
                [sinusoidal_ape(positions[:, 0], n // 2), sinusoidal_ape(positions[:, 1], n // 2)],
                axis=1,
            )
        else:
            table = sinusoidal_ape(positions, n)
        out = attend(batch, _pe(PEKind.SINUSOIDAL_APE, axial=axial))
        want = attend(
            AttentionBatch(batch.q + table, batch.k + table, batch.v, positions),
            _pe(PEKind.NONE, axial=axial),
        )
        for name in ("output", "scores", "logits"):
            np.testing.assert_array_equal(getattr(out, name), getattr(want, name), err_msg=name)


class TestAxialEncode:
    """Axial encoding through the row encoder and an axial ``attend``."""

    def test_zero_positions_identity_for_linear_kinds(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 8))
        for kind in (PEKind.ROLL_DISCRETE, PEKind.ROLL_CONTINUOUS, PEKind.ROPE):
            got = _encode(x, np.zeros((3, 2)), _pe(kind, axial=True))
            np.testing.assert_allclose(got, x, atol=1e-12)

    def test_manual_split_oracle(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal(10)
        got = _encode(v[None], np.array([[3.0, 1.0]]), _pe(PEKind.ROLL_DISCRETE, axial=True))
        want = np.concatenate([roll_discrete(v[:5], 3), roll_discrete(v[5:], 1)])
        np.testing.assert_array_equal(got[0], want)

    def test_rejects_odd_length(self):
        batch = AttentionBatch(np.ones((2, 5)), np.ones((2, 5)), np.ones((2, 5)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="even head dimension"):
            attend(batch, _pe(PEKind.ROLL_DISCRETE, axial=True))


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
        """The raw spectrum's damped map is differentiated through its Jacobian too."""
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


def _grad_batch(pe, axial):
    """A 4 x 8 batch at real positions for the phase kinds and integer ones for the rest."""
    rng = np.random.default_rng(24)
    t, n = 4, 8
    shape = (t, 2) if axial else (t,)
    if pe.kind in (PEKind.ROLL_CONTINUOUS, PEKind.ROPE):
        positions = rng.uniform(-5.0, 5.0, size=shape)
    else:
        positions = rng.integers(-5, 6, size=shape).astype(float)
    q, k, v = rng.standard_normal((3, t, n))
    return AttentionBatch(q, k, v, positions), PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)


class TestAnalyticGradient:
    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe", _GRAD_CONFIGS, ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}")
    def test_matches_whole_attend_differences(self, pe, axial):
        """The Jacobian read off the forward map gives dL/dQ of the whole attend."""
        batch, pe = _grad_batch(pe, axial)
        got = _loss_grad_wrt_q(batch, pe)
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
    def test_catch_a_wrong_jacobian(self, pe, monkeypatch):
        """With the basis stack encoded at -p the Jacobians are wrong and the check must fail."""
        forward = attention._encode
        n = 8

        def wrong(x, positions, pe):
            basis = x.shape[0] == n + 1 and x.ndim == 3
            return forward(x, -positions if basis else positions, pe)

        monkeypatch.setattr(attention, "_encode", wrong)
        rng = np.random.default_rng(25)
        q, k, v = rng.standard_normal((3, 4, n))
        batch = AttentionBatch(q, k, v, np.array([0.0, 1.0, 3.0, 6.0]))
        assert grad_check(pe, batch) > 1e-2


class TestRowLocalDifferences:
    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe", _GRAD_CONFIGS, ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}")
    def test_match_whole_attend_differences(self, pe, axial):
        batch, pe = _grad_batch(pe, axial)
        got = _loss_grad_fd(batch, pe, 1e-5)
        np.testing.assert_allclose(got, _whole_attend_fd(batch, pe, 1e-5), rtol=0, atol=1e-8)
