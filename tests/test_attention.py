"""Tests for the attention layer and its pluggable encodings."""

import dataclasses
import math
import platform
import tracemalloc
import warnings

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
    _loss_grads,
    _multiplex_projections,
    _softmax_rows,
)
from rollpe.multiplex import mproll
from rollpe.roll_core import roll_discrete, shift_matrix
from rollpe import multiplex, roll_core, rope, spectral
from rollpe.rope import (
    classic_schedule,
    realified_fourier_basis,
    roll_induced_schedule,
    rope_apply,
)
from rollpe.spectral import SpectralBranch, branch_angles, dft_matrix, roll_continuous

try:
    import resource
except ImportError:  # not on every platform
    resource = None

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
            # +inf and -inf products meet in one sum: NaN logits, or -inf from a BLAS that fuses
            # each multiply into its running sum (TestSoftmax pins the NaN case)
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


class TestBatchSurface:
    """``AttentionBatch`` behaves as a frozen dataclass of its four arguments."""

    def test_keyword_construction(self):
        q, k, v = np.random.default_rng(39).standard_normal((3, 4, 8))
        batch = AttentionBatch(positions=np.arange(4), v=v, k=k, q=q)
        np.testing.assert_array_equal(batch.k, k)
        np.testing.assert_array_equal(batch.positions, np.arange(4.0))
        assert batch.positions.dtype == float and batch.dim == 8

    def test_replace_checks_the_new_positions(self):
        batch = _batch(np.random.default_rng(40), 4, 8)
        moved = dataclasses.replace(batch, positions=[3, 4, 5, 6])
        np.testing.assert_array_equal(moved.q, batch.q)
        np.testing.assert_array_equal(moved.positions, [3.0, 4.0, 5.0, 6.0])
        assert not moved.positions.flags.writeable and not moved.q.flags.writeable
        for bad, message in [
            ([0, np.nan, 1, 2], "positions must be finite"),
            ([0, 1, 2], "one row per token"),
            ([0, 2**53, 1, 2], "below 2\\*\\*53"),
        ]:
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(batch, positions=bad)
        with pytest.raises(ValueError, match="k holds non-finite"):
            dataclasses.replace(batch, k=np.full((4, 8), np.inf))

    @pytest.mark.parametrize("name", ["q", "k", "v", "positions", "_qkv"])
    def test_fields_cannot_be_assigned(self, name):
        batch = _batch(np.random.default_rng(41), 2, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(batch, name, np.zeros((2, 4)))

    def test_repr_leaves_out_the_block(self):
        text = repr(_batch(np.random.default_rng(42), 2, 4))
        assert text.startswith("AttentionBatch(q=array(")
        assert "positions=array(" in text and "_qkv" not in text


# each kind's core, the unchecked kernel attention calls on its table; the APE's core is an add
_KERNEL_CASES = [
    (_pe(PEKind.ROLL_CONTINUOUS, branch=SpectralBranch.CENTERED), "_roll_spectra"),
    (_pe(PEKind.ROLL_CONTINUOUS, branch=SpectralBranch.RAW), "_roll_spectra"),
    (_pe(PEKind.ROPE), "_rotate_pairs"),
    (_pe(PEKind.ROLL_DISCRETE), "_roll_rows"),
    (_pe(PEKind.SINUSOIDAL_APE), None),
    (_pe(PEKind.MULTIPLEXED_ROLL, waves=1), "_superpose"),
    (_pe(PEKind.MULTIPLEXED_ROLL, waves=3), "_superpose"),
]
_CORES = ["_roll_spectra", "_rotate_pairs", "_roll_rows", "_superpose"]
_KERNEL_IDS = [
    "roll-continuous/centered", "roll-continuous/raw", "rope", "roll-discrete",
    "sinusoidal-ape", "multiplexed-roll/W=1", "multiplexed-roll/W=3",
]


def _attend(batch, pe):
    return attend(batch, pe)


def _grad_check(batch, pe):
    return grad_check(pe, batch)


def _counting(monkeypatch, names):
    """Wrap each of attention's globals ``names`` to count its calls into the returned dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(attention, name, counted(name, getattr(attention, name)))
    return calls


def _count_kernel_calls(monkeypatch, run, pe, axial, b=None):
    """Table fetches and core calls attention makes in run(batch, pe) on a 64 x 8 batch, or b of
    them, by name, from an empty memo."""
    monkeypatch.setattr(attention, "_tables", {})
    calls = _counting(monkeypatch, ["_table", *_CORES])
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
        """One table fetch and one core call: one per side would be 2, per axial half 4,
        per row 2t = 128; B row-sets share the one call too.  A relative config's fetch
        of its raw positions misses and fetches the origin-relative table once more."""
        fetches = 1 + attention._relative(pe, 4 if axial else 8)
        for b in (None, 1, 4):
            calls = _count_kernel_calls(monkeypatch, _attend, pe, axial, b)
            monkeypatch.undo()
            assert calls.pop("_table") == fetches
            if kernel is not None:
                assert calls.pop(kernel) == 1
            assert set(calls.values()) == {0}

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe, kernel", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_kernel_calls_per_grad_check(self, pe, kernel, axial, monkeypatch):
        """One table fetch (two for a relative config, as in ``attend``) and one core call
        on the one stack of direction rows, stepped copies of Q, Q and K."""
        calls = _count_kernel_calls(monkeypatch, _grad_check, pe, axial)
        assert calls.pop("_table") == 1 + attention._relative(pe, 4 if axial else 8)
        if kernel is not None:
            assert calls.pop(kernel) == 1
        assert set(calls.values()) == {0}

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize(
        "pe", [_pe(PEKind.NONE)] + [pe for pe, _ in _KERNEL_CASES], ids=["none"] + _KERNEL_IDS
    )
    def test_one_softmax_per_grad_check(self, pe, axial, monkeypatch):
        """The bumped copies of Q and Q itself are scored against K in one call."""
        calls = _counting(monkeypatch, ["_attention_weights", "_softmax_rows"])
        batch, pe = _grad_batch(pe, axial)
        grad_check(pe, batch)
        assert calls == {"_attention_weights": 1, "_softmax_rows": 1}

    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("run", [_attend, _grad_check], ids=["attend", "grad_check"])
    def test_none_calls_no_kernel(self, run, axial, monkeypatch):
        calls = _count_kernel_calls(monkeypatch, run, _pe(PEKind.NONE), axial)
        assert set(calls.values()) == {0}


def _origin_relative(positions, pe, n):
    """The positions ``attend`` encodes at under ``pe`` at (sub-)length ``n``.

    A relative config (``attention._relative``) encodes each row-set at its
    positions less its first one, per coordinate when axial: the exact
    integer differences, as Python ints, for the discrete rolls; the
    differences of the positions reduced modulo lambda * n for
    roll-continuous; the rounded differences for rope.  Any other config
    encodes at ``positions`` themselves.
    """
    if not attention._relative(pe, n):
        return positions
    p = np.asarray(positions, dtype=float)
    if pe.kind is PEKind.ROLL_CONTINUOUS:
        p = np.fmod(p, pe.lam * n)
    elif pe.kind is not PEKind.ROPE:
        p = np.array([int(v) for v in p.flat], dtype=object).reshape(p.shape)
    return p - p.take([0], axis=-2 if pe.axial else -1)


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
    maps = _multiplex_projections(n, pe.waves)
    return mproll(np.concatenate([x[None], x @ maps.swapaxes(1, 2)]), positions)


class TestAttendMatchesPerSideKernels:
    """Encoding [Q, K] in one call changes no bit of what one call per side gave, at the
    positions ``attend`` encodes at (``_origin_relative``)."""

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
        encoded_at = _origin_relative(positions, pe, n // 2 if axial else n)
        enc_q, enc_k = (_side_encode(x, encoded_at, pe) for x in (batch.q, batch.k))
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
    return mproll(np.concatenate([v[None], _multiplex_projections(n, pe.waves) @ v]), int(p))


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
        """Row i of the batched encoding is the per-vector kernel at the position ``_encode``
        encodes row i at: positions[i], or its origin-relative position for a relative config."""
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
        for row, pos, out in zip(x, _origin_relative(positions, pe, half), got):
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


def _shifted_softmax(z):
    """The textbook row softmax exp(z - max z) / sum, a reference independent of the library's."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _two_pass_reference(batch, pe):
    """Plain per-row encode, then logits, softmax and values, one array each."""
    rows = range(batch.q.shape[-2])
    pos = batch.positions
    enc_q = np.stack([_reference_row(batch.q[i], pos[i], pe) for i in rows])
    enc_k = np.stack([_reference_row(batch.k[i], pos[i], pe) for i in rows])
    logits = enc_q @ enc_k.T / np.sqrt(batch.dim)
    scores = _shifted_softmax(logits)
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
    def test_outputs_alias_nothing(self, kind, monkeypatch):
        """Nor a kept position table, which later calls share."""
        monkeypatch.setattr(attention, "_tables", {})
        batch = _batch(np.random.default_rng(23), 6, 8)
        out = attend(batch, _pe(kind, waves=2))
        # a relative config keeps its one table under two keys
        kept = list({id(table): table for table in attention._tables.values()}.values())
        assert len(kept) == (kind is not PEKind.NONE)
        arrays = [out.output, out.scores, out.logits, batch.q, batch.k, batch.v, batch.positions]
        for i, a in enumerate(arrays[:3]):
            for b in arrays[i + 1:] + kept:
                assert not np.shares_memory(a, b)

    def test_batch_keeps_q_k_v_in_one_read_only_block(self):
        q, k, v = np.random.default_rng(37).standard_normal((3, 2, 5, 4))
        batch = AttentionBatch(q, k, v, np.zeros((2, 5)))
        for name, given in zip("qkv", (q, k, v)):
            kept = getattr(batch, name)
            np.testing.assert_array_equal(kept, given)
            assert not np.shares_memory(kept, given) and not kept.flags.writeable
        assert batch.q.base is batch.k.base is batch.v.base

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_logits_and_scores_halve_one_block(self, kind, lead):
        rng = np.random.default_rng(28)
        q, k, v = rng.standard_normal((3, *lead, 6, 8))
        positions = np.arange(6.0) + np.zeros((*lead, 1))
        out = attend(AttentionBatch(q, k, v, positions), _pe(kind, waves=2))
        _assert_halves_of_one_block(out.logits, out.scores)

    @pytest.mark.parametrize("b", [None, 3])
    def test_grad_check_scores_its_stack_in_one_block(self, b, monkeypatch):
        """The (2k + 1, B, t, t) logits and scores of the stepped and unstepped Q."""
        seen = []

        def recording(*args):
            seen.append(weights(*args))
            return seen[-1]

        weights = attention._attention_weights
        monkeypatch.setattr(attention, "_attention_weights", recording)
        rng = np.random.default_rng(29)
        # n = 6, where 2n + 1 = 13 and 2k + 1 = 9 differ
        shape = (5, 6) if b is None else (b, 5, 6)
        q, k, v = rng.standard_normal((3, *shape))
        positions = np.arange(5.0) + np.zeros(shape[:-1])
        grad_check(_pe(PEKind.ROPE), AttentionBatch(q, k, v, positions))
        (logits, scores), = seen
        assert logits.shape == (2 * attention._DIRECTIONS + 1, *shape[:-1], 5)
        _assert_halves_of_one_block(logits, scores)


def _assert_halves_of_one_block(logits, scores):
    block = logits.base
    assert block is not None and scores.base is block
    assert block.shape == (2, *logits.shape) and block.flags.c_contiguous
    assert np.shares_memory(logits, block[0]) and np.shares_memory(scores, block[1])
    assert not np.shares_memory(logits, scores)


_GLIBC = resource is not None and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _GLIBC, reason="needs getrusage fault counts and glibc's malloc")
@pytest.mark.parametrize(
    "kind", [PEKind.NONE, PEKind.ROLL_DISCRETE, PEKind.ROLL_CONTINUOUS, PEKind.MULTIPLEXED_ROLL]
)
def test_long_attend_reuses_its_memory(kind):
    """A warm t = 1024 attend faults in next to no pages.

    With logits and scores as two 8 MiB arrays, glibc handed their pages
    back to the kernel after each call and the next call faulted them in
    again, over a thousand minor faults a call.
    """
    batch = _batch(np.random.default_rng(30), 1024, 64)
    pe = _pe(kind, waves=2)
    faults = []
    for _ in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        attend(batch, pe)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert np.median(faults[3:]) < 256, faults


class TestSoftmax:
    @pytest.fixture(autouse=True)
    def _raising(self):
        """Every caller of the softmax, attend and grad_check, runs it with overflow and
        invalid operations raising; so does each test here."""
        with np.errstate(over="raise", invalid="raise"):
            yield

    def test_into_out(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((2, 5, 7)) * 30
        kept, out = z.copy(), np.empty_like(z)
        assert _softmax_rows(z, out) is out
        np.testing.assert_array_equal(z, kept)
        np.testing.assert_array_equal(out, _softmax_rows(z))

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

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs an extended long double"
    )
    @pytest.mark.parametrize("std", [8.0, 16.0, 32.0, 48.0])
    def test_within_16_ulp_of_a_long_double_softmax(self, std):
        """The unshifted exp keeps the logits exact; the shifted one rounds z - max first."""
        z = np.random.default_rng([34, int(std)]).standard_normal((64, 64)) * std
        assert (z.max(axis=1) >= 0).all()
        e = np.exp(z.astype(np.longdouble))
        want = e / e.sum(axis=1, keepdims=True)
        ulps = np.abs(_softmax_rows(z) - want) / np.spacing(want.astype(float))
        assert ulps.max() <= 16, ulps.max()

    @pytest.mark.parametrize("edge", [-800.0, 710.0], ids=["sum-underflows", "exp-overflows"])
    def test_rows_that_fall_back_match_the_shifted_softmax(self, edge):
        """Every logit of row 1 at or beyond the edge, where exp(z) gives a sum of 0 or inf."""
        rng = np.random.default_rng(35)
        z = rng.standard_normal((3, 16)) * 4
        z[1] = edge + np.sign(edge) * rng.uniform(0.0, 40.0, 16)
        want = _shifted_softmax(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softmax_rows(z)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_a_row_wider_than_the_float_range_falls_back_without_warning(self):
        """z - max(z) overflows to -inf there, which exponentiates to the right 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softmax_rows(np.array([[1e308, -1e308, 0.0]]))
        np.testing.assert_array_equal(got, [[1.0, 0.0, 0.0]])

    def test_a_stack_scores_each_row_set_as_its_2d_call(self):
        """Row-set 1 takes the shifted softmax, and one row of row-set 2 does too."""
        rng = np.random.default_rng(36)
        z = rng.standard_normal((3, 8, 8)) * 20
        z[1] += 760.0
        z[2, 5] -= 900.0
        got = _softmax_rows(z)
        for b in range(3):
            np.testing.assert_array_equal(got[b], _softmax_rows(z[b]))
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "edge, width",
        [(0.0, 0), (-800.0, 64), (709.0, 64), (710.0, 1), (-np.inf, 1)],
        ids=["no-edge", "sum-underflows", "sum-overflows", "exp-overflows", "minus-inf"],
    )
    def test_one_reduction_gives_the_per_row_choices_bits(self, edge, width):
        """The guarded call equals the per-row path alone, with or without a row to shift."""
        z = np.random.default_rng(43).standard_normal((2, 5, 64)) * 8
        z[1, 3, :width] = edge
        np.testing.assert_array_equal(_softmax_rows(z), attention._softmax_rows_shifted(z, None))

    # The edges of the unshifted rows' guard; each also holds for a two-sided row-sum test.

    def test_nan_logits_raise(self):
        """Logits of finite Q and K whose products overflow to +inf and -inf in one sum.

        Summed term by term, as the matmul defines them, so inf - inf gives NaN whatever
        the order; a fused multiply-add BLAS can give -inf there instead.
        """
        big = np.full((4, 8), 1e200)
        mixed = big.copy()
        mixed[:, ::2] *= -1
        with np.errstate(over="ignore", invalid="ignore"):
            z = (big[:, None, :] * mixed[None, :, :]).sum(axis=-1)
        assert np.isnan(z).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                _softmax_rows(z)

    def test_a_single_plus_inf_logit_raises(self):
        z = np.random.default_rng(37).standard_normal((3, 6))
        z[1, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                _softmax_rows(z)

    def test_a_row_sum_that_overflows_on_finite_terms_is_shifted(self):
        """64 terms of exp(709) each fit a float64; their sum does not."""
        z = np.random.default_rng(38).standard_normal((3, 64))
        z[1] = 709.0
        assert math.exp(709.0) * 64 == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softmax_rows(z)
        np.testing.assert_allclose(got, _shifted_softmax(z), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got[1], np.full(64, 1 / 64))


def _rope_coordinates(x, positions, lam):
    """Rows of ``x`` in realified Fourier coordinates, moved as rope moves them.

    The planes turn by ``rope_apply`` with the roll-induced schedule, DC
    stays put and, at even n, the Nyquist coordinate scales by cos(pi*p/lam).
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n) @ realified_fourier_basis(n).T
    p = positions.reshape(-1)
    sched = roll_induced_schedule(n, lam)
    planes = slice(1, 1 + 2 * sched.planes)
    if sched.planes:
        rows[:, planes] = rope_apply(rows[:, planes], p, sched)
    if n % 2 == 0:
        rows[:, -1] *= np.cos(np.pi * p / lam)
    return rows.reshape(x.shape)


def _rope_attention(batch, lam, axial):
    """Softmax attention on Q and K in rope coordinates, each half at its own coordinate when axial."""
    def encode(x):
        if not axial:
            return _rope_coordinates(x, batch.positions, lam)
        half = x.shape[-1] // 2
        return np.concatenate([
            _rope_coordinates(x[..., :half], batch.positions[..., 0], lam),
            _rope_coordinates(x[..., half:], batch.positions[..., 1], lam),
        ], axis=-1)

    logits = encode(batch.q) @ encode(batch.k).swapaxes(-1, -2) / np.sqrt(batch.dim)
    scores = _shifted_softmax(logits)
    return scores @ batch.v, scores, logits


class TestRollContinuousIsRopeAtTheLayer:
    """``attend`` with roll-continuous is rope attention in the realified Fourier basis."""

    @pytest.mark.parametrize("lam", [1.0, 0.7, 3.3])
    @pytest.mark.parametrize("n", [7, 9, 15, 8])
    @pytest.mark.parametrize(
        "lead, axial", [((), False), ((3,), False), ((), True), ((2,), True)],
        ids=["2d", "batched", "axial", "batched-axial"],
    )
    def test_matches_rope_attention(self, lead, axial, n, lam):
        rng = np.random.default_rng([n, int(10 * lam), len(lead), int(axial)])
        t, dim = 12, 2 * n if axial else n
        q, k, v = rng.standard_normal((3, *lead, t, dim))
        positions = rng.uniform(-50.0, 50.0, size=(*lead, t, 2) if axial else (*lead, t))
        batch = AttentionBatch(q, k, v, positions)
        out = attend(batch, _pe(PEKind.ROLL_CONTINUOUS, lam=lam, axial=axial))
        for name, want in zip(("output", "scores", "logits"), _rope_attention(batch, lam, axial)):
            gap = np.abs(getattr(out, name) - want).max() / np.abs(want).max()
            assert gap <= 1e-12, (name, gap)


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
        """Each half rolls by its own coordinate's difference from the first row's."""
        rng = np.random.default_rng(15)
        v = rng.standard_normal((2, 10))
        positions = np.array([[3.0, 1.0], [7.0, -4.0]])
        got = _encode(v, positions, _pe(PEKind.ROLL_DISCRETE, axial=True))
        np.testing.assert_array_equal(got[0], v[0])
        want = np.concatenate([roll_discrete(v[1, :5], 7 - 3), roll_discrete(v[1, 5:], -4 - 1)])
        np.testing.assert_array_equal(got[1], want)

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

    @pytest.mark.parametrize(
        "eps", ["1e-5", None, np.array([1e-5, 1e-4])], ids=["str", "none", "array"]
    )
    def test_eps_must_be_a_real_number(self, eps):
        batch = _batch(np.random.default_rng(19), 2, 4)
        with pytest.raises(ValueError, match="eps"):
            grad_check(_pe(PEKind.NONE), batch, eps=eps)

    def test_overflow_raises(self):
        big = np.full((3, 8), 1e200)
        batch = AttentionBatch(big, big, np.ones((3, 8)), np.arange(3))
        with pytest.raises(FloatingPointError):
            grad_check(_pe(PEKind.ROLL_DISCRETE), batch)


def _whole_attend_fd(batch, pe, eps):
    """The central difference of the summed output, one whole attend per bump."""
    fd = np.empty(batch.q.shape)
    for i in range(batch.q.shape[-2]):
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
    def test_matches_whole_attend_differences(self, pe, axial, monkeypatch):
        """Along the t*n unit basis the forward-mode side is dL/dQ of the whole attend,
        entry by entry."""
        batch, pe = _grad_batch(pe, axial)
        t, n = batch.q.shape
        monkeypatch.setattr(attention, "_directions", lambda t, n: np.eye(t * n).reshape(-1, t, n))
        got = _loss_grads(batch, pe, 1e-5)[0].reshape(t, n)
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
        """With the direction row-sets encoded at -p the Jacobians are wrong and the check must
        fail."""
        assert _grad_check_with_rows_at_minus_p(pe, "basis", monkeypatch) > 1e-2


def _grad_check_with_rows_at_minus_p(pe, part, monkeypatch):
    """grad_check on a 4 x 8 batch with one part of its one stack encoded at -p.

    The stack is [U_1..U_k, 0, Q + eps U_1..k, Q - eps U_1..k, Q, K]: "basis" is its
    first k + 1 row-sets and "bumps" the 2k after them.
    """
    forward = attention._encode
    n, k = 8, attention._DIRECTIONS
    rows = {"basis": slice(0, k + 1), "bumps": slice(k + 1, 3 * k + 1)}[part]

    def wrong(x, positions, pe):
        enc = forward(x, positions, pe)
        enc[rows] = forward(x[rows], -positions, pe)
        return enc

    monkeypatch.setattr(attention, "_encode", wrong)
    rng = np.random.default_rng(25)
    q, k, v = rng.standard_normal((3, 4, n))
    return grad_check(pe, AttentionBatch(q, k, v, np.array([0.0, 1.0, 3.0, 6.0])))


class TestDirectionalDifferences:
    @pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
    @pytest.mark.parametrize("pe", _GRAD_CONFIGS, ids=lambda pe: f"{pe.kind.value}/{pe.branch.value}")
    def test_match_whole_attend_differences(self, pe, axial):
        """The central difference along each seeded U is <whole-attend differences, U>."""
        batch, pe = _grad_batch(pe, axial)
        got = _loss_grads(batch, pe, 1e-5)[1]
        u = attention._directions(*batch.q.shape)
        want = (u * _whole_attend_fd(batch, pe, 1e-5)).sum(axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "pe",
        [
            _pe(PEKind.SINUSOIDAL_APE),
            _pe(PEKind.ROLL_DISCRETE),
            _pe(PEKind.ROLL_CONTINUOUS, lam=1.5),
            _pe(PEKind.ROPE),
            _pe(PEKind.MULTIPLEXED_ROLL, waves=2),
        ],
        ids=lambda pe: pe.kind.value,
    )
    def test_catch_wrongly_encoded_bumps(self, pe, monkeypatch):
        """With the bumped copies of Q encoded at -p the differences are wrong and the
        check must fail."""
        assert _grad_check_with_rows_at_minus_p(pe, "bumps", monkeypatch) > 1e-2


class TestGradCheckSize:
    """A grad_check's stack, and so its memory, does not grow with n."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_encodes_3k_plus_3_row_sets(self, n, monkeypatch):
        seen = []
        forward = attention._encode

        def recording(x, positions, pe):
            seen.append(len(x))
            return forward(x, positions, pe)

        monkeypatch.setattr(attention, "_encode", recording)
        grad_check(_pe(PEKind.ROPE), _batch(np.random.default_rng(30), 6, n))
        assert seen == [3 * attention._DIRECTIONS + 3]

    def test_peak_memory_at_t_128_n_64(self):
        """One step per entry of Q, 3n + 3 = 195 row-sets, peaks at 65 MiB here."""
        batch = _batch(np.random.default_rng(31), 128, 64)
        tracemalloc.start()
        try:
            gap = grad_check(_pe(PEKind.ROPE), batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap < 1e-5
        assert peak <= 16 * 2**20


# every kind with a position table, with the core that encodes with it
_TABLE_KINDS = [pe for pe, _ in _KERNEL_CASES]
_LAYOUTS = {"scalar": ((), False), "axial": ((), True), "batched": ((3,), False),
            "batched-axial": ((2,), True)}


def _layout_batch(layout, seed=40, t=6, n=8, positions=None):
    lead, axial = _LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    q, k, v = rng.standard_normal((3, *lead, t, n))
    if positions is None:
        positions = rng.integers(-40, 40, size=(*lead, t, 2) if axial else (*lead, t))
    return AttentionBatch(q, k, v, np.asarray(positions, dtype=float)), axial


def _assert_same_bits(got, want):
    for name in ("output", "scores", "logits"):
        have, ref = getattr(got, name), getattr(want, name)
        assert have.shape == ref.shape and have.tobytes() == ref.tobytes(), name


def _uncached(monkeypatch, run):
    """run() with an empty memo that keeps nothing: every table is built for its call."""
    with monkeypatch.context() as patch:
        patch.setattr(attention, "_tables", {})
        patch.setattr(attention, "_TABLE_BYTES", -1)
        result = run()
        assert attention._tables == {}
    return result


def _assert_kept_tables_are_their_builds(monkeypatch):
    """Each kept table is its builder at its key, built again with a memo that keeps nothing."""
    for (build, *params, pos), table in list(attention._tables.items()):
        fresh = _uncached(monkeypatch, lambda: build(np.frombuffer(pos), *params))
        assert table.dtype == fresh.dtype and table.tobytes() == fresh.tobytes()
        assert not table.flags.writeable


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(attention, "_tables", {})
    return attention._tables


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("pe", _TABLE_KINDS, ids=_KERNEL_IDS)
class TestPositionTables:
    """Each kind's position table is built once per positions and shared, without a bit changing.

    A relative config's table is kept under two keys: its raw positions and its
    origin-relative ones.
    """

    def test_a_repeat_is_bit_identical_to_the_first_call_and_to_no_memo(
        self, pe, layout, empty_memo, monkeypatch
    ):
        batch, axial = _layout_batch(layout)
        pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
        keys = 1 + attention._relative(pe, 4 if axial else 8)
        first = attend(batch, pe)
        assert len(empty_memo) == keys
        again = AttentionBatch(batch.q, batch.k, batch.v, batch.positions.copy())
        _assert_same_bits(attend(again, pe), first)
        _assert_same_bits(_uncached(monkeypatch, lambda: attend(batch, pe)), first)
        gap = grad_check(pe, batch)
        assert gap == grad_check(pe, again) == _uncached(monkeypatch, lambda: grad_check(pe, batch))
        assert len(empty_memo) == keys
        _assert_kept_tables_are_their_builds(monkeypatch)

    def test_signed_zeros_get_their_own_tables(self, pe, layout, empty_memo, monkeypatch):
        """0.0 and -0.0 compare and hash equal; a table keyed by value would serve one for both.

        A relative config keys each by its raw positions, and both share one table at
        their origin-relative positions: every zero there is p - p0 = 0.0 - 0.0 or
        -0.0 - -0.0, which is 0.0 either way.
        """
        batch, axial = _layout_batch(layout)
        pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
        relative = attention._relative(pe, 4 if axial else 8)
        plus = np.zeros(batch.positions.shape)
        plus.reshape(-1)[1::2] = np.arange(1, plus.size // 2 + 1)
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            empty_memo.clear()
            for zero in order:
                positions = np.where(plus == 0, zero, plus)
                signed = AttentionBatch(batch.q, batch.k, batch.v, positions)
                want = _uncached(monkeypatch, lambda: attend(signed, pe))
                _assert_same_bits(attend(signed, pe), want)
            assert len(empty_memo) == 2 + relative
            _assert_kept_tables_are_their_builds(monkeypatch)

    def test_kept_tables_are_read_only(self, pe, layout, empty_memo):
        batch, axial = _layout_batch(layout)
        attend(batch, PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial))
        for table in empty_memo.values():
            with pytest.raises(ValueError, match="read-only"):
                table.reshape(-1)[0] = 1.0

    def test_a_repeat_builds_no_table(self, pe, layout, empty_memo, monkeypatch):
        """Neither a second attend at the same positions nor a grad_check there."""
        builders = ["_sinusoid_table", "_float_shifts", "_roll_table", "_classic_table",
                    "_multiplex_table"]
        builds = _counting(monkeypatch, builders)
        batch, axial = _layout_batch(layout)
        pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
        attend(batch, pe)
        first = dict(builds)
        assert sum(first.values()) >= 1
        attend(AttentionBatch(batch.q, batch.k, batch.v, batch.positions.copy()), pe)
        grad_check(pe, batch)
        assert builds == first


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize(
    "pe", [_pe(PEKind.ROLL_DISCRETE), _pe(PEKind.MULTIPLEXED_ROLL, waves=3)],
    ids=["roll-discrete", "multiplexed-roll"],
)
def test_a_fractional_shift_raises_on_every_call(pe, layout, empty_memo):
    batch, axial = _layout_batch(layout)
    positions = np.array(batch.positions)
    positions.reshape(-1)[-1] += 0.5
    fractional = AttentionBatch(batch.q, batch.k, batch.v, positions)
    pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
    for run in (attend, attend, lambda b, pe: grad_check(pe, b)):
        with pytest.raises(ValueError, match="shift count must be an integer"):
            run(fractional, pe)
    assert empty_memo == {}


@pytest.mark.parametrize("kind", [PEKind.ROPE, PEKind.SINUSOIDAL_APE])
def test_an_odd_length_raises_on_every_call(kind, empty_memo):
    batch, _ = _layout_batch("scalar", n=7)
    for _ in range(2):
        with pytest.raises(ValueError, match="even"):
            attend(batch, _pe(kind))
    assert empty_memo == {}


def test_an_overflowing_rope_angle_raises_on_every_call(empty_memo):
    """Attention's positions stay below 2**53 and its frequencies at most 1, so the
    overflow is reached through the memo with a phase table of a huge frequency,
    built under the floating-point policy as ``attend`` builds its tables."""

    @roll_core._raising()
    def huge(pos, omega):
        return spectral._phases(pos, np.array([omega]))

    pos = np.array([0.0, 1e10])
    for _ in range(2):
        with pytest.raises(FloatingPointError, match="overflow"):
            attention._table(huge, pos, 1e300)
    assert empty_memo == {}
    assert attention._table(huge, pos, 1.0).shape == (2, 1)
    assert len(empty_memo) == 1


def test_each_parameter_keys_its_own_table(empty_memo, monkeypatch):
    """The same positions under another wavelength, branch, wave count or length; a relative
    config keeps two keys, its raw and its origin-relative positions."""
    configs = [
        (8, _pe(PEKind.ROLL_CONTINUOUS)), (8, _pe(PEKind.ROLL_CONTINUOUS, lam=0.7)),
        (8, _pe(PEKind.ROLL_CONTINUOUS, branch=SpectralBranch.RAW)),
        (7, _pe(PEKind.ROLL_CONTINUOUS)), (7, _pe(PEKind.ROLL_CONTINUOUS, lam=0.7)),
        (8, _pe(PEKind.MULTIPLEXED_ROLL, waves=2)), (8, _pe(PEKind.MULTIPLEXED_ROLL, waves=3)),
        (8, _pe(PEKind.ROPE)), (6, _pe(PEKind.ROPE)),
        (8, _pe(PEKind.ROLL_DISCRETE)), (5, _pe(PEKind.ROLL_DISCRETE)),
    ]
    for n, pe in configs:
        batch, _ = _layout_batch("scalar", n=n)
        _assert_same_bits(attend(batch, pe), _uncached(monkeypatch, lambda: attend(batch, pe)))
    assert len(empty_memo) == sum(1 + attention._relative(pe, n) for n, pe in configs)
    _assert_kept_tables_are_their_builds(monkeypatch)


@pytest.mark.parametrize(
    "pe", [_pe(PEKind.ROPE), _pe(PEKind.ROLL_DISCRETE)], ids=["rope", "roll-discrete"]
)
def test_row_sets_of_one_set_of_bytes_do_not_collide(pe, empty_memo, monkeypatch):
    """(8,), (2, 4) and axial (4, 2) positions with the same bytes split into other row-sets,
    so each has its own origin-relative table."""
    flat = np.array([5.0, 1.0, 2.0, 7.0, 3.0, 4.0, 6.0, 0.0])
    rng = np.random.default_rng(44)
    for lead, t, n, axial in [((), 8, 8, False), ((2,), 4, 8, False), ((), 4, 16, True)]:
        q, k, v = rng.standard_normal((3, *lead, t, n))
        positions = flat.reshape(*lead, t, 2) if axial else flat.reshape(*lead, t)
        batch = AttentionBatch(q, k, v, positions)
        config = PEConfig(pe.kind, axial=axial)
        want = _uncached(monkeypatch, lambda: attend(batch, config))
        _assert_same_bits(attend(batch, config), want)
    assert len(empty_memo) == 6
    _assert_kept_tables_are_their_builds(monkeypatch)


def test_a_long_attend_keeps_no_table(empty_memo):
    """At t = 1024, n = 64 a table and its key come to 16 KiB or more: built per call."""
    batch, _ = _layout_batch("scalar", t=1024, n=64)
    for pe in _TABLE_KINDS:
        attend(batch, pe)
    assert empty_memo == {}


@pytest.mark.parametrize(
    "pe, sizes",
    [
        (_pe(PEKind.SINUSOIDAL_APE), [1, 2, 3, 1, 2, 3, 1]),
        # every offset shares the one origin-relative table, lost with each fresh start
        (_pe(PEKind.ROPE), [2, 3, 1, 3, 1, 3, 1]),
    ],
    ids=["sinusoidal-ape", "rope"],
)
def test_a_full_memo_starts_over(pe, sizes, empty_memo, monkeypatch):
    monkeypatch.setattr(attention, "_TABLES_KEPT", 3)
    for offset, size in enumerate(sizes):
        batch, _ = _layout_batch("scalar", positions=np.arange(6) + offset)
        attend(batch, pe)
        assert len(empty_memo) == size


_CHECKS = ("_as_rows", "_check_finite", "_as_shifts")


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("pe", _TABLE_KINDS, ids=_KERNEL_IDS)
def test_attend_and_grad_check_check_the_batch_once(pe, layout, monkeypatch):
    """The batch checked Q, K, V and the positions; no kernel check scans them again."""
    calls = []
    for module in (roll_core, spectral, rope, multiplex, attention):
        for name in _CHECKS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    batch, axial = _layout_batch(layout)
    pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
    for _ in range(2):
        monkeypatch.setattr(attention, "_tables", {})
        attend(batch, pe)
        grad_check(pe, batch)
    assert calls == []


# every encoding config at a sub-length of 7 or 8 that attend takes, scalar and axial,
# split into relative and absolute by the one predicate attention encodes with
_LAYER_CONFIGS = [
    (PEConfig(kind, lam, branch, waves, axial), n)
    for kind, lam, branch, waves in [
        (PEKind.SINUSOIDAL_APE, 1.0, SpectralBranch.CENTERED, 1),
        (PEKind.ROPE, 1.0, SpectralBranch.CENTERED, 1),
        (PEKind.ROLL_DISCRETE, 1.0, SpectralBranch.CENTERED, 1),
        (PEKind.ROLL_CONTINUOUS, 1.0, SpectralBranch.CENTERED, 1),
        (PEKind.ROLL_CONTINUOUS, 0.7, SpectralBranch.CENTERED, 1),
        (PEKind.ROLL_CONTINUOUS, 0.7, SpectralBranch.RAW, 1),
        (PEKind.MULTIPLEXED_ROLL, 1.0, SpectralBranch.CENTERED, 1),
        (PEKind.MULTIPLEXED_ROLL, 1.0, SpectralBranch.CENTERED, 3),
    ]
    for n in (7, 8)
    for axial in (False, True)
    if n % 2 == 0 or kind not in (PEKind.ROPE, PEKind.SINUSOIDAL_APE)
]
_RELATIVE = [config for config in _LAYER_CONFIGS if attention._relative(*config)]
_ABSOLUTE = [config for config in _LAYER_CONFIGS if not attention._relative(*config)]
# the discrete rolls, whose relative logits are bit for bit the same under a common offset
_EXACT_KINDS = (PEKind.ROLL_DISCRETE, PEKind.MULTIPLEXED_ROLL)


def _config_id(config):
    pe, n = config
    return f"{pe.kind.value}/{pe.branch.value}/lam={pe.lam}/W={pe.waves}/n={n}/axial={pe.axial}"


def test_the_predicate_splits_as_the_readme_lists():
    relative = {(pe.kind, pe.branch, pe.lam, pe.waves, n) for pe, n in _RELATIVE}
    assert relative == {
        (kind, SpectralBranch.CENTERED, lam, 1, n)
        for kind, lam, n in [
            (PEKind.ROPE, 1.0, 8), (PEKind.ROLL_DISCRETE, 1.0, 7), (PEKind.ROLL_DISCRETE, 1.0, 8),
            (PEKind.ROLL_CONTINUOUS, 1.0, 7), (PEKind.ROLL_CONTINUOUS, 0.7, 7),
            (PEKind.MULTIPLEXED_ROLL, 1.0, 7), (PEKind.MULTIPLEXED_ROLL, 1.0, 8),
        ]
    }
    assert not attention._relative(_pe(PEKind.NONE), 8)


class TestRelativeForm:
    """Relative configs attend as a function of position differences; absolute ones do not."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(config=st.sampled_from(_RELATIVE), t=st.integers(1, 6), sets=st.integers(0, 2),
           data=st.data())
    def test_relative_configs_ignore_a_common_offset(self, config, t, sets, data):
        """Logits at p + c against those at p, for every c that keeps |p + c| < 2**53.

        The phase kinds' positions are multiples of 2**-f, with |p + c| < 2**(53 - f), so
        p + c is exact and both batches hold positions a common c apart; the discrete rolls
        take integers.  Axially each coordinate takes its own offset.
        """
        pe, n = config
        exact = pe.kind in _EXACT_KINDS
        f = 0 if exact else data.draw(st.integers(0, 4), label="f")
        lead = (sets,) if sets else ()
        shape = (*lead, t, 2) if pe.axial else (*lead, t)
        ints = data.draw(st.lists(st.integers(-(2**10), 2**10), min_size=math.prod(shape),
                                  max_size=math.prod(shape)), label="p * 2**f")
        positions = np.reshape(ints, shape) / 2.0**f
        reach = 2**(53 - f) - 2**10 - 1
        offset = np.array(data.draw(st.lists(st.integers(-reach, reach), min_size=1 + pe.axial,
                                             max_size=1 + pe.axial), label="c * 2**f")) / 2.0**f
        if not pe.axial:
            offset = offset[0]
        moved = positions + offset
        np.testing.assert_array_equal(moved - offset, positions)   # p + c is exact
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q, k, v = rng.standard_normal((3, *lead, t, 2 * n if pe.axial else n))
        base = attend(AttentionBatch(q, k, v, positions), pe)
        shifted = attend(AttentionBatch(q, k, v, moved), pe)
        if exact:
            _assert_same_bits(shifted, base)
        else:
            gap = np.abs(shifted.logits - base.logits).max()
            assert gap <= 1e-13 * np.abs(base.logits).max(), gap

    @pytest.mark.parametrize("config", _ABSOLUTE, ids=_config_id)
    def test_absolute_configs_move_under_a_shift(self, config):
        """By more than the 1e-3 the multiplexed witness search counts as a violation, under
        a shift that is no multiple of lambda (nor of n for the multiplexed roll)."""
        pe, n = config
        rng = np.random.default_rng(46)
        t = 6
        q, k, v = rng.standard_normal((3, t, 2 * n if pe.axial else n))
        shape = (t, 2) if pe.axial else (t,)
        if pe.kind is PEKind.MULTIPLEXED_ROLL:
            positions, shift = rng.integers(-20, 20, size=shape).astype(float), 3.0
        else:
            positions, shift = rng.uniform(-20.0, 20.0, size=shape), 2.5 * pe.lam
        base = attend(AttentionBatch(q, k, v, positions), pe)
        moved = attend(AttentionBatch(q, k, v, positions + shift), pe)
        assert np.abs(moved.logits - base.logits).max() > 1e-3

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize(
        "pe", [_pe(PEKind.ROLL_DISCRETE), _pe(PEKind.MULTIPLEXED_ROLL, waves=1)],
        ids=["roll-discrete", "multiplexed-roll/W=1"],
    )
    def test_rolls_are_exact_at_the_position_limit(self, pe, n):
        """Mixed-sign positions near +-(2**53 - 1), where p - p0 is odd and at least 2**53,
        so no float64 holds it: attend equals the dense shift_matrix oracle at the exact
        differences, bit for bit."""
        top = 2**53 - 1
        ints = [-top, top - 1, top - 3, -(top - 4), top, 12345, -top + 2]
        assert all((p + top) % 2 == 1 and p + top >= 2**53 for p in ints[1:3])
        rng = np.random.default_rng([47, n])
        q, k, v = rng.standard_normal((3, len(ints), n))
        out = attend(AttentionBatch(q, k, v, np.array(ints, dtype=float)), pe)
        shifts = [p - ints[0] for p in ints]
        enc_q, enc_k = (
            np.stack([shift_matrix(n, s) @ row for s, row in zip(shifts, x)]) for x in (q, k)
        )
        logits, scores = attention._attention_weights(enc_q, enc_k, math.sqrt(n))
        np.testing.assert_array_equal(out.logits, logits)
        np.testing.assert_array_equal(out.scores, scores)
        np.testing.assert_array_equal(out.output, scores @ v)

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12, 1e15])
    def test_rope_stays_relative_at_large_offsets(self, offset):
        """Positions rising in steps of 0.1 to 1 from ``offset``, against the same positions
        less the first one: an exact difference (Sterbenz), so the two batches hold one set
        of differences.  Absolute rotary angles missed by 5.4e-2 at 1e15."""
        rng = np.random.default_rng(48)
        t, n = 16, 64
        q, k, v = rng.standard_normal((3, t, n))
        far = offset + np.cumsum(rng.uniform(0.1, 1.0, t))
        near = far - far[0]
        np.testing.assert_array_equal(near + far[0], far)
        pe = _pe(PEKind.ROPE)
        got = attend(AttentionBatch(q, k, v, far), pe).logits
        want = attend(AttentionBatch(q, k, v, near), pe).logits
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class _NumpyLookups:
    """Stands in for attention's ``np``, recording each name attention looks up in it."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(np, name)


@pytest.mark.parametrize(
    "pe", [_pe(PEKind.ROPE, axial=True), _pe(PEKind.ROLL_DISCRETE, axial=True),
           _pe(PEKind.MULTIPLEXED_ROLL, waves=1, axial=True)],
    ids=["rope", "roll-discrete", "multiplexed-roll/W=1"],
)
def test_a_repeated_grid_makes_no_extra_numpy_call(pe, empty_memo, monkeypatch):
    """t = 16, n = 32 on one 4 x 4 grid away from the origin, as attend-short-axial repeats it.

    The repeat finds its table under the raw positions: one fetch, keyed by
    ``_from_origin``, which is not called (it would fetch again), and the same NumPy
    calls from attention as on the absolute path's hit.
    """
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij"), -1)
    batch = AttentionBatch(*np.random.default_rng(49).standard_normal((3, 16, 32)),
                           grid.reshape(-1, 2) + [1234.0, 567.0])
    table = attention._table

    def repeat():
        attend(batch, pe)
        fetched = []
        with monkeypatch.context() as patch:
            numpy = _NumpyLookups()
            patch.setattr(attention, "np", numpy)
            patch.setattr(attention, "_table", lambda build, *args: (
                fetched.append(build.__name__), table(build, *args))[1])
            attend(batch, pe)
        return fetched, numpy.names

    fetched, names = repeat()
    assert fetched == ["_from_origin"]
    monkeypatch.setattr(attention, "_relative", lambda pe, n: False)
    absolute_fetched, absolute_names = repeat()
    assert len(absolute_fetched) == 1 and absolute_names == names
