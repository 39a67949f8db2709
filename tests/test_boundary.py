"""Bad scalar arguments are refused with ``ValueError`` at every public entry point.

Each argument kind (branch, wavelength, positive integer, position,
integer shift) has one shared check in ``roll_core`` or ``spectral``, and
one table here: a row names an entry point and makes a call that hands it
a bad value of that kind.  The stacked kernels, ``roll_discrete``,
``roll_continuous``, ``rope_apply`` and ``mproll`` (here on a two-wave
stack), also get one table each for misshapen and non-finite positions;
all but ``roll_discrete``, a permutation, one more for non-finite rows.
``AttentionBatch`` positions, the witness's gap threshold, seeds, values
that are not real where a positive real belongs, Python ints beyond the
float range there and as positions, positions that are not real numbers,
bools where a count, a positive real, a shift or positions belong, and the
even length that rope and the APE need get one table each as well, and
so do the arrays ``FrequencySchedule`` and ``ShiftGenerator`` cannot
hold, while the arrays they can are copied, not shared.  The
score functions, ``rollpe_score``, ``relative_form_score`` and
``equivalence_residual``, get one table for query and key shapes that
differ or that no score takes, for misshapen and for non-finite stack
positions on each side, and ``equivalence_residual`` one more for
non-finite stack rows.  Finite inputs that overflow raise
``FloatingPointError`` with no warning, in one table over every entry point
under the floating-point policy (``roll_core._raising``), and each of them
leaves the caller's error state as it found it, whether it returns or raises.
No error state the caller sets changes what they return, bit for bit, also
on inputs whose arithmetic underflows.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from rollpe import attention
from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend, grad_check, sinusoidal_ape
from rollpe.cli import RunConfig, run
from rollpe.multiplex import equivariance_violation_witness, mproll, mproll_score
from rollpe.regularizer import circular_laplacian_loss, lipschitz_gap
from rollpe.roll_core import relative_form_score, roll_discrete, rollpe_score, shift_matrix
from rollpe.rope import (
    FrequencySchedule,
    classic_schedule,
    equivalence_residual,
    realified_fourier_basis,
    roll_induced_schedule,
    rope_apply,
)
from rollpe.spectral import (
    ShiftGenerator,
    SpectralBranch,
    branch_angles,
    dft_matrix,
    generator_residuals,
    log_shift_generator,
    roll_continuous,
)

# odd length: a real spectrum with no Nyquist bin
Q = np.array([0.3, -1.2, 2.0, 0.7, -0.4])
INF = math.inf


def _table(rows):
    return pytest.mark.parametrize("call", list(rows.values()), ids=list(rows))


@pytest.mark.parametrize("branch", list(SpectralBranch), ids=lambda b: b.value)
def test_string_branch_equals_member(branch):
    """A branch given by its string value runs that branch."""
    named = PEConfig(kind="roll-continuous", branch=branch.value)
    assert named.branch is branch
    rng = np.random.default_rng(30)
    q, k, v = rng.standard_normal((3, 6, 5))
    batch = AttentionBatch(q, k, v, rng.uniform(-4.0, 4.0, size=6))
    want = attend(batch, PEConfig(kind=PEKind.ROLL_CONTINUOUS, branch=branch)).scores
    np.testing.assert_array_equal(attend(batch, named).scores, want)


@_table({
    "PEConfig": lambda: PEConfig(kind=PEKind.ROLL_CONTINUOUS, branch="principal"),
    "branch_angles": lambda: branch_angles(5, "centered"),
    "roll_continuous": lambda: roll_continuous(Q, 0.5, 1.0, "centered"),
    "log_shift_generator": lambda: log_shift_generator(5, "raw"),
})
def test_non_member_branch_raises(call):
    with pytest.raises(ValueError):
        call()


@_table({
    "PEConfig": lambda: PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=INF),
    "roll_continuous": lambda: roll_continuous(Q, 0.5, INF),
    "roll_induced_schedule": lambda: roll_induced_schedule(5, INF),
    "RunConfig": lambda: RunConfig(command="rope-equivalence", lam=INF).validate(),
    "lipschitz_gap": lambda: lipschitz_gap(Q, 0.5, INF),
    "equivalence_residual": lambda: equivalence_residual(Q, Q, 0.5, 1.5, INF),
})
def test_infinite_wavelength_raises(call):
    """lambda = inf would make every roll the identity."""
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        call()


@_table({
    "shift_matrix": lambda: shift_matrix(2.5),
    "dft_matrix": lambda: dft_matrix(2.5),
    "branch_angles": lambda: branch_angles(2.5, SpectralBranch.CENTERED),
    "log_shift_generator": lambda: log_shift_generator(2.5),
    "realified_fourier_basis": lambda: realified_fourier_basis(2.5),
    "roll_induced_schedule": lambda: roll_induced_schedule(2.5),
    "classic_schedule": lambda: classic_schedule(2.5),
    "sinusoidal_ape": lambda: sinusoidal_ape([0, 1], 2.5),
    "equivariance_violation_witness/n": lambda: equivariance_violation_witness(3.5, 2, seed=0),
    "equivariance_violation_witness/waves": lambda: equivariance_violation_witness(8, 2.5, seed=0),
    "equivariance_violation_witness/seed": lambda: equivariance_violation_witness(8, 2, seed=2.5),
    "PEConfig/waves": lambda: PEConfig(kind=PEKind.MULTIPLEXED_ROLL, waves=2.5),
    "RunConfig/n": lambda: RunConfig(command="bench", n=2.5).validate(),
    "RunConfig/t": lambda: RunConfig(command="bench", t=2.5).validate(),
    "RunConfig/waves": lambda: RunConfig(command="multiplex-witness", waves=2.5).validate(),
    "RunConfig/trials": lambda: RunConfig(command="bench", trials=2.5).validate(),
    "RunConfig/seed": lambda: RunConfig(command="multiplex-witness", seed=2.5).validate(),
})
def test_fractional_count_raises(call):
    """Dimensions, counts and seeds must be integers, not just at least 1 (0 for a seed)."""
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@_table({
    "equivariance_violation_witness": lambda: equivariance_violation_witness(8, 2, seed=-1),
    "RunConfig": lambda: RunConfig(command="multiplex-witness", seed=-1).validate(),
})
def test_negative_seed_raises(call):
    """A seed below 0 is refused by name, not by the generator's own error."""
    with pytest.raises(ValueError, match="seed must be an integer of at least 0, got -1"):
        call()


@pytest.mark.parametrize("threshold", [math.nan, INF, 0, -1], ids=["nan", "inf", "0", "-1"])
def test_bad_gap_threshold_raises(threshold):
    """A witness needs a finite positive gap: NaN never fires, 0 or less fires on rounding."""
    with pytest.raises(ValueError, match="gap_threshold must be finite and positive"):
        equivariance_violation_witness(8, 2, seed=0, gap_threshold=threshold)


_QKV = np.random.default_rng(31).standard_normal((3, 4, 6))
_QKV7 = np.random.default_rng(32).standard_normal((3, 4, 7))
_AXIAL = np.stack([np.arange(4.0), np.arange(4.0)], axis=1)


@_table({
    "PEConfig/lambda": lambda: PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam="2"),
    "RunConfig/lambda": lambda: run(RunConfig(command="rope-equivalence", lam="2")),
    "roll_continuous/lambda": lambda: roll_continuous(Q, 0.5, "2"),
    "attend/d":
        lambda: attend(AttentionBatch(*_QKV, np.arange(4.0)), PEConfig(), d=np.array([4.0])),
    "equivariance_violation_witness/gap_threshold":
        lambda: equivariance_violation_witness(8, 2, seed=0, gap_threshold="1e-3"),
})
def test_non_real_positive_value_raises(call):
    """A string or an array where a positive real belongs is refused, not a ``TypeError`` later."""
    with pytest.raises(ValueError, match="must be finite and positive"):
        call()


# a Python int compares below inf however large it is, but float() of it overflows
_HUGE = 10**400


@_table({
    "roll_continuous": lambda: roll_continuous(Q, 0.5, _HUGE),
    "roll_induced_schedule": lambda: roll_induced_schedule(5, _HUGE),
    "equivalence_residual": lambda: equivalence_residual(Q, Q, 0.5, 1.5, _HUGE),
    "PEConfig": lambda: PEConfig(lam=_HUGE),
    "attend/d": lambda: attend(AttentionBatch(*_QKV, np.arange(4.0)), PEConfig(), d=_HUGE),
})
def test_int_beyond_float_range_raises(call):
    """Refused as not finite, before a float conversion raises ``OverflowError``."""
    with pytest.raises(ValueError, match="must be finite and positive, got 1000"):
        call()


_flags = pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])


@_flags
@_table({
    "shift_matrix": lambda flag: shift_matrix(flag),
    "PEConfig/waves": lambda flag: PEConfig(kind=PEKind.MULTIPLEXED_ROLL, waves=flag),
    "RunConfig/n": lambda flag: RunConfig(command="rope-equivalence", n=flag).validate(),
    "RunConfig/seed": lambda flag: RunConfig(command="rope-equivalence", seed=flag).validate(),
    "equivariance_violation_witness/budget":
        lambda flag: equivariance_violation_witness(8, 2, seed=0, budget=flag),
})
def test_bool_count_raises(call, flag):
    """True compares as 1 and is a Real, but a flag is not a count: refused, not run as 1."""
    with pytest.raises(ValueError, match=r"must be an integer of at least [01], got (np\.)?True"):
        call(flag)


@_flags
@_table({
    "PEConfig/lambda": lambda flag: PEConfig(lam=flag),
    "RunConfig/lambda": lambda flag: RunConfig(command="rope-equivalence", lam=flag).validate(),
    "roll_continuous/lambda": lambda flag: roll_continuous(Q, 0.5, flag),
    "attend/d":
        lambda flag: attend(AttentionBatch(*_QKV, np.arange(4.0)), PEConfig(), d=flag),
    "equivariance_violation_witness/gap_threshold":
        lambda flag: equivariance_violation_witness(8, 2, seed=0, gap_threshold=flag),
})
def test_bool_positive_real_raises(call, flag):
    """A flag where a wavelength, ``d`` or a threshold belongs is refused, not stored as 1.0."""
    with pytest.raises(ValueError, match=r"must be finite and positive, got (np\.)?True"):
        call(flag)


@_flags
@_table({
    "roll_discrete": lambda flag: roll_discrete(Q, flag),
    "shift_matrix": lambda flag: shift_matrix(4, flag),
    "rollpe_score": lambda flag: rollpe_score(Q, Q, flag, 0),
    "relative_form_score": lambda flag: relative_form_score(Q, Q, flag),
    "mproll": lambda flag: mproll(Q[None], flag),
})
def test_bool_shift_raises(call, flag):
    """A flag where a vector's shift belongs is refused, not rolled by 1."""
    with pytest.raises(ValueError, match=r"shift count must be an integer, got (np\.)?True"):
        call(flag)


@_flags
@_table({
    "AttentionBatch": lambda flag: AttentionBatch(*_QKV, [flag, False, flag, False]),
    "AttentionBatch/object":
        lambda flag: AttentionBatch(*_QKV, np.array([0, flag, 2, 3], dtype=object)),
    "roll_discrete": lambda flag: roll_discrete(np.eye(2), np.array([flag, False])),
    "roll_discrete/object": lambda flag: roll_discrete(_ROWS, np.array([0, flag, 2], dtype=object)),
    "roll_continuous": lambda flag: roll_continuous(Q, flag),
    "rope_apply": lambda flag: rope_apply(np.ones(4), flag, _SCHED4),
    "mproll": lambda flag: mproll([_ROWS, _ROWS], [flag, False, flag]),
    "sinusoidal_ape": lambda flag: sinusoidal_ape([flag, False], 4),
})
def test_bool_positions_raise(call, flag):
    """A mask where positions belong is refused, not read as positions 1 and 0."""
    with pytest.raises(ValueError, match="positions must be real numbers, got dtype (bool|object)"):
        call(flag)


@_flags
@_table({
    "AttentionBatch/list": lambda flag: AttentionBatch(*_QKV, [flag, 0, 1, 2]),
    "AttentionBatch/tuple": lambda flag: AttentionBatch(*_QKV, (0, 1.5, flag, 2)),
    "AttentionBatch/axial":
        lambda flag: AttentionBatch(*_QKV, [[0, 1], [flag, 0], [1, 1], [2, 2]]),
    "AttentionBatch/array-in-list":
        lambda flag: AttentionBatch(*_QKV, [np.arange(2), np.array([flag, False]), [1, 1], [2, 2]]),
    "AttentionBatch/zero-d-in-list": lambda flag: AttentionBatch(*_QKV, [0, np.array(flag), 2, 3]),
    "roll_discrete": lambda flag: roll_discrete(_ROWS, [0, flag, 2]),
    "roll_continuous": lambda flag: roll_continuous(_ROWS, [0.5, flag, 2.0]),
    "rope_apply": lambda flag: rope_apply(_ROWS, (flag, 0.5, 1.0), _SCHED4),
    "mproll": lambda flag: mproll([_ROWS, _ROWS], [flag, 0, 1]),
    "sinusoidal_ape": lambda flag: sinusoidal_ape([flag, 1.5], 4),
})
def test_bool_among_listed_positions_raises(call, flag):
    """A bool inside a list or tuple of numbers is refused, not read as position 1."""
    with pytest.raises(ValueError, match="positions must be real numbers, got a bool in the "):
        call(flag)


@_table({
    "scalar": lambda: AttentionBatch(*_QKV, 3.0),
    "zero-d": lambda: AttentionBatch(*_QKV, np.array(3.0)),
    "long": lambda: AttentionBatch(*_QKV, np.arange(5)),
    "three-d": lambda: AttentionBatch(*_QKV, np.zeros((4, 2, 1))),
})
def test_misshapen_batch_positions_raise(call):
    with pytest.raises(ValueError, match="positions must have one row per token"):
        call()


def _odd_length_call(entry, kind, axial):
    """``entry`` with ``kind`` at n = 7, or axially at halves of length 3."""
    if axial:
        batch, pe = AttentionBatch(*_QKV, _AXIAL), PEConfig(kind=kind, axial=True)
    else:
        batch, pe = AttentionBatch(*_QKV7, np.arange(4.0)), PEConfig(kind=kind)
    return (lambda: attend(batch, pe)) if entry == "attend" else (lambda: grad_check(pe, batch))


@_table({
    f"{entry}/{kind.value}/{'axial' if axial else 'scalar'}": _odd_length_call(entry, kind, axial)
    for entry in ("attend", "grad_check")
    for kind in (PEKind.ROPE, PEKind.SINUSOIDAL_APE)
    for axial in (False, True)
})
def test_odd_classic_length_raises(call):
    """Rope and the APE need an even length: n = 7 scalar, halves of 3 axially."""
    with pytest.raises(ValueError, match="even integer, got [37]"):
        call()


@pytest.mark.parametrize("p", [INF, -INF, math.nan])
def test_non_finite_rope_position_raises(p):
    with pytest.raises(ValueError, match="position must be finite"):
        rope_apply(np.ones(4), p, classic_schedule(4))


@pytest.mark.parametrize("p", [INF, -INF], ids=["inf", "-inf"])
@_table({
    "roll_discrete": lambda p: roll_discrete(Q, p),
    "shift_matrix": lambda p: shift_matrix(5, p),
    "rollpe_score": lambda p: rollpe_score(Q, Q, p, 0),
    "relative_form_score": lambda p: relative_form_score(Q, Q, p),
    "mproll": lambda p: mproll(Q[None], p),
})
def test_infinite_shift_raises_value_error(call, p):
    """An infinite shift is a bad argument, not an arithmetic overflow."""
    with pytest.raises(ValueError, match="must be an integer"):
        call(p)


_SCHED4 = classic_schedule(4)
_STACKED_KERNELS = {
    "roll_continuous": roll_continuous,
    "rope_apply": lambda x, p: rope_apply(x, p, _SCHED4),
}
# the kernels of integer positions; roll_discrete alone is a permutation,
# which passes non-finite rows through, and every other kernel refuses them
_INTEGER_KERNELS = {
    "roll_discrete": roll_discrete,
    "mproll": lambda x, p: mproll([x, x], p),
}
_FINITE_KERNELS = {**_STACKED_KERNELS, "mproll": _INTEGER_KERNELS["mproll"]}
_kernels = pytest.mark.parametrize(
    "kernel", list(_FINITE_KERNELS.values()), ids=list(_FINITE_KERNELS)
)
_position_kernels = pytest.mark.parametrize(
    "kernel",
    [*_STACKED_KERNELS.values(), *_INTEGER_KERNELS.values()],
    ids=[*_STACKED_KERNELS, *_INTEGER_KERNELS],
)
_ROWS = np.arange(12.0).reshape(3, 4)


@_position_kernels
@pytest.mark.parametrize(
    "x, p",
    [
        (_ROWS, 0.5),
        (_ROWS, np.zeros(2)),
        (_ROWS, np.zeros(4)),
        (_ROWS, np.zeros((3, 1))),
        (_ROWS[0], np.zeros(1)),
        (_ROWS[0], np.zeros(4)),
        (np.zeros((3, 0)), np.zeros(3)),
        (np.zeros((2, 3, 4)), np.zeros((2, 3))),
        (np.zeros((3, 3, 4)), np.zeros((3, 3))),
        (np.zeros((2, 3, 4)), np.zeros(4)),
        (np.zeros((2, 3, 4)), 0.5),
        (np.zeros((2, 2, 3, 4)), np.zeros(3)),
    ],
    ids=[
        "stack-scalar", "stack-short", "stack-long", "stack-column",
        "vector-one", "vector-many", "empty-rows", "three-d",
        "row-sets-per-row", "row-sets-long", "row-sets-scalar", "four-d",
    ],
)
def test_misshapen_positions_raise(kernel, x, p):
    """A stack takes one position per row, a vector one scalar; an (s, t, n)
    stack of row-sets takes the (t,) positions its row-sets share."""
    with pytest.raises(ValueError):
        kernel(x, p)


_STRINGS = ["1", "2", "3"]


@_table({
    "roll_discrete": lambda: roll_discrete(_ROWS, _STRINGS),
    "roll_continuous": lambda: roll_continuous(Q, "0.5"),
    "rope_apply": lambda: rope_apply(np.ones(4), "1", _SCHED4),
    "mproll": lambda: mproll([_ROWS, _ROWS], _STRINGS),
    "mproll_score": lambda: mproll_score([_ROWS, _ROWS], [_ROWS, _ROWS], _STRINGS, [0, 1, 2]),
    "rollpe_score": lambda: rollpe_score(_ROWS, _ROWS, _STRINGS, [0, 1, 2]),
    "relative_form_score": lambda: relative_form_score(_ROWS, _ROWS, _STRINGS),
    "equivalence_residual": lambda: equivalence_residual(Q, Q, "1", 2.0),
    "sinusoidal_ape": lambda: sinusoidal_ape(["1"], 4),
    "AttentionBatch": lambda: AttentionBatch(*_QKV, ["0", "1", "2", "3"]),
    "roll_discrete/bytes": lambda: roll_discrete(_ROWS, [b"1", b"2", b"3"]),
    "roll_continuous/bytes": lambda: roll_continuous(Q, b"0.5"),
    "AttentionBatch/bytes": lambda: AttentionBatch(*_QKV, [b"0", b"1", b"2", b"3"]),
    "roll_discrete/object": lambda: roll_discrete(_ROWS, np.array([2**70, "1", 0], dtype=object)),
    "AttentionBatch/object": lambda: AttentionBatch(*_QKV, np.array([0, "1", 2, 3], dtype=object)),
    "roll_continuous/complex": lambda: roll_continuous(Q, 0.5 + 0j),
})
def test_non_real_position_raises(call):
    """A string or bytes position is refused, not parsed as the number it spells."""
    with pytest.raises(ValueError, match="positions must be real numbers"):
        call()


_TWO_ROWS = _ROWS[:2]
_HUGE_POSITIONS = [0, _HUGE]


@_table({
    "AttentionBatch": lambda: AttentionBatch(*np.zeros((3, 2, 4)), _HUGE_POSITIONS),
    "roll_continuous": lambda: roll_continuous(_TWO_ROWS, _HUGE_POSITIONS),
    "roll_continuous/vector": lambda: roll_continuous(Q, _HUGE),
    "rope_apply": lambda: rope_apply(_TWO_ROWS, _HUGE_POSITIONS, _SCHED4),
    "rope_apply/vector": lambda: rope_apply(np.ones(4), -_HUGE, _SCHED4),
    "equivalence_residual/p_q":
        lambda: equivalence_residual(_TWO_ROWS, _TWO_ROWS, _HUGE_POSITIONS, [0, 1]),
    "equivalence_residual/p_k": lambda: equivalence_residual(Q, Q, 0.0, _HUGE),
    "sinusoidal_ape": lambda: sinusoidal_ape(_HUGE_POSITIONS, 4),
    "roll_discrete": lambda: roll_discrete(_TWO_ROWS, _HUGE_POSITIONS),
    "mproll": lambda: mproll([_TWO_ROWS, _TWO_ROWS], _HUGE_POSITIONS),
    "rollpe_score": lambda: rollpe_score(_TWO_ROWS, _TWO_ROWS, [0, 1], _HUGE_POSITIONS),
    "relative_form_score": lambda: relative_form_score(_TWO_ROWS, _TWO_ROWS, _HUGE_POSITIONS),
})
def test_position_beyond_float_range_raises(call):
    """A Python int position beyond the float64 range is refused, not an ``OverflowError``."""
    with pytest.raises(ValueError, match="positions must lie within the float64 range"):
        call()


@_position_kernels
@pytest.mark.parametrize("bad", [math.nan, INF, -INF], ids=["nan", "inf", "-inf"])
def test_non_finite_stack_position_raises(kernel, bad):
    with pytest.raises(ValueError, match="position must be finite"):
        kernel(_ROWS, np.array([0.0, bad, 1.0]))


def test_fractional_mproll_stack_position_raises():
    with pytest.raises(ValueError, match="must be an integer"):
        mproll([_ROWS, _ROWS], np.array([0.0, 2.5, 1.0]))


@_kernels
@pytest.mark.parametrize("bad", [math.nan, INF, -INF], ids=["nan", "inf", "-inf"])
def test_non_finite_row_raises(kernel, bad):
    rows = _ROWS.copy()
    rows[2, 1] = bad
    with pytest.raises(FloatingPointError):
        kernel(rows, np.zeros(3))


# the score functions take two vectors or two (T, n) stacks; here T = 3, n = 5
_QK = np.random.default_rng(33).standard_normal((2, 3, 5))
_P3 = np.array([0.0, 2.0, -1.0])
_STACKED_SCORES = {
    "rollpe_score/p_q": lambda q, k, p: rollpe_score(q, k, p, _P3),
    "rollpe_score/p_k": lambda q, k, p: rollpe_score(q, k, _P3, p),
    "relative_form_score": lambda q, k, p: relative_form_score(q, k, p),
    "equivalence_residual/p_q": lambda q, k, p: equivalence_residual(q, k, p, _P3),
    "equivalence_residual/p_k": lambda q, k, p: equivalence_residual(q, k, _P3, p),
}
_scores = pytest.mark.parametrize(
    "score", list(_STACKED_SCORES.values()), ids=list(_STACKED_SCORES)
)


@_scores
@pytest.mark.parametrize(
    "q, k",
    [(_QK[0], _QK[1][:2]), (_QK[0], _QK[1][:, :4]), (_QK[0], _QK[1][0]), (_QK[0][0], _QK[1])],
    ids=["rows", "length", "stack-vector", "vector-stack"],
)
def test_stacked_score_shape_mismatch_raises(score, q, k):
    """Query and key must be two vectors or two stacks of one (T, n) shape."""
    with pytest.raises(ValueError, match="query and key must share one shape"):
        score(q, k, _P3)


@_scores
@pytest.mark.parametrize(
    "p",
    [0.0, np.zeros(2), np.zeros(4), np.zeros((3, 1))],
    ids=["scalar", "short", "long", "column"],
)
def test_stacked_score_misshapen_positions_raise(score, p):
    """A (T, n) stack takes (T,) positions, one per trial, on every side."""
    with pytest.raises(ValueError):
        score(_QK[0], _QK[1], p)


@_scores
@pytest.mark.parametrize("bad", [math.nan, INF, -INF], ids=["nan", "inf", "-inf"])
def test_stacked_score_non_finite_position_raises(score, bad):
    with pytest.raises(ValueError):
        score(_QK[0], _QK[1], np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", [0, 1], ids=["q", "k"])
def test_stacked_equivalence_residual_non_finite_row_raises(side, bad):
    qk = _QK.copy()
    qk[side, 2, 1] = bad
    with pytest.raises(FloatingPointError):
        equivalence_residual(qk[0], qk[1], _P3, _P3)


@_table({
    "rollpe_score/row-sets":
        lambda: rollpe_score(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)), [0, 1], [0, 1]),
    "relative_form_score/empty": lambda: relative_form_score([], [], 0),
    "equivalence_residual/row-sets":
        lambda: equivalence_residual(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)), [0, 1], [0, 1]),
})
def test_score_of_row_sets_or_an_empty_vector_raises(call):
    """The score functions take two vectors or two (T, n) stacks, and nothing else."""
    with pytest.raises(ValueError, match=r"q must be a non-empty 1-D vector or \(T, n\) stack"):
        call()


def test_frequency_schedule_of_a_matrix_raises():
    with pytest.raises(ValueError, match="omegas must be a 1-D vector"):
        FrequencySchedule(np.ones((2, 2)))


# each value type that holds a caller's array, built from that array, and the array it keeps
_ARRAY_OWNERS = {
    "FrequencySchedule": (lambda: np.array([0.5, 0.25]), FrequencySchedule, "omegas"),
    "ShiftGenerator": (
        lambda: log_shift_generator(4).matrix.copy(),
        lambda a: ShiftGenerator(4, SpectralBranch.CENTERED, a),
        "matrix",
    ),
}


@pytest.mark.parametrize("make, build, field", _ARRAY_OWNERS.values(), ids=_ARRAY_OWNERS)
def test_value_types_copy_the_callers_array(make, build, field):
    """The caller's array stays writeable and unshared; the kept copy is read-only."""
    given = make()
    kept = getattr(build(given), field)
    assert not np.shares_memory(kept, given) and not kept.flags.writeable
    before = kept.copy()
    given[0] = 1.0
    np.testing.assert_array_equal(kept, before)


@_table({
    "FrequencySchedule/str": lambda: FrequencySchedule("1.0"),
    "FrequencySchedule/bytes": lambda: FrequencySchedule(b"3"),
    "FrequencySchedule/bool-in-list": lambda: FrequencySchedule([True, 2.0]),
    "FrequencySchedule/complex-array": lambda: FrequencySchedule(np.array([1 + 1j])),
    "FrequencySchedule/complex-list": lambda: FrequencySchedule([1 + 1j]),
    "FrequencySchedule/int-beyond-float": lambda: FrequencySchedule([_HUGE]),
    "ShiftGenerator/smaller": lambda: ShiftGenerator(4, SpectralBranch.RAW, np.zeros((3, 3))),
    "ShiftGenerator/larger": lambda: ShiftGenerator(3, SpectralBranch.RAW, np.zeros((4, 4))),
    "ShiftGenerator/vector": lambda: ShiftGenerator(4, SpectralBranch.RAW, np.zeros(4)),
    "ShiftGenerator/nested-list": lambda: ShiftGenerator(2, SpectralBranch.RAW, [[0.0] * 3] * 2),
})
def test_value_types_refuse_what_they_cannot_hold(call):
    """Frequencies follow the positions' dtype rule; a generator's matrix must be (n, n)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frequencies must|matrix must be"):
            call()


# finite entries whose products overflow: 1e200 * 1e200 is inf, and +inf meets -inf in a sum
_BIG, _BIG_MIXED = [1e200, 1e200], [1e200, -1e200]
# 20 pairs of length 8 at positions in [-24, 24], whose roll-induced angles overflow at tiny lambda
_rng5 = np.random.default_rng(5)
_QK20 = _rng5.standard_normal((2, 20, 8))
_P20 = _rng5.uniform(-24.0, 24.0, size=(2, 20))


# one call per entry point under roll_core._raising whose finite inputs overflow
_OVERFLOWS = {
    "rollpe_score": lambda: rollpe_score(_BIG, _BIG_MIXED, 0, 0),
    "relative_form_score": lambda: relative_form_score(_BIG, _BIG_MIXED, 0),
    "mproll_score": lambda: mproll_score([_BIG], [_BIG_MIXED], 0, 0),
    "equivalence_residual":
        lambda: equivalence_residual([1e200] * 3, [1e200, -1e200, 0.0], 0.3, 0.1),
    "lipschitz_gap": lambda: lipschitz_gap([1e200] * 3, 0.5),
    "grad_check": lambda: grad_check(
        PEConfig(), AttentionBatch(*_QKV[:2], np.full((4, 6), 1e308), np.arange(4.0))
    ),
    "mproll": lambda: mproll([[1e308, 1e308], [1e308, 1e308]], 0),
    # a spectrum's DC bin sums eight entries of 1.7e308
    "roll_continuous": lambda: roll_continuous(np.full(8, 1.7e308), 0.5),
    "roll_continuous/stack": lambda: roll_continuous(np.full((2, 8), 1.7e308), [0.5, -2.0]),
    "rope_apply": lambda: rope_apply(np.full(8, 1.7e308), 0.7, classic_schedule(8)),
    # a position times a frequency overflows the angle p * omega_k
    "rope_apply/angle": lambda: rope_apply(np.ones(2), 1e10, FrequencySchedule([1e300])),
    "rope_apply/angle/rows-negative-frequency":
        lambda: rope_apply(np.ones((3, 2)), [0.5, -1e10, 2.0], FrequencySchedule([-1e300])),
    "rope_apply/angle/roll-induced-tiny-lambda":
        lambda: rope_apply(np.ones((2, 3, 6)), [1e10, 3.0, -2.0], roll_induced_schedule(8, 1e-300)),
    **{
        f"equivalence_residual/angle/{name}": (
            lambda lam=lam: equivalence_residual(*_QK20, *_P20, lam)
        )
        for name, lam in {
            "lambda-1e-307": 1e-307, "numpy-lambda-1e-307": np.float64(1e-307),
            "lambda-1e-320": 1e-320,
        }.items()
    },
    "circular_laplacian_loss": lambda: circular_laplacian_loss([1e300, -1e300, 0.0]),
    "generator_residuals": lambda: generator_residuals(
        ShiftGenerator(4, SpectralBranch.CENTERED, np.full((4, 4), 1e308 + 0j))
    ),
    # 2*pi*k / (lam*n) overflows before FrequencySchedule can refuse it
    "roll_induced_schedule": lambda: roll_induced_schedule(8, 5e-324),
    # Q = 1e308 against K = 1 overflows each kind's encoding or logits, and the
    # multiplexed roll's seeded maps
    **{
        f"attend/{kind.value}/{'axial' if axial else 'scalar'}": (
            lambda kind=kind, axial=axial: attend(
                AttentionBatch(np.full((4, 8), 1e308), np.ones((4, 8)), np.ones((4, 8)),
                               np.zeros((4, 2)) if axial else np.arange(4.0)),
                PEConfig(kind=kind, waves=3, axial=axial),
            )
        )
        for kind in PEKind for axial in (False, True)
    },
}


@_table(_OVERFLOWS)
def test_finite_inputs_that_overflow_raise(call):
    """An overflow raises ``FloatingPointError``, not a NaN result or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            call()


# (8, 8) Q, K and V; 30 Q against itself gives off-diagonal logits down to about -1e3
_QKV8 = np.random.default_rng(32).standard_normal((3, 8, 8))


# one call per entry point under roll_core._raising that returns; equivalence_residual,
# mproll_score and lipschitz_gap run entry points under it in turn
_RETURNS = {
    "rollpe_score": lambda: rollpe_score(Q, Q[::-1], 1, 3),
    "relative_form_score": lambda: relative_form_score(Q, Q[::-1], 2),
    "roll_continuous": lambda: roll_continuous(Q, 0.5),
    "generator_residuals": lambda: generator_residuals(log_shift_generator(5)),
    "rope_apply": lambda: rope_apply(np.ones(4), 0.7, _SCHED4),
    "roll_induced_schedule": lambda: roll_induced_schedule(8, 0.5),
    "equivalence_residual": lambda: equivalence_residual(Q, Q[::-1], 0.3, 1.2),
    # frequencies up to 1.6e308 and no angle but 0, which overflow nowhere
    "equivalence_residual/tiny-lambda":
        lambda: equivalence_residual(_QKV8[0, 0], _QKV8[1, 0], 0.0, 0.0, 1.5e-308),
    "mproll": lambda: mproll([Q, Q], 2),
    "mproll_score": lambda: mproll_score([Q, Q], [Q, -Q], 1, 2),
    "attend": lambda: attend(AttentionBatch(*_QKV, np.arange(4.0)), PEConfig(kind=PEKind.ROPE)),
    "grad_check": lambda: grad_check(PEConfig(), AttentionBatch(*_QKV, np.arange(4.0))),
    "lipschitz_gap": lambda: lipschitz_gap(Q, 0.5),
    "circular_laplacian_loss": lambda: circular_laplacian_loss(Q),
    # logits whose exp underflows to 0 off the diagonal, which leads each row
    **{
        f"attend/{kind.value}/underflow": (
            lambda kind=kind: attend(
                AttentionBatch(30 * _QKV8[0], 30 * _QKV8[0], _QKV8[2], np.arange(8.0)),
                PEConfig(kind=kind, waves=3),
            )
        )
        for kind in PEKind
    },
    # subnormal positions, whose phases underflow
    "attend/sinusoidal-ape/subnormal": lambda: attend(
        AttentionBatch(*_QKV8, 1e-310 * np.arange(8.0)),
        PEConfig(kind=PEKind.SINUSOIDAL_APE),
    ),
    "rollpe_score/underflow": lambda: rollpe_score(np.full(4, 1e-300), np.full(4, 1e-300), 1, 2),
    "equivalence_residual/underflow":
        lambda: equivalence_residual(np.full(4, 1e-300), np.full(4, 1e-300), 0.3, 1.2),
    "sinusoidal_ape": lambda: sinusoidal_ape([1e-310, 3.0], 8),
}
# overflows that raise inside the nested entry point, not in the caller's own arithmetic
_NESTED_OVERFLOWS = {
    "equivalence_residual/in-roll_continuous":
        lambda: equivalence_residual(np.full(8, 1.7e308), np.ones(8), 0.3, 0.1),
    "mproll_score/in-mproll":
        lambda: mproll_score([[1e308, 1e308], [1e308, 1e308]], [[1.0, 1.0]] * 2, 0, 0),
}
_RAISES = {**_OVERFLOWS, **_NESTED_OVERFLOWS}


def _bits(value):
    """``value`` as nested tuples of bytes: two results compare bit for bit, NaN and -0.0 too."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


_OUTER_STATES = {
    "default": {}, "ignore": {"all": "ignore"}, "raise": {"all": "raise"},
    "under": {"under": "raise"}, "divide": {"divide": "raise"},
}


@pytest.mark.parametrize("outer", _OUTER_STATES.values(), ids=_OUTER_STATES)
@_table({
    **{f"{name}/returns": (call, False) for name, call in _RETURNS.items()},
    **{f"{name}/raises": (call, True) for name, call in _RAISES.items()},
})
def test_entry_points_restore_the_error_state(call, outer, monkeypatch):
    """The caller's error state holds again once an entry point returns or raises.

    Whatever the caller's state, an entry point returns the bits it returns
    under numpy's default state, and an overflow still raises: the policy
    is the entry point's, not the caller's.  Each call starts from an empty
    position-table memo, so ``attend`` builds its tables under that state.
    """
    call, raises = call
    monkeypatch.setattr(attention, "_tables", {})
    with np.errstate(**outer):
        before = np.geterr()
        if raises:
            with pytest.raises(FloatingPointError):
                call()
        else:
            got = _bits(call())
        assert np.geterr() == before
    if not raises:
        attention._tables.clear()
        assert got == _bits(call())
