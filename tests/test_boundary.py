"""Bad scalar arguments are refused with ``ValueError`` at every public entry point.

Each argument kind (branch, wavelength, positive integer, position,
integer shift) has one shared check in ``roll_core`` or ``spectral``, and
one table here: a row names an entry point and makes a call that hands it
a bad value of that kind.  The stacked kernels, ``roll_discrete``,
``roll_continuous``, ``rope_apply`` and ``mproll`` (here on a two-wave
stack), also get one table each for misshapen and non-finite positions;
the two kernels that are not permutations one more for non-finite rows.
``AttentionBatch`` positions, the witness's gap threshold and the even
length that rope and the APE need get one table each as well.
"""

import math

import numpy as np
import pytest

from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend, grad_check, sinusoidal_ape
from rollpe.cli import RunConfig
from rollpe.multiplex import equivariance_violation_witness, mproll
from rollpe.regularizer import lipschitz_gap
from rollpe.roll_core import relative_form_score, roll_discrete, rollpe_score, shift_matrix
from rollpe.rope import (
    classic_schedule,
    equivalence_residual,
    realified_fourier_basis,
    roll_induced_schedule,
    rope_apply,
)
from rollpe.spectral import (
    SpectralBranch,
    branch_angles,
    dft_matrix,
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
    "PEConfig/waves": lambda: PEConfig(kind=PEKind.MULTIPLEXED_ROLL, waves=2.5),
    "RunConfig/n": lambda: RunConfig(command="bench", n=2.5).validate(),
    "RunConfig/t": lambda: RunConfig(command="bench", t=2.5).validate(),
    "RunConfig/waves": lambda: RunConfig(command="multiplex-witness", waves=2.5).validate(),
    "RunConfig/trials": lambda: RunConfig(command="bench", trials=2.5).validate(),
})
def test_fractional_count_raises(call):
    """Dimensions and counts must be integers, not just at least 1."""
    with pytest.raises(ValueError, match="must be an integer"):
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
_kernels = pytest.mark.parametrize(
    "kernel", list(_STACKED_KERNELS.values()), ids=list(_STACKED_KERNELS)
)
# the discrete rolls are permutations: they pass non-finite rows through
_INTEGER_KERNELS = {
    "roll_discrete": roll_discrete,
    "mproll": lambda x, p: mproll([x, x], p),
}
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
