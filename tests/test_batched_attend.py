"""Batched attention: B row-sets as (B, t, n) Q, K, V with (B, t) or (B, t, 2) positions."""

import numpy as np
import pytest

from rollpe import cli, roll_core
from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend, grad_check
from rollpe.cli import RunConfig, run
from rollpe.spectral import SpectralBranch
from test_cli import _equivariance_block, _per_trial_equivariance_rows

_CONFIGS = [
    *[PEConfig(kind=kind, lam=1.3, waves=3) for kind in PEKind],
    PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=0.7, branch=SpectralBranch.RAW),
]
_IDS = [pe.kind.value for pe in _CONFIGS[:-1]] + ["roll-continuous/raw"]

_INTEGER_KINDS = (PEKind.ROLL_DISCRETE, PEKind.MULTIPLEXED_ROLL)


def _stack(rng, pe, b, t, n, axial):
    """(B, t, n) Q, K, V and (B, t) or (B, t, 2) positions the kind accepts."""
    q, k, v = rng.standard_normal((3, b, t, n))
    shape = (b, t, 2) if axial else (b, t)
    if pe.kind in _INTEGER_KINDS:
        positions = rng.integers(-10**6, 10**6, size=shape).astype(float)
    else:
        positions = rng.uniform(-1e3, 1e3, size=shape)
    return q, k, v, positions


@pytest.mark.parametrize("shape", [(5, 8), (16, 12)], ids=["t=5,n=8", "t=16,n=12"])
@pytest.mark.parametrize("b", [1, 3], ids=["B=1", "B=3"])
@pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
@pytest.mark.parametrize("pe", _CONFIGS, ids=_IDS)
def test_row_set_b_attends_as_batch_b(pe, axial, b, shape):
    """Row-set b of a batched attend matches attend on batch b to 1e-14 of its max |value|."""
    t, n = shape
    pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
    q, k, v, positions = _stack(np.random.default_rng([b, t, n, int(axial)]), pe, b, t, n, axial)
    out = attend(AttentionBatch(q, k, v, positions), pe)
    assert out.output.shape == (b, t, n)
    assert out.scores.shape == out.logits.shape == (b, t, t)
    for i in range(b):
        want = attend(AttentionBatch(q[i], k[i], v[i], positions[i]), pe)
        for field in ("scores", "logits", "output"):
            got, expected = getattr(out, field)[i], getattr(want, field)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max(), field


def _boundary_cases():
    q = np.zeros((2, 3, 4))
    far = np.zeros((2, 3))
    far[1, 2] = 2.0**53
    cases = {
        "positions (B, t')": (q, q, q, np.zeros((2, 4)), "one row per token"),
        "positions of another B": (q, q, q, np.zeros((3, 3)), "one row per token"),
        "2-D positions for a 3-D batch": (q, q, q, np.zeros(3), "one row per token"),
        "axial (B, t, 3)": (q, q, q, np.zeros((2, 3, 3)), r"\(B, t, 2\)"),
        "4-D Q": (q[None], q[None], q[None], np.zeros((1, 2, 3)), r"\(B, t, n\)"),
        "B = 0": (q[:0], q[:0], q[:0], np.zeros((0, 3)), "row-sets"),
        "position 2**53 in one row-set": (q, q, q, far, "positions"),
    }
    for name in ("q", "k", "v", "positions"):
        for bad in (np.nan, np.inf):
            arrays = dict(q=q.copy(), k=q.copy(), v=q.copy(), positions=np.zeros((2, 3)))
            arrays[name][1, 2] = bad
            cases[f"{bad} in {name} of one row-set"] = (*arrays.values(), f"^{name} ")
    return cases


_BOUNDARY = _boundary_cases()


@pytest.mark.parametrize("case", list(_BOUNDARY), ids=list(_BOUNDARY))
def test_bad_batches_raise(case):
    *arrays, message = _BOUNDARY[case]
    with pytest.raises(ValueError, match=message):
        AttentionBatch(*arrays)


@pytest.mark.parametrize(
    "axial, positions",
    [(True, np.zeros((2, 3))), (False, np.zeros((2, 3, 2)))],
    ids=["axial config, scalar positions", "scalar config, axial positions"],
)
def test_arity_is_checked_on_batches(axial, positions):
    q = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="encoding requires"):
        attend(AttentionBatch(q, q, q, positions), PEConfig(kind=PEKind.ROPE, axial=axial))


@pytest.mark.parametrize("kind", [PEKind.NONE, PEKind.ROLL_DISCRETE, PEKind.ROPE])
def test_overflow_in_one_row_set_raises(kind):
    q = np.random.default_rng(4).standard_normal((3, 4, 8))
    q[2] = 1e200
    batch = AttentionBatch(q, q, np.ones_like(q), np.tile(np.arange(4.0), (3, 1)))
    with pytest.raises(FloatingPointError, match="overflow"):
        attend(batch, PEConfig(kind=kind))


@pytest.mark.parametrize("axial", [False, True], ids=["scalar", "axial"])
@pytest.mark.parametrize("pe", _CONFIGS, ids=_IDS)
def test_grad_check_on_a_batch_is_the_max_over_its_row_sets(pe, axial):
    """grad_check takes every batch attend takes; a batch's gap is its worst row-set's."""
    pe = PEConfig(pe.kind, pe.lam, pe.branch, pe.waves, axial)
    rng = np.random.default_rng(5)
    q, k, v = rng.standard_normal((3, 3, 4, 8))
    positions = rng.integers(-20, 21, size=(3, 4, 2) if axial else (3, 4)).astype(float)
    per_row_set = [grad_check(pe, AttentionBatch(q[b], k[b], v[b], positions[b])) for b in range(3)]
    assert grad_check(pe, AttentionBatch(q, k, v, positions)) == max(per_row_set)


def _record_attends(monkeypatch) -> list:
    """The Q shape of every attend the CLI makes from now on."""
    calls = []

    def counted(batch, pe, d=None):
        calls.append(batch.q.shape)
        return attend(batch, pe, d)

    monkeypatch.setattr(cli, "attend", counted)
    return calls


@pytest.mark.parametrize(
    "budget, block",
    # a trial at t = 5, n = 8 draws 8 (3 t n + 2 n + 3) = 1112 bytes
    [(1, 1), (1112 * 3, 3), (roll_core._BLOCK_BYTES, 32)],
    ids=["block=1", "block=3", "block=32"],
)
def test_equivariance_blocks_give_the_single_block_rows(budget, block, monkeypatch):
    """Scoring the trials in blocks changes no row: each row-set attends on its own,
    bit for bit the trial-by-trial oracle on the same blocks of draws."""
    cfg = RunConfig(command="equivariance-report", n=8, t=5, trials=10, seed=7)
    monkeypatch.setattr(roll_core, "_BLOCK_BYTES", budget)
    assert _equivariance_block(cfg) == block
    want = _per_trial_equivariance_rows(cfg, block)
    calls = _record_attends(monkeypatch)
    split = run(cfg)
    assert calls[0] == (2 * min(block, 10), 5, 8)
    assert len(calls) == -(-10 // block)
    assert [{key: row[key] for key in want[0]} for row in split.rows] == want


@pytest.mark.parametrize("t, trials", [(8, 100), (40, 12)], ids=["t=8", "t=40"])
def test_equivariance_blocks_stay_under_the_byte_budget(t, trials, monkeypatch):
    """Each block's (2*block, t, t) scores fit the budget and it holds at most 32 trials,
    so memory does not grow with trials."""
    calls = _record_attends(monkeypatch)
    rep = run(RunConfig(command="equivariance-report", n=8, t=t, trials=trials, seed=0))
    assert rep.summary["passed"]
    assert len(calls) > 1
    assert sum(rows for rows, _, _ in calls) == 2 * trials
    for rows, _, _ in calls:
        assert 8 * rows * t * t <= roll_core._BLOCK_BYTES
        assert rows <= 2 * roll_core._BLOCK_TRIALS
