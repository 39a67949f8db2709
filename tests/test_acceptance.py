"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import time

import numpy as np

from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend, grad_check
from rollpe.cli import RunConfig, run
from rollpe.multiplex import equivariance_violation_witness, mproll
from rollpe.regularizer import circular_laplacian_loss, lipschitz_gap
from rollpe.roll_core import relative_form_score, roll_discrete, rollpe_score
from rollpe.rope import equivalence_residual
from rollpe.spectral import (
    SpectralBranch,
    generator_residuals,
    log_shift_generator,
    roll_continuous,
)

from test_attention import _rope_attention

BOTH_BRANCHES = (SpectralBranch.RAW, SpectralBranch.CENTERED)


def _check(num, name, ok, detail, elapsed, budget_s):
    in_budget = elapsed < budget_s
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(
        f"[criterion {num:02d}] {status} {name}: {detail} "
        f"({elapsed:.2f}s, budget {budget_s:g}s)"
    )
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_budget, f"criterion {num} ({name}) exceeded budget: {elapsed:.2f}s"


def test_01_relative_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = (3, 4, 8, 16, 64)
    worst = 0.0
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        q, k = rng.standard_normal((2, n))
        p_q, p_k = (int(x) for x in rng.integers(-3 * n, 3 * n + 1, size=2))
        gap = abs(
            rollpe_score(q, k, p_q, p_k) - relative_form_score(q, k, p_k - p_q)
        )
        worst = max(worst, gap)
    _check(
        1, "relative-form equivalence", worst <= 1e-12,
        f"max |pair score - closed form| = {worst:.3e} (tol 1e-12, 1000 trials)",
        time.perf_counter() - start, 5.0,
    )


def test_02_translation_equivariance_of_scores():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    t, n = 8, 16
    qkv = rng.standard_normal((3, t, n))
    pos_1d = np.arange(t)
    pos_2d = np.stack([np.arange(t), np.arange(t)[::-1]], axis=1)
    # odd (sub-)lengths: the centered continuous roll is relative at real shifts too
    qkv_9, qkv_18 = rng.standard_normal((3, t, 9)), rng.standard_normal((3, t, 18))
    frac_1d, frac_2d = rng.uniform(-20.0, 20.0, size=t), rng.uniform(-20.0, 20.0, size=(t, 2))
    configs = [
        ("roll-discrete 1d", PEConfig(kind=PEKind.ROLL_DISCRETE), qkv, pos_1d, 4),
        ("roll-continuous 1d", PEConfig(kind=PEKind.ROLL_CONTINUOUS), qkv, pos_1d, 4),
        ("rope 1d", PEConfig(kind=PEKind.ROPE), qkv, pos_1d, 4),
        ("roll-discrete 2d", PEConfig(kind=PEKind.ROLL_DISCRETE, axial=True), qkv, pos_2d, (3, 7)),
        (
            "roll-continuous 2d",
            PEConfig(kind=PEKind.ROLL_CONTINUOUS, axial=True), qkv, pos_2d, (3, 7),
        ),
        ("rope 2d", PEConfig(kind=PEKind.ROPE, axial=True), qkv, pos_2d, (3, 7)),
        (
            "roll-continuous 1d odd n, fractional",
            PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=1.5), qkv_9, frac_1d, 2.375,
        ),
        (
            "roll-continuous 2d odd halves, fractional",
            PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=0.75, axial=True), qkv_18, frac_2d,
            (0.625, -3.3),
        ),
    ]
    worst, worst_name = 0.0, ""
    for name, pe, (q, k, v), pos, shift in configs:
        base = attend(AttentionBatch(q, k, v, pos), pe).scores
        moved = attend(AttentionBatch(q, k, v, pos + np.asarray(shift)), pe).scores
        gap = float(np.abs(moved - base).max())
        if gap > worst:
            worst, worst_name = gap, name
    _check(
        2, "translation equivariance of attention scores", worst <= 1e-12,
        f"max score-matrix gap = {worst:.3e} (worst: {worst_name or 'n/a'}, tol 1e-12)",
        time.perf_counter() - start, 10.0,
    )


def test_03_continuous_discrete_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (3, 4, 5, 16, 17, 64):
        q = rng.standard_normal(n)
        for branch in BOTH_BRANCHES:
            for s in (-2 * n, -3, -1, 0, 1, 5, n, 2 * n + 1):
                gap = np.abs(
                    roll_continuous(q, float(s), 1.0, branch) - roll_discrete(q, s)
                ).max()
                worst = max(worst, float(gap))
    _check(
        3, "continuous/discrete consistency", worst <= 1e-9,
        f"max |continuous - discrete| at integer shifts = {worst:.3e} (tol 1e-9)",
        time.perf_counter() - start, 5.0,
    )


def test_04_generator_validity():
    start = time.perf_counter()
    worst_exp = worst_skew = worst_real = 0.0
    for n in (1, 2, 3, 4, 5, 8, 16, 17, 64):
        for branch in BOTH_BRANCHES:
            res = generator_residuals(log_shift_generator(n, branch))
            worst_exp = max(worst_exp, res.exp_vs_shift)
            worst_skew = max(worst_skew, res.skew)
        if n % 2 == 1:
            gen = log_shift_generator(n, SpectralBranch.CENTERED)
            worst_real = max(worst_real, float(np.abs(gen.matrix.imag).max()))
    ok = worst_exp <= 1e-9 and worst_skew <= 1e-10 and worst_real <= 1e-12
    _check(
        4, "generator validity", ok,
        f"exp residual {worst_exp:.3e} (tol 1e-9), skew {worst_skew:.3e} (tol 1e-10), "
        f"odd-n realness {worst_real:.3e} (tol 1e-12)",
        time.perf_counter() - start, 5.0,
    )


def test_05_roll_is_rope():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    sizes = (3, 4, 5, 8, 16, 17)
    lams = (0.5, 1.0, 2.0)
    worst = 0.0
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        lam = lams[(trial // len(sizes)) % len(lams)]
        q, k = rng.standard_normal((2, n))
        p_q, p_k = rng.uniform(-3.0 * n, 3.0 * n, size=2)
        worst = max(worst, equivalence_residual(q, k, p_q, p_k, lam))
    _check(
        5, "roll-as-rotary equivalence", worst <= 1e-9,
        f"max |roll score - rotary score| = {worst:.3e} (tol 1e-9, 1000 trials)",
        time.perf_counter() - start, 10.0,
    )


def test_06_multiplexed_behavior():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    reduction_exact = True
    for _ in range(50):
        c = rng.standard_normal(8)
        p = int(rng.integers(-16, 16))
        reduction_exact &= bool(
            np.array_equal(mproll(c[None], p), roll_discrete(c, p))
        )
    witness = equivariance_violation_witness(8, 2, seed=0, budget=10_000)
    ok = reduction_exact and witness.found and witness.gap > 1e-3
    _check(
        6, "multiplexed behavior", ok,
        f"single-wave reduction exact: {reduction_exact}; witness gap "
        f"{witness.gap:.3e} in {witness.attempts} attempts (min 1e-3)",
        time.perf_counter() - start, 5.0,
    )


def test_07_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    q, k, v = rng.standard_normal((3, 4, 8))
    batch = AttentionBatch(q, k, v, np.arange(4))
    worst, worst_kind = 0.0, ""
    for kind in PEKind:
        err = grad_check(PEConfig(kind=kind, waves=2), batch, eps=1e-5)
        if err > worst:
            worst, worst_kind = err, kind.value
    _check(
        7, "gradient correctness", worst <= 1e-5,
        f"max relative gradient error = {worst:.3e} (worst kind: {worst_kind}, tol 1e-5)",
        time.perf_counter() - start, 10.0,
    )


def test_08_regularizer_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    n = 8
    worst_eig = 0.0
    for freq in range(n // 2 + 1):
        mode = np.cos(2 * np.pi * freq * np.arange(n) / n)
        want = (2.0 - 2.0 * np.cos(2 * np.pi * freq / n)) * (mode @ mode)
        worst_eig = max(worst_eig, abs(circular_laplacian_loss(mode) - want))

    worst_consistency = 0.0
    for delta in (0.0, 1.0, 3.0, -4.0):
        q = rng.standard_normal(10)
        rep = lipschitz_gap(q, delta)
        norm_sq = q @ q
        worst_consistency = max(
            worst_consistency,
            abs(rep.distance**2 - 2.0 * norm_sq * (1.0 - rep.correlation)),
        )

    shift_exact = True
    for p in (-3, 1, 6):
        q = rng.standard_normal(9)
        shift_exact &= circular_laplacian_loss(roll_discrete(q, p)) == circular_laplacian_loss(q)

    ok = worst_eig <= 1e-10 and worst_consistency <= 1e-10 and shift_exact
    _check(
        8, "regularizer identities", ok,
        f"eigen-identity gap {worst_eig:.3e} (tol 1e-10), distance/correlation gap "
        f"{worst_consistency:.3e} (tol 1e-10), shift-invariance exact: {shift_exact}",
        time.perf_counter() - start, 2.0,
    )


def test_09_periodicity_with_wavelength():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for lam in (0.5, 1.0, 3.7):
        for n in (5, 8):
            q = rng.standard_normal(n)
            for branch in BOTH_BRANCHES:
                for p in (0.0, 0.9, -2.6):
                    gap = np.abs(
                        roll_continuous(q, p + lam * n, lam, branch)
                        - roll_continuous(q, p, lam, branch)
                    ).max()
                    worst = max(worst, float(gap))
    _check(
        9, "periodicity with wavelength", worst <= 1e-9,
        f"max |roll(p + lam*n) - roll(p)| = {worst:.3e} (tol 1e-9)",
        time.perf_counter() - start, 2.0,
    )


def test_10_performance_sanity():
    start = time.perf_counter()
    report = run(
        RunConfig(command="bench", n=256, trials=100_000, seed=0)
    )
    speedup = report.summary["roll_vs_matmul_speedup"]
    fft_speedup = report.summary["fft_vs_dense_speedup"]
    residual = report.summary["fft_vs_dense_residual"]
    ok = speedup >= 10.0 and residual <= 1e-9 and fft_speedup > 1.0
    _check(
        10, "performance sanity", ok,
        f"roll vs dense-matmul speedup {speedup:.1f}x (min 10x), fft vs dense "
        f"speedup {fft_speedup:.1f}x (min 1x), path agreement {residual:.3e} (tol 1e-9)",
        time.perf_counter() - start, 60.0,
    )


def test_11_roll_is_rope_at_the_layer():
    """Criterion 5 for the whole layer: roll-continuous attention is rope attention in the
    realified Fourier basis, the oracle of ``TestRollContinuousIsRopeAtTheLayer``.  Each
    batch is attended twice, so the second call runs on the position tables the first kept."""
    start = time.perf_counter()
    worst, repeats_exact, configs = 0.0, True, 0
    layouts = [((), False), ((3,), False), ((), True), ((2,), True)]
    for n in (7, 9, 15, 8):
        for lam in (1.0, 0.7, 3.3):
            for lead, axial in layouts:
                rng = np.random.default_rng([111, n, int(10 * lam), len(lead), int(axial)])
                t, dim = 12, 2 * n if axial else n
                q, k, v = rng.standard_normal((3, *lead, t, dim))
                positions = rng.uniform(-50.0, 50.0, size=(*lead, t, 2) if axial else (*lead, t))
                batch = AttentionBatch(q, k, v, positions)
                pe = PEConfig(kind=PEKind.ROLL_CONTINUOUS, lam=lam, axial=axial)
                want = _rope_attention(batch, lam, axial)
                first, again = attend(batch, pe), attend(batch, pe)
                for name, ref in zip(("output", "scores", "logits"), want):
                    gap = np.abs(getattr(again, name) - ref).max() / np.abs(ref).max()
                    worst = max(worst, gap)
                    repeats_exact &= getattr(again, name).tobytes() == getattr(first, name).tobytes()
                configs += 1
    _check(
        11, "roll-as-rope at the layer", worst <= 1e-12 and repeats_exact,
        f"max relative gap of output, scores and logits = {worst:.3e} (tol 1e-12, "
        f"{configs} configs attended twice); repeat bit-identical: {repeats_exact}",
        time.perf_counter() - start, 10.0,
    )
