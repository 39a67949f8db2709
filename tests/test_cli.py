"""Tests for the command-line harness and its report contract."""

import csv
import gc
import json
import math
import re
import shlex
import warnings
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from rollpe import cli, roll_core
from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend
from rollpe.cli import COMMANDS, Report, RunConfig, main, render_csv, run
from rollpe.roll_core import relative_form_score, roll_discrete, rollpe_score
from rollpe.rope import equivalence_residual
from test_multiplex import _attempt_inputs


def _residuals(report: Report):
    return [row["residual"] for row in report.rows]


class TestRun:
    def test_equivariance_report_passes(self):
        rep = run(RunConfig(command="equivariance-report", n=16, t=8, trials=60, seed=0))
        assert rep.schema_version == "1"
        assert rep.summary["passed"]
        assert rep.summary["max_residual"] < 1e-12
        assert rep.summary["max_residual"] == max(_residuals(rep))
        assert len(rep.rows) == 60

    def test_rope_equivalence_passes(self):
        rep = run(RunConfig(command="rope-equivalence", n=8, lam=1.0, trials=60, seed=1))
        assert rep.summary["passed"]
        assert rep.summary["max_residual"] < 1e-9

    def test_multiplex_witness_two_waves(self):
        rep = run(RunConfig(command="multiplex-witness", n=8, waves=2, trials=200, seed=0))
        assert rep.summary["passed"]
        assert rep.summary["found"]
        assert rep.rows[0]["residual"] > 1e-3

    def test_multiplex_witness_single_wave_is_expected_quiet(self):
        rep = run(RunConfig(command="multiplex-witness", n=8, waves=1, trials=50, seed=0))
        assert rep.summary["passed"]
        assert not rep.summary["found"]

    def test_grad_check_all_kinds(self):
        rep = run(RunConfig(command="grad-check", n=8, t=4, waves=2, seed=2))
        assert rep.summary["passed"]
        kinds = {row["kind"] for row in rep.rows}
        assert kinds == {
            "none",
            "sinusoidal-ape",
            "roll-discrete",
            "roll-continuous",
            "rope",
            "multiplexed-roll",
        }

    @pytest.mark.parametrize("gc_enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_bench_times_through_timeit(self, gc_enabled):
        """Loops stay in [1, trials], and timeit hands back the collector as it found it."""
        was = gc.isenabled()
        (gc.enable if gc_enabled else gc.disable)()
        try:
            rep = run(RunConfig(command="bench", n=16, trials=300))
            assert gc.isenabled() is gc_enabled
        finally:
            (gc.enable if was else gc.disable)()
        for row in rep.rows:
            assert 1 <= row["loops"] <= 300
            assert row["ops_per_sec"] > 0

    def test_bench_reports_throughput(self):
        rep = run(RunConfig(command="bench", n=64, trials=300, seed=0))
        assert rep.summary["passed"]
        ops = rep.summary["ops_per_sec"]
        for name in (
            "roll_discrete",
            "shift_matmul_oracle",
            "roll_continuous_dense",
            "roll_continuous_fft",
            "rope_apply",
        ):
            assert ops[name] > 0
        assert rep.summary["fft_vs_dense_residual"] <= rep.summary["threshold"] == 1e-9

    def test_attention_demo_single_token(self):
        rep = run(RunConfig(command="attention-demo", n=8, t=1, seed=0))
        assert rep.summary["passed"]
        assert {row["score"] for row in rep.rows} == {1.0}

    def test_attention_demo_gap_semantics(self):
        rep = run(RunConfig(command="attention-demo", n=8, t=6, waves=2, seed=3))
        gaps = rep.summary["max_gap_per_kind"]
        # relative kinds hold under the +5 shift, multiplexing does not; rope and the discrete
        # roll encode at origin-relative positions, which the shift leaves as they are
        assert gaps["roll-discrete"] == 0.0
        assert gaps["roll-continuous"] <= 1e-12
        assert gaps["rope"] == 0.0
        assert gaps["multiplexed-roll"] > 1e-3

    def test_deterministic_residuals(self):
        cfg = dict(command="rope-equivalence", n=8, trials=40, seed=9)
        first = run(RunConfig(**cfg))
        second = run(RunConfig(**cfg))
        assert _residuals(first) == _residuals(second)

    def test_threshold_failure_marks_report(self):
        rep = run(
            RunConfig(
                command="equivariance-report", n=64, t=4, trials=50, seed=0,
                d_override=1e-20,
            )
        )
        assert not rep.summary["passed"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run(RunConfig(command="no-such-command"))
        with pytest.raises(ValueError):
            run(RunConfig(command="bench", trials=0))
        with pytest.raises(ValueError):
            run(RunConfig(command="grad-check", n=7))
        with pytest.raises(ValueError):
            run(RunConfig(command="attention-demo", t=300))
        with pytest.raises(ValueError):
            run(RunConfig(command="bench", format="xml"))
        with pytest.raises(ValueError):
            run(RunConfig(command="bench", lam=0.0))
        for d in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                RunConfig(command="attention-demo", d_override=d).validate()

    def test_integral_float_counts_are_stored_as_ints(self):
        rep = run(RunConfig(command="rope-equivalence", n=8.0, trials=2))
        assert rep.summary["passed"]
        assert type(rep.config["n"]) is int and rep.config["n"] == 8
        assert type(rep.config["trials"]) is int and len(rep.rows) == 2


class TestReportFiles:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        run(
            RunConfig(
                command="rope-equivalence", n=8, trials=10, seed=0,
                output_path=str(path), format="json",
            )
        )
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema_version"] == "1"
        assert data["command"] == "rope-equivalence"
        assert data["config"]["seed"] == 0
        assert len(data["rows"]) == 10
        assert data["summary"]["max_residual"] == max(
            row["residual"] for row in data["rows"]
        )

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        run(
            RunConfig(
                command="equivariance-report", n=8, t=4, trials=5, seed=0,
                output_path=str(path), format="csv",
            )
        )
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:6] == ["trial", "n", "lambda", "p_q", "p_k", "residual"]
        assert len(rows) == 6

    def test_csv_rendering_includes_extras(self):
        rep = run(RunConfig(command="grad-check", n=8, t=3, seed=0))
        header = render_csv(rep).splitlines()[0]
        assert header.startswith("trial,n,lambda,p_q,p_k,residual")
        assert "kind" in header


# rows with different extra keys, a None value, and keys the first row lacks
_HAND_ROWS = [
    {"trial": 0, "p_q": None, "kind": "rope"},
    {"shift": 5, "residual": 0.25, "alpha": None},
]


def _hand_report() -> Report:
    return Report(command="rope-equivalence", config={"n": 4}, rows=_HAND_ROWS,
                  summary={"passed": True})


class TestRenderers:
    def test_csv_bytes(self):
        """Base columns first, then other keys in first-use order; CRLF rows; None and
        missing keys are empty cells."""
        assert render_csv(_hand_report()) == (
            "trial,n,lambda,p_q,p_k,residual,kind,shift,alpha\r\n"
            "0,,,,,,rope,,\r\n"
            ",,,,,0.25,,5,\r\n"
        )

    def test_json_bytes(self):
        assert cli.render_json(_hand_report()) == """{
  "schema_version": "1",
  "command": "rope-equivalence",
  "config": {
    "n": 4
  },
  "rows": [
    {
      "trial": 0,
      "p_q": null,
      "kind": "rope"
    },
    {
      "shift": 5,
      "residual": 0.25,
      "alpha": null
    }
  ],
  "summary": {
    "passed": true
  }
}"""

    def test_format_choices_are_the_formats_validate_accepts(self):
        action = next(a for a in cli._build_parser()._actions if "--format" in a.option_strings)
        assert tuple(action.choices) == ("json", "csv")
        for fmt in action.choices:
            RunConfig(command="bench", format=fmt).validate()
        for fmt in ("xml", "JSON", "", None, ["json"]):
            with pytest.raises(ValueError, match="unknown format"):
                RunConfig(command="bench", format=fmt).validate()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_format_goes_through_main(self, fmt, monkeypatch, capsys, tmp_path):
        """stdout gets the report and print's newline; a file gets it ending in one ``\\n``."""
        monkeypatch.setitem(cli._RUNNERS, "rope-equivalence",
                            lambda cfg: ([dict(row) for row in _HAND_ROWS], {"passed": True}))
        reports = []

        def recording_run(cfg):
            reports.append(run(cfg))
            return reports[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        render = {"json": cli.render_json, "csv": render_csv}[fmt]
        argv = ["--command", "rope-equivalence", "--format", fmt]

        assert main(argv) == 0
        assert capsys.readouterr().out == render(reports[-1]) + "\n"

        path = tmp_path / f"report.{fmt}"
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"rope-equivalence: wrote {fmt} report to {path}\n"
        data = path.read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        text = render(reports[-1])
        assert data.decode("utf-8") == (text if fmt == "csv" else text + "\n")


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(
            ["--command", "rope-equivalence", "--n", "8", "--trials", "20",
             "--seed", "0", "--out", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "wrote json report" in capsys.readouterr().out

    def test_prints_report_without_out(self, capsys):
        code = main(["--command", "rope-equivalence", "--n", "4", "--trials", "5"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "rope-equivalence"

    def test_exit_one_on_threshold_failure(self):
        code = main(
            ["--command", "equivariance-report", "--n", "64", "--t", "4",
             "--trials", "50", "--seed", "0", "--d-override", "1e-20"]
        )
        assert code == 1

    def test_exit_two_on_invalid_combination(self, capsys):
        code = main(["--command", "grad-check", "--n", "7"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_names_a_negative_seed(self, capsys):
        code = main(["--command", "multiplex-witness", "--seed", "-1"])
        assert code == 2
        assert "seed must be an integer of at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--command", "rope-equivalence", "--lambda", "1e-307", "--trials", "20"],
             "overflow encountered in multiply"),
            # the dense oracle's phases meet 0 * inf before its FFT path is timed
            (["--command", "bench", "--n", "8", "--lambda", "1e-310"],
             "invalid value encountered in multiply"),
        ],
        ids=["rope-equivalence", "bench"],
    )
    def test_exit_two_when_arithmetic_overflows(self, capsys, argv, message):
        """A flag whose arithmetic overflows exits 2 with numpy's error, not a NaN report."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_exit_two_on_unwritable_path(self, tmp_path):
        code = main(
            ["--command", "rope-equivalence", "--n", "4", "--trials", "2",
             "--out", str(tmp_path / "missing-dir" / "out.json")]
        )
        assert code == 2

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["--command", "definitely-not-a-command"])

    def test_lambda_flag_reaches_config(self, capsys):
        code = main(
            ["--command", "rope-equivalence", "--n", "5", "--lambda", "2.0",
             "--trials", "5", "--format", "csv"]
        )
        assert code == 0
        assert ",2.0," in capsys.readouterr().out


def _block(trial_bytes: int) -> int:
    """A sweep's trials per block: as many as fit the 64 KiB budget, at most 32, at least 1."""
    return max(1, min(roll_core._BLOCK_TRIALS, roll_core._BLOCK_BYTES // trial_bytes))


def _equivariance_block(cfg: RunConfig) -> int:
    """The report's trials per block: a trial takes 8 (3 t n + 2 n + 3) bytes of draws,
    or 16 t (t + n) bytes of unshifted and shifted (t, t) scores and (t, n) rows if more."""
    t, n = cfg.t, cfg.n
    return _block(8 * max(3 * t * n + 2 * n + 3, 2 * t * (t + n)))


def _rope_block(cfg: RunConfig) -> int:
    """The rope check's trials per block: a trial draws 16 (n + 1) bytes."""
    return _block(16 * (cfg.n + 1))


def _per_trial_equivariance_rows(cfg: RunConfig, block: int) -> list:
    """Oracle: the report's whole blocks of draws, each trial scored alone by vector calls
    and an unshifted and a shifted 2-D attend."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_override if cfg.d_override is not None else float(cfg.n)
    pe = PEConfig(kind=PEKind.ROLL_DISCRETE)
    pos = np.arange(cfg.t)
    rows = []
    for start in range(0, cfg.trials, block):
        pairs = rng.standard_normal((block, 2, cfg.n))
        ints = rng.integers(-2 * cfg.n, 2 * cfg.n + 1, size=(block, 3))
        qkv = rng.standard_normal((3, block, cfg.t, cfg.n))
        for i in range(min(block, cfg.trials - start)):
            q, k = pairs[i]
            p_q, p_k, shift = (int(x) for x in ints[i])
            base = rollpe_score(q, k, p_q, p_k, d)
            res_shift = abs(rollpe_score(q, k, p_q + shift, p_k + shift, d) - base)
            res_rel = abs(base - relative_form_score(q, k, p_k - p_q, d))
            qm, km, vm = qkv[:, i]
            before = attend(AttentionBatch(qm, km, vm, pos), pe, d).scores
            after = attend(AttentionBatch(qm, km, vm, pos + shift), pe, d).scores
            res_mat = float(np.abs(after - before).max())
            rows.append(dict(trial=len(rows), p_q=p_q, p_k=p_k,
                             residual=max(res_shift, res_rel, res_mat)))
    return rows


def _per_trial_rope_rows(cfg: RunConfig, block: int) -> list:
    """Oracle: the check's whole blocks of draws, each trial scored alone by a vector call."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for start in range(0, cfg.trials, block):
        pairs = rng.standard_normal((block, 2, cfg.n))
        positions = rng.uniform(-3.0 * cfg.n, 3.0 * cfg.n, size=(block, 2))
        for i in range(min(block, cfg.trials - start)):
            (q, k), (p_q, p_k) = pairs[i], positions[i]
            residual = equivalence_residual(q, k, p_q, p_k, cfg.lam)
            rows.append(dict(trial=len(rows), p_q=float(p_q), p_k=float(p_k), residual=residual))
    return rows


def _per_attempt_witness_rows(cfg: RunConfig) -> list:
    """Oracle: the search's attempts in turn, each scored alone by summed vector rolls."""

    def score(bank_q, bank_k, p_q, p_k):
        enc_q, enc_k = (
            sum(roll_discrete(c, w * p) for w, c in enumerate(bank, start=1))
            for bank, p in ((bank_q, p_q), (bank_k, p_k))
        )
        return float(enc_q @ enc_k / math.sqrt(cfg.n))

    best = dict(trial=0, p_q=0, p_k=0, residual=0.0, found=False, shift=0)
    attempts = islice(_attempt_inputs(cfg.n, cfg.waves, cfg.seed), cfg.trials)
    for attempt, (bank_q, bank_k, p_q, p_k, t) in enumerate(attempts, start=1):
        gap = abs(score(bank_q, bank_k, p_q + t, p_k + t) - score(bank_q, bank_k, p_q, p_k))
        row = dict(trial=0, p_q=p_q, p_k=p_k, residual=gap, found=gap > 1e-3, shift=t)
        if row["found"]:
            return [{**row, "attempts": attempt}]
        if gap > best["residual"]:
            best = row
    return [{**best, "attempts": cfg.trials}]


@pytest.mark.parametrize(
    "cfg, loop",
    [
        *[pytest.param(RunConfig(command="equivariance-report", n=n, t=4, trials=30, seed=seed),
                       lambda cfg: _per_trial_equivariance_rows(cfg, _equivariance_block(cfg)),
                       id=f"equivariance-report/n={n}")
          for n, seed in ((8, 0), (9, 1), (16, 2))],
        *[pytest.param(RunConfig(command="rope-equivalence", n=n, lam=lam, trials=40, seed=seed),
                       lambda cfg: _per_trial_rope_rows(cfg, _rope_block(cfg)),
                       id=f"rope-equivalence/n={n}/lambda={lam}")
          for n, lam, seed in ((8, 1.0, 0), (9, 1.0, 1), (8, 0.7, 2), (5, 2.5, 3))],
        *[pytest.param(RunConfig(command="multiplex-witness", n=n, waves=waves, trials=100,
                                 seed=seed),
                       _per_attempt_witness_rows,
                       id=f"multiplex-witness/n={n}/W={waves}/seed={seed}")
          for n in (3, 8) for waves in (2, 3) for seed in (0, 1, 5)],
    ],
)
def test_batched_sweep_matches_the_per_trial_loop(cfg, loop):
    """Each sweep draws its inputs a block at a time, then scores them in one call (the
    witness search in blocks): every row keeps the (trial, p_q, p_k) of the trial-by-trial
    oracle and the witness its shift and attempt count, while residuals move by rounding only."""
    want = loop(cfg)
    got = run(cfg).rows
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        residual = expected.pop("residual")
        assert {key: row[key] for key in expected} == expected
        assert abs(row["residual"] - residual) <= 1e-14


def test_default_equivariance_report_equals_the_per_trial_loop():
    """At the default config (n = t = 8, 100 trials) the batched attends change no bit."""
    cfg = RunConfig(command="equivariance-report")
    want = _per_trial_equivariance_rows(cfg, _equivariance_block(cfg))
    got = run(cfg).rows
    assert [{key: row[key] for key in want[0]} for row in got] == want


@pytest.mark.parametrize(
    "command, trials, more",
    [("equivariance-report", 20, 70), ("equivariance-report", 40, 70),
     ("rope-equivalence", 20, 500), ("rope-equivalence", 460, 500)],
)
def test_rows_do_not_depend_on_the_trial_count(command, trials, more):
    """A run's rows are the first rows of a longer run whose last block crosses a boundary."""
    cfg = RunConfig(command=command, seed=4)
    block = (_equivariance_block if command == "equivariance-report" else _rope_block)(cfg)
    assert trials < more and block < more
    short = run(RunConfig(command=command, trials=trials, seed=4)).rows
    long = run(RunConfig(command=command, trials=more, seed=4)).rows
    assert long[:trials] == short


class _CountingGenerator:
    """A ``numpy.random.Generator`` that records each draw: its method and its array."""

    def __init__(self, rng, draws: list):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._draws.append((name, out))
            return out

        return draw


def _recorded_draws(monkeypatch) -> list:
    """The (method, array) of every draw the generators made from now on."""
    calls = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingGenerator(make(seed), calls))
    return calls


@pytest.mark.parametrize(
    "cfg, draws",
    [
        (RunConfig(command="equivariance-report"), 3 * 4),   # 4 blocks of 32 trials
        (RunConfig(command="rope-equivalence"), 2 * 4),   # 4 blocks of 32 trials
        (RunConfig(command="multiplex-witness", waves=1), 3 * 4),   # 4 blocks of 32 attempts
    ],
    ids=lambda x: x.command if isinstance(x, RunConfig) else str(x),
)
def test_sweeps_draw_each_quantity_once_per_block(cfg, draws, monkeypatch):
    """No sweep draws its inputs trial by trial: one generator call per quantity per block."""
    calls = _recorded_draws(monkeypatch)
    assert run(cfg).summary["passed"]
    assert len(calls) == draws


@pytest.mark.parametrize(
    "cfg, per_block",
    [
        *[pytest.param(RunConfig(command="equivariance-report", t=t, n=n, trials=70), 3,
                       id=f"equivariance-report/t={t}/n={n}")
          for t, n in ((8, 8), (16, 4), (2, 64), (40, 8))],
        *[pytest.param(RunConfig(command="rope-equivalence", n=n, trials=100), 2,
                       id=f"rope-equivalence/n={n}")
          for n in (8, 300)],
        *[pytest.param(RunConfig(command="multiplex-witness", n=n, waves=waves, trials=100), 3,
                       id=f"multiplex-witness/n={n}/W={waves}")
          for n, waves in ((8, 1), (64, 3), (300, 1))],
    ],
)
def test_every_block_fits_64_kib_of_draws_and_32_trials(cfg, per_block, monkeypatch):
    """All three seeded sweeps size their blocks by one rule: a block's draws, every
    quantity together, take at most 64 KiB, and it holds between 1 and 32 trials."""
    calls = _recorded_draws(monkeypatch)
    assert run(cfg).summary["passed"]
    assert calls and len(calls) % per_block == 0
    for start in range(0, len(calls), per_block):
        block = [draw for _, draw in calls[start:start + per_block]]
        assert sum(draw.nbytes for draw in block) <= 64 * 2**10
        assert 1 <= len(block[0]) <= 32   # the first draw holds one row per trial


def test_attention_demo_equals_two_attends_per_kind():
    """One B = 2 attend per kind gives the rows of an unshifted and a shifted 2-D attend."""
    cfg = RunConfig(command="attention-demo", n=8, t=6, waves=2, seed=3)
    qm, km, vm = np.random.default_rng(cfg.seed).standard_normal((3, cfg.t, cfg.n))
    want = []
    for kind in PEKind:
        pe = PEConfig(kind=kind, lam=cfg.lam, waves=cfg.waves)
        before, after = (attend(AttentionBatch(qm, km, vm, np.arange(cfg.t) + s), pe).scores
                         for s in (0, 5))
        want += [(kind.value, before[i, j], after[i, j])
                 for i in range(cfg.t) for j in range(cfg.t)]
    rows = run(cfg).rows
    assert [(r["kind"], r["score"], r["score_shifted"]) for r in rows] == want
    assert [r["residual"] for r in rows] == [abs(a - b) for _, b, a in want]


def test_relative_form_at_minus_delta_fails_the_report(monkeypatch):
    """The report must catch a relative form evaluated at p_q - p_k instead of p_k - p_q."""
    true_form = cli.relative_form_score
    monkeypatch.setattr(
        cli, "relative_form_score",
        lambda q, k, delta, d=None: true_form(q, k, -np.asarray(delta), d),
    )
    rep = run(RunConfig(command="equivariance-report", n=8, t=4, trials=20, seed=0))
    assert not rep.summary["passed"]
    worst = rep.rows[rep.summary["worst_trial"]]
    assert worst["residual"] == rep.summary["max_residual"] > 1e-12
    assert main(["--command", "equivariance-report", "--n", "8", "--t", "4",
                 "--trials", "20", "--seed", "0"]) == 1


_TRUE_ROLL = cli.roll_continuous


@pytest.mark.parametrize(
    "wrong_roll",
    [
        lambda q, p, lam, branch: _TRUE_ROLL(q, p + 0.5, lam, branch),
        lambda q, p, lam, branch: np.full_like(q, np.nan),
    ],
    ids=["half-step-late", "nan"],
)
def test_bench_fails_when_its_fft_roll_is_wrong(monkeypatch, tmp_path, wrong_roll):
    """bench gates the FFT roll on the dense oracle; a NaN gap fails it as well."""
    monkeypatch.setattr(cli, "roll_continuous", wrong_roll)
    args = ["--command", "bench", "--n", "8", "--trials", "1", "--out", str(tmp_path / "b.json")]
    assert main(args) == 1
    summary = json.loads((tmp_path / "b.json").read_text())["summary"]
    assert not summary["fft_vs_dense_residual"] <= summary["threshold"]


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(command="equivariance-report", n=8, t=4, trials=25, seed=3),
        RunConfig(command="rope-equivalence", n=9, trials=25, seed=4),
        RunConfig(command="grad-check", n=8, t=3, seed=0),
        RunConfig(command="multiplex-witness", n=8, waves=2, trials=100, seed=2),
        RunConfig(command="attention-demo", n=8, t=5, waves=2, seed=1),
    ],
    ids=lambda cfg: cfg.command,
)
def test_worst_trial_names_the_first_row_at_the_maximum(cfg):
    rep = run(cfg)
    residuals = [row["residual"] for row in rep.rows]
    assert rep.summary["worst_trial"] == residuals.index(rep.summary["max_residual"])


def test_a_nan_after_a_finite_residual_fails_the_gate():
    """The builtin max drops a NaN that follows a number; the summary must not."""
    summary = cli._summarize_residuals([{"residual": 0.0}, {"residual": math.nan}], 1e-9)
    assert math.isnan(summary["max_residual"])
    assert summary["worst_trial"] == 1
    assert not summary["passed"]


def test_a_nan_residual_fails_its_command_and_is_named(monkeypatch, tmp_path):
    """A NaN row among finite ones fails rope-equivalence, exits 1 and is the worst trial."""
    true_residual = cli.equivalence_residual

    def nan_at_row_3(*args):
        residuals = true_residual(*args)
        residuals[3] = math.nan
        return residuals

    monkeypatch.setattr(cli, "equivalence_residual", nan_at_row_3)
    out = tmp_path / "r.json"
    assert main(["--command", "rope-equivalence", "--trials", "10", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())["summary"]
    assert summary["worst_trial"] == 3 and math.isnan(summary["max_residual"])


def test_report_only_summary_has_no_threshold_and_passes():
    """threshold=None gates nothing: no threshold key, and even a NaN row passes."""
    summary = cli._summarize_residuals([{"residual": 2.0}, {"residual": math.nan}], None)
    assert list(summary) == ["max_residual", "mean_residual", "worst_trial", "passed"]
    assert summary["passed"] and summary["worst_trial"] == 1
    summary = run(RunConfig(command="attention-demo", n=8, t=3, seed=0)).summary
    assert list(summary) == [
        "max_residual", "mean_residual", "worst_trial", "max_gap_per_kind", "passed", "elapsed_s",
    ]
    assert summary["passed"]


@pytest.mark.parametrize("command", COMMANDS)
def test_unset_flags_echo_the_run_config_defaults(command, tmp_path):
    """The parser states no defaults of its own: an unset flag is RunConfig's default."""
    out = str(tmp_path / "report.json")
    main(["--command", command, "--out", out])
    config = json.loads(Path(out).read_text())["config"]
    assert config == asdict(RunConfig(command=command, output_path=out))


def _readme_cli_section() -> str:
    """The README text under ``## CLI``, up to the next section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_lines() -> list:
    """The ``rollpe --command ...`` lines of the sh block under ``## CLI`` in the README."""
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("rollpe --command")]


_README_LINES = _readme_cli_lines()


def test_readme_lists_every_command():
    assert {argv[2] for argv in _README_LINES} == set(COMMANDS)


def test_readme_lists_every_flag():
    """The README's "Flags:" paragraph names each parser option once, in the parser's order."""
    paragraph = _readme_cli_section().split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(--[a-z-]+)", paragraph)
    options = [
        flag for action in cli._build_parser()._actions
        for flag in action.option_strings if flag not in ("-h", "--help")
    ]
    assert documented == options


@pytest.mark.parametrize(
    "argv",
    [argv for argv in _README_LINES if argv[2] != "bench"],  # bench's README line times 100000 trials
    ids=lambda argv: argv[2],
)
def test_readme_cli_line_exits_zero(argv, tmp_path):
    """Each documented command passes at its documented trial count."""
    args = argv[1:]
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = str(tmp_path / args[at])
    else:
        args += ["--out", str(tmp_path / "report.json")]
    assert main(args) == 0
