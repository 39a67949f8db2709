"""Tests for the command-line harness and its report contract."""

import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from rollpe import cli
from rollpe.attention import AttentionBatch, PEConfig, PEKind, attend
from rollpe.cli import COMMANDS, Report, RunConfig, main, render_csv, run
from rollpe.roll_core import relative_form_score, roll_discrete, rollpe_score
from rollpe.rope import equivalence_residual


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

    def test_bench_reports_throughput(self):
        rep = run(
            RunConfig(command="bench", n=64, trials=300, seed=0, bench_warmup=20)
        )
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
        assert rep.summary["fft_vs_dense_residual"] <= 1e-9

    def test_attention_demo_single_token(self):
        rep = run(RunConfig(command="attention-demo", n=8, t=1, seed=0))
        assert rep.summary["passed"]
        assert {row["score"] for row in rep.rows} == {1.0}

    def test_attention_demo_gap_semantics(self):
        rep = run(RunConfig(command="attention-demo", n=8, t=6, waves=2, seed=3))
        gaps = rep.summary["max_gap_per_kind"]
        # relative kinds hold under the +5 shift, multiplexing does not
        assert gaps["roll-discrete"] <= 1e-12
        assert gaps["roll-continuous"] <= 1e-12
        assert gaps["rope"] <= 1e-12
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


def _parent_equivariance_rows(cfg: RunConfig) -> list:
    """The per-trial loop the equivariance report ran before it scored trials in one call."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_override if cfg.d_override is not None else float(cfg.n)
    pe = PEConfig(kind=PEKind.ROLL_DISCRETE)
    rows = []
    for trial in range(cfg.trials):
        q, k = rng.standard_normal((2, cfg.n))
        p_q, p_k, shift = (int(x) for x in rng.integers(-2 * cfg.n, 2 * cfg.n + 1, size=3))
        base = rollpe_score(q, k, p_q, p_k, d)
        res_shift = abs(rollpe_score(q, k, p_q + shift, p_k + shift, d) - base)
        res_rel = abs(base - relative_form_score(q, k, p_k - p_q, d))
        qm, km, vm = rng.standard_normal((3, cfg.t, cfg.n))
        pos = np.arange(cfg.t)
        before = attend(AttentionBatch(qm, km, vm, pos), pe, d).scores
        after = attend(AttentionBatch(qm, km, vm, pos + shift), pe, d).scores
        res_mat = float(np.abs(after - before).max())
        rows.append(dict(trial=trial, p_q=p_q, p_k=p_k, residual=max(res_shift, res_rel, res_mat)))
    return rows


def _parent_rope_rows(cfg: RunConfig) -> list:
    """The per-trial loop the rope-equivalence check ran before it scored trials in one call."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for trial in range(cfg.trials):
        q, k = rng.standard_normal((2, cfg.n))
        p_q, p_k = rng.uniform(-3.0 * cfg.n, 3.0 * cfg.n, size=2)
        residual = equivalence_residual(q, k, p_q, p_k, cfg.lam)
        rows.append(dict(trial=trial, p_q=float(p_q), p_k=float(p_k), residual=residual))
    return rows


def _parent_witness_rows(cfg: RunConfig) -> list:
    """The per-attempt search multiplex-witness ran before it scored attempts in blocks."""
    rng = np.random.default_rng(cfg.seed)

    def score(bank_q, bank_k, p_q, p_k):
        enc_q, enc_k = (
            sum(roll_discrete(c, w * p) for w, c in enumerate(bank, start=1))
            for bank, p in ((bank_q, p_q), (bank_k, p_k))
        )
        return float(enc_q @ enc_k / math.sqrt(cfg.n))

    best = dict(trial=0, p_q=0, p_k=0, residual=0.0, found=False, shift=0)
    for attempt in range(cfg.trials):
        bank_q = rng.standard_normal((cfg.waves, cfg.n))
        bank_k = rng.standard_normal((cfg.waves, cfg.n))
        p_q, p_k = (int(x) for x in rng.integers(0, cfg.n, size=2))
        t = int(rng.integers(1, cfg.n))
        gap = abs(score(bank_q, bank_k, p_q + t, p_k + t) - score(bank_q, bank_k, p_q, p_k))
        row = dict(trial=0, p_q=p_q, p_k=p_k, residual=gap, found=gap > 1e-3, shift=t)
        if row["found"]:
            return [{**row, "attempts": attempt + 1}]
        if gap > best["residual"]:
            best = row
    return [{**best, "attempts": cfg.trials}]


@pytest.mark.parametrize(
    "cfg, loop",
    [
        *[pytest.param(RunConfig(command="equivariance-report", n=n, t=4, trials=30, seed=seed),
                       _parent_equivariance_rows, id=f"equivariance-report/n={n}")
          for n, seed in ((8, 0), (9, 1), (16, 2))],
        *[pytest.param(RunConfig(command="rope-equivalence", n=n, lam=lam, trials=40, seed=seed),
                       _parent_rope_rows, id=f"rope-equivalence/n={n}/lambda={lam}")
          for n, lam, seed in ((8, 1.0, 0), (9, 1.0, 1), (8, 0.7, 2), (5, 2.5, 3))],
        *[pytest.param(RunConfig(command="multiplex-witness", n=n, waves=waves, trials=100,
                                 seed=seed),
                       _parent_witness_rows, id=f"multiplex-witness/n={n}/W={waves}/seed={seed}")
          for n in (3, 8) for waves in (2, 3) for seed in (0, 1, 5)],
    ],
)
def test_batched_sweep_matches_the_per_trial_loop(cfg, loop):
    """Each sweep draws each trial's inputs in turn, then scores them in one call (the
    witness search in blocks): every row keeps its (trial, p_q, p_k) and the witness its
    shift and attempt count, while residuals move by rounding only."""
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
    want = _parent_equivariance_rows(cfg)
    got = run(cfg).rows
    assert [{key: row[key] for key in want[0]} for row in got] == want


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


def _readme_cli_lines() -> list:
    """The ``rollpe --command ...`` lines of the sh block under ``## CLI`` in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("rollpe --command")]


_README_LINES = _readme_cli_lines()


def test_readme_lists_every_command():
    assert {argv[2] for argv in _README_LINES} == set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [argv for argv in _README_LINES if argv[2] != "bench"],  # bench is report-only and timed
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
