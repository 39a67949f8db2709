"""Tests for the command-line harness and its report contract."""

import csv
import json

import pytest

from rollpe.cli import Report, RunConfig, main, render_csv, run


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
