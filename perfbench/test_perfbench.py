"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import rollpe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SMALL = {
    "attend-long": dataclasses.replace(harness.WORKLOADS["attend-long"], t=32, n=8, traced_rounds=1),
    "attend-short-axial": dataclasses.replace(harness.WORKLOADS["attend-short-axial"], traced_rounds=2),
    "invariant-sweep": dataclasses.replace(
        harness.WORKLOADS["invariant-sweep"], calls_per_round=1, traced_rounds=1),
}

COUNTS = ("spectral.dft_matrix_calls", "rope.schedule_builds") + tuple(
    f"{layer}.calls" for layer in tracing.LAYERS)


@pytest.fixture(autouse=True)
def no_setup_probes(monkeypatch):
    monkeypatch.setattr(harness, "measure_setup", lambda name, seed: [{"setup_s": 1.0, "wall_s": 1.0}])


def _per_layer(name, seed):
    result, _ = harness.run_workload(SMALL[name], seed, seconds=0.02, trace=True)
    assert result["correct"], result
    return {key: m["value"] for key, m in result["metrics"].items()}


def _called_objects():
    return {
        (module, name): getattr(importlib.import_module(f"rollpe.{module}"), name)
        for module, names in tracing.CALLED_NAMES.items()
        for name in names
    }


def test_wrappers_are_restored_after_a_traced_run_and_after_an_error():
    before = _called_objects()
    _per_layer("attend-short-axial", seed=0)
    assert _called_objects() == before

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert rollpe.attention.roll_continuous is not before[("attention", "roll_continuous")]
            raise RuntimeError("interrupted traced run")
    assert _called_objects() == before


def test_a_name_the_library_no_longer_has_is_reported_missing(monkeypatch):
    monkeypatch.delattr(rollpe.attention, "mproll")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.missing == ["rollpe.attention.mproll"]
    assert tracer.summary(rounds=1)["trace.missing_names"] == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly_for_one_seed(name):
    first, second = _per_layer(name, seed=7), _per_layer(name, seed=7)
    assert {key: first[key] for key in COUNTS} == {key: second[key] for key in COUNTS}
    assert first["multiplex.witness_attempts"] == second["multiplex.witness_attempts"]


def test_attend_long_counts_one_dft_and_one_schedule_per_encoded_row():
    values = _per_layer("attend-long", seed=1)
    t = SMALL["attend-long"].t
    assert values["spectral.dft_matrix_calls"] == 2 * t
    assert values["rope.schedule_builds"] == 2 * t
    assert values["spectral.dft_bytes_computed"] == 2 * t * 16 * SMALL["attend-long"].n ** 2


@pytest.mark.parametrize("name", ["attend-long", "attend-short-axial"])
def test_another_seed_changes_inputs_but_not_attend_call_counts(name):
    wl = SMALL[name]
    draws = [harness.Session(wl, np.random.default_rng([seed, 0])).rng.standard_normal(4)
             for seed in (1, 2)]
    assert not np.array_equal(*draws)
    first, second = _per_layer(name, seed=1), _per_layer(name, seed=2)
    assert {key: first[key] for key in COUNTS} == {key: second[key] for key in COUNTS}


@pytest.mark.parametrize("corrupt", [
    lambda arr: arr * np.nan,            # caught by the finiteness check
    lambda arr: arr + 1e-6,              # caught by the dense oracle
])
def test_a_corrupted_attend_result_is_counted_as_failed(monkeypatch, corrupt):
    real = rollpe.attend

    def corrupted(batch, pe, d=None):
        out = real(batch, pe, d)
        if pe.kind is rollpe.PEKind.ROPE:
            return rollpe.AttentionOutput(corrupt(out.output), out.scores, out.logits)
        return out

    monkeypatch.setattr(rollpe, "attend", corrupted)
    result, report = harness.run_workload(SMALL["attend-long"], 3, seconds=0.02, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert report["problems"][0].startswith("rope: ")


def test_a_failing_invariant_check_is_counted_as_failed(monkeypatch):
    real = rollpe.cli.run

    def failing(cfg):
        report = real(cfg)
        if cfg.command == "grad-check":
            report.summary["passed"] = False
        return report

    monkeypatch.setattr(rollpe.cli, "run", failing)
    result, report = harness.run_workload(SMALL["invariant-sweep"], 0, seconds=0.02, trace=False)
    assert result["failed"] >= 1
    assert any(p.startswith("grad-check: ") for p in report["problems"])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_every_oracle_agrees_with_the_library(name):
    wl = dataclasses.replace(harness.WORKLOADS[name], t=min(harness.WORKLOADS[name].t, 16))
    session = harness.Session(wl, np.random.default_rng(5))
    for _ in range(2):  # both roll-continuous branches where they alternate
        session.play_round()
    assert session.ledger.failed == 0, session.ledger.problems
    assert not session.unverified


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics_last(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    proc = _run_cli(ROOT, "--workload", "attend-short-axial", "--seed", "4",
                    "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "attend-long", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_a_calibrated_session_scales_every_timed_operation():
    session = harness.Session(SMALL["invariant-sweep"], np.random.default_rng(2), calibrate=True)
    for _ in range(2):
        session.play_round()
    for label, raw in session.samples.items():
        assert len(session.scaled[label]) == len(raw), label
        assert all(x > 0 for x in session.scaled[label]), label
    assert session.scaled["round"][-1] == pytest.approx(
        sum(session.scaled[label][-1] for label in harness.KINDS + ("sweep",)))
