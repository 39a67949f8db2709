"""Command-line harness: invariant sweeps, equivalence checks, benchmarks.

Each command runs a seeded sweep against the library and emits a
machine-readable report (JSON or CSV).  Residual fields are fully
deterministic for a fixed config; timing fields are not.  The process
exits 0 iff every threshold in the command's suite passed.  Every
residual command shares one summary: the maximum, mean and worst row of
its residuals, where a NaN residual is the maximum and so fails its
gate.  The attention demo's summary is report-only: it has no threshold
and always passes.  ``bench`` times its kernels and passes iff its FFT
and dense fractional rolls agree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
import timeit
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attention import AttentionBatch, PEConfig, PEKind, attend, grad_check
from .multiplex import _WITNESS_GAP, equivariance_violation_witness
from .roll_core import (
    _as_count,
    _blocks,
    _check_positive,
    _raising,
    _score_scale,
    relative_form_score,
    roll_discrete,
    rollpe_score,
    shift_matrix,
)
from .rope import classic_schedule, equivalence_residual, rope_apply
from .spectral import SpectralBranch, branch_angles, dft_matrix, roll_continuous

__all__ = ["RunConfig", "Report", "run", "main"]

SCHEMA_VERSION = "1"

_THRESHOLDS = {
    "equivariance-report": 1e-12,
    "rope-equivalence": 1e-9,
    "multiplex-witness": _WITNESS_GAP,
    "grad-check": 1e-5,
    "bench": 1e-9,  # fft_vs_dense_residual
}

_CSV_BASE_COLUMNS = ("trial", "n", "lambda", "p_q", "p_k", "residual")

# Target duration of one timed benchmark repeat; per-op loop counts are
# capped so a single repeat stays near this, with config.trials as the
# upper bound.
_BENCH_TARGET_S = 0.2
_BENCH_WARMUP = 100  # untimed calls per op, which estimate its per-call time
_BENCH_REPEATS = 5  # timed repeats per op; the report gives their median


@dataclass
class RunConfig:
    command: str
    n: int = 8
    t: int = 8
    waves: int = 2
    lam: float = 1.0
    seed: int = 0
    trials: int = 100
    output_path: str | None = None
    format: str = "json"
    d_override: float | None = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("n", "t", "waves", "seed", "trials"):
            least = 0 if name == "seed" else 1
            setattr(self, name, _as_count(getattr(self, name), name, least))
        _check_positive(self.lam, "lambda")
        if self.format not in tuple(_RENDERERS):  # a tuple test refuses an unhashable format too
            raise ValueError(f"unknown format {self.format!r}")
        _score_scale(self.n, self.d_override)
        if self.command == "attention-demo" and self.t > 256:
            raise ValueError("attention-demo supports at most t = 256")


@dataclass
class Report:
    command: str
    config: dict
    rows: list
    summary: dict
    schema_version: str = field(default=SCHEMA_VERSION)

    def to_dict(self) -> dict:
        # the fields in order, with schema_version moved to the front
        return {"schema_version": self.schema_version, **vars(self)}


def _summarize_residuals(rows: list, threshold: float | None) -> dict:
    """Max, mean and worst trial of the rows' residuals, gated by ``threshold``.

    A NaN residual is the maximum, so it fails the gate.  ``worst_trial``
    is the first row at the maximum: it carries the p_q, p_k or kind that
    reproduce it.  ``threshold=None`` is report-only: no ``threshold`` key, and it passes.
    """
    residuals = [r["residual"] for r in rows if r.get("residual") is not None]
    # the builtin max drops a NaN that follows a number, so the first NaN is sought first
    max_res = next((r for r in residuals if r != r), max(residuals, default=0.0))
    mean_res = sum(residuals) / len(residuals) if residuals else 0.0
    # max returns the first maximal residual itself, so identity finds its row, NaN included
    worst = next((i for i, r in enumerate(rows) if r.get("residual") is max_res), None)
    summary = {"max_residual": max_res, "mean_residual": mean_res, "threshold": threshold,
               "worst_trial": worst, "passed": threshold is None or max_res <= threshold}
    if threshold is None:
        del summary["threshold"]
    return summary


def _base_row(trial: int, cfg: RunConfig, p_q=None, p_k=None, residual=None) -> dict:
    return dict(zip(_CSV_BASE_COLUMNS, (trial, cfg.n, cfg.lam, p_q, p_k, residual)))


def _trial_rows(cfg: RunConfig, p_q, p_k, residuals) -> list:
    """One base row per trial, from the (T,) positions and residuals of a sweep."""
    return [
        _base_row(trial, cfg, *row)
        for trial, row in enumerate(zip(p_q.tolist(), p_k.tolist(), residuals.tolist()))
    ]


def _cmd_equivariance_report(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_override
    pe = PEConfig(kind=PEKind.ROLL_DISCRETE)
    t, n = cfg.t, cfg.n
    pos = np.arange(t)
    # each block's unshifted and shifted copies are scored by one batched
    # attend, and the two score checks then run over all trials at once
    pairs, ints, res_mat = [], [], []
    # a trial's bytes: its draws, or its two (t, t) scores and (t, n) rows if more
    for block, used in _blocks(cfg.trials, 8 * max(3 * t * n + 2 * n + 3, 2 * t * (t + n))):
        pairs.append(rng.standard_normal((block, 2, n))[:used])
        # each row of ints: p_q, p_k, shift
        ints.append(rng.integers(-2 * n, 2 * n + 1, size=(block, 3))[:used])
        qkv = rng.standard_normal((3, block, t, n))[:, :used]
        qkv = np.concatenate([qkv, qkv], axis=1)   # row-set i and its shifted copy used + i
        positions = np.concatenate([np.broadcast_to(pos, (used, t)), pos + ints[-1][:, 2:]])
        scores = attend(AttentionBatch(*qkv, positions), pe, d).scores
        res_mat.append(np.abs(scores[used:] - scores[:used]).max(axis=(1, 2)))
    q, k = np.concatenate(pairs).transpose(1, 0, 2)
    p_q, p_k, shift = np.concatenate(ints).T
    base = rollpe_score(q, k, p_q, p_k, d)
    res_shift = np.abs(rollpe_score(q, k, p_q + shift, p_k + shift, d) - base)
    res_rel = np.abs(base - relative_form_score(q, k, p_k - p_q, d))
    residuals = np.maximum(np.maximum(res_shift, res_rel), np.concatenate(res_mat))
    rows = _trial_rows(cfg, p_q, p_k, residuals)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_rope_equivalence(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    pairs, positions = [], []
    for block, used in _blocks(cfg.trials, 16 * (cfg.n + 1)):
        pairs.append(rng.standard_normal((block, 2, cfg.n))[:used])
        positions.append(rng.uniform(-3.0 * cfg.n, 3.0 * cfg.n, size=(block, 2))[:used])
    q, k = np.concatenate(pairs).transpose(1, 0, 2)
    p_q, p_k = np.concatenate(positions).T
    residuals = equivalence_residual(q, k, p_q, p_k, cfg.lam)
    rows = _trial_rows(cfg, p_q, p_k, residuals)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_multiplex_witness(cfg: RunConfig):
    threshold = _THRESHOLDS[cfg.command]
    witness = equivariance_violation_witness(
        cfg.n, cfg.waves, cfg.seed, budget=cfg.trials, gap_threshold=threshold
    )
    row = _base_row(0, cfg, witness.p_q, witness.p_k, witness.gap)
    row.update(found=witness.found, shift=witness.t, attempts=witness.attempts,
               score_before=witness.score_before, score_after=witness.score_after, waves=cfg.waves)
    summary = _summarize_residuals([row], threshold)
    # One wave is provably shift-invariant: exhausting the budget is the
    # expected outcome there, while W >= 2 must produce a witness.
    summary["found"] = witness.found
    summary["passed"] = witness.found if cfg.waves >= 2 else not witness.found
    return [row], summary


def _demo_pe_configs(cfg: RunConfig) -> dict[str, PEConfig]:
    # lam reaches only roll-continuous and waves only multiplexed-roll
    return {kind.value: PEConfig(kind=kind, lam=cfg.lam, waves=cfg.waves) for kind in PEKind}


def _cmd_grad_check(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    qm, km, vm = rng.standard_normal((3, cfg.t, cfg.n))
    batch = AttentionBatch(qm, km, vm, np.arange(cfg.t))
    rows = []
    for trial, (name, pe) in enumerate(_demo_pe_configs(cfg).items()):
        row = _base_row(trial, cfg, residual=grad_check(pe, batch))
        row["kind"] = name
        rows.append(row)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_attention_demo(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    qm, km, vm = rng.standard_normal((3, cfg.t, cfg.n))
    positions = np.arange(cfg.t)
    shift = 5
    # row-set 0 at the positions, row-set 1 shifted: one batched attend per kind
    pair = AttentionBatch(*np.stack([[qm, km, vm]] * 2, axis=1),
                          np.stack([positions, positions + shift]))
    rows = []
    gaps = {}
    for name, pe in _demo_pe_configs(cfg).items():
        before, after = attend(pair, pe, cfg.d_override).scores
        gaps[name] = float(np.abs(after - before).max())
        for i, j in np.ndindex(cfg.t, cfg.t):   # positions[i] is i
            row = _base_row(len(rows), cfg, i, j, abs(float(after[i, j]) - float(before[i, j])))
            row.update(kind=name, score=float(before[i, j]), score_shifted=float(after[i, j]),
                       shift=shift)
            rows.append(row)
    summary = _summarize_residuals(rows, None)
    summary.update(max_gap_per_kind=gaps, passed=summary.pop("passed"))  # passed stays last
    return rows, summary


def _bench_one(fn, cfg: RunConfig):
    """Loops per repeat, median repeat time and ops per second of ``fn``, timed by ``timeit``."""
    timer = timeit.Timer(fn)
    per_call = timer.timeit(_BENCH_WARMUP) / _BENCH_WARMUP
    loops = max(1, min(cfg.trials, int(_BENCH_TARGET_S / max(per_call, 1e-9))))
    median = statistics.median(timer.repeat(_BENCH_REPEATS, loops))
    return loops, median, loops / median


def _cmd_bench(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    q = rng.standard_normal(n)
    p_int, p_frac = 3, 0.37
    centered = SpectralBranch.CENTERED

    # the policy roll_continuous runs under, so an overflow raises on both timed paths
    @_raising()
    def dense_roll(x, p):
        """Fractional roll through dense DFT matrices: the oracle for the FFT path."""
        fmat = dft_matrix(n)
        phases = np.exp(1j * branch_angles(n, centered) * (p / cfg.lam))
        return (fmat.conj().T @ (phases * (fmat @ x))).real

    ops = {
        "roll_discrete": lambda: roll_discrete(q, p_int),
        "shift_matmul_oracle": lambda: shift_matrix(n, p_int) @ q,
        "roll_continuous_dense": lambda: dense_roll(q, p_frac),
        "roll_continuous_fft": lambda: roll_continuous(q, p_frac, cfg.lam, centered),
    }
    if n % 2 == 0:
        sched = classic_schedule(n)
        ops["rope_apply"] = lambda: rope_apply(q, p_frac, sched)

    rows = []
    throughput = {}
    for trial, (name, fn) in enumerate(ops.items()):
        loops, median, ops_per_sec = _bench_one(fn, cfg)
        throughput[name] = ops_per_sec
        row = _base_row(trial, cfg)
        row.update(op=name, loops=loops, median_s=median, ops_per_sec=ops_per_sec)
        rows.append(row)

    gaps = []
    for _ in range(32):
        sample = rng.standard_normal(n)
        p = float(rng.uniform(-2 * n, 2 * n))
        fft = roll_continuous(sample, p, cfg.lam, centered)
        gaps.append(np.abs(fft - dense_roll(sample, p)).max())
    # np.max keeps a NaN gap, which then fails the gate; the builtin max may drop it
    agreement = float(np.max(gaps))
    threshold = _THRESHOLDS[cfg.command]

    summary = {
        "ops_per_sec": throughput,
        "roll_vs_matmul_speedup": throughput["roll_discrete"]
        / throughput["shift_matmul_oracle"],
        "fft_vs_dense_speedup": throughput["roll_continuous_fft"]
        / throughput["roll_continuous_dense"],
        "fft_vs_dense_residual": agreement,
        "threshold": threshold,
        "passed": agreement <= threshold,
    }
    return rows, summary


_RUNNERS = {
    "equivariance-report": _cmd_equivariance_report,
    "rope-equivalence": _cmd_rope_equivalence,
    "multiplex-witness": _cmd_multiplex_witness,
    "grad-check": _cmd_grad_check,
    "bench": _cmd_bench,
    "attention-demo": _cmd_attention_demo,
}

COMMANDS = tuple(_RUNNERS)


def run(config: RunConfig) -> Report:
    """Execute one command and, if an output path is set, write the report."""
    config.validate()
    start = time.perf_counter()
    rows, summary = _RUNNERS[config.command](config)
    summary["elapsed_s"] = time.perf_counter() - start  # timing field, not deterministic
    report = Report(
        command=config.command, config=asdict(config), rows=rows, summary=summary
    )
    if config.output_path:
        text = _RENDERERS[config.format](report)
        # one final newline: JSON ends without one, CSV's last row in "\r\n"
        Path(config.output_path).write_text(text.removesuffix("\n") + "\n", encoding="utf-8")
    return report


def render_csv(report: Report) -> str:
    # the base columns, then every other key in the order rows first use it
    columns = dict.fromkeys([*_CSV_BASE_COLUMNS, *(key for row in report.rows for key in row)])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, restval="")
    writer.writeheader()
    writer.writerows(report.rows)
    return buf.getvalue()


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2)


_RENDERERS = {"json": render_json, "csv": render_csv}


def _build_parser() -> argparse.ArgumentParser:
    # unset flags leave no attribute, so RunConfig's defaults are the only ones
    parser = argparse.ArgumentParser(
        prog="rollpe",
        description="Invariant sweeps, equivalence checks, and benchmarks "
        "for roll / rotary positional encodings.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--n", type=int, help="vector / head dimension")
    parser.add_argument("--t", type=int, help="tokens per attention batch")
    parser.add_argument("--w", dest="waves", type=int, help="wave count W")
    parser.add_argument("--lambda", dest="lam", type=float, help="wavelength stretch")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out", dest="output_path", help="report file path (stdout when omitted)")
    parser.add_argument("--format", choices=tuple(_RENDERERS))
    parser.add_argument("--d-override", dest="d_override", type=float,
                        help="override the sqrt(d) normalizer (default: n)")
    return parser


def main(argv=None) -> int:
    # the parser's dests are RunConfig's field names
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        report = run(config)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output_path:
        print(f"{config.command}: wrote {config.format} report to {config.output_path}")
    else:
        print(_RENDERERS[config.format](report))
    return 0 if report.summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
