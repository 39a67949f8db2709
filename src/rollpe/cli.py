"""Command-line harness: invariant sweeps, equivalence checks, benchmarks.

Each command runs a seeded sweep against the library and emits a
machine-readable report (JSON or CSV).  Residual fields are fully
deterministic for a fixed config; timing fields are not.  The process
exits 0 iff every threshold in the command's suite passed (benchmarks
and the attention demo are report-only and always pass).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import AttentionBatch, PEConfig, PEKind, attend, grad_check
from .multiplex import equivariance_violation_witness
from .roll_core import (
    _as_count,
    _check_positive,
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

COMMANDS = (
    "equivariance-report",
    "rope-equivalence",
    "multiplex-witness",
    "grad-check",
    "bench",
    "attention-demo",
)

_THRESHOLDS = {
    "equivariance-report": 1e-12,
    "rope-equivalence": 1e-9,
    "multiplex-witness": 1e-3,   # minimum witness gap
    "grad-check": 1e-5,
}

_CSV_BASE_COLUMNS = ("trial", "n", "lambda", "p_q", "p_k", "residual")

# equivariance-report attends in blocks whose (2*block, t, t) and (2*block,
# t, n) arrays each fit this budget, so memory does not grow with --trials.
# 32 trials at t = n = 8 share a call, and glibc malloc reuses heap memory
# (on x86-64 Linux, 8 MiB blocks took ~200 page faults every default pass).
_EQUIVARIANCE_BLOCK_BYTES = 64 * 2**10

# Target duration of one timed benchmark repeat; per-op loop counts are
# capped so a single repeat stays near this, with config.trials as the
# upper bound.
_BENCH_TARGET_S = 0.2


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
    bench_repeats: int = 5
    bench_warmup: int = 100

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("n", "t", "waves", "seed", "trials", "bench_repeats", "bench_warmup"):
            least = 0 if name in ("seed", "bench_warmup") else 1
            setattr(self, name, _as_count(getattr(self, name), name, least))
        _check_positive(self.lam, "lambda")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        _score_scale(self.n, self.d_override)
        if self.command in ("grad-check", "attention-demo") and self.n % 2 != 0:
            raise ValueError(f"{self.command} requires an even n (rotary/APE kinds)")
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
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "rows": self.rows,
            "summary": self.summary,
        }


def _worst_trial(rows: list, max_res: float) -> int | None:
    """The first row whose residual is ``max_res``: it carries p_q, p_k or kind to reproduce it."""
    return next((i for i, r in enumerate(rows) if r.get("residual") == max_res), None)


def _summarize_residuals(rows: list, threshold: float) -> dict:
    residuals = [r["residual"] for r in rows if r.get("residual") is not None]
    max_res = max(residuals) if residuals else 0.0
    mean_res = sum(residuals) / len(residuals) if residuals else 0.0
    return {
        "max_residual": max_res,
        "mean_residual": mean_res,
        "threshold": threshold,
        "worst_trial": _worst_trial(rows, max_res),
        "passed": max_res <= threshold,
    }


def _base_row(trial: int, cfg: RunConfig, p_q=None, p_k=None, residual=None) -> dict:
    return {
        "trial": trial,
        "n": cfg.n,
        "lambda": cfg.lam,
        "p_q": p_q,
        "p_k": p_k,
        "residual": residual,
    }


def _trial_rows(cfg: RunConfig, p_q, p_k, residuals) -> list:
    """One base row per trial, from the (T,) positions and residuals of a sweep."""
    return [
        _base_row(trial, cfg, *row)
        for trial, row in enumerate(zip(p_q.tolist(), p_k.tolist(), residuals.tolist()))
    ]


def _cmd_equivariance_report(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_override if cfg.d_override is not None else float(cfg.n)
    pe = PEConfig(kind=PEKind.ROLL_DISCRETE)
    pos = np.arange(cfg.t)
    # each trial draws its inputs in turn, so every row keeps its draws
    # whatever the trial count or block size; each block's unshifted and
    # shifted copies are scored by one batched attend, and the two score
    # checks then run over all trials at once
    block = max(1, _EQUIVARIANCE_BLOCK_BYTES // (16 * cfg.t * (cfg.t + cfg.n)))
    pairs, ints, res_mat = [], [], np.empty(cfg.trials)
    for start in range(0, cfg.trials, block):
        size = min(block, cfg.trials - start)
        qkv = np.empty((3, 2 * size, cfg.t, cfg.n))   # row-set i and its shifted copy size + i
        for i in range(size):
            pairs.append(rng.standard_normal((2, cfg.n)))
            ints.append(rng.integers(-2 * cfg.n, 2 * cfg.n + 1, size=3))  # p_q, p_k, shift
            qkv[:, i] = rng.standard_normal((3, cfg.t, cfg.n))
        qkv[:, size:] = qkv[:, :size]
        shifts = np.stack(ints[start:])[:, 2:]
        positions = np.concatenate([np.broadcast_to(pos, (size, cfg.t)), pos + shifts])
        scores = attend(AttentionBatch(*qkv, positions), pe, d).scores
        res_mat[start : start + size] = np.abs(scores[size:] - scores[:size]).max(axis=(1, 2))
    q, k = np.stack(pairs, axis=1)
    p_q, p_k, shift = np.stack(ints, axis=1)
    base = rollpe_score(q, k, p_q, p_k, d)
    res_shift = np.abs(rollpe_score(q, k, p_q + shift, p_k + shift, d) - base)
    res_rel = np.abs(base - relative_form_score(q, k, p_k - p_q, d))
    residuals = np.maximum(np.maximum(res_shift, res_rel), res_mat)
    rows = _trial_rows(cfg, p_q, p_k, residuals)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_rope_equivalence(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    pairs, positions = [], []
    for _ in range(cfg.trials):
        pairs.append(rng.standard_normal((2, cfg.n)))
        positions.append(rng.uniform(-3.0 * cfg.n, 3.0 * cfg.n, size=2))
    q, k = np.stack(pairs, axis=1)
    p_q, p_k = np.stack(positions, axis=1)
    residuals = equivalence_residual(q, k, p_q, p_k, cfg.lam)
    rows = _trial_rows(cfg, p_q, p_k, residuals)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_multiplex_witness(cfg: RunConfig):
    threshold = _THRESHOLDS[cfg.command]
    witness = equivariance_violation_witness(
        cfg.n, cfg.waves, cfg.seed, budget=cfg.trials, gap_threshold=threshold
    )
    row = _base_row(0, cfg, witness.p_q, witness.p_k, witness.gap)
    row.update(
        {
            "found": witness.found,
            "shift": witness.t,
            "attempts": witness.attempts,
            "score_before": witness.score_before,
            "score_after": witness.score_after,
            "waves": cfg.waves,
        }
    )
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
        row = _base_row(trial, cfg, residual=grad_check(pe, batch, eps=1e-5))
        row["kind"] = name
        rows.append(row)
    return rows, _summarize_residuals(rows, _THRESHOLDS[cfg.command])


def _cmd_attention_demo(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    qm, km, vm = rng.standard_normal((3, cfg.t, cfg.n))
    d = cfg.d_override
    positions = np.arange(cfg.t)
    shift = 5
    # row-set 0 at the positions, row-set 1 shifted: one batched attend per kind
    pair = AttentionBatch(*np.stack([[qm, km, vm]] * 2, axis=1),
                          np.stack([positions, positions + shift]))
    rows = []
    gaps = {}
    trial = 0
    for name, pe in _demo_pe_configs(cfg).items():
        before, after = attend(pair, pe, d).scores
        gaps[name] = float(np.abs(after - before).max())
        for i in range(cfg.t):
            for j in range(cfg.t):
                row = _base_row(
                    trial, cfg, int(positions[i]), int(positions[j]),
                    abs(float(after[i, j]) - float(before[i, j])),
                )
                row.update(
                    {
                        "kind": name,
                        "score": float(before[i, j]),
                        "score_shifted": float(after[i, j]),
                        "shift": shift,
                    }
                )
                rows.append(row)
                trial += 1
    max_res = max(r["residual"] for r in rows)
    summary = {
        "max_residual": max_res,
        "mean_residual": sum(r["residual"] for r in rows) / len(rows),
        "worst_trial": _worst_trial(rows, max_res),
        "max_gap_per_kind": gaps,
        "passed": True,
    }
    return rows, summary


def _median_time(fn, loops: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _bench_one(fn, cfg: RunConfig):
    start = time.perf_counter()
    for _ in range(cfg.bench_warmup):
        fn()
    elapsed = time.perf_counter() - start
    per_call = elapsed / max(cfg.bench_warmup, 1)
    loops = max(1, min(cfg.trials, int(_BENCH_TARGET_S / max(per_call, 1e-9))))
    median = _median_time(fn, loops, cfg.bench_repeats)
    return loops, median, loops / median


def _cmd_bench(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    q = rng.standard_normal(n)
    p_int, p_frac = 3, 0.37
    centered = SpectralBranch.CENTERED

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
        row.update(
            {"op": name, "loops": loops, "median_s": median, "ops_per_sec": ops_per_sec}
        )
        rows.append(row)

    agreement = 0.0
    for _ in range(32):
        sample = rng.standard_normal(n)
        p = float(rng.uniform(-2 * n, 2 * n))
        fft = roll_continuous(sample, p, cfg.lam, centered)
        agreement = max(agreement, float(np.abs(fft - dense_roll(sample, p)).max()))

    summary = {
        "ops_per_sec": throughput,
        "roll_vs_matmul_speedup": throughput["roll_discrete"]
        / throughput["shift_matmul_oracle"],
        "fft_vs_dense_speedup": throughput["roll_continuous_fft"]
        / throughput["roll_continuous_dense"],
        "fft_vs_dense_residual": agreement,
        "passed": True,
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
        write_report(report, config.output_path, config.format)
    return report


def render_csv(report: Report) -> str:
    extras = []
    for row in report.rows:
        for key in row:
            if key not in _CSV_BASE_COLUMNS and key not in extras:
                extras.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(_CSV_BASE_COLUMNS) + extras)
    for row in report.rows:
        writer.writerow(
            [row.get(col, "") for col in _CSV_BASE_COLUMNS]
            + [row.get(col, "") for col in extras]
        )
    return buf.getvalue()


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2)


def write_report(report: Report, path: str, fmt: str) -> None:
    text = render_json(report) if fmt == "json" else render_csv(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollpe",
        description="Invariant sweeps, equivalence checks, and benchmarks "
        "for roll / rotary positional encodings.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--n", type=int, default=8, help="vector / head dimension")
    parser.add_argument("--t", type=int, default=8, help="tokens per attention batch")
    parser.add_argument("--w", dest="waves", type=int, default=2, help="wave count W")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="wavelength stretch")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--out", dest="output_path", default=None,
                        help="report file path (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--d-override", dest="d_override", type=float, default=None,
                        help="override the sqrt(d) normalizer (default: n)")
    return parser


def main(argv=None) -> int:
    # the parser's dests are RunConfig's field names
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        report = run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output_path:
        print(f"{config.command}: wrote {config.format} report to {config.output_path}")
    else:
        print(render_json(report) if config.format == "json" else render_csv(report))
    return 0 if report.summary.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
