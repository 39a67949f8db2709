"""Workloads, timed loops and output checks of the rollpe benchmark.

A run of one workload goes through these steps, all in one single-threaded
process apart from the set-up probes:

1. Set-up (``--trace 0`` only): ``SETUP_PROBES`` fresh processes, after
   one untimed one, each import ``rollpe`` and make the first call of each
   kind and check; ``setup_s`` is the median of their scaled times.
2. One warm-up round, which fills the lazy caches and runs the dense
   oracle comparisons.
3. Timed rounds with tracing off until the run's seconds are spent (half
   of them with ``--trace 1``).  A round is one call of each encoding kind,
   interleaved with one call of the plain NumPy floor, repeated
   ``calls_per_round`` times; on invariant-sweep it starts with one pass
   of the invariant suite.  A burst of the reference unit (see
   ``calibration``) runs after each operation, and each operation's time
   is scaled by the units on either side of it.
4. With ``--trace 1``: ``traced_rounds`` more rounds on fresh inputs with
   every cross-module name wrapped (see ``tracing``), giving the
   per-module split per round.

Inputs come only from the seed.  Every result is checked outside the
timed region; a result that raises, is non-finite, misses the dense
oracle or reports ``passed: false`` counts as a failed operation.

End-to-end metrics (``--trace 0``), printed for every workload:

- ``attend_ms.<kind>``: median scaled time of one ``AttentionBatch(...)``
  build plus one ``attend(...)`` call at the workload's attend shape (on
  invariant-sweep, the t=8, n=8 shape its checks attend at).
- ``sweep_s``: median scaled time of one verified pass: the invariant suite
  on invariant-sweep, one call of each kind on the attend workloads.
- ``setup_s``: median over the set-up probes, each scaled by the
  reference unit timed beside its steps in its own process.
- ``peak_rss_mb``: peak resident memory of the workload process.

The share of failed operations (``failed_frac``) reads zero on a healthy
run, so it is carried by the result's ``attempted`` and ``failed`` counts
and printed in the report rather than declared as a metric.  The report
also gives each kind's tail percentile with its sample count, the
floor's own row, and the same rows in raw wall time beside the reference
unit's own times (``wall``).

Per-layer metrics (``--trace 1``) are per round of the traced phase:
``<layer>.calls`` / ``.self_s`` / ``.errors`` for each module, the
counters in ``tracing.OBSERVERS``, ``attention.batch_build_s``,
``attention.floor_ratio.<kind>`` (untraced ``attend_ms.<kind>`` over the
floor's median) and ``trace.overhead_frac`` (traced over untraced round
time, minus one).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rollpe  # noqa: E402
import rollpe.cli  # noqa: E402

import calibration  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

KINDS = ("none", "sinusoidal-ape", "roll-discrete", "roll-continuous", "rope", "multiplexed-roll")
WAVES = 3
OFFSET_RANGE = 4096
SETUP_PROBES = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

POSITION_SCHEMES = {
    "offset": "scalar (t,): arange(t) plus a fresh offset per call in [0, 4096), "
              "fractional for roll-continuous and rope, integer otherwise",
    "grid": "axial (t, 2): one square integer grid drawn once per run and "
            "repeated on every call",
}


@dataclass(frozen=True)
class Workload:
    """One set of benchmark inputs; ``t`` and ``n`` give the attend shape."""

    name: str
    t: int
    n: int
    positions: str
    alternate_branch: bool
    sweep: bool
    calls_per_round: int
    traced_rounds: int
    why: str

    @property
    def axial(self) -> bool:
        return self.positions == "grid"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "attend-long", t=1024, n=64, positions="offset", alternate_branch=False,
            sweep=False, calls_per_round=1, traced_rounds=2,
            why="The per-row encode loop and the t^2 logits/softmax do most of the "
                "work and no two calls share positions, so batched-encoder and FFT "
                "changes show here and a position-keyed cache gets no hits.",
        ),
        Workload(
            "attend-short-axial", t=16, n=32, positions="grid", alternate_branch=True,
            sweep=False, calls_per_round=1, traced_rounds=40,
            why="Per-call fixed cost (batch copy and validation, per-row dispatch, "
                "schedule and table rebuilds) does most of the work on repeated "
                "positions, so added per-call set-up loses here and position caches hit.",
        ),
        Workload(
            "invariant-sweep", t=8, n=8, positions="offset", alternate_branch=False,
            sweep=True, calls_per_round=25, traced_rounds=2,
            why="The paper's machine-checked traffic: scalar single-vector kernels at "
                "small n plus cli report assembly, and the only workload that runs "
                "regularizer and the generator diagnostics.",
        ),
    )
}


@dataclass
class Ledger:
    """Attempted and failed operations, with the first few failures named."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op}: {problem}")

    def absorb(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


def _pe_configs(wl: Workload) -> dict:
    """Encoding configurations by label; roll-continuous may have two branches."""
    configs = {kind: rollpe.PEConfig(kind=kind, axial=wl.axial) for kind in KINDS}
    configs["multiplexed-roll"] = rollpe.PEConfig(
        kind="multiplexed-roll", waves=WAVES, axial=wl.axial)
    if wl.alternate_branch:
        del configs["roll-continuous"]
        for branch in rollpe.SpectralBranch:
            configs[f"roll-continuous/{branch.value}"] = rollpe.PEConfig(
                kind="roll-continuous", branch=branch, axial=wl.axial)
    return configs


# --- the invariant suite ----------------------------------------------------

def _report_passed(report) -> str | None:
    s = report.summary
    if s.get("passed") is True:
        return None
    return f"passed={s.get('passed')} max_residual={s.get('max_residual')} threshold={s.get('threshold')}"


def _smoothness_ok(q: np.ndarray):
    norm_sq = float(q @ q)

    def check(rep) -> str | None:
        values = (rep.correlation, rep.distance, rep.epsilon_bound)
        if not all(np.isfinite(values)):
            return "non-finite smoothness report"
        gap = abs(rep.distance**2 - 2.0 * norm_sq * (1.0 - rep.correlation))
        if gap > 1e-10 * max(1.0, norm_sq):
            return f"distance and correlation disagree by {gap:.3e}"
        return None

    return check


def _laplacian_ok(q: np.ndarray):
    want = float(np.sum((q - np.roll(q, -1)) ** 2))

    def check(value) -> str | None:
        if not abs(value - want) <= 1e-12 * max(1.0, want):
            return f"loss {value!r} differs from the direct sum {want!r}"
        return None

    return check


def _generator_ok(res) -> str | None:
    if res.skew <= 1e-10 and res.exp_vs_shift <= 1e-9 and res.circulant <= 1e-10:
        return None
    return f"residuals {res}"


def invariant_suite(seed: int) -> list:
    """The fixed invariant checks as (label, call, check) triples.

    ``call`` takes the harness's library-call function so that the traced
    run can put a span around each call into the library.
    """
    cli = rollpe.cli
    rng = np.random.default_rng(seed)
    suite = []
    for label, command, extra in (
        ("equivariance-report", "equivariance-report", {}),
        ("rope-equivalence/n=8", "rope-equivalence", {"n": 8}),
        ("rope-equivalence/n=9", "rope-equivalence", {"n": 9}),
        ("multiplex-witness/W=1", "multiplex-witness", {"waves": 1}),
        ("multiplex-witness/W=2", "multiplex-witness", {"waves": 2}),
        ("grad-check", "grad-check", {}),
    ):
        cfg = cli.RunConfig(command=command, seed=seed, **extra)
        suite.append((label, lambda lib, cfg=cfg: lib("cli", "run", cli.run, cfg), _report_passed))
    for i in range(8):
        # odd n, or an integer shift: the shift is an isometry, so the two views must agree
        n = 9 if i % 2 else 10
        delta = float(rng.uniform(-4.0, 4.0)) if n % 2 else float(rng.integers(-4, 5))
        q = rng.standard_normal(n)
        suite.append((
            "lipschitz_gap",
            lambda lib, q=q, delta=delta: lib("regularizer", "lipschitz_gap", rollpe.lipschitz_gap, q, delta),
            _smoothness_ok(q),
        ))
    for _ in range(8):
        q = rng.standard_normal(16)
        suite.append((
            "circular_laplacian_loss",
            lambda lib, q=q: lib("regularizer", "circular_laplacian_loss",
                                 rollpe.circular_laplacian_loss, q),
            _laplacian_ok(q),
        ))
    for n in range(1, 33):
        for branch in rollpe.SpectralBranch:
            suite.append((
                f"generator_residuals/n={n}/{branch.value}",
                lambda lib, n=n, branch=branch: lib(
                    "spectral", "generator_residuals", rollpe.generator_residuals,
                    lib("spectral", "log_shift_generator", rollpe.log_shift_generator, n, branch)),
                _generator_ok,
            ))
    return suite


# --- one run of a workload ----------------------------------------------------

class Session:
    """Inputs, checks and timings of one phase of a run on one workload."""

    def __init__(self, wl: Workload, rng: np.random.Generator, oracle: bool = True,
                 tracer: tracing.Tracer | None = None, calibrate: bool = False):
        self.wl = wl
        self.rng = rng
        self.tracer = tracer
        self.calibrate = calibrate
        self._pending = []  # (label, seconds) of operations not yet scaled
        self._before = None  # unit seconds of the last burst
        self.ledger = Ledger()
        self.configs = _pe_configs(wl)
        self.unverified = set(self.configs) if oracle else set()
        self.rc_calls = 0
        side = int(round(wl.t ** 0.5))
        origin = rng.integers(0, OFFSET_RANGE, size=2)
        self.grid = (np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1)
                     .reshape(-1, 2) + origin).astype(float)
        self.reset_timings()

    def reset_timings(self) -> None:
        """Forget every timing; ``samples`` are raw seconds, ``scaled`` calibrated ones."""
        labels = KINDS + ("floor", "sweep", "round")
        self.samples = {label: [] for label in labels}
        self.scaled = {label: [] for label in labels}
        self.levels = []

    def _record(self, label: str, elapsed: float) -> None:
        self.samples[label].append(elapsed)
        if self.calibrate:
            self._pending.append((label, elapsed))

    def _calibrate(self, count: int | None = None) -> None:
        """Time a burst of reference units; scale the operations since the last burst.

        The burst is sized to the longest of those operations (see
        ``calibration.units_beside``).  An operation is scaled by the level
        of the units nearest to it: the end of the burst before it and the
        start of the burst after it.
        """
        if not self.calibrate:
            return
        if count is None:
            count = calibration.units_beside(max(e for _, e in self._pending))
        after = calibration.burst(count)
        self.levels.append(calibration.level(after))
        before = after if self._before is None else self._before
        for label, elapsed in self._pending:
            k = calibration.units_beside(elapsed)
            level = calibration.level(before[-k:] + after[:k])
            self.scaled[label].append(elapsed * calibration.REFERENCE_S / level)
        self._pending = []
        self._before = after

    def _lib(self, layer: str, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, name, fn, *args)

    def _config(self, kind: str):
        if kind == "roll-continuous" and self.wl.alternate_branch:
            self.rc_calls += 1
            kind = "roll-continuous/" + ("raw" if self.rc_calls % 2 else "centered")
        return kind, self.configs[kind]

    def _positions(self, kind: str) -> np.ndarray:
        if self.wl.positions == "grid":
            return self.grid
        if kind in ("roll-continuous", "rope"):
            offset = float(self.rng.uniform(0.0, OFFSET_RANGE))
        else:
            offset = float(self.rng.integers(OFFSET_RANGE))
        return np.arange(self.wl.t) + offset

    def _attend(self, kind: str) -> float:
        label, pe = self._config(kind)
        t, n = self.wl.t, self.wl.n
        q, k, v = self.rng.standard_normal((3, t, n))
        positions = self._positions(kind)
        if self.tracer is not None:
            self.tracer.next_call()
        start = time.perf_counter()
        try:
            batch = self._lib("attention", "AttentionBatch", rollpe.AttentionBatch, q, k, v, positions)
            out = self._lib("attention", "attend", rollpe.attend, batch, pe)
            problem = None
        except Exception as exc:  # counted as a failed operation; the run goes on
            problem = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        self._record(kind, elapsed)
        if problem is None:
            problem = oracles.check_output(out, t, n)
        if problem is None and label in self.unverified:
            self.unverified.discard(label)
            problem = oracles.compare_with_oracle(out, q, k, v, positions, pe)
        self.ledger.record(label, problem)
        return elapsed

    def _floor(self) -> None:
        q, k, v = self.rng.standard_normal((3, self.wl.t, self.wl.n))
        start = time.perf_counter()
        oracles.softmax_attention(q, k, v)
        self._record("floor", time.perf_counter() - start)

    def _sweep(self) -> float:
        suite = invariant_suite(int(self.rng.integers(2**31)))
        results = []
        start = time.perf_counter()
        for _, call, _ in suite:
            if self.tracer is not None:
                self.tracer.next_call()
            try:
                results.append(call(self._lib))
            except Exception as exc:  # counted as a failed operation; the run goes on
                results.append(exc)
        elapsed = time.perf_counter() - start
        for (label, _, check), result in zip(suite, results):
            problem = f"raised {result!r}" if isinstance(result, Exception) else check(result)
            self.ledger.record(label, problem)
        self._record("sweep", elapsed)
        return elapsed

    def play_round(self) -> float:
        """Run one round; return the seconds spent inside the library.

        With calibration on, a burst of reference units runs before the
        session's first operation and after each operation; the round's
        scaled time is the sum of its operations' scaled times, the
        floor's excluded.
        """
        if self.calibrate and self._before is None:
            self._calibrate(calibration.OPENING)
        done = {label: len(xs) for label, xs in self.scaled.items()}
        spent = 0.0
        if self.wl.sweep:
            spent += self._sweep()
            self._calibrate()
        for _ in range(self.wl.calls_per_round):
            for kind in KINDS:
                spent += self._attend(kind)
                self._calibrate()
            self._floor()
            self._calibrate()
        self.samples["round"].append(spent)
        if self.calibrate:
            self.scaled["round"].append(sum(
                x for label in KINDS + ("sweep",) for x in self.scaled[label][done[label]:]))
        return spent


def timing_row(seconds: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    xs = sorted(seconds)
    row = {"samples": len(xs), "p50_ms": statistics.median(xs) * 1e3}
    if len(xs) > 10:
        row["tail_pct"] = round(100.0 * (len(xs) - 10) / len(xs), 1)
        row["tail_ms"] = xs[-11] * 1e3
    return row


def first_round(name: str, seed: int) -> Session:
    """A calibrated session that has made the first call of each kind and check."""
    wl = replace(WORKLOADS[name], calls_per_round=1)
    session = Session(wl, np.random.default_rng([seed % 2**64, 2]), oracle=False, calibrate=True)
    session.play_round()
    return session


def measure_setup(name: str, seed: int) -> list:
    """Set-up probe results from ``SETUP_PROBES`` fresh processes, run one after another.

    Probes may write bytecode next to the sources, and one untimed probe
    runs first, so set-up is timed as an installed library meets it
    whatever the calling environment says about bytecode.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples[1:]


def _blas() -> object:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 only prints its configuration
        return "unavailable"
    blas = deps.get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "git_revision": _git_revision(),
        "seed": seed,
    }


def describe(wl: Workload) -> dict:
    return {
        "name": wl.name,
        "shape": {"t": wl.t, "n": wl.n},
        "positions": POSITION_SCHEMES[wl.positions],
        "kinds": list(_pe_configs(wl)),
        "multiplex_waves": WAVES,
        "calls_per_round": wl.calls_per_round,
        "invariant_suite": wl.sweep,
        "why": wl.why,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_computed"):
        return "B"
    if "frac" in name or "ratio" in name:
        return "ratio"
    return "count"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (result, report).

    ``result`` is the benchmark's final line: correct, attempted, failed
    and the end-to-end metrics (tracing off) or per-layer metrics (tracing
    on).  ``report`` holds the details behind them.
    """
    report = {"workload": describe(wl), "provenance": provenance(seed)}
    setup_samples = [] if trace else measure_setup(wl.name, seed)

    session = Session(wl, np.random.default_rng([seed % 2**64, 0]), calibrate=True)
    session.play_round()  # warm-up: lazy caches, first-call costs and the oracles
    session.reset_timings()
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    while time.perf_counter() < deadline:
        session.play_round()
    ledger = session.ledger

    # a verified pass: the invariant suite, or one call of each kind
    passes = "sweep" if wl.sweep else "round"
    rows = {kind: timing_row(session.scaled[kind]) for kind in KINDS + ("floor",)}
    report["attend_ms"] = rows
    report["sweep_s"] = timing_row(session.scaled[passes])
    report["wall"] = {
        "attend_ms": {kind: timing_row(session.samples[kind]) for kind in KINDS + ("floor",)},
        "sweep_s": timing_row(session.samples[passes]),
        "unit_ms": timing_row(session.levels),
    }

    if trace:
        tracer = tracing.Tracer()
        traced = Session(wl, np.random.default_rng([seed % 2**64, 1]), oracle=False, tracer=tracer)
        with tracing.installed(tracer):
            for _ in range(wl.traced_rounds):
                traced.play_round()
        ledger.absorb(traced.ledger)
        values = tracer.summary(wl.traced_rounds)
        floor = rows["floor"]["p50_ms"]
        for kind in KINDS:
            values[f"attention.floor_ratio.{kind}"] = rows[kind]["p50_ms"] / floor
        values["trace.overhead_frac"] = (
            statistics.median(traced.samples["round"])
            / statistics.median(session.samples["round"]) - 1.0)
        report["trace"] = {"rounds": wl.traced_rounds, "spans": len(tracer.spans),
                           "missing_names": tracer.missing}
        metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    else:
        metrics = {f"attend_ms.{kind}": _metric(rows[kind]["p50_ms"], "ms") for kind in KINDS}
        metrics["sweep_s"] = _metric(report["sweep_s"]["p50_ms"] / 1e3, "s")
        report["setup_probes"] = setup_samples
        metrics["setup_s"] = _metric(statistics.median(p["setup_s"] for p in setup_samples), "s")
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    report["failed_frac"] = ledger.failed / ledger.attempted
    report["problems"] = ledger.problems
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, report
