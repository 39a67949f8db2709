"""Per-module spans for the traced benchmark run, taken from outside the library.

The library is not edited.  Instead, while a traced run is in progress,
every name a ``rollpe`` module looks up at call time to reach another
module (``rollpe.attention.roll_continuous`` is how ``attention`` calls
into ``spectral``) is replaced by a wrapper that records a span, and the
original is put back afterwards, also when the run raises.  The harness
records spans around its own calls into the library the same way.

A span carries its layer (the module that defines the called object),
the called name, the index of its parent span, the id of the benchmark
operation it belongs to, its start and end, and whether it raised.
Spans stay in memory and are summarised when the traced phase ends: a
layer's self time is the time of its spans minus the time of their child
spans, and a layer's calls are the spans that enter it from another layer
or from the harness.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("roll_core", "spectral", "rope", "multiplex", "attention", "regularizer", "cli")

# Names each module calls to reach another module.  Two names are called
# from inside their own module and are wrapped only because counters ride
# on them: spectral's own dft_matrix builds, and the AttentionBatch builds
# grad_check makes inside attention.
CALLED_NAMES = {
    "attention": (
        "AttentionBatch",
        "roll_discrete",
        "roll_continuous",
        "rope_apply",
        "classic_schedule",
        "mproll",
        "MultiplexBank",
    ),
    "multiplex": ("roll_discrete",),
    "rope": ("roll_continuous", "dft_matrix"),
    "spectral": ("shift_matrix", "dft_matrix"),
    "regularizer": ("roll_continuous",),
    "cli": (
        "AttentionBatch",
        "attend",
        "grad_check",
        "equivariance_violation_witness",
        "relative_form_score",
        "rollpe_score",
        "roll_discrete",
        "shift_matrix",
        "classic_schedule",
        "equivalence_residual",
        "rope_apply",
        "roll_continuous",
        "roll_continuous_fft",
    ),
}


def _count_dft(counters, args, kwargs, result):
    n = int(args[0] if args else kwargs["n"])
    counters["spectral.dft_matrix_calls"] += 1
    counters["spectral.dft_bytes_computed"] += 16 * n * n


def _count_schedule(counters, args, kwargs, result):
    counters["rope.schedule_builds"] += 1


def _count_witness(counters, args, kwargs, result):
    counters["multiplex.witness_attempts"] += result.attempts
    counters["multiplex.witness_found"] += int(result.found)


OBSERVERS = {
    "dft_matrix": _count_dft,
    "classic_schedule": _count_schedule,
    "equivariance_violation_witness": _count_witness,
}

# span fields
_LAYER, _NAME, _PARENT, _CALL, _START, _END, _RAISED = range(7)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.missing = []
        self._open = []
        self._call_id = 0

    def next_call(self) -> None:
        """Start a new benchmark operation; its spans share one call id."""
        self._call_id += 1

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` and return its result."""
        span = [layer, name, self._open[-1] if self._open else -1, self._call_id,
                time.perf_counter(), 0.0, False]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[_RAISED] = True
            raise
        finally:
            span[_END] = time.perf_counter()
            self._open.pop()
        observe = OBSERVERS.get(name)
        if observe is not None:
            observe(self.counters, args, kwargs, result)
        return result

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return traced

    def summary(self, rounds: int) -> dict:
        """Per-layer figures per round of the workload, as plain numbers."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        calls, self_s, errors = Counter(), Counter(), Counter()
        batch_build_s = 0.0
        for i, span in enumerate(spans):
            layer = span[_LAYER]
            self_s[layer] += span[_END] - span[_START] - child[i]
            if span[_NAME] == "AttentionBatch":
                batch_build_s += span[_END] - span[_START]
            if span[_PARENT] < 0 or spans[span[_PARENT]][_LAYER] != layer:
                calls[layer] += 1
                errors[layer] += span[_RAISED]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / rounds
            out[f"{layer}.self_s"] = self_s[layer] / rounds
            out[f"{layer}.errors"] = errors[layer] / rounds
        out["attention.batch_build_s"] = batch_build_s / rounds
        for name in ("spectral.dft_matrix_calls", "spectral.dft_bytes_computed",
                     "rope.schedule_builds", "multiplex.witness_attempts"):
            out[name] = self.counters[name] / rounds
        attempts = self.counters["multiplex.witness_attempts"]
        found = self.counters["multiplex.witness_found"]
        out["multiplex.witness_found_frac"] = found / attempts if attempts else 0.0
        out["trace.missing_names"] = len(self.missing)
        return out


def _layer_of(obj) -> str:
    return getattr(obj, "__module__", "").rpartition(".")[2]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every name in ``CALLED_NAMES`` for the duration of the block.

    A module or name the library no longer has is appended to
    ``tracer.missing`` and skipped.  Every wrapped name is restored on
    exit, whether the block returns or raises.
    """
    patched = []
    try:
        for module_name, names in CALLED_NAMES.items():
            try:
                module = importlib.import_module(f"rollpe.{module_name}")
            except ImportError:
                tracer.missing.extend(f"rollpe.{module_name}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    tracer.missing.append(f"rollpe.{module_name}.{name}")
                    continue
                setattr(module, name, tracer.wrap(_layer_of(original), name, original))
                patched.append((module, name, original))
        yield tracer
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)
