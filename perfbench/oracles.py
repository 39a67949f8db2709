"""Output checks and independent dense oracles for the benchmark's attend calls.

Every attend result must be finite with score rows summing to one.  Once
per run and per encoding configuration, one call is also recomputed here
from public dense pieces and compared to the library's result:
``shift_matrix`` products for the discrete and multiplexed rolls, DFT
matrix exponentiation in the configured branch for the continuous roll,
explicit 2x2 plane rotations for rope, and a ``sinusoidal_ape`` table add
for the absolute embedding.  None of this runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np

import rollpe

ROW_SUM_TOL = 1e-9
ORACLE_TOL = 1e-9


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Plain NumPy softmax(q k^T / sqrt(n)) v; also the benchmark's floor."""
    logits = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    scores = e / e.sum(axis=1, keepdims=True)
    return scores @ v, scores, logits


def check_output(out, t: int, n: int) -> str | None:
    """Describe what is wrong with one attend result, or return None."""
    for name, shape in (("output", (t, n)), ("scores", (t, t)), ("logits", (t, t))):
        arr = getattr(out, name)
        if arr.shape != shape:
            return f"{name} has shape {arr.shape}, expected {shape}"
        if not np.all(np.isfinite(arr)):
            return f"{name} holds non-finite values"
    gap = float(np.abs(out.scores.sum(axis=1) - 1.0).max())
    if gap > ROW_SUM_TOL:
        return f"score rows miss 1 by {gap:.3e}"
    return None


def multiplex_maps(n: int, waves: int) -> list:
    """Component maps of the multiplexed encoding, as the library defines them.

    Speed 1 is the identity; each higher speed is a Gaussian map scaled by
    1/sqrt(n), drawn from the generator seeded with [n, waves, 0x5157].
    """
    rng = np.random.default_rng([n, waves, 0x5157])
    return [np.eye(n)] + [rng.standard_normal((n, n)) / math.sqrt(n) for _ in range(waves - 1)]


def _rotation(m: int, p: float) -> np.ndarray:
    omegas = 10000.0 ** (-2.0 * np.arange(m // 2) / m)
    c, s = np.cos(p * omegas), np.sin(p * omegas)
    even = 2 * np.arange(m // 2)
    rot = np.zeros((m, m))
    rot[even, even], rot[even, even + 1] = c, -s
    rot[even + 1, even], rot[even + 1, even + 1] = s, c
    return rot


def _encode(x: np.ndarray, pos: np.ndarray, pe) -> np.ndarray:
    """Encode every row of ``x`` (t, m) at its scalar position, densely."""
    m = x.shape[1]
    kind = pe.kind.value
    if kind == "none":
        return x
    if kind == "sinusoidal-ape":
        return x + rollpe.sinusoidal_ape(pos, m)
    if kind == "roll-discrete":
        return np.stack([rollpe.shift_matrix(m, int(p)) @ row for row, p in zip(x, pos)])
    if kind == "multiplexed-roll":
        maps = multiplex_maps(m, pe.waves)
        return np.stack([
            sum(rollpe.shift_matrix(m, w * int(p)) @ (a @ row) for w, a in enumerate(maps, 1))
            for row, p in zip(x, pos)
        ])
    if kind == "roll-continuous":
        f = rollpe.dft_matrix(m)
        k = np.arange(m)
        if pe.branch is rollpe.SpectralBranch.CENTERED:
            k = np.where(k <= m // 2, k, k - m)
        phases = np.exp(1j * (2.0 * np.pi * k / m)[None, :] * (pos[:, None] / pe.lam))
        # rows: F x_i scaled by the phases, then F^H applied
        return (((x @ f.T) * phases) @ f.conj()).real
    if kind == "rope":
        return np.stack([_rotation(m, float(p)) @ row for row, p in zip(x, pos)])
    raise ValueError(f"no oracle for encoding kind {kind!r}")


def _encode_rows(x: np.ndarray, positions: np.ndarray, pe) -> np.ndarray:
    if not pe.axial:
        return _encode(x, positions, pe)
    half = x.shape[1] // 2
    return np.concatenate(
        [_encode(x[:, :half], positions[:, 0], pe), _encode(x[:, half:], positions[:, 1], pe)],
        axis=1,
    )


def compare_with_oracle(out, q, k, v, positions, pe) -> str | None:
    """Recompute one attend call densely; describe a mismatch above ``ORACLE_TOL``."""
    ref = softmax_attention(_encode_rows(q, positions, pe), _encode_rows(k, positions, pe), v)
    for name, want in zip(("output", "scores", "logits"), ref):
        gap = float(np.abs(getattr(out, name) - want).max())
        if not gap <= ORACLE_TOL:
            return f"{name} differs from the dense oracle by {gap:.3e}"
    return None
