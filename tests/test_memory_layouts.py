"""The discrete rolls read their rows alike whatever the rows' memory layout.

``roll_discrete``, ``mproll``, ``rollpe_score`` and ``mproll_score`` take
stacks and banks in any layout numpy makes: Fortran-ordered, transposed,
with permuted axes, with reversed strides, or strided along a row.  Each
returns, bit for bit, what it returns on a C-ordered copy of the same
values.
"""

import numpy as np
import pytest

from rollpe.multiplex import mproll, mproll_score
from rollpe.roll_core import roll_discrete, rollpe_score

# the values of x in a layout that is not C order; a layout a shape cannot take leaves it C-ordered
_LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed": lambda x: np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2),
    "permuted": lambda x: np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0),
    "reversed": lambda x: np.flip(np.ascontiguousarray(np.flip(x))),
    "strided": lambda x: x.repeat(2, axis=-1)[..., ::2],
}
_layouts = pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS)


def _draw(shape, seed=0):
    return np.random.default_rng([seed, *shape]).standard_normal(shape)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_layouts_keep_values_and_change_layout():
    x = _draw((3, 4, 5))
    for name, layout in _LAYOUTS.items():
        moved = layout(x)
        np.testing.assert_array_equal(moved, x)
        assert not moved.flags.c_contiguous, name


@_layouts
@pytest.mark.parametrize("shape", [(4, 6), (5, 7), (7, 1), (2, 3, 8), (3, 5, 2)])
def test_roll_discrete(layout, shape):
    q = _draw(shape)
    p = 3 * np.arange(shape[-2]) - 4
    _assert_same_bits(roll_discrete(layout(q), p), roll_discrete(q, p))


@_layouts
@pytest.mark.parametrize("shape", [(3, 7), (2, 4, 6), (3, 5, 3)])
def test_mproll(layout, shape):
    bank = _draw(shape)
    p = 4 if len(shape) == 2 else np.arange(shape[1]) + 2
    _assert_same_bits(mproll(layout(bank), p), mproll(bank, p))


@_layouts
@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (2, 6)])
def test_rollpe_score(layout, shape):
    q, k = _draw(shape), _draw(shape, seed=1)
    p = 3 * np.arange(shape[0])
    _assert_same_bits(rollpe_score(layout(q), layout(k), p, p + 2), rollpe_score(q, k, p, p + 2))


@_layouts
@pytest.mark.parametrize("shape", [(3, 7), (2, 4, 6), (3, 5, 3)])
def test_mproll_score(layout, shape):
    bank_q, bank_k = _draw(shape), _draw(shape, seed=1)
    p = 5 if len(shape) == 2 else np.arange(shape[1])
    want = mproll_score(bank_q, bank_k, p, p + 1)
    _assert_same_bits(mproll_score(layout(bank_q), layout(bank_k), p, p + 1), want)
