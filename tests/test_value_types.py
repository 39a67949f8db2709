"""Value types that hold arrays compare and hash by identity; the others compare by value.

An array's ``==`` is elementwise, so a generated ``__eq__`` over array
fields could not answer whether two instances are equal: it raised on
arrays of one shape and broadcast, or raised, on two of different shapes.
"""

import numpy as np
import pytest

from rollpe import (
    AttentionBatch,
    AttentionOutput,
    EquivarianceWitness,
    FrequencySchedule,
    GeneratorResiduals,
    PEConfig,
    PEKind,
    ShiftGenerator,
    SmoothnessReport,
    SpectralBranch,
)

_ROWS = np.arange(6.0).reshape(2, 3)

# two instances of equal values, built apart
_ARRAY_HOLDERS = {
    "AttentionBatch": lambda: AttentionBatch(_ROWS, _ROWS, _ROWS, [0, 1]),
    "AttentionOutput": lambda: AttentionOutput(_ROWS, _ROWS[:, :2], _ROWS[:, :2]),
    "ShiftGenerator": lambda: ShiftGenerator(2, SpectralBranch.RAW, np.zeros((2, 2), complex)),
    "FrequencySchedule": lambda: FrequencySchedule([1.0, 0.5]),
    "EquivarianceWitness":
        lambda: EquivarianceWitness(True, 1, 0.5, bank_q=_ROWS, bank_k=_ROWS),
}
_VALUES = {
    "PEConfig": lambda: PEConfig(kind=PEKind.ROPE, lam=2),
    "GeneratorResiduals": lambda: GeneratorResiduals(0.0, 1e-15, 2e-16),
    "SmoothnessReport": lambda: SmoothnessReport(0.5, 1.0, 0.5),
}


@pytest.mark.parametrize("make", _ARRAY_HOLDERS.values(), ids=_ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2


def test_schedules_of_different_lengths_differ():
    assert FrequencySchedule([1.0]) != FrequencySchedule([1.0, 2.0])


@pytest.mark.parametrize("make", _VALUES.values(), ids=_VALUES)
def test_value_types_compare_by_value(make):
    a, b = make(), make()
    assert a == b and a is not b
    assert len({a, b}) == 1
