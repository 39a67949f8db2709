"""Every name a library module imports is used, and every name it exports exists.

No linter ships with the project, so this is the unused-import check:
an import left behind by a refactor fails here.  ``__init__.py`` is
skipped, since it imports names only to re-export them.  The export
check covers ``rollpe`` and each of its modules: a deleted name left in
an ``__all__`` fails here.  ``rollpe`` star-imports every module but
``cli``, so a name in two module lists would be shadowed silently: the
lists must be disjoint, and the package must export exactly their union,
each name bound to the object its module defines.  The dead-helper check covers every
module-level private name (``_name``, dunders aside) defined in the
package: one that no module refers to besides its definition, such as a
helper a refactor left behind, fails here.

The floating-point policy is guarded here too: ``np.errstate`` is named
only by ``roll_core._raising``, the policy, and by
``attention._softmax_rows_shifted``, its one exception; no ``ValueError``
reports an overflow, which is the policy's to raise; every public
function is decorated with ``@_raising()`` unless it is one of the named
exemptions; and an exemption holds only while the function raises no
floating-point flag on any input it accepts, which a table of edge inputs
run under ``np.errstate(all="raise")`` checks.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import rollpe
from rollpe import (
    SpectralBranch,
    branch_angles,
    classic_schedule,
    dft_matrix,
    equivariance_violation_witness,
    log_shift_generator,
    realified_fourier_basis,
    roll_discrete,
    shift_matrix,
)

MODULES = sorted(p for p in Path(rollpe.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert sorted(_unused_imports(path.read_text())) == []


def test_a_leftover_import_is_caught():
    source = (
        "import numpy as np\n"
        "from .roll_core import roll_discrete, shift_matrix\n"
        "roll_discrete(None, 0)\n"
    )
    assert _unused_imports(source) == {"np", "shift_matrix"}


@pytest.mark.parametrize("module", ["rollpe"] + [f"rollpe.{p.stem}" for p in MODULES])
def test_every_export_resolves(module):
    """A name in ``__all__`` that the module lacks breaks ``from rollpe import *``."""
    module = importlib.import_module(module)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_the_disjoint_union_of_module_exports():
    owners = {}
    for stem in (p.stem for p in MODULES if p.stem != "cli"):
        module = importlib.import_module(f"rollpe.{stem}")
        for name in module.__all__:
            assert name not in owners, f"{name} is exported by {owners[name]} and {stem}"
            owners[name] = stem
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, f"{stem} exports {name} from elsewhere"
            assert getattr(rollpe, name) is obj, name
    assert rollpe.__all__ == sorted(owners)


def _dead_helpers(sources: list) -> set:
    """Module-level private names defined in ``sources`` that none of them refers to."""
    defined, used = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return private - used


def test_every_private_helper_is_used():
    package = sorted(Path(rollpe.__file__).parent.glob("*.py"))
    assert sorted(_dead_helpers([path.read_text() for path in package])) == []


def test_an_orphaned_helper_is_caught():
    helpers = (
        "_LIMIT = 3\n"
        "def _used(x):\n    return x < _LIMIT\n"
        "def _orphan(x):\n    return _used(x)\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    caller = "from .helpers import _used\n_used(1)\n"
    assert _dead_helpers([helpers, caller]) == {"_orphan"}
    assert _dead_helpers([helpers]) == {"_orphan"}


def _errstate_owners(path: Path) -> set:
    """(module, top-level definition) pairs whose source names ``errstate``."""
    owners = set()
    for node in ast.parse(path.read_text()).body:
        names = {getattr(sub, "attr", getattr(sub, "id", None)) for sub in ast.walk(node)}
        if "errstate" in names:
            targets = getattr(node, "targets", [node])
            owners.update((path.stem, getattr(t, "name", getattr(t, "id", None))) for t in targets)
    return owners


def test_errstate_is_named_only_by_the_policy_and_its_exception():
    owners = set().union(*map(_errstate_owners, MODULES))
    assert owners == {("roll_core", "_raising"), ("attention", "_softmax_rows_shifted")}


def _overflow_value_errors(source: str) -> list:
    """Line numbers of ``raise ValueError(...)`` whose message mentions an overflow."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        call = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError":
            # a plain string, or the literal parts of an f-string
            text = " ".join(
                sub.value for arg in call.args for sub in ast.walk(arg)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
            if "overflow" in text.lower():
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_value_error_reports_an_overflow(path):
    """An overflow from accepted arguments is the policy's ``FloatingPointError``;
    a ``ValueError`` is for a bad argument, so none may be a hand-written overflow bound."""
    assert _overflow_value_errors(path.read_text()) == []


def test_an_overflow_value_error_is_caught():
    source = (
        "def f(x, y):\n"
        "    if x > 1:\n        raise ValueError('x must be at most 1')\n"
        "    if not isfinite(x * y):\n"
        "        raise ValueError(f'{x!r} * {y!r} overflows')\n"
        "    raise FloatingPointError('overflow')\n"
    )
    assert _overflow_value_errors(source) == [5]


# public functions that run without the policy, since they raise no floating-point
# flag on any input they accept: a permutation, constants built from n alone, and
# a search that draws its own inputs
_UNRAISING = {
    "roll_discrete",
    "shift_matrix",
    "dft_matrix",
    "branch_angles",
    "log_shift_generator",
    "classic_schedule",
    "realified_fourier_basis",
    "equivariance_violation_witness",
}


def _raising_functions(path: Path) -> set:
    """Top-level functions of ``path`` decorated with ``@_raising()``."""
    return {
        node.name for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_raising"
            for d in node.decorator_list
        )
    }


def test_every_public_function_runs_under_the_policy_or_is_exempt():
    raising = set().union(*map(_raising_functions, MODULES))
    functions = {name for name in rollpe.__all__ if inspect.isfunction(getattr(rollpe, name))}
    assert sorted(functions - raising) == sorted(_UNRAISING)
    # the private cores stay bare, so attend enters the error state once a call
    assert raising <= functions


_NAN, _INF = float("nan"), float("inf")
# a stack of non-finite rows, which a permutation moves like any other
_NON_FINITE = np.array([[_NAN, 1.0, -_INF], [_INF, -0.0, 5e-324]])
# lengths of one, of both parities and past 256, on both branches
_LENGTHS = (1, 2, 3, 256, 257)
_BRANCHED = [(n, branch) for n in _LENGTHS for branch in SpectralBranch]

# edge inputs of every exempt function, each of which it accepts
_EDGES = {
    "roll_discrete": [
        lambda: roll_discrete([_NAN, 1.0, -_INF, _INF], 2**70 + 1),
        lambda: roll_discrete(_NON_FINITE, [2**70 + 1, -(2**70)]),
        lambda: roll_discrete(_NON_FINITE, np.array([2.0**60, -3.0])),
        lambda: roll_discrete(np.asfortranarray(_NON_FINITE), np.array([7, -8], dtype=np.int8)),
        lambda: roll_discrete(np.stack([_NON_FINITE] * 2)[..., ::-1], [-1, 1]),
    ],
    "shift_matrix": [lambda n=n: shift_matrix(n, 2**70 + 1) for n in _LENGTHS],
    "dft_matrix": [lambda n=n: dft_matrix(n) for n in _LENGTHS],
    "branch_angles": [lambda n=n, b=b: branch_angles(n, b) for n, b in _BRANCHED],
    "log_shift_generator": [lambda n=n, b=b: log_shift_generator(n, b) for n, b in _BRANCHED],
    "classic_schedule": [lambda n=n: classic_schedule(n) for n in (2, 256)],
    "realified_fourier_basis": [lambda n=n: realified_fourier_basis(n) for n in _LENGTHS],
    "equivariance_violation_witness": [
        lambda: equivariance_violation_witness(3, 1, seed=0, budget=40),
        lambda: equivariance_violation_witness(257, 2, seed=7, budget=40),
    ],
}


def test_every_exempt_function_has_edge_inputs():
    assert sorted(_EDGES) == sorted(_UNRAISING)


@pytest.mark.parametrize("name", sorted(_EDGES))
def test_exempt_functions_raise_no_flag_on_edge_inputs(name, monkeypatch):
    """Under a caller that raises on every flag, an exempt function still returns.

    The package's caches are bypassed, so each table is built under that state.
    """
    for module in map(importlib.import_module, [f"rollpe.{p.stem}" for p in MODULES]):
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                monkeypatch.setattr(module, attr, value.__wrapped__)
    with np.errstate(all="raise"):
        for call in _EDGES[name]:
            call()
