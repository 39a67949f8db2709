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
``attention._softmax_rows_shifted``, its one exception; and every public
function is decorated with ``@_raising()`` unless it is one of the named
exemptions, which do no arithmetic on values the caller supplies.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import rollpe

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


# public functions that run without the policy: a permutation, constants built
# from n alone, a table of finite positions, and a search that draws its own inputs
_UNRAISING = {
    "roll_discrete",
    "shift_matrix",
    "dft_matrix",
    "branch_angles",
    "log_shift_generator",
    "classic_schedule",
    "realified_fourier_basis",
    "sinusoidal_ape",
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
