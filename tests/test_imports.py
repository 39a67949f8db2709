"""Every name a library module imports is used, and every name it exports exists.

No linter ships with the project, so this is the unused-import check:
an import left behind by a refactor fails here.  ``__init__.py`` is
skipped, since it imports names only to re-export them.  The export
check covers ``rollpe`` and each of its modules: a deleted name left in
an ``__all__`` fails here.
"""

import ast
import importlib
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
