"""Every name a library module imports is used in that module.

No linter ships with the project, so this is the unused-import check:
an import left behind by a refactor fails here.  ``__init__.py`` is
skipped, since it imports names only to re-export them.
"""

import ast
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
    source = "import numpy as np\nfrom .multiplex import MultiplexBank, mproll\nmproll(None, 0)\n"
    assert _unused_imports(source) == {"np", "MultiplexBank"}
