"""Every name a module of the package imports is used in that module.

No linter runs on the package, so this check stands in for the
unused-import rule: a deletion that leaves an import behind fails here.
`__init__.py` is exempt, because its imports are the names it exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ptspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import spectra\nfrom .x import a, b\nnp.ones(a)\n"
    assert unused_imports(source) == ["b", "os", "spectra"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
