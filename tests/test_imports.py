"""The package's imports: each is used, and only the oracle loads SciPy.

No linter runs on the package, so the first check stands in for the
unused-import rule: a deletion that leaves an import behind fails here.
`__init__.py` is exempt, because its imports are the names it exports.

SciPy is the largest cost of a cold start.  Only `ptspec.oracle` may
import it, and from it only `scipy.linalg`, at module level; every other
module, eigenfunction normalization included, runs without it.  The
import checks run in fresh interpreters, so that nothing this test
session has loaded counts.
"""

from __future__ import annotations

import ast
import subprocess
import sys
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


_LOADED_SCIPY = """
import pkgutil, sys
import ptspec
names = [m.name for m in pkgutil.iter_modules(ptspec.__path__) if {with_oracle} or m.name != "oracle"]
for name in names:
    __import__("ptspec." + name)
from ptspec import nu_engine, wavefunctions
from ptspec.potentials import Family, PotentialSpec, default_domain
spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
_, trace = nu_engine.solve_level(spec, 1)
wf = wavefunctions.normalize(wavefunctions.assemble(spec, trace, 1), default_domain(spec))
assert wf.norm_constant != 1.0
print(" ".join(sorted(names)))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _loaded_scipy(with_oracle: bool) -> tuple[list[str], list[str]]:
    """The package modules imported, and the SciPy modules loaded, by a
    fresh interpreter that imports them and normalizes trig A=-2, n=1."""
    script = _LOADED_SCIPY.format(with_oracle=with_oracle)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.split("\n")[:2]
    return names.split(), loaded.split()


def test_only_the_oracle_loads_scipy():
    names, loaded = _loaded_scipy(with_oracle=False)
    assert sorted(names) == sorted(p.stem for p in MODULES if p.stem != "oracle")
    assert loaded == []


def test_the_oracle_loads_only_scipy_linalg():
    # scipy's core (`scipy`, `scipy.version`, private top-level modules) and
    # `_lib` come with any SciPy import; no other subpackage may load
    names, loaded = _loaded_scipy(with_oracle=True)
    assert "oracle" in names
    assert "scipy.linalg" in loaded
    subpackages = {m.split(".")[1] for m in loaded if "." in m}
    assert {s for s in subpackages if s not in ("linalg", "version") and not s.startswith("_")} == set()


def test_scipy_is_imported_at_module_level_of_the_oracle_only():
    # a deferred import would move the cost into the first timed call
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in mods):
                found.append((path.name, id(node) in top))
    assert found == [("oracle.py", True)]
