"""The package's imports: each is used, only the oracle loads SciPy, and
only the array modules load NumPy when imported.

No linter runs on the package or its scripts, so the first check stands
in for the unused-import rule: a deletion that leaves an import behind
fails here.
It reads each import in its own scope, so a stale import in one function
is found even where another function reads the same name.  `__init__.py`
is exempt, because its imports are the names it exports.

SciPy is the largest cost of a cold start.  Only `ptspec.oracle` may
import it, and from it only `scipy.linalg`, at module level; every other
module, eigenfunction normalization included, runs without it.  The
import checks run in fresh interpreters, so that nothing this test
session has loaded counts.

NumPy is imported at module level only by `oracle` and `wavefunctions`;
the other modules import it inside the functions that take or build
arrays, so that `spectrum` and `trace` run without it.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ptspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _with_scopes(node, scopes=()):
    """Every node below node, with the chain of functions that encloses it."""
    for child in ast.iter_child_nodes(node):
        yield child, scopes
        yield from _with_scopes(child, scopes + (child,) if isinstance(child, _SCOPES) else scopes)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source and never read in its scope.

    A module-level import may be read anywhere in the module; an import
    inside a function only inside that function, nested functions included.
    A read counts for the innermost enclosing import of its name, so one
    function's read does not cover another's import.  Names bound in a
    function are reported as function.name.
    """
    nodes = list(_with_scopes(ast.parse(source)))
    used = {}  # (scope chain, name) -> read
    for node, scopes in nodes:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        used.update(((scopes, name), False) for name in names)
    for node, scopes in nodes:
        if isinstance(node, ast.Name):
            for depth in range(len(scopes), -1, -1):
                if (scopes[:depth], node.id) in used:
                    used[scopes[:depth], node.id] = True
                    break
    return sorted(
        ".".join([getattr(f, "name", "<lambda>") for f in scopes] + [name])
        for (scopes, name), read in used.items()
        if not read
    )


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import spectra\nfrom .x import a, b\nnp.ones(a)\n"
    assert unused_imports(source) == ["b", "os", "spectra"]


def test_the_check_reads_each_function_import_in_its_own_function():
    # a module-wide check passes this: g reads np, so f's stale import hid
    source = (
        "import math\n"
        "def f(x):\n    import numpy as np\n    return x\n"
        "def g(x):\n    import numpy as np\n    def h():\n        return np.sin(x)\n    return h\n"
        "def k(x):\n    import math\n    return math.cos(x)\n"
    )
    assert unused_imports(source) == ["f.np", "math"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
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


def _import_sites(top: str) -> list[tuple[str, bool]]:
    """(file, at module level) of every statement that imports package top."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in mods):
                found.append((path.name, node in tree.body))
    return found


def test_scipy_is_imported_at_module_level_of_the_oracle_only():
    # a deferred import would move the cost into the first timed call
    assert _import_sites("scipy") == [("oracle.py", True)]


def test_numpy_is_imported_at_module_level_of_the_array_modules_only():
    # elsewhere it is imported in the functions that take or build arrays,
    # so that a cold `spectrum` or `trace` loads no NumPy
    at_top = {name for name, top in _import_sites("numpy") if top}
    assert at_top == {"oracle.py", "wavefunctions.py"}
