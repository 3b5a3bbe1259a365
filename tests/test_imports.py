"""The package's imports: each is used, only the oracle loads SciPy, and
only the array modules load NumPy when imported.

No linter runs on the package, its scripts or its tests, so the first
check stands in for the unused-import rule on all three: a deletion that
leaves an import behind fails here.  A second stands in for the rule against broad handlers: no
`except Exception`, `except BaseException` or bare `except:` in either,
so that a bug cannot pass for an expected failure.  The benchmark under
`perfbench/` is not checked; it catches every exception of an op on
purpose, to record it as a failed op.
It reads each import in its own scope, so a stale import in one function
is found even where another function reads the same name.  `__init__.py`
is exempt, because its imports are the names it exports.  A third stands
in for the dead-code rule: every module-level function, class and
constant of the package and its scripts is read somewhere in `src`,
`scripts`, `tests` or `perfbench`, so a deletion that leaves a definition
behind fails here.  A fourth keeps each variant rule on the family table:
no module but `families.py` compares anything with `Variant.PT`,
`Variant.QDeformedPT` or `Variant.NonPT`, so a rule that tells those
variants apart is looked up there (a `Base` scope check, and a table that
names a variant without comparing, are allowed).

SciPy is the largest cost of a cold start.  Only `ptspec.oracle` may
load it, and from it only the LAPACK extension `scipy.linalg._flapack`,
from its file, with no SciPy package's `__init__`; every other module,
eigenfunction normalization included, runs without it.  No module names
a SciPy module but the oracle's loader, whose one import statement is the
fallback for a file that does not load.  The import checks run in fresh
interpreters, so that nothing this test session has loaded counts.  The
LAPACK routines the oracle takes from that extension are exactly those its
module docstring and the README name.

NumPy is imported at module level only by `oracle` and `wavefunctions`;
the other modules import it inside the functions that take or build
arrays, so that `spectrum` and `trace` run without it.  No module imports
`dataclasses`: every record is a NamedTuple.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ptspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
READERS = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


_BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[int]:
    """Lines of the handlers of source that catch Exception or
    BaseException, alone or in a tuple, or everything (a bare except)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in caught if c is not None}
        if node.type is None or names & _BROAD:
            lines.append(node.lineno)
    return lines


def test_the_check_finds_a_broad_handler():
    source = (
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, builtins.BaseException) as err:\n    pass\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\nexcept ExceptionGroup:\n    pass\n"
    )
    assert broad_handlers(source) == [3, 7, 11]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_broad_exception_handler(path):
    assert broad_handlers(path.read_text()) == []


def module_level_names(source: str) -> list[str]:
    """The functions, classes and constants that source binds at module
    level.  Imports bind no name of the module's own, and dunder names are
    read by the interpreter."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Every name that source reads: a loaded name, an attribute, a name
    imported from a module, or a string that spells it (getattr,
    monkeypatch and the benchmark's tracer look a name up by its string)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread_names(defining: dict[str, str], readers: list[str]) -> list[str]:
    """file:name for each module-level name of the defining sources (file
    -> source) that no reader reads."""
    read = set().union(*(read_names(source) for source in readers))
    return sorted(f"{path}:{name}" for path, source in defining.items() for name in module_level_names(source) if name not in read)


def test_the_check_finds_an_unread_name():
    module = (
        "import os\n__all__ = []\n_TOL: float = 1e-9\nX, (Y, Z) = 1, (2, 3)\n"
        "class ReducedParams:\n    eps: complex\n"
        "def _helper():\n    return _TOL\n"
        "def f():\n    return X\n"
    )
    reader = "from m import f\nimport m\nm.Y\ngetattr(m, 'Z')\n"
    assert unread_names({"m.py": module}, [module, reader]) == ["m.py:ReducedParams", "m.py:_helper"]


def test_every_module_level_name_is_read():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in [PACKAGE / "__init__.py", *MODULES, *SCRIPTS]}
    assert unread_names(defining, [p.read_text() for p in READERS]) == []


_RULED = {"PT", "QDeformedPT", "NonPT"}


def variant_comparisons(source: str) -> list[int]:
    """Lines of the comparisons of source with Variant.PT, QDeformedPT or
    NonPT, alone or in a tuple, list or set."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        items = [i for o in operands for i in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
        named = {i.attr for i in items if isinstance(i, ast.Attribute) and getattr(i.value, "id", None) == "Variant"}
        if named & _RULED:
            lines.append(node.lineno)
    return lines


def test_the_check_finds_a_variant_comparison():
    source = (
        "if spec.variant is not Variant.NonPT:\n    pass\n"
        "base = spec.variant is Variant.Base\n"
        "x = v in (Variant.Base, Variant.QDeformedPT)\n"
        "y = dict(variant=Variant.PT)\n"
        "z = Variant.PT == v\n"
    )
    assert variant_comparisons(source) == [1, 4, 6]


@pytest.mark.parametrize("path", [p for p in MODULES + SCRIPTS if p.name != "families.py"], ids=lambda p: p.name)
def test_variant_rules_are_read_from_the_family_table(path):
    assert variant_comparisons(path.read_text()) == []


_LOADED_SCIPY = """
import pkgutil, sys
import ptspec
names = [m.name for m in pkgutil.iter_modules(ptspec.__path__) if m.name != "oracle"]
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


def test_only_the_oracle_loads_scipy():
    # a fresh interpreter imports every module but the oracle and
    # normalizes trig A=-2, n=1
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.split("\n")[:2]
    assert sorted(names.split()) == sorted(p.stem for p in MODULES if p.stem != "oracle")
    assert loaded.split() == []


_COLD_VERIFY = """
import contextlib, io, sys
import numpy as np
import ptspec.cli
from ptspec import oracle
argvs = (["--family", "trig-scarf", "--A", "-2", "--N", "400"], ["--preset", "fig7", "--N", "200"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ptspec.cli.main(["verify", *argv]) for argv in argvs]
print(" ".join(map(str, codes)))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))))
import scipy.linalg
d, e = np.linspace(-1.0, 1.0, 60), np.full(59, 0.5)
want = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
print(oracle._sterf(d, e).tobytes() == want.tobytes(), scipy.linalg._flapack.dsterf is not None)
"""


def test_a_cold_verify_loads_no_scipy_linalg():
    # the oracle loads SciPy's LAPACK extension from its file: no
    # scipy.linalg package, no scipy._lib (which loads numpy.f2py) and no
    # numpy.f2py, real and complex.  Nor numpy.ma, which np.unique loads,
    # 11 ms cold, where every residual bound holds.  A later `import
    # scipy.linalg` still works, gives the oracle's bits and has its
    # `_flapack` as an attribute
    proc = subprocess.run([sys.executable, "-c", _COLD_VERIFY], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, same = proc.stdout.split("\n")[:3]
    assert codes == "0 2"
    heavy = ("scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.ma")
    assert [m for m in loaded.split() if ".".join(m.split(".")[:2]) in heavy] == []
    assert same == "True True"


def _import_sites(top: str, sources: dict[str, str] | None = None) -> list[tuple[str, bool]]:
    """(file, at module level) of every statement of sources (file name ->
    text; the package's modules by default) that imports package top."""
    if sources is None:
        sources = {path.name: path.read_text() for path in MODULES}
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in mods):
                found.append((name, node in tree.body))
    return found


_SCIPY_NAME = re.compile(r"scipy(\.\w+)*")


def scipy_names(source: str) -> list[tuple[str, str]]:
    """(enclosing function, or "" at module level; module) for each statement
    of source that imports a SciPy module, and each string that is the
    dotted name of one, as importlib and __import__ take it."""
    found = []
    for node, scopes in _with_scopes(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module] if node.level == 0 else []
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _SCIPY_NAME.fullmatch(node.value):
            mods = [node.value]
        else:
            continue
        where = getattr(scopes[-1], "name", "<lambda>") if scopes else ""
        found += [(where, m) for m in mods if m.split(".")[0] == "scipy"]
    return found


def test_the_check_finds_a_scipy_name():
    source = (
        "import scipy.linalg\n"
        "def f():\n    from scipy.sparse import csr_matrix\n    return importlib.import_module('scipy.fft')\n"
        "g = lambda: __import__('scipy')\n"
        "from .scipy import x\ndoc = 'see scipy.linalg.solve'\n"
    )
    assert scipy_names(source) == [("", "scipy.linalg"), ("f", "scipy.sparse"), ("f", "scipy.fft"), ("<lambda>", "scipy")]


def lapack_calls(source: str) -> set[str]:
    """The routines that source takes from a module it names `_flapack`,
    alone or as an attribute: `_flapack.dgtsv` or `oracle._flapack.dgtsv`."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and "_flapack" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    }


def lapack_names(text: str, routines) -> set[str]:
    """The words of text in backticks that are among routines."""
    return set(re.findall(r"`(\w+)`", text)) & set(routines)


def test_the_check_finds_each_lapack_routine():
    source = "x = _flapack.dgtsv(a)\ny = oracle._flapack.zgtsv\nz = np.linalg.norm(v)\nw = lapack.dsterf\n"
    assert lapack_calls(source) == {"dgtsv", "zgtsv"}
    text = "It calls `dgtsv`, `zgtsv` and `norm`, but not dstebz."
    assert lapack_names(text, {"dgtsv", "zgtsv", "dstebz", "dsterf"}) == {"dgtsv", "zgtsv"}


def test_the_oracle_names_the_lapack_routines_it_calls():
    # the routines the oracle takes from SciPy's LAPACK extension are those
    # that its module docstring and the README name, no more and no fewer
    from ptspec import oracle

    source = (PACKAGE / "oracle.py").read_text()
    routines = [name for name in dir(oracle._flapack) if not name.startswith("_")]
    called = lapack_calls(source)
    assert called == {"dsterf", "dstebz", "dgtsv", "zgtsv"}
    assert lapack_names(ast.get_docstring(ast.parse(source)), routines) == called
    assert lapack_names((ROOT / "README.md").read_text(), routines) == called


def test_only_the_oracle_loader_names_scipy():
    # the loader finds the `scipy` package, which it does not import, and
    # loads `scipy.linalg._flapack` from its file.  Its fallback, for a file
    # that does not load, is the one SciPy import statement: a deferred
    # one, but it runs as the oracle is imported, not in a timed call.  An
    # import of scipy.linalg, or of any other SciPy package, runs that
    # package's __init__, 0.2 s cold for scipy.linalg
    found = {path.name: sorted(scipy_names(path.read_text())) for path in MODULES}
    assert {name: sites for name, sites in found.items() if sites} == {
        "oracle.py": [("", "scipy.linalg._flapack"), ("_flapack_from_file", "scipy"), ("_load_flapack", "scipy.linalg")]
    }


def test_numpy_is_imported_at_module_level_of_the_array_modules_only():
    # elsewhere it is imported in the functions that take or build arrays,
    # so that a cold `spectrum` or `trace` loads no NumPy
    at_top = {name for name, top in _import_sites("numpy") if top}
    assert at_top == {"oracle.py", "wavefunctions.py"}


def test_the_check_finds_a_dataclasses_import():
    sources = {
        "a.py": "from dataclasses import dataclass, replace\n",
        "b.py": "import typing\ndef f():\n    import dataclasses\n    return dataclasses\n",
        "c.py": "from typing import NamedTuple\nfrom .records import dataclasses\n",
    }
    assert _import_sites("dataclasses", sources) == [("a.py", True), ("b.py", False)]


def test_no_module_imports_dataclasses():
    # every record is a NamedTuple; `dataclasses` would bring `inspect`,
    # `ast`, `dis` and `tokenize` into a cold `spectrum` or `trace`
    sources = {path.name: path.read_text() for path in MODULES + SCRIPTS}
    assert _import_sites("dataclasses", sources) == []
    assert _import_sites("inspect", sources) == []
