"""What the benchmark under perfbench/ binds of the package, checked without
running it: the tracer wraps functions by module and name, and the
reference maker iterates a whole-grid eigensolve.  A rename of either shows
here rather than in the benchmark's own, slower self-test."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ptspec import oracle
from ptspec.potentials import Family, PotentialSpec, Variant, default_domain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    """perfbench/tracer.py, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    boundaries = _load_tracer().BOUNDARIES
    assert boundaries
    for module_name, attr, _, _ in boundaries:
        assert callable(getattr(importlib.import_module(module_name), attr)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "spec",
    [
        PotentialSpec(family=Family.TrigScarf, A=-2.0),
        PotentialSpec(family=Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1 + 1j, q=1.0),
    ],
    ids=["real", "complex"],
)
def test_the_whole_grid_solve_is_an_array_of_n_eigenvalues(spec):
    # as `make_refs.truth_levels` calls it, and takes the lowest below the
    # threshold in the order it iterates them; the tracer sizes the call by
    # the grid, its first argument, and counts `len` of the result
    H = oracle.discretize(spec, default_domain(spec, L=12.0), 200)
    eigs = oracle.eigen_complex_dense(H, certify=False)
    assert type(eigs) is np.ndarray and eigs.dtype == complex and eigs.shape == (H.N,)
    assert np.all(np.diff(eigs.real) >= 0.0)
