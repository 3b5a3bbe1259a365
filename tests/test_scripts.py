"""Smoke runs of the study scripts under scripts/: each must exit 0.  The
verification matrix's two matches are checked against a whole-grid solve."""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptspec import nu_engine, oracle, spectra
from ptspec.potentials import Family, PotentialSpec, default_domain

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("name,args", [("verify_matrix.py", ("--N", "200"))])
def test_script_runs(name, args, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_match_is_that_of_a_whole_grid_solve(monkeypatch):
    # a row matches the formula and the pipeline levels against one window
    # of the finest grid.  The pipeline's levels here lie past the formula's
    # top, so the window must cover both lists: each match makes the pairs
    # and unmatched levels of a dsterf solve of the whole grid, with
    # eigenvalues within 8 eps ||H||_max
    spec, n_max, L, N = PotentialSpec(family=Family.TrigScarf, A=-2.0), 2, 12.0, 400
    formula = spectra.closed_form_spectrum(spec, n_max).entries
    above = [(n, e + 40.0) for n, e in formula]
    monkeypatch.setattr(nu_engine, "solve_spectrum_numeric", lambda s, n: nu_engine.NumericSpectrum(above, []))
    seen, match = [], oracle.match_levels

    def spy(entries, eigs, threshold):
        seen.append((list(entries), eigs))
        return match(entries, eigs, threshold)

    monkeypatch.setattr(oracle, "match_levels", spy)
    _load_script("verify_matrix.py").run_row("trig", spec, n_max, L, N)
    assert [entries for entries, _ in seen] == [formula, above]
    H = oracle.discretize(spec, default_domain(spec, L=L), N)
    whole = oracle.eigen_complex_dense(H)
    tol = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal))
    for entries, eigs in seen:
        assert len(eigs) < N
        got, fresh = match(entries, eigs, math.inf), match(entries, whole, math.inf)
        assert [p[:2] for p in got.pairs] == [p[:2] for p in fresh.pairs]
        assert got.unmatched_formula == fresh.unmatched_formula
        got_eigs = [p[2] for p in got.pairs] + list(got.unmatched_oracle)
        fresh_eigs = [p[2] for p in fresh.pairs] + list(fresh.unmatched_oracle[: len(got.unmatched_oracle)])
        assert np.max(np.abs(np.subtract(got_eigs, fresh_eigs))) <= tol
    # the window of the formula levels alone would not do
    top, more = oracle._covering_window([e for _, e in formula])
    short = whole[: max(min(4, n_max + 1), int(np.sum(whole.real <= top)) + more)]
    taken = [[p[2] for p in match(above, eigs, math.inf).pairs] for eigs in (short, whole)]
    assert np.max(np.abs(np.subtract(*taken))) > 1.0
