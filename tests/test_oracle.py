import importlib.machinery
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, solve_banded, svdvals
from scipy.optimize import linear_sum_assignment

from ptspec import oracle
from ptspec.cli import _PRESETS, main
from ptspec.errors import QRNotConverged, SingularityError
from ptspec.oracle import (
    ConjugationReport,
    GridHamiltonian,
    LevelMatch,
    conjugation_pair_check,
    continuum_threshold,
    convergence_study,
    discretize,
    eigen_complex_dense,
    match_levels,
)
from ptspec.potentials import DomainKind, DomainSpec, Family, PotentialSpec, Variant, apply_variant, default_domain
from ptspec.spectra import closed_form_spectrum


def box_domain():
    return DomainSpec(DomainKind.FiniteInterval, 0.0, math.pi)


class TestDiscretize:
    def test_box_eigenvalues(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
        H = discretize(spec, box_domain(), 2000)
        eigs = eigen_complex_dense(H)
        target = np.array([(k + 1) ** 2 for k in range(5)], dtype=float)
        rel = np.abs(eigs[:5].real - target) / target
        assert np.max(rel) < 1e-5

    def test_box_eigenvalues_coarser_grid(self):
        # at N=1000 the k=5 mode carries ~2e-5 relative discretization error
        spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
        H = discretize(spec, box_domain(), 1000)
        eigs = eigen_complex_dense(H)
        target = np.array([(k + 1) ** 2 for k in range(5)], dtype=float)
        rel = np.abs(eigs[:5].real - target) / target
        assert np.max(rel) < 3e-5

    def test_diagonal_dominance_limit(self):
        big = 1e7
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, 1.0),
            N=100,
            h=1.0 / 101,
            diagonal=(2.0 * 101**2 + big) * np.ones(100, dtype=complex),
            offdiagonal=-(101.0**2),
        )
        eigs = eigen_complex_dense(H)
        assert abs(eigs[0].real - big) / big < 1e-2

    def test_pole_on_grid_raises(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0)
        dom = DomainSpec(DomainKind.HalfLine, -1.0, 1.0)  # includes x=0 pole region
        with pytest.raises(SingularityError):
            discretize(spec, dom, 99)  # x=0 is the 50th node

    def test_real_matrix_flag(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        H = discretize(spec, box_domain(), 100)
        assert H.is_real
        npt = PotentialSpec(family=Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1.0, q=1.0)
        H2 = discretize(npt, default_domain(npt, L=4.0), 100)
        assert not H2.is_real


def _dense_eigvalsh(H):
    """Test-local reference: the real grid as a dense matrix, through eigvalsh."""
    off = np.full(H.N - 1, H.offdiagonal)
    m = np.diag(H.diagonal.real) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(m).astype(complex)
    return eigs[np.argsort(eigs.real)]


def _dense(H):
    """Test-local reference: the grid as a dense matrix."""
    off = np.full(H.N - 1, H.offdiagonal)
    return np.diag(H.diagonal) + np.diag(off, 1) + np.diag(off, -1)


def _dense_eigvals(H):
    """Test-local reference: the complex grid as a dense matrix, through the
    dense general eigensolver."""
    return np.linalg.eigvals(_dense(H))


# spec, L of default_domain, N
_REAL_GRIDS = {
    "box": (PotentialSpec(family=Family.TrigScarf, A=0.0), 12.0, 1000),
    "trig": (PotentialSpec(family=Family.TrigScarf, A=-2.0), 12.0, 1200),
    "hyp-blind-spot": (PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0), 14.0, 800),
    "mr-deep": (PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), 16.0, 600),
}

# the verify-complex benchmark specs (fig5-type PT and fig7-type non-PT
# Manning-Rosen, non-PT trig Scarf), criterion 5's hyperbolic PT spec, whose
# samples are real at q = 1, and its complex q = 2 form: spec, L of
# default_domain
_HYP_PT = dict(family=Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0)
_VARIANT_GRIDS = {
    "mr-pt": (apply_variant(PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0), Variant.PT), 12.0),
    "mr-nonpt": (PotentialSpec(family=Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1 + 1j, q=1.0), 12.0),
    "trig-nonpt": (PotentialSpec(family=Family.TrigScarf, variant=Variant.NonPT, A=3j, q=2.0), 12.0),
    "hyp-pt-q1": (PotentialSpec(**_HYP_PT, q=1.0), 8.0),
    "hyp-pt-q2": (PotentialSpec(**_HYP_PT, q=2.0), 8.0),
}


def _variant_grid(name, N):
    spec, L = _VARIANT_GRIDS[name]
    return discretize(spec, default_domain(spec, L=L), N)


def _window(H, lowest=None, below=-math.inf, more=0, energies=()):
    """The window of grid H that holds every eigenvalue up to `below`, the
    `more` above those and at least the lowest `lowest`, sized as the
    oracle sizes it."""
    return oracle._size_window(H.diagonal.real, H.offdiagonal, lowest, below, more, energies)


@pytest.fixture
def banded_solves(monkeypatch):
    """The band width, in columns, of each solve_banded call the oracle
    makes: N per eigenvalue checked."""
    widths = []
    solve = oracle.solve_banded

    def counted(d, b, shifts, rhs):
        widths.append(len(shifts) * len(d))
        return solve(d, b, shifts, rhs)

    monkeypatch.setattr(oracle, "solve_banded", counted)
    return widths


class TestEigenSolver:
    def _manual(self, diag, off):
        n = len(diag)
        return GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, float(n + 1)),
            N=n,
            h=1.0,
            diagonal=np.asarray(diag, dtype=complex),
            offdiagonal=off,
        )

    def test_diagonal_case(self):
        H = self._manual([1.0, 2.0 + 1j, 3.0], 0.0)
        eigs = eigen_complex_dense(H, certify=False)
        assert sorted(np.round(eigs, 12), key=lambda z: z.real) == [1, 2 + 1j, 3]

    def test_discrete_laplacian_closed_form(self):
        n = 200
        H = self._manual(np.full(n, 2.0), -1.0)
        eigs = eigen_complex_dense(H).real
        ref = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
        assert np.max(np.abs(eigs - ref)) < 1e-10

    def test_pt_type_matrix_closed_under_conjugation(self):
        # complex symmetric tridiagonal with PT structure: d_j = conj(d_{N+1-j})
        diag = [1 + 0.5j, 2 - 0.25j, 2 + 0.25j, 1 - 0.5j]
        H = self._manual(diag, -1.0)
        eigs = eigen_complex_dense(H, certify=False)
        # independent check: characteristic polynomial by the tridiagonal
        # recurrence, roots via the companion matrix
        import numpy.polynomial.polynomial as npoly

        p_prev = np.array([1.0 + 0j])  # p_0 = 1
        p = np.array([diag[0], -1.0])  # p_1 = d_1 - x
        for d in diag[1:]:
            term1 = npoly.polymul(np.array([d, -1.0]), p)
            term2 = npoly.polymul(np.array([-1.0 * 1.0]), p_prev)  # -off^2 p_{k-2}
            p_prev, p = p, npoly.polyadd(term1, term2 * 1.0)
        roots = np.roots(p[::-1])
        for lam in eigs:
            assert min(abs(lam - r) for r in roots) < 1e-9
        rep = conjugation_pair_check(eigs, tol=1e-9)
        assert rep.closed

    def test_residual_certification_runs(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        H = discretize(spec, box_domain(), 200)
        eigen_complex_dense(H, certify=True)

    @pytest.mark.parametrize("name", sorted(_REAL_GRIDS))
    def test_real_grid_matches_dense_eigvalsh_bitwise(self, name):
        # dsterf on the tridiagonal is what dense eigvalsh (dsyevd) runs
        # after its reduction, which leaves a tridiagonal matrix as it is
        spec, L, N = _REAL_GRIDS[name]
        H = discretize(spec, default_domain(spec, L=L), N)
        assert H.is_real
        assert np.array_equal(eigen_complex_dense(H), _dense_eigvalsh(H))

    def test_real_grid_has_no_size_cap(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
        eigs = eigen_complex_dense(discretize(spec, box_domain(), 6001))
        assert len(eigs) == 6001
        assert np.max(np.abs(eigs[:3].real - [1.0, 4.0, 9.0])) < 1e-5

    def test_complex_grid_has_no_size_cap(self):
        # a constant diagonal c has the shifted discrete-Laplacian spectrum
        # c - 2 cos(j pi/(N+1))
        n = 6001
        eigs = eigen_complex_dense(self._manual(np.full(n, 2.0 + 0.5j), -1.0), certify=False)
        ref = 2.0 + 0.5j - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
        assert np.max(np.abs(eigs - ref)) < 1e-13

    @pytest.mark.parametrize("name", sorted(_VARIANT_GRIDS))
    def test_grid_matches_dense_eigvals(self, name):
        H = _variant_grid(name, 400)
        assert H.is_real == (name == "hyp-pt-q1")
        eigs, ref = eigen_complex_dense(H), _dense_eigvals(H)
        rows, cols = linear_sum_assignment(np.abs(eigs[:, None] - ref[None, :]))
        err = np.abs(eigs[rows] - ref[cols]) / np.maximum(1.0, np.abs(ref[cols]))
        assert np.max(err) < 1e-10

    def test_certification_covers_every_complex_eigenvalue(self):
        H = _variant_grid("mr-nonpt", 200)
        eigs = eigen_complex_dense(H, certify=False)
        trace_bounds = TestTraceCertification()._trace_bounds
        oracle._certify(H, eigs, trace_bounds(H, eigs))
        # the lowest eigenvalue that is not one of the five witnesses, moved
        # 100 times the residual bound off
        eigs[5] += 100.0 * oracle._RESIDUAL_BOUND * _norm_max(H)
        with pytest.raises(QRNotConverged, match="residual certification"):
            oracle._certify(H, eigs, trace_bounds(H, eigs))

    @pytest.mark.parametrize("i", [0, 4])
    def test_a_whole_real_grid_refuses_a_wrong_lowest_eigenvalue(self, i):
        # a real grid solved by dsterf hands over no bound, so its lowest
        # five are its whole certification, n = 0 among them
        H = _variant_grid("hyp-pt-q1", 800)
        eigs = eigen_complex_dense(H, certify=False)
        assert len(eigs) == H.N
        oracle._certify(H, eigs, None)
        eigs[i] += 100.0 * oracle._RESIDUAL_BOUND * _norm_max(H)
        with pytest.raises(QRNotConverged, match="residual certification"):
            oracle._certify(H, eigs, None)

    def test_complex_solve_allocates_no_dense_matrix(self):
        # a dense N=6000 complex matrix alone is 576 MB
        H = self._manual(np.full(6000, 2.0 + 0.5j), -1.0)
        tracemalloc.start()
        try:
            eigen_complex_dense(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_exhausted_sweep_budget_raises(self, monkeypatch):
        # this grid takes 4 sweeps
        monkeypatch.setattr(oracle, "_ABERTH_SWEEPS", 2)
        with pytest.raises(QRNotConverged, match="unconverged after 2 sweeps"):
            eigen_complex_dense(_variant_grid("mr-nonpt", 200), certify=False)

    def test_real_solve_allocates_no_dense_matrix(self):
        # a dense N=6000 float matrix alone is 288 MB
        H = discretize(PotentialSpec(family=Family.TrigScarf, A=-2.0), box_domain(), 6000)
        tracemalloc.start()
        try:
            eigen_complex_dense(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


@pytest.fixture
def aberth_calls(monkeypatch):
    """The evaluations one Aberth solve makes: ("sweep", roots) per
    `_newton_ratios` call, ("start", values) per `_log_derivative` call
    along a direction w, which only the start makes, and ("recurrence",
    values) or ("reduction", values) per kernel pass with no pivot check,
    each evaluation's first."""
    calls = []
    ratios, log_derivative = oracle._newton_ratios, oracle._log_derivative

    def counted_ratios(d, b2, z, tiny):
        calls.append(("sweep", len(z)))
        return ratios(d, b2, z, tiny)

    def counted_log_derivative(d, b2, z, tiny, w=None):
        if w is not None:
            calls.append(("start", len(z)))
        return log_derivative(d, b2, z, tiny, w)

    def counted(kind, kernel):
        def run(d, w, b2, z, tiny):
            if tiny is None:
                calls.append((kind, len(z)))
            return kernel(d, w, b2, z, tiny)

        return run

    monkeypatch.setattr(oracle, "_newton_ratios", counted_ratios)
    monkeypatch.setattr(oracle, "_log_derivative", counted_log_derivative)
    for kind in ("recurrence", "reduction"):
        monkeypatch.setattr(oracle, f"_{kind}_sum", counted(kind, getattr(oracle, f"_{kind}_sum")))
    return calls


def _diagonal_ulp(d, b):
    return np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * abs(b))


class TestAberthStart:
    @pytest.mark.parametrize("name", sorted(k for k in _VARIANT_GRIDS if k != "hyp-pt-q1"))
    def test_start_is_the_first_order_eigenvalue(self, name):
        # mu_j + i v_j^T diag(Im d) v_j, with the eigenvectors v_j of the
        # real part from LAPACK's tridiagonal eigenvector solver
        H = _variant_grid(name, 400)
        d, b = H.diagonal, H.offdiagonal
        start = oracle._aberth_start(d, b, _diagonal_ulp(d, b))
        mu, v = eigh_tridiagonal(d.real, np.full(H.N - 1, b))
        assert np.array_equal(start.real, eigvalsh_tridiagonal(d.real, np.full(H.N - 1, b), lapack_driver="sterf"))
        assert np.max(np.abs(start.imag - (v**2).T @ d.imag)) < 1e-10 * np.max(np.abs(d.imag))

    def test_a_diagonal_start_is_the_diagonal(self, aberth_calls):
        # b = 0: every mu_j = Re d_j meets the zero pivot of its own row, and
        # the start is d_j up to the guard's first-order term, tiny times
        # sum_k (Im d_k - Im d_j)/(Re d_k - Re d_j): rounding on separated
        # entries, where Aberth stops after one sweep
        k = np.arange(200.0)
        d = k**2 + 1j * np.cos(k)
        ulp = _diagonal_ulp(d, 0.0)
        assert np.max(np.abs(oracle._aberth_start(d, 0.0, ulp) - d)) <= 2.0 * ulp
        assert np.max(np.abs(oracle._aberth(d, 0.0)[0] - d)) <= 2.0 * ulp
        assert [c for c in aberth_calls if c[0] == "sweep"] == [("sweep", 200)]
        # on close entries the term is larger, and the start stays within it
        rng = np.random.default_rng(1)
        d = np.sort(rng.standard_normal(100)) + 1j * rng.standard_normal(100)
        ulp = _diagonal_ulp(d, 0.0)
        gaps = d.real[:, None] - d.real[None, :]
        np.fill_diagonal(gaps, np.inf)
        term = ulp * np.sum(np.abs(d.imag[:, None] - d.imag[None, :]) / np.abs(gaps), axis=1)
        assert np.all(np.abs(oracle._aberth_start(d, 0.0, ulp) - d) <= 2.0 * term + 2.0 * ulp)

    def test_shifted_laplacian_start_is_finite(self):
        # a constant diagonal c: its row pivots meet exact zeros, such as
        # (1 - mu) - 1/r_0 at mu = 1, and every c_j is Im c
        n = 800
        d = np.full(n, 2.0 + 0.5j)
        ref = 2.0 + 0.5j - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
        start = oracle._aberth_start(d, -1.0, _diagonal_ulp(d, -1.0))
        assert np.all(np.isfinite(start))
        assert np.max(np.abs(start - ref)) < 1e-13
        eigs, _ = oracle._aberth(d, -1.0)
        assert np.max(np.abs(eigs[np.argsort(eigs.real)] - ref)) < 1e-13

    def test_a_start_that_is_not_finite_takes_the_mean(self):
        # a NaN tiny makes every c_j of a diagonal NaN
        rng = np.random.default_rng(2)
        d = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        start = oracle._aberth_start(d, 0.0, math.nan)
        assert np.array_equal(start, np.sort(d.real) + 1j * np.mean(d.imag))

    @pytest.mark.parametrize(
        "name, sweeps, full",
        [
            # the dsterf-on-Re(d) start moved by i mean(Im d) took 54 sweeps,
            # 32 of them on the full recurrence, on the fig5-type grid, and
            # 7 (3) and 6 (3) on the other two
            ("mr-pt", 40, 12),
            ("mr-nonpt", 7, 3),
            ("trig-nonpt", 6, 3),
        ],
    )
    def test_sweep_counts(self, name, sweeps, full, aberth_calls):
        H = _variant_grid(name, 400)
        oracle._aberth(H.diagonal, H.offdiagonal)
        kinds = [kind for kind, _ in aberth_calls]
        assert kinds.count("start") == 1
        assert kinds.count("sweep") <= sweeps
        # a sweep's first kernel pass is the entry after it
        assert sum(kind == "recurrence" for prev, kind in zip(kinds, kinds[1:]) if prev == "sweep") <= full


@pytest.fixture
def handed_over(monkeypatch):
    """The eigenvalues and trace bounds each `_certify` call is handed."""
    calls = []
    certify = oracle._certify

    def recorded(H, eigs, trace_bound):
        calls.append((eigs.copy(), None if trace_bound is None else trace_bound.copy()))
        return certify(H, eigs, trace_bound)

    monkeypatch.setattr(oracle, "_certify", recorded)
    return calls


class TestTraceCertification:
    def _trace_bounds(self, H, eigs):
        """N |p/p'| at every eigenvalue, from one recurrence sweep over all."""
        with np.errstate(invalid="ignore"):
            return H.N * np.abs(oracle._newton_ratios(H.diagonal, H.offdiagonal**2, eigs, math.nan)[0])

    @pytest.mark.parametrize("name", sorted(k for k in _VARIANT_GRIDS if k != "hyp-pt-q1"))
    def test_trace_bound_is_above_the_least_singular_value(self, name):
        # sigma_min(T - z) = 1/||G||_2 <= 1/max_r |G_rr| <= N/|tr G| = N |p/p'|
        # for G = (T - z)^-1.  At an eigenvalue both sides are rounding, and
        # svdvals gives sigma_min to a few eps ||T - z||_2 only; 1e-9 ||H||_max
        # off it, near the contract, the bound holds as it stands
        H = _variant_grid(name, 200)
        eigs = eigen_complex_dense(H, certify=False)
        pick = np.random.default_rng(0).choice(H.N, size=20, replace=False)
        T, norm = _dense(H), _norm_max(H)
        off = eigs[pick] + 1e-9 * norm * (1 + 1j)
        for z, bounds, slack in [
            (eigs[pick], self._trace_bounds(H, eigs)[pick], 4.0 * np.finfo(float).eps * (norm + np.abs(eigs[pick]))),
            (off, self._trace_bounds(H, off), 0.0),
        ]:
            sigma = np.array([svdvals(T - lam * np.eye(H.N))[-1] for lam in z])
            assert np.all(bounds >= sigma - slack)

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig7", "trig-nonpt"])
    def test_trace_bound_certifies_every_eigenvalue_of_the_complex_forms(self, name):
        # verify's default --L 12 for the presets
        spec = PotentialSpec(**_PRESETS[name][0]) if name in _PRESETS else _VARIANT_GRIDS[name][0]
        H = discretize(spec, default_domain(spec, L=12.0), 800)
        assert not H.is_real
        bounds = self._trace_bounds(H, eigen_complex_dense(H, certify=False))
        assert np.all(bounds <= oracle._RESIDUAL_BOUND * _norm_max(H))

    @pytest.mark.parametrize("name", sorted(k for k in _VARIANT_GRIDS if k != "hyp-pt-q1"))
    def test_the_handed_over_bound_is_above_the_least_singular_value(self, name, handed_over):
        # N |w| + |step| from each root's last sweep, on the 20 largest bounds
        # and 20 seeded others (an svdvals of each of the N would be most of
        # the suite's time), with the rounding slack of the test above
        H = _variant_grid(name, 200)
        eigen_complex_dense(H)
        [(eigs, bounds)] = handed_over
        assert np.all(np.isfinite(bounds))
        pick = np.union1d(np.argsort(bounds)[-20:], np.random.default_rng(0).choice(H.N, size=20, replace=False))
        T, norm = _dense(H), _norm_max(H)
        sigma = np.array([svdvals(T - lam * np.eye(H.N))[-1] for lam in eigs[pick]])
        assert np.all(bounds[pick] >= sigma - 4.0 * np.finfo(float).eps * (norm + np.abs(eigs[pick])))

    def test_a_zero_pivot_in_the_last_sweep_takes_the_banded_check(self, banded_solves, handed_over):
        # the shifted discrete Laplacian: the last sweeps of 1 + 0.5i and
        # 3 + 0.5i meet an exactly zero pivot, such as (1 - lambda) - 1/r_0
        # in row 1, so these two join the five witnesses, the lowest five
        n = 200
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, n + 1.0),
            N=n, h=1.0, diagonal=np.full(n, 2.0 + 0.5j), offdiagonal=-1.0,
        )
        eigen_complex_dense(H)
        [(eigs, bounds)] = handed_over
        fallback = np.flatnonzero(np.isnan(bounds))
        assert eigs[fallback].tolist() == [1 + 0.5j, 3 + 0.5j]
        assert not np.isin(fallback, np.arange(5)).any()
        assert banded_solves == [(5 + len(fallback)) * n] * 3

    def test_a_certified_solve_evaluates_nothing_after_the_last_sweep(self, aberth_calls):
        # the bounds come with the sweeps: certifying adds no evaluation,
        # to a solve or to the study that certifies its finest grid.  The
        # study asks each grid for a window, as these solves do, and starts
        # the finest from the coarse grid's roots
        spec, L = _VARIANT_GRIDS["mr-nonpt"]
        dom = default_domain(spec, L=L)
        coarse, fine = discretize(spec, dom, 200), discretize(spec, dom, 400)
        windows = [_window(coarse, 6), _window(fine, 6, continuum_threshold(spec))]
        grid_solves, solves = [], []
        for H, window in zip((coarse, fine), windows):
            starts = grid_solves[0].roots if grid_solves else None
            eigen_complex_dense(H, certify=False, window=window, starts=starts, solves=grid_solves)
            solves.append(list(aberth_calls))
            aberth_calls.clear()
        eigen_complex_dense(fine, window=windows[1], starts=grid_solves[0].roots)
        assert aberth_calls == solves[1]
        aberth_calls.clear()
        convergence_study(spec, dom, [200, 400])
        assert aberth_calls == solves[0] + solves[1]

    @pytest.mark.parametrize("name", ["mr-nonpt", "hyp-pt-q1"])
    def test_five_witnesses_take_the_banded_check_when_every_bound_holds(self, name, monkeypatch):
        # a complex grid whose every bound holds, and a whole real grid,
        # which hands over none: each checks its lowest five, no others,
        # in one block of three steps
        shifts = []
        solve = oracle.solve_banded
        monkeypatch.setattr(oracle, "solve_banded", lambda d, b, s, v: shifts.append(s.copy()) or solve(d, b, s, v))
        lowest = eigen_complex_dense(_variant_grid(name, 800))[:5]
        want = lowest + 1e-10 * (1.0 + np.abs(lowest)) * (1 + 1j)
        assert len(shifts) == 3 and all(_same_bits(s, want) for s in shifts)

    def test_zero_pivots_go_to_the_banded_check(self, banded_solves):
        # with b = 0 each eigenvalue d_k meets the zero pivot of row k, so
        # every one is certified by inverse iteration, once
        rng = np.random.default_rng(11)
        d = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, 201.0), N=200, h=1.0, diagonal=d, offdiagonal=0.0
        )
        bounds = self._trace_bounds(H, d)
        assert np.all(np.isnan(bounds))
        oracle._certify(H, d, bounds)
        assert sum(banded_solves) == 3 * H.N * H.N

    def test_a_nan_eigenvalue_is_refused(self):
        H = _variant_grid("mr-nonpt", 200)
        eigs = eigen_complex_dense(H, certify=False)
        eigs[17] = complex(math.nan, 0.0)
        with pytest.raises(QRNotConverged, match="residual certification"):
            oracle._certify(H, eigs, self._trace_bounds(H, eigs))


def _norm_max(H):
    return float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal)


def _sturm_count(d, b, x):
    """How many eigenvalues of the tridiagonal (d, constant b) lie below
    each x: the negative LDL^T pivots of T - x, in long double."""
    r = np.longdouble(d[0]) - np.asarray(x, dtype=np.longdouble)
    count = (r < 0).astype(int)
    b2 = np.longdouble(b) ** 2
    for dk in d[1:]:
        r[r == 0] = np.finfo(np.longdouble).tiny
        r = (np.longdouble(dk) - x) - b2 / r
        count += r < 0
    return count


# finite-threshold real forms: spec, L of default_domain
_THRESHOLD_GRIDS = {
    "hyp-blind-spot": (PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0), 14.0),
    "mr-deep": (PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), 16.0),
    "hyp-v1": (PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=6.0, V2=0.0, q=1.0), 12.0),
    "mr-marginal": (PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0), 16.0),
}


@pytest.fixture
def lapack_drivers(monkeypatch):
    """The LAPACK driver of each real tridiagonal solve the oracle makes:
    "sterf", "stebz", or "gtsv" for a batch of Rayleigh-quotient steps."""
    drivers = []
    lapack = oracle._flapack

    def counted(name):
        def call(*args, **kwargs):
            drivers.append(name[1:])
            return getattr(lapack, name)(*args, **kwargs)

        return call

    routines = SimpleNamespace(
        dsterf=counted("dsterf"), dstebz=counted("dstebz"), dgtsv=counted("dgtsv"), zgtsv=lapack.zgtsv
    )
    monkeypatch.setattr(oracle, "_flapack", routines)
    return drivers


@pytest.fixture
def stebz_calls(monkeypatch):
    """k of each `dstebz` bisection the oracle makes, of the lowest k."""
    calls = []
    stebz = oracle._stebz

    def counted(d, e, k):
        calls.append(k)
        return stebz(d, e, k)

    monkeypatch.setattr(oracle, "_stebz", counted)
    return calls


class TestRealWindow:
    @pytest.mark.parametrize("N", [1000, 2000])
    @pytest.mark.parametrize("name", ["hyp-blind-spot", "mr-deep", "hyp-v1"])
    @pytest.mark.parametrize("lowest", [0, 6])
    def test_window_is_the_below_threshold_spectrum(self, name, N, lowest):
        # the lowest max(lowest, k) values of the full dsterf spectrum, k of
        # them below the threshold
        spec, L = _THRESHOLD_GRIDS[name]
        H = discretize(spec, default_domain(spec, L=L), N)
        below = continuum_threshold(spec)
        full = eigen_complex_dense(H, certify=False)
        win = eigen_complex_dense(H, certify=False, window=_window(H, lowest, below))
        k = int(np.sum(full.real < below))
        assert int(np.sum(win.real < below)) == k and len(win) == max(lowest, k)
        assert np.all(win.imag == 0.0)
        assert np.max(np.abs(win - full[: len(win)]), initial=0.0) <= 8.0 * np.finfo(float).eps * _norm_max(H)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(50, 400),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(-10.0, 10.0).filter(lambda b: b != 0.0),
        where=st.floats(-1.2, 1.2),
        lowest=st.integers(0, 10),
    )
    def test_window_on_random_tridiagonals(self, n, seed, b, where, lowest):
        # dsterf itself can miss an eigenvalue of these by more than
        # 8 eps ||H||_max, so the values are held to the exact spectrum,
        # bracketed by long-double Sturm counts, and the count to dsterf's.
        # Every window that fits in N is bisected here, however wide
        d = np.random.default_rng(seed).uniform(-50.0, 50.0, n)
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, float(n + 1)),
            N=n, h=1.0, diagonal=d.astype(complex), offdiagonal=b,
        )
        below, tol = 50.0 * where, 8.0 * np.finfo(float).eps * _norm_max(H)
        full = eigvalsh_tridiagonal(d, np.full(n - 1, b), lapack_driver="sterf")
        # a threshold within rounding of an eigenvalue may fall on either side
        assume(np.min(np.abs(full - below)) > 2.0 * tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_WINDOW_SHARE", 1)
            win = eigen_complex_dense(H, certify=False, window=_window(H, lowest, below)).real
        k = int(np.sum(full < below))
        assert int(np.sum(win < below)) == k and len(win) == max(lowest, k)
        i = np.arange(len(win))
        assert np.all(_sturm_count(d, b, win - tol) <= i)
        assert np.all(_sturm_count(d, b, win + tol) >= i + 1)

    @pytest.mark.parametrize("name", ["mr-marginal", "mr-deep", "hyp-blind-spot"])
    def test_study_tracks_the_levels_of_a_full_spectrum_study(self, name, monkeypatch):
        # the marginal well has no level below its threshold A = -4, so the
        # study tracks the lowest n_levels of each grid.  Both solves round
        # at the scale of eps ||H||_max, and the extrapolation (4 e2 - e1)/3
        # adds up the two grids' errors with weights 4/3 and 1/3
        spec, L = _THRESHOLD_GRIDS[name]
        dom = default_domain(spec, L=L)
        rep = convergence_study(spec, dom, [1000, 2000])
        # the reference study solves every grid whole
        def whole(H, certify=True, window=None, starts=None, solves=None):
            return eigen_complex_dense(H, certify, solves=solves)

        monkeypatch.setattr(oracle, "eigen_complex_dense", whole)
        ref = oracle.convergence_study(spec, dom, [1000, 2000])
        assert len(rep.levels) == len(ref.levels)
        if name == "mr-marginal":
            assert len(rep.levels) == 6 and not np.any(ref.eigs_finest.real < continuum_threshold(spec))
        tol = 8.0 * np.finfo(float).eps * _norm_max(discretize(spec, dom, 2000))
        for got, want in zip(rep.levels, ref.levels):
            assert abs(got.value_finest - want.value_finest) <= tol
            assert abs(got.extrapolated - want.extrapolated) <= 5.0 / 3.0 * tol
            assert got.flagged == want.flagged

    def test_finite_threshold_verify_makes_no_full_solve(self, lapack_drivers, stebz_calls, capsys):
        # 3 levels lie below the threshold, so the finest window is the
        # lowest 6: the coarse grid bisects those by index, and the finest
        # grid refines them by Rayleigh-quotient steps, with no bisection
        argv = ["verify", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", "--L", "16", "--N", "1000"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["match"]["pairs"]
        assert lapack_drivers[0] == "stebz" and set(lapack_drivers[1:]) == {"gtsv"}
        assert stebz_calls == [6]

    @pytest.mark.parametrize(
        "argv, coarse",
        [
            (("--family", "trig-scarf", "--A", "-2", "--N", "1000"), [22]),
            (
                (
                    "--family", "hyperbolic-scarf", "--variant", "pt",
                    "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1", "--L", "6", "--N", "1000",
                ),
                [],
            ),
        ],
        ids=["trig-base", "hyperbolic-pt"],
    )
    def test_no_threshold_verify_makes_no_full_solve(self, lapack_drivers, stebz_calls, capsys, argv, coarse):
        # forms with no continuum threshold: the finest grid takes the window
        # that covers the closed-form levels, not dsterf's whole spectrum,
        # by Rayleigh-quotient steps from the coarse grid's eigenvalues.  The
        # coarse grid is asked for that window: trig's 22 it bisects; the
        # hyperbolic window holds 49, under N / 16 of the finest grid but
        # over it at N / 2, so the coarse grid takes dsterf, cut to 49
        assert main(["verify", *argv]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["match"]["pairs"]
        assert lapack_drivers[0] == ("stebz" if coarse else "sterf") and set(lapack_drivers[1:]) == {"gtsv"}
        assert stebz_calls == coarse

    def test_covering_window_on_the_trig_grid(self):
        # every eigenvalue up to the top closed-form level, the K above
        # those, each bracketed within 8 eps ||H||_max of the exact
        # eigenvalue by long-double Sturm counts
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        H = discretize(spec, default_domain(spec, L=12.0), 3000)
        d, b = H.diagonal.real, H.offdiagonal
        top, more = oracle._covering_window(closed_form_spectrum(spec, 3).energies())
        assert more == 4
        win = eigen_complex_dense(H, window=_window(H, 6, top, more)).real
        assert len(win) == max(6, int(_sturm_count(d, b, [top])[0]) + more) < H.N
        tol = 8.0 * np.finfo(float).eps * _norm_max(H)
        i = np.arange(len(win))
        assert np.all(_sturm_count(d, b, win - tol) <= i)
        assert np.all(_sturm_count(d, b, win + tol) >= i + 1)

    def test_window_reaching_n_is_the_whole_spectrum(self, lapack_drivers):
        # the Sturm count at `below` finds each of these windows reaching N
        # before anything is solved, so none takes a bisection
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        H = discretize(spec, default_domain(spec, L=12.0), 60)
        full = eigen_complex_dense(H, certify=False)
        for below, more in [(full[1].real, 59), (full[1].real, 60), (full[-1].real * 1.5, 1)]:
            lapack_drivers.clear()
            win = eigen_complex_dense(H, certify=False, window=_window(H, 6, below, more))
            np.testing.assert_array_equal(win, full)
            assert lapack_drivers == ["sterf"]

    def test_certification_takes_a_window_of_any_size(self):
        # it samples five of the returned eigenvalues: here all three, or none
        spec, L = _THRESHOLD_GRIDS["mr-deep"]
        H = discretize(spec, default_domain(spec, L=L), 1000)
        assert len(eigen_complex_dense(H, window=_window(H, 0, continuum_threshold(spec)))) == 3
        assert len(eigen_complex_dense(H, window=_window(H, 0, -1e9))) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(50, 400),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(-10.0, 10.0),
        where=st.floats(-1.2, 1.2),
    )
    def test_sturm_count_is_the_count_below_x(self, n, seed, b, where):
        d = np.random.default_rng(seed).uniform(-50.0, 50.0, n)
        x, tol = 50.0 * where, 8.0 * np.finfo(float).eps * (50.0 + 2.0 * abs(b))
        full = eigvalsh_tridiagonal(d, np.full(n - 1, b), lapack_driver="sterf")
        assume(np.min(np.abs(full - x)) > 2.0 * tol)
        assert oracle._sturm_count(d, b, x) == int(np.sum(full <= x)) == int(_sturm_count(d, b, [x])[0])

    def test_one_rule_picks_window_or_whole(self, monkeypatch):
        # k eigenvalues are a window while k <= N / 16, on either grid kind
        spec, L = _THRESHOLD_GRIDS["mr-deep"]
        H = discretize(spec, default_domain(spec, L=L), 1600)
        below = continuum_threshold(spec)
        # (lowest, below, more): (k, whole)
        sizes = {
            (None, below, 0): (1600, True),
            (6, math.inf, 0): (1600, True),
            (6, below, 0): (6, False),
            (6, -math.inf, 0): (6, False),
            (0, below, 0): (3, False),
            (0, below, 97): (100, False),
            (0, below, 98): (101, True),
        }
        for size, want in sizes.items():
            window = _window(H, *size)
            assert (window.k, window.whole) == want and window[:3] == size
        # a complex grid whose window is too wide tries no window
        monkeypatch.setattr(oracle, "_aberth_window", lambda *args: pytest.fail("a window was tried"))
        C = _variant_grid("mr-nonpt", 400)
        assert len(eigen_complex_dense(C, certify=False, window=_window(C, 26))) == 400

    def test_a_window_wider_than_n_over_16_is_solved_whole(self, lapack_drivers, capsys):
        # hyperbolic PT at N = 600: its window holds 49 eigenvalues, more than
        # N / 16, and bisecting them would cost more than dsterf.  The Sturm
        # count says so before anything is solved, so the finest grid takes
        # dsterf alone, cut to the window; the coarse grid bisects its lowest 6
        argv = [
            "verify", "--family", "hyperbolic-scarf", "--variant", "pt",
            "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1", "--L", "6", "--N", "600",
        ]
        assert main(argv) in (0, 2)
        match = json.loads(capsys.readouterr().out)["match"]
        assert lapack_drivers == ["stebz", "sterf"]
        assert len(match["pairs"]) + len(match["unmatched_oracle"]) == 49

    @pytest.mark.parametrize("name, count", [("mr-deep", 3), ("hyp-blind-spot", 1)])
    def test_a_window_of_the_lowest_levels_takes_one_bisection(self, name, count, lapack_drivers, stebz_calls):
        # the Sturm count that sizes the window gives its k, so a window with
        # no starts takes one bisection by index, of the lowest k, with the
        # bits of that call: here fewer levels lie below the threshold than
        # the 6 asked for, and with `more` the k reaches above those levels
        spec, L = _THRESHOLD_GRIDS[name]
        H = discretize(spec, default_domain(spec, L=L), 2000)
        d, b, thr = H.diagonal.real, H.offdiagonal, continuum_threshold(spec)
        off = np.full(H.N - 1, b)
        assert _window(H, 0, thr).k == count
        for window in (_window(H, 6, thr), _window(H, 6, thr, 4)):
            assert window.k == max(6, count + window.more)
            stebz_calls.clear()
            lapack_drivers.clear()
            eigs, resid, reach, roots = oracle._real_eigenvalues(d, b, window)
            assert stebz_calls == [window.k] and lapack_drivers == ["stebz"] and resid is None
            assert reach == math.inf and roots is eigs
            ref = eigvalsh_tridiagonal(d, off, select="i", select_range=(0, window.k - 1), lapack_driver="stebz")
            assert _same_bits(eigs, ref)


# the real presets and the specs of the verify-real benchmark, whose finest
# grids continue from the coarse grid's eigenvalues: spec, L of
# default_domain
_REAL_STUDIES = {
    **{name: (PotentialSpec(**_PRESETS[name][0]), _PRESETS[name][1]) for name in ("fig1", "fig2", "fig4")},
    "trig": (PotentialSpec(family=Family.TrigScarf, A=-2.0), 12.0),
    "fig2-pt": (PotentialSpec(**_HYP_PT, q=1.0), 12.0),
    "hyp-blind-spot": _THRESHOLD_GRIDS["hyp-blind-spot"],
    "mr-deep": _THRESHOLD_GRIDS["mr-deep"],
}


def _finest_window(name, N, extra=0):
    """The finest grid of a verify at N, the window its study asks of it,
    that window's size k, and the lowest k + extra eigenvalues of the
    coarse grid."""
    spec, L = _REAL_STUDIES[name]
    dom = default_domain(spec, L=L)
    H = discretize(spec, dom, N)
    below, more = continuum_threshold(spec), 0
    if below == math.inf:
        below, more = oracle._covering_window(closed_form_spectrum(spec, 10).energies())
    window = _window(H, 6, below, more)
    assert H.is_real and not window.whole
    coarse = discretize(spec, dom, N // 2)
    starts = eigen_complex_dense(coarse, certify=False, window=_window(coarse, window.k + extra))
    return H, window, window.k, starts


class TestRealContinuation:
    @pytest.mark.parametrize("name", sorted(_REAL_STUDIES))
    def test_a_warm_window_on_the_real_grids_is_the_bisected_one(self, name):
        # the finest window of a verify at N = 2000, refined from the coarse
        # grid's eigenvalues: proved, each within an ulp of ||T|| of dstebz's
        # by index and, by long-double Sturm counts, of the exact one, and
        # every residual under the contract
        H, _, k, starts = _finest_window(name, 2000)
        d, b = H.diagonal.real, H.offdiagonal
        window = oracle._rayleigh_window(d, b, starts, k)
        assert window is not None
        eigs, resid = window
        ulp = np.finfo(float).eps * _norm_max(H)
        ref = eigvalsh_tridiagonal(d, np.full(H.N - 1, b), select="i", select_range=(0, k - 1))
        assert np.max(np.abs(eigs - ref)) <= ulp
        i = np.arange(k)
        assert np.all(_sturm_count(d, b, eigs - ulp) <= i) and np.all(_sturm_count(d, b, eigs + ulp) >= i + 1)
        assert np.all(resid <= oracle._RESIDUAL_BOUND * _norm_max(H))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(50, 400),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(-10.0, 10.0).filter(lambda b: abs(b) >= 0.5),
        k=st.integers(1, 8),
        off=st.floats(-0.3, 0.3),
    )
    def test_a_warm_window_on_random_tridiagonals(self, n, seed, b, k, off):
        # each start moved off its eigenvalue by `off` of its nearest gap.  A
        # proved window holds the lowest k, each within an ulp of ||T|| of
        # the exact eigenvalue by long-double Sturm counts, and is what a
        # certified solve returns; dstebz's own values are up to 1.4 such
        # ulps off on these, so they are held to 2.  A refused window leaves
        # the bisection's bits
        d = np.random.default_rng(seed).uniform(-50.0, 50.0, n)
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, float(n + 1)),
            N=n, h=1.0, diagonal=d.astype(complex), offdiagonal=b,
        )
        full = eigvalsh_tridiagonal(d, np.full(n - 1, b), lapack_driver="sterf")
        gap = np.minimum(np.diff(full, prepend=-np.inf), np.diff(full, append=np.inf))[:k]
        starts = (full[:k] + off * gap).astype(complex)
        ref = eigvalsh_tridiagonal(d, np.full(n - 1, b), select="i", select_range=(0, k - 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_WINDOW_SHARE", 1)
            got = eigen_complex_dense(H, window=_window(H, k), starts=starts.copy())
        window = oracle._rayleigh_window(d, b, starts, k)
        if window is None:
            assert _same_bits(got.real, ref)
            return
        eigs, resid = window
        assert _same_bits(got.real, eigs)
        ulp = np.finfo(float).eps * _norm_max(H)
        i = np.arange(k)
        assert np.all(_sturm_count(d, b, eigs - ulp) <= i) and np.all(_sturm_count(d, b, eigs + ulp) >= i + 1)
        assert np.max(np.abs(eigs - ref)) <= 2.0 * ulp
        assert np.all(resid <= oracle._RAYLEIGH_ULPS * math.sqrt(n) * ulp)

    @pytest.mark.parametrize("fault", ["coinciding", "too-few", "above-the-lowest"])
    def test_a_refused_window_is_the_bisected_one(self, fault, lapack_drivers, stebz_calls):
        # two coinciding starts converge to one eigenvalue, whose brackets
        # overlap; k - 1 starts cannot make a window of k; the k above the
        # lowest converge to k disjoint brackets, but the Sturm count at
        # their top is k + 1.  Each way the grid bisects as it does with no
        # starts, to the bit: one bisection by index of the lowest k
        H, window, k, starts = _finest_window("trig", 1000, extra=1)
        if fault == "coinciding":
            starts[1] = starts[0]
        starts = starts[1:] if fault == "above-the-lowest" else starts[: k - (fault == "too-few")]
        assert oracle._rayleigh_window(H.diagonal.real, H.offdiagonal, starts, k) is None
        stebz_calls.clear()
        cold = eigen_complex_dense(H, certify=False, window=window)
        assert stebz_calls == [k]
        off = np.full(H.N - 1, H.offdiagonal)
        ref = eigvalsh_tridiagonal(H.diagonal.real, off, select="i", select_range=(0, k - 1), lapack_driver="stebz")
        assert _same_bits(cold.real, ref)
        stebz_calls.clear()
        lapack_drivers.clear()
        assert _same_bits(eigen_complex_dense(H, certify=False, window=window, starts=starts), cold)
        assert stebz_calls == [k]
        assert ("gtsv" in lapack_drivers) == (fault != "too-few")

    def test_a_singular_step_refuses_the_window(self, lapack_drivers):
        # with b = 0 a start on a diagonal entry makes T - sigma singular;
        # dgtsv says so, and the grid bisects as it does with no starts
        d = np.arange(1.0, 101.0)
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, 101.0), N=100, h=1.0, diagonal=d.astype(complex), offdiagonal=0.0
        )
        starts = d[:3].astype(complex)
        assert oracle._rayleigh_window(d, 0.0, starts, 3) is None
        lapack_drivers.clear()
        warm = eigen_complex_dense(H, certify=False, window=_window(H, 3), starts=starts)
        assert lapack_drivers == ["gtsv", "stebz"]
        assert _same_bits(warm, eigen_complex_dense(H, certify=False, window=_window(H, 3)))

    @pytest.mark.parametrize(
        "name, N, coarse",
        [("trig", 2000, None), ("mr-deep", 2000, 6), ("hyp-pt-whole", 600, 6), ("mr-nonpt", 800, 6)],
    )
    def test_the_coarse_grid_is_asked_for_the_finest_window(self, monkeypatch, name, N, coarse):
        # a verify asks the coarse grid for the k of the finest real window,
        # sized first, and hands the finest grid those k as starts.  Where
        # the finest grid is solved whole, or is complex, the coarse grid is
        # asked for its lowest 6 as before
        if name == "hyp-pt-whole":
            spec, L = PotentialSpec(**_HYP_PT, q=1.0), 6.0
        elif name == "mr-nonpt":
            spec, L = _VARIANT_GRIDS[name]
        else:
            spec, L = _REAL_STUDIES[name]
        dom = default_domain(spec, L=L)
        entries = closed_form_spectrum(spec, 10).entries
        if coarse is None:
            _, _, coarse, _ = _finest_window(name, N)
        calls = []
        solve = oracle.eigen_complex_dense

        def recorded(H, certify=True, window=None, starts=None, solves=None):
            calls.append((H.N, window.lowest, None if starts is None else len(starts)))
            return solve(H, certify, window, starts, solves)

        monkeypatch.setattr(oracle, "eigen_complex_dense", recorded)
        oracle.verify_levels(spec, dom, N, entries)
        handed = 2 * coarse + 8 if name == "mr-nonpt" else coarse
        assert calls == [(N // 2, coarse, None), (N, 6, handed)]

    def test_the_blocks_do_not_move_a_bit(self, monkeypatch):
        # each shift's steps are its own: one per block gives the bits of
        # as many as fit
        H, _, k, starts = _finest_window("fig2", 2000)
        d, b = H.diagonal.real, H.offdiagonal
        assert oracle._CERTIFY_BLOCK // H.N < k
        many = oracle._rayleigh_window(d, b, starts, k)
        monkeypatch.setattr(oracle, "_CERTIFY_BLOCK", H.N)
        one = oracle._rayleigh_window(d, b, starts, k)
        assert _same_bits(many[0], one[0]) and _same_bits(many[1], one[1])

    def test_a_warm_window_draws_no_witness(self, banded_solves, handed_over):
        # the finest grid hands over the residual of each eigenvalue, each
        # a certificate, so no banded check runs
        spec, L = _THRESHOLD_GRIDS["mr-deep"]
        convergence_study(spec, default_domain(spec, L=L), [1000, 2000])
        [(eigs, bounds)] = handed_over
        H = discretize(spec, default_domain(spec, L=L), 2000)
        ulp = np.finfo(float).eps * _norm_max(H)
        assert len(eigs) == len(bounds) == 6
        assert np.all(bounds <= oracle._RAYLEIGH_ULPS * math.sqrt(H.N) * ulp)
        assert banded_solves == []

    @pytest.mark.parametrize(
        "argv, counts",
        [
            (("--family", "trig-scarf", "--A", "-2", "--N", "3000"), 2),
            (("--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", "--L", "16", "--N", "2000"), 2),
            (("--preset", "fig7", "--N", "800"), 1),
        ],
        ids=["trig", "mr-deep", "fig7"],
    )
    def test_one_sturm_count_sizes_each_finest_window(self, monkeypatch, capsys, argv, counts):
        # a warm real verify counts twice, once to size the finest window and
        # once in the Rayleigh proof; the coarser grid is asked for that
        # window's k with no count of its own.  A complex verify counts once,
        # to size the window of its real part
        calls = []
        count = oracle._sturm_count
        monkeypatch.setattr(oracle, "_sturm_count", lambda d, b, x: calls.append(len(d)) or count(d, b, x))
        assert main(["verify", *argv]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["match"]["pairs"]
        N = int(argv[argv.index("--N") + 1])
        assert calls == [N] * counts


class TestComplexWindow:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(100, 300),
        seed=st.integers(0, 2**32 - 1),
        b=st.floats(0.5, 10.0),
        lowest=st.integers(0, 6),
        where=st.one_of(st.none(), st.floats(-1.05, -0.9)),
        entries=st.integers(0, 4),
    )
    def test_a_window_is_the_whole_spectrum_left_of_its_reach(self, n, seed, b, lowest, where, entries):
        # either the window holds each eigenvalue of the whole solve with
        # real part below its reach R, to 1e-10, and the greedy match of the
        # entries is the whole spectrum's, or the solve fell back to whole.
        # `below` and the entries lie near the bottom of the diagonal's
        # range, so that most windows are under N / 16
        rng = np.random.default_rng(seed)
        d = rng.uniform(-50.0, 50.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
        H = GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, float(n + 1)), N=n, h=1.0, diagonal=d, offdiagonal=b
        )
        try:
            whole = eigen_complex_dense(H, certify=False)
        except QRNotConverged:
            assume(False)
        energies = list(rng.uniform(-60.0, -45.0, entries) + 1j * rng.uniform(-8.0, 8.0, entries))
        below, more = oracle._covering_window(energies) if energies else (-math.inf, 0)
        below = below if where is None else max(below, 50.0 * where)
        solves = []
        win = eigen_complex_dense(H, certify=False, window=_window(H, lowest, below, more, energies), solves=solves)
        [(_, _, R, _)] = solves
        if R == math.inf:
            assert _same_bits(win, whole)
            return
        left = whole[whole.real < R]
        assert len(win) == len(left) >= lowest and R > below and np.all(win.real < R)
        rows, cols = linear_sum_assignment(np.abs(win[:, None] - left[None, :]))
        assert np.max(np.abs(win[rows] - left[cols]) / np.maximum(np.abs(left[cols]), 1.0), initial=0.0) < 1e-10
        entries = list(enumerate(energies))
        got, want = match_levels(entries, win, math.inf), match_levels(entries, whole, math.inf)
        assert [p[0] for p in got.pairs] == [p[0] for p in want.pairs]
        assert got.unmatched_formula == want.unmatched_formula
        for (_, _, lam, _), (_, _, ref, _) in zip(got.pairs, want.pairs):
            assert abs(lam - ref) < 1e-10 * max(abs(ref), 1.0)

    def test_quadrature_nodes_are_gauss_legendre(self):
        x, w = oracle._gauss_legendre(oracle._PANEL_NODES)
        ref_x, ref_w = np.polynomial.legendre.leggauss(oracle._PANEL_NODES)
        order = np.argsort(x)
        assert np.max(np.abs(x[order] - ref_x)) < 1e-15 and np.max(np.abs(w[order] - ref_w)) < 1e-15

    def test_quadrature_nodes_are_computed_once_on_first_use(self):
        # not at import, as a real verify never counts; later counts share
        # the first call's arrays, which none of them can write
        code = "from ptspec import oracle; print(oracle._gauss_legendre.cache_info().currsize)"
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
        assert fresh.stdout == "0\n"
        first, again = oracle._gauss_legendre(oracle._PANEL_NODES), oracle._gauss_legendre(oracle._PANEL_NODES)
        assert all(a is b and not a.flags.writeable for a, b in zip(first, again))

    @pytest.mark.parametrize("name", ["mr-pt", "mr-nonpt", "trig-nonpt"])
    def test_default_arguments_return_every_eigenvalue(self, name):
        # the benchmark's references are solved whole by the default call
        H = _variant_grid(name, 400)
        solves = []
        assert len(eigen_complex_dense(H, certify=False, solves=solves)) == 400
        assert [s.reach for s in solves] == [math.inf] and _same_bits(solves[0].roots, solves[0].eigs)

    def test_the_count_refuses_the_fig3_window(self, monkeypatch):
        # fig3 at N = 800: the 20 starts converge to 18 roots left of R, but
        # 22 eigenvalues lie there, so the grid is solved whole, with no
        # second window
        spec = PotentialSpec(**_PRESETS["fig3"][0])
        H = discretize(spec, default_domain(spec, L=12.0), 800)
        d, b, thr = H.diagonal, H.offdiagonal, continuum_threshold(spec)
        ulp = _diagonal_ulp(d, b)
        start = oracle._aberth_start(d, b, ulp, 20)
        floor = start[0].real
        lam, _ = oracle._aberth(d, b, start)
        R = oracle._reach(lam, _window(H, 6, thr))
        count = oracle._argument_count(d, b, lam, 2.0 * floor - R, R, np.max(np.abs(d.imag)) + R - floor, ulp)
        assert abs(count - 22) < 1e-6 and np.sum(lam.real < R) == 18
        assert oracle._aberth_window(d, b, 20, _window(H, 6, thr)) is None
        windows, window = [], oracle._aberth_window
        monkeypatch.setattr(oracle, "_aberth_window", lambda d, b, m, *args: windows.append(m) or window(d, b, m, *args))
        solves = []
        assert len(eigen_complex_dense(H, certify=False, window=_window(H, 6, thr), solves=solves)) == 800
        assert [s.reach for s in solves] == [math.inf] and windows == [20]

    def test_a_contour_through_an_eigenvalue_is_refused(self):
        # the right side through an eigenvalue that is not among the roots:
        # the count is no integer.  Through one of the roots: the halving
        # never ends, and the count is NaN
        H = _variant_grid("mr-nonpt", 200)
        d, b, ulp = H.diagonal, H.offdiagonal, _diagonal_ulp(H.diagonal, H.offdiagonal)
        eigs = eigen_complex_dense(H, certify=False)
        lam, R = eigs[5], eigs[5].real
        args = (R - 2.0 * (R - eigs[0].real), R, np.max(np.abs(d.imag)) + 1.0, ulp)
        count = oracle._argument_count(d, b, eigs[:5], *args[:1], R, *args[2:])
        assert not abs(count - round(count.real)) <= oracle._COUNT_TOL
        assert oracle._argument_count(d, b, eigs[:6], *args[:1], R, *args[2:]) != oracle._argument_count(
            d, b, eigs[:6], *args[:1], R, *args[2:]
        )  # NaN
        # moved off it, into the gap, the same contour counts the five
        R = 0.5 * (eigs[4].real + lam.real)
        assert abs(oracle._argument_count(d, b, eigs[:6], args[0], R, *args[2:]) - 5) < oracle._COUNT_TOL


# complex grids whose finest window takes the coarse window's roots as its
# starts, on verify's default domain (L = 12)
_CONTINUED = {"fig7": (PotentialSpec(**_PRESETS["fig7"][0]), 12.0), "trig-nonpt": _VARIANT_GRIDS["trig-nonpt"]}


def _coarse_roots(name, N):
    """Every root the coarse grid of a verify at N converges: the 20 of
    its window, not only those left of its reach."""
    spec, L = _CONTINUED[name]
    H, solves = discretize(spec, default_domain(spec, L=L), N // 2), []
    eigen_complex_dense(H, certify=False, window=_window(H, 6), solves=solves)
    [(_, _, _, converged)] = solves
    assert len(converged) == 2 * 6 + 8
    return converged


class TestGridContinuation:
    @pytest.mark.parametrize("N", [400, 800])
    @pytest.mark.parametrize("name", sorted(_CONTINUED))
    def test_a_window_from_coarse_roots_is_the_first_order_one(self, monkeypatch, name, N):
        # the finest window started from the coarse grid's roots is proved
        # with as many roots left of its reach as the one started from
        # first-order values, each within 4 ulps of ||H||, and takes no
        # first-order start
        spec, L = _CONTINUED[name]
        H = discretize(spec, default_domain(spec, L=L), N)
        window = dict(certify=False, window=_window(H, 6, continuum_threshold(spec)))
        cold_solves, warm_solves = [], []
        cold = eigen_complex_dense(H, solves=cold_solves, **window)
        starts = _coarse_roots(name, N)
        monkeypatch.setattr(oracle, "_aberth_start", lambda *args: pytest.fail("a first-order start was taken"))
        warm = eigen_complex_dense(H, solves=warm_solves, starts=starts, **window)
        assert math.isfinite(cold_solves[0].reach) and math.isfinite(warm_solves[0].reach)
        assert len(warm) == len(cold) >= 6
        rows, cols = linear_sum_assignment(np.abs(warm[:, None] - cold[None, :]))
        assert np.max(np.abs(warm[rows] - cold[cols])) <= 4.0 * _diagonal_ulp(H.diagonal, H.offdiagonal)

    @pytest.mark.parametrize("name, other", [("fig7", "trig-nonpt"), ("trig-nonpt", "fig7")])
    def test_roots_of_another_form_fall_back_to_first_order_starts(self, monkeypatch, name, other):
        # the other form's roots give no window that the count proves, so
        # the grid takes the 20 first-order starts, and the bits it returns
        # with no starts
        spec, L = _CONTINUED[name]
        H = discretize(spec, default_domain(spec, L=L), 400)
        window = dict(certify=False, window=_window(H, 6, continuum_threshold(spec)))
        cold = eigen_complex_dense(H, **window)
        starts = _coarse_roots(other, 400)
        taken = []
        start = oracle._aberth_start
        monkeypatch.setattr(oracle, "_aberth_start", lambda *args: taken.append(args[3]) or start(*args))
        assert _same_bits(eigen_complex_dense(H, starts=starts, **window), cold)
        assert taken == [20]

    def test_a_window_unconverged_from_coarse_roots_falls_back(self, monkeypatch):
        # two coinciding starts make the Aberth correction singular: its NaN
        # reaches every root and the window does not converge, so the grid
        # takes the 20 first-order starts, and the bits it returns with no
        # starts
        spec, L = _CONTINUED["fig7"]
        H = discretize(spec, default_domain(spec, L=L), 400)
        window = dict(certify=False, window=_window(H, 6, continuum_threshold(spec)))
        cold = eigen_complex_dense(H, **window)
        starts = _coarse_roots("fig7", 400)
        low = np.argsort(starts.real)
        starts[low[1]] = starts[low[0]]
        taken, failed = [], []
        start, aberth = oracle._aberth_start, oracle._aberth
        monkeypatch.setattr(oracle, "_aberth_start", lambda *args: taken.append(args[3]) or start(*args))

        def counted(*args):
            try:
                return aberth(*args)
            except QRNotConverged:
                failed.append(len(args[2]))
                raise

        monkeypatch.setattr(oracle, "_aberth", counted)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _same_bits(eigen_complex_dense(H, starts=starts, **window), cold)
        assert failed == [20] and taken == [20]

    def test_roots_outside_the_field_of_values_are_not_swept(self, monkeypatch):
        # PT Manning-Rosen at N = 300: its coarse grid's count refuses the
        # window, so that grid hands over all 150 roots, and the lowest 40,
        # the starts of the finest window, reach below lambda_min(Re T) of
        # the finest grid, as its levels at the poles move as 1/h^2.  No
        # eigenvalue lies there, so the window takes first-order starts
        # without sweeping those roots
        spec, L = _VARIANT_GRIDS["mr-pt"]
        dom = default_domain(spec, L=L)
        coarse, solves = discretize(spec, dom, 150), []
        eigen_complex_dense(coarse, certify=False, window=_window(coarse, 6), solves=solves)
        roots = [s.roots for s in solves]
        H = discretize(spec, dom, 300)
        energies = closed_form_spectrum(spec, 3).energies()
        below, more = oracle._covering_window(energies)
        window = dict(certify=False, window=_window(H, 6, below, more, energies))
        cold = eigen_complex_dense(H, **window)
        lowest = eigvalsh_tridiagonal(H.diagonal.real, np.full(H.N - 1, H.offdiagonal), select="i", select_range=(0, 0))
        assert len(roots[0]) == 150 and np.min(roots[0].real) < lowest[0]
        sweeps = []
        aberth = oracle._aberth
        monkeypatch.setattr(oracle, "_aberth", lambda d, b, *args: sweeps.append(args) or aberth(d, b, *args))
        assert _same_bits(eigen_complex_dense(H, starts=roots[0], **window), cold)
        assert [len(lam) for lam, in sweeps] == [40]  # the first-order window alone

    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_no_preset_grid_has_a_zero_off_diagonal(self, name):
        # b = -kappa / h^2, and kappa = hbar^2 / 2m > 0, so no grid that
        # discretize builds meets `_aberth_start`'s inexact b = 0 start
        spec = PotentialSpec(**_PRESETS[name][0])
        assert discretize(spec, default_domain(spec, L=_PRESETS[name][1]), 50).offdiagonal < 0


# the verify-complex benchmark ops at their middle choice, on verify's
# default domain (L = 12)
_BENCH_COMPLEX = {
    "fig5": apply_variant(PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0), Variant.PT),
    "fig7": apply_variant(PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0), Variant.NonPT),
    "trig": PotentialSpec(family=Family.TrigScarf, variant=Variant.NonPT, A=3j, q=2.0),
}


def _checked(kernel, d, b2, z, tiny, w=None):
    """(sum, mask) of one kernel through its pivot check, along w = -1
    unless given: the recurrence or the reduction whatever the size of z."""
    return oracle._checked_sum(kernel, d, np.full(len(d), -1.0) if w is None else w, b2, z, tiny)


def _log_derivatives(d, b2, z, tiny):
    """p'/p by both kernels, each on its own copy of z."""
    kernels = (oracle._recurrence_sum, oracle._reduction_sum)
    return tuple(_checked(kernel, d, b2, z.copy(), tiny)[0] for kernel in kernels)


class TestNewtonRatios:
    @pytest.mark.parametrize("n", [50, 51, 400, 401])
    @pytest.mark.parametrize("b2", [0.7 - 0.2j, 0.0])
    def test_orders_agree_on_random_tridiagonals(self, n, b2):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        rec, red = _log_derivatives(d, b2, z, 1e-13)
        assert np.max(np.abs(rec - red) / np.abs(rec)) < 1e-12

    @pytest.mark.parametrize("n", [50, 51])
    def test_orders_agree_on_a_zero_pivot(self, n):
        # with b = 0 both orders meet the zero pivot d_k - z in the same row
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = d[[0, 1, n // 2, n - 1]]
        rec, red = _log_derivatives(d, 0.0, z, 1e-13)
        assert np.all(np.isfinite(rec))
        assert np.max(np.abs(rec - red) / np.abs(rec)) < 1e-12

    @pytest.mark.parametrize("N", [400, 401])
    @pytest.mark.parametrize("name", sorted(_VARIANT_GRIDS))
    def test_orders_agree_on_every_variant_grid(self, name, N):
        # at the Aberth start, at the real part's eigenvalues moved by
        # i mean(Im d), on the eigenvalues and just off them, the two Newton
        # ratios differ by rounding: a few hundred ulps of ||H|| at most
        H = _variant_grid(name, N)
        d, b = H.diagonal, H.offdiagonal
        ulp = np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * abs(b))
        eigs = eigen_complex_dense(H, certify=False)
        mean = eigvalsh_tridiagonal(d.real, np.full(N - 1, b), lapack_driver="sterf") + 1j * np.mean(d.imag)
        for z in (oracle._aberth_start(d, b, ulp), mean, eigs, eigs * (1.0 + 1e-6 * (1 + 1j))):
            rec, red = _log_derivatives(d, b * b, z, ulp)
            assert np.max(np.abs(1.0 / rec - 1.0 / red)) < 1000.0 * ulp

    @pytest.mark.parametrize(
        "kernel, rows, mask",
        [
            # the recurrence's row-0 pivot d_0 - z is zero at z = d_0 alone;
            # its later pivots carry -b2/r_{k-1} as well
            ("recurrence", [0, 30], [True, False, False]),
            # the reduction's first pivots are d_k - z of the odd rows k; an
            # even row's d_k - z has changed before it is a pivot
            ("reduction", [31, 30], [True, False, False]),
        ],
    )
    def test_a_nan_tiny_marks_each_zero_pivot(self, kernel, rows, mask):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        z = np.append(d[rows], 0.1 + 0.2j)
        with np.errstate(invalid="ignore"):
            got, hit = _checked(getattr(oracle, f"_{kernel}_sum"), d, 0.7 - 0.2j, z, math.nan)
        assert np.isnan(got[0]) and np.all(np.isfinite(got[1:]))
        assert hit.tolist() == mask

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60, reason="no extended long double")
    @pytest.mark.parametrize("name", sorted(_BENCH_COMPLEX))
    def test_both_kernels_against_extended_precision(self, name):
        # p'/p in double by each kernel, against the guarded recurrence in
        # np.clongdouble on the same d and b2, at N = 400.  Measured: the
        # reduction's largest relative error is 2.2 (fig5), 3.0 (fig7) and
        # 3.5 (trig) times the double recurrence's at the roots moved by
        # 1e-6, where both are near 1e-6 at worst, and 0.01, 19.6 and 15.2
        # times at 200 seeded points of the spectrum's box, where both stay
        # below 3e-12
        spec = _BENCH_COMPLEX[name]
        H = discretize(spec, default_domain(spec, L=12.0), 400)
        d, b = H.diagonal, H.offdiagonal
        ulp = _diagonal_ulp(d, b)
        eigs = eigen_complex_dense(H, certify=False)
        rng = np.random.default_rng(0)
        x, y = eigs.real, eigs.imag
        box = rng.uniform(x.min(), x.max(), 200) + 1j * rng.uniform(y.min() - 1.0, y.max() + 1.0, 200)
        for z, factor in ((eigs * (1.0 + 1e-6 * (1 + 1j)), 4.0), (box, 25.0)):
            ld = (d.astype(np.clongdouble), np.clongdouble(b * b), z.astype(np.clongdouble))
            exact = _reference_recurrence(*ld, ulp)
            rec, red = (np.abs(g - exact) / np.abs(exact) for g in _log_derivatives(d, b * b, z, ulp))
            assert np.max(red) <= factor * np.max(rec)

    def test_a_sweep_picks_the_order_by_its_root_count(self, monkeypatch):
        # fewer than N/8 roots take the reduction, in blocks of _BLOCK // N
        calls = []

        def stub(order):
            return lambda d, w, b2, z, tiny: calls.append((order, len(z))) or np.ones(len(z), dtype=complex)

        monkeypatch.setattr(oracle, "_recurrence_sum", stub("recurrence"))
        monkeypatch.setattr(oracle, "_reduction_sum", stub("reduction"))
        monkeypatch.setattr(oracle, "_BLOCK", 4 * 80)
        d, z = np.zeros(80, dtype=complex), np.zeros(10, dtype=complex)
        assert len(oracle._newton_ratios(d, 1.0, z, 1e-13)[0]) == 10
        assert len(oracle._newton_ratios(d, 1.0, z[:9], 1e-13)[0]) == 9
        assert calls == [("recurrence", 10), ("reduction", 4), ("reduction", 4), ("reduction", 1)]

    @pytest.mark.parametrize("name", ["mr-pt", "mr-nonpt", "trig-nonpt"])
    def test_a_window_start_takes_the_reduction_and_a_whole_one_the_recurrence(self, name, monkeypatch):
        # the start's pass along w = -1 + i Im d, under the one size rule:
        # 20 values on a grid of 400 rows are under N/8, all 400 are not
        calls = []

        def counted(kind, kernel):
            return lambda d, w, b2, z, tiny: calls.append(kind) or kernel(d, w, b2, z, tiny)

        for kind in ("recurrence", "reduction"):
            monkeypatch.setattr(oracle, f"_{kind}_sum", counted(kind, getattr(oracle, f"_{kind}_sum")))
        H = _variant_grid(name, 400)
        d, b = H.diagonal, H.offdiagonal
        ulp = _diagonal_ulp(d, b)
        window = oracle._aberth_start(d, b, ulp, 20)
        assert set(calls) == {"reduction"}
        calls.clear()
        whole = oracle._aberth_start(d, b, ulp)
        assert set(calls) == {"recurrence"}
        # both are the first-order values: the lowest 20 agree to rounding,
        # 6 ulps of ||H|| at most on these grids
        assert np.max(np.abs(window - whole[:20])) <= 64.0 * ulp

    def test_the_sweeps_and_the_count_evaluate_through_the_dispatcher(self, monkeypatch):
        # with `_log_derivative` stubbed, no kernel runs: neither calls one
        # around it
        calls = []

        def stub(d, b2, z, tiny, w=None):
            calls.append(len(z))
            return np.ones(len(z), dtype=complex), np.zeros(len(z), dtype=bool)

        monkeypatch.setattr(oracle, "_log_derivative", stub)
        for name in ("_recurrence_sum", "_reduction_sum", "_checked_sum"):
            monkeypatch.setattr(oracle, name, lambda *args: pytest.fail("a kernel was called around the dispatcher"))
        d, z = np.linspace(1.0, 2.0, 80) + 0.1j, np.zeros(10, dtype=complex)
        ratios, hit = oracle._newton_ratios(d, 1.0, z, 1e-13)
        assert np.array_equal(ratios, np.ones(10)) and not hit.any()
        count = oracle._argument_count(d, -1.0, np.array([1.5 + 0.1j]), 0.0, 4.0, 1.0, 1e-13)
        # g = 1 integrates to 0 around the closed contour
        assert abs(count) < 1e-12
        assert calls[0] == 10 and len(calls) == 2 and calls[1] % oracle._PANEL_NODES == 0


def _reference_recurrence(d, b2, z, tiny, w=None):
    """Test-local copy of the guarded recurrence: each row's pivot is
    checked for an exact zero before it divides."""
    w = np.full(len(d), -1.0) if w is None else w
    r = d[0] - z
    r[r == 0] = tiny
    u = w[0] / r
    total = u.copy()
    for dk, wk in zip(d[1:], w[1:]):
        t = b2 / r
        r = (dk - t) - z
        r[r == 0] = tiny
        u = (t * u + wk) / r
        total += u
    return total


def _reference_reduction(d, b2, z, tiny, w=None):
    """Test-local copy of the odd-even cyclic reduction, its guard inline:
    each pivot is checked for an exact zero as it is formed, when its row
    is eliminated and before it divides."""
    w = np.full(len(d), -1.0) if w is None else w
    a = d - z[:, None]
    da = np.broadcast_to(w, a.shape)
    c = nc = None
    total = 0.0
    while a.shape[1] > 1:
        m = a.shape[1]
        r = (m - 1) // 2
        ao = a[:, 1::2]
        ao[ao == 0] = tiny
        s = 1.0 / ao
        q = da[:, 1::2] * s
        total = total + q.sum(axis=1)
        if c is None:
            tl = b2 * s
            el = tl * q
            tr, er = tl[:, :r], el[:, :r]
            c, nc = tr * tr, 2.0 * (tr * er)
        else:
            tl, tr = c[:, ::2] * s, c[:, 1::2] * s[:, :r]
            el, er = tl * q + nc[:, ::2] * s, tr * q[:, :r] + nc[:, 1::2] * s[:, :r]
            c, nc = tl[:, :r] * tr, el[:, :r] * tr + tl[:, :r] * er
        if m % 2:
            a, da = a[:, ::2].astype(tl.dtype), da[:, ::2].astype(el.dtype)
            a[:, :r] -= tl
            da[:, :r] += el
        else:
            a, da = a[:, ::2] - tl, da[:, ::2] + el
        a[:, 1 : r + 1] -= tr
        da[:, 1 : r + 1] += er
    a[a == 0] = tiny
    return total + da[:, 0] / a[:, 0]


def _reference_aberth(d, b):
    """Test-local copy of the Ehrlich-Aberth solve: the first-order start,
    then sweeps by the guarded recurrence or, under N/8 roots, the
    reduction, each root stopping at a step of 4 ulps of ||H||."""
    n = len(d)
    ulp = np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * abs(b))
    mu = eigvalsh_tridiagonal(d.real, np.full(n - 1, b), lapack_driver="sterf")
    with np.errstate(all="ignore"):
        g = _reference_recurrence(d.real, b * b, mu, ulp, -1.0 + 1j * d.imag)
        c = -g.imag / g.real
    c[~np.isfinite(c)] = np.mean(d.imag)
    lam = mu + 1j * c
    active = np.arange(n)
    rows = max(1, oracle._BLOCK // n)
    for _ in range(oracle._ABERTH_SWEEPS):
        z = lam[active]
        if 8 * len(z) >= n:
            step = 1.0 / _reference_recurrence(d, b * b, z, ulp)
        else:
            step = 1.0 / np.concatenate(
                [_reference_reduction(d, b * b, z[i : i + rows], ulp) for i in range(0, len(z), rows)]
            )
        for i in range(0, len(z), rows):
            diff = z[i : i + rows, None] - lam
            diff[np.arange(len(diff)), active[i : i + rows]] = np.inf
            w = step[i : i + rows]
            step[i : i + rows] = w / (1.0 - w * np.sum(1.0 / diff, axis=1))
        lam[active] = z - step
        active = active[~(np.abs(step) <= 4.0 * ulp)]
        if not len(active):
            return lam
    raise AssertionError("the reference solve did not converge")


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestReferenceLoops:
    @pytest.mark.parametrize("tiny", [1e-13, math.nan])
    @pytest.mark.parametrize("b2", [0.7 - 0.2j, 0.7, 0.0])
    @pytest.mark.parametrize("n", [50, 51, 400])
    def test_recurrence_is_the_guarded_loop_bit_for_bit(self, n, b2, tiny):
        # z = d_0 meets the zero pivot of row 0 for any b2, z = d_k that of
        # row k when b2 = 0; the rest meet none
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.concatenate([d[[0, 1, n // 2, n - 1]], rng.standard_normal(20) + 1j * rng.standard_normal(20)])
        with np.errstate(invalid="ignore"):
            got, _ = _checked(oracle._recurrence_sum, d, b2, z.copy(), tiny)
            want = _reference_recurrence(d, b2, z.copy(), tiny)
            assert np.isnan(_reference_recurrence(d, b2, z.copy(), math.nan)[0])
        assert _same_bits(got, want)

    @pytest.mark.parametrize("tiny", [1e-13, math.nan])
    @pytest.mark.parametrize("n", [50, 51, 400])
    def test_recurrence_meets_a_later_zero_pivot_bit_for_bit(self, n, tiny):
        # the shifted discrete Laplacian: at z = 1 + 0.5i the pivot of row 1,
        # (1 + 0.5i - z) ... (2 + 0.5i - z) - 1/r_0, is exactly zero
        d = np.full(n, 2.0 + 0.5j)
        z = np.concatenate([[1.0 + 0.5j], 2.0 + 0.5j - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))])
        with np.errstate(invalid="ignore"):
            got, _ = _checked(oracle._recurrence_sum, d, 1.0, z.copy(), tiny)
            want = _reference_recurrence(d, 1.0, z.copy(), tiny)
            assert np.isnan(_reference_recurrence(d, 1.0, z[:1].copy(), math.nan)[0])
        assert _same_bits(got, want)

    @pytest.mark.parametrize("n", [50, 400, 401])
    @pytest.mark.parametrize("at", ["first", "early", "middle", "late", "last"])
    def test_a_rerun_from_row_0_is_the_guarded_loop_bit_for_bit(self, n, at, monkeypatch):
        # the shifted Laplacian 2 + 0.5i, its diagonal lowered by 1 in row 0
        # and in row K: at z = 0.5i each pivot is exactly 1 up to row K,
        # whose pivot is exactly 0, and at z = 1 + 0.5i row 0's is
        K = {"first": 1, "early": n // 8, "middle": n // 2, "late": n - 2, "last": n - 1}[at]
        d = np.full(n, 2.0 + 0.5j)
        d[[0, K]] -= 1.0
        rng = np.random.default_rng(n)
        z = np.concatenate([[0.5j, 1.0 + 0.5j], rng.standard_normal(6) + 1j * rng.standard_normal(6)])
        calls = []
        run_sum = oracle._recurrence_sum

        def counted(dk, wk, b2, zk, tiny):
            calls.append((zk.copy(), tiny))
            return run_sum(dk, wk, b2, zk, tiny)

        monkeypatch.setattr(oracle, "_recurrence_sum", counted)
        for tiny in (1e-13, math.nan):
            calls.clear()
            with np.errstate(invalid="ignore"):
                got, hit = _checked(oracle._recurrence_sum, d, 1.0, z.copy(), tiny)
                want = _reference_recurrence(d, 1.0, z.copy(), tiny)
            assert hit.tolist() == [True, True] + [False] * 6
            assert _same_bits(got, want)
            # the full rerun of the two from row 0, by the same loop
            with np.errstate(invalid="ignore"):
                total = run_sum(d, np.full(n, -1.0), 1.0, z[:2].copy(), tiny)
            assert _same_bits(got[:2], total)
            # one pass over all z with no check, then one with the patch
            # over exactly the two that met a zero pivot
            assert len(calls) == 2
            (first, first_tiny), (rerun, rerun_tiny) = calls
            assert _same_bits(first, z) and first_tiny is None
            assert _same_bits(rerun, z[:2]) and rerun_tiny is tiny

    @pytest.mark.parametrize("n", [50, 51, 400])
    def test_recurrence_along_w_is_the_guarded_loop_bit_for_bit(self, n):
        # the start's call: real pivots at the real part's eigenvalues, and
        # mu = 1 on the shifted Laplacian's real part, whose row-1 pivot is 0
        rng = np.random.default_rng(n + 1)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = -1.0 + 1j * d.imag
        mu = eigvalsh_tridiagonal(d.real, np.full(n - 1, -0.8), lapack_driver="sterf")
        for d_re, b, z in [(d.real, -0.8, mu), (np.full(n, 2.0), -1.0, np.array([1.0, 0.5, 3.0]))]:
            got, _ = _checked(oracle._recurrence_sum, d_re, b * b, z.copy(), 1e-13, w)
            assert _same_bits(got, _reference_recurrence(d_re, b * b, z.copy(), 1e-13, w))

    @pytest.mark.parametrize("tiny", [1e-13, math.nan])
    @pytest.mark.parametrize("b2", [0.7 - 0.2j, 0.7, 0.0])
    @pytest.mark.parametrize("n", [50, 51, 400])
    def test_reduction_is_the_guarded_loop_bit_for_bit(self, n, b2, tiny, monkeypatch):
        # an infinite diagonal entry decouples its row: its reciprocal and
        # every quotient through it are exactly 0.  So with rows K - 1, K + 1
        # and 1 infinite, rows K and 0 are blocks of their own, whose
        # diagonals stay d_K - z and d_0 - z, and z = d_K meets a zero pivot
        # where row K is eliminated: at level 5 for K = 16, and z = d_0 at
        # the last one.  z = d_3 meets one at level 1 for any b2; the rest
        # meet none
        K = 16
        rng = np.random.default_rng(n + 7)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d[[1, K - 1, K + 1]] = math.inf
        w = -1.0 + 1j * rng.standard_normal(n)
        z = np.concatenate([d[[3, K, 0]], rng.standard_normal(9) + 1j * rng.standard_normal(9)])
        calls = []
        run_sum = oracle._reduction_sum

        def counted(dk, wk, b2k, zk, tinyk):
            calls.append((zk.copy(), tinyk))
            return run_sum(dk, wk, b2k, zk, tinyk)

        monkeypatch.setattr(oracle, "_reduction_sum", counted)
        with np.errstate(invalid="ignore"):
            got, hit = _checked(oracle._reduction_sum, d, b2, z.copy(), tiny, w)
            want = _reference_reduction(d, b2, z.copy(), tiny, w)
            assert np.all(np.isnan(_reference_reduction(d, b2, z[:3].copy(), math.nan, w)))
        assert hit.tolist() == [True] * 3 + [False] * 9
        assert _same_bits(got, want)
        # one pass over all z with no check, then one with the patch over
        # exactly the three that met a zero pivot
        assert len(calls) == 2
        (first, first_tiny), (rerun, rerun_tiny) = calls
        assert _same_bits(first, z) and first_tiny is None
        assert _same_bits(rerun, z[:3]) and rerun_tiny is tiny

    @pytest.mark.parametrize("N", [400, 401])
    @pytest.mark.parametrize("name", sorted(_VARIANT_GRIDS))
    def test_aberth_is_the_reference_loop_bit_for_bit(self, name, N):
        H = _variant_grid(name, N)
        assert _same_bits(oracle._aberth(H.diagonal, H.offdiagonal)[0], _reference_aberth(H.diagonal, H.offdiagonal))

    @pytest.mark.parametrize("name", sorted(_BENCH_COMPLEX))
    def test_aberth_on_the_benchmark_grids_is_the_reference_loop_bit_for_bit(self, name):
        spec = _BENCH_COMPLEX[name]
        H = discretize(spec, default_domain(spec, L=12.0), 800)
        assert not H.is_real
        assert _same_bits(oracle._aberth(H.diagonal, H.offdiagonal)[0], _reference_aberth(H.diagonal, H.offdiagonal))


def _conjugation_by_scan(eigs, tol):
    """Test-local reference: the pairing as a Python scan over every lower
    eigenvalue for each upper one, the first minimum on ties."""
    eigs = np.asarray(eigs, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(eigs))) if len(eigs) else 1.0
    real_mask = np.abs(eigs.imag) <= tol * scale
    rest = eigs[~real_mask]
    ups = sorted((z for z in rest if z.imag > 0), key=lambda z: (z.real, z.imag))
    downs = [z for z in rest if z.imag < 0]
    used = [False] * len(downs)
    pair_count, max_defect = 0, 0.0
    for u in ups:
        best_j, best_d = -1, math.inf
        for j, d in enumerate(downs):
            dist = abs(u - d.conjugate())
            if not used[j] and dist < best_d:
                best_j, best_d = j, dist
        if best_j >= 0 and best_d <= tol * scale:
            used[best_j] = True
            pair_count += 1
            max_defect = max(max_defect, best_d)
        else:
            max_defect = max(max_defect, best_d if best_j >= 0 else math.inf)
    unpaired = (len(ups) - pair_count) + (len(downs) - pair_count)
    return ConjugationReport(
        real_count=int(np.sum(real_mask)),
        pair_count=pair_count,
        unpaired=unpaired,
        max_defect=float(max_defect),
        closed=(unpaired == 0),
    )


class TestConjugationCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_scan_on_random_multisets(self, seed):
        # coarse values make exact ties and repeated eigenvalues; unequal
        # upper and lower counts leave every candidate used
        rng = np.random.default_rng(seed)
        n_up, n_down, n_real = rng.integers(0, 12, size=3)
        up = rng.integers(-3, 4, n_up) + 1j * rng.integers(1, 4, n_up)
        down = rng.integers(-3, 4, n_down) - 1j * rng.integers(1, 4, n_down)
        eigs = np.concatenate([up, down + rng.choice([0.0, 1e-9, 0.3], n_down), rng.integers(-3, 4, n_real)])
        rng.shuffle(eigs)
        for tol in (1e-12, 1e-9, 0.1):
            assert conjugation_pair_check(eigs, tol) == _conjugation_by_scan(eigs, tol)

    def test_matches_the_scan_with_nan(self):
        eigs = [1 + 1j, complex(math.nan, -1.0), 1 - 1j, 2 + 1j, complex(2.0, math.nan)]
        assert conjugation_pair_check(eigs, 1e-9) == _conjugation_by_scan(eigs, 1e-9)

    def test_all_real(self):
        rep = conjugation_pair_check([1.0, 2.0, 3.0], tol=1e-12)
        assert rep == ConjugationReport(real_count=3, pair_count=0, unpaired=0, max_defect=0.0, closed=True)

    def test_one_pair(self):
        rep = conjugation_pair_check([1 + 1j, 1 - 1j, 2.0], tol=1e-12)
        assert rep.real_count == 1 and rep.pair_count == 1 and rep.closed

    def test_unpaired_detected(self):
        rep = conjugation_pair_check([1 + 1j, 2.0], tol=1e-9)
        assert not rep.closed and rep.unpaired >= 1

    @pytest.mark.parametrize("side", ["upper", "lower", "real", "empty"])
    def test_an_empty_side_matches_the_scan(self, side):
        # with no mirror left, every upper eigenvalue is unpaired at an
        # infinite defect; with no upper one, the defect is 0
        rng = np.random.default_rng(3)
        re, im = rng.standard_normal(40), 0.1 + rng.random(40)
        eigs = {"upper": re + 1j * im, "lower": re - 1j * im, "real": re + 0j, "empty": np.empty(0, complex)}[side]
        for extra in ([], [1.0, complex(2.0, math.nan)]):
            spectrum = np.concatenate([eigs, np.asarray(extra, dtype=complex)])
            for tol in (1e-12, 1e-9, 0.1):
                rep = conjugation_pair_check(spectrum, tol)
                assert rep == _conjugation_by_scan(spectrum, tol)
                assert rep.max_defect == (math.inf if side == "upper" else 0.0)


# eigenvalue and formula real parts: half-integers, for ties and
# duplicates, or any float
_LEVEL = st.integers(-12, 12).map(lambda k: k / 2.0) | st.floats(-6.0, 6.0)


def _match_by_scan(formula_entries, eigs, threshold):
    """Test-local reference: the matching as a Python scan over every
    unused eigenvalue below the threshold for each formula level, the
    first minimum on ties."""
    thr = complex(threshold).real
    cands = [complex(z) for z in np.asarray(eigs, dtype=complex) if z.real < thr]
    used = [False] * len(cands)
    pairs, unmatched = [], []
    for n, e in formula_entries:
        best_j, best_d = -1, math.inf
        for j, lam in enumerate(cands):
            d = abs(complex(e) - lam)
            if not used[j] and d < best_d:
                best_j, best_d = j, d
        if best_j < 0:
            unmatched.append((n, complex(e)))
            continue
        used[best_j] = True
        lam = cands[best_j]
        pairs.append((n, complex(e), lam, float(best_d / max(abs(lam), 1e-300))))
    return LevelMatch(
        pairs=tuple(pairs),
        unmatched_formula=tuple(unmatched),
        unmatched_oracle=tuple(lam for j, lam in enumerate(cands) if not used[j]),
        threshold=thr,
    )


class TestMatchLevels:
    @settings(max_examples=300, deadline=None)
    @given(
        spectrum=st.lists(st.tuples(_LEVEL, st.sampled_from([0.0, 0.0, 0.5, -0.5, math.nan])), max_size=30),
        formula=st.lists(st.tuples(_LEVEL, st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-3.0, 3.0)), max_size=8),
        nan_at=st.none() | st.integers(0, 8),
        threshold=st.sampled_from([math.inf, -math.inf]) | _LEVEL,
    )
    def test_matches_the_scan(self, spectrum, formula, nan_at, threshold):
        # half-integer draws make duplicate eigenvalues and formula levels
        # equidistant from two of them; a NaN imaginary part makes an
        # eigenvalue no level can take, a threshold cuts the candidates,
        # down to none at -inf or below every draw
        eigs = np.array([complex(re, im) for re, im in spectrum], dtype=complex)
        energies = [complex(re, im) for re, im in formula]
        if nan_at is not None:
            energies.insert(min(nan_at, len(energies)), complex(math.nan, 0.0))
        entries = list(enumerate(energies))
        got, ref = match_levels(entries, eigs, threshold), _match_by_scan(entries, eigs, threshold)
        assert repr(got.pairs) == repr(ref.pairs)
        assert repr(got.unmatched_formula) == repr(ref.unmatched_formula)
        assert repr(got.unmatched_oracle) == repr(ref.unmatched_oracle)
        assert got.threshold == ref.threshold


    def test_trig_reference(self, trig_a2_spec, trig_a2_eigs_3000):
        _, eigs = trig_a2_eigs_3000
        res = closed_form_spectrum(trig_a2_spec, 3)
        match = match_levels(res.entries, eigs, continuum_threshold(trig_a2_spec))
        assert len(match.pairs) == 4
        assert match.max_rel_err < 1e-3

    def test_box_match(self, box_eigs_3000):
        spec, _, eigs = box_eigs_3000
        res = closed_form_spectrum(spec, 3)
        match = match_levels(res.entries, eigs, continuum_threshold(spec))
        assert match.max_rel_err < 1e-4

    def test_pt_trig_repulsive_has_no_bound_state(self):
        # A > 0: the formula emits levels but the oracle has nothing below
        # the continuum threshold 0; everything is reported unmatched.
        spec = PotentialSpec(family=Family.TrigScarf, variant=Variant.PT, A=1.0)
        dom = default_domain(spec, L=12.0)
        eigs = eigen_complex_dense(discretize(spec, dom, 600))
        res = closed_form_spectrum(spec, 3)
        match = match_levels(res.entries, eigs, continuum_threshold(spec))
        assert len(match.pairs) == 0
        assert len(match.unmatched_formula) == 4

    @settings(max_examples=300, deadline=None)
    @given(
        spectrum=st.lists(_LEVEL, min_size=1, max_size=40),
        formula=st.lists(st.tuples(_LEVEL, st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-3.0, 3.0)), max_size=8),
        nan_at=st.none() | st.integers(0, 8),
        lowest=st.integers(0, 6),
    )
    def test_a_covering_window_matches_as_the_whole_spectrum(self, spectrum, formula, nan_at, lowest):
        # half-integer draws make duplicate eigenvalues and formula levels
        # equidistant from two of them; the window is what the oracle
        # returns for these energies: every eigenvalue up to M, the K above
        eigs = np.sort(np.array(spectrum))
        energies = [complex(re, im) for re, im in formula]
        if nan_at is not None:
            energies.insert(min(nan_at, len(energies)), complex(math.nan, 0.0))
        entries = list(enumerate(energies))
        top, more = oracle._covering_window(energies)
        window = eigs[: max(lowest, int(np.sum(eigs <= top)) + more)]
        full = match_levels(entries, eigs, math.inf)
        win = match_levels(entries, window, math.inf)
        assert repr(win.pairs) == repr(full.pairs)
        assert repr(win.unmatched_formula) == repr(full.unmatched_formula)
        assert win.unmatched_oracle == full.unmatched_oracle[: len(window) - len(full.pairs)]

    def test_threshold_values(self):
        assert continuum_threshold(PotentialSpec(family=Family.TrigScarf, A=1.0)) == math.inf
        assert continuum_threshold(PotentialSpec(family=Family.HyperbolicScarf, V0=1, V1=2, V2=0, q=1.0)) == 3.0
        assert continuum_threshold(PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0)) == -4.0


class TestConvergenceStudy:
    def test_box_observed_order(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
        rep = convergence_study(spec, box_domain(), [500, 1000, 2000], n_levels=1)
        order = rep.levels[0].observed_order
        assert 1.8 <= order <= 2.2
        assert not rep.levels[0].flagged

    @pytest.mark.parametrize(
        "variant, N_list, lo, hi",
        [
            # converging levels between walls: the central difference's 2
            (Variant.Base, [150, 300, 600], 1.9, 2.1),
            # A = -2 makes trig PT V ~ -2/x^2 at the wall x = 0, a fall to the
            # centre: the lowest levels drop like h^-2, so the order reads -2
            (Variant.PT, [250, 500, 1000, 2000], -2.1, -1.9),
        ],
        ids=["base", "pt"],
    )
    def test_observed_order_reads_the_third_grid(self, variant, N_list, lo, hi):
        spec = PotentialSpec(family=Family.TrigScarf, variant=variant, A=-2.0)
        rep = convergence_study(spec, default_domain(spec), N_list, n_levels=2)
        assert [lo <= lv.observed_order <= hi for lv in rep.levels] == [True, True]

    def test_trig_ground_state_extrapolates_to_4(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        rep = convergence_study(spec, box_domain(), [1000, 2000], n_levels=1)
        assert abs(rep.levels[0].extrapolated - 4.0) < 1e-5

    def test_one_grid_is_refused(self):
        # a Richardson study needs two grids
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        with pytest.raises(ValueError, match="at least 2 entries"):
            convergence_study(spec, box_domain(), [1000])

    @pytest.mark.parametrize("N_list", [[500, 500], [1000, 500, 1000]])
    def test_repeated_grid_size_raises(self, N_list):
        # equal grids would divide the Richardson step by h1^2 - h2^2 = 0
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        with pytest.raises(ValueError, match="repeats a grid size"):
            convergence_study(spec, box_domain(), N_list)

    def test_manning_rosen_deep_well_truncation_stable(self):
        # bound levels below threshold -40 are stable across L in {12, 16}
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        vals = {}
        for L in (12.0, 16.0):
            dom = default_domain(spec, L=L)
            rep = convergence_study(spec, dom, [1200, 2400], n_levels=2)
            vals[L] = [lv.extrapolated.real for lv in rep.levels]
        for a, b in zip(vals[12.0], vals[16.0]):
            assert abs(a - b) <= 1e-4 * abs(b)


# the grid of a cold trig A = -2 verify, and fig7, a complex grid whose real
# part the Aberth start solves by dsterf, at verify's default L
def _lapack_grid(name):
    if name == "trig":
        spec, N = PotentialSpec(family=Family.TrigScarf, A=-2.0), 3000
    else:
        spec, N = PotentialSpec(**_PRESETS["fig7"][0]), 800
    return discretize(spec, default_domain(spec, L=12.0), N)


@pytest.fixture(params=["file", "missing", "unloadable"])
def lapack_route(request, monkeypatch, tmp_path):
    """The oracle's LAPACK module as it loads from its file, or as the
    fallback gives it where the file is not found or does not load."""
    if request.param != "file":
        if request.param == "unloadable":
            (tmp_path / "linalg").mkdir()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(b"not an extension")
        held = dict(sys.modules)
        with monkeypatch.context() as patch:
            patch.setattr(importlib.util, "find_spec", lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
            with pytest.raises(ImportError):
                oracle._flapack_from_file()
            module = oracle._load_flapack()
        assert module is scipy.linalg._flapack and sys.modules == held
        monkeypatch.setattr(oracle, "_flapack", module)
    return request.param


class TestLapackRoutes:
    """The oracle's LAPACK calls give the bits of the scipy.linalg functions
    whose calls they repeat, by either route to the module."""

    @pytest.mark.parametrize("name", ["trig", "fig7"])
    def test_tridiagonal_eigenvalues_keep_their_bits(self, lapack_route, name, monkeypatch):
        monkeypatch.setattr(oracle, "_WINDOW_SHARE", 1)  # bisect the windows, to compare their bits
        H = _lapack_grid(name)
        d, b = H.diagonal.real, H.offdiagonal
        off = np.full(H.N - 1, b)
        whole = eigvalsh_tridiagonal(d, off, lapack_driver="sterf")
        assert _same_bits(oracle._real_eigenvalues(d, b, _window(H)).eigs, whole)
        below = 0.5 * (whole[39] + whole[40])
        for more, k in [(0, 40), (20, 60)]:
            window = _window(H, 6, below, more)
            assert window.k == k and not window.whole
            by_index = eigvalsh_tridiagonal(d, off, select="i", select_range=(0, k - 1), lapack_driver="stebz")
            assert _same_bits(oracle._real_eigenvalues(d, b, window).eigs, by_index)

    @pytest.mark.parametrize("name", ["trig", "fig7"])
    def test_a_certify_block_keeps_its_bits(self, lapack_route, name, monkeypatch):
        # fig7 hands every bound over, so the five witnesses make the block:
        # its shifted copies of H, uncoupled down one band, solved as
        # scipy's solve_banded solves that band
        H = _lapack_grid(name)
        if H.is_real:
            eigs, bounds, _, _ = oracle._real_eigenvalues(H.diagonal, H.offdiagonal, _window(H))
        else:
            eigs, bounds = oracle._aberth(H.diagonal, H.offdiagonal)
            order = np.argsort(eigs.real)
            eigs, bounds = eigs[order], bounds[order]
        solve, widths = oracle.solve_banded, []

        def both(d, b, shifts, rhs):
            m, n = rhs.shape
            band = np.zeros((3, m * n), dtype=complex)
            band[0, 1:] = band[2, :-1] = b
            band[0, n::n] = band[2, n - 1 :: n] = 0.0
            band[1] = (d - shifts[:, None]).ravel()
            want = solve_banded((1, 1), band, rhs.ravel(), overwrite_b=True, check_finite=False)
            got = solve(d, b, shifts, rhs)
            assert _same_bits(got.ravel(), want)
            widths.append(m * n)
            return got

        monkeypatch.setattr(oracle, "solve_banded", both)
        oracle._certify(H, eigs.astype(complex), bounds)
        assert widths == [5 * H.N] * 3

    @pytest.mark.parametrize("d", [np.array([1.0, 2.0, 0.0, 3.0]), np.array([1.0, 2.0j, 0.0, 3.0])], ids=["dgtsv", "zgtsv"])
    def test_a_singular_solve_raises_linalg_error(self, d):
        # b = 0 leaves T diagonal, and its zero makes it singular.  A real
        # band goes to dgtsv, a complex one to zgtsv
        routine = "zgtsv" if np.iscomplexobj(d) else "dgtsv"
        with pytest.raises(np.linalg.LinAlgError, match=f"{routine}: singular matrix"):
            oracle.solve_banded(d, 0.0, np.zeros(1), np.ones((1, 4), dtype=d.dtype))

    def test_a_diagonal_that_is_not_finite_is_refused(self):
        # the check_finite=True of eigvalsh_tridiagonal
        d, e = np.array([1.0, math.nan, 2.0]), np.ones(2)
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle._sterf(d, e)
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle._stebz(d, e, 2)
