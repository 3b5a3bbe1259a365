import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import linear_sum_assignment

from ptspec import oracle
from ptspec.errors import QRNotConverged, SingularityError
from ptspec.oracle import (
    ConjugationReport,
    GridHamiltonian,
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
            kappa=1.0,
        )
        eigs = eigen_complex_dense(H)
        assert abs(eigs[0].real - big) / big < 1e-2

    def test_pole_on_grid_raises(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0)
        dom = DomainSpec(DomainKind.HalfLine, -1.0, 1.0, L=2.0)  # includes x=0 pole region
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


def _dense_eigvals(H):
    """Test-local reference: the complex grid as a dense matrix, through the
    dense general eigensolver."""
    off = np.full(H.N - 1, H.offdiagonal)
    return np.linalg.eigvals(np.diag(H.diagonal) + np.diag(off, 1) + np.diag(off, -1))


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


class TestEigenSolver:
    def _manual(self, diag, off):
        n = len(diag)
        return GridHamiltonian(
            domain=DomainSpec(DomainKind.FiniteInterval, 0.0, float(n + 1)),
            N=n,
            h=1.0,
            diagonal=np.asarray(diag, dtype=complex),
            offdiagonal=off,
            kappa=1.0,
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
        oracle._certify(H, eigs)
        # an eigenvalue a five-element sample with the certification seed
        # would not draw, moved 100 times the residual bound off
        sampled = np.random.default_rng(7).choice(H.N, size=5, replace=False)
        i = min(set(range(H.N)) - set(sampled.tolist()))
        bound = oracle._RESIDUAL_BOUND * (np.max(np.abs(H.diagonal)) + 2.0 * abs(H.offdiagonal))
        eigs[i] += 100.0 * bound
        with pytest.raises(QRNotConverged, match="residual certification"):
            oracle._certify(H, eigs)

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
        # this grid takes 7 sweeps
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


def _log_derivatives(d, b2, z, tiny):
    """p'/p by both evaluation orders, each on its own copy of z."""
    return (
        oracle._recurrence_log_derivative(d, b2, z.copy(), tiny),
        oracle._reduction_log_derivative(d, b2, z.copy(), tiny),
    )


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
        # at the Aberth start, on the eigenvalues and just off them, the two
        # Newton ratios differ by rounding: a few hundred ulps of ||H|| at most
        H = _variant_grid(name, N)
        d, b = H.diagonal, H.offdiagonal
        ulp = np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * abs(b))
        eigs = eigen_complex_dense(H, certify=False)
        start = eigvalsh_tridiagonal(d.real, np.full(N - 1, b), lapack_driver="sterf") + 1j * np.mean(d.imag)
        for z in (start, eigs, eigs * (1.0 + 1e-6 * (1 + 1j))):
            rec, red = _log_derivatives(d, b * b, z, ulp)
            assert np.max(np.abs(1.0 / rec - 1.0 / red)) < 1000.0 * ulp

    def test_a_sweep_picks_the_order_by_its_root_count(self, monkeypatch):
        # fewer than N/8 roots take the reduction, in blocks of _BLOCK // N
        calls = []

        def stub(order):
            return lambda d, b2, z, tiny: calls.append((order, len(z))) or np.ones(len(z))

        monkeypatch.setattr(oracle, "_recurrence_log_derivative", stub("recurrence"))
        monkeypatch.setattr(oracle, "_reduction_log_derivative", stub("reduction"))
        monkeypatch.setattr(oracle, "_BLOCK", 4 * 80)
        d, z = np.zeros(80, dtype=complex), np.zeros(10, dtype=complex)
        assert len(oracle._newton_ratios(d, 1.0, z, 1e-13)) == 10
        assert len(oracle._newton_ratios(d, 1.0, z[:9], 1e-13)) == 9
        assert calls == [("recurrence", 10), ("reduction", 4), ("reduction", 4), ("reduction", 1)]


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


class TestMatchLevels:
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

    def test_trig_ground_state_extrapolates_to_4(self):
        spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
        rep = convergence_study(spec, box_domain(), [1000, 2000], n_levels=1)
        assert abs(rep.levels[0].extrapolated - 4.0) < 1e-5

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
