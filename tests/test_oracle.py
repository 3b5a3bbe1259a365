import math
import tracemalloc

import numpy as np
import pytest

from ptspec.errors import SingularityError
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
from ptspec.potentials import DomainKind, DomainSpec, Family, PotentialSpec, Variant, default_domain
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


# spec, L of default_domain, N
_REAL_GRIDS = {
    "box": (PotentialSpec(family=Family.TrigScarf, A=0.0), 12.0, 1000),
    "trig": (PotentialSpec(family=Family.TrigScarf, A=-2.0), 12.0, 1200),
    "hyp-blind-spot": (PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0), 14.0, 800),
    "mr-deep": (PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), 16.0, 600),
}


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
        # 6001 is the first size the dense budget refuses for a complex grid
        spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
        eigs = eigen_complex_dense(discretize(spec, box_domain(), 6001))
        assert len(eigs) == 6001
        assert np.max(np.abs(eigs[:3].real - [1.0, 4.0, 9.0])) < 1e-5

    def test_complex_grid_keeps_the_dense_budget(self):
        H = self._manual(np.full(6001, 2.0 + 0.5j), -1.0)
        with pytest.raises(ValueError, match="dense budget"):
            eigen_complex_dense(H)

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


class TestConjugationCheck:
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
