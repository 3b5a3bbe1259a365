import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from ptspec.errors import NonIntegrableWeight, NotNormalizable
from ptspec.core_math import LowPoly
from ptspec.families import FAMILIES
from ptspec.nu_engine import BranchCandidate, NUTrace, build_form, solve_level
from ptspec.potentials import DomainKind, DomainSpec, Family, PotentialSpec, default_domain
from ptspec.wavefunctions import _simpson, assemble, eval_psi, node_count, normalize


def trig(A=-2.0):
    return PotentialSpec(family=Family.TrigScarf, A=A)


def solved(spec, n, energy):
    """The pipeline's level n, which must be the expected energy, and its
    eigenfunction."""
    e, trace = solve_level(spec, n)
    assert abs(e - energy) < 1e-10 * (1 + abs(energy))
    return e, assemble(spec, trace, n)


class TestAssembleTrig:
    def test_ground_state_structure(self):
        # psi_0 ~ (1 - s^2)^(lambda/2) with lambda = 1/2 + sqrt(1/4 - beta) = 2
        _, wf = solved(trig(), 0, 4.0)
        exps = [e for _, e, _ in wf.prefactor.roots]
        assert all(abs(e - 1.0) < 1e-12 for e in exps)  # lambda/2 per root
        assert wf.jacobi.n == 0
        # P_0 = 1: the peak value at s=0 comes from the prefactor alone
        x_mid = math.pi / 2
        assert abs(eval_psi(wf, x_mid) - 1.0) < 1e-12

    def test_derived_jacobi_indices(self):
        # weight (1 - s^2)^c with c = sqrt(1/4 - beta) = 3/2
        _, wf = solved(trig(), 1, 9.0)
        assert abs(wf.jacobi.nu1 - 1.5) < 1e-12
        assert abs(wf.jacobi.nu2 - 1.5) < 1e-12

    def test_first_excited_is_odd_about_center(self):
        _, wf = solved(trig(), 1, 9.0)
        d = 0.3
        left = eval_psi(wf, math.pi / 2 - d)
        right = eval_psi(wf, math.pi / 2 + d)
        assert abs(left + right) < 1e-12 * (1 + abs(left))

    def test_phi_consistency_with_pi_over_sigma(self):
        # d(ln phi)/ds - pi/sigma = 0 pointwise on the sampled s-range
        spec = trig()
        _, trace = solve_level(spec, 0)
        wf = assemble(spec, trace, 0)
        ss = np.linspace(-0.9, 0.9, 41)
        h = 1e-6
        for s in ss:
            lp = np.log(wf.prefactor(np.array([s - h, s + h])))
            dlog = (lp[1] - lp[0]) / (2 * h)
            target = trace.chosen.pi(s) / trace.form.sigma(s)
            assert abs(dlog - target) < 1e-8 * (1 + abs(target))


class TestNormalization:
    def test_box_ground_state_constant(self):
        spec = trig(A=0.0)
        _, wf = solved(spec, 0, 1.0)
        dom = default_domain(spec)
        wfn = normalize(wf, dom, 3001)
        assert abs(wfn.norm_constant - math.sqrt(2 / math.pi)) < 1e-8

    def test_unit_norm_self_check(self):
        spec = trig()
        _, wf = solved(spec, 0, 4.0)
        dom = default_domain(spec)
        wfn = normalize(wf, dom, 2001)
        xs = np.linspace(dom.left, dom.right, 4005)[1:-1]
        total = simpson(np.abs(eval_psi(wfn, xs)) ** 2, x=xs)
        assert abs(total - 1.0) < 1e-8

    def test_doubling_points_is_stable(self):
        spec = trig()
        _, wf = solved(spec, 1, 9.0)
        dom = default_domain(spec)
        c1 = normalize(wf, dom, 2001).norm_constant
        c2 = normalize(wf, dom, 4001).norm_constant
        assert abs(c1 - c2) < 1e-9 * abs(c2)

    def test_manning_rosen_bound_state_decays(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        e0, wf = solved(spec, 0, -104.0)
        dom = default_domain(spec, L=16.0)
        vals = np.abs(eval_psi(wf, np.array([2.0, 6.0, 12.0, 15.5])))
        assert vals[-1] < 1e-6 * np.max(vals)
        wfn = normalize(wf, dom, 4001)
        assert node_count(wfn, dom) == 0


class TestSimpson:
    """The in-package rule against SciPy's, which is imported here only as
    the reference: equal bits, not merely close values."""

    @staticmethod
    def same_bits(y, x):
        ours, ref = _simpson(y, x), float(simpson(y, x=x))
        assert ours.hex() == ref.hex()

    @pytest.mark.parametrize("n_points", [1001, 2001, 3001, 4001])
    @pytest.mark.parametrize("left,right", [(0.0, math.pi), (-16.0, 16.0), (1e-3, 16.0)])
    def test_normalize_grids(self, n_points, left, right):
        xs = np.linspace(left, right, n_points + 2)[1:-1]
        rng = np.random.default_rng(n_points)
        self.same_bits(rng.random(n_points) * np.exp(-(xs**2)), xs)

    @pytest.mark.parametrize("size", [3, 5, 7, 101, 1001, 2001])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_unequal_spacing(self, size, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, size)) - 3.0
        self.same_bits(rng.normal(size=size), x)

    def test_normalize_constants_keep_the_reference_bits(self):
        spec = trig()
        dom = default_domain(spec)
        xs = np.linspace(dom.left, dom.right, 2003)[1:-1]
        for n, energy in [(0, 4.0), (1, 9.0), (2, 16.0), (3, 25.0)]:
            _, wf = solved(spec, n, energy)
            ref = wf.norm_constant / math.sqrt(simpson(np.abs(eval_psi(wf, xs)) ** 2, x=xs))
            assert normalize(wf, dom).norm_constant == ref

    def test_even_point_count_is_the_next_odd(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        _, wf = solved(spec, 0, -104.0)
        dom = default_domain(spec, L=16.0)
        for n_points in (1000, 2000, 4000):
            assert normalize(wf, dom, n_points).norm_constant == normalize(wf, dom, n_points + 1).norm_constant


class TestNodes:
    @pytest.mark.parametrize("n,energy", [(0, 4.0), (1, 9.0), (2, 16.0), (3, 25.0), (4, 36.0)])
    def test_node_theorem(self, n, energy):
        spec = trig()
        _, wf = solved(spec, n, energy)
        assert node_count(wf, default_domain(spec)) == n

    def test_center_node_for_n1(self):
        spec = trig()
        _, wf = solved(spec, 1, 9.0)
        assert abs(eval_psi(wf, math.pi / 2)) < 1e-12


class TestErrorPaths:
    def test_non_integrable_weight(self):
        # hand-built trace whose rho exponent at s = +-1 is -3/2, weighed as
        # the pipeline weighs it; assembly words the refusal from the weight
        spec = trig()
        form = build_form(spec, 4.0)
        pi = LowPoly(0.0, 1.0, 0.0)  # tau = tau_tilde + 2 pi = s
        chosen = BranchCandidate(
            k=0.0, sign=1, pi=pi, tau=form.tau_tilde + pi.scale(2.0), square_residual=0.0, weight_integrable=False
        )
        assert chosen.tau_slope == 1.0 and chosen.lam == 1.0 and not chosen.admissible
        trace = NUTrace(form=form, chosen=chosen, candidates=(chosen,))
        with pytest.raises(NonIntegrableWeight, match="-1.5"):
            assemble(spec, trace, 0)

    def test_psi_that_underflows_on_the_sample(self):
        # the deep well's ground state decays as e^{-sqrt(104) x}: on
        # (80, 96) every sample of psi is 0.0, which is no normalizable psi
        # (deleting this check left the zero integral to word it)
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        _, wf = solved(spec, 0, -104.0)
        with pytest.raises(NotNormalizable, match="vanishes identically"):
            normalize(wf, DomainSpec(DomainKind.HalfLine, 80.0, 96.0))

    def test_tail_that_does_not_decay(self):
        # cut at L = 0.5 the half-line holds only the rise of the ground
        # state, so its right edge carries most of the density
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        _, wf = solved(spec, 0, -104.0)
        with pytest.raises(NotNormalizable, match="does not decay"):
            normalize(wf, default_domain(spec, L=0.5))

    def test_density_that_overflows(self):
        # |1e200 psi|^2 is inf wherever psi is not tiny: the integral is not
        # finite, and 1/sqrt(inf) would make the constant 0
        spec = trig()
        _, wf = solved(spec, 0, 4.0)
        with np.errstate(over="ignore"), pytest.raises(NotNormalizable, match="non-finite"):
            normalize(replace(wf, norm_constant=1e200), default_domain(spec))


class TestExport:
    def test_coordinate_maps(self):
        def s_of(spec, x):
            return FAMILIES[spec.family].s_map(spec, x)

        assert abs(s_of(trig(), 0.0) - 1.0) < 1e-15
        mrspec = PotentialSpec(family=Family.ManningRosen, A=1.0, B=1.0, q=1.0)
        assert abs(s_of(mrspec, 0.0) - 1.0) < 1e-15
        hspec = PotentialSpec(family=Family.HyperbolicScarf, V0=1, V1=1, V2=1, q=4.0)
        # at the wall, cosh_q = sqrt(q)
        wall = math.log(4.0) / 2.0
        assert abs(s_of(hspec, wall) - 2.0) < 1e-12
