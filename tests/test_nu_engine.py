import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec import nu_engine
from ptspec.core_math import LowPoly, canonical_json, poly_roots, sqrt_principal
from ptspec.errors import DegenerateDiscriminant, DegenerateTermination, NoAdmissibleBranch, UnsupportedVariant
from ptspec.nu_engine import (
    build_form,
    k_candidates,
    select_branch,
    solve_level,
    solve_spectrum_numeric,
    synthetic_form,
    termination_poly,
    trace_to_dict,
)
from ptspec.potentials import Family, PotentialSpec, Variant


def trig(A=-2.0, **kw):
    return PotentialSpec(family=Family.TrigScarf, A=A, **kw)


FIG4 = PotentialSpec(family=Family.ManningRosen, A=10.0, B=1.0, q=-4.0)
FIG1 = PotentialSpec(family=Family.HyperbolicScarf, V0=10.0, V1=15.0, V2=10.0, q=10.0)
MR_DEEP = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)


class TestBuildForm:
    def test_trig_sigma_tilde(self):
        form = build_form(trig(), 4.0)
        assert form.sigma.coeffs() == (1.0, 0.0, -1.0)
        assert form.tau_tilde.coeffs() == (0.0, -1.0, 0.0)
        assert form.sigma_tilde.coeffs() == (2.0, 0.0, -4.0)  # -eps s^2 + eps + beta

    def test_hyperbolic_degenerate(self):
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=0.0, V2=0.0, q=1.0)
        form = build_form(spec, 1.0)
        assert form.sigma.coeffs() == (-1.0, 0.0, 1.0)
        assert form.sigma_tilde.coeffs() == (-1.0, 0.0, 1.0)  # s^2 - 1

    def test_manning_rosen_degenerate(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=0.0, B=0.0, q=1.0)
        # eps = -E/(k a^2) = 1 at E = -1
        form = build_form(spec, -1.0)
        # -1/4 (1 - s)^2
        assert form.sigma_tilde.coeffs() == (-0.25, 0.5, -0.25)
        assert form.tau_tilde.coeffs() == (1.0, -1.0, 0.0)

    def test_s_interval_follows_the_spec(self):
        # the weight's s-interval follows the spec's q; a raw triple gets (-1, 1)
        hyp = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=4.0)
        assert build_form(hyp, 1.0).s_interval == (2.0, None)
        mr = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=2.0)
        assert build_form(mr, -1.0).s_interval == (0.0, 0.5)
        # below q = 1 the wall sinh_q = 0 maps to s = 1/q > 1
        mr = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=0.5)
        assert build_form(mr, -1.0).s_interval == (0.0, 2.0)
        assert build_form(trig(), 4.0).s_interval == (-1.0, 1.0)
        raw = synthetic_form(LowPoly(1, 0, 0), LowPoly(0, 1, 0), LowPoly(0, 0, 0))
        assert raw.s_interval == (-1.0, 1.0)

    def test_variants_rejected(self):
        with pytest.raises(UnsupportedVariant):
            build_form(PotentialSpec(family=Family.TrigScarf, variant=Variant.PT, A=1.0), 1.0)

    def test_reduced_roundtrip(self):
        # the trial energy maps back from the coefficient of sigma_tilde that
        # carries it: trig c2 = -E/(k a^2), hyperbolic c0 = -q (E - V0)/(k a^2),
        # Manning-Rosen c0 = (E - A)/(4 k a^2)
        for spec, e, energy_of in (
            (trig(alpha=2.0), 7.3, lambda st: -4.0 * st.c2),
            (
                PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=5.0, V2=0.5, q=2.0),
                3.7,
                lambda st: 1.0 - st.c0 / 2.0,
            ),
            (PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0), -5.1, lambda st: 4.0 * st.c0 - 4.0),
        ):
            sigma_tilde = build_form(spec, e).sigma_tilde
            assert abs(energy_of(sigma_tilde) - e) < 1e-12 * (1 + abs(e))


class TestKCandidates:
    def test_trig_k_pair(self):
        # eps = 4, beta = -2: k in {eps + 1/4, eps + beta}
        form = build_form(trig(), 4.0)
        ks = sorted(k_candidates(form), key=lambda z: z.real)
        assert abs(ks[0] - 2.0) < 1e-13
        assert abs(ks[1] - 4.25) < 1e-13

    def test_trig_coincident(self):
        # beta = 1/4, eps = 0: both k = 1/4
        spec = trig(A=0.25)
        form = build_form(spec, 0.0)
        k1, k2 = k_candidates(form)
        assert abs(k1 - 0.25) < 1e-13 and abs(k2 - 0.25) < 1e-13

    def test_hyperbolic_k_against_discriminant_relation(self):
        # k = eps^2 - 1/8 - beta^2/2 +- mu/(32 q): the value forced by the
        # perfect-square condition (the published +-mu/4 label does not
        # reproduce a perfect square).
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0)
        eps = 1.3
        form = build_form(spec, eps**2)  # E = V0 + eps^2 with V0 = 0
        # beta^2 = V1/(k a^2) and gamma^2 = V2/(k a^2), with k a^2 = 1
        b2, g4, q = spec.V1, spec.V2**2, 1.0
        mu = 4 * q * sqrt_principal((4 * b2 + 1) ** 2 - 16 * g4 / q)
        expected = {eps**2 - 0.125 - b2 / 2 + mu / (32 * q), eps**2 - 0.125 - b2 / 2 - mu / (32 * q)}
        for k in k_candidates(form):
            assert min(abs(k - e) for e in expected) < 1e-10

    def test_perfect_square_residual(self):
        for spec, e in (
            (trig(), 4.0),
            (PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=0.0, q=1.0), 1.0),
            (PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), -104.0),
        ):
            trace = select_branch(build_form(spec, e))
            for c in trace.candidates:
                assert c.square_residual <= 1e-10

    def test_degenerate_discriminant(self):
        form = synthetic_form(LowPoly(0, 0, 1), LowPoly(0, 0, 0), LowPoly(0, 0, 0))
        with pytest.raises(DegenerateDiscriminant):
            k_candidates(form)

    @pytest.mark.parametrize("energy", [0.0, -3.0, 7.0, 1.234567])
    def test_fig4_k_pair_does_not_split(self, energy):
        # fig4's D(k) has the double root k = 19 at every E; at E = 1.234567
        # rounding left a discriminant of 2e-13, and the pair split into
        # 19 +- 2.4e-7
        form = build_form(FIG4, energy)
        k1, k2 = k_candidates(form)
        assert k1 == k2
        assert abs(k1 - 19.0) <= 1e-14 * 19.0
        if energy in (0.0, -3.0, 7.0):
            assert k1 == 19.0

    @pytest.mark.parametrize(
        "spec,energy,pair",
        [
            (trig(), 4.0, (4.25, 2.0)),
            (
                PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=5.0, V2=0.5, q=2.0),
                3.7,
                # eps^2 - 1/8 - beta^2/2 +- mu/(32 q) of the audited triple, to one ulp
                (2.6940408549696206, -2.544040854969621),
            ),
            (
                PotentialSpec(family=Family.ManningRosen, A=3.3, B=0.7, q=-4.0),
                -1.3,
                (8.249468024894146, 3.5505319751058533),
            ),
        ],
    )
    def test_distinct_pair_keeps_its_bits(self, spec, energy, pair):
        # the values before the discriminant was snapped at its rounding level
        assert k_candidates(build_form(spec, energy)) == pair


class TestSelectBranch:
    def test_trig_accepted_slope(self):
        # beta = -2: accepted tau = -2s(1 + sqrt(9/4)) = -5s
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        assert abs(trace.chosen.tau.c1 + 5.0) < 1e-13
        assert abs(trace.chosen.tau.c0) < 1e-13
        assert trace.chosen.tau_slope.real < 0
        assert abs(trace.chosen.k - 2.0) < 1e-13

    def test_hyperbolic_accepted_matches_zeta_form(self):
        # accepted tau = -(zeta1 - 2) s - sqrt(q) zeta2 with Re zeta1 > 2
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=1.0, q=1.0)
        form = build_form(spec, 1.0)
        trace = select_branch(form)
        z1, z2 = trace.aux["zeta1"], trace.aux["zeta2"]
        assert z1.real > 2
        assert abs(trace.chosen.tau.c1 + (z1 - 2.0)) < 1e-12
        assert abs(abs(trace.chosen.tau.c0) - abs(z2)) < 1e-12

    def test_all_positive_slopes_raise(self):
        # sigma = s^2 + 1, tau_tilde = s, sigma_tilde = s^2/4: the radicand
        # vanishes identically at the double root k = 0, so all four
        # candidates share tau = 2s with positive slope.
        form = synthetic_form(LowPoly(1, 0, 1), LowPoly(0, 1, 0), LowPoly(0, 0, 0.25))
        with pytest.raises(NoAdmissibleBranch) as err:
            select_branch(form)
        assert len(err.value.candidates) == 4
        assert all(c.tau_slope.real >= 0 for c in err.value.candidates)

    def test_hermite_like_form_is_admissible(self):
        # sigma = 1, tau_tilde = s, sigma_tilde = 0 admits pi = -s with
        # tau = -s (the harmonic-oscillator weight), so it cannot serve as a
        # no-admissible-branch fixture.
        form = synthetic_form(LowPoly(1, 0, 0), LowPoly(0, 1, 0), LowPoly(0, 0, 0))
        trace = select_branch(form)
        assert abs(trace.chosen.tau.c1 + 1.0) < 1e-14

    def test_identities_tau_and_lambda(self):
        for spec, e in (
            (trig(), 9.0),
            (PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=5.0, V2=0.5, q=2.0), 2.0),
            (PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), -53.0),
        ):
            form = build_form(spec, e)
            trace = select_branch(form)
            for c in trace.candidates:
                # tau = tau_tilde + 2 pi, exact coefficientwise
                assert c.tau.c0 == form.tau_tilde.c0 + 2 * c.pi.c0
                assert c.tau.c1 == form.tau_tilde.c1 + 2 * c.pi.c1
                # lambda = k + pi'
                assert c.lam == c.k + c.pi.c1


def level_equation(trace, n):
    """F_n of the trace's accepted branch."""
    return nu_engine._f_n(trace.chosen.tau_slope, trace.form.sigma, n, trace.chosen.lam)


class TestWeightFailure:
    @pytest.mark.parametrize("energy", [-41.0, -41.000000000000014])
    def test_exponent_minus_one_is_not_integrable(self, energy):
        # the deep well's n = 2 level, at the energy polished from P_2 and two
        # ulps off it: the k = 19.5, sign -1 branch has rho ~ s^-1 at s = 0,
        # computed as -1 and as -0.99999999999999911
        form, cands = nu_engine.branches(MR_DEEP, energy)
        (c,) = [c for c in cands if abs(c.k - 19.5) < 1e-12 and c.sign == -1]
        _, exps = nu_engine.weight_exponents(form, c.tau)
        assert min(abs(e + 1.0) for e in exps) < 1e-14
        assert "not integrable" in nu_engine.weight_failure(form, c.tau)


class TestLevelEquation:
    def test_n0_is_lambda(self):
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        assert level_equation(trace, 0) == trace.chosen.lam

    def test_n2_trig_coefficients(self):
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        # sigma'' = -2: F_2 = lambda + 2 tau' - 2
        assert abs(level_equation(trace, 2) - (trace.chosen.lam + 2 * trace.chosen.tau_slope - 2.0)) < 1e-14

    def test_root_reproduces_closed_form(self):
        # F_n = 0 at eps = (n + 1/2 + sqrt(1/4 - beta))^2 for the trig family
        spec = trig()
        for n in range(4):
            e = (n + 2.0) ** 2
            form = build_form(spec, e)
            trace = select_branch(form)
            assert abs(level_equation(trace, n)) < 1e-12
            assert abs(np.polyval(termination_poly(spec, n), e)) < 1e-9


# One spec per family, each given by its reduced triple in exact arithmetic:
# (spec, sigma, tau_tilde, sigma_tilde as functions of the symbols s, E and
# the sympy module).  Manning-Rosen at alpha = 1.3, where sigma_tilde's slope
# in E is inexact in binary, so rounding must not raise P_n's degree above 2.
def _exact_triples():
    def trig_triple(s, E, sp):
        eps, beta = E, sp.Integer(-2)
        return 1 - s**2, -s, (eps + beta) - eps * s**2

    def hyp_triple(s, E, sp):
        # beta^2 = V1/(k a^2) and gamma^2 = V2/(k a^2) at every q (test_reductions)
        q = sp.Integer(2)
        e2, b2, g2 = E - 1, sp.Integer(5), sp.Rational(1, 2)
        return s**2 - q, s, -q * e2 - g2 * s + (e2 - b2) * s**2

    def mr_triple(s, E, sp):
        q, ka2 = sp.Integer(2), sp.Rational(169, 100)
        eps, beta, gamma = -E / ka2, -40 / ka2, 8 / ka2
        return s - q * s**2, 1 - q * s, ((-eps - beta) + (2 * eps * q - gamma) * s + q**2 * (beta - eps) * s**2) / 4

    return {
        "trig": (trig(), trig_triple),
        "hyperbolic": (
            PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=5.0, V2=0.5, q=2.0),
            hyp_triple,
        ),
        "manning-rosen": (
            PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=2.0, alpha=1.3),
            mr_triple,
        ),
    }


class TestTerminationPoly:
    @pytest.mark.parametrize("family", ["trig", "hyperbolic", "manning-rosen"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_matches_exact_resultant(self, family, n):
        # P_n is the resultant in k of the radicand's s-discriminant D(k) and
        # F_n^+ F_n^-, the product of F_n over the two signs of sqrt(Q_2)
        sp = pytest.importorskip("sympy")
        s, E, k = sp.symbols("s E k")
        spec, triple = _exact_triples()[family]
        sigma, tau_t, sigma_t = triple(s, E, sp)
        p = (sp.diff(sigma, s) - tau_t) / 2
        Q = sp.Poly(sp.expand(p**2 - sigma_t + k * sigma), s)
        q0, q1, q2 = (Q.coeff_monomial(s**j) for j in range(3))
        D = sp.expand(q1**2 - 4 * q2 * q0)
        a = sp.sqrt(q2)
        lam = lambda sgn: k + sp.diff(p, s) + sgn * a  # noqa: E731
        tau1 = lambda sgn: sp.diff(tau_t + 2 * (p + sgn * a * s), s)  # noqa: E731
        sig2 = sp.diff(sigma, s, 2) / 2
        F = [lam(sgn) + n * tau1(sgn) + n * (n - 1) * sig2 for sgn in (1, -1)]
        exact = sp.Poly(sp.resultant(D, sp.expand(F[0] * F[1]), k), E).all_coeffs()
        exact = np.array([complex(sp.N(c, 30)) for c in exact])
        got = termination_poly(spec, n)
        assert len(got) == len(exact)
        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_degrees(self):
        for family, degree in (("trig", 4), ("hyperbolic", 4), ("manning-rosen", 2)):
            spec, _ = _exact_triples()[family]
            assert len(termination_poly(spec, 2)) == degree + 1

    def test_free_manning_rosen_is_degenerate(self):
        # A = B = 0 (V = 0): F_0 vanishes at every energy on one branch
        spec = PotentialSpec(family=Family.ManningRosen, A=0.0, B=0.0, q=1.0)
        with pytest.raises(DegenerateTermination):
            termination_poly(spec, 0)
        with pytest.raises(DegenerateTermination):
            solve_level(spec, 0)


class TestSolveSpectrum:
    def test_negative_level_raises(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            solve_level(trig(), -1)

    def test_trig_scarf_levels(self):
        res = solve_spectrum_numeric(trig(), 3)
        for n, e in res.entries:
            assert abs(e - (n + 2.0) ** 2) < 1e-10

    def test_hyperbolic_v2_zero_matches_closed_form(self):
        from ptspec.spectra import closed_form_spectrum

        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=0.0, q=1.0)
        res = solve_spectrum_numeric(spec, 2)
        ref = closed_form_spectrum(spec, 2)
        for (_, a), (_, b) in zip(res.entries, ref.entries):
            assert abs(a - b) <= 1e-8 * (1 + abs(b))

    def test_manning_rosen_deep_well(self):
        # frozen from the termination condition solved by hand:
        # eps_n = L^2/4 + beta^2/L^2 with L = sqrt(1+gamma/q) + (2n+1),
        # beta = -40, gamma = 8 (independently confirmed by the grid oracle)
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        res = solve_spectrum_numeric(spec, 2)
        expected = [-104.0, -(9 + 1600 / 36), -41.0]
        for (n, e), ref in zip(res.entries, expected):
            assert abs(e - ref) < 1e-9 * (1 + abs(ref))
        for t in res.traces:
            assert t.chosen.tau_slope.real < 0

    @pytest.mark.parametrize("A", [0.0, 0.1, -0.5])
    def test_most_negative_tau_slope_wins(self, A):
        # for -3/4 < A < 1/4 both roots (n + 1/2 +- sqrt(1/4 - A))^2 lie on
        # branches with Re(tau') < 0 and integrable weights; the Dirichlet
        # level is the one with the more negative tau' = -2 - 2 sqrt(1/4 - A)
        # (at A = 0.1, n = 5 its |F_5| cannot go below 2e-11: rounding of
        # terms near 35, which the residual of _f_residual allows for)
        res = solve_spectrum_numeric(trig(A=A), 5)
        root = math.sqrt(0.25 - A)
        for (n, e), t in zip(res.entries, res.traces):
            assert abs(e - (n + 0.5 + root) ** 2) < 1e-10 * (n + 1) ** 2
            assert abs(t.chosen.tau_slope - (-2.0 - 2.0 * root)) < 1e-10

    def test_manning_rosen_below_q_one_screens_weight_up_to_the_wall(self):
        # q = 1/2: s = e^{-2 alpha x} runs from 1/q = 2 at the wall to 0.  The
        # levels are -(L^2/4 + beta^2/L^2) with L = sqrt(1 + gamma/q) + 2n + 1
        # = 2n + 4 (the grid oracle agrees to 2e-5); with the weight screened
        # on s in (0, 1) only, a root at -17135 won n = 1
        spec = PotentialSpec(family=Family.ManningRosen, A=-100.0, B=1.0, q=0.5)
        for n, e in solve_spectrum_numeric(spec, 4).entries:
            L = 2.0 * n + 4.0
            ref = -(L * L / 4.0 + 1e4 / (L * L))
            assert abs(e - ref) < 1e-10 * abs(ref)

    def test_deep_well_root_passes_at_its_rounding_level(self):
        # E_0 = -947.5 with tau' = -108: the terms of F_0 round to |F_0| of
        # 1e-12 to 3e-12 at every polished energy, so an absolute 1e-12 test
        # refused the ground level
        spec = PotentialSpec(family=Family.ManningRosen, A=-145.5, B=9.16, q=2.37, alpha=0.74)
        ka2 = 0.74**2
        beta, gamma = -145.5 / ka2, 4 * 9.16 / ka2
        for n, e in solve_spectrum_numeric(spec, 3).entries:
            L = math.sqrt(1 + gamma / 2.37) + 2 * n + 1
            ref = -ka2 * (L * L / 4 + beta * beta / (L * L))
            assert abs(e - ref) < 1e-10 * abs(ref)

    def test_pipeline_reads_no_closed_form(self, monkeypatch):
        from ptspec import spectra

        specs = (
            trig(),
            PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0),
            PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0),
        )
        before = [solve_spectrum_numeric(spec, 5).entries for spec in specs]

        def forbidden(spec, n_max):
            raise AssertionError("the pipeline read the closed form")

        monkeypatch.setattr(spectra, "closed_form_spectrum", forbidden)
        assert [solve_spectrum_numeric(spec, 5).entries for spec in specs] == before

    def test_unexpected_errors_propagate(self, monkeypatch):
        # only package errors mean "no branch"; a bug must not turn into
        # NoAdmissibleBranch
        def broken(spec, energy):
            raise ZeroDivisionError("bug in build_form")

        monkeypatch.setattr(nu_engine, "build_form", broken)
        with pytest.raises(ZeroDivisionError):
            solve_level(PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), 0)

    def test_weight_checked_only_at_real_roots(self, monkeypatch):
        # integrability is read, never while polishing, for the branch on
        # which F_n vanishes at each real root of P_n (two for the
        # Manning-Rosen deep well at n = 0, one branch each) and then once
        # for the four candidates of the accepted form, which the trace shows
        calls = []
        real = nu_engine.weight_failure

        def counted(form, tau):
            calls.append(tau)
            return real(form, tau)

        monkeypatch.setattr(nu_engine, "weight_failure", counted)
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        assert len(poly_roots(termination_poly(spec, 0))) == 2
        solve_level(spec, 0)
        assert len(calls) == 6

    def test_polishing_builds_each_energy_once(self, monkeypatch):
        # a Newton step that leaves E as it is ends the polish: a form built
        # again at the same E gives the same residuals
        energies = []
        real = nu_engine.build_form

        def recorded(spec, energy):
            energies.append(energy)
            return real(spec, energy)

        blind_spot = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0)
        starts = []
        for spec in (trig(), MR_DEEP, FIG4, blind_spot):
            for n in range(6):
                poly = termination_poly(spec, n)
                dpoly = tuple((len(poly) - 1 - i) * a for i, a in enumerate(poly[:-1]))
                starts += [(spec, n, dpoly, root.real) for root in poly_roots(poly)]
        monkeypatch.setattr(nu_engine, "build_form", recorded)
        polished = 0
        for spec, n, dpoly, e in starts:
            energies.clear()
            nu_engine._polished(spec, n, dpoly, e)
            assert len(set(energies)) == len(energies), (spec, n, energies)
            polished += len(energies) > 1
        assert polished  # some roots take more than one form

    @pytest.mark.parametrize("spec, forms", [(trig(), 40), (MR_DEEP, 26)])
    def test_forms_built_per_spectrum(self, monkeypatch, spec, forms):
        # the deterministic count behind the pipeline's wall time: two forms
        # for P_n and the polishing forms of each real root, n = 0..5 solved
        # one level at a time; a spectrum builds the two P_n forms once
        calls = []
        real = nu_engine.build_form

        def counted(spec, energy):
            calls.append(energy)
            return real(spec, energy)

        monkeypatch.setattr(nu_engine, "build_form", counted)
        levels = [solve_level(spec, n) for n in range(6)]
        assert len(calls) == forms
        calls.clear()
        res = solve_spectrum_numeric(spec, 5)
        assert len(calls) == forms - 2 * 5
        assert res.entries == [(n, e) for n, (e, _) in enumerate(levels)]
        assert [nu_engine.trace_to_dict(t) for t in res.traces] == [nu_engine.trace_to_dict(t) for _, t in levels]

    def test_trace_records_level_and_branch(self):
        _, trace = solve_level(trig(), 1)
        assert set(trace.notes) == {"n", "energy"}
        assert trace.notes["n"] == 1 and abs(trace.notes["energy"] - 9.0) < 1e-12
        assert len(trace.candidates) == 4
        assert all(c.weight_integrable is not None for c in trace.candidates)

    @pytest.mark.xfail(strict=True, reason="no bound state; the pipeline still returns non-levels")
    @pytest.mark.parametrize("spec", [FIG4, FIG1], ids=["fig4", "fig1"])
    def test_fig4_has_no_level(self, spec):
        # V > -10 everywhere for fig4, and V > 25 for fig1 with every level
        # it gives (13.5 to 24.9) below 25, so no energy is a bound state;
        # every root of P_n that polishes lies on a branch whose weight is
        # not integrable, and the pipeline still accepts it (by Re(tau') < 0
        # alone) instead of refusing
        for n in range(6):
            with pytest.raises(NoAdmissibleBranch):
                solve_level(spec, n)

    def test_no_admissible_root_lists_rejected_branches(self):
        # Manning-Rosen A=-40, B=2 at n = 6: both real roots of P_6 lie on
        # branches with Re(tau') > 0
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        with pytest.raises(NoAdmissibleBranch) as err:
            solve_level(spec, 6)
        assert len(err.value.candidates) == 2
        assert all(not c.admissible and c.rejection for c in err.value.candidates)


class TestHyperbolicDeformation:
    # fig1's couplings; the published form depends on q only through V2/sqrt(q)
    @staticmethod
    def fig1(q, v2=10.0):
        return PotentialSpec(family=Family.HyperbolicScarf, V0=10.0, V1=15.0, V2=v2, q=q)

    @pytest.mark.parametrize("q", [1.0, 2.0, 10.0])
    def test_zeta1_is_the_closed_form_radical(self, q):
        # zeta1 = sqrt(1/2 + 2 beta^2 + mu/(8 q)) is the outer radical of the
        # published E_n = V0 + V1 - k a^2 (n + 1/2 - outer/2)^2
        spec = self.fig1(q)
        inner = sqrt_principal((4.0 * 15.0 + 1.0) ** 2 - 16.0 * 10.0**2 / q)
        outer = sqrt_principal(0.5 + 2.0 * 15.0 + 0.5 * inner)
        _, trace = solve_level(spec, 0)
        assert abs(trace.aux["zeta1"] - outer) <= 1e-14 * abs(outer)

    def test_fig1_levels_are_the_closed_form_and_the_q1_translate(self):
        # V2 -> V2/sqrt(q) moves the form to q = 1 by a shift of x, which
        # changes no level
        from ptspec.spectra import closed_form_spectrum

        spec, translate = self.fig1(10.0), self.fig1(1.0, 10.0 / math.sqrt(10.0))
        closed = closed_form_spectrum(spec, 3).entries
        for (n, e), expected in zip(closed, (13.549582, 19.317275, 23.084969, 24.852662)):
            level = solve_level(spec, n)[0]
            assert round(level.real, 6) == expected and level.imag == 0.0
            assert abs(level - e) <= 1e-12 * abs(e)
            assert abs(level - solve_level(translate, n)[0]) <= 1e-12 * abs(e)


def _reference_level(spec, n):
    """solve_level as a plain polish-and-weigh loop: every root polished
    until its residual stops falling, all four candidates weighed at each
    polished root.  Returns (E, chosen, four candidates) or the refused
    candidates."""

    def f_n(c, sigma):
        return c.lam + n * c.tau_slope + 0.5 * n * (n - 1) * (2.0 * sigma.c2)

    def residual(c, sigma):
        size = abs(c.k) + abs(c.pi.c1) + n * abs(c.tau_slope) + n * (n - 1) * abs(sigma.c2)
        return abs(f_n(c, sigma)) / (1.0 + size)

    poly = termination_poly(spec, n)
    dpoly = tuple((len(poly) - 1 - i) * a for i, a in enumerate(poly[:-1]))
    found = []
    for root in poly_roots(poly):
        if abs(root.imag) > 1e-8 * (1.0 + abs(root)):
            continue
        e, best, best_r = root.real, None, math.inf
        for _ in range(nu_engine._POLISH_STEPS):
            form, cands = nu_engine.branches(spec, e)
            rs = [residual(c, form.sigma) for c in cands]
            if min(rs) >= best_r:
                break
            best, best_r = (e, form, cands, rs), min(rs)
            slope = 0.0
            for a in dpoly:
                slope = slope * e + a
            s0, s1, s2 = form.sigma.coeffs()
            f = math.prod(f_n(c, form.sigma) for c in cands)
            step = ((s1 * s1 - 4.0 * s2 * s0) ** 2 * f / slope).real if slope != 0 else math.inf
            if not abs(step) <= nu_engine._POLISH_REACH * (1.0 + abs(e)):
                break
            e -= step
        if best_r > nu_engine._F_TOL:
            continue
        e, form, cands, rs = best
        cands = [c._replace(weight_integrable=not nu_engine.weight_failure(form, c.tau)) for c in cands]
        found += [(e, cands, c) for c, r in zip(cands, rs) if r <= nu_engine._F_TOL]
    admissible = [t for t in found if t[-1].admissible]
    if not admissible:
        return [t[-1] for t in found]
    return min(admissible, key=lambda t: (not t[-1].weight_integrable, t[-1].tau_slope.real))


_PIPELINE_SPECS = st.one_of(
    st.builds(lambda A: trig(A=A), st.floats(-2.2, -1.8)),
    st.builds(
        lambda V1, V2: PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=V1, V2=V2, q=1.0),
        st.floats(5.6, 6.4),
        st.sampled_from([0.0, -2.8, -3.0, -3.2]),
    ),
    st.builds(
        lambda A: PotentialSpec(family=Family.ManningRosen, A=A, B=2.0, q=1.0),
        st.floats(-42.0, -38.0),
    ),
)


class TestReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(_PIPELINE_SPECS, st.integers(0, 7))
    def test_same_level_bit_for_bit(self, spec, n):
        # solve_level stops polishing a converged root and weighs only the
        # branches that terminate; the level, its branch and the four
        # candidates of the trace, or the refused candidates, are the ones
        # the plain loop gives, to the bit (repr keeps the sign of a zero)
        ref = _reference_level(spec, n)
        try:
            e, trace = solve_level(spec, n)
        except NoAdmissibleBranch as err:
            assert repr(err.candidates) == repr(ref)
            return
        assert isinstance(ref, tuple)
        assert repr((e, trace.chosen, trace.candidates)) == repr((complex(ref[0]), ref[2], tuple(ref[1])))


class TestTraceSerialization:
    def test_fixed_field_names(self):
        _, trace = solve_level(trig(), 0)
        d = trace_to_dict(trace)
        for key in (
            "sigma",
            "tau_tilde",
            "sigma_tilde",
            "k_candidates",
            "chosen_k",
            "pi",
            "tau",
            "tau_slope",
            "lambda",
            "lambda_n",
            "aux",
        ):
            assert key in d
        assert len(d["branches"]) == 4
        json.loads(canonical_json(trace_to_dict(trace)))

    def test_lambda_n_equals_lambda_at_root(self):
        _, trace = solve_level(trig(), 2)
        assert abs(trace.chosen.lam - trace.lambda_n) < 1e-10

    def test_hyperbolic_aux_present(self):
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=0.0, q=1.0)
        _, trace = solve_level(spec, 0)
        assert set(trace.aux) == {"zeta1", "zeta2", "mu"}
