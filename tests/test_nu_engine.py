import json
import math

import numpy as np
import pytest

from ptspec import nu_engine
from ptspec.core_math import LowPoly, sqrt_principal
from ptspec.errors import DegenerateDiscriminant, NoAdmissibleBranch, UnsupportedVariant
from ptspec.nu_engine import (
    build_form,
    k_candidates,
    level_equation,
    select_branch,
    solve_level,
    solve_spectrum_numeric,
    synthetic_form,
    trace_to_dict,
    trace_to_json,
)
from ptspec.potentials import Family, PotentialSpec, Variant


def trig(A=-2.0, **kw):
    return PotentialSpec(family=Family.TrigScarf, A=A, **kw)


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

    def test_s_interval_fixed_at_build(self):
        # the weight's s-interval follows the spec's q; a raw triple gets (-1, 1)
        hyp = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=4.0)
        assert build_form(hyp, 1.0).s_interval == (2.0, None, True)
        mr = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=2.0)
        assert build_form(mr, -1.0).s_interval == (0.0, 0.5, False)
        assert build_form(trig(), 4.0).s_interval == (-1.0, 1.0, False)
        raw = synthetic_form(LowPoly(1, 0, 0), LowPoly(0, 1, 0), LowPoly(0, 0, 0))
        assert raw.s_interval == (-1.0, 1.0, False)

    def test_variants_rejected(self):
        with pytest.raises(UnsupportedVariant):
            build_form(PotentialSpec(family=Family.TrigScarf, variant=Variant.PT, A=1.0), 1.0)

    def test_reduced_roundtrip(self):
        # the reduced energy of the form maps back to the trial energy:
        # trig E = k a^2 eps, hyperbolic E = V0 + k a^2 eps^2, Manning-Rosen E = -k a^2 eps
        for spec, e, energy_of in (
            (trig(alpha=2.0), 7.3, lambda eps: 4.0 * eps),
            (
                PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=5.0, V2=0.5, q=2.0),
                3.7,
                lambda eps: 1.0 + eps * eps,
            ),
            (PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0), -5.1, lambda eps: -eps),
        ):
            eps = build_form(spec, e).reduced.eps
            assert abs(energy_of(eps) - e) < 1e-12 * (1 + abs(e))


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
        rp = form.reduced
        b2, g4, q = rp.beta**2, rp.gamma**4, 1.0
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


class TestSelectBranch:
    def test_trig_accepted_slope(self):
        # beta = -2: accepted tau = -2s(1 + sqrt(9/4)) = -5s
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        assert abs(trace.tau.c1 + 5.0) < 1e-13
        assert abs(trace.tau.c0) < 1e-13
        assert trace.tau_slope.real < 0
        assert abs(trace.chosen_k - 2.0) < 1e-13

    def test_hyperbolic_accepted_matches_zeta_form(self):
        # accepted tau = -(zeta1 - 2) s - sqrt(q) zeta2 with Re zeta1 > 2
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=1.0, q=1.0)
        form = build_form(spec, 1.0)
        trace = select_branch(form)
        z1, z2 = trace.aux["zeta1"], trace.aux["zeta2"]
        assert z1.real > 2
        assert abs(trace.tau.c1 + (z1 - 2.0)) < 1e-12
        assert abs(abs(trace.tau.c0) - abs(z2)) < 1e-12

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
        assert abs(trace.tau.c1 + 1.0) < 1e-14

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


class TestLevelEquation:
    def test_n0_is_lambda(self):
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        assert level_equation(trace, 0) == trace.lam

    def test_n2_trig_coefficients(self):
        form = build_form(trig(), 4.0)
        trace = select_branch(form)
        # sigma'' = -2: F_2 = lambda + 2 tau' - 2
        assert abs(level_equation(trace, 2) - (trace.lam + 2 * trace.tau_slope - 2.0)) < 1e-14

    def test_root_reproduces_closed_form(self):
        # F_n = 0 at eps = (n + 1/2 + sqrt(1/4 - beta))^2 for the trig family
        spec = trig()
        for n in range(4):
            e = (n + 2.0) ** 2
            form = build_form(spec, e)
            trace = select_branch(form)
            assert abs(level_equation(trace, n)) < 1e-12


class TestSolveSpectrum:
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
            assert t.tau_slope.real < 0

    def test_manning_rosen_degenerate_ground_level(self):
        # A = B = 0 reduces the published bracket to 0 at n = 0
        spec = PotentialSpec(family=Family.ManningRosen, A=0.0, B=0.0, q=1.0)
        e0, trace = solve_level(spec, 0, seed_energy=0.0)
        assert abs(e0) < 1e-12
        assert trace.tau_slope.real < 0

    def test_scan_lets_unexpected_errors_through(self, monkeypatch):
        # only package errors mean "no branch at this energy"; a bug must not
        # turn into NoAdmissibleBranch
        def broken(spec, energy):
            raise ZeroDivisionError("bug in build_form")

        monkeypatch.setattr(nu_engine, "build_form", broken)
        with pytest.raises(ZeroDivisionError):
            solve_level(PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0), 0)

    def test_weight_checked_only_at_seed_and_trace(self, monkeypatch):
        # the Manning-Rosen deep well needs the scan and many secant steps,
        # yet integrability is read only for the seed's four candidates and
        # the trace's four
        calls = []
        real = nu_engine.weight_failure

        def counted(form, tau):
            calls.append(tau)
            return real(form, tau)

        monkeypatch.setattr(nu_engine, "weight_failure", counted)
        spec = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
        solve_level(spec, 0)
        assert len(calls) == 4
        calls.clear()
        solve_level(spec, 1, seed_energy=100.0)
        assert len(calls) == 8

    def test_trace_records_seed_and_branch(self):
        _, trace = solve_level(trig(), 1, seed_energy=9.0)
        assert trace.notes["n"] == 1
        assert trace.notes["seed"] == 9.0
        assert len(trace.candidates) == 4


class TestTraceSerialization:
    def test_fixed_field_names(self):
        _, trace = solve_level(trig(), 0, seed_energy=4.0)
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
        json.loads(trace_to_json(trace))

    def test_lambda_n_equals_lambda_at_root(self):
        _, trace = solve_level(trig(), 2, seed_energy=16.0)
        assert abs(trace.lam - trace.lambda_n) < 1e-10

    def test_hyperbolic_aux_present(self):
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=0.0, q=1.0)
        _, trace = solve_level(spec, 0, seed_energy=1.7912878474779195)
        assert set(trace.aux) == {"zeta1", "zeta2", "mu"}
