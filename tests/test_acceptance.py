"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3's Manning-Rosen leg (3c) checks the pipeline against
the levels of the published reduced equation, not against the published
bracket: that bracket is not a root of the reduced equation on any branch,
and the grid oracle and an exact symbolic check side with the reduced
equation (see README and scripts/manning_rosen_sign_study.py).  The
printed bracket stays verbatim in `spectra.closed_form_spectrum`, and 3c
reports its miss without asserting on it.
"""

import json
import math
import time

import numpy as np
import pytest

from ptspec import nu_engine, oracle, spectra, wavefunctions
from ptspec.cli import main as cli_main
from ptspec.core_math import LowPoly
from ptspec.errors import NoAdmissibleBranch
from ptspec.potentials import (
    Family,
    PotentialSpec,
    Variant,
    apply_variant,
    default_domain,
    evaluate,
    pt_symmetry_check,
)

_ACCEPTANCE_TRACES = []  # collected accepted branches for criterion 8


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _trig(A, alpha=1.0):
    return PotentialSpec(family=Family.TrigScarf, A=A, alpha=alpha)


def _richardson(e_coarse, e_fine, h_coarse, h_fine):
    return (e_fine * h_coarse**2 - e_coarse * h_fine**2) / (h_coarse**2 - h_fine**2)


class TestCriterion1:
    def test_trig_scarf_oracle_match(self, trig_a2_spec):
        t0 = time.perf_counter()
        res = spectra.closed_form_spectrum(trig_a2_spec, 3)
        closed = np.array([e.real for e in res.energies()])
        target = np.array([(n + 2.0) ** 2 for n in range(4)])
        assert np.max(np.abs(closed - target)) < 1e-12

        dom = default_domain(trig_a2_spec)
        H3, H1 = (oracle.discretize(trig_a2_spec, dom, N) for N in (3000, 1500))
        eigs3, eigs1 = (oracle.eigen_complex_dense(H) for H in (H3, H1))
        rel = np.abs(eigs3[:4].real - target) / target
        assert np.max(rel) <= 1e-3

        ext = _richardson(eigs1[:4].real, eigs3[:4].real, H1.h, H3.h)
        assert np.max(np.abs(ext - target)) <= 1e-5

        for n in range(4):
            e_n, trace = nu_engine.solve_level(trig_a2_spec, n)
            assert abs(e_n - target[n]) <= 1e-10 * target[n]
            _ACCEPTANCE_TRACES.append(trace)

        runtime = time.perf_counter() - t0
        assert runtime <= 60.0
        _report(
            "1 trig-scarf oracle match",
            True,
            f"max rel err {np.max(rel):.2e}, Richardson defect {np.max(np.abs(ext-target)):.2e}, "
            f"runtime {runtime:.1f}s",
        )


class TestCriterion2:
    def test_box_limit(self, box_eigs_3000):
        spec, H, eigs = box_eigs_3000
        res = spectra.closed_form_spectrum(spec, 3)
        target = np.array([(n + 1.0) ** 2 for n in range(4)])
        closed = np.array([e.real for e in res.energies()])
        assert np.max(np.abs(closed - target) / target) <= 1e-12
        rel = np.abs(eigs[:4].real - target) / target
        assert np.max(rel) <= 1e-4
        _report("2 box limit", True, f"max rel err {np.max(rel):.2e}")


_C3_TRIG = [_trig(-2.0), _trig(-6.0), _trig(-0.5, alpha=2.0)]
_C3_HYP = [
    PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=5.0, V2=0.0, q=1.0),
    PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=2.5, V2=0.0, q=1.0, alpha=0.8),
]
_C3_MR = [
    PotentialSpec(family=Family.ManningRosen, A=-120.0, B=2.0, q=1.0),
    PotentialSpec(family=Family.ManningRosen, A=-130.0, B=5.0, q=1.0),
]


def _worst_rel(got, want):
    """Worst relative difference between two lists of (n, E) levels.

    A level present in one list only, or a non-finite level on either side,
    counts as a miss (inf): `max` would pass over a NaN and `zip` over a
    missing level.
    """
    if [n for n, _ in got] != [n for n, _ in want]:
        return math.inf
    worst = 0.0
    for (_, a), (_, b) in zip(got, want):
        if not (np.isfinite(a) and np.isfinite(b)):
            return math.inf
        worst = max(worst, abs(a - b) / (1e-300 + abs(b)))
    return worst


def _pipeline_vs_closed(spec, n_max=5):
    num = nu_engine.solve_spectrum_numeric(spec, n_max)
    ref = spectra.closed_form_spectrum(spec, n_max)
    _ACCEPTANCE_TRACES.extend(num.traces)
    return _worst_rel(num.entries, ref.entries), num, ref


def _mr_reduced_levels(spec, n_max):
    """(n, E_n) from the termination condition of the Manning-Rosen reduced
    equation that `nu_engine.build_form` solves.

    In the reduced variable s = e^{-2 alpha x} the equation has
    sigma = s(1 - q s), tau_tilde = 1 - q s and
    sigma_tilde = [-(eps + beta) + (2 eps q - gamma) s + q^2 (beta - eps) s^2]/4,
    where eps = -E/(kappa alpha^2), beta = A/(kappa alpha^2) and
    gamma = 4B/(kappa alpha^2).  Put psi = s^mu (1 - q s)^nu y_n(s) with y_n
    a polynomial of degree n.  The exponents at the three regular singular
    points give mu^2 = (eps + beta)/4 at s = 0, nu(nu - 1) = gamma/(4q) at
    s = 1/q, and (n + mu + nu)^2 = (eps - beta)/4 at s = infinity.  Take the
    root nu = (1 + sqrt(1 + gamma/q))/2 that vanishes at the wall and
    eliminate mu between the first and third conditions:
        eps_n = L'^2/4 + beta^2/L'^2,   L' = 2(n + nu) = sqrt(1+gamma/q) + (2n+1).
    At kappa = alpha = q = 1 this is the Manning-Rosen/Eckart spectrum
    E_n = -(n+b)^2 - a^2/(n+b)^2 with b(b-1) = B, a = -A/2.  The level is a
    bound state (mu > 0, so psi -> 0 as x -> infinity) when
    n + nu < sqrt(-beta/2).
    """
    ka2 = spec.kappa * spec.alpha**2
    beta = spec.A / ka2
    gamma = 4.0 * spec.B / ka2
    levels = []
    for n in range(n_max + 1):
        lp = np.sqrt(1.0 + gamma / spec.q + 0j) + (2 * n + 1)
        levels.append((n, -ka2 * (lp**2 / 4.0 + beta**2 / lp**2)))
    return levels


class TestCriterion3:
    def test_trig_and_hyperbolic_consistency(self):
        t0 = time.perf_counter()
        worst = 0.0
        for spec in _C3_TRIG + _C3_HYP:
            w, _, _ = _pipeline_vs_closed(spec)
            worst = max(worst, w)
        runtime = time.perf_counter() - t0
        ok = worst <= 1e-8 and runtime <= 10.0
        _report("3a/3b pipeline vs closed form (trig, hyperbolic V2=0)", ok, f"worst rel {worst:.2e}, {runtime:.1f}s")
        assert ok

    def test_manning_rosen_consistency(self):
        # The pipeline must reproduce the closed-form levels of the reduced
        # equation it solves, E_n = -kappa alpha^2 (L'^2/4 + beta^2/L'^2)
        # with L' = sqrt(1+gamma/q) + (2n+1) (`_mr_reduced_levels`).  The
        # published bracket, kept verbatim in `spectra.closed_form_spectrum`,
        # uses sqrt(1+gamma/q) - (2n+1) with beta^2/4 and a positive sign; it
        # is not a root of that equation on any branch (its beta = 0 roots sit
        # on tau' > 0 branches, which criterion 8 forbids; at A=-120, B=2 it
        # is singular at n=1), so it is reported here, not asserted.  Both
        # wells hold n + b < sqrt(-A/2) for n <= 5, b = (1 + sqrt(1+4B))/2, so
        # all six reference levels are bound states.  The reference itself is
        # checked by a route that shares nothing with the pipeline: the grid
        # oracle, Richardson-extrapolated from N=1000 and N=2000 on A=-120,
        # B=2 (the exact n=0 check is the sympy test below).
        worst = 0.0
        vs_printed = []
        for spec in _C3_MR:
            A, B = spec.A.real, spec.B.real
            b = (1.0 + math.sqrt(1.0 + 4.0 * B)) / 2.0
            assert all(n + b < math.sqrt(-A / 2.0) for n in range(6))
            miss, num, _ = _pipeline_vs_closed(spec)
            vs_printed.append(f"{miss:.2e}")
            worst = max(worst, _worst_rel(num.entries, _mr_reduced_levels(spec, 5)))

        spec = _C3_MR[0]
        dom = default_domain(spec, L=8.0)
        H1, H2 = (oracle.discretize(spec, dom, N) for N in (1000, 2000))
        e1, e2 = (oracle.eigen_complex_dense(H)[:6].real for H in (H1, H2))
        ext = _richardson(e1, e2, H1.h, H2.h)
        oracle_worst = _worst_rel(list(enumerate(ext)), _mr_reduced_levels(spec, 5))
        printed_e0 = spectra.closed_form_spectrum(spec, 0).entries[0][1].real
        printed_miss = abs(-printed_e0 - ext[0]) / abs(ext[0])

        ok = worst <= 1e-8 and oracle_worst <= 1e-4
        _report(
            "3c pipeline vs reduced-equation levels (manning-rosen q=1)",
            ok,
            f"worst rel {worst:.2e}; oracle vs reduced {oracle_worst:.2e}; "
            f"printed bracket: vs pipeline {', '.join(vs_printed)}, "
            f"-E0 vs oracle {printed_miss:.2e} (not asserted)",
        )
        assert ok, (
            f"Manning-Rosen: pipeline vs reduced-equation levels worst rel {worst:.2e} "
            f"(bound 1e-8); oracle (A=-120, B=2, Richardson N=1000/2000) vs "
            f"reduced-equation levels worst rel {oracle_worst:.2e} (bound 1e-4)"
        )

    def test_manning_rosen_reduced_ground_level_exact(self):
        # Exact check of the L' bracket at n=0 (kappa = alpha = q = 1, so
        # beta = A, gamma = 4B), with neither the pipeline nor the grid:
        # psi0 = sinh(x)^s e^{-t x}, s = (1 + sqrt(1+4B))/2 = L'/2 and
        # t = -A/(2s), solves -psi'' + (A coth x + B/sinh^2 x) psi = E0 psi.
        # It vanishes at the wall and, where s^2 < -A/2 (t > s), at infinity.
        sp = pytest.importorskip("sympy")
        x, B = sp.symbols("x B", positive=True)
        A = sp.symbols("A", real=True)
        lp = sp.sqrt(1 + 4 * B) + 1
        e0 = -(lp**2 / 4 + A**2 / lp**2)
        s = (1 + sp.sqrt(1 + 4 * B)) / 2
        psi = sp.sinh(x) ** s * sp.exp(A / (2 * s) * x)
        residual = -sp.diff(psi, x, 2) + (A * sp.cosh(x) / sp.sinh(x) + B / sp.sinh(x) ** 2 - e0) * psi
        assert sp.simplify(residual / psi) == 0
        worst = 0.0
        for spec in _C3_MR:
            exact = complex(e0.subs({A: spec.A.real, B: spec.B.real}))
            worst = max(worst, _worst_rel(_mr_reduced_levels(spec, 0), [(0, exact)]))
        assert worst <= 1e-14
        _report("3c exact n=0 reduced-equation level (sympy)", True, f"residual 0; levels agree to {worst:.1e}")

    def test_level_comparison_counts_nonfinite_and_missing_levels(self):
        ref = [(0, -1.0 + 0j), (1, -0.5 + 0j)]
        assert _worst_rel(ref, ref) == 0.0
        assert _worst_rel([(0, -1.0 + 0j), (1, complex("nan"))], ref) == math.inf
        assert _worst_rel(ref, [(0, -1.0 + 0j), (1, complex("nan"))]) == math.inf
        assert _worst_rel(ref[:1], ref) == math.inf
        assert _worst_rel(ref, ref[:1]) == math.inf


class TestCriterion4:
    def test_spectrum_collapse(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            A = float(rng.uniform(-4, 4))
            alpha = float(rng.uniform(0.3, 3.0))
            base = PotentialSpec(family=Family.TrigScarf, A=A, alpha=alpha, q=1.0)
            e_pt = spectra.closed_form_spectrum(apply_variant(base, Variant.PT), 5).energies()
            e_qpt = spectra.closed_form_spectrum(apply_variant(base, Variant.QDeformedPT), 5).energies()
            for a, b in zip(e_pt, e_qpt):
                worst = max(worst, abs(a - b) / (1 + abs(a)))
        assert worst <= 1e-15
        _report("4 spectrum q->1 collapse", True, f"worst rel {worst:.2e}")

    def test_potential_collapse_per_family(self):
        worst = 0.0
        # trig: deformed PT at q=1 against the undeformed PT form
        base = PotentialSpec(family=Family.TrigScarf, A=-1.5, q=1.0)
        xs = np.linspace(0.3, 3.0, 200)
        v1 = evaluate(apply_variant(base, Variant.QDeformedPT), xs)
        v2 = evaluate(apply_variant(base, Variant.PT), xs)
        worst = max(worst, float(np.max(np.abs(v1 - v2) / (1 + np.abs(v2)))))
        # hyperbolic: q=1 against the classic coth/sinh form
        spec = PotentialSpec(family=Family.HyperbolicScarf, V0=2.0, V1=3.0, V2=-1.0, q=1.0)
        xs = np.linspace(0.4, 3.5, 200)
        classic = 2.0 + 3.0 / np.tanh(xs) ** 2 - 1.0 / np.tanh(xs) / np.sinh(xs)
        worst = max(worst, float(np.max(np.abs(evaluate(spec, xs) - classic) / (1 + np.abs(classic)))))
        # manning-rosen: q=1 against the classic form
        spec = PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0)
        classic = -4.0 / np.tanh(xs) + 2.0 / np.sinh(xs) ** 2
        worst = max(worst, float(np.max(np.abs(evaluate(spec, xs) - classic) / (1 + np.abs(classic)))))
        assert worst <= 1e-13
        _report("4 potential q->1 collapse", True, f"worst pointwise rel {worst:.2e}")


class TestCriterion5:
    def test_pt_spectral_signature(self):
        # at q = 1 this form is real on the grid, so its spectrum would be
        # closed under conjugation whatever the symmetry; at q = 2 it is not
        spec = PotentialSpec(family=Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=2.0)
        rep = pt_symmetry_check(spec, np.linspace(-2, 2, 101), tol=1e-12)
        assert rep.verdict
        H = oracle.discretize(spec, default_domain(spec, L=8.0), 1600)
        assert not H.is_real
        conj = oracle.conjugation_pair_check(oracle.eigen_complex_dense(H), tol=1e-8)
        assert conj.closed
        assert conj.pair_count >= 1
        _report(
            "5 PT spectral signature",
            True,
            f"pt defect {rep.max_defect:.1e}; {conj.real_count} real, {conj.pair_count} pairs",
        )


class TestCriterion6:
    def test_trig_scarf_predicates(self):
        ok_spec = PotentialSpec(family=Family.TrigScarf, variant=Variant.NonPT, A=3j, q=2.0)
        res = spectra.closed_form_spectrum(ok_spec, 5)
        assert spectra.reality_conditions(ok_spec).verdict
        assert all(abs(e.imag) <= 1e-12 * (1 + abs(e.real)) for e in res.energies())
        bad = PotentialSpec(family=Family.TrigScarf, variant=Variant.NonPT, A=1 + 3j, q=2.0)
        res_bad = spectra.closed_form_spectrum(bad, 5)
        assert any(abs(e.imag) > 1e-6 for e in res_bad.energies())
        _report("6 reality predicates (trig)", True, "A1=0 real; A1=1 complex")

    def test_hyperbolic_predicates_as_printed(self):
        ok_spec = PotentialSpec(
            family=Family.HyperbolicScarf, variant=Variant.NonPT, V0=0.5, V1=0.0, V2=0.5, q=1.0
        )
        conds = spectra.reality_conditions(ok_spec)
        assert conds.verdict
        res = spectra.closed_form_spectrum(ok_spec, 5)
        assert all(abs(e.imag) <= 1e-12 * (1 + abs(e.real)) for e in res.energies())
        bad = PotentialSpec(family=Family.HyperbolicScarf, variant=Variant.NonPT, V0=0.5, V1=1.0, V2=0.5, q=1.0)
        assert not spectra.reality_conditions(bad).verdict
        assert any(abs(e.imag) > 1e-6 for e in spectra.closed_form_spectrum(bad, 5).energies())
        _report("6 reality predicates (hyperbolic)", True, "Re(V1)=0, Im(V2)=0 real; violated complex")

    def test_manning_rosen_predicates_as_printed(self):
        ok_spec = PotentialSpec(family=Family.ManningRosen, variant=Variant.NonPT, A=349.5j, B=-174.75, q=1.0)
        conds = spectra.reality_conditions(ok_spec)
        assert conds.verdict
        res = spectra.closed_form_spectrum(ok_spec, 5)
        for (_, e), (_, ea) in zip(res.entries, res.alt_entries):
            assert abs(e.imag) <= 1e-10 * (1 + abs(e.real))
            assert abs(ea.imag) <= 1e-10 * (1 + abs(ea.real))
        bad = PotentialSpec(
            family=Family.ManningRosen, variant=Variant.NonPT, A=1.0 + 349.5j, B=-174.75, q=1.0
        )
        assert not spectra.reality_conditions(bad).verdict
        assert any(abs(e.imag) > 1e-6 for e in spectra.closed_form_spectrum(bad, 5).energies())
        _report("6 reality predicates (manning-rosen)", True, "printed a^2/b^2 window real; violated complex")


class TestCriterion7:
    def test_wavefunction_residuals_nodes_orthogonality(self, trig_a2_spec, trig_a2_eigs_3000):
        H, _ = trig_a2_eigs_3000
        dom = default_domain(trig_a2_spec)
        xs = H.nodes()
        wfs = []
        worst_resid = 0.0
        for n in range(5):
            e_n, trace = nu_engine.solve_level(trig_a2_spec, n)
            assert abs(e_n - (n + 2.0) ** 2) < 1e-10 * (n + 2.0) ** 2
            wf = wavefunctions.normalize(wavefunctions.assemble(trig_a2_spec, trace, n), dom, 3001)
            wfs.append(wf)
            assert wavefunctions.node_count(wf, dom) == n
            if n <= 3:
                psi = wavefunctions.eval_psi(wf, xs)
                resid = np.linalg.norm(H.matvec(psi) - e_n * psi) / np.linalg.norm(psi)
                worst_resid = max(worst_resid, float(resid))
        assert worst_resid <= 1e-3
        from scipy.integrate import simpson

        grid = np.linspace(dom.left, dom.right, 4003)[1:-1]
        worst_overlap = 0.0
        samples = [wavefunctions.eval_psi(w, grid) for w in wfs[:4]]
        for m in range(4):
            for n in range(m + 1, 4):
                ip = abs(simpson(np.conj(samples[m]) * samples[n], x=grid))
                worst_overlap = max(worst_overlap, float(ip))
        assert worst_overlap <= 1e-6
        _report(
            "7 wavefunction residual/nodes/orthogonality",
            True,
            f"worst residual {worst_resid:.2e}, worst overlap {worst_overlap:.2e}",
        )


class TestCriterion8:
    def test_structural_invariants_on_acceptance_runs(self):
        assert _ACCEPTANCE_TRACES, "criteria 1 and 3 must run first"
        for trace in _ACCEPTANCE_TRACES:
            assert trace.chosen in trace.candidates
            assert trace.chosen.tau_slope.real < 0.0
            for c in trace.candidates:
                assert c.square_residual <= 1e-10
                assert c.tau.c0 == trace.form.tau_tilde.c0 + 2 * c.pi.c0
                assert c.tau.c1 == trace.form.tau_tilde.c1 + 2 * c.pi.c1
                assert c.lam == c.k + c.pi.c1
        _report("8 NU structural invariants", True, f"{len(_ACCEPTANCE_TRACES)} accepted traces audited")

    def test_synthetic_fixture_raises(self):
        form = nu_engine.synthetic_form(LowPoly(1, 0, 1), LowPoly(0, 1, 0), LowPoly(0, 0, 0.25))
        with pytest.raises(NoAdmissibleBranch) as err:
            nu_engine.select_branch(form)
        assert all(c.tau_slope.real >= 0 for c in err.value.candidates)
        _report("8 synthetic tau'>0 fixture", True, "NoAdmissibleBranch with four rejections")


class TestCriterion9:
    def test_sign_resolution_study(self):
        spec = PotentialSpec(family=Family.ManningRosen, A=-4.0, B=2.0, q=1.0)
        threshold = oracle.continuum_threshold(spec)
        res = spectra.closed_form_spectrum(spec, 3)
        report = {"threshold": threshold, "runs": [], "verdict": None}
        matched_any = False
        for L, N in ((12.0, 2400), (16.0, 3200)):
            dom = default_domain(spec, L=L)
            eigs = oracle.eigen_complex_dense(oracle.discretize(spec, dom, N))
            below = [complex(z) for z in eigs if z.real < threshold]
            finite_entries = [(n, e) for n, e in res.entries if np.isfinite(e.real)]
            plus = oracle.match_levels(finite_entries, eigs, threshold)
            minus = oracle.match_levels([(n, -e) for n, e in finite_entries], eigs, threshold)
            report["runs"].append(
                {
                    "L": L,
                    "N": N,
                    "bound_states_below_threshold": len(below),
                    "matched_plus_sign": len(plus.pairs),
                    "matched_minus_sign": len(minus.pairs),
                    "lowest_oracle": float(eigs[0].real),
                }
            )
            matched_any = matched_any or plus.pairs or minus.pairs

        if not matched_any:
            # errata path: the potential is monotone (A + 2B coth has no
            # interior minimum at these parameters), so nothing exists
            # below the continuum threshold under either sign.  Record the
            # discrepancy rather than silently adjusting the formula.
            report["verdict"] = (
                "no oracle bound state below threshold A; published levels "
                "unmatched under either sign; discrepancy recorded"
            )
            # the published value is retained verbatim (no silent fix)
            assert abs(res.entries[0][1] - 2.0) < 1e-14
            assert "oracle" in res.convention_note
            # supporting evidence on a deep well that does bind: the
            # pipeline bracket matches the oracle to the stated 5e-3
            deep = PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0)
            dom = default_domain(deep, L=16.0)
            eigs = oracle.eigen_complex_dense(oracle.discretize(deep, dom, 3200))
            num = nu_engine.solve_spectrum_numeric(deep, 2)
            match = oracle.match_levels(num.entries, eigs, oracle.continuum_threshold(deep))
            assert len(match.pairs) == 3
            assert match.max_rel_err <= 5e-3
            report["deep_well_check"] = {
                "params": "A=-40, B=2, q=1",
                "pipeline_vs_oracle_max_rel": match.max_rel_err,
                "resolved_sign": "negative (bound states below threshold)",
            }
            _report(
                "9 manning-rosen sign resolution",
                True,
                "errata path: " + json.dumps(report["runs"][0]) + f"; deep-well max rel {match.max_rel_err:.1e}",
            )
        else:  # pragma: no cover - not reachable for these parameters
            _report("9 manning-rosen sign resolution", True, "matched levels found")
        assert report["verdict"] or matched_any


class TestCriterion10:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_presets(self, k, capsys, tmp_path):
        preset = f"fig{k}"
        out = tmp_path / f"{preset}.csv"
        code = cli_main(["profile", "--preset", preset, "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,re_V,im_V"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.isfinite(body))
        ims = np.abs(body[:, 2])
        if k in (1, 2, 4):  # real forms (fig2 is the q=1 cosine form)
            assert np.max(ims) == 0.0
        else:  # complex PT/non-PT forms carry a populated imaginary column
            assert np.max(ims) > 1e-3
        _report(f"10 preset {preset}", True, f"{body.shape[0]} pole-free samples")

    def test_caption_parameters_exact(self, tmp_path):
        expects = {
            "fig1": {"V0": 10, "V1": 15, "V2": 10, "q": 10},
            "fig2": {"V0": 1, "V1": 1, "V2": 1, "q": 1},
            "fig4": {"A": 10, "B": 1, "q": -4},
            "fig5": {"A": 1, "B": 1, "q": 1},
            "fig7": {"A": 1 + 1j, "B": 1 + 1j, "q": 1},
        }
        for preset, params in expects.items():
            out = tmp_path / f"{preset}.json"
            assert cli_main(["profile", "--preset", preset, "--out", str(out)]) == 0
            got = json.loads(out.read_text())["spec"]["params"]
            for key, val in params.items():
                if key == "q":
                    assert got["q"] == val
                else:
                    val = complex(val)
                    assert got[key] == {"re": val.real, "im": val.imag}
            assert got["alpha"] == 1
