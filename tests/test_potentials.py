import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec.core_math import cosh_q, sinh_q
from ptspec.errors import SingularityError, UnsupportedTransform, UnsupportedVariant
from ptspec.families import variant_form
from ptspec.potentials import (
    DomainKind,
    Family,
    PotentialSpec,
    Variant,
    apply_variant,
    default_domain,
    evaluate,
    evaluate_grid,
    pt_symmetry_check,
)


def mk(family, **kw):
    return PotentialSpec(family=family, **kw)


class TestEvaluateBase:
    def test_trig_scarf_midpoint(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        assert evaluate(spec, math.pi / 2) == 2.0 + 0j

    def test_hyperbolic_fig1_point(self):
        # independent re-evaluation of the deformed form at x=2
        spec = mk(Family.HyperbolicScarf, V0=10.0, V1=15.0, V2=10.0, q=10.0)
        sh = 0.5 * (math.exp(2) - 10 * math.exp(-2))
        ch = 0.5 * (math.exp(2) + 10 * math.exp(-2))
        expected = 10 + 15 * (ch / sh) ** 2 + 10 * ch / sh**2
        got = evaluate(spec, 2.0)
        assert got.imag == 0.0
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_base_values_exactly_real(self):
        for spec in (
            mk(Family.TrigScarf, A=-2.0),
            mk(Family.HyperbolicScarf, V0=1.0, V1=2.0, V2=-0.5, q=3.0),
            mk(Family.ManningRosen, A=-4.0, B=2.0, q=1.0),
        ):
            dom = default_domain(spec)
            xs = np.linspace(dom.left, dom.right, 53)[1:-1]
            assert np.all(evaluate(spec, xs).imag == 0.0)

    def test_manning_rosen_negative_q_is_smooth(self):
        # fig4 parameter set: q < 0 removes the pole entirely
        spec = mk(Family.ManningRosen, A=10.0, B=1.0, q=-4.0)
        xs = np.linspace(-3, 3, 101)
        vals = evaluate(spec, xs)
        assert np.all(np.isfinite(vals.real))
        assert variant_form(spec).wall(spec) is None

    def test_trig_pole(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        with pytest.raises(SingularityError):
            evaluate(spec, math.pi)

    def test_manning_rosen_pole_location(self):
        spec = mk(Family.ManningRosen, A=1.0, B=1.0, q=2.0)
        x_pole = math.log(2.0) / 2.0
        with pytest.raises(SingularityError):
            evaluate(spec, x_pole)
        assert abs(variant_form(spec).wall(spec) - x_pole) < 1e-15


class TestVariantForms:
    def test_pt_trig_is_sign_flipped_sinh_form(self):
        pt = apply_variant(mk(Family.TrigScarf, A=3.0), Variant.PT)
        x = 0.8
        assert abs(evaluate(pt, x) - 3.0 / math.sinh(0.8) ** 2) < 1e-14

    def test_qpt_at_q_one_equals_pt(self):
        base = mk(Family.TrigScarf, A=-1.5, q=1.0)
        pt = apply_variant(base, Variant.PT)
        qpt = apply_variant(base, Variant.QDeformedPT)
        xs = np.linspace(0.3, 3.0, 200)
        vpt, vq = evaluate(pt, xs), evaluate(qpt, xs)
        assert np.max(np.abs(vpt - vq)) <= 1e-13 * np.max(1 + np.abs(vpt))

    def test_nonpt_trig_is_deformed_form_with_complex_coupling(self):
        # A1=0, A2=1, q=2: V = iA2 / sinh_{iq}^2(alpha x)
        spec = mk(Family.TrigScarf, variant=Variant.NonPT, A=1j, q=2.0)
        for x in (0.4, 1.0, -0.7):
            expected = 1j / sinh_q(x, 2j) ** 2
            assert abs(evaluate(spec, x) - expected) < 1e-13 * (1 + abs(expected))

    def test_hyperbolic_pt_cosine_form_at_q_one(self):
        spec = mk(Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=1.0)
        x = 0.4
        expected = 1 + math.cos(0.8) + math.cos(0.4)
        assert abs(evaluate(spec, x) - expected) < 1e-14

    def test_hyperbolic_pt_ratio_form_q_limit_offset(self):
        # The two published PT forms disagree at q -> 1: the ratio form tends
        # to (V0 - V1) - V1 cos(2ax)/2 - V2 cos(ax), not the cosine form.
        spec = mk(Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=1.0 + 1e-9)
        xs = np.linspace(-2.0, 2.0, 41)
        got = evaluate(spec, xs)
        limit = (1 - 1) - 0.5 * np.cos(2 * xs) - np.cos(xs)
        assert np.max(np.abs(got - limit)) < 1e-6
        cosine_form = 1 + np.cos(2 * xs) + np.cos(xs)
        assert np.max(np.abs(got - cosine_form)) > 1.0

    def test_manning_rosen_pt_q_one_matches_its_printed_reduction(self):
        # (i A sin 2ax + 2B) / (cos 2ax - 1), pole-free grid
        spec = mk(Family.ManningRosen, variant=Variant.PT, A=1.0, B=1.0, q=1.0)
        xs = np.linspace(0.3, 2.8, 200)
        got = evaluate(spec, xs)
        expected = (1j * np.sin(2 * xs) + 2.0) / (np.cos(2 * xs) - 1.0)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(1 + np.abs(expected))

    def test_nonpt_manning_rosen_printed_form(self):
        spec = mk(Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1 + 1j, q=1.0)
        x = 0.9
        u = math.exp(-2 * 0.9)
        den = (1j * u - 1) ** 2
        expected = 1j * (1 + 1j) * (1 - u**2) / den + 4 * (1 + 1j) * u / den
        assert abs(evaluate(spec, x) - expected) < 1e-13 * (1 + abs(expected))


class TestApplyVariant:
    def test_base_identity(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        assert apply_variant(spec, Variant.Base) == spec

    def test_nonpt_complexifies_couplings(self):
        base = mk(Family.ManningRosen, A=1.0, B=2.0, q=1.0)
        npt = apply_variant(base, Variant.NonPT)
        assert npt.A == 1.0 * (1 + 1j)
        assert npt.B == 2.0 * (1 + 1j)
        assert npt.q == 1.0

    def test_qdeformed_requires_trig_family(self):
        with pytest.raises(UnsupportedTransform):
            apply_variant(mk(Family.HyperbolicScarf, V0=1.0, V1=1.0, V2=1.0, q=2.0), Variant.QDeformedPT)

    def test_qdeformed_requires_q(self):
        with pytest.raises(UnsupportedTransform):
            apply_variant(mk(Family.TrigScarf, A=1.0), Variant.QDeformedPT)

    def test_unsupported_pair_cannot_be_built(self):
        # hyperbolic Scarf has no q-deformed PT form, so no such spec exists
        with pytest.raises(UnsupportedVariant):
            mk(Family.HyperbolicScarf, variant=Variant.QDeformedPT, V0=1.0, V1=1.0, V2=1.0, q=2.0)

    def test_transform_starts_from_base(self):
        pt = apply_variant(mk(Family.TrigScarf, A=1.0), Variant.PT)
        with pytest.raises(UnsupportedTransform):
            apply_variant(pt, Variant.NonPT)

    @given(
        a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        q=st.floats(0.1, 5),
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, a, b, q):
        spec = mk(Family.ManningRosen, A=a, B=b, q=q)
        assert apply_variant(spec, Variant.Base) == spec


class TestQLimits:
    def test_hyperbolic_base_q_one_equals_classic(self):
        spec = mk(Family.HyperbolicScarf, V0=2.0, V1=3.0, V2=-1.0, q=1.0)
        xs = np.linspace(0.4, 3.5, 200)
        classic = 2.0 + 3.0 / np.tanh(xs) ** 2 - 1.0 / np.tanh(xs) / np.sinh(xs)
        got = evaluate(spec, xs)
        assert np.max(np.abs(got - classic)) <= 1e-13 * np.max(1 + np.abs(classic))

    def test_manning_rosen_base_q_one_equals_classic(self):
        spec = mk(Family.ManningRosen, A=-4.0, B=2.0, q=1.0)
        xs = np.linspace(0.4, 3.5, 200)
        classic = -4.0 / np.tanh(xs) + 2.0 / np.sinh(xs) ** 2
        got = evaluate(spec, xs)
        assert np.max(np.abs(got - classic)) <= 1e-13 * np.max(1 + np.abs(classic))


class TestPTSymmetryCheck:
    def test_morse_cosine_form_is_pt(self):
        spec = mk(Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=1.0)
        grid = np.linspace(-2, 2, 101)
        rep = pt_symmetry_check(spec, grid, tol=1e-12)
        assert rep.verdict and rep.max_defect <= 1e-12

    def test_hyperbolic_pt_ratio_form_is_pt(self):
        spec = mk(Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=2.0)
        grid = np.linspace(-2, 2, 101)
        rep = pt_symmetry_check(spec, grid, tol=1e-12)
        assert rep.verdict

    def test_nonpt_manning_rosen_fails(self):
        spec = mk(Family.ManningRosen, variant=Variant.NonPT, A=1.0, B=1.0, q=1.0)
        grid = np.linspace(-2, 2, 101)
        rep = pt_symmetry_check(spec, grid, tol=1e-6)
        assert not rep.verdict

    def test_trig_base_even_about_natural_center(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        c = math.pi / 2
        grid = np.linspace(c - 1.2, c + 1.2, 101)
        rep = pt_symmetry_check(spec, grid, tol=1e-12)
        assert rep.verdict and rep.max_imag == 0.0

    def test_hyperbolic_base_even_about_shifted_center(self):
        spec = mk(Family.HyperbolicScarf, V0=1.0, V1=2.0, V2=0.5, q=4.0)
        c = math.log(4.0) / 2.0
        t = np.linspace(0.1, 1.5, 40)  # the form is even about its own pole
        grid = np.concatenate([c - t[::-1], c + t])
        rep = pt_symmetry_check(spec, grid, tol=1e-10)
        assert rep.verdict

    def test_manning_rosen_base_coth_term_is_odd(self):
        # real-valued but not parity-even: the verdict is honest about it
        spec = mk(Family.ManningRosen, A=-4.0, B=2.0, q=1.0)
        c = 1.0
        grid = np.linspace(c - 0.6, c + 0.6, 61)
        rep = pt_symmetry_check(spec, grid, tol=1e-10)
        assert not rep.verdict
        assert rep.max_imag == 0.0
        assert "odd" in rep.note

    def test_asymmetric_grid_rejected(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        with pytest.raises(ValueError):
            pt_symmetry_check(spec, np.array([0.3, 0.5, 1.7]), tol=1e-12)


class TestDomainsAndSerialization:
    def test_trig_base_domain_is_one_cell(self):
        dom = default_domain(mk(Family.TrigScarf, A=-2.0, alpha=2.0))
        assert dom.kind is DomainKind.FiniteInterval
        assert (dom.left, dom.right) == (0.0, math.pi / 2.0)

    def test_half_line_starts_at_wall(self):
        dom = default_domain(mk(Family.HyperbolicScarf, V0=1, V1=1, V2=1, q=10.0), L=6.0)
        assert dom.kind is DomainKind.HalfLine
        assert abs(dom.left - math.log(10.0) / 2.0) < 1e-15
        assert abs(dom.right - dom.left - 6.0) < 1e-15

    def test_full_line_for_complex_forms(self):
        dom = default_domain(mk(Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1.0, q=1.0), L=5.0)
        assert dom.kind is DomainKind.FullLine
        assert (dom.left, dom.right) == (-5.0, 5.0)

    def test_json_roundtrip_is_byte_identical(self):
        specs = [
            mk(Family.TrigScarf, A=-2.0),
            mk(Family.TrigScarf, variant=Variant.NonPT, A=0.5 + 2j, q=2.0),
            mk(Family.HyperbolicScarf, V0=1.0, V1=2.0, V2=3.0, q=10.0, alpha=0.5),
            mk(Family.ManningRosen, A=-4.0, B=2.0, q=1.0, mass=1.0, hbar=2.0),
        ]
        for spec in specs:
            s = spec.to_json()
            assert PotentialSpec.from_json(s).to_json() == s

    def test_period_sets_alpha(self):
        spec = mk(Family.TrigScarf, A=1.0, period=2.0)
        assert abs(spec.alpha - math.pi / 2) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            mk(Family.TrigScarf, A=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            mk(Family.HyperbolicScarf, V0=1.0, V1=1.0, V2=1.0, q=0.0)
        with pytest.raises(ValueError):
            mk(Family.TrigScarf, A=1.0, V0=2.0)
        with pytest.raises(ValueError):
            mk(Family.ManningRosen, A=1.0 + 1j, B=1.0, q=1.0)  # Base must be real
        with pytest.raises(ValueError):
            mk(Family.ManningRosen, A=1.0, B=1.0)  # q required

    @pytest.mark.parametrize(
        "kw",
        [
            dict(A=math.nan),
            dict(A=complex(1.0, math.inf), variant=Variant.NonPT, q=1.0),
            dict(A=1.0, alpha=math.inf),
            dict(A=1.0, alpha=-math.inf),
            dict(A=1.0, q=math.nan),
            dict(A=1.0, period=math.inf),
            dict(A=1.0, mass=math.nan),
            dict(A=1.0, hbar=math.inf),
            dict(A=1.0, mass=0.0),
            dict(A=1.0, mass=-0.5),
            dict(A=1.0, hbar=0.0),
            dict(A=1.0, hbar=-1.0),
            dict(A=1.0, period=0.0),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_numbers_are_refused(self, kw):
        with pytest.raises(ValueError):
            mk(Family.TrigScarf, **kw)

    def test_bad_numbers_are_refused_from_json(self):
        d = mk(Family.HyperbolicScarf, V0=1.0, V1=1.0, V2=1.0, q=2.0).to_dict()
        d["params"]["V2"] = {"re": math.nan, "im": 0.0}
        with pytest.raises(ValueError, match="V2 must be finite"):
            PotentialSpec.from_dict(d)

    def test_evaluate_grid_skip_poles(self):
        spec = mk(Family.TrigScarf, A=-2.0)
        xs = np.linspace(0.0, math.pi, 7)  # endpoints are poles
        kept, vals = evaluate_grid(spec, xs, skip_poles=True)
        assert len(kept) == 5
        assert np.all(np.isfinite(vals.real))
