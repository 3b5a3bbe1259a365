import json
import math

import numpy as np
import pytest

from ptspec.potentials import Family, PotentialSpec, Variant, apply_variant
from ptspec.spectra import (
    RealityFlag,
    closed_form_spectrum,
    measure_reality_flag,
    reality_conditions,
)


def trig(**kw):
    return PotentialSpec(family=Family.TrigScarf, **kw)


def hyp(**kw):
    return PotentialSpec(family=Family.HyperbolicScarf, **kw)


def mr(**kw):
    return PotentialSpec(family=Family.ManningRosen, **kw)


class TestTrigScarf:
    def test_base_reference_levels(self):
        res = closed_form_spectrum(trig(A=-2.0), 3)
        assert [round(e.real, 12) for e in res.energies()] == [4, 9, 16, 25]
        assert res.reality_flag is RealityFlag.AllReal

    def test_box_limit(self):
        res = closed_form_spectrum(trig(A=0.0), 3)
        assert [round(e.real, 12) for e in res.energies()] == [1, 4, 9, 16]

    def test_periodic_well_form(self):
        # hbar^2 pi^2/(2 m a^2) (n + 1/2 + 1/2)^2 at A=0, via the period flag
        a = 2.0
        res = closed_form_spectrum(trig(A=0.0, period=a, hbar=1.0, mass=0.5), 2)
        scale = 1.0 * math.pi**2 / (2 * 0.5 * a**2)
        for n, e in res.entries:
            assert abs(e - scale * (n + 1) ** 2) < 1e-12 * (1 + abs(e))

    def test_pt_validity_warning(self):
        res = closed_form_spectrum(apply_variant(trig(A=1.0), Variant.PT), 2)
        assert res.warnings  # sqrt(1/4 + 2) > 1

    def test_pt_no_warning_in_valid_window(self):
        res = closed_form_spectrum(apply_variant(trig(A=0.3), Variant.PT), 2)
        assert not res.warnings

    def test_q_collapse_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = float(rng.uniform(-4, 4))
            alpha = float(rng.uniform(0.3, 3))
            base = trig(A=A, alpha=alpha, q=1.0)
            e_pt = closed_form_spectrum(apply_variant(base, Variant.PT), 5).energies()
            e_qpt = closed_form_spectrum(apply_variant(base, Variant.QDeformedPT), 5).energies()
            for a, b in zip(e_pt, e_qpt):
                assert abs(a - b) <= 1e-15 * (1 + abs(a))

    def test_nonpt_reality_condition(self):
        ok = trig(variant=Variant.NonPT, A=3j, q=2.0)
        res = closed_form_spectrum(ok, 5)
        assert all(abs(e.imag) <= 1e-12 * (1 + abs(e.real)) for e in res.energies())
        assert res.conditions.verdict
        assert res.reality_flag is RealityFlag.ConditionallyReal

        bad = trig(variant=Variant.NonPT, A=1 + 3j, q=2.0)
        res_bad = closed_form_spectrum(bad, 5)
        assert any(abs(e.imag) > 1e-6 for e in res_bad.energies())
        assert not res_bad.conditions.verdict
        assert res_bad.reality_flag is RealityFlag.Complex


class TestHyperbolicScarf:
    def test_base_well_levels(self):
        # V1=4, V2=-3, q=1: zeta1 = sqrt(1/2 + 8 + mu/8), one well level set
        res = closed_form_spectrum(hyp(V0=0.0, V1=4.0, V2=-3.0, q=1.0), 1)
        mu = 4 * math.sqrt(17**2 - 16 * 9)
        z1 = math.sqrt(0.5 + 8 + mu / 8)
        for n, e in res.entries:
            assert abs(e - (4.0 - ((n + 0.5) - z1 / 2) ** 2)) < 1e-12

    def test_v2_continuity_at_zero(self):
        es = []
        for v2 in (-1e-6, 0.0, 1e-6):
            res = closed_form_spectrum(hyp(V0=0.0, V1=5.0, V2=v2, q=1.0), 3)
            es.append(np.array(res.energies()))
        assert np.max(np.abs(es[0] - es[1])) < 1e-9
        assert np.max(np.abs(es[2] - es[1])) < 1e-9

    def test_pt_formula_values(self):
        res = closed_form_spectrum(hyp(variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=1.0), 2)
        # verbatim: V1 - V0 + [(n+1/2) - outer/2]^2 with complex nested root
        inner = complex((-4 + 1) ** 2 - 16)  # -7
        outer = np.sqrt(complex(0.5 - 2 + 0.5 * np.sqrt(inner)))
        for n, e in res.entries:
            ref = 0.0 + ((n + 0.5) - 0.5 * outer) ** 2
            assert abs(e - ref) < 1e-12 * (1 + abs(ref))

    def test_nonpt_conditions_and_reality(self):
        # Re(V1)=0 via V1=0 keeps the printed combination real with real V2
        ok = hyp(variant=Variant.NonPT, V0=0.5, V1=0.0, V2=0.5, q=1.0)
        conds = reality_conditions(ok)
        assert conds.verdict
        res = closed_form_spectrum(ok, 5)
        assert all(abs(e.imag) <= 1e-12 * (1 + abs(e.real)) for e in res.energies())

        bad = hyp(variant=Variant.NonPT, V0=0.5, V1=1.0, V2=0.5, q=1.0)
        assert not reality_conditions(bad).verdict
        res_bad = closed_form_spectrum(bad, 5)
        assert any(abs(e.imag) > 1e-6 for e in res_bad.energies())

    def test_nonpt_generic_imaginary_v1_is_complex(self):
        # Re(V1)=0 with Im(V1) != 0: the printed (2i-1)V1 combination stays
        # complex, so the published restriction alone does not force reality.
        spec = hyp(variant=Variant.NonPT, V0=0.0, V1=3j, V2=0.5, q=1.0)
        assert reality_conditions(spec).verdict
        res = closed_form_spectrum(spec, 3)
        assert any(abs(e.imag) > 1e-6 for e in res.energies())


class TestManningRosen:
    def test_printed_vs_pt_negation(self):
        base = mr(A=-4.0, B=2.0, q=1.0)
        eb = closed_form_spectrum(base, 5).energies()
        ept = closed_form_spectrum(apply_variant(base, Variant.PT), 5).energies()
        for a, b in zip(eb, ept):
            if not (np.isnan(a.real) or np.isnan(b.real)):
                assert abs(a + b) <= 1e-15 * (1 + abs(a))

    def test_bracket_singularity_warned(self):
        # gamma = 8, q=1: sqrt(9) = 3 = 2n+1 at n=1
        res = closed_form_spectrum(mr(A=-4.0, B=2.0, q=1.0), 2)
        assert any("n=1" in w for w in res.warnings)
        assert np.isnan(res.entries[1][1].real)

    def test_printed_ground_level_value(self):
        # frozen verbatim value: beta=-4, gamma=8 -> 1/4*4 + 16/16 = 2
        res = closed_form_spectrum(mr(A=-4.0, B=2.0, q=1.0), 0)
        assert abs(res.entries[0][1] - 2.0) < 1e-14
        assert "oracle" in res.convention_note

    def test_nonpt_both_sqrt_candidates(self):
        spec = mr(variant=Variant.NonPT, A=349.5j, B=-174.75, q=1.0)
        res = closed_form_spectrum(spec, 5)
        assert res.alt_entries is not None
        for (_, e), (_, ea) in zip(res.entries, res.alt_entries):
            assert abs(e + ea) < 1e-12 * (1 + abs(e))

    def test_nonpt_reality_window(self):
        # a^2 = i p with p = 349.5/4 > 0, b^2 = -174.75/4:
        # 16 b^2/q - 1 = -699.75... wait alpha=1, kappa=1: a^2 = A/4
        spec = mr(variant=Variant.NonPT, A=349.5j, B=-174.75, q=1.0)
        conds = reality_conditions(spec)
        assert conds.verdict, conds
        res = closed_form_spectrum(spec, 5)
        for _, e in res.entries:
            assert abs(e.imag) <= 1e-10 * (1 + abs(e.real))
        assert res.reality_flag is RealityFlag.ConditionallyReal

    def test_nonpt_violated_condition_goes_complex(self):
        spec = mr(variant=Variant.NonPT, A=1.0 + 349.5j, B=-174.75, q=1.0)
        assert not reality_conditions(spec).verdict
        res = closed_form_spectrum(spec, 5)
        assert res.reality_flag is RealityFlag.Complex


class TestRealityMachinery:
    def test_pt_manning_rosen_all_real(self):
        flag = closed_form_spectrum(mr(variant=Variant.PT, A=1.0, B=1.0, q=1.0), 5).reality_flag
        assert flag is RealityFlag.AllReal

    def test_pt_conditions_unconditional(self):
        conds = reality_conditions(mr(variant=Variant.PT, A=1.0, B=1.0, q=1.0))
        assert conds.verdict and not conds.predicates

    def test_measure_flag(self):
        assert measure_reality_flag([(0, 1 + 0j), (1, 2 + 0j)]) is RealityFlag.AllReal
        assert measure_reality_flag([(0, 1 + 1e-3j)]) is RealityFlag.Complex


class TestSerialization:
    def test_json_schema(self):
        spec = trig(variant=Variant.NonPT, A=3j, q=2.0)
        d = json.loads(closed_form_spectrum(spec, 2).to_json())
        assert set(d) >= {"spec", "convention_note", "entries", "reality_flag", "conditions"}
        # the spec's facts are stated once, under "spec"
        assert not set(d) & {"family", "variant", "params"}
        assert d["spec"] == spec.to_dict()
        assert d["entries"][0].keys() == {"n", "re", "im"}
        assert d["conditions"]["predicates"][0]["name"] == "A1 = 0"

    def test_deterministic_bytes(self):
        spec = mr(variant=Variant.NonPT, A=349.5j, B=-174.75, q=1.0)
        assert closed_form_spectrum(spec, 4).to_json() == closed_form_spectrum(spec, 4).to_json()
