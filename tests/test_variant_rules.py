"""The variant rules of every (family, variant) pair, through the public API.

Per pair: whether a spec without q is refused, whether a complex coupling is
accepted, which couplings `apply_variant` complexifies, and what
`reality_conditions` returns (the predicate names, the "unconditional" note
of the PT forms, or UnsupportedVariant for the Hermitian Base forms).  The
q-deformed PT form exists for the trigonometric family only.
"""

from __future__ import annotations

import pytest

from ptspec.errors import UnsupportedTransform, UnsupportedVariant
from ptspec.potentials import Family, PotentialSpec, Variant, apply_variant
from ptspec.spectra import closed_form_spectrum, reality_conditions

_TRIG, _HYP, _MR = Family.TrigScarf, Family.HyperbolicScarf, Family.ManningRosen
_BASE, _PT, _QPT, _NONPT = Variant.Base, Variant.PT, Variant.QDeformedPT, Variant.NonPT

PARAMS = {_TRIG: dict(A=-2.0), _HYP: dict(V0=1.0, V1=2.0, V2=-0.5), _MR: dict(A=-4.0, B=2.0)}
UNCONDITIONAL = "unconditional for the PT-symmetric form"

# (family, variant): refused without q, accepts a complex coupling, the
# couplings apply_variant complexifies, and the reality predicate names
# (None where reality_conditions raises UnsupportedVariant)
RULES = {
    (_TRIG, _BASE): (False, False, (), None),
    (_TRIG, _PT): (False, False, (), ()),
    (_TRIG, _QPT): (True, False, (), ()),
    (_TRIG, _NONPT): (True, True, ("A",), ("A1 = 0",)),
    (_HYP, _BASE): (True, False, (), None),
    (_HYP, _PT): (True, False, (), ()),
    (_HYP, _NONPT): (True, True, ("V1", "V2"), ("Re(V1) = 0", "Im(V2) = 0")),
    (_MR, _BASE): (True, False, (), None),
    (_MR, _PT): (True, False, (), ()),
    (_MR, _NONPT): (True, True, ("A", "B"), ("Re(a^2) = 0", "Im(b^2) = 0", "16 Re(b^2)/q - 1 < 8 Im(a^2)")),
}
UNSUPPORTED = [(_HYP, _QPT), (_MR, _QPT)]


def _ids(pairs):
    return [f"{f.value}-{v.value}" for f, v in pairs]


@pytest.mark.parametrize("family,variant", list(RULES), ids=_ids(RULES))
def test_variant_rules(family, variant):
    refuses_without_q, accepts_complex, complexified, reality = RULES[family, variant]
    params = PARAMS[family]
    if refuses_without_q:
        with pytest.raises(ValueError, match="requires the deformation q"):
            PotentialSpec(family=family, variant=variant, **params)
    else:
        assert PotentialSpec(family=family, variant=variant, **params).q is None
    for name, value in params.items():
        kw = dict(params, **{name: value + 1j})
        if accepts_complex:
            assert getattr(PotentialSpec(family=family, variant=variant, q=2.0, **kw), name) == value + 1j
        else:
            with pytest.raises(ValueError, match=f"requires real {name}"):
                PotentialSpec(family=family, variant=variant, q=2.0, **kw)
    spec = apply_variant(PotentialSpec(family=family, q=2.0, **params), variant)
    moved = {name: params[name] * (1 + 1j) for name in complexified}
    assert spec == PotentialSpec(family=family, variant=variant, q=2.0, **{**params, **moved})
    if reality is None:
        with pytest.raises(UnsupportedVariant):
            reality_conditions(spec)
    else:
        conds = reality_conditions(spec)
        assert tuple(p.name for p in conds.predicates) == reality
        assert conds.note == ("" if reality else UNCONDITIONAL)


@pytest.mark.parametrize("family,variant", UNSUPPORTED, ids=_ids(UNSUPPORTED))
def test_unsupported_pairs(family, variant):
    params = PARAMS[family]
    with pytest.raises(UnsupportedTransform):
        apply_variant(PotentialSpec(family=family, q=2.0, **params), variant)
    with pytest.raises((ValueError, UnsupportedVariant)):
        PotentialSpec(family=family, variant=variant, **params)
    name = next(iter(params))
    with pytest.raises((ValueError, UnsupportedVariant)):
        PotentialSpec(family=family, variant=variant, q=2.0, **dict(params, **{name: params[name] + 1j}))
    with pytest.raises(UnsupportedVariant):
        closed_form_spectrum(PotentialSpec(family=family, variant=variant, q=2.0, **params), 3)
