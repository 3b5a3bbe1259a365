"""The records of the NumPy-free modules are NamedTuples: immutable, with
the repr text, equality and hash they had as frozen dataclasses, and with
the field checks of PotentialSpec, DomainSpec and JacobiIndex run on every
path that builds one.

Each repr below was printed by the dataclass of the same name; a frozen
dataclass hashed the tuple of its fields, as a NamedTuple does.  Hashes of
numbers are pinned as literals in process; those of records with a string
or an enum field are pinned under PYTHONHASHSEED=0 in a fresh interpreter.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from ptspec.core_math import JacobiIndex, LowPoly
from ptspec.families import FamilyRecord, Predicate, VariantForm
from ptspec.nu_engine import BranchCandidate, NUTrace, NumericSpectrum, synthetic_form
from ptspec.potentials import (
    DomainKind,
    DomainSpec,
    Family,
    PotentialSpec,
    PTSymmetryReport,
    Variant,
    apply_variant,
    default_domain,
)
from ptspec.spectra import RealityConditions, RealityFlag, SpectrumResult


def _records() -> dict:
    """One instance of each record, by class name."""
    pred = Predicate("A1 = 0", 0.0, True)
    spec = PotentialSpec(family=Family.TrigScarf, A=-2.0)
    form = synthetic_form(LowPoly(1.0, 0.0, -1.0), LowPoly(0.0, -1.0, 0.0), LowPoly(2.0, 0.0, -1.0))
    cand = BranchCandidate(1 + 2j, -1, LowPoly(0.5, -1.0), LowPoly(1.0, -3.0), 0.25, True)
    return {
        "LowPoly": LowPoly(1.0, 2.0, 3.0),
        "JacobiIndex": JacobiIndex(0.5, 1.5j, 2),
        "Predicate": pred,
        "VariantForm": VariantForm(abs, len, min, max, "note"),
        "FamilyRecord": FamilyRecord(("A",), {}, abs, len, min, max),
        "PotentialSpec": spec,
        "DomainSpec": DomainSpec(DomainKind.HalfLine, 0.5, 12.5),
        "PTSymmetryReport": PTSymmetryReport(0.0, 1.0, 1e-9, True, 0.0, "real-valued form"),
        "RealityConditions": RealityConditions((pred,), True),
        "SpectrumResult": SpectrumResult(spec, [(0, 4 + 0j)], RealityFlag.AllReal, None, "well", ["w"]),
        "HypergeometricForm": form,
        "BranchCandidate": cand,
        "NUTrace": NUTrace(form, cand, (cand,), 1, 9 + 0j),
        "NumericSpectrum": NumericSpectrum([(0, 4 + 0j)], []),
    }


_SPEC = (
    "PotentialSpec(family=<Family.TrigScarf: 'trig-scarf'>, variant=<Variant.Base: 'base'>, A=-2.0, B=None, "
    "V0=None, V1=None, V2=None, alpha=1.0, q=None, period=None, mass=0.5, hbar=1.0)"
)
_FORM = (
    "HypergeometricForm(spec=None, sigma=LowPoly(c0=1.0, c1=0.0, c2=-1.0), tau_tilde=LowPoly(c0=0.0, c1=-1.0, "
    "c2=0.0), sigma_tilde=LowPoly(c0=2.0, c1=0.0, c2=-1.0))"
)
_CAND = (
    "BranchCandidate(k=(1+2j), sign=-1, pi=LowPoly(c0=0.5, c1=-1.0, c2=0.0), tau=LowPoly(c0=1.0, c1=-3.0, "
    "c2=0.0), square_residual=0.25, weight_integrable=True)"
)
_PRED = "Predicate(name='A1 = 0', measured=0.0, ok=True)"
REPRS = {
    "LowPoly": "LowPoly(c0=1.0, c1=2.0, c2=3.0)",
    "JacobiIndex": "JacobiIndex(nu1=0.5, nu2=1.5j, n=2)",
    "Predicate": _PRED,
    "VariantForm": (
        "VariantForm(potential=<built-in function abs>, wall=<built-in function len>, "
        "threshold=<built-in function min>, levels=<built-in function max>, note='note', right_wall=None, "
        "needs_q=True, complexified=(), predicates=None)"
    ),
    "FamilyRecord": (
        "FamilyRecord(params=('A',), variants={}, s_map=<built-in function abs>, "
        "s_interval=<built-in function len>, reduce=<built-in function min>, aux=<built-in function max>)"
    ),
    "PotentialSpec": _SPEC,
    "DomainSpec": "DomainSpec(kind=<DomainKind.HalfLine: 'half-line'>, left=0.5, right=12.5)",
    "PTSymmetryReport": (
        "PTSymmetryReport(max_defect=0.0, center=1.0, tol=1e-09, verdict=True, max_imag=0.0, note='real-valued form')"
    ),
    "RealityConditions": f"RealityConditions(predicates=({_PRED},), verdict=True, note='')",
    "SpectrumResult": (
        f"SpectrumResult(spec={_SPEC}, entries=[(0, (4+0j))], reality_flag=<RealityFlag.AllReal: 'all-real'>, "
        "conditions=None, convention_note='well', warnings=['w'], alt_entries=None)"
    ),
    "HypergeometricForm": _FORM,
    "BranchCandidate": _CAND,
    "NUTrace": f"NUTrace(form={_FORM}, chosen={_CAND}, candidates=({_CAND},), n=1, energy=(9+0j))",
    "NumericSpectrum": "NumericSpectrum(entries=[(0, (4+0j))], traces=[])",
}
# the records with a list or dict field, which were unhashable as dataclasses too
UNHASHABLE = {"FamilyRecord", "SpectrumResult", "NumericSpectrum"}
# hashes of records of numbers alone, which no hash seed moves
HASHES = {"LowPoly": 529344067295497451, "JacobiIndex": 743552241362136107, "BranchCandidate": -150152548147447821}
# hashes under PYTHONHASHSEED=0 of the records with a string or enum field
SEEDED_HASHES = {
    "Predicate": -8655781276617122859,
    "DomainSpec": -7142291533458824784,
    "PTSymmetryReport": 4880600168020223282,
    "RealityConditions": 1592450559880038363,
}


def test_every_record_is_pinned():
    assert sorted(_records()) == sorted(REPRS)
    assert [name for name, rec in _records().items() if type(rec).__name__ != name] == []


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_that_of_the_dataclass(name):
    assert repr(_records()[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_assigning_a_field_raises(name):
    rec = _records()[name]
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):  # and no new attribute either
        rec.extra = None


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equality_and_hash_between_records_of_one_type(name):
    rec, again = _records()[name], _records()[name]
    assert rec == again and not rec != again
    # a record differs from one that differs in a field
    last = rec._fields[-1]
    changed = rec._replace(**{last: "changed"})
    assert rec != changed
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        return
    assert hash(rec) == hash(again) == hash(tuple(getattr(rec, f) for f in rec._fields))
    if name in HASHES:
        assert hash(rec) == HASHES[name]


_SEEDED = """
from ptspec.families import Predicate
from ptspec.potentials import DomainKind, DomainSpec, PTSymmetryReport
from ptspec.spectra import RealityConditions
pred = Predicate("A1 = 0", 0.0, True)
for rec in (
    pred,
    DomainSpec(DomainKind.HalfLine, 0.5, 12.5),
    PTSymmetryReport(0.0, 1.0, 1e-9, True, 0.0, "real-valued form"),
    RealityConditions((pred,), True),
):
    print(repr(rec), hash(rec), sep="|")
"""


def test_hashes_under_a_fixed_seed():
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", _SEEDED], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split("|") for line in proc.stdout.splitlines())
    assert {REPRS[name]: str(h) for name, h in SEEDED_HASHES.items()} == got


def test_spectrum_warnings_default_to_an_empty_tuple():
    res = SpectrumResult(_records()["PotentialSpec"], [(0, 4 + 0j)], RealityFlag.AllReal, None, "well")
    assert res.warnings == ()
    assert res.to_dict()["warnings"] == []


# -- the checks of PotentialSpec, DomainSpec and JacobiIndex on every path


def _bypass(cls, **changes):
    """A valid record of cls with fields changed by _replace, which runs
    no checks."""
    valid = {
        PotentialSpec: PotentialSpec(family=Family.TrigScarf, A=-2.0),
        DomainSpec: DomainSpec(DomainKind.HalfLine, 0.5, 12.5),
        JacobiIndex: JacobiIndex(0.5, 1.5, 2),
    }[cls]
    return valid._replace(**changes)


@pytest.mark.parametrize(
    "changes, why",
    [
        (dict(mass=0.0), "mass must be > 0"),
        (dict(alpha=math.nan), "alpha must be finite"),
        (dict(V0=1.0), "V0 is not a TrigScarf parameter"),
        (dict(A=1j), "variant requires real A"),
        (dict(alpha=2.0, period=3.0), "alpha = 2.0 is not pi/period"),
    ],
)
def test_potential_spec_checks_run_on_every_path(changes, why):
    fields = _bypass(PotentialSpec, **changes)._asdict()
    with pytest.raises(ValueError, match=why):
        PotentialSpec(**fields)
    with pytest.raises(ValueError, match=why):
        PotentialSpec(*fields.values())
    with pytest.raises(ValueError, match=why):
        PotentialSpec.from_dict(_bypass(PotentialSpec, **changes).to_dict())
    with pytest.raises(ValueError, match=why):
        apply_variant(_bypass(PotentialSpec, **changes), Variant.PT)


def test_apply_variant_builds_through_the_constructor():
    spec = PotentialSpec(family=Family.TrigScarf, A=-2.0, period=3.0)
    pt = apply_variant(spec, Variant.PT)
    assert type(pt) is PotentialSpec
    assert pt == PotentialSpec(family=Family.TrigScarf, variant=Variant.PT, A=-2.0, period=3.0)
    nonpt = apply_variant(spec._replace(q=2.0), Variant.NonPT)
    assert (nonpt.variant, nonpt.A, nonpt.alpha) == (Variant.NonPT, -2.0 - 2.0j, math.pi / 3.0)


@pytest.mark.parametrize("left, right", [(1.0, 1.0), (0.0, -1.0), (0.0, math.nan)])
def test_domain_spec_checks_run_on_every_path(left, right):
    with pytest.raises(ValueError, match="right > left"):
        DomainSpec(DomainKind.FiniteInterval, left, right)
    with pytest.raises(ValueError, match="right > left"):
        DomainSpec(kind=DomainKind.FiniteInterval, left=left, right=right)
    with pytest.raises(ValueError, match="right > left"):
        DomainSpec(*_bypass(DomainSpec, left=left, right=right))


def test_default_domain_builds_through_the_constructor():
    hyp = PotentialSpec(family=Family.HyperbolicScarf, V0=1.0, V1=1.0, V2=1.0, q=10.0)
    assert type(default_domain(hyp, L=6.0)) is DomainSpec
    with pytest.raises(ValueError, match="right > left"):
        default_domain(hyp, L=-1.0)


def test_jacobi_index_checks_run_on_every_path():
    with pytest.raises(ValueError, match="n must be >= 0"):
        JacobiIndex(0.0, 0.0, -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        JacobiIndex(nu1=0.0, nu2=0.0, n=-1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        JacobiIndex(*_bypass(JacobiIndex, n=-1))
