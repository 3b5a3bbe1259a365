"""Closed-form energy spectra for every family/variant pair, with the
reality-condition predicates for the non-Hermitian variants.

The published formulas, their convention notes and the NonPT predicates are
kept in `families.py`, one record per family, exactly as published; this
module evaluates them, measures the reality of the levels and packs the
result.  Where a published form is known to disagree with the numeric
pipeline or the finite-difference oracle the disagreement is carried in the
result's convention note instead of being patched.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .core_math import complex_json
from .errors import UnsupportedVariant
from .families import _REALITY_TOL, FAMILIES, Family, Predicate, Variant, variant_form
from .potentials import PotentialSpec


class RealityFlag(enum.Enum):
    AllReal = "all-real"
    ConditionallyReal = "conditionally-real"
    Complex = "complex"


@dataclass(frozen=True)
class RealityConditions:
    """Named parameter restrictions under which the variant's published
    spectrum is claimed real; every predicate is evaluated, never assumed."""

    family: Family
    variant: Variant
    predicates: tuple[Predicate, ...]
    verdict: bool
    note: str = ""


@dataclass
class SpectrumResult:
    """Indexed energies with reality flag and condition report."""

    family: Family
    variant: Variant
    params: dict
    entries: list  # [(n, complex E)]
    reality_flag: RealityFlag
    conditions: RealityConditions | None
    condition_report: str
    convention_note: str
    warnings: list = field(default_factory=list)
    alt_entries: list | None = None  # second sign candidate where published

    def energies(self):
        return [e for _, e in self.entries]

    def to_dict(self) -> dict:
        d = {
            "family": self.family.value,
            "variant": self.variant.value,
            "params": self.params,
            "convention_note": self.convention_note,
            "entries": [{"n": n, **complex_json(e)} for n, e in self.entries],
            "reality_flag": self.reality_flag.value,
            "conditions": None,
            "warnings": list(self.warnings),
        }
        if self.conditions is not None:
            d["conditions"] = {
                "verdict": self.conditions.verdict,
                "predicates": [
                    {"name": p.name, **complex_json(p.measured), "ok": p.ok}
                    for p in self.conditions.predicates
                ],
                "note": self.conditions.note,
            }
        if self.alt_entries is not None:
            d["alt_entries"] = [{"n": n, **complex_json(e)} for n, e in self.alt_entries]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def measure_reality_flag(entries, tol: float = _REALITY_TOL) -> RealityFlag:
    for _, e in entries:
        if abs(e.imag) > tol * (1.0 + abs(e.real)):
            return RealityFlag.Complex
    return RealityFlag.AllReal


def reality_conditions(spec: PotentialSpec) -> RealityConditions:
    """Evaluate the published reality restrictions against the parameters."""
    if spec.variant is Variant.PT or spec.variant is Variant.QDeformedPT:
        return RealityConditions(
            spec.family, spec.variant, (), True, "unconditional for the PT-symmetric form"
        )
    if spec.variant is not Variant.NonPT:
        raise UnsupportedVariant("reality conditions apply to PT and NonPT variants")
    preds = FAMILIES[spec.family].nonpt_predicates(spec)
    verdict = all(p.ok for p in preds)
    return RealityConditions(spec.family, spec.variant, tuple(preds), verdict)


def closed_form_spectrum(spec: PotentialSpec, n_max: int) -> SpectrumResult:
    """E_n for n = 0..n_max from the published formula for the
    (family, variant) pair.

    Formula-validity violations are attached as warnings, not raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    form = variant_form(spec)
    ee, warnings, alt = form.levels(spec, n_max)
    entries = [(n, complex(e)) for n, e in enumerate(ee)]
    conds = None
    report = ""
    if spec.variant in (Variant.PT, Variant.QDeformedPT, Variant.NonPT):
        conds = reality_conditions(spec)
        report = "; ".join(
            f"{p.name}: measured {complex(p.measured):.3g} -> {'ok' if p.ok else 'violated'}"
            for p in conds.predicates
        ) or conds.note
    measured = measure_reality_flag(entries)
    flag = measured
    if measured is RealityFlag.AllReal and spec.variant is Variant.NonPT and conds is not None and conds.verdict:
        flag = RealityFlag.ConditionallyReal
    return SpectrumResult(
        family=spec.family,
        variant=spec.variant,
        params=spec.to_dict()["params"],
        entries=entries,
        reality_flag=flag,
        conditions=conds,
        condition_report=report,
        convention_note=form.note,
        warnings=warnings,
        alt_entries=[(n, complex(e)) for n, e in enumerate(alt)] if alt is not None else None,
    )
