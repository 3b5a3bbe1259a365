"""Closed-form energy spectra for every family/variant pair, with the
reality-condition predicates for the non-Hermitian variants.

The published formulas, their convention notes and reality predicates are
kept in `families.py`, one record per family, exactly as published; this
module evaluates them, measures the reality of the levels and packs the
result.  Where a published form is known to disagree with the numeric
pipeline or the finite-difference oracle the disagreement is carried in the
result's convention note instead of being patched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .core_math import canonical_json, complex_json
from .errors import UnsupportedVariant
from .families import _REALITY_TOL, Predicate, variant_form
from .potentials import PotentialSpec


class RealityFlag(enum.Enum):
    AllReal = "all-real"
    ConditionallyReal = "conditionally-real"
    Complex = "complex"


@dataclass(frozen=True)
class RealityConditions:
    """Named parameter restrictions under which the variant's published
    spectrum is claimed real; every predicate is evaluated, never assumed."""

    predicates: tuple[Predicate, ...]
    verdict: bool
    note: str = ""


@dataclass
class SpectrumResult:
    """Indexed energies with reality flag and reality conditions."""

    spec: PotentialSpec
    entries: list  # [(n, complex E)]
    reality_flag: RealityFlag
    conditions: RealityConditions | None
    convention_note: str
    warnings: list = field(default_factory=list)
    alt_entries: list | None = None  # second sign candidate where published

    def energies(self):
        return [e for _, e in self.entries]

    def to_dict(self) -> dict:
        d = {
            "spec": self.spec.to_dict(),
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
        return canonical_json(self.to_dict())


def measure_reality_flag(entries, tol: float = _REALITY_TOL) -> RealityFlag:
    for _, e in entries:
        if abs(e.imag) > tol * (1.0 + abs(e.real)):
            return RealityFlag.Complex
    return RealityFlag.AllReal


def reality_conditions(spec: PotentialSpec) -> RealityConditions:
    """Evaluate the published reality restrictions against the parameters."""
    predicates = variant_form(spec).predicates
    if predicates is None:
        raise UnsupportedVariant("reality conditions apply to PT and NonPT variants")
    preds = tuple(predicates(spec))
    note = "" if preds else "unconditional for the PT-symmetric form"
    return RealityConditions(preds, all(p.ok for p in preds), note)


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
    conds = None if form.predicates is None else reality_conditions(spec)
    flag = measure_reality_flag(entries)
    if flag is RealityFlag.AllReal and conds is not None and conds.predicates and conds.verdict:
        flag = RealityFlag.ConditionallyReal
    return SpectrumResult(
        spec=spec,
        entries=entries,
        reality_flag=flag,
        conditions=conds,
        convention_note=form.note,
        warnings=warnings,
        alt_entries=[(n, complex(e)) for n, e in enumerate(alt)] if alt is not None else None,
    )
