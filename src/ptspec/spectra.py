"""Closed-form energy spectra for every family/variant pair, with the
reality-condition predicates for the non-Hermitian variants.

All formulas are implemented exactly as published, radicands taken on the
principal branch, nested radicals inner-first.  Where the published form is
known to disagree with the numeric pipeline or the finite-difference oracle
the disagreement is carried in the result's convention note instead of being
patched here.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .core_math import complex_json, sqrt_principal
from .errors import UnsupportedVariant
from .potentials import Family, PotentialSpec, Variant

_REALITY_TOL = 1e-12


class RealityFlag(enum.Enum):
    AllReal = "all-real"
    ConditionallyReal = "conditionally-real"
    Complex = "complex"


@dataclass(frozen=True)
class Predicate:
    name: str
    measured: complex
    ok: bool


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


def _trig_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    beta = spec.A / ka2
    warnings = []
    if spec.variant is Variant.Base:
        root = sqrt_principal(0.25 - beta)
        ee = [ka2 * ((n + 0.5) + root) ** 2 for n in range(n_max + 1)]
        note = "well spectrum; alpha = pi/period recovers the periodic form"
        return ee, warnings, note
    if spec.variant is Variant.PT:
        root = sqrt_principal(beta + 0.25)
        if not root.real < 1.0 or root.imag != 0.0:
            warnings.append("validity condition sqrt(1/4 + 2mA/(hbar^2 alpha^2)) < 1 fails")
        ee = [-ka2 * ((n + 0.5) - root) ** 2 for n in range(n_max + 1)]
        return ee, warnings, "sign-flipped well depth under the alpha -> i alpha image"
    if spec.variant is Variant.QDeformedPT:
        root = sqrt_principal(beta / spec.q + 0.25)
        if not root.real < 1.0 or root.imag != 0.0:
            warnings.append("validity condition sqrt(1/4 + 2mA/(hbar^2 alpha^2 q)) < 1 fails")
        ee = [-ka2 * ((n + 0.5) - root) ** 2 for n in range(n_max + 1)]
        return ee, warnings, "deformed coupling A/q; q=1 recovers the PT spectrum"
    if spec.variant is Variant.NonPT:
        a1, a2 = complex(spec.A).real, complex(spec.A).imag
        root = sqrt_principal(-(1j * a1 - a2) / (ka2 * spec.q) + 0.25)
        ee = [-ka2 * ((n + 0.5) - root) ** 2 for n in range(n_max + 1)]
        return ee, warnings, "complexified coupling A1 + iA2 with q -> iq folded in; real iff A1 = 0"
    raise UnsupportedVariant(str(spec.variant))


def _hyp_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    k2a4 = ka2 * ka2
    q = spec.q
    warnings = []
    if spec.variant is Variant.Base:
        inner = sqrt_principal((4.0 * spec.V1 / ka2 + 1.0) ** 2 - 16.0 * spec.V2**2 / (k2a4 * q))
        outer = sqrt_principal(0.5 + 2.0 * spec.V1 / ka2 + 0.5 * inner)
        ee = [spec.V1 + spec.V0 - ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)]
        note = (
            "published form coincides with the pipeline root only at q = 1 "
            "(the deformed couplings V1/q, V2/sqrt(q) are undeformed here)"
        )
        return ee, warnings, note
    if spec.variant is Variant.PT:
        inner = sqrt_principal((-4.0 * spec.V1 / ka2 + 1.0) ** 2 - 16.0 * spec.V2**2 / (k2a4 * q))
        outer = sqrt_principal(0.5 - 2.0 * spec.V1 / ka2 + 0.5 * inner)
        ee = [spec.V1 - spec.V0 + ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)]
        return ee, warnings, "PT image of the deformed well"
    if spec.variant is Variant.NonPT:
        v1, v2 = complex(spec.V1), complex(spec.V2)
        w = (2j - 1.0) * v1 / ka2
        inner = sqrt_principal((w + 1.0) ** 2 - v2**2 / (k2a4 * q))
        outer = sqrt_principal(0.5 + w + 0.5 * inner)
        ee = [spec.V0 + 1j * v1 + ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)]
        note = "printed combination (2i - 1)V1 evaluated with the stored complex V1, V2"
        return ee, warnings, note
    raise UnsupportedVariant(str(spec.variant))


def _mr_bracket(spec: PotentialSpec, n: int):
    ka2 = spec.kappa * spec.alpha**2
    beta = spec.A / ka2
    gamma = 4.0 * spec.B / ka2
    lam = -(2 * n + 1) + sqrt_principal(1.0 + gamma / spec.q)
    if abs(lam) < 1e-300:
        return None
    return 0.25 * lam**2 + beta**2 / (4.0 * lam**2)


_MR_SIGN_NOTE = (
    "printed sign is positive while the reduced-energy relation "
    "eps = -2mE/(hbar^2 alpha^2) makes bound states negative; the comparison "
    "harness matches oracle bound states against -E_n and reports both signs. "
    "Note the published bracket uses sqrt(1+gamma/q)-(2n+1) with beta^2/4; the "
    "termination condition of the reduced equation instead yields "
    "sqrt(1+gamma/q)+(2n+1) with beta^2 undivided, which is what the "
    "finite-difference oracle confirms on deep wells."
)


def _mr_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    warnings = []
    if spec.variant in (Variant.Base, Variant.PT):
        sign = 1.0 if spec.variant is Variant.Base else -1.0
        ee = []
        for n in range(n_max + 1):
            br = _mr_bracket(spec, n)
            if br is None:
                warnings.append(f"level n={n}: bracket singular (sqrt(1+gamma/q) = 2n+1)")
                ee.append(complex("nan"))
                continue
            ee.append(sign * ka2 * br)
        return ee, warnings, _MR_SIGN_NOTE, None
    if spec.variant is Variant.NonPT:
        a2 = complex(spec.A) / (4.0 * spec.kappa * spec.alpha**2)
        b2 = complex(spec.B) / (4.0 * spec.kappa * spec.alpha**2)
        q = spec.q
        ee, alt = [], []
        for n in range(n_max + 1):
            t = (2 * n + 1) - 1j * sqrt_principal(16.0 * b2 / q - 1.0 - 8j * a2)
            eps2 = -(t**2) / 16.0 - 16j * a2 / t**2
            eps = sqrt_principal(eps2)
            ee.append(4.0 * spec.kappa * spec.alpha**2 * eps)
            alt.append(-4.0 * spec.kappa * spec.alpha**2 * eps)
        note = "published for eps^2; both +-sqrt candidates returned (entries carry +, alt_entries -)"
        return ee, warnings, note, alt
    raise UnsupportedVariant(str(spec.variant))


def reality_conditions(spec: PotentialSpec) -> RealityConditions:
    """Evaluate the published reality restrictions against the parameters."""
    if spec.variant is Variant.PT or spec.variant is Variant.QDeformedPT:
        return RealityConditions(
            spec.family, spec.variant, (), True, "unconditional for the PT-symmetric form"
        )
    if spec.variant is not Variant.NonPT:
        raise UnsupportedVariant("reality conditions apply to PT and NonPT variants")
    preds = []
    if spec.family is Family.TrigScarf:
        a1 = complex(spec.A).real
        preds.append(Predicate("A1 = 0", a1, abs(a1) <= _REALITY_TOL * (1 + abs(complex(spec.A)))))
    elif spec.family is Family.HyperbolicScarf:
        v1, v2 = complex(spec.V1), complex(spec.V2)
        preds.append(Predicate("Re(V1) = 0", v1.real, abs(v1.real) <= _REALITY_TOL * (1 + abs(v1))))
        preds.append(Predicate("Im(V2) = 0", v2.imag, abs(v2.imag) <= _REALITY_TOL * (1 + abs(v2))))
    elif spec.family is Family.ManningRosen:
        a2 = complex(spec.A) / (4.0 * spec.kappa * spec.alpha**2)
        b2 = complex(spec.B) / (4.0 * spec.kappa * spec.alpha**2)
        preds.append(Predicate("Re(a^2) = 0", a2.real, abs(a2.real) <= _REALITY_TOL * (1 + abs(a2))))
        preds.append(Predicate("Im(b^2) = 0", b2.imag, abs(b2.imag) <= _REALITY_TOL * (1 + abs(b2))))
        lhs = 16.0 * b2.real / spec.q - 1.0
        preds.append(Predicate("16 Re(b^2)/q - 1 < 8 Im(a^2)", lhs - 8.0 * a2.imag, lhs < 8.0 * a2.imag))
    verdict = all(p.ok for p in preds)
    return RealityConditions(spec.family, spec.variant, tuple(preds), verdict)


def closed_form_spectrum(spec: PotentialSpec, n_max: int) -> SpectrumResult:
    """E_n for n = 0..n_max from the published formula for the
    (family, variant) pair.

    Formula-validity violations are attached as warnings, not raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    alt = None
    if spec.family is Family.TrigScarf:
        ee, warnings, note = _trig_levels(spec, n_max)
    elif spec.family is Family.HyperbolicScarf:
        ee, warnings, note = _hyp_levels(spec, n_max)
    elif spec.family is Family.ManningRosen:
        ee, warnings, note, alt = _mr_levels(spec, n_max)
    else:
        raise UnsupportedVariant(str(spec.family))

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
        convention_note=note,
        warnings=warnings,
        alt_entries=[(n, complex(e)) for n, e in enumerate(alt)] if alt is not None else None,
    )


def spectral_reality_scan(spec: PotentialSpec, n_max: int, tol: float) -> RealityFlag:
    """Measured reality of the closed-form levels: AllReal when every
    |Im E_n| <= tol (1 + |Re E_n|), Complex otherwise.

    The scan reports measurement only; the ConditionallyReal label is
    reserved for SpectrumResult records whose NonPT restrictions hold.
    """
    res = closed_form_spectrum(spec, n_max)
    entries = list(res.entries) + list(res.alt_entries or [])
    return measure_reality_flag(entries, tol=tol)
