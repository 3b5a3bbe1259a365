"""Potential families, their PT / deformation / complexification variants,
and a numeric PT-symmetry classifier.

Three families are covered, each an evaluatable record:

  TrigScarf       V(x) = -A/sin^2(alpha x)
  HyperbolicScarf V(x) = V0 + V1 coth_q^2(alpha x) + V2 coth_q(alpha x)/sinh_q(alpha x)
  ManningRosen    V(x) = A coth_q(alpha x) + B/sinh_q^2(alpha x)

Variants: Base (real), PT (alpha -> i alpha image), QDeformedPT (trig family
only), NonPT (complexified couplings with q -> iq folded into the printed
closed forms).  For the hyperbolic Scarf PT variant the two published forms
disagree in the q -> 1 limit; the cosine (Morse-type) form is used at q = 1
and the ratio form elsewhere, and the finite offset between them is recorded
in the tests.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core_math import complex_json, cosh_q, sinh_q
from .errors import SingularityError, UnsupportedTransform, UnsupportedVariant

_POLE_TOL = 1e-12


class Family(enum.Enum):
    TrigScarf = "trig-scarf"
    HyperbolicScarf = "hyperbolic-scarf"
    ManningRosen = "manning-rosen"


class Variant(enum.Enum):
    Base = "base"
    PT = "pt"
    QDeformedPT = "qpt"
    NonPT = "nonpt"


_FIELDS_BY_FAMILY = {
    Family.TrigScarf: ("A",),
    Family.HyperbolicScarf: ("V0", "V1", "V2"),
    Family.ManningRosen: ("A", "B"),
}

# Couplings complexified by the NonPT transform, per family.
_NONPT_COMPLEXIFIED = {
    Family.TrigScarf: ("A",),
    Family.HyperbolicScarf: ("V1", "V2"),
    Family.ManningRosen: ("A", "B"),
}


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family plus parameter set plus variant tag.

    Only the fields relevant to the family are set; the rest stay None.
    Unit convention defaults to 2m = hbar = 1 (mass = 0.5).
    """

    family: Family
    variant: Variant = Variant.Base
    A: complex | None = None
    B: complex | None = None
    V0: complex | None = None
    V1: complex | None = None
    V2: complex | None = None
    alpha: float = 1.0
    q: float | None = None
    period: float | None = None
    mass: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        if self.period is not None:
            object.__setattr__(self, "alpha", math.pi / self.period)
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.q is not None and self.q == 0:
            raise ValueError("q must be nonzero")
        for name in _FIELDS_BY_FAMILY[self.family]:
            if getattr(self, name) is None:
                raise ValueError(f"{self.family.name} requires parameter {name}")
        for fam, names in _FIELDS_BY_FAMILY.items():
            if fam is not self.family:
                for name in names:
                    if name not in _FIELDS_BY_FAMILY[self.family] and getattr(self, name) is not None:
                        raise ValueError(f"{name} is not a {self.family.name} parameter")
        if self.family is not Family.TrigScarf and self.q is None:
            raise ValueError(f"{self.family.name} requires the deformation q")
        if self.variant in (Variant.QDeformedPT, Variant.NonPT) and self.q is None:
            raise ValueError(f"variant {self.variant.name} requires the deformation q")
        if self.variant in (Variant.Base, Variant.PT, Variant.QDeformedPT):
            for name in _FIELDS_BY_FAMILY[self.family]:
                v = getattr(self, name)
                if v is not None and complex(v).imag != 0.0:
                    raise ValueError(f"{self.variant.name} variant requires real {name}")

    @property
    def kappa(self) -> float:
        """hbar^2 / (2m); equals 1 in the default convention."""
        return self.hbar**2 / (2.0 * self.mass)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "variant": self.variant.value,
            "params": {
                "A": complex_json(self.A),
                "B": complex_json(self.B),
                "V0": complex_json(self.V0),
                "V1": complex_json(self.V1),
                "V2": complex_json(self.V2),
                "alpha": self.alpha,
                "q": self.q,
                "period": self.period,
            },
            "constants": {"mass": self.mass, "hbar": self.hbar},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "PotentialSpec":
        def dec(v):
            if v is None:
                return None
            z = complex(v["re"], v["im"])
            return z.real if z.imag == 0.0 else z

        p = d["params"]
        spec = cls(
            family=Family(d["family"]),
            variant=Variant(d["variant"]),
            A=dec(p.get("A")),
            B=dec(p.get("B")),
            V0=dec(p.get("V0")),
            V1=dec(p.get("V1")),
            V2=dec(p.get("V2")),
            alpha=p["alpha"] if p.get("period") is None else 1.0,
            q=p.get("q"),
            period=p.get("period"),
            mass=d["constants"]["mass"],
            hbar=d["constants"]["hbar"],
        )
        return spec

    @classmethod
    def from_json(cls, s: str) -> "PotentialSpec":
        return cls.from_dict(json.loads(s))


class DomainKind(enum.Enum):
    FiniteInterval = "finite"
    HalfLine = "half-line"
    FullLine = "full-line"


@dataclass(frozen=True)
class DomainSpec:
    """Open interval (left, right) with Dirichlet walls; L records the
    truncation used for unbounded kinds."""

    kind: DomainKind
    left: float
    right: float
    L: float | None = None
    boundary: str = "dirichlet"

    def __post_init__(self):
        if not self.right > self.left:
            raise ValueError("domain must have right > left")
        if self.kind is not DomainKind.FiniteInterval and (self.L is None or self.L <= 0):
            raise ValueError("unbounded domains need a truncation L > 0")


def left_singularity(spec: PotentialSpec) -> float | None:
    """Location of the singular inner wall, when the family has one."""
    a, q = spec.alpha, spec.q
    if spec.family is Family.TrigScarf:
        if spec.variant is Variant.Base:
            return 0.0
        if spec.variant is Variant.PT:
            return 0.0
        if spec.variant is Variant.QDeformedPT:
            return math.log(q) / (2.0 * a) if q > 0 else None
        return None  # NonPT: sinh_{iq} has no real zero
    if spec.family is Family.HyperbolicScarf:
        if spec.variant is Variant.Base:
            return math.log(q) / (2.0 * a) if q > 0 else None
        return None
    if spec.family is Family.ManningRosen:
        if spec.variant is Variant.Base:
            return math.log(q) / (2.0 * a) if q > 0 else None
        if spec.variant is Variant.PT:
            return 0.0 if q == 1 else None  # q=1 form has poles at k*pi/alpha
        return None
    return None


def default_domain(spec: PotentialSpec, L: float = 12.0) -> DomainSpec:
    """Quantization domain matching each form's singularity structure.

    TrigScarf Base lives on one period cell; singular half-line forms start
    at their inner wall; the complex full-line forms are truncated
    symmetrically.
    """
    a = spec.alpha
    if spec.family is Family.TrigScarf and spec.variant is Variant.Base:
        return DomainSpec(DomainKind.FiniteInterval, 0.0, math.pi / a)
    wall = left_singularity(spec)
    if wall is not None:
        return DomainSpec(DomainKind.HalfLine, wall, wall + L, L=L)
    return DomainSpec(DomainKind.FullLine, -L, L, L=L)


def natural_center(spec: PotentialSpec) -> float:
    """Reflection point about which the form has its parity structure."""
    a, q = spec.alpha, spec.q
    if spec.family is Family.TrigScarf:
        if spec.variant is Variant.Base:
            return math.pi / (2.0 * a)
        if spec.variant is Variant.QDeformedPT and q is not None and q > 0:
            return math.log(q) / (2.0 * a)
        return 0.0
    if spec.family is Family.HyperbolicScarf and spec.variant is Variant.Base and q > 0:
        return math.log(q) / (2.0 * a)
    if spec.family is Family.ManningRosen and spec.variant is Variant.Base and q is not None:
        return math.log(abs(q)) / (2.0 * a)
    return 0.0


def _check_poles(den, scale, x):
    bad = np.abs(den) < _POLE_TOL * scale
    if np.any(bad):
        where = np.asarray(x)[bad] if np.ndim(x) else x
        raise SingularityError(f"potential pole at x={where}", where=where)


def _eval_array(spec: PotentialSpec, x):
    """Vectorized evaluation; x is a float array, result complex array."""
    fam, var = spec.family, spec.variant
    a = spec.alpha
    ax = a * x

    if fam is Family.TrigScarf:
        if var is Variant.Base:
            s = np.sin(ax)
            _check_poles(s, 1.0, x)
            return (-spec.A / s**2).astype(complex)
        if var is Variant.PT:
            s = np.sinh(ax)
            _check_poles(s, np.cosh(ax), x)
            return (spec.A / s**2).astype(complex)
        if var is Variant.QDeformedPT:
            s = sinh_q(ax, spec.q)
            _check_poles(s, cosh_q(ax, abs(spec.q)).real, x)
            return spec.A / s**2
        if var is Variant.NonPT:
            s = sinh_q(ax, 1j * spec.q)
            _check_poles(s, cosh_q(ax, abs(spec.q)).real, x)
            return complex(spec.A) / s**2

    if fam is Family.HyperbolicScarf:
        q = spec.q
        if var is Variant.Base:
            sh = sinh_q(ax, q)
            ch = cosh_q(ax, q)
            _check_poles(sh, cosh_q(ax, abs(q)).real, x)
            return (spec.V0 + spec.V1 * (ch / sh) ** 2 + spec.V2 * ch / sh**2).astype(complex)
        if var is Variant.PT:
            if q == 1:
                # Morse-type cosine form; the q=1 limit of the ratio form
                # below differs from it by (V0-V1) - V1 cos(2ax)/2 - V2 cos(ax).
                return (spec.V0 + spec.V1 * np.cos(2 * ax) + spec.V2 * np.cos(ax)).astype(complex)
            c2, s2 = np.cos(2 * ax), np.sin(2 * ax)
            den = (-1 + q**2) * c2 - 4 * q - 1j * (q**2 - 1) * s2
            _check_poles(den, abs(q**2 - 1) + 4 * abs(q), x)
            num1 = (1 + q**2) * c2 + 4 * q - 1j * (q**2 - 1) * s2
            num2 = (1 + q) * np.cos(ax) + 1j * (1 - q) * np.sin(ax)
            return spec.V0 + spec.V1 * num1 / den + (2 * spec.V2 / math.sqrt(q)) * num2 / den
        if var is Variant.NonPT:
            u = spec.q * np.exp(-2 * ax)
            den = (u + 1j) ** 2
            _check_poles(den, u**2 + 1, x)
            v1, v2 = complex(spec.V1), complex(spec.V2)
            sqrt_iq = np.sqrt(1j * spec.q + 0j)
            term1 = v1 * (u - 1j) ** 2 / den
            term2 = -(v2 / sqrt_iq) * np.exp(-ax) * (1 + 1j * u) / den
            return spec.V0 + term1 + term2

    if fam is Family.ManningRosen:
        q = spec.q
        if var is Variant.Base:
            sh = sinh_q(ax, q)
            ch = cosh_q(ax, q)
            _check_poles(sh, cosh_q(ax, abs(q)).real, x)
            return (spec.A * ch / sh + spec.B / sh**2).astype(complex)
        if var is Variant.PT:
            c2, s2 = np.cos(2 * ax), np.sin(2 * ax)
            den = (1 + q**2) * c2 + 1j * (1 - q**2) * s2 - 2 * q
            _check_poles(den, (1 + q**2) + 2 * abs(q), x)
            num = spec.A * ((1 - q**2) * c2 + 1j * (1 + q**2) * s2) + 4 * spec.B
            return num / den
        if var is Variant.NonPT:
            u = np.exp(-2 * ax)
            den = (1j * q * u - 1) ** 2
            _check_poles(den, q**2 * u**2 + 1, x)
            A, B = complex(spec.A), complex(spec.B)
            return 1j * A * (1 - q**2 * u**2) / den + 4 * B * u / den

    raise UnsupportedVariant(f"no evaluation for {fam.name}/{var.name}")


def evaluate(spec: PotentialSpec, x):
    """V(x) as a complex scalar (or complex array for array input).

    Base variants with real parameters return exactly real values.  Raises
    SingularityError at poles.
    """
    scalar = np.isscalar(x)
    arr = np.asarray(x, dtype=float)
    out = _eval_array(spec, arr)
    return complex(out) if scalar else np.asarray(out, dtype=complex)


def evaluate_grid(spec: PotentialSpec, xs, skip_poles: bool = False):
    """Evaluate on a grid; with skip_poles, drop singular nodes instead of
    raising.  Returns (xs_kept, values)."""
    xs = np.asarray(xs, dtype=float)
    if not skip_poles:
        return xs, evaluate(spec, xs)
    keep, vals = [], []
    for xi in xs:
        try:
            vals.append(evaluate(spec, float(xi)))
            keep.append(xi)
        except SingularityError:
            continue
    return np.asarray(keep), np.asarray(vals, dtype=complex)


def apply_variant(spec: PotentialSpec, target: Variant) -> PotentialSpec:
    """Transform a Base spec to a variant of the same family.

    PT keeps parameters (the alpha -> i alpha image is folded into the
    variant's evaluation form); QDeformedPT (trig family) keeps A and uses
    the stored q; NonPT complexifies the designated couplings p -> p(1+i)
    with q -> iq folded into the printed forms.  target=Base is the identity.
    """
    if target is Variant.Base:
        if spec.variant is not Variant.Base:
            raise UnsupportedTransform("only Base specs can be transformed")
        return spec
    if spec.variant is not Variant.Base:
        raise UnsupportedTransform("transforms start from a Base spec")
    if target is Variant.QDeformedPT:
        if spec.family is not Family.TrigScarf:
            raise UnsupportedTransform(f"{spec.family.name} has no QDeformedPT variant")
        if spec.q is None:
            raise UnsupportedTransform("QDeformedPT needs q on the Base spec")
        return replace(spec, variant=Variant.QDeformedPT)
    if target is Variant.PT:
        return replace(spec, variant=Variant.PT)
    if target is Variant.NonPT:
        if spec.q is None:
            raise UnsupportedTransform("NonPT needs q on the Base spec")
        changes = {name: complex(getattr(spec, name)) * (1 + 1j) for name in _NONPT_COMPLEXIFIED[spec.family]}
        return replace(spec, variant=Variant.NonPT, **changes)
    raise UnsupportedTransform(f"unknown target {target}")


@dataclass(frozen=True)
class PTSymmetryReport:
    """Measured defect of V(2c - x)* = V(x) on a grid symmetric about c."""

    max_defect: float
    center: float
    tol: float
    verdict: bool
    max_imag: float
    note: str = ""


def pt_symmetry_check(spec: PotentialSpec, grid, tol: float) -> PTSymmetryReport:
    """Numeric PT classification on a symmetric grid.

    The grid must be symmetric about its midpoint c; the defect is
    max |V(2c - x)* - V(x)|.  For real Base forms the report also carries
    the parity structure note.
    """
    xs = np.asarray(grid, dtype=float)
    center = 0.5 * (xs[0] + xs[-1])
    mirrored = 2.0 * center - xs
    if not np.allclose(np.sort(mirrored), np.sort(xs), rtol=0, atol=1e-9 * (1 + abs(center))):
        raise ValueError("grid is not symmetric about its midpoint")
    v = evaluate(spec, xs)
    v_mirror = evaluate(spec, mirrored)
    defect = float(np.max(np.abs(np.conj(v_mirror) - v)))
    max_imag = float(np.max(np.abs(v.imag)))
    note = ""
    if spec.variant is Variant.Base:
        note = "real-valued form" + ("" if defect <= tol else "; odd component about the center")
    return PTSymmetryReport(
        max_defect=defect,
        center=center,
        tol=tol,
        verdict=bool(defect <= tol),
        max_imag=max_imag,
        note=note,
    )
