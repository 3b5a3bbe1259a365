"""Potential specs, quantization domains, evaluation, the PT / q-deformed /
non-PT transforms and a numeric PT-symmetry classifier.

The three families (trigonometric Scarf, q-deformed hyperbolic Scarf,
Manning-Rosen) and their variants are described in `families.py`, one record
per family; every family-specific fact used here (parameter names, the
evaluator, the inner wall, the variant rules) is looked up there.  NumPy is
imported only inside the functions that evaluate V on arrays.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
from typing import NamedTuple

from .core_math import canonical_json, complex_json
from .errors import SingularityError, UnsupportedTransform
from .families import FAMILIES, Family, Variant, variant_form


# every family's couplings, in the order of the family table
_COUPLINGS = tuple(dict.fromkeys(name for record in FAMILIES.values() for name in record.params))


class _SpecFields(NamedTuple):
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


_ALPHA_SLOT = _SpecFields._fields.index("alpha")


class PotentialSpec(_SpecFields):
    """A potential family plus parameter set plus variant tag.

    Only the fields relevant to the family are set; the rest stay None.
    Unit convention defaults to 2m = hbar = 1 (mass = 0.5).  A period sets
    alpha = pi/period; a given alpha must then equal it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        for name in (*_COUPLINGS, "alpha", "q", "period", "mass", "hbar"):
            v = getattr(spec, name)
            if v is not None and not cmath.isfinite(complex(v)):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("mass", "hbar"):
            if not getattr(spec, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(spec, name)}")
        if spec.period == 0:
            raise ValueError("period must be nonzero")
        if spec.period is not None:
            alpha = math.pi / spec.period
            if "alpha" not in kwargs and len(args) <= _ALPHA_SLOT:
                spec = super().__new__(cls, *args, alpha=alpha, **kwargs)
            elif spec.alpha != alpha:
                raise ValueError(f"alpha = {spec.alpha} is not pi/period = {alpha} for period = {spec.period}")
        if spec.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if spec.q is not None and spec.q == 0:
            raise ValueError("q must be nonzero")
        record = FAMILIES[spec.family]
        for name in record.params:
            if getattr(spec, name) is None:
                raise ValueError(f"{spec.family.name} requires parameter {name}")
        for name in _COUPLINGS:
            if name not in record.params and getattr(spec, name) is not None:
                raise ValueError(f"{name} is not a {spec.family.name} parameter")
        form = variant_form(spec)
        if form.needs_q and spec.q is None:
            raise ValueError(f"the {spec.variant.name} form of {spec.family.name} requires the deformation q")
        if not form.complexified:
            for name in record.params:
                if complex(getattr(spec, name)).imag != 0.0:
                    raise ValueError(f"{spec.variant.name} variant requires real {name}")
        return spec

    @property
    def kappa(self) -> float:
        """hbar^2 / (2m); equals 1 in the default convention."""
        return self.hbar**2 / (2.0 * self.mass)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "variant": self.variant.value,
            "params": {
                **{name: complex_json(getattr(self, name)) for name in _COUPLINGS},
                "alpha": self.alpha,
                "q": self.q,
                "period": self.period,
            },
            "constants": {"mass": self.mass, "hbar": self.hbar},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

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
            **{name: dec(p.get(name)) for name in _COUPLINGS},
            alpha=p["alpha"],
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


class _DomainFields(NamedTuple):
    kind: DomainKind
    left: float
    right: float


class DomainSpec(_DomainFields):
    """Open interval (left, right) with Dirichlet walls; an unbounded kind
    is truncated at right (and, on the full line, at left)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        domain = super().__new__(cls, *args, **kwargs)
        if not domain.right > domain.left:
            raise ValueError("domain must have right > left")
        return domain


def default_domain(spec: PotentialSpec, L: float = 12.0) -> DomainSpec:
    """Quantization domain matching each form's singularity structure.

    A form that lives on one finite cell (TrigScarf Base) gets that cell;
    singular half-line forms start at their inner wall; the complex
    full-line forms are truncated symmetrically.
    """
    form = variant_form(spec)
    wall = form.wall(spec)
    if form.right_wall is not None:
        return DomainSpec(DomainKind.FiniteInterval, wall, form.right_wall(spec))
    if wall is not None:
        return DomainSpec(DomainKind.HalfLine, wall, wall + L)
    return DomainSpec(DomainKind.FullLine, -L, L)


def evaluate(spec: PotentialSpec, x):
    """V(x) as a complex scalar (or complex array for array input).

    Base variants with real parameters return exactly real values.  Raises
    SingularityError at poles.
    """
    import numpy as np

    scalar = np.isscalar(x)
    arr = np.asarray(x, dtype=float)
    out = variant_form(spec).potential(spec, arr)
    return complex(out) if scalar else np.asarray(out, dtype=complex)


def evaluate_grid(spec: PotentialSpec, xs, skip_poles: bool = False):
    """Evaluate on a grid; with skip_poles, drop singular nodes instead of
    raising.  Returns (xs_kept, values)."""
    import numpy as np

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

    The target form's couplings `complexified` go p -> p(1+i), with q -> iq
    folded into the printed NonPT forms; every other parameter is kept (the
    PT images fold alpha -> i alpha into their evaluation form, and the
    deformed forms use the stored q).  target=Base is the identity.
    """
    if spec.variant is not Variant.Base:
        raise UnsupportedTransform("transforms start from a Base spec")
    form = FAMILIES[spec.family].variants.get(target)
    if form is None:
        raise UnsupportedTransform(f"{spec.family.name} has no {target.name} variant")
    if form.needs_q and spec.q is None:
        raise UnsupportedTransform(f"{target.name} needs q on the Base spec")
    changes = {name: complex(getattr(spec, name)) * (1 + 1j) for name in form.complexified}
    return PotentialSpec(**{**spec._asdict(), "variant": target, **changes})


class PTSymmetryReport(NamedTuple):
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
    import numpy as np

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
