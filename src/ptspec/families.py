"""One record per potential family: every fact that differs between the
three families lives here, and the generic modules look it up.

  TrigScarf       V(x) = -A/sin^2(alpha x)
  HyperbolicScarf V(x) = V0 + V1 coth_q^2(alpha x) + V2 coth_q(alpha x)/sinh_q(alpha x)
  ManningRosen    V(x) = A coth_q(alpha x) + B/sinh_q^2(alpha x)

A FamilyRecord holds the parameter names, the x -> s map of the
Nikiforov-Uvarov reduction and its s-interval, `reduce`, which builds the
(sigma, tau_tilde, sigma_tilde) triple of the Base form from the spec's
couplings at a trial energy, and `aux`, which gives the zeta/mu
auxiliaries of the spec for its trace (hyperbolic Scarf only).  Its
`variants` table holds one VariantForm per variant: the potential
evaluator, the inner wall, the continuum threshold, the published closed
form, and the variant rules.  Those state whether the form needs q (all
but the two undeformed trig forms do), which couplings the transform to it
complexifies (none for a form with real couplings), and the predicates
under which its spectrum is claimed real (none for the PT forms, whose
claim is unconditional; no claim at all for Base).  The variants a family
supports are the keys of that table, and `variant_form` raises
UnsupportedVariant for any other pair, so PotentialSpec refuses it.

Variants: Base (real), PT (alpha -> i alpha image), QDeformedPT (trig family
only), NonPT (complexified couplings with q -> iq folded into the printed
closed forms).  For the hyperbolic Scarf PT variant the two published forms
disagree in the q -> 1 limit; the cosine (Morse-type) form is used at q = 1
and the ratio form elsewhere, and the finite offset between them is recorded
in the tests.

Closed forms are implemented exactly as published, radicands taken on the
principal branch, nested radicals inner-first.  Where a published form is
known to disagree with the numeric pipeline or the finite-difference oracle,
the disagreement is carried in its convention note instead of being patched.

NumPy is imported only inside the evaluators and s-maps, which take or
build arrays; the reductions, closed forms and predicates run without it.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core_math import LowPoly, cosh_q, sinh_q, sqrt_principal
from .errors import SingularityError, UnsupportedReduction, UnsupportedVariant

if TYPE_CHECKING:
    from .potentials import PotentialSpec

_POLE_TOL = 1e-12
_REALITY_TOL = 1e-12


class Family(enum.Enum):
    TrigScarf = "trig-scarf"
    HyperbolicScarf = "hyperbolic-scarf"
    ManningRosen = "manning-rosen"


class Variant(enum.Enum):
    Base = "base"
    PT = "pt"
    QDeformedPT = "qpt"
    NonPT = "nonpt"


class Predicate(NamedTuple):
    name: str
    measured: complex
    ok: bool


class VariantForm(NamedTuple):
    """The facts of one (family, variant) pair."""

    potential: Callable  # (spec, float array x) -> complex array V(x); SingularityError at poles
    wall: Callable  # spec -> location of the singular inner wall, or None
    threshold: Callable  # spec -> continuum threshold: the x -> +inf limit of a decaying form, else inf
    levels: Callable  # (spec, n_max) -> (published E_0..E_n_max, warnings, second sign or None)
    note: str  # convention note of the published closed form
    right_wall: Callable | None = None  # spec -> right wall, when the form lives on one finite cell
    needs_q: bool = True  # False for the two undeformed trig forms only
    complexified: tuple[str, ...] = ()  # couplings p -> p(1+i) in the transform to this form; () means real couplings
    # spec -> [Predicate] under which the published spectrum is claimed real,
    # [] for an unconditional claim; None where no claim is made (Base)
    predicates: Callable | None = None


class FamilyRecord(NamedTuple):
    params: tuple[str, ...]
    variants: dict  # Variant -> VariantForm
    s_map: Callable  # (spec, x) -> s of the reduction
    s_interval: Callable  # q -> (lo, hi), the s-image of the quantization domain; hi None where unbounded
    # (spec, energy) -> (sigma, tau_tilde, sigma_tilde) of the Base form, in the
    # dimensionless couplings named in each family's reduce, with k = hbar^2/2m
    reduce: Callable
    aux: Callable = lambda spec: {}  # spec -> auxiliaries recorded in the trace of its Base form


def _check_poles(den, scale, x):
    import numpy as np

    bad = np.abs(den) < _POLE_TOL * scale
    if np.any(bad):
        where = np.asarray(x)[bad] if np.ndim(x) else x
        raise SingularityError(f"potential pole at x={where}", where=where)


_origin = lambda spec: 0.0
_no_wall = lambda spec: None
_no_threshold = lambda spec: math.inf
_zero_threshold = lambda spec: 0.0
_unconditional = lambda spec: []  # the PT forms claim a real spectrum under no condition


def _sinh_q_wall(spec: PotentialSpec) -> float | None:
    """Zero of sinh_q(alpha x), which exists for q > 0."""
    return math.log(spec.q) / (2.0 * spec.alpha) if spec.q > 0 else None


# -- trigonometric Scarf ---------------------------------------------------


def _trig_base(spec: PotentialSpec, x):
    import numpy as np

    ax = spec.alpha * x
    s = np.sin(ax)
    _check_poles(s, 1.0, x)
    return (-spec.A / s**2).astype(complex)


def _trig_pt(spec: PotentialSpec, x):
    import numpy as np

    ax = spec.alpha * x
    s = np.sinh(ax)
    _check_poles(s, np.cosh(ax), x)
    return (spec.A / s**2).astype(complex)


def _trig_qpt(spec: PotentialSpec, x):
    ax = spec.alpha * x
    s = sinh_q(ax, spec.q)
    _check_poles(s, cosh_q(ax, abs(spec.q)).real, x)
    return spec.A / s**2


def _trig_nonpt(spec: PotentialSpec, x):
    ax = spec.alpha * x
    s = sinh_q(ax, 1j * spec.q)
    _check_poles(s, cosh_q(ax, abs(spec.q)).real, x)
    return complex(spec.A) / s**2


def _trig_base_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    root = sqrt_principal(0.25 - spec.A / ka2)
    return [ka2 * ((n + 0.5) + root) ** 2 for n in range(n_max + 1)], [], None


def _trig_image_levels(spec: PotentialSpec, n_max: int, root: complex, validity: str = ""):
    """E_n = -k a^2 (n + 1/2 - root)^2, with the validity condition root < 1
    checked when the form states one."""
    warnings = []
    if validity and (not root.real < 1.0 or root.imag != 0.0):
        warnings.append(f"validity condition {validity} < 1 fails")
    ka2 = spec.kappa * spec.alpha**2
    return [-ka2 * ((n + 0.5) - root) ** 2 for n in range(n_max + 1)], warnings, None


def _trig_pt_levels(spec: PotentialSpec, n_max: int):
    root = sqrt_principal(spec.A / (spec.kappa * spec.alpha**2) + 0.25)
    return _trig_image_levels(spec, n_max, root, "sqrt(1/4 + 2mA/(hbar^2 alpha^2))")


def _trig_qpt_levels(spec: PotentialSpec, n_max: int):
    root = sqrt_principal(spec.A / (spec.kappa * spec.alpha**2) / spec.q + 0.25)
    return _trig_image_levels(spec, n_max, root, "sqrt(1/4 + 2mA/(hbar^2 alpha^2 q))")


def _trig_nonpt_levels(spec: PotentialSpec, n_max: int):
    a1, a2 = complex(spec.A).real, complex(spec.A).imag
    root = sqrt_principal(-(1j * a1 - a2) / (spec.kappa * spec.alpha**2 * spec.q) + 0.25)
    return _trig_image_levels(spec, n_max, root)


def _trig_s_map(spec: PotentialSpec, x):
    import numpy as np

    return np.cos(spec.alpha * np.asarray(x, dtype=float))


def _trig_reduce(spec: PotentialSpec, energy: complex):
    """eps = E/(k a^2), beta = A/(k a^2)."""
    ka2 = spec.kappa * spec.alpha**2
    eps, beta = complex(energy / ka2), complex(spec.A / ka2)
    return LowPoly(1.0, 0.0, -1.0), LowPoly(0.0, -1.0, 0.0), LowPoly(eps + beta, 0.0, -eps)


def _trig_predicates(spec: PotentialSpec):
    a1 = complex(spec.A).real
    return [Predicate("A1 = 0", a1, abs(a1) <= _REALITY_TOL * (1 + abs(complex(spec.A))))]


# -- q-deformed hyperbolic Scarf -------------------------------------------


def _hyp_base(spec: PotentialSpec, x):
    ax, q = spec.alpha * x, spec.q
    sh = sinh_q(ax, q)
    ch = cosh_q(ax, q)
    _check_poles(sh, cosh_q(ax, abs(q)).real, x)
    return (spec.V0 + spec.V1 * (ch / sh) ** 2 + spec.V2 * ch / sh**2).astype(complex)


def _hyp_pt(spec: PotentialSpec, x):
    import numpy as np

    ax, q = spec.alpha * x, spec.q
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


def _hyp_nonpt(spec: PotentialSpec, x):
    import numpy as np

    ax = spec.alpha * x
    u = spec.q * np.exp(-2 * ax)
    den = (u + 1j) ** 2
    _check_poles(den, u**2 + 1, x)
    v1, v2 = complex(spec.V1), complex(spec.V2)
    sqrt_iq = np.sqrt(1j * spec.q + 0j)
    term1 = v1 * (u - 1j) ** 2 / den
    term2 = -(v2 / sqrt_iq) * np.exp(-ax) * (1 + 1j * u) / den
    return spec.V0 + term1 + term2


def _hyp_base_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    inner = sqrt_principal((4.0 * spec.V1 / ka2 + 1.0) ** 2 - 16.0 * spec.V2**2 / (ka2 * ka2 * spec.q))
    outer = sqrt_principal(0.5 + 2.0 * spec.V1 / ka2 + 0.5 * inner)
    return [spec.V1 + spec.V0 - ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)], [], None


def _hyp_pt_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    inner = sqrt_principal((-4.0 * spec.V1 / ka2 + 1.0) ** 2 - 16.0 * spec.V2**2 / (ka2 * ka2 * spec.q))
    outer = sqrt_principal(0.5 - 2.0 * spec.V1 / ka2 + 0.5 * inner)
    return [spec.V1 - spec.V0 + ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)], [], None


def _hyp_nonpt_levels(spec: PotentialSpec, n_max: int):
    ka2 = spec.kappa * spec.alpha**2
    v1, v2 = complex(spec.V1), complex(spec.V2)
    w = (2j - 1.0) * v1 / ka2
    inner = sqrt_principal((w + 1.0) ** 2 - v2**2 / (ka2 * ka2 * spec.q))
    outer = sqrt_principal(0.5 + w + 0.5 * inner)
    return [spec.V0 + 1j * v1 + ka2 * ((n + 0.5) - 0.5 * outer) ** 2 for n in range(n_max + 1)], [], None


def _hyp_s_map(spec: PotentialSpec, x):
    import numpy as np

    return cosh_q(spec.alpha * np.asarray(x, dtype=float), spec.q)


def _hyp_s_interval(q: float):
    return (math.sqrt(abs(q)), None)


def _hyp_couplings(spec: PotentialSpec) -> tuple[complex, complex]:
    """beta and gamma of the reduced equation, with beta^2 = V1/(k a^2) and
    gamma^2 = V2/(k a^2) at every q: with s = cosh_q(alpha x), sinh_q^2 =
    s^2 - q, and q enters the triple only through sigma = s^2 - q and the
    -q eps^2 of sigma_tilde."""
    ka2 = spec.kappa * spec.alpha**2
    return sqrt_principal(spec.V1 / ka2), sqrt_principal(spec.V2 / ka2)


def _hyp_reduce(spec: PotentialSpec, energy: complex):
    """eps^2 = (E - V0)/(k a^2), beta and gamma from _hyp_couplings."""
    ka2 = spec.kappa * spec.alpha**2
    q = spec.q
    if not q > 0:
        # at q < 0, s = cosh_q(alpha x) covers the whole real line and s^2 - q has no real root
        raise UnsupportedReduction(
            f"the hyperbolic Scarf reduction (sigma = s^2 - q on s > sqrt(q)) assumes q > 0, got q = {q:g}"
        )
    beta, gamma = _hyp_couplings(spec)
    e2, b2, g2 = sqrt_principal((energy - spec.V0) / ka2) ** 2, beta**2, gamma**2
    return LowPoly(-q, 0.0, 1.0), LowPoly(0.0, 1.0, 0.0), LowPoly(-q * e2, -g2, e2 - b2)


def _hyp_aux(spec: PotentialSpec) -> dict:
    """zeta1, zeta2 and mu of the reduced equation; zeta1 is the outer
    radical of the published closed form."""
    beta, gamma = _hyp_couplings(spec)
    b2 = beta**2
    g4 = gamma**4
    q = spec.q
    mu = 4.0 * q * sqrt_principal((4.0 * b2 + 1.0) ** 2 - 16.0 * g4 / q)
    z1 = sqrt_principal(0.5 + 2.0 * b2 + mu / (8.0 * q))
    z2 = sqrt_principal(0.5 + 2.0 * b2 - mu / (8.0 * q))
    return {"zeta1": z1, "zeta2": z2, "mu": mu}


def _hyp_predicates(spec: PotentialSpec):
    v1, v2 = complex(spec.V1), complex(spec.V2)
    return [
        Predicate("Re(V1) = 0", v1.real, abs(v1.real) <= _REALITY_TOL * (1 + abs(v1))),
        Predicate("Im(V2) = 0", v2.imag, abs(v2.imag) <= _REALITY_TOL * (1 + abs(v2))),
    ]


# -- Manning-Rosen ---------------------------------------------------------


def _mr_base(spec: PotentialSpec, x):
    ax, q = spec.alpha * x, spec.q
    sh = sinh_q(ax, q)
    ch = cosh_q(ax, q)
    _check_poles(sh, cosh_q(ax, abs(q)).real, x)
    return (spec.A * ch / sh + spec.B / sh**2).astype(complex)


def _mr_pt(spec: PotentialSpec, x):
    import numpy as np

    ax, q = spec.alpha * x, spec.q
    c2, s2 = np.cos(2 * ax), np.sin(2 * ax)
    den = (1 + q**2) * c2 + 1j * (1 - q**2) * s2 - 2 * q
    _check_poles(den, (1 + q**2) + 2 * abs(q), x)
    num = spec.A * ((1 - q**2) * c2 + 1j * (1 + q**2) * s2) + 4 * spec.B
    return num / den


def _mr_nonpt(spec: PotentialSpec, x):
    import numpy as np

    ax, q = spec.alpha * x, spec.q
    u = np.exp(-2 * ax)
    den = (1j * q * u - 1) ** 2
    _check_poles(den, q**2 * u**2 + 1, x)
    A, B = complex(spec.A), complex(spec.B)
    return 1j * A * (1 - q**2 * u**2) / den + 4 * B * u / den


def _mr_pt_wall(spec: PotentialSpec) -> float | None:
    return 0.0 if spec.q == 1 else None  # q=1 form has poles at k*pi/alpha


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


def _mr_bracket_levels(spec: PotentialSpec, n_max: int, sign: float):
    """The printed bracket times sign * k a^2 (+1 Base, -1 PT)."""
    ka2 = spec.kappa * spec.alpha**2
    ee, warnings = [], []
    for n in range(n_max + 1):
        br = _mr_bracket(spec, n)
        if br is None:
            warnings.append(f"level n={n}: bracket singular (sqrt(1+gamma/q) = 2n+1)")
            ee.append(complex("nan"))
            continue
        ee.append(sign * ka2 * br)
    return ee, warnings, None


def _mr_nonpt_levels(spec: PotentialSpec, n_max: int):
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
    return ee, [], alt


def _mr_s_map(spec: PotentialSpec, x):
    import numpy as np

    return np.exp(-2.0 * spec.alpha * np.asarray(x, dtype=float))


def _mr_s_interval(q: float):
    if q > 0:  # s = e^{-2 alpha x} runs from 1/q at the wall sinh_q = 0 to 0
        return (0.0, 1.0 / q)
    return (0.0, None)


def _mr_reduce(spec: PotentialSpec, energy: complex):
    """eps = -E/(k a^2), beta = A/(k a^2), gamma = 4B/(k a^2)."""
    ka2 = spec.kappa * spec.alpha**2
    q = spec.q
    eps, beta, gamma = complex(-energy / ka2), complex(spec.A / ka2), complex(4.0 * spec.B / ka2)
    sigma_t = LowPoly(
        0.25 * (-eps - beta),
        0.25 * (2.0 * eps * q - gamma),
        0.25 * (q * q * (beta - eps)),
    )
    return LowPoly(0.0, 1.0, -q), LowPoly(1.0, -q, 0.0), sigma_t


def _mr_predicates(spec: PotentialSpec):
    a2 = complex(spec.A) / (4.0 * spec.kappa * spec.alpha**2)
    b2 = complex(spec.B) / (4.0 * spec.kappa * spec.alpha**2)
    lhs = 16.0 * b2.real / spec.q - 1.0
    return [
        Predicate("Re(a^2) = 0", a2.real, abs(a2.real) <= _REALITY_TOL * (1 + abs(a2))),
        Predicate("Im(b^2) = 0", b2.imag, abs(b2.imag) <= _REALITY_TOL * (1 + abs(b2))),
        Predicate("16 Re(b^2)/q - 1 < 8 Im(a^2)", lhs - 8.0 * a2.imag, lhs < 8.0 * a2.imag),
    ]


FAMILIES = {
    Family.TrigScarf: FamilyRecord(
        params=("A",),
        variants={
            Variant.Base: VariantForm(
                _trig_base, _origin, _no_threshold, _trig_base_levels,
                "well spectrum; alpha = pi/period recovers the periodic form",
                right_wall=lambda spec: math.pi / spec.alpha, needs_q=False,
            ),
            Variant.PT: VariantForm(
                _trig_pt, _origin, _zero_threshold, _trig_pt_levels,
                "sign-flipped well depth under the alpha -> i alpha image", needs_q=False, predicates=_unconditional,
            ),
            Variant.QDeformedPT: VariantForm(
                _trig_qpt, _sinh_q_wall, _zero_threshold, _trig_qpt_levels,
                "deformed coupling A/q; q=1 recovers the PT spectrum", predicates=_unconditional,
            ),
            Variant.NonPT: VariantForm(
                _trig_nonpt, _no_wall, _zero_threshold, _trig_nonpt_levels,  # sinh_{iq} has no real zero
                "complexified coupling A1 + iA2 with q -> iq folded in; real iff A1 = 0",
                complexified=("A",), predicates=_trig_predicates,
            ),
        },
        s_map=_trig_s_map,
        s_interval=lambda q: (-1.0, 1.0),
        reduce=_trig_reduce,
    ),
    Family.HyperbolicScarf: FamilyRecord(
        params=("V0", "V1", "V2"),
        variants={
            Variant.Base: VariantForm(
                _hyp_base, _sinh_q_wall, lambda spec: float(spec.V0 + spec.V1), _hyp_base_levels,
                "published form is the reduced equation's root at every q > 0; "
                "q enters only as V2/sqrt(q), the coupling of the q = 1 translate",
            ),
            # PT forms are oscillatory: no continuum threshold
            Variant.PT: VariantForm(
                _hyp_pt, _no_wall, _no_threshold, _hyp_pt_levels, "PT image of the deformed well",
                predicates=_unconditional,
            ),
            Variant.NonPT: VariantForm(
                _hyp_nonpt, _no_wall, lambda spec: float((complex(spec.V0) + complex(spec.V1)).real), _hyp_nonpt_levels,
                "printed combination (2i - 1)V1 evaluated with the stored complex V1, V2",
                complexified=("V1", "V2"), predicates=_hyp_predicates,
            ),
        },
        s_map=_hyp_s_map,
        s_interval=_hyp_s_interval,
        reduce=_hyp_reduce,
        aux=_hyp_aux,
    ),
    Family.ManningRosen: FamilyRecord(
        params=("A", "B"),
        variants={
            Variant.Base: VariantForm(
                _mr_base, _sinh_q_wall, lambda spec: float(spec.A),
                lambda spec, n_max: _mr_bracket_levels(spec, n_max, 1.0), _MR_SIGN_NOTE,
            ),
            Variant.PT: VariantForm(
                _mr_pt, _mr_pt_wall, _no_threshold,
                lambda spec, n_max: _mr_bracket_levels(spec, n_max, -1.0), _MR_SIGN_NOTE, predicates=_unconditional,
            ),
            Variant.NonPT: VariantForm(
                _mr_nonpt, _no_wall, lambda spec: float((1j * complex(spec.A)).real), _mr_nonpt_levels,
                "published for eps^2; both +-sqrt candidates returned (entries carry +, alt_entries -)",
                complexified=("A", "B"), predicates=_mr_predicates,
            ),
        },
        s_map=_mr_s_map,
        s_interval=_mr_s_interval,
        reduce=_mr_reduce,
    ),
}


def variant_form(spec: PotentialSpec) -> VariantForm:
    """The facts of the spec's (family, variant) pair; raises
    UnsupportedVariant when the family has no such variant."""
    try:
        return FAMILIES[spec.family].variants[spec.variant]
    except KeyError:
        raise UnsupportedVariant(f"{spec.family.name} has no {spec.variant.name} variant") from None
