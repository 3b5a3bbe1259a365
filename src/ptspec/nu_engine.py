"""Numeric pipeline for second-order equations of hypergeometric type.

For each potential family the Schroedinger equation reduces, under the
family's coordinate map (its record in `families.py`), to

    psi'' + (tau_tilde/sigma) psi' + (sigma_tilde/sigma^2) psi = 0

with sigma, sigma_tilde of degree <= 2 and tau_tilde of degree <= 1, the
energy entering through sigma_tilde.  Manning-Rosen uses the printed
tau_tilde = 1 - q s, the form consistent with the s = e^{-2 alpha x}
substitution.  The pipeline then

  1. forms the radicand Q(s; k) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde
     + k*sigma and solves discriminant_s(Q) = 0 for the two k candidates;
  2. factors Q at each k as a perfect square (a s + b)^2 and enumerates the
     four branch candidates pi = (sigma' - tau_tilde)/2 +- (a s + b);
  3. keeps branches with Re(tau') < 0 where tau = tau_tilde + 2 pi, ranked
     by weight-function integrability and then by Re(tau'), most negative
     first (integrability is computed only where it is read: at the real
     roots of step 4 and in select_branch);
  4. solves the polynomial-termination condition
     F_n(E) = lambda + n tau' + n(n-1) sigma''/2 = 0,  lambda = k + pi',
     on all four branches at once.  sigma_tilde is affine in E, so the
     product of F_n over the branches is a polynomial P_n(E) of degree at
     most 4 (termination_poly), whose roots poly_roots finds.  Each real
     root of P_n is polished by Newton's method on the branch where F_n
     vanishes, and the first-ranked admissible (root, branch) pair is the
     level.

No published closed form is read: the pipeline is an independent check of
them.  Every derivation step is retained in an audit trace.  The arithmetic
is on Python complex numbers and tuples of them, so `trace` runs without
NumPy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core_math import LowPoly, complex_json, poly_roots, quadratic_roots, sqrt_principal
from .errors import DegenerateDiscriminant, DegenerateTermination, NoAdmissibleBranch, UnsupportedVariant
from .families import FAMILIES, Variant
from .potentials import PotentialSpec

_F_TOL = 1e-12  # a root's F_n residual (_f_residual) at most this
_COEFF_TOL = 1e-10  # a coefficient of P_n this small against its terms is rounding
_DISC_TOL = 1e-14  # a k-discriminant this small against its terms is rounding
_POLISH_STEPS = 4  # forms built per root of P_n while polishing, at most
_POLISH_REACH = 1e-6  # a polishing step longer than this, relative to 1 + |E|, leaves the root


class HypergeometricForm(NamedTuple):
    """(sigma, tau_tilde, sigma_tilde) triple at a fixed trial energy, with
    the spec it reduces (None for a raw triple).  s_interval is the s-image
    (lo, hi) of the quantization domain on which the weight must be
    integrable, hi None where it is unbounded: the family's, or (-1, 1) for
    a raw triple."""

    spec: PotentialSpec | None
    sigma: LowPoly
    tau_tilde: LowPoly
    sigma_tilde: LowPoly

    @property
    def s_interval(self) -> tuple:
        return (-1.0, 1.0) if self.spec is None else FAMILIES[self.spec.family].s_interval(self.spec.q)


def build_form(spec: PotentialSpec, energy: complex) -> HypergeometricForm:
    """Reduced-equation triple of the family's Base form, sigma_tilde
    evaluated at the trial energy."""
    if spec.variant is not Variant.Base:
        raise UnsupportedVariant("the numeric pipeline reduces the Base forms only")
    return HypergeometricForm(spec, *FAMILIES[spec.family].reduce(spec, energy))


def synthetic_form(sigma: LowPoly, tau_tilde: LowPoly, sigma_tilde: LowPoly) -> HypergeometricForm:
    """Wrap a raw polynomial triple (used for fixtures and the trace CLI);
    its weight is screened on s in (-1, 1)."""
    return HypergeometricForm(None, sigma, tau_tilde, sigma_tilde)


def _half_gap(form: HypergeometricForm) -> LowPoly:
    """(sigma' - tau_tilde)/2."""
    return (form.sigma.derivative() - form.tau_tilde).scale(0.5)


def _radicand_head(form: HypergeometricForm, p: LowPoly) -> LowPoly:
    """p^2 - sigma_tilde, p the half gap: the radicand less k sigma."""
    return LowPoly(p.c0 * p.c0, 2.0 * p.c0 * p.c1, p.c1 * p.c1) - form.sigma_tilde


def _radicand(form: HypergeometricForm, k: complex) -> LowPoly:
    return _radicand_head(form, _half_gap(form)) + form.sigma.scale(k)


def k_candidates(form: HypergeometricForm, base: LowPoly | None = None) -> tuple[complex, complex]:
    """Both k for which the radicand's s-discriminant vanishes.

    base is the radicand at k = 0, computed from the form when not given.
    The discriminant is a polynomial in k; raises DegenerateDiscriminant
    when it is constant (no k can be solved for).
    """
    if base is None:
        base = _radicand(form, 0.0)
    s2, s1, s0 = form.sigma.c2, form.sigma.c1, form.sigma.c0
    b2, b1, b0 = base.c2, base.c1, base.c0
    ak = s1 * s1 - 4.0 * s2 * s0
    bk = 2.0 * b1 * s1 - 4.0 * (b2 * s0 + b0 * s2)
    ck = b1 * b1 - 4.0 * b2 * b0
    scale = max(abs(ak), abs(bk), abs(ck), 1.0)
    if abs(ak) > 1e-14 * scale:
        # the k-discriminant against the magnitudes of its terms, down to
        # those of a_k, b_k and c_k: where D(k) has a double root for every
        # E (fig4), a residue at this level is rounding, and the two k must
        # not split by its square root
        at = abs(s1) ** 2 + 4.0 * abs(s2) * abs(s0)
        bt = 2.0 * abs(b1) * abs(s1) + 4.0 * (abs(b2) * abs(s0) + abs(b0) * abs(s2))
        ct = abs(b1) ** 2 + 4.0 * abs(b2) * abs(b0)
        if abs(bk * bk - 4.0 * ak * ck) <= _DISC_TOL * (bt * bt + 4.0 * at * ct):
            k = -bk / (2.0 * ak)
            return (k, k)
        return quadratic_roots(LowPoly(ck, bk, ak))
    if abs(bk) > 1e-14 * scale:
        k = -ck / bk
        return (k, k)
    raise DegenerateDiscriminant("radicand discriminant is constant in k")


def _square_factor(Q: LowPoly) -> tuple[complex, complex, float]:
    """Factor a (near) perfect-square quadratic as (a s + b)^2.

    Returns (a, b, residual) with residual the coefficientwise reconstruction
    defect relative to the radicand scale.
    """
    scale = max(abs(Q.c0), abs(Q.c1), abs(Q.c2), 1e-300)
    if abs(Q.c2) > 1e-13 * scale:
        a = sqrt_principal(Q.c2)
        b = Q.c1 / (2.0 * a)
    else:
        a = 0.0
        b = sqrt_principal(Q.c0)
    rec = LowPoly(b * b, 2.0 * a * b, a * a)
    resid = max(abs(rec.c0 - Q.c0), abs(rec.c1 - Q.c1), abs(rec.c2 - Q.c2)) / scale
    return complex(a), complex(b), float(resid)


class BranchCandidate(NamedTuple):
    """One (k, sign) combination of the pi formula: pi, tau = tau_tilde +
    2 pi, and the defect of the perfect square pi was read from.  tau',
    lambda = k + pi', admissibility (Re tau' < 0) and the rejection text
    are derived from these.

    weight_integrable stays None until the candidate is weighed (_weigh):
    the ranking, the trace and eigenfunction assembly read it.
    """

    k: complex
    sign: int
    pi: LowPoly
    tau: LowPoly
    square_residual: float
    weight_integrable: bool | None = None

    @property
    def tau_slope(self) -> complex:
        return complex(self.tau.c1)

    @property
    def lam(self) -> complex:
        return self.k + complex(self.pi.c1)

    @property
    def admissible(self) -> bool:
        return self.tau_slope.real < 0.0

    @property
    def rejection(self) -> str:
        return "" if self.admissible else f"Re(tau')={self.tau_slope.real:.6g} >= 0"


class NUTrace(NamedTuple):
    """Full derivation record for one accepted branch: chosen is one of
    the four candidates, whose slots 0-1 hold the first k and 2-3 the
    second.  n and energy are the level's, None for a form traced at no
    level (select_branch)."""

    form: HypergeometricForm
    chosen: BranchCandidate
    candidates: tuple[BranchCandidate, ...]
    n: int | None = None
    energy: complex | None = None

    @property
    def k_candidates(self) -> tuple[complex, complex]:
        return (self.candidates[0].k, self.candidates[2].k)

    @property
    def lambda_n(self) -> complex | None:
        """The lambda at which level n terminates on the chosen branch."""
        return None if self.n is None else -_f_n(self.chosen.tau_slope, self.form.sigma, self.n)

    @property
    def aux(self) -> dict:
        spec = self.form.spec
        return FAMILIES[spec.family].aux(spec) if spec is not None else {}

    @property
    def notes(self) -> dict:
        return {} if self.n is None else {"n": self.n, "energy": self.energy}


def _rational_exponents(num: LowPoly, den: LowPoly):
    """Exponents of exp(int num/den ds) at the simple roots of den.

    Returns (roots, exponents).  Double roots keep the residue exponent and
    ignore the essential part, and a den of degree < 2 its e^{c s} rate
    (enough for integrability screening).
    """
    if den.degree() == 2:
        r1, r2 = quadratic_roots(den)
        dp = den.derivative()
        if abs(r1 - r2) > 1e-12 * (1.0 + abs(r1) + abs(r2)):
            return [r1, r2], [num(r1) / dp(r1), num(r2) / dp(r2)]
        return [r1], [num.c1 / den.c2]
    if den.degree() == 1:
        r = -den.c0 / den.c1
        return [r], [num(r) / den.c1]
    return [], []  # constant denominator: no finite singular point


def weight_exponents(form: HypergeometricForm, tau: LowPoly):
    """Endpoint exponents of the weight rho solving (sigma rho)' = tau rho."""
    num = tau - form.sigma.derivative()
    return _rational_exponents(num, form.sigma)


def weight_failure(form: HypergeometricForm, tau: LowPoly) -> str:
    """Why the weight rho solving (sigma rho)' = tau rho is not integrable on
    the form's s-interval, or "" when it is."""
    lo, hi = form.s_interval
    roots, exps = weight_exponents(form, tau)
    tol = 1e-9
    # an exponent within _F_TOL of -1, relative to its size, is -1 (not
    # integrable): it comes from an energy whose F_n residual may be _F_TOL
    for r, e in zip(roots, exps):
        at_lo = abs(r - lo) <= tol * (1.0 + abs(lo))
        at_hi = (hi is not None) and abs(r - hi) <= tol * (1.0 + abs(hi))
        if (at_lo or at_hi) and complex(e).real <= -1.0 + _F_TOL * (1.0 + abs(e)):
            return f"rho exponent {e} at s={r} is not integrable"
    if hi is None and form.sigma.degree() == 2:
        power = (tau.c1 - 2.0 * form.sigma.c2) / form.sigma.c2
        if complex(power).real >= -1.0 - _F_TOL * (1.0 + abs(power)):
            return f"rho ~ s^{power} at infinity is not integrable"
    return ""


def _enumerate_branches(form: HypergeometricForm) -> list[BranchCandidate]:
    """The four unweighed (k, sign) candidates of a form, two per k.

    The half gap and the radicand head are built once; the radicand at
    each k is (p^2 - sigma_tilde) + sigma k, as in _radicand.
    """
    p = _half_gap(form)
    head = _radicand_head(form, p)
    ks = k_candidates(form, head + form.sigma.scale(0.0))
    out = []
    for k in ks:  # duplicate k kept so the audit always shows four slots
        a, b, resid = _square_factor(head + form.sigma.scale(k))
        for sign in (+1, -1):
            pi = LowPoly(p.c0 + sign * b, p.c1 + sign * a, 0.0)
            out.append(BranchCandidate(complex(k), sign, pi, form.tau_tilde + pi.scale(2.0), resid))
    return out


def branches(spec: PotentialSpec, energy: complex):
    """(form, four unweighed candidates) at a trial energy."""
    form = build_form(spec, energy)
    return form, _enumerate_branches(form)


def _weigh(form: HypergeometricForm, cands) -> list[BranchCandidate]:
    """The candidates with weight integrability filled in."""
    return [c._replace(weight_integrable=not weight_failure(form, c.tau)) for c in cands]


def _first_ranked(cands: list[BranchCandidate], why: str) -> int:
    """Index of the admissible weighed candidate that ranks first:
    integrable weight first, then the most negative Re(tau'), the first on
    a tie.  Raises NoAdmissibleBranch(why), listing cands, when none is
    admissible."""
    admissible = [i for i, c in enumerate(cands) if c.admissible]
    if not admissible:
        raise NoAdmissibleBranch(why, candidates=cands)
    return min(admissible, key=lambda i: (not cands[i].weight_integrable, cands[i].tau_slope.real))


def select_branch(form: HypergeometricForm) -> NUTrace:
    """Enumerate all four (k, sign) combinations and accept one.

    Acceptance requires Re(tau') < 0; ties break first on weight-function
    integrability over the form's s-interval, then on the most negative
    Re(tau').  All four candidates are retained in the trace for audit.
    """
    cands = _weigh(form, _enumerate_branches(form))
    i = _first_ranked(cands, "all four branch candidates have Re(tau') >= 0")
    return NUTrace(form, cands[i], tuple(cands))


def _f_n(tau_slope: complex, sigma: LowPoly, n: int, lam: complex | None = None) -> complex:
    """F_n = lambda + n tau' + n(n-1) sigma''/2, summed left to right.

    Without lam it is the sum past lambda, -lambda_n: the lambda at which
    level n terminates.
    """
    head = n * tau_slope if lam is None else lam + n * tau_slope
    return head + 0.5 * n * (n - 1) * (2.0 * sigma.c2)


def _f_residual(c: BranchCandidate, sigma: LowPoly, n: int) -> float:
    """|F_n| of a candidate relative to 1 + the magnitudes of its terms
    (k, pi', n tau' and n(n-1) sigma''/2), whose rounding it carries."""
    size = abs(c.k) + abs(c.pi.c1) + n * abs(c.tau_slope) + n * (n - 1) * abs(sigma.c2)
    return abs(_f_n(c.tau_slope, sigma, n, c.lam)) / (1.0 + size)


def _add(u: tuple, v: tuple) -> tuple:
    """Sum of two coefficient tuples, highest power first, aligned at the
    constant term, with no leading zero dropped: the two passes of
    _resultant must keep the same length."""
    if len(u) < len(v):
        u, v = v, u
    cut = len(u) - len(v)
    return u[:cut] + tuple(x + y for x, y in zip(u[cut:], v))


def _scaled(a, u: tuple) -> tuple:
    return tuple(a * x for x in u)


def _mul(u: tuple, v: tuple) -> tuple:
    """Product of two coefficient tuples, highest power first."""
    out = [0.0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return tuple(out)


def _polyval(coeffs, x):
    """Horner's rule, coefficients highest power first."""
    y = 0.0
    for a in coeffs:
        y = y * x + a
    return y


def _resultant(s, b, c, m, sign):
    """Coefficients in E, highest first, of the resultant in k of the
    radicand's discriminant D(k) = a_k k^2 + b_k k + c_k (as in k_candidates)
    and g(k) = F_n^+ F_n^- = (k + c)^2 - m^2 (b2 + k s2).

    s = (s0, s1, s2) are sigma's coefficients and b = (b0, b1, b2) those of
    the radicand at k = 0, each a (slope, intercept) tuple in E.  sign = -1
    gives the resultant; sign = +1 on absolute values gives, per
    coefficient, the sum of the magnitudes of its terms (its rounding scale).
    """
    s0, s1, s2 = s
    b0, b1, b2 = b
    ak = s1 * s1 + sign * 4.0 * s2 * s0
    bk = _add(_scaled(2.0 * s1, b1), _scaled(sign * 4.0, _add(_scaled(s0, b2), _scaled(s2, b0))))
    ck = _add(_mul(b1, b1), _scaled(sign * 4.0, _mul(b2, b0)))
    g1 = 2.0 * c + sign * m * m * s2
    g0 = _add((c * c,), _scaled(sign * m * m, b2))
    # two quadratics, g monic: (a_k g0 - c_k)^2 - (a_k g1 - b_k)(b_k g0 - c_k g1)
    x = _add(_scaled(ak, g0), _scaled(sign, ck))
    y = _mul(_add((ak * g1,), _scaled(sign, bk)), _add(_mul(bk, g0), _scaled(sign * g1, ck)))
    return _add(_mul(x, x), _scaled(sign, y))


def _affine_data(spec: PotentialSpec) -> tuple:
    """What every P_n of spec reads, from the forms at E = 0 and E = 1:
    sigma's coefficients, those of the radicand at k = 0 as (slope,
    intercept) pairs in E (sigma_tilde is affine in E), and the slopes of
    the half gap and of tau_tilde, which do not depend on E."""
    f0, f1 = build_form(spec, 0.0), build_form(spec, 1.0)
    r0, r1 = _radicand(f0, 0.0), _radicand(f1, 0.0)
    b = [(y - x, x) for x, y in zip(r0.coeffs(), r1.coeffs())]
    return f0.sigma.coeffs(), b, _half_gap(f0).c1, f0.tau_tilde.c1


def termination_poly(spec: PotentialSpec, n: int, affine: tuple | None = None) -> tuple[complex, ...]:
    """Coefficients in E, highest first, of P_n(E) = a_k^2 times the product
    of F_n over the four (k, sign) branches: its roots are every energy at
    which level n terminates on some branch.

    sigma_tilde is affine in E, so two forms (E = 0 and E = 1) fix the
    radicand, and P_n, the resultant of two quadratics in k, has degree at
    most 4.  affine is what they give (_affine_data), built here when not
    given: a spectrum builds it once for all its levels.  Coefficients at
    the rounding level of their own terms are set to 0, so P_n keeps its
    exact degree (2 for Manning-Rosen).  Raises DegenerateTermination when
    every coefficient is at that level.
    """
    s, b, gap_slope, tau_slope = _affine_data(spec) if affine is None else affine
    m = 2 * n + 1
    c = m * gap_slope + n * tau_slope + n * (n - 1) * s[2]
    value = _resultant(s, b, c, m, -1.0)
    scale = _resultant([abs(v) for v in s], [(abs(x), abs(y)) for x, y in b], abs(c), m, 1.0)
    value = [v if abs(v) > _COEFF_TOL * t else 0j for v, t in zip(value, scale)]
    while value and value[0] == 0:
        value.pop(0)
    if not value:
        raise DegenerateTermination(f"P_{n}(E) vanishes identically: level {n} terminates at every energy")
    return tuple(value)


def _polished(spec: PotentialSpec, n: int, dpoly: tuple, e: float):
    """Newton's method on P_n from e, a real root of its coefficients.

    P_n is evaluated as a_k^2 times the product of the four F_n, which is
    exact to rounding where one of them vanishes, so each step is Newton's
    on that factor.  Steps go on while they shrink the least F_n residual
    (_f_residual).  A step back to an energy already visited (the same e,
    or the other end of a one-ulp cycle) ends the loop: a form there gives
    the residuals it gave before, which did not beat the best.  So each
    form is built at a new energy.  Returns (e, form, candidates, residuals)
    at the best point, or None when no residual reaches _F_TOL: a root where
    F_n does not vanish, or one that poly_roots gives only to about the
    square root of the rounding level (a double root of P_n) and that the
    steps do not bring to _F_TOL within _POLISH_REACH and _POLISH_STEPS
    forms.
    """
    best, best_r, seen = None, math.inf, []
    for _ in range(_POLISH_STEPS):
        form, cands = branches(spec, e)
        rs = [_f_residual(c, form.sigma, n) for c in cands]
        if min(rs) >= best_r:
            break
        best, best_r = (e, form, cands, rs), min(rs)
        seen.append(e)
        f = math.prod(_f_n(c.tau_slope, form.sigma, n, c.lam) for c in cands)
        s0, s1, s2 = form.sigma.coeffs()
        slope = _polyval(dpoly, e)
        step = ((s1 * s1 - 4.0 * s2 * s0) ** 2 * f / slope).real if slope != 0 else math.inf
        if not abs(step) <= _POLISH_REACH * (1.0 + abs(e)) or e - step in seen:
            break
        e -= step
    return best if best_r <= _F_TOL else None


def solve_level(spec: PotentialSpec, n: int, affine: tuple | None = None) -> tuple[complex, NUTrace]:
    """Energy of level n with its trace, from the real roots of P_n
    (termination_poly, which reads affine).

    Each real root is polished on the branch where F_n vanishes; every
    branch whose F_n residual is at most _F_TOL there is a candidate, and
    only these are weighed.  The admissible one that ranks first
    (_first_ranked) is the level, and the four candidates of its form are
    weighed once, for the trace.  Raises NoAdmissibleBranch, listing the
    weighed candidates, when no real root lies on an admissible branch, and
    ValueError for n < 0.
    """
    if n < 0:
        raise ValueError("level n must be >= 0")
    poly = termination_poly(spec, n, affine)
    dpoly = tuple((len(poly) - 1 - i) * a for i, a in enumerate(poly[:-1]))
    found, weighed = [], []
    for root in poly_roots(poly):
        if abs(root.imag) > 1e-8 * (1.0 + abs(root)):
            continue  # Base pipeline: spectra are real
        at = _polished(spec, n, dpoly, root.real)
        if at is None:
            continue
        e, form, cands, rs = at
        ends = [i for i, r in enumerate(rs) if r <= _F_TOL]
        found += [(e, form, cands, i) for i in ends]
        weighed += _weigh(form, [cands[i] for i in ends])
    e_n, form, cands, i = found[_first_ranked(weighed, f"no real root of P_{n} lies on a branch with Re(tau') < 0")]
    cands = _weigh(form, cands)
    return complex(e_n), NUTrace(form, cands[i], tuple(cands), n, complex(e_n))


class NumericSpectrum(NamedTuple):
    """Levels n = 0..n_max of the numeric pipeline, with the trace of each."""

    entries: list  # [(n, complex E)]
    traces: list  # [NUTrace], one per entry


def solve_spectrum_numeric(spec: PotentialSpec, n_max: int) -> NumericSpectrum:
    """Energies for n = 0..n_max from the numeric pipeline, each with the
    trace of its accepted branch.  The forms every P_n reads are built
    once for all levels."""
    affine = _affine_data(spec) if n_max >= 0 else None
    levels = [solve_level(spec, n, affine) for n in range(n_max + 1)]
    return NumericSpectrum([(n, e) for n, (e, _) in enumerate(levels)], [t for _, t in levels])


def _poly_json(p: LowPoly):
    return [complex_json(c) for c in p.coeffs()]


def trace_to_dict(trace: NUTrace) -> dict:
    """JSON-ready derivation record with fixed field names."""
    return {
        "sigma": _poly_json(trace.form.sigma),
        "tau_tilde": _poly_json(trace.form.tau_tilde),
        "sigma_tilde": _poly_json(trace.form.sigma_tilde),
        "k_candidates": [complex_json(k) for k in trace.k_candidates],
        "chosen_k": complex_json(trace.chosen.k),
        "pi": _poly_json(trace.chosen.pi),
        "tau": _poly_json(trace.chosen.tau),
        "tau_slope": complex_json(trace.chosen.tau_slope),
        "lambda": complex_json(trace.chosen.lam),
        "lambda_n": complex_json(trace.lambda_n),
        "aux": {k: complex_json(v) for k, v in trace.aux.items()},
        "branches": [
            {
                "k": complex_json(c.k),
                "sign": c.sign,
                "pi": _poly_json(c.pi),
                "tau_slope": complex_json(c.tau_slope),
                "square_residual": c.square_residual,
                "admissible": c.admissible,
                "weight_integrable": c.weight_integrable,
                "rejection": c.rejection,
            }
            for c in trace.candidates
        ],
        "notes": {k: (complex_json(v) if isinstance(v, complex) else v) for k, v in trace.notes.items()},
    }
