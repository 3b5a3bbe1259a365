"""Numeric pipeline for second-order equations of hypergeometric type.

For each potential family the Schroedinger equation reduces, under the
family's coordinate map, to

    psi'' + (tau_tilde/sigma) psi' + (sigma_tilde/sigma^2) psi = 0

with sigma, sigma_tilde of degree <= 2 and tau_tilde of degree <= 1, the
energy entering through sigma_tilde.  Manning-Rosen uses the printed
tau_tilde = 1 - q s, the form consistent with the s = e^{-2 alpha x}
substitution.  The pipeline then

  1. forms the radicand Q(s; k) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde
     + k*sigma and solves discriminant_s(Q) = 0 for the two k candidates;
  2. factors Q at each k as a perfect square (a s + b)^2 and enumerates the
     four branch candidates pi = (sigma' - tau_tilde)/2 +- (a s + b);
  3. keeps branches with Re(tau') < 0 where tau = tau_tilde + 2 pi, breaking
     ties by weight-function integrability and then by |k| (integrability is
     computed only where it is read: at a seed and in the trace);
  4. solves the polynomial-termination condition
     F_n(E) = lambda + n tau' + n(n-1) sigma''/2 = 0,  lambda = k + pi',
     for the level-n energy by a complex secant iteration with branch
     continuation, seeded from the closed-form value when one exists.

Every derivation step is retained in an audit trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core_math import LowPoly, complex_json, quadratic_roots, sqrt_principal
from .errors import (
    DegenerateDiscriminant,
    NoAdmissibleBranch,
    PtspecError,
    RootNotConverged,
    UnsupportedFamily,
    UnsupportedVariant,
)
from .potentials import Family, PotentialSpec, Variant

_F_TOL = 1e-12
_SECANT_BUDGET = 200
_SCAN_STARTS = 6  # local minima of the scan tried as secant starts


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless couplings of the reduced equation.

    trig:       eps = E/(k a^2),        beta = A/(k a^2)
    hyperbolic: eps^2 = (E-V0)/(k a^2), beta^2 = V1/(k a^2 q), gamma^2 = V2/(k a^2 sqrt(q))
    manning:    eps = -E/(k a^2),       beta = A/(k a^2),      gamma = 4B/(k a^2)

    with k = hbar^2/2m and a = alpha.
    """

    family: Family
    eps: complex
    beta: complex
    gamma: complex | None = None


def reduced_params(spec: PotentialSpec, energy: complex) -> ReducedParams:
    ka2 = spec.kappa * spec.alpha**2
    if spec.family is Family.TrigScarf:
        return ReducedParams(spec.family, energy / ka2, spec.A / ka2)
    if spec.family is Family.HyperbolicScarf:
        eps = sqrt_principal((energy - spec.V0) / ka2)
        beta = sqrt_principal(spec.V1 / (ka2 * spec.q))
        gamma = sqrt_principal(spec.V2 / (ka2 * np.sqrt(spec.q + 0j)))
        return ReducedParams(spec.family, eps, beta, gamma)
    if spec.family is Family.ManningRosen:
        return ReducedParams(spec.family, -energy / ka2, spec.A / ka2, 4.0 * spec.B / ka2)
    raise UnsupportedFamily(str(spec.family))


def energy_from_reduced(spec: PotentialSpec, eps: complex) -> complex:
    ka2 = spec.kappa * spec.alpha**2
    if spec.family is Family.TrigScarf:
        return ka2 * eps
    if spec.family is Family.HyperbolicScarf:
        return spec.V0 + ka2 * eps * eps
    if spec.family is Family.ManningRosen:
        return -ka2 * eps
    raise UnsupportedFamily(str(spec.family))


@dataclass(frozen=True)
class HypergeometricForm:
    """(sigma, tau_tilde, sigma_tilde) triple at a fixed trial energy."""

    family: Family
    sigma: LowPoly
    tau_tilde: LowPoly
    sigma_tilde: LowPoly
    reduced: ReducedParams


def build_form(spec: PotentialSpec, eps_trial: complex) -> HypergeometricForm:
    """Reduced-equation triple for the family, sigma_tilde evaluated at the
    trial reduced energy."""
    if spec.variant is not Variant.Base:
        raise UnsupportedVariant("the numeric pipeline reduces the Base forms only")
    fam = spec.family
    if fam is Family.TrigScarf:
        rp = ReducedParams(fam, complex(eps_trial), complex(spec.A / (spec.kappa * spec.alpha**2)))
        eps, beta = rp.eps, rp.beta
        return HypergeometricForm(
            fam,
            sigma=LowPoly(1.0, 0.0, -1.0),
            tau_tilde=LowPoly(0.0, -1.0, 0.0),
            sigma_tilde=LowPoly(eps + beta, 0.0, -eps),
            reduced=rp,
        )
    if fam is Family.HyperbolicScarf:
        ka2 = spec.kappa * spec.alpha**2
        q = spec.q
        rp = ReducedParams(
            fam,
            complex(eps_trial),
            sqrt_principal(spec.V1 / (ka2 * q)),
            sqrt_principal(spec.V2 / (ka2 * np.sqrt(q + 0j))),
        )
        e2, b2, g2 = rp.eps**2, rp.beta**2, rp.gamma**2
        return HypergeometricForm(
            fam,
            sigma=LowPoly(-q, 0.0, 1.0),
            tau_tilde=LowPoly(0.0, 1.0, 0.0),
            sigma_tilde=LowPoly(-q * e2, -g2, e2 - b2),
            reduced=rp,
        )
    if fam is Family.ManningRosen:
        ka2 = spec.kappa * spec.alpha**2
        q = spec.q
        rp = ReducedParams(fam, complex(eps_trial), complex(spec.A / ka2), complex(4.0 * spec.B / ka2))
        eps, beta, gamma = rp.eps, rp.beta, rp.gamma
        sigma_t = LowPoly(
            0.25 * (-eps - beta),
            0.25 * (2.0 * eps * q - gamma),
            0.25 * (q * q * (beta - eps)),
        )
        return HypergeometricForm(
            fam,
            sigma=LowPoly(0.0, 1.0, -q),
            tau_tilde=LowPoly(1.0, -q, 0.0),
            sigma_tilde=sigma_t,
            reduced=rp,
        )
    raise UnsupportedFamily(str(fam))


def synthetic_form(sigma: LowPoly, tau_tilde: LowPoly, sigma_tilde: LowPoly) -> HypergeometricForm:
    """Wrap a raw polynomial triple (used for fixtures and the trace CLI)."""
    rp = ReducedParams(Family.TrigScarf, 0.0, 0.0)
    return HypergeometricForm(Family.TrigScarf, sigma, tau_tilde, sigma_tilde, rp)


def _half_gap(form: HypergeometricForm) -> LowPoly:
    """(sigma' - tau_tilde)/2."""
    return (form.sigma.derivative() - form.tau_tilde).scale(0.5)


def _radicand(form: HypergeometricForm, k: complex) -> LowPoly:
    p = _half_gap(form)
    p2 = LowPoly(p.c0 * p.c0, 2.0 * p.c0 * p.c1, p.c1 * p.c1)
    return p2 - form.sigma_tilde + form.sigma.scale(k)


def k_candidates(form: HypergeometricForm) -> tuple[complex, complex]:
    """Both k for which the radicand's s-discriminant vanishes.

    The discriminant is a polynomial in k; raises DegenerateDiscriminant
    when it is constant (no k can be solved for).
    """
    base = _radicand(form, 0.0)
    s2, s1, s0 = form.sigma.c2, form.sigma.c1, form.sigma.c0
    b2, b1, b0 = base.c2, base.c1, base.c0
    ak = s1 * s1 - 4.0 * s2 * s0
    bk = 2.0 * b1 * s1 - 4.0 * (b2 * s0 + b0 * s2)
    ck = b1 * b1 - 4.0 * b2 * b0
    scale = max(abs(ak), abs(bk), abs(ck), 1.0)
    if abs(ak) > 1e-14 * scale:
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


@dataclass(frozen=True)
class BranchCandidate:
    """One (k, sign) combination of the pi formula, with its tau slope.

    weight_integrable stays None until the candidate is weighed (_weigh):
    only the seed ranking and the trace read it.
    """

    k: complex
    sign: int
    pi: LowPoly
    tau: LowPoly
    tau_slope: complex
    lam: complex
    square_residual: float
    admissible: bool
    weight_integrable: bool | None = None
    rejection: str = ""


@dataclass(frozen=True)
class NUTrace:
    """Full derivation record for one accepted branch."""

    form: HypergeometricForm
    k_candidates: tuple[complex, complex]
    chosen_k: complex
    pi: LowPoly
    tau: LowPoly
    tau_slope: complex
    lam: complex
    lambda_n: complex | None
    aux: dict
    candidates: tuple[BranchCandidate, ...]
    notes: dict = field(default_factory=dict)


class _Branch(NamedTuple):
    """A followed candidate, with the form, k pair and all four candidates at
    its energy."""

    form: HypergeometricForm
    ks: tuple[complex, complex]
    candidates: list[BranchCandidate]
    chosen: BranchCandidate


def _s_interval(family: Family, spec: PotentialSpec | None):
    """(lo, hi, hi_unbounded) image of the quantization domain under the map."""
    if family is Family.TrigScarf:
        return (-1.0, 1.0, False)
    if family is Family.HyperbolicScarf:
        q = spec.q if spec is not None else 1.0
        return (np.sqrt(abs(q)), None, True)
    if family is Family.ManningRosen:
        q = spec.q if spec is not None else 1.0
        if q > 0:
            return (0.0, min(1.0, 1.0 / q), False)
        return (0.0, None, True)
    raise UnsupportedFamily(str(family))


def _rational_exponents(num: LowPoly, den: LowPoly):
    """Exponents of exp(int num/den ds) at the simple roots of den.

    Returns (roots, exponents, linear_coeff); linear_coeff is the e^{c s}
    rate when deg den < 2.  Double roots keep the residue exponent and
    ignore the essential part (enough for integrability screening).
    """
    if den.degree() == 2:
        r1, r2 = quadratic_roots(den)
        dp = den.derivative()
        if abs(r1 - r2) > 1e-12 * (1.0 + abs(r1) + abs(r2)):
            return [r1, r2], [num(r1) / dp(r1), num(r2) / dp(r2)], 0.0
        return [r1], [num.c1 / den.c2], 0.0
    if den.degree() == 1:
        r = -den.c0 / den.c1
        return [r], [num(r) / den.c1], num.c1 / den.c1
    return [], [], 0.0  # constant denominator: pure exponential prefactor


def weight_exponents(form: HypergeometricForm, tau: LowPoly):
    """Endpoint exponents of the weight rho solving (sigma rho)' = tau rho."""
    num = tau - form.sigma.derivative()
    return _rational_exponents(num, form.sigma)


def weight_failure(form: HypergeometricForm, tau: LowPoly, spec: PotentialSpec | None) -> str:
    """Why the weight rho solving (sigma rho)' = tau rho is not integrable on
    the family's s-interval, or "" when it is."""
    lo, hi, hi_unbounded = _s_interval(form.family, spec)
    roots, exps, _ = weight_exponents(form, tau)
    tol = 1e-9
    for r, e in zip(roots, exps):
        at_lo = abs(r - lo) <= tol * (1.0 + abs(lo))
        at_hi = (hi is not None) and abs(r - hi) <= tol * (1.0 + abs(hi))
        if (at_lo or at_hi) and complex(e).real <= -1.0:
            return f"rho exponent {e} at s={r} is not integrable"
    if hi_unbounded and form.sigma.degree() == 2:
        power = (tau.c1 - 2.0 * form.sigma.c2) / form.sigma.c2
        if complex(power).real >= -1.0:
            return f"rho ~ s^{power} at infinity is not integrable"
    return ""


def _enumerate_branches(form: HypergeometricForm) -> tuple[tuple[complex, complex], list[BranchCandidate]]:
    """The k pair and the four unweighed (k, sign) candidates of a form."""
    ks = k_candidates(form)
    p = _half_gap(form)
    out = []
    for k in ks:  # duplicate k kept so the audit always shows four slots
        a, b, resid = _square_factor(_radicand(form, k))
        for sign in (+1, -1):
            pi = LowPoly(p.c0 + sign * b, p.c1 + sign * a, 0.0)
            tau = form.tau_tilde + pi.scale(2.0)
            slope = complex(tau.c1)
            lam = complex(k) + complex(pi.c1)
            admissible = slope.real < 0.0
            out.append(
                BranchCandidate(
                    k=complex(k),
                    sign=sign,
                    pi=pi,
                    tau=tau,
                    tau_slope=slope,
                    lam=lam,
                    square_residual=resid,
                    admissible=admissible,
                    rejection="" if admissible else f"Re(tau')={slope.real:.6g} >= 0",
                )
            )
    return ks, out


def branches(spec: PotentialSpec, energy: complex):
    """(form, k pair, four unweighed candidates) at a trial energy."""
    form = build_form(spec, reduced_params(spec, energy).eps)
    return (form, *_enumerate_branches(form))


def _weigh(form: HypergeometricForm, cands, spec: PotentialSpec | None) -> list[BranchCandidate]:
    """The candidates with weight integrability filled in."""
    return [replace(c, weight_integrable=not weight_failure(form, c.tau, spec)) for c in cands]


def _ranked(cands, where: str = "") -> list[BranchCandidate]:
    """Admissible (Re(tau') < 0) weighed candidates, integrable weight first,
    then smaller |k|."""
    admissible = [c for c in cands if c.admissible]
    if not admissible:
        raise NoAdmissibleBranch("all four branch candidates have Re(tau') >= 0" + where, candidates=cands)
    return sorted(admissible, key=lambda c: (not c.weight_integrable, abs(c.k)))


def _trace(form, ks, cands, best: BranchCandidate, lambda_n=None, notes=None) -> NUTrace:
    """Derivation record of the accepted candidate among weighed cands."""
    return NUTrace(
        form=form,
        k_candidates=(complex(ks[0]), complex(ks[1])),
        chosen_k=best.k,
        pi=best.pi,
        tau=best.tau,
        tau_slope=best.tau_slope,
        lam=best.lam,
        lambda_n=lambda_n,
        aux=_aux_record(form),
        candidates=tuple(cands),
        notes=notes or {},
    )


def select_branch(form: HypergeometricForm, spec: PotentialSpec | None = None) -> NUTrace:
    """Enumerate all four (k, sign) combinations and accept one.

    Acceptance requires Re(tau') < 0; ties break first on weight-function
    integrability over the family's s-interval, then on smaller |k|.  All
    four candidates are retained in the trace for audit.
    """
    ks, cands = _enumerate_branches(form)
    cands = _weigh(form, cands, spec)
    return _trace(form, ks, cands, _ranked(cands)[0])


def _aux_record(form: HypergeometricForm) -> dict:
    """zeta1, zeta2, mu auxiliaries (hyperbolic Scarf family only)."""
    if form.family is not Family.HyperbolicScarf:
        return {}
    rp = form.reduced
    b2 = rp.beta**2
    g4 = rp.gamma**4
    # q is -sigma.c0 for sigma = s^2 - q
    q = -form.sigma.c0
    mu = 4.0 * q * sqrt_principal((4.0 * b2 + 1.0) ** 2 - 16.0 * g4 / q)
    z1 = sqrt_principal(0.5 + 2.0 * b2 + mu / (8.0 * q))
    z2 = sqrt_principal(0.5 + 2.0 * b2 - mu / (8.0 * q))
    return {"zeta1": z1, "zeta2": z2, "mu": mu}


def _f_n(tau_slope: complex, sigma: LowPoly, n: int, lam: complex | None = None) -> complex:
    """F_n = lambda + n tau' + n(n-1) sigma''/2, summed left to right.

    Without lam it is the sum past lambda, -lambda_n: the lambda at which
    level n terminates.
    """
    head = n * tau_slope if lam is None else lam + n * tau_slope
    return head + 0.5 * n * (n - 1) * (2.0 * sigma.c2)


def level_equation(trace: NUTrace, n: int) -> complex:
    """Residual F_n = lambda + n tau' + n(n-1) sigma''/2 of the termination
    condition; a root in the energy means level n terminates."""
    return _f_n(trace.tau_slope, trace.form.sigma, n, trace.lam)


def _secant_root(spec: PotentialSpec, n: int, e0: complex, start: _Branch):
    """Damped complex secant on F_n along one branch, with pi-continuation.

    Returns (root, branch at the root, iterations)."""

    def f_of(energy, prev_pi):
        form, ks, cands = branches(spec, energy)
        dist = [abs(c.pi.c0 - prev_pi.c0) + abs(c.pi.c1 - prev_pi.c1) for c in cands]
        cand = cands[int(np.argmin(dist))]
        return _f_n(cand.tau_slope, form.sigma, n, cand.lam), _Branch(form, ks, cands, cand)

    z0 = complex(e0)
    z1 = complex(e0) + 1e-4 * (1.0 + abs(e0))
    f0, at = f_of(z0, start.chosen.pi)
    if abs(f0) <= _F_TOL:
        return z0, start, 0
    f1, at = f_of(z1, at.chosen.pi)
    for it in range(_SECANT_BUDGET):
        if f1 == f0:
            break
        step = -f1 * (z1 - z0) / (f1 - f0)
        cap = 5.0 * (1.0 + abs(z1))
        if abs(step) > cap:
            step *= cap / abs(step)
        z2 = z1 + step
        if not np.isfinite(z2.real) or not np.isfinite(z2.imag):
            break
        f2, at = f_of(z2, at.chosen.pi)
        z0, f0, z1, f1 = z1, f1, z2, f2
        if abs(f1) <= _F_TOL:
            return z1, at, it + 1
    raise RootNotConverged(f"|F_{n}| = {abs(f1):.3g} after secant budget")


def _scan_starts(spec: PotentialSpec, n: int) -> list[tuple[complex, _Branch]]:
    """Coarse scan: local minima of min-over-admissible-branches |F_n| on a
    real energy grid spanning the potential's value range, best first."""
    from .potentials import default_domain, evaluate

    dom = default_domain(spec)
    xs = np.linspace(dom.left, dom.right, 257)[1:-1]
    ok = []
    for x in xs:
        try:
            ok.append(evaluate(spec, float(x)).real)
        except PtspecError:
            continue
    vmin, vmax = float(np.min(ok)), float(np.max(ok))
    span = max(vmax - vmin, 1.0)
    ka2 = spec.kappa * spec.alpha**2
    hi = vmax + span + ka2 * (n + 3) ** 2
    lo = vmin - span - ka2 * (n + 3) ** 2
    grid = np.concatenate([np.linspace(lo, hi, 321), vmin + span * np.logspace(-3, 1.0, 64)])
    grid = np.unique(np.sort(grid))
    pts = []
    for e in grid:
        try:
            form, ks, cands = branches(spec, complex(e))
        except PtspecError:
            continue
        admissible = [c for c in cands if c.admissible]
        if not admissible:
            continue
        fvals = [abs(_f_n(c.tau_slope, form.sigma, n, c.lam)) for c in admissible]
        j = int(np.argmin(fvals))
        pts.append((fvals[j], complex(e), _Branch(form, ks, cands, admissible[j])))
    # keep local minima of |F| along the grid, best first
    minima = []
    for i, rec in enumerate(pts):
        left = pts[i - 1][0] if i > 0 else np.inf
        right = pts[i + 1][0] if i + 1 < len(pts) else np.inf
        if rec[0] <= left and rec[0] <= right:
            minima.append(rec)
    minima.sort(key=lambda t: t[0])
    return [(e, at) for _, e, at in minima[:_SCAN_STARTS]]


def solve_level(spec: PotentialSpec, n: int, seed_energy: complex | None = None) -> tuple[complex, NUTrace]:
    """Root of the level-n termination condition, with its trace.

    Every admissible branch at the seed is secant-iterated; converged roots
    must keep Re(tau') < 0 and (Base pipeline) come out real, and the root
    nearest the seed wins.  Without a usable closed-form seed the starts
    come from a coarse scan of the potential's value range.
    """
    starts = []
    if seed_energy is not None and np.isfinite(complex(seed_energy).real):
        e0 = complex(seed_energy)
        form0, ks0, cands0 = branches(spec, e0)
        cands0 = _weigh(form0, cands0, spec)
        starts = [(e0, _Branch(form0, ks0, cands0, c)) for c in _ranked(cands0, " at the seed")]
    else:
        seed_energy = None

    roots = []
    last_err = None

    def try_starts(start_list):
        nonlocal last_err
        for e0, start in start_list:
            try:
                e_root, at, _ = _secant_root(spec, n, e0, start)
            except RootNotConverged as err:
                last_err = err
                continue
            if at.chosen.tau_slope.real >= 0.0:
                continue
            if abs(e_root.imag) > 1e-8 * (1.0 + abs(e_root.real)):
                continue  # Base pipeline: spectra are real
            ref = seed_energy if seed_energy is not None else e0
            roots.append((abs(e_root - ref), complex(e_root.real), at))

    try_starts(starts)
    # exact (or near-exact) seed: accept without the scan fallback
    near_seed = seed_energy is not None and any(
        d <= 1e-6 * (1.0 + abs(seed_energy)) for d, *_ in roots
    )
    if not near_seed:
        scan = _scan_starts(spec, n)
        if not scan and not roots and seed_energy is None:
            raise NoAdmissibleBranch("no admissible branch anywhere on the scan grid")
        try_starts(scan)
    if not roots:
        raise last_err or RootNotConverged(f"no admissible branch converged for n={n}")
    roots.sort(key=lambda t: t[0])
    _, e_n, at = roots[0]
    notes = {
        "n": n,
        "energy": complex(e_n),
        "seed": None if seed_energy is None else complex(seed_energy),
        "tau_variant": "printed",  # Manning-Rosen's tau_tilde = 1 - q s, the only one
    }
    lambda_n = -_f_n(at.chosen.tau_slope, at.form.sigma, n)
    return e_n, _trace(at.form, at.ks, _weigh(at.form, at.candidates, spec), at.chosen, lambda_n, notes)


def solve_spectrum_numeric(spec: PotentialSpec, n_max: int):
    """Energies for n = 0..n_max from the numeric pipeline.

    Returns a SpectrumResult whose convention note records the branch data;
    closed-form seeds are used when the spectra module provides them.
    """
    from . import spectra

    seeds = None
    try:
        seeds = spectra.closed_form_spectrum(spec, n_max)
    except PtspecError:
        seeds = None
    entries = []
    traces = []
    for n in range(n_max + 1):
        seed = seeds.entries[n][1] if seeds is not None else None
        if seed is not None and not np.isfinite(complex(seed).real):
            seed = None
        e_n, trace = solve_level(spec, n, seed_energy=seed)
        entries.append((n, complex(e_n)))
        traces.append(trace)
    note = "numeric pipeline roots, tau_variant=printed; branch k and tau' recorded per level"
    result = spectra.SpectrumResult(
        family=spec.family,
        variant=spec.variant,
        params=spec.to_dict()["params"],
        entries=entries,
        reality_flag=spectra.measure_reality_flag(entries),
        conditions=None,
        condition_report="",
        convention_note=note,
        warnings=[],
    )
    result.traces = traces
    return result


def _poly_json(p: LowPoly):
    return [complex_json(c) for c in p.coeffs()]


def trace_to_dict(trace: NUTrace) -> dict:
    """JSON-ready derivation record with fixed field names."""
    return {
        "sigma": _poly_json(trace.form.sigma),
        "tau_tilde": _poly_json(trace.form.tau_tilde),
        "sigma_tilde": _poly_json(trace.form.sigma_tilde),
        "k_candidates": [complex_json(k) for k in trace.k_candidates],
        "chosen_k": complex_json(trace.chosen_k),
        "pi": _poly_json(trace.pi),
        "tau": _poly_json(trace.tau),
        "tau_slope": complex_json(trace.tau_slope),
        "lambda": complex_json(trace.lam),
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


def trace_to_json(trace: NUTrace) -> str:
    return json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))
