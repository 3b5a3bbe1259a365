"""Each family's reduced triple, derived from the potential it reduces.

With s = s(x) the family's s-map and s' = ds/dx, the Base equation
-kappa psi'' + V psi = E psi becomes, in s,

    psi_ss + (s''/s'^2) psi_s + (E - V)/(kappa s'^2) psi = 0,

so the triple that `reduce` returns must satisfy

    tau_tilde(s) s'^2 = s'' sigma(s),
    kappa sigma_tilde(s) s'^2 = sigma(s)^2 (E - V).

sympy writes s and V in u = e^{c x} (c = i alpha for the trigonometric
map, alpha for the other two), takes the derivatives d/dx = c u d/du
exactly, and evaluates both sides in exact arithmetic, with the float
couplings and the float coefficients of the triple taken as the rationals
they are.  Both sides are rational functions of u, so a triple that is
wrong misses at every sample point, by far more than rounding.  The
symbolic s and V are first checked against the package's own s-map and
potential, so the audit reduces the potential that ptspec evaluates.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from ptspec.families import FAMILIES, variant_form
from ptspec.potentials import Family, PotentialSpec

sp = pytest.importorskip("sympy")

U = sp.Symbol("u")
ENERGIES = (-1.3, 2.75)
SAMPLES = (sp.Rational(3, 2), sp.Rational(9, 4), sp.Rational(5, 2), sp.Rational(10, 3), sp.Rational(17, 5))


def _exact(z):
    z = complex(z)
    return sp.Rational(z.real) + sp.I * sp.Rational(z.imag)


def _symbolic(spec):
    """(c, s, V) with s and V functions of u = e^{c x}."""
    a = sp.Rational(spec.alpha)
    if spec.family is Family.TrigScarf:
        cos, sin = (U + 1 / U) / 2, (U - 1 / U) / (2 * sp.I)
        return sp.I * a, cos, -sp.Rational(spec.A) / sin**2
    q = sp.Rational(spec.q)
    sinh_q, cosh_q = (U - q / U) / 2, (U + q / U) / 2
    if spec.family is Family.HyperbolicScarf:
        v0, v1, v2 = (sp.Rational(v) for v in (spec.V0, spec.V1, spec.V2))
        return a, cosh_q, v0 + v1 * cosh_q**2 / sinh_q**2 + v2 * cosh_q / sinh_q**2
    return a, U**-2, sp.Rational(spec.A) * cosh_q / sinh_q + sp.Rational(spec.B) / sinh_q**2


def _spec(family, q):
    if family is Family.TrigScarf:
        return PotentialSpec(family=family, A=-2.0, alpha=1.3)
    if family is Family.HyperbolicScarf:
        return PotentialSpec(family=family, V0=1.0, V1=5.0, V2=0.5, q=q, alpha=1.3)
    return PotentialSpec(family=family, A=-40.0, B=2.0, q=q, alpha=1.3)


# the trigonometric Base form has no q
CASES = [(Family.TrigScarf, None)] + [(f, q) for f in (Family.HyperbolicScarf, Family.ManningRosen) for q in (1.0, 2.0, 3.0)]
IDS = [f"{f.value}-q{q}" for f, q in CASES]


def _poly(p, s):
    return sum(_exact(c) * s**j for j, c in enumerate(p.coeffs()))


@pytest.mark.parametrize("family,q", CASES, ids=IDS)
def test_symbolic_map_is_the_package_map(family, q):
    spec = _spec(family, q)
    c, s, V = _symbolic(spec)
    x = np.array([0.9, 1.7, 2.3])
    got_s = FAMILIES[family].s_map(spec, x)
    got_v = variant_form(spec).potential(spec, x)
    for xi, si, vi in zip(x, got_s, got_v):
        at = {U: cmath.exp(complex(c) * xi)}
        assert abs(complex(s.subs(at)) - si) <= 1e-12 * (1 + abs(si))
        assert abs(complex(V.subs(at)) - vi) <= 1e-12 * (1 + abs(vi))


@pytest.mark.parametrize("energy", ENERGIES)
@pytest.mark.parametrize("family,q", CASES, ids=IDS)
def test_reduce_solves_the_schroedinger_equation(family, q, energy):
    spec = _spec(family, q)
    c, s, V = _symbolic(spec)
    s1 = c * U * sp.diff(s, U)
    s2 = c * U * sp.diff(s1, U)
    sigma, tau_tilde, sigma_tilde = (_poly(p, s) for p in FAMILIES[family].reduce(spec, energy))
    kappa, e = sp.Rational(spec.kappa), sp.Rational(energy)
    for lhs, rhs in ((tau_tilde * s1**2, s2 * sigma), (kappa * sigma_tilde * s1**2, sigma**2 * (e - V))):
        for u in SAMPLES:
            left, right = complex(lhs.subs(U, u)), complex(rhs.subs(U, u))
            assert abs(left - right) <= 1e-12 * (abs(left) + abs(right)), (u, left, right)
