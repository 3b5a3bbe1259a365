"""Complex scalar utilities, low-degree polynomials, q-deformed hyperbolic
functions and Jacobi polynomial evaluation.

Everything here is pure double-precision complex arithmetic with a single
documented square-root branch, so downstream formulas are deterministic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegreeError

_ZERO_TOL = 0.0  # degree counts strictly non-zero coefficients


def sqrt_principal(z: complex) -> complex:
    """Principal square root: Re(w) >= 0, and Im(w) >= 0 on the cut Re(w) = 0.

    Negative reals with a -0.0 imaginary part would land on the lower sheet
    under IEEE rules; they are pulled back to the upper one so the branch is
    a function of the value alone.  So is a root whose real part underflows
    to 0 for a tiny negative Im(z), such as z = -1 - 5e-324j.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    w = cmath.sqrt(z)
    if w.real == 0.0 and w.imag < 0.0:
        return complex(0.0, -w.imag)
    return w


def complex_json(z) -> dict | None:
    """The {"re", "im"} encoding of a complex value; None stays None."""
    if z is None:
        return None
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass(frozen=True)
class LowPoly:
    """Polynomial c0 + c1*s + c2*s^2 with complex coefficients."""

    c0: complex = 0.0
    c1: complex = 0.0
    c2: complex = 0.0

    def __call__(self, s: complex) -> complex:
        return self.c0 + s * (self.c1 + s * self.c2)

    def degree(self) -> int:
        if abs(self.c2) > _ZERO_TOL:
            return 2
        if abs(self.c1) > _ZERO_TOL:
            return 1
        return 0

    def derivative(self) -> "LowPoly":
        return LowPoly(self.c1, 2.0 * self.c2, 0.0)

    def __add__(self, other: "LowPoly") -> "LowPoly":
        return LowPoly(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "LowPoly") -> "LowPoly":
        return LowPoly(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def scale(self, a: complex) -> "LowPoly":
        return LowPoly(a * self.c0, a * self.c1, a * self.c2)

    def coeffs(self) -> tuple[complex, complex, complex]:
        return (complex(self.c0), complex(self.c1), complex(self.c2))


def quadratic_roots(p: LowPoly) -> tuple[complex, complex]:
    """Both roots of a degree-2 LowPoly, cancellation-safe.

    Raises DegreeError below degree 2.  Roots satisfy Vieta's relations to
    ~1e-14 relative.
    """
    if p.degree() < 2:
        raise DegreeError(f"quadratic_roots needs degree 2, got degree {p.degree()}")
    a, b, c = p.c2, p.c1, p.c0
    d = sqrt_principal(b * b - 4.0 * a * c)
    # pick the sign that avoids cancellation in b + sgn*d
    if (b.conjugate() * d).real >= 0.0:
        t = -0.5 * (b + d)
    else:
        t = -0.5 * (b - d)
    if t == 0.0:
        r1 = sqrt_principal(-c / a)
        return (r1, -r1)
    return (t / a, c / t)


def sinh_q(x: float, q: complex) -> complex:
    """Deformed sinh: (e^x - q e^-x)/2; q=1 recovers sinh."""
    return 0.5 * (np.exp(x) - q * np.exp(-x))


def cosh_q(x: float, q: complex) -> complex:
    """Deformed cosh: (e^x + q e^-x)/2; cosh_q^2 - sinh_q^2 = q."""
    return 0.5 * (np.exp(x) + q * np.exp(-x))


@dataclass(frozen=True)
class JacobiIndex:
    """Index pair (nu1, nu2) and level n of a Jacobi polynomial.

    nu1, nu2 may be complex; the three-term recurrence continues verbatim.
    """

    nu1: complex
    nu2: complex
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("Jacobi level n must be >= 0")


def jacobi_eval(idx: JacobiIndex, x: complex) -> complex:
    """P_n^(nu1,nu2)(x) by the standard three-term recurrence.

    Valid for complex indices and complex argument.  Vectorizes over x when
    given an array.
    """
    a, b, n = complex(idx.nu1), complex(idx.nu2), idx.n
    x = np.asarray(x, dtype=complex) if not np.isscalar(x) else complex(x)
    p_prev = 1.0 + 0.0 * x  # P_0
    if n == 0:
        return p_prev
    p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x  # P_1
    for m in range(2, n + 1):
        c1 = 2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0)
        c2 = (2.0 * m + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * m + a + b - 1.0) * (2.0 * m + a + b) * (2.0 * m + a + b - 2.0)
        c4 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p
