"""Complex scalar utilities, low-degree polynomials and their roots,
q-deformed hyperbolic functions and Jacobi polynomial evaluation.

Everything here is pure double-precision complex arithmetic with a single
documented square-root branch, so downstream formulas are deterministic.
NumPy is imported only inside the functions that take arrays, so the
closed-form spectra and the NU engine run without it.
"""

from __future__ import annotations

import cmath
import json
from typing import NamedTuple

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


def canonical_json(obj) -> str:
    """The canonical JSON text of every output: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class LowPoly(NamedTuple):
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


_EPS = 2.0**-52
_ABERTH_SWEEPS = 100  # a cap only: each root stops at its rounding level long before


def poly_roots(coeffs) -> tuple[complex, ...]:
    """Every root of a polynomial of low degree, coefficients highest power
    first with the leading one non-zero.

    Degree 1 and 2 are solved in closed form (quadratic_roots), higher
    degrees by Aberth's method from the circle of Fujiwara's bound on the
    roots.  An Aberth root stops once its backward error is at the rounding
    level, |p(z)| <= 4 eps sum |c_i| |z|^i: a simple root is then exact to
    rounding, a double root (where Aberth converges only linearly) to about
    the square root of it.
    """
    c = [complex(x) for x in coeffs]
    if c and c[0] == 0:
        raise DegreeError("poly_roots needs a non-zero leading coefficient")
    zeros = ()
    while len(c) > 1 and c[-1] == 0:  # exact roots at 0, where |p(z)| is never small against its terms
        c.pop()
        zeros += (0j,)
    d = len(c) - 1
    if d < 1:
        return zeros
    if d == 1:
        return (-c[1] / c[0],) + zeros
    if d == 2:
        return quadratic_roots(LowPoly(c[2], c[1], c[0])) + zeros
    mag = [abs(x) for x in c]
    radius = 2.0 * max([(mag[i] / mag[0]) ** (1.0 / i) for i in range(1, d)] + [(0.5 * mag[d] / mag[0]) ** (1.0 / d)])
    # off the real axis, so that no two starts are conjugate
    z = [cmath.rect(radius, 2.0 * cmath.pi * j / d + 0.4) for j in range(d)]
    tail = list(zip(c[1:], mag[1:]))
    active = list(range(d))
    for _ in range(_ABERTH_SWEEPS):
        for i in list(active):
            zi = z[i]
            azi = abs(zi)
            p, dp, size = c[0], 0.0, mag[0]
            for a, m in tail:
                dp = dp * zi + p
                p = p * zi + a
                size = size * azi + m
            if abs(p) <= 4.0 * _EPS * size:
                active.remove(i)
                continue
            pull = 0.0
            for j in range(d):
                if j != i:
                    pull += 1.0 / (zi - z[j])
            z[i] = zi - p / (dp - p * pull)
        if not active:
            break
    return tuple(z) + zeros


def sinh_q(x: float, q: complex) -> complex:
    """Deformed sinh: (e^x - q e^-x)/2; q=1 recovers sinh."""
    import numpy as np

    return 0.5 * (np.exp(x) - q * np.exp(-x))


def cosh_q(x: float, q: complex) -> complex:
    """Deformed cosh: (e^x + q e^-x)/2; cosh_q^2 - sinh_q^2 = q."""
    import numpy as np

    return 0.5 * (np.exp(x) + q * np.exp(-x))


class _JacobiFields(NamedTuple):
    nu1: complex
    nu2: complex
    n: int


def checked_make(cls, fields):
    """`_make` for a record whose constructor checks its fields: the field
    count that NamedTuple's own `_make` checks, then the constructor, which
    `_replace` then runs too, since it calls `_make`."""
    fields = tuple(fields)
    if len(fields) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(fields)}")
    return cls(*fields)


class JacobiIndex(_JacobiFields):
    """Index pair (nu1, nu2) and level n of a Jacobi polynomial.

    nu1, nu2 may be complex; the three-term recurrence continues verbatim.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        idx = super().__new__(cls, *args, **kwargs)
        if idx.n < 0:
            raise ValueError("Jacobi level n must be >= 0")
        return idx


def jacobi_eval(idx: JacobiIndex, x: complex) -> complex:
    """P_n^(nu1,nu2)(x) by the standard three-term recurrence.

    Valid for complex indices and complex argument.  Vectorizes over x when
    given an array.
    """
    import numpy as np

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
