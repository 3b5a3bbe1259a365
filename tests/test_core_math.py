import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, gammaln

from ptspec.core_math import (
    JacobiIndex,
    LowPoly,
    cosh_q,
    jacobi_eval,
    quadratic_roots,
    sinh_q,
    sqrt_principal,
)
from ptspec.errors import DegreeError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
cplx = st.builds(complex, finite, finite)
coeff = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


class TestSqrtPrincipal:
    def test_perfect_square(self):
        assert sqrt_principal(4) == 2

    def test_negative_real(self):
        assert sqrt_principal(-1) == 1j

    def test_two_i(self):
        # oracle: direct multiplication, (1+i)^2 = 2i
        w = sqrt_principal(2j)
        assert (1 + 1j) * (1 + 1j) == 2j
        assert abs(w - (1 + 1j)) < 1e-15

    def test_negative_zero_imag_stays_on_upper_sheet(self):
        assert sqrt_principal(complex(-4.0, -0.0)) == 2j

    @given(cplx)
    def test_square_recovers_argument(self, z):
        w = sqrt_principal(z)
        assert abs(w * w - z) <= 1e-14 * (1 + abs(z))

    @given(cplx)
    @example(complex(-1, -5e-324))  # the root's real part underflows to 0
    def test_branch_convention(self, z):
        w = sqrt_principal(z)
        assert w.real >= 0
        if w.real == 0:
            assert w.imag >= 0


class TestQuadraticRoots:
    @pytest.mark.parametrize(
        "poly,expected",
        [
            (LowPoly(-1, 0, 1), {1, -1}),
            (LowPoly(1, 0, 1), {1j, -1j}),
            (LowPoly(2, -3, 1), {1, 2}),
        ],
    )
    def test_factorable(self, poly, expected):
        r1, r2 = quadratic_roots(poly)
        for r in (r1, r2):
            assert min(abs(r - e) for e in expected) < 1e-14

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            quadratic_roots(LowPoly(1, 2, 0))

    @given(coeff, coeff, st.builds(complex, st.floats(0.01, 1e3), st.floats(-1e3, 1e3)))
    def test_vieta(self, c0, c1, c2):
        p = LowPoly(c0, c1, c2)
        r1, r2 = quadratic_roots(p)
        scale = max(abs(c0), abs(c1), abs(c2))
        assert abs(r1 * r2 - c0 / c2) <= 1e-14 * (1 + abs(r1) * abs(r2))
        assert abs(r1 + r2 + c1 / c2) <= 1e-14 * (1 + abs(r1) + abs(r2))
        # reconstruction c2 (s - r1)(s - r2) matches coefficients
        rec = LowPoly(c2 * r1 * r2, -c2 * (r1 + r2), c2)
        for a, b in zip(rec.coeffs(), p.coeffs()):
            assert abs(a - b) <= 1e-13 * (1 + scale)


class TestDeformedHyperbolics:
    def test_q_one_is_sinh(self):
        assert abs(sinh_q(0.7, 1.0) - math.sinh(0.7)) < 1e-15

    def test_cosh_at_zero(self):
        assert cosh_q(0.0, 10.0) == 5.5

    def test_identity_single(self):
        assert abs(cosh_q(1.2, 3.0) ** 2 - sinh_q(1.2, 3.0) ** 2 - 3.0) < 1e-13 * 3.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 10.0])
    @given(x=st.floats(-3, 3))
    @settings(max_examples=40)
    def test_identity_property(self, q, x):
        c, s = cosh_q(x, q), sinh_q(x, q)
        # relative to the squared operands: the identity is a cancellation
        assert abs(c * c - s * s - q) <= 1e-13 * (1 + abs(c) ** 2 + abs(s) ** 2)


def jacobi_sum(n, a, b, x):
    """Independent oracle: explicit hypergeometric sum via log-gamma.

    P_n^(a,b)(x) = 2^-n sum_m C(n+a, m) C(n+b, n-m) (x-1)^(n-m) (x+1)^m,
    complex binomials through the gamma function.
    """
    from scipy.special import loggamma

    def cbinom(top, k):
        return cmath.exp(loggamma(top + 1) - loggamma(k + 1) - loggamma(top - k + 1))

    total = 0.0 + 0.0j
    for m in range(n + 1):
        total += cbinom(n + a, m) * cbinom(n + b, n - m) * (x - 1) ** (n - m) * (x + 1) ** m
    return total / 2**n


class TestJacobi:
    def test_p0(self):
        assert jacobi_eval(JacobiIndex(0.3 + 1j, -0.2, 0), 0.3) == 1

    def test_p1_closed_form(self):
        val = jacobi_eval(JacobiIndex(1.0, 1.0, 1), 0.5)
        assert abs(val - 1.0) < 1e-15

    def test_legendre_endpoint(self):
        assert abs(jacobi_eval(JacobiIndex(0.0, 0.0, 2), 1.0) - 1.0) < 1e-14

    @given(
        n=st.integers(0, 20),
        a=st.floats(-0.99, 5),
        b=st.floats(-0.99, 5),
        x=st.floats(-1, 1),
    )
    @settings(max_examples=80)
    def test_matches_scipy(self, n, a, b, x):
        ours = jacobi_eval(JacobiIndex(a, b, n), x)
        ref = eval_jacobi(n, a, b, x)
        scale = max(1.0, abs(ref))
        assert abs(ours - ref) <= 1e-11 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complex_indices_against_sum(self, n):
        a, b, x = 0.7 + 0.4j, -0.3 - 1.1j, 0.35 + 0.2j
        ours = jacobi_eval(JacobiIndex(a, b, n), x)
        ref = jacobi_sum(n, a, b, x)
        assert abs(ours - ref) <= 1e-12 * (1 + abs(ref))

    def test_three_term_recurrence_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            a, b = rng.uniform(-0.9, 5.0, 2)
            x = rng.uniform(-1, 1)
            pm2 = jacobi_eval(JacobiIndex(a, b, n - 2), x)
            pm1 = jacobi_eval(JacobiIndex(a, b, n - 1), x)
            pn = jacobi_eval(JacobiIndex(a, b, n), x)
            c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
            c2 = (2 * n + a + b - 1) * (a**2 - b**2)
            c3 = (2 * n + a + b - 1) * (2 * n + a + b) * (2 * n + a + b - 2)
            c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
            resid = c1 * pn - (c2 + c3 * x) * pm1 + c4 * pm2
            scale = max(abs(c1 * pn), abs((c2 + c3 * x) * pm1), abs(c4 * pm2), 1.0)
            assert abs(resid) <= 1e-12 * scale


class TestLowPoly:
    def test_degree(self):
        assert LowPoly(1, 0, 0).degree() == 0
        assert LowPoly(1, 2, 0).degree() == 1
        assert LowPoly(1, 2, 3).degree() == 2

    def test_eval_and_derivative(self):
        p = LowPoly(1, -3, 2)
        assert p(2.0) == 1 - 6 + 8
        assert p.derivative()(2.0) == -3 + 8
