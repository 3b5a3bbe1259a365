"""Eigenfunction assembly psi = phi * y from an accepted derivation trace.

phi solves phi'/phi = pi/sigma; the polynomial part y_n is the Jacobi
polynomial whose indices are read from the endpoint exponents of the weight
rho solving (sigma rho)' = tau rho, evaluated on the affine image of the
sigma-root interval.  Normalization is always numerical (composite Simpson);
the published normalization constants are never specified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from .core_math import JacobiIndex, jacobi_eval, quadratic_roots
from .errors import NonIntegrableWeight, NotNormalizable
from .families import FAMILIES
from .nu_engine import NUTrace, _rational_exponents, weight_exponents, weight_failure
from .potentials import DomainKind, DomainSpec, PotentialSpec

_NODE_FLOOR = 1e-9


@dataclass(frozen=True)
class PrefactorForm:
    """Product of (s - r)^e factors times exp(c s), in sign-stable bases."""

    roots: tuple  # ((root, exponent, base_sign), ...)
    exp_linear: complex = 0.0

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.exp(self.exp_linear * s) if self.exp_linear != 0 else np.ones_like(s)
        for r, e, sign in self.roots:
            base = sign * (s - r)
            out = out * np.exp(complex(e) * np.log(base))
        return out


@dataclass(frozen=True)
class WavefunctionSpec:
    """Assembled level-n eigenfunction for a potential spec."""

    potential: PotentialSpec
    n: int
    jacobi: JacobiIndex
    z_scale: complex  # Jacobi argument z = z_scale * s + z_shift
    z_shift: complex
    prefactor: PrefactorForm
    norm_constant: complex = 1.0
    notes: dict | None = None


def _base_signs(roots, lo, hi):
    """Pick (s - r) vs (r - s) so each base stays positive on (lo, hi)."""
    mid = 0.5 * (lo + (hi if hi is not None else lo + 2.0))
    signs = []
    for r in roots:
        signs.append(1.0 if mid >= complex(r).real else -1.0)
    return signs


def assemble(spec: PotentialSpec, trace: NUTrace, n: int) -> WavefunctionSpec:
    """Build psi_n = phi * P_n from the accepted branch.

    Raises NonIntegrableWeight when rho is not integrable on the s-image of
    the quantization domain (a non-normalizable candidate).
    """
    form = trace.form
    sigma = form.sigma
    failure = weight_failure(form, trace.tau)
    if failure:
        raise NonIntegrableWeight(failure)
    lo, hi, _ = form.s_interval

    # phi from pi/sigma
    phi_roots, phi_exps, phi_lin = _rational_exponents(trace.pi, sigma)
    # rho from (tau - sigma')/sigma
    rho_roots, rho_exps, _ = weight_exponents(form, trace.tau)

    if sigma.degree() == 2:
        r1, r2 = quadratic_roots(sigma)
        if r1.real > r2.real:
            r1, r2 = r2, r1
        z_scale = 2.0 / (r2 - r1)
        z_shift = -(r1 + r2) / (r2 - r1)
        exp_at = dict(zip([complex(r) for r in rho_roots], rho_exps))
        nu1 = exp_at.get(complex(r2), 0.0)
        nu2 = exp_at.get(complex(r1), 0.0)
    else:
        # degenerate sigma: fall back to the raw variable
        z_scale, z_shift = 1.0, 0.0
        nu1 = rho_exps[0] if rho_exps else 0.0
        nu2 = 0.0

    signs = _base_signs(phi_roots, lo, hi)
    pref = PrefactorForm(
        roots=tuple((complex(r), complex(e), sg) for r, e, sg in zip(phi_roots, phi_exps, signs)),
        exp_linear=complex(phi_lin),
    )
    notes = {
        "phi_exponents": {str(r): complex(e) for r, e in zip(phi_roots, phi_exps)},
        "rho_exponents": {str(r): complex(e) for r, e in zip(rho_roots, rho_exps)},
    }
    return WavefunctionSpec(
        potential=spec,
        n=n,
        jacobi=JacobiIndex(complex(nu1), complex(nu2), n),
        z_scale=complex(z_scale),
        z_shift=complex(z_shift),
        prefactor=pref,
        notes=notes,
    )


def eval_psi(wf: WavefunctionSpec, x):
    """psi_n(x) (unnormalized unless normalize() has been applied)."""
    s = np.asarray(FAMILIES[wf.potential.family].s_map(wf.potential, x), dtype=complex)
    z = wf.z_scale * s + wf.z_shift
    val = wf.norm_constant * wf.prefactor(s) * jacobi_eval(wf.jacobi, z)
    return complex(val) if np.isscalar(x) else val


def normalize(wf: WavefunctionSpec, domain: DomainSpec, n_points: int = 2001) -> WavefunctionSpec:
    """Set the constant so int |psi|^2 dx = 1 by composite Simpson.

    n_points is forced odd and >= 1001.  Raises NotNormalizable when the
    right-edge tail carries non-decaying weight.
    """
    n_points = max(int(n_points), 1001)
    if n_points % 2 == 0:
        n_points += 1
    xs = np.linspace(domain.left, domain.right, n_points + 2)[1:-1]
    psi = eval_psi(wf, xs)
    dens = np.abs(psi) ** 2
    peak = float(np.max(dens))
    if peak == 0.0:
        raise NotNormalizable("psi vanishes identically on the sample")
    if domain.kind is not DomainKind.FiniteInterval:
        tail = float(np.mean(dens[-5:]))
        if tail > 1e-6 * peak:
            raise NotNormalizable(f"tail density {tail:.3g} does not decay (peak {peak:.3g})")
    total = float(simpson(dens, x=xs))
    if not math.isfinite(total) or total <= 0:
        raise NotNormalizable("non-finite normalization integral")
    return replace(wf, norm_constant=wf.norm_constant / math.sqrt(total))


def node_count(wf: WavefunctionSpec, domain: DomainSpec, n_points: int = 2001) -> int:
    """Interior sign changes of Re psi on a uniform sample."""
    xs = np.linspace(domain.left, domain.right, n_points + 2)[1:-1]
    vals = np.real(eval_psi(wf, xs))
    floor = _NODE_FLOOR * float(np.max(np.abs(vals)))
    signs = np.sign(vals[np.abs(vals) > floor])
    return int(np.sum(signs[1:] != signs[:-1]))
