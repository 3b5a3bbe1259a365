"""Independent verification path: second-order central-difference
discretization of -kappa d^2/dx^2 + V(x) with Dirichlet walls, eigensolve
of the resulting (possibly complex symmetric) tridiagonal matrix, and level
matching against closed-form spectra.

Every grid is solved on its tridiagonal, with no N x N matrix and no size
cap: all N eigenvalues in O(N^2) time and O(N) memory.  A real symmetric
grid goes to LAPACK `dsterf`.  A complex symmetric grid goes to the
Ehrlich-Aberth iteration of Bini, Gemignani & Tisseur (SIAM J. Matrix Anal.
Appl. 27 (2005) 153-175).  A sweep takes its Newton ratios from the
three-term recurrence, N Python steps over all roots at once, until fewer
than N/8 roots are left; then from odd-even cyclic reduction (Buzbee, Golub
& Nielson, SIAM J. Numer. Anal. 7 (1970) 627-656), log2 N steps, which makes
the slow tail of nearly multiple roots cheap.  Complex symmetric tridiagonal
eigenproblems lack the guarantees of the Hermitian case, so every
eigenvalue of a complex grid is certified by an inverse-iteration residual;
a real grid certifies a random sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .core_math import complex_json
from .errors import QRNotConverged, SingularityError
from .families import variant_form
from .potentials import DomainSpec, PotentialSpec, evaluate

_RESIDUAL_BOUND = 1e-8
# Ehrlich-Aberth sweeps before a complex grid is refused; the grids of the
# tests and the benchmark take 2 to 56.
_ABERTH_SWEEPS = 200
# Complex numbers per block of the Aberth sweeps and of certification, so
# that memory stays O(N) however many eigenvalues a sweep or a check takes.
# Certification carries several such arrays per block, so its blocks are a
# quarter of the size, which keeps them in cache.
_BLOCK = 1 << 16
_CERTIFY_BLOCK = _BLOCK >> 2


@dataclass(frozen=True)
class GridHamiltonian:
    """Tridiagonal descriptor of the discretized Schroedinger operator."""

    domain: DomainSpec
    N: int
    h: float
    diagonal: np.ndarray  # complex, 2 kappa/h^2 + V(x_i)
    offdiagonal: float  # -kappa/h^2
    kappa: float
    boundary: str = "dirichlet"

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.diagonal.imag == 0.0))

    def nodes(self) -> np.ndarray:
        return self.domain.left + self.h * np.arange(1, self.N + 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v, for one vector or for each row of a stack of them."""
        out = self.diagonal * v
        out[..., :-1] += self.offdiagonal * v[..., 1:]
        out[..., 1:] += self.offdiagonal * v[..., :-1]
        return out


def discretize(spec: PotentialSpec, domain: DomainSpec, N: int) -> GridHamiltonian:
    """Grid Hamiltonian on N interior nodes x_i = left + i h.

    Raises SingularityError listing any singular nodes.  The matrix is real
    symmetric exactly when every potential sample is real.
    """
    if N < 50:
        raise ValueError("N must be >= 50")
    h = (domain.right - domain.left) / (N + 1)
    xs = domain.left + h * np.arange(1, N + 1)
    try:
        v = evaluate(spec, xs)
    except SingularityError as err:
        raise SingularityError(f"grid touches a pole: {err}", where=err.where) from err
    kappa = spec.kappa
    diag = 2.0 * kappa / h**2 + v
    return GridHamiltonian(domain=domain, N=N, h=h, diagonal=diag, offdiagonal=-kappa / h**2, kappa=kappa)


def _certify(H: GridHamiltonian, eigs: np.ndarray, seed: int = 7) -> float:
    """Inverse-iteration residual check: every eigenvalue of a complex grid,
    five random ones of a real grid.

    A block of shifts takes one banded solve per step: the shifted copies of
    H sit uncoupled down the diagonal of one band.  Three steps run from a
    seeded random start without renormalizing, and ||Hv - lambda v||/||v||
    is taken once, on the last v.  Returns the worst such residual; raises
    QRNotConverged if one exceeds the contract bound relative to ||H||_max,
    or is not a number.
    """
    rng = np.random.default_rng(seed)
    n = H.N
    if H.is_real:
        idx = rng.choice(len(eigs), size=min(5, len(eigs)), replace=False)
    else:
        idx = np.arange(len(eigs))
    bound = _RESIDUAL_BOUND * (float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal))
    worst = 0.0
    per = max(1, min(len(idx), _CERTIFY_BLOCK // n))
    band = np.empty((3, per * n), dtype=complex)
    band[0] = band[2] = H.offdiagonal
    band[0, ::n] = band[2, n - 1 :: n] = 0.0
    for start in range(0, len(idx), per):
        lam = eigs[idx[start : start + per], None]
        m = len(lam)
        shift = lam + 1e-10 * (1.0 + np.abs(lam)) * (1 + 1j)
        band[1, : m * n] = (H.diagonal - shift).ravel()
        v = rng.random(2 * m * n).view(complex)
        for _ in range(3):
            try:
                v = solve_banded((1, 1), band[:, : m * n], v, overwrite_b=True, check_finite=False)
            except np.linalg.LinAlgError:
                break
        v = v.reshape(m, n)
        resid = float(np.max(np.linalg.norm(H.matvec(v) - lam * v, axis=1) / np.linalg.norm(v, axis=1)))
        if not resid <= bound:
            raise QRNotConverged(f"residual certification failed: {resid:.3g} > {bound:.3g}")
        worst = max(worst, resid)
    return worst


def _recurrence_log_derivative(d: np.ndarray, b2: float, z: np.ndarray, tiny: float) -> np.ndarray:
    """p'(z)/p(z) at each z, for p(z) = det(T - z) and T the tridiagonal
    with diagonal d and squared off-diagonal b2, by the three-term recurrence.

    The LU pivots of T - z are r_k = (d_k - z) - b2/r_{k-1}, so p'/p is the
    sum of u_k = r_k'/r_k, with r_k' = -1 + (b2/r_{k-1}) u_{k-1}.  An exactly
    zero pivot becomes `tiny`, so that b2 = 0 gives no 0/0.  One step per
    row, each over all of z.
    """
    r = d[0] - z
    r[r == 0] = tiny
    u = -1.0 / r
    total = u.copy()
    for dk in d[1:]:
        t = b2 / r
        r = (dk - t) - z
        r[r == 0] = tiny
        u = (t * u - 1.0) / r
        total += u
    return total


def _reduction_log_derivative(d: np.ndarray, b2: float, z: np.ndarray, tiny: float) -> np.ndarray:
    """p'(z)/p(z) as `_recurrence_log_derivative`, by odd-even cyclic
    reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970)
    627-656): log2 N steps, each over all rows and all of z.

    A step eliminates the odd rows of T - z.  Their pivots a are factors of
    p, so a'/a joins the sum; the even rows keep a tridiagonal Schur
    complement, with diagonal a_e - c_l/a_l - c_r/a_r and squared
    off-diagonal c_l c_r / a^2.  Each value carries its z-derivative.  An
    exactly zero pivot becomes `tiny`, as in the recurrence.
    """
    a = d - z[:, None]
    a[a == 0] = tiny
    da = np.full(a.shape, -1.0 + 0j)
    c = np.full((len(z), len(d) - 1), b2, dtype=complex)
    dc = np.zeros_like(c)
    total = np.zeros(len(z), dtype=complex)
    while a.shape[1] > 1:
        m = a.shape[1]
        ao, dao = a[:, 1::2], da[:, 1::2]
        total += np.sum(dao / ao, axis=1)
        tl = c[:, ::2] / ao
        dtl = (dc[:, ::2] - tl * dao) / ao
        r = (m - 1) // 2  # eliminated rows with a right neighbour
        tr = c[:, 1::2] / ao[:, :r]
        dtr = (dc[:, 1::2] - tr * dao[:, :r]) / ao[:, :r]
        a, da = a[:, ::2].copy(), da[:, ::2].copy()
        a[:, : m // 2] -= tl
        da[:, : m // 2] -= dtl
        a[:, 1 : r + 1] -= tr
        da[:, 1 : r + 1] -= dtr
        a[a == 0] = tiny
        c = tl[:, :r] * tr
        dc = dtl[:, :r] * tr + tl[:, :r] * dtr
    return total + da[:, 0] / a[:, 0]


def _newton_ratios(d: np.ndarray, b2: float, z: np.ndarray, tiny: float) -> np.ndarray:
    """p(z)/p'(z) at each z, for p(z) = det(T - z) and T the tridiagonal
    with diagonal d and squared off-diagonal b2.

    The recurrence costs N Python steps however few z there are; the
    reduction costs log2 N steps but 3-5 times the arithmetic.  So a sweep
    with fewer than N/8 roots left takes the reduction, in blocks of
    _BLOCK // N roots so that memory stays O(_BLOCK).
    """
    n = len(d)
    if 8 * len(z) >= n:
        return 1.0 / _recurrence_log_derivative(d, b2, z, tiny)
    rows = max(1, _BLOCK // n)
    return 1.0 / np.concatenate(
        [_reduction_log_derivative(d, b2, z[i : i + rows], tiny) for i in range(0, len(z), rows)]
    )


def _aberth(d: np.ndarray, b: float) -> np.ndarray:
    """All eigenvalues of the tridiagonal with diagonal d and constant
    off-diagonal b, by Ehrlich-Aberth iteration.

    Starts from `dsterf` on Re d, moved by i mean(Im d).  A sweep updates
    every unconverged approximation at once; one stops when its step is at
    most a few ulps of ||H||.  Raises QRNotConverged if any is left after
    _ABERTH_SWEEPS sweeps.
    """
    n = len(d)
    ulp = np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * abs(b))
    lam = eigvalsh_tridiagonal(d.real, np.full(n - 1, b), lapack_driver="sterf") + 1j * np.mean(d.imag)
    active = np.arange(n)
    rows = max(1, _BLOCK // n)
    for _ in range(_ABERTH_SWEEPS):
        z = lam[active]
        step = _newton_ratios(d, b * b, z, ulp)
        for i in range(0, len(z), rows):
            diff = z[i : i + rows, None] - lam
            diff[np.arange(len(diff)), active[i : i + rows]] = np.inf  # drops the j = i term
            w = step[i : i + rows]
            step[i : i + rows] = w / (1.0 - w * np.sum(1.0 / diff, axis=1))
        lam[active] = z - step
        active = active[~(np.abs(step) <= 4.0 * ulp)]
        if not len(active):
            return lam
    raise QRNotConverged(f"Ehrlich-Aberth: {len(active)} of {n} eigenvalues unconverged after {_ABERTH_SWEEPS} sweeps")


def eigen_complex_dense(H: GridHamiltonian, certify: bool = True) -> np.ndarray:
    """All N eigenvalues, sorted by real part, from the tridiagonal alone.

    No dense matrix is built; the name is kept because the benchmark's
    tracer wraps the oracle's eigensolve by it.  Real symmetric grids go
    to LAPACK `dsterf`.  These are the bits the dense symmetric solver
    gives: `dsyevd` runs the `dsytrd` reduction, which leaves a tridiagonal
    matrix as it is, then the same `dsterf`.  Complex ones go to
    Ehrlich-Aberth iteration, which makes no BLAS call, so its bits do not
    depend on the BLAS thread count.  certify=True checks the
    inverse-iteration residual contract (`_certify`).
    """
    try:
        if H.is_real:
            off = np.full(H.N - 1, H.offdiagonal)
            eigs = eigvalsh_tridiagonal(H.diagonal.real, off, lapack_driver="sterf").astype(complex)
        else:
            eigs = _aberth(H.diagonal, H.offdiagonal)
    except np.linalg.LinAlgError as err:
        raise QRNotConverged(str(err)) from err
    eigs = eigs[np.argsort(eigs.real)]
    if certify:
        _certify(H, eigs)
    return eigs


@dataclass(frozen=True)
class ConjugationReport:
    """Closure of a spectrum under complex conjugation."""

    real_count: int
    pair_count: int
    unpaired: int
    max_defect: float
    closed: bool


def conjugation_pair_check(eigs, tol: float) -> ConjugationReport:
    """Verify the multiset {lambda} equals {lambda*} within tol.

    Counts real eigenvalues (|Im| <= tol scale) and conjugate pairs; any
    leftover unpaired eigenvalue marks the spectrum as not closed.
    """
    eigs = np.asarray(eigs, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(eigs))) if len(eigs) else 1.0
    real_mask = np.abs(eigs.imag) <= tol * scale
    real_count = int(np.sum(real_mask))
    rest = eigs[~real_mask]
    ups = sorted((z for z in rest if z.imag > 0), key=lambda z: (z.real, z.imag))
    mirrors = rest[rest.imag < 0].conj()
    used = np.zeros(len(mirrors), dtype=bool)
    pair_count = 0
    max_defect = 0.0
    for u in ups:
        # the nearest unused mirror, the first on ties; NaN never wins.
        # hypot rounds as abs() of a Python complex does; np.abs may not
        diff = u - mirrors
        dist = np.hypot(diff.real, diff.imag)
        dist[used | np.isnan(dist)] = math.inf
        j = int(np.argmin(dist)) if len(dist) else -1
        best_d = float(dist[j]) if j >= 0 else math.inf
        if best_d < math.inf and best_d <= tol * scale:
            used[j] = True
            pair_count += 1
        max_defect = max(max_defect, best_d)
    unpaired = (len(ups) - pair_count) + (len(mirrors) - pair_count)
    return ConjugationReport(
        real_count=real_count,
        pair_count=pair_count,
        unpaired=unpaired,
        max_defect=float(max_defect),
        closed=(unpaired == 0),
    )


def continuum_threshold(spec: PotentialSpec) -> float:
    """Energy separating oracle-matchable levels from truncation artifacts:
    the x -> +inf potential limit for decaying forms, +inf otherwise."""
    return variant_form(spec).threshold(spec)


@dataclass(frozen=True)
class LevelMatch:
    """Injective nearest matching of formula levels to oracle eigenvalues."""

    pairs: tuple  # ((n, E_formula, eigenvalue, rel_err), ...)
    unmatched_formula: tuple
    unmatched_oracle: tuple
    threshold: float

    @property
    def max_rel_err(self) -> float:
        return max((p[3] for p in self.pairs), default=0.0)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold if math.isfinite(self.threshold) else None,
            "pairs": [
                {"n": n, "formula": complex_json(e), "oracle": complex_json(lam), "rel_err": r}
                for n, e, lam, r in self.pairs
            ],
            "unmatched_formula": [{"n": n, "formula": complex_json(e)} for n, e in self.unmatched_formula],
            "unmatched_oracle": [complex_json(lam) for lam in self.unmatched_oracle],
        }


def match_levels(formula_entries, eigs, threshold: complex) -> LevelMatch:
    """Greedy nearest matching of formula entries to oracle eigenvalues with
    real part below the threshold; empty matches are allowed and reported."""
    thr = complex(threshold).real
    eigs = np.asarray(eigs, dtype=complex)
    cands = [complex(z) for z in eigs if z.real < thr]
    used = [False] * len(cands)
    pairs = []
    unmatched = []
    for n, e in formula_entries:
        best_j, best_d = -1, math.inf
        for j, lam in enumerate(cands):
            if used[j]:
                continue
            d = abs(complex(e) - lam)
            if d < best_d:
                best_j, best_d = j, d
        if best_j < 0:
            unmatched.append((n, complex(e)))
            continue
        used[best_j] = True
        lam = cands[best_j]
        rel = best_d / max(abs(lam), 1e-300)
        pairs.append((n, complex(e), lam, float(rel)))
    unmatched_oracle = tuple(lam for j, lam in enumerate(cands) if not used[j])
    return LevelMatch(
        pairs=tuple(pairs),
        unmatched_formula=tuple(unmatched),
        unmatched_oracle=unmatched_oracle,
        threshold=thr,
    )


@dataclass(frozen=True)
class ConvergenceLevel:
    value_finest: complex
    extrapolated: complex
    observed_order: float
    err_estimate: float
    flagged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    N_list: tuple
    h_list: tuple
    levels: tuple  # ConvergenceLevel per tracked level
    eigs_finest: np.ndarray = field(compare=False, repr=False)  # certified, sorted by real part

    def to_dict(self) -> dict:
        return {
            "N_list": list(self.N_list),
            "h_list": list(self.h_list),
            "levels": [
                {
                    "finest": complex_json(l.value_finest),
                    "extrapolated": complex_json(l.extrapolated),
                    "observed_order": l.observed_order if math.isfinite(l.observed_order) else None,
                    "err_estimate": l.err_estimate,
                    "flagged": l.flagged,
                }
                for l in self.levels
            ],
        }


def convergence_study(spec: PotentialSpec, domain: DomainSpec, N_list, n_levels: int = 6) -> ConvergenceReport:
    """Richardson study over ascending N_list (>= 2 distinct entries).

    Per tracked level: two-grid extrapolation from the finest pair, observed
    order from the finest triple when available (expected ~2 for the central
    difference), and a flag when the extrapolation and the finest grid
    disagree by more than 10x the finest-pair step estimate.  The finest
    grid's eigenvalues are residual-certified and returned with the report,
    so a caller needs no second solve of that grid.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ValueError("N_list needs at least 2 entries")
    if len(set(N_list)) < len(N_list):
        # two equal grids make the Richardson denominator h1^2 - h2^2 zero
        raise ValueError(f"N_list repeats a grid size: {N_list}")
    all_eigs = []
    hs = []
    for N in N_list:
        H = discretize(spec, domain, N)
        all_eigs.append(eigen_complex_dense(H, certify=False))
        hs.append(H.h)
    _certify(H, all_eigs[-1])
    thr = continuum_threshold(spec)
    counts = [int(np.sum(e.real < thr)) if math.isfinite(thr) else len(e) for e in all_eigs]
    track = min(n_levels, *counts) if min(counts) > 0 else min(n_levels, len(all_eigs[0]))
    levels = []
    for i in range(track):
        vals = [e[i] for e in all_eigs]
        h2, h1 = hs[-1], hs[-2]
        e2, e1 = vals[-1], vals[-2]
        ext = (e2 * h1**2 - e1 * h2**2) / (h1**2 - h2**2)
        step_est = abs(e2 - e1)
        order = float("nan")
        if len(vals) >= 3:
            d1 = abs(vals[-2] - ext)
            d2 = abs(vals[-1] - ext)
            if d1 > 0 and d2 > 0:
                order = math.log(d1 / d2) / math.log(hs[-2] / hs[-1])
        err_est = abs(e2 - ext)
        flagged = err_est > 10.0 * max(step_est, 1e-300)
        levels.append(
            ConvergenceLevel(
                value_finest=complex(e2),
                extrapolated=complex(ext),
                observed_order=order,
                err_estimate=float(err_est),
                flagged=bool(flagged),
            )
        )
    return ConvergenceReport(
        N_list=tuple(N_list), h_list=tuple(hs), levels=tuple(levels), eigs_finest=all_eigs[-1]
    )
