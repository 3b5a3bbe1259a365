"""Independent verification path: second-order central-difference
discretization of -kappa d^2/dx^2 + V(x) with Dirichlet walls, eigensolve
of the resulting (possibly complex symmetric) tridiagonal matrix, and level
matching against closed-form spectra.

A real symmetric grid is solved on its tridiagonal as it is, by LAPACK
`dsterf` (all N eigenvalues, O(N^2) time, O(N) memory).  A complex symmetric
grid goes through the dense general solver: complex symmetric tridiagonal
eigenproblems lack the guarantees of the Hermitian case, and the dense
solve plus residual certification is simple to trust at N <= 6000.
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

_DENSE_BUDGET = 6000  # complex grids only
_RESIDUAL_BOUND = 1e-8


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
        out = self.diagonal * v
        out[:-1] += self.offdiagonal * v[1:]
        out[1:] += self.offdiagonal * v[:-1]
        return out

    def dense(self) -> np.ndarray:
        """The complex N x N matrix, for the dense general eigensolver."""
        m = np.zeros((self.N, self.N), dtype=complex)
        np.fill_diagonal(m, self.diagonal)
        np.fill_diagonal(m[1:], self.offdiagonal)
        np.fill_diagonal(m[:, 1:], self.offdiagonal)
        return m


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


def _certify(H: GridHamiltonian, eigs: np.ndarray, count: int = 5, seed: int = 7) -> float:
    """Inverse-iteration residual check on randomly selected eigenvalues.

    Returns the worst ||Hv - lambda v||/||v|| over the sample; raises
    QRNotConverged if it exceeds the contract bound relative to ||H||_max.
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(eigs), size=min(count, len(eigs)), replace=False)
    hmax = float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal)
    worst = 0.0
    n = H.N
    band = np.zeros((3, n), dtype=complex)
    for i in idx:
        lam = eigs[i]
        shift = lam + 1e-10 * (1.0 + abs(lam)) * (1 + 1j)
        band[0, 1:] = H.offdiagonal
        band[1, :] = H.diagonal - shift
        band[2, :-1] = H.offdiagonal
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(3):
            try:
                v = solve_banded((1, 1), band, v)
            except np.linalg.LinAlgError:
                break
            v /= np.linalg.norm(v)
        resid = float(np.linalg.norm(H.matvec(v) - lam * v))
        worst = max(worst, resid)
    if worst > _RESIDUAL_BOUND * hmax:
        raise QRNotConverged(f"residual certification failed: {worst:.3g} > {_RESIDUAL_BOUND * hmax:.3g}")
    return worst


def eigen_complex_dense(H: GridHamiltonian, certify: bool = True) -> np.ndarray:
    """All N eigenvalues, sorted by real part.

    Real symmetric samples go to LAPACK `dsterf` on the diagonal and the
    off-diagonal, with no N x N matrix and no size cap.  These are the bits
    the dense symmetric solver gives: `dsyevd` runs the `dsytrd` reduction,
    which leaves a tridiagonal matrix as it is, then the same `dsterf`.
    Complex ones go through the dense general (Hessenberg + shifted QR)
    solver, for N <= _DENSE_BUDGET.  Both satisfy the inverse-iteration
    residual contract, which is verified on a random sample of eigenvalues
    when certify=True.
    """
    real = H.is_real
    if not real and H.N > _DENSE_BUDGET:
        raise ValueError(f"N={H.N} exceeds the dense budget {_DENSE_BUDGET}")
    try:
        if real:
            off = np.full(H.N - 1, H.offdiagonal)
            eigs = eigvalsh_tridiagonal(H.diagonal.real, off, lapack_driver="sterf").astype(complex)
        else:
            eigs = np.linalg.eigvals(H.dense())
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
    downs = list(z for z in rest if z.imag < 0)
    used = [False] * len(downs)
    pair_count = 0
    max_defect = 0.0
    for u in ups:
        best_j, best_d = -1, math.inf
        for j, d in enumerate(downs):
            if used[j]:
                continue
            dist = abs(u - d.conjugate())
            if dist < best_d:
                best_j, best_d = j, dist
        if best_j >= 0 and best_d <= tol * scale:
            used[best_j] = True
            pair_count += 1
            max_defect = max(max_defect, best_d)
        else:
            max_defect = max(max_defect, best_d if best_j >= 0 else math.inf)
    unpaired = (len(ups) - pair_count) + (len(downs) - pair_count)
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
