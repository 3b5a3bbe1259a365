"""Independent verification path: second-order central-difference
discretization of -kappa d^2/dx^2 + V(x) with Dirichlet walls, eigensolve
of the resulting (possibly complex symmetric) tridiagonal matrix, and level
matching against closed-form spectra.  `verify_levels` runs the check: a
Richardson study on two grids, the match of each list of levels and the
conjugation report, the last two by one greedy nearest-unused matcher.

Every grid is solved on its tridiagonal, with no N x N matrix and no size
cap, in O(N) memory.  A real symmetric grid is solved only for the
eigenvalues `verify_levels` reads: the convergence study asks each coarse
grid for its lowest levels, and the finest grid for every eigenvalue below
the continuum threshold or, on a form with no threshold, for the window
that covers the energies it matches.  Those come from Sturm-sequence
bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386-393; LAPACK
`dstebz`), k eigenvalues in O(N k).  `verify` solves no real grid whole;
where a caller asks for every eigenvalue, LAPACK `dsterf` gives all N in
O(N^2).
A complex symmetric grid is always solved whole, by the Ehrlich-Aberth
iteration of Bini, Gemignani & Tisseur (SIAM J. Matrix Anal. Appl. 27
(2005) 153-175).  It starts from the first-order eigenvalues of the grid
in its imaginary part: the eigenvalues mu_j of the real part, from
`dsterf`, each moved by i v_j^T diag(Im d) v_j, which one more pass of the
recurrence below gives with no eigenvector.  A sweep takes its Newton
ratios from the three-term recurrence, N Python steps over all roots at
once, until fewer than N/8 roots are left; then from odd-even cyclic
reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627-656),
log2 N steps, which makes the slow tail of nearly multiple roots cheap.
The recurrence checks no pivot in its rows: an exactly zero one shows as a
sum that is not finite, and only those z run again, with the pivot patched.
Complex symmetric tridiagonal eigenproblems lack the guarantees of the
Hermitian case, so every eigenvalue of a complex grid is certified: by a
trace bound on its best residual, N |p/p'| + |step| from the sweep that
moved it last, so that certifying runs no sweep, or where that bound
fails, is not a number, or that sweep met an exactly zero pivot, by an
inverse-iteration residual.  Five eigenvalues drawn at random take
the inverse-iteration check on either grid kind: on a complex grid as a
witness independent of the recurrence, on a real grid as its whole
certification.

The oracle calls three LAPACK routines: `dsterf` and `dstebz` for real
tridiagonals, and `zgtsv` for the banded solves of inverse iteration.  It
takes them from SciPy's LAPACK extension, `scipy.linalg._flapack`, which
`_load_flapack` loads from its file alone, so that `scipy.linalg`'s
`__init__` never runs: it loads `scipy._lib`, and through it `numpy.f2py`,
which cost a cold `verify` more than its solves.  Each call passes the
arguments, and makes the checks, of `scipy.linalg.eigvalsh_tridiagonal`
and `solve_banded`, so every eigenvalue has the bits those functions give.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .core_math import complex_json
from .errors import QRNotConverged, SingularityError
from .families import variant_form
from .potentials import DomainSpec, PotentialSpec, evaluate

_RESIDUAL_BOUND = 1e-8
# Ehrlich-Aberth sweeps before a complex grid is refused; the grids of the
# tests and the benchmark take 1 to 37.
_ABERTH_SWEEPS = 200
# Complex numbers per block of the Aberth sweeps and of certification, so
# that memory stays O(N) however many eigenvalues a sweep or a check takes.
# Certification carries several such arrays per block, so its blocks are a
# quarter of the size, which keeps them in cache.
_BLOCK = 1 << 16
_CERTIFY_BLOCK = _BLOCK >> 2
_FLAPACK = "scipy.linalg._flapack"


def _flapack_from_file():
    """`scipy.linalg._flapack`, loaded from its file in the installed
    `scipy` package, which is found without being imported.  Raises
    ImportError if there is no such file or it does not load.

    A single-phase extension enters sys.modules as it is created; what was
    there before is put back, so that a later `import scipy.linalg` loads
    the module as its own."""
    scipy = importlib.util.find_spec("scipy")
    paths = [
        os.path.join(where, "linalg", "_flapack" + suffix)
        for where in (scipy.submodule_search_locations if scipy else ())
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no file for {_FLAPACK}")
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    held = sys.modules.get(_FLAPACK)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if held is None:
            sys.modules.pop(_FLAPACK, None)
        else:
            sys.modules[_FLAPACK] = held
    return module


def _load_flapack():
    """SciPy's LAPACK extension: from its file, or where that fails, from
    `scipy.linalg`, whose `_flapack` has the same routines.  Only how the
    module is obtained differs; every caller runs the same code."""
    try:
        return _flapack_from_file()
    except ImportError:
        from scipy.linalg import _flapack  # runs scipy.linalg's __init__

        return _flapack


_flapack = _load_flapack()


def _check_info(info: int, routine: str, failure: str) -> None:
    """SciPy's check of a LAPACK info: ValueError for an illegal argument
    (negative), LinAlgError for a failure (positive)."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: {failure} (LAPACK info={info})")


def _sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every eigenvalue, ascending, of the real symmetric tridiagonal with
    diagonal d and off-diagonal e, by LAPACK `dsterf`:
    `eigvalsh_tridiagonal(d, e, lapack_driver="sterf")`, whose check that
    d and e are finite it keeps."""
    w, info = _flapack.dsterf(np.asarray_chkfinite(d), np.asarray_chkfinite(e))
    _check_info(info, "dsterf", "did not converge")
    return w


def _stebz(d: np.ndarray, e: np.ndarray, select: str, lo, hi) -> np.ndarray:
    """The eigenvalues, ascending, of the real symmetric tridiagonal with
    diagonal d and off-diagonal e in (lo, hi] (select "v") or with the
    0-based indices lo to hi (select "i"), by LAPACK `dstebz` bisection:
    `eigvalsh_tridiagonal(d, e, select, (lo, hi), lapack_driver="stebz")`,
    which passes 1-based indices and an absolute tolerance of 0."""
    by_index = select == "i"
    vl, vu, il, iu = (0.0, 1.0, lo + 1, hi + 1) if by_index else (lo, hi, 1, 1)
    m, w, _, _, info = _flapack.dstebz(
        np.asarray_chkfinite(d), np.asarray_chkfinite(e), 2 if by_index else 1, vl, vu, il, iu, 0.0, "E"
    )
    _check_info(info, "dstebz", "did not converge")
    return w[:m]


def solve_banded(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with T x = b, T the complex tridiagonal whose superdiagonal,
    diagonal and subdiagonal are the rows of band, by one LAPACK `zgtsv`
    call: that of `scipy.linalg.solve_banded((1, 1), band, b,
    overwrite_b=True)`, which copies band and overwrites b.  Raises
    LinAlgError if T is singular.  The benchmark counts the calls by this
    name."""
    *_, x, info = _flapack.zgtsv(band[2, :-1], band[1], band[0, 1:], b, overwrite_b=True)
    _check_info(info, "zgtsv", "singular matrix")
    return x


class GridHamiltonian(NamedTuple):
    """Tridiagonal descriptor of the discretized Schroedinger operator."""

    domain: DomainSpec
    N: int
    h: float
    diagonal: np.ndarray  # complex, 2 kappa/h^2 + V(x_i)
    offdiagonal: float  # -kappa/h^2

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
    return GridHamiltonian(domain=domain, N=N, h=h, diagonal=diag, offdiagonal=-kappa / h**2)


def _certify(H: GridHamiltonian, eigs: np.ndarray, trace_bound: np.ndarray | None, seed: int = 7) -> float:
    """Residual check against the contract bound relative to ||H||_max:
    every eigenvalue of a complex grid, five random ones of a real grid.

    On a complex grid each eigenvalue comes with a trace bound on its best
    residual; a real grid passes None.  With G = (T - z)^-1, sigma_min(T -
    z) = 1/||G||_2 <= 1/max_r |G_rr| <= N/|tr G| = N |p(z)/p'(z)| (Parlett &
    Dhillon, Linear Algebra Appl. 267 (1997) 247-279), so the Newton ratios
    of one recurrence sweep over all N bound the best residual of each z.
    `_aberth` takes them from each root's last sweep, so no sweep runs here.

    The banded check is inverse iteration.  A block of shifts takes one
    banded solve per step: the shifted copies of H sit uncoupled down the
    diagonal of one band.  Three steps run from a seeded random start
    without renormalizing, and ||Hv - lambda v||/||v|| is taken once, on the
    last v.  It runs on five seeded random eigenvalues of either grid, a
    witness independent of the recurrence, and on every eigenvalue of a
    complex grid whose trace bound is over the contract or not a number; an
    evaluation that met an exactly zero pivot gives NaN.  Returns the
    worst bound or residual taken; raises QRNotConverged if a banded
    residual exceeds the contract, or is not a number.
    """
    rng = np.random.default_rng(seed)
    n = H.N
    idx = rng.choice(len(eigs), size=min(5, len(eigs)), replace=False)
    bound = _RESIDUAL_BOUND * (float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal))
    worst = 0.0
    if not H.is_real:
        held = trace_bound <= bound  # a NaN bound routes its eigenvalue to the banded check
        worst = float(np.max(trace_bound[held], initial=0.0))
        idx = np.concatenate([idx, np.setdiff1d(np.flatnonzero(~held), idx)])
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
                v = solve_banded(band[:, : m * n], v)
            except np.linalg.LinAlgError:
                break
        v = v.reshape(m, n)
        resid = float(np.max(np.linalg.norm(H.matvec(v) - lam * v, axis=1) / np.linalg.norm(v, axis=1)))
        if not resid <= bound:
            raise QRNotConverged(f"residual certification failed: {resid:.3g} > {bound:.3g}")
        worst = max(worst, resid)
    return worst


def _recurrence_sum(d: np.ndarray, b2: float, z: np.ndarray, tiny: float | None, w: np.ndarray) -> np.ndarray:
    """The sum over the rows of u_k = r_k'/r_k, one step per row over all
    of z, in place.  With `tiny` given, an exactly zero pivot becomes tiny;
    with None, it divides as it is.

    t u goes to a buffer of its own: NumPy's complex multiply of a single
    element written over one of its operands does not round as its array
    loop does, and a rerun is often on one z."""
    r = d[0] - z
    if tiny is not None:
        r[r == 0] = tiny
    u = w[0] / r
    total = u.copy()
    t, tu = np.empty_like(r), np.empty_like(u)
    for dk, wk in zip(d[1:], w[1:]):
        np.divide(b2, r, out=t)
        np.subtract(dk, t, out=r)
        np.subtract(r, z, out=r)
        if tiny is not None:
            r[r == 0] = tiny
        np.multiply(t, u, out=tu)
        np.add(tu, wk, out=tu)
        np.divide(tu, r, out=u)
        total += u
    return total


def _recurrence_log_derivative(
    d: np.ndarray, b2: float, z: np.ndarray, tiny: float, w: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """p'(z)/p(z) at each z, for p(z) = det(T - z) and T the tridiagonal
    with diagonal d and squared off-diagonal b2, by the three-term
    recurrence, and the mask of the z that met an exactly zero pivot.

    The LU pivots of T - z are r_k = (d_k - z) - b2/r_{k-1}, so p'/p is the
    sum of u_k = r_k'/r_k, with r_k' = -1 + (b2/r_{k-1}) u_{k-1}.  Given w,
    the -1, the z-derivative of d_k - z, becomes w_k, and the sum is the
    derivative of log p along diag(w) instead.  One step per row, each over
    all of z.  b2 is real where d and z are.

    The rows run with no check of their pivots.  Each divides by the pivot
    it forms, so an exactly zero pivot makes that z's sum inf or NaN, which
    no later row makes finite.  The z whose sum is not finite, those and
    any whose sum overflowed, are the mask, and the same loop runs again on
    them alone with each exactly zero pivot made `tiny`, so that b2 = 0
    gives no 0/0.  That is the sum a check in every row gives, to the bit;
    a NaN `tiny` makes it NaN at each z that met one.
    """
    w = np.full(len(d), -1.0) if w is None else w
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot is found by its sum
        total = _recurrence_sum(d, b2, z, None, w)
    hit = ~np.isfinite(total)
    if hit.any():
        total[hit] = _recurrence_sum(d, b2, z[hit], tiny, w)
    return total, hit


def _reduction_log_derivative(
    d: np.ndarray, b2: float, z: np.ndarray, tiny: float
) -> tuple[np.ndarray, np.ndarray]:
    """p'(z)/p(z) as `_recurrence_log_derivative`, by odd-even cyclic
    reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970)
    627-656): log2 N steps, each over all rows and all of z.  Returns the
    sum and the mask of the z that met an exactly zero pivot.

    A step eliminates the odd rows of T - z.  Their pivots a are factors of
    p, so a'/a joins the sum; the even rows keep a tridiagonal Schur
    complement, with diagonal a_e - c_l/a_l - c_r/a_r and squared
    off-diagonal c_l c_r / a^2.  Each value carries its z-derivative.  An
    exactly zero pivot becomes `tiny`, as in the recurrence, but as soon as
    it is formed: a row that survives the step goes on into the next one.
    """
    a = d - z[:, None]
    zero = a == 0
    hit = zero.any(axis=1)
    a[zero] = tiny
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
        zero = a == 0
        hit |= zero.any(axis=1)
        a[zero] = tiny
        c = tl[:, :r] * tr
        dc = dtl[:, :r] * tr + tl[:, :r] * dtr
    return total + da[:, 0] / a[:, 0], hit


def _newton_ratios(d: np.ndarray, b2: float, z: np.ndarray, tiny: float) -> tuple[np.ndarray, np.ndarray]:
    """p(z)/p'(z) at each z, for p(z) = det(T - z) and T the tridiagonal
    with diagonal d and squared off-diagonal b2, and the mask of the z
    whose evaluation met an exactly zero pivot (or overflowed, in the
    recurrence).

    The recurrence costs N Python steps however few z there are; the
    reduction costs log2 N steps but 3-5 times the arithmetic.  So a sweep
    with fewer than N/8 roots left takes the reduction, in blocks of
    _BLOCK // N roots so that memory stays O(_BLOCK).
    """
    n = len(d)
    if 8 * len(z) >= n:
        g, hit = _recurrence_log_derivative(d, b2, z, tiny)
    else:
        rows = max(1, _BLOCK // n)
        blocks = [_reduction_log_derivative(d, b2, z[i : i + rows], tiny) for i in range(0, len(z), rows)]
        g, hit = (np.concatenate(parts) for parts in zip(*blocks))
    return 1.0 / g, hit


def _aberth_start(d: np.ndarray, b: float, tiny: float) -> np.ndarray:
    """First-order eigenvalues mu_j + i c_j of T = T_0 + i diag(Im d), T_0
    the real part of the tridiagonal with diagonal d and off-diagonal b.

    mu_j comes from `dsterf` on T_0, and c_j = v_j^T diag(Im d) v_j, v_j its
    eigenvector, is -(d_t log p)/(d_mu log p) at t = 0 for p(mu, t) =
    det(T_0 + t diag(Im d) - mu).  Both derivatives come from one recurrence
    pass over all mu, with no eigenvector: T_0 and mu are real, so the
    recurrence along w = -1 + i Im d keeps the parts of w apart, and its sum
    is d_mu log p + i d_t log p.  A start value that is not finite falls
    back to mu_j + i mean(Im d).
    """
    mu = _sterf(d.real, np.full(len(d) - 1, b))
    with np.errstate(all="ignore"):  # a value that is not finite takes the fallback
        g, _ = _recurrence_log_derivative(d.real, b * b, mu, tiny, -1.0 + 1j * d.imag)
        c = -g.imag / g.real
    c[~np.isfinite(c)] = np.mean(d.imag)
    return mu + 1j * c


def _aberth(d: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the tridiagonal with diagonal d and constant
    off-diagonal b, by Ehrlich-Aberth iteration, each with a trace bound on
    its least singular value sigma_min(T - lambda).

    Starts from the first-order eigenvalues of T in its imaginary part
    (`_aberth_start`).  A sweep updates every unconverged approximation at
    once; one stops when its step is at most a few ulps of ||H||.  Raises
    QRNotConverged if any is left after _ABERTH_SWEEPS sweeps.

    Each bound comes from the root's last sweep, which moved it from z to
    lambda = z - step: sigma_min(T - lambda) <= sigma_min(T - z) + |step|
    <= N |w| + |step|, for w = p(z)/p'(z) the Newton ratio before the
    Aberth correction (the trace bound of `_certify`).  A root whose last
    evaluation met an exactly zero pivot, so that w is that of the patched
    pivot, gets NaN.
    """
    n = len(d)
    ulp = np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * abs(b))
    lam = _aberth_start(d, b, ulp)
    bound = np.empty(n)
    active = np.arange(n)
    rows = max(1, _BLOCK // n)
    for _ in range(_ABERTH_SWEEPS):
        z = lam[active]
        step, hit = _newton_ratios(d, b * b, z, ulp)
        trace = n * np.abs(step)
        trace[hit] = np.nan
        for i in range(0, len(z), rows):
            diff = z[i : i + rows, None] - lam
            diff[np.arange(len(diff)), active[i : i + rows]] = np.inf  # drops the j = i term
            w = step[i : i + rows]
            step[i : i + rows] = w / (1.0 - w * np.sum(1.0 / diff, axis=1))
        lam[active] = z - step
        size = np.abs(step)
        bound[active] = trace + size
        active = active[~(size <= 4.0 * ulp)]
        if not len(active):
            return lam, bound
    raise QRNotConverged(f"Ehrlich-Aberth: {len(active)} of {n} eigenvalues unconverged after {_ABERTH_SWEEPS} sweeps")


def _real_eigenvalues(d: np.ndarray, b: float, lowest: int | None, below: float, more: int = 0) -> np.ndarray:
    """Ascending eigenvalues of the real tridiagonal with diagonal d and
    constant off-diagonal b: all of them if lowest is None, else every one
    up to `below` and the `more` above those, and at least the lowest
    `lowest` in all.

    All N come from `dsterf`, also where the window reaches N; where that
    is known beforehand (`more` alone reaches N, or `below` is past the
    Gershgorin bound max(d) + 2|b| of the spectrum), with no bisection.  A
    window comes from `dstebz` bisection: first by value up to `below`,
    then by index, for the `more` above those or, if that gave fewer than
    `lowest`, for the lowest `lowest`.
    """
    n = len(d)
    off = np.full(n - 1, b)
    whole = more >= n or (more > 0 and below >= float(np.max(d)) + 2.0 * abs(b))
    if lowest is None or lowest >= n or below == math.inf or whole:
        return _sterf(d, off)
    eigs = np.empty(0)
    if below > -math.inf:
        eigs = _stebz(d, off, "v", -math.inf, below)
    if more:
        top = max(lowest, len(eigs) + more)
        if top >= n:
            return _sterf(d, off)
        above = _stebz(d, off, "i", len(eigs), top - 1)
        eigs = np.concatenate([eigs, above])
    elif len(eigs) < lowest:
        eigs = _stebz(d, off, "i", 0, lowest - 1)
    return eigs


def eigen_complex_dense(
    H: GridHamiltonian, certify: bool = True, lowest: int | None = None, below: float = -math.inf, more: int = 0
) -> np.ndarray:
    """Eigenvalues sorted by real part, from the tridiagonal alone.

    No dense matrix is built; the name is kept because the benchmark's
    tracer wraps the oracle's eigensolve by it.  A complex grid returns all
    N, from Ehrlich-Aberth iteration, which makes no BLAS call, so its bits
    do not depend on the BLAS thread count.  A real symmetric grid returns
    all N if `lowest` is None or `below` is +inf, from LAPACK `dsterf`: the
    bits the dense symmetric solver gives, since `dsyevd` runs the `dsytrd`
    reduction, which leaves a tridiagonal matrix as it is, then the same
    `dsterf`.  Otherwise it returns a window by `dstebz` bisection, in O(N)
    per eigenvalue: every eigenvalue up to `below`, the `more` above those,
    and at least the lowest `lowest` (`_real_eigenvalues`).  certify=True
    checks the residual contract (`_certify`): on a complex grid every
    eigenvalue, by its trace bound or by inverse iteration, on a real grid
    five random ones, by inverse iteration.
    """
    trace_bound = None
    try:
        if H.is_real:
            eigs = _real_eigenvalues(H.diagonal.real, H.offdiagonal, lowest, below, more).astype(complex)
        else:
            eigs, trace_bound = _aberth(H.diagonal, H.offdiagonal)
    except np.linalg.LinAlgError as err:
        raise QRNotConverged(str(err)) from err
    order = np.argsort(eigs.real)
    eigs = eigs[order]
    if certify:
        _certify(H, eigs, None if trace_bound is None else trace_bound[order])
    return eigs


def _greedy_nearest(queries, pool, bound: float = math.inf) -> tuple[list, np.ndarray]:
    """Greedy injective matching in query order: each query takes the
    nearest unused pool entry, the first on a tie, if it is within bound;
    NaN never wins.  np.hypot rounds as abs() of a Python complex does;
    np.abs may not.  Returns (j, d) per query, the pool index taken or -1
    and the distance to the nearest unused entry (inf if none is left),
    and the mask of the entries taken."""
    pool = np.asarray(pool, dtype=complex)
    used = np.zeros(len(pool), dtype=bool)
    picks = []
    for z in queries:
        diff = z - pool
        dist = np.hypot(diff.real, diff.imag)
        dist[used | np.isnan(dist)] = math.inf
        j = int(np.argmin(dist)) if len(dist) else -1
        d = float(dist[j]) if j >= 0 else math.inf
        if d < math.inf and d <= bound:
            used[j] = True
        else:
            j = -1
        picks.append((j, d))
    return picks, used


class ConjugationReport(NamedTuple):
    """Closure of a spectrum under complex conjugation."""

    real_count: int
    pair_count: int
    unpaired: int
    max_defect: float
    closed: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "max_defect": self.max_defect if math.isfinite(self.max_defect) else None}


def conjugation_pair_check(eigs, tol: float) -> ConjugationReport:
    """Verify the multiset {lambda} equals {lambda*} within tol.

    Counts real eigenvalues (|Im| <= tol scale) and conjugate pairs, each
    upper eigenvalue taking the nearest unused mirror of a lower one; any
    leftover unpaired eigenvalue marks the spectrum as not closed.  With no
    lower eigenvalue, as on non-PT grids, every upper one is left unpaired
    at an infinite defect, with no search.
    """
    eigs = np.asarray(eigs, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(eigs))) if len(eigs) else 1.0
    real_mask = np.abs(eigs.imag) <= tol * scale
    rest = eigs[~real_mask]
    mirrors = rest[rest.imag < 0].conj()
    if len(mirrors):
        ups = sorted((z for z in rest if z.imag > 0), key=lambda z: (z.real, z.imag))
        picks, _ = _greedy_nearest(ups, mirrors, tol * scale)
    else:
        ups = rest[rest.imag > 0]
        picks = [(-1, math.inf)] * len(ups)
    pair_count = sum(j >= 0 for j, _ in picks)
    unpaired = (len(ups) - pair_count) + (len(mirrors) - pair_count)
    return ConjugationReport(
        real_count=int(np.sum(real_mask)),
        pair_count=pair_count,
        unpaired=unpaired,
        max_defect=max((d for _, d in picks), default=0.0),
        closed=(unpaired == 0),
    )


def continuum_threshold(spec: PotentialSpec) -> float:
    """Energy separating oracle-matchable levels from truncation artifacts:
    the x -> +inf potential limit for decaying forms, +inf otherwise."""
    return variant_form(spec).threshold(spec)


class LevelMatch(NamedTuple):
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
    cands = eigs[eigs.real < thr]
    entries = [(n, complex(e)) for n, e in formula_entries]
    picks, used = _greedy_nearest([e for _, e in entries], cands)
    pairs, unmatched = [], []
    for (n, e), (j, d) in zip(entries, picks):
        if j < 0:
            unmatched.append((n, e))
            continue
        lam = complex(cands[j])
        pairs.append((n, e, lam, d / max(abs(lam), 1e-300)))
    return LevelMatch(
        pairs=tuple(pairs),
        unmatched_formula=tuple(unmatched),
        unmatched_oracle=tuple(complex(z) for z in cands[~used]),
        threshold=thr,
    )


def _covering_window(energies) -> tuple[float, int]:
    """(M, K) for the energies a caller will match against a real spectrum:
    M the highest finite real part among them, K how many there are.

    Every eigenvalue up to M and the K above those cover the greedy
    `match_levels`: the eigenvalues are real, so |e - lam| grows with
    |Re e - lam| above M >= Re e.  Fewer than K entries come before any one,
    so one of those K is unused and no farther from it than any eigenvalue
    beyond, and on a tie it has the lower index.  The pairs and unmatched
    formula levels are those of the whole spectrum.
    """
    reals = [complex(e).real for e in energies]
    return max((r for r in reals if math.isfinite(r)), default=-math.inf), len(reals)


class ConvergenceLevel(NamedTuple):
    value_finest: complex
    extrapolated: complex
    observed_order: float
    err_estimate: float
    flagged: bool


class ConvergenceReport(NamedTuple):
    N_list: tuple
    h_list: tuple
    levels: tuple  # ConvergenceLevel per tracked level
    # certified, sorted by real part: every eigenvalue below the continuum
    # threshold, and at least the lowest n_levels.  A form with no threshold
    # gives the window that covers the energies passed to the study, or all
    # N if none were; a complex grid gives all N
    eigs_finest: np.ndarray
    finest_is_real: bool

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


def convergence_study(
    spec: PotentialSpec, domain: DomainSpec, N_list, n_levels: int = 6, energies=None
) -> ConvergenceReport:
    """Richardson study over ascending N_list (>= 2 distinct entries).

    Per tracked level: two-grid extrapolation from the finest pair, and a
    flag when the extrapolation and the finest grid disagree by more than
    10x the finest-pair step estimate.  With three grids or more, the
    observed order over the three finest is
    p = log(|e_-3 - e_-2| / |e_-2 - e_-1|) / log(h_-2 / h_-1), about 2 for
    the central difference on a converging level; it assumes the grids
    shrink h by one ratio, h_-3 / h_-2 = h_-2 / h_-1.  A real grid is
    solved only for what the study reads: a coarse grid for its lowest
    n_levels, the finest for every eigenvalue below the continuum threshold
    and at least its lowest n_levels.  With no threshold, the finest grid
    is solved for the window that covers a `match_levels` of `energies`
    (`_covering_window`), and at least its lowest n_levels; with
    `energies` None, whole.  The finest grid's eigenvalues are
    residual-certified and returned with the report, so a caller needs no
    second solve of that grid.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ValueError("N_list needs at least 2 entries")
    if len(set(N_list)) < len(N_list):
        # two equal grids make the Richardson denominator h1^2 - h2^2 zero
        raise ValueError(f"N_list repeats a grid size: {N_list}")
    thr = continuum_threshold(spec)
    finest, more = thr, 0
    if energies is not None and thr == math.inf:
        finest, more = _covering_window(energies)
    all_eigs = []
    hs = []
    for N in N_list:
        H = discretize(spec, domain, N)
        below, extra = (finest, more) if N == N_list[-1] else (-math.inf, 0)
        all_eigs.append(eigen_complex_dense(H, certify=N == N_list[-1], lowest=n_levels, below=below, more=extra))
        hs.append(H.h)
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
            d1 = abs(vals[-3] - vals[-2])
            d2 = abs(vals[-2] - vals[-1])
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
        N_list=tuple(N_list),
        h_list=tuple(hs),
        levels=tuple(levels),
        eigs_finest=all_eigs[-1],
        finest_is_real=H.is_real,
    )


def verify_levels(spec: PotentialSpec, domain: DomainSpec, N: int, *entry_lists, n_levels: int = 6):
    """(study, matches, conjugation) of each list of (n, E) entries, on
    grids of N // 2 (at least 50) and N nodes.

    The study solves the finest grid for the window that covers every
    list's energies, so each list's `match_levels` against it is its match
    against the whole spectrum.  A real grid's N eigenvalues are each their
    own mirror, so its conjugation report needs no solve.
    """
    energies = [e for entries in entry_lists for _, e in entries]
    study = convergence_study(spec, domain, [max(N // 2, 50), N], n_levels=n_levels, energies=energies)
    eigs, thr = study.eigs_finest, continuum_threshold(spec)
    if study.finest_is_real:
        conj = ConjugationReport(real_count=N, pair_count=0, unpaired=0, max_defect=0.0, closed=True)
    else:
        conj = conjugation_pair_check(eigs, tol=1e-8)
    return study, tuple(match_levels(entries, eigs, thr) for entries in entry_lists), conj
