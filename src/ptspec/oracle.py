"""Independent verification path: second-order central-difference
discretization of -kappa d^2/dx^2 + V(x) with Dirichlet walls, eigensolve
of the resulting (possibly complex symmetric) tridiagonal matrix, and level
matching against closed-form spectra.  `verify_levels` runs the check: a
Richardson study on two grids, the match of each list of levels and the
conjugation report, the last two by one greedy nearest-unused matcher.

Every grid is solved on its tridiagonal, with no N x N matrix and no size
cap, in O(N) memory, and only for the eigenvalues `verify_levels` reads: the
convergence study asks each coarse grid for its lowest levels, and the
finest grid for every eigenvalue below the continuum threshold or, on a form
with no threshold, for the window that covers the energies it matches.  A
`Window` records what a caller reads of one grid.  One Sturm count at the
window's top energy sizes it before anything is solved, and a window of
more than N/16 eigenvalues, on either grid kind, is solved whole instead
(`_size_window`).  Each solve route returns a `GridSolve`.
The convergence study solves its grids from coarse to fine, and each grid
after the first starts from the roots the grid before it solved, each value
within O(h^2) of its own here.  It sizes the finest window once, first, and
on a real grid asks the coarser grids for as many eigenvalues.
A real symmetric grid's window is refined from those by Rayleigh-quotient
iteration (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4),
each step one batched LAPACK `dgtsv` solve, and accepted only where the
residuals prove it: for symmetric T an eigenvalue lies within ||Tv - sigma
v|| of sigma, and where those brackets are disjoint and one Sturm count at
the top of the highest counts them all, they hold the lowest k.  Otherwise,
and on the first grid, the window comes from one Sturm-sequence bisection
by index (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386-393; LAPACK
`dstebz`), its k eigenvalues in O(N k); a whole one from LAPACK `dsterf`,
all N in O(N^2).
A complex symmetric grid is solved by the Ehrlich-Aberth iteration of Bini,
Gemignani & Tisseur (SIAM J. Matrix Anal. Appl. 27 (2005) 153-175), each
grid after the first from the roots the grid before it converged.  Where
there are too few of those, or they give no window that a count proves, a
grid starts from its first-order eigenvalues in its imaginary part: the
eigenvalues mu_j of
the real part, each moved by i v_j^T diag(Im d) v_j, which one more pass
of the recurrence below gives with no eigenvector.  A window starts from
the lowest mu_j alone, from `dstebz`, and its Aberth correction sums over
its own roots; a count by the argument principle (Delves & Lyness, Math.
Comp. 21 (1967) 543-560) around a rectangle that the field of values
bounds then proves that the roots left of its right side R are every
eigenvalue there, and R lies above all that the study reads of the grid.
Where no count proves a window, the grid is solved whole, from all N
mu_j, from `dsterf`.  A sweep
takes its Newton ratios from the three-term recurrence, N Python steps over
all roots at once, until fewer than N/8 roots are left; then from odd-even
cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970)
627-656), log2 N steps, which makes the slow tail of nearly multiple roots
and a window's sweeps cheap.
The recurrence checks no pivot in its rows: an exactly zero one shows as a
sum that is not finite, and only those z run again, with the pivot patched,
from row 0.
Complex symmetric tridiagonal eigenproblems lack the guarantees of the
Hermitian case, so every eigenvalue a complex grid returns is certified: by
a trace bound on its best residual, N |p/p'| + |step| from the sweep that
moved it last, so that certifying runs no sweep, or where that bound
fails, is not a number, or that sweep met an exactly zero pivot, by an
inverse-iteration residual.  The lowest five by real part take the
inverse-iteration check: on a complex grid as witnesses independent of the
recurrence, on a bisected or whole real grid as its whole certification.
Each eigenvalue of a warm real window is certified by its own residual, and
takes no witness.  No check draws a random number.

The oracle calls four LAPACK routines: `dsterf` and `dstebz` for real
tridiagonals, and for the shifted solves of one block band `dgtsv` where
its diagonal is real, as in Rayleigh-quotient iteration, and `zgtsv` where
it is complex, as in the inverse iteration of the residual check.  It
takes them from SciPy's LAPACK extension, `scipy.linalg._flapack`, which
`_load_flapack` loads from its file alone, so that `scipy.linalg`'s
`__init__` never runs: it loads `scipy._lib`, and through it `numpy.f2py`,
which cost a cold `verify` more than its solves.  Each call of `dsterf`,
`dstebz` and `zgtsv` passes the arguments, and makes the checks, of
`scipy.linalg.eigvalsh_tridiagonal` and `solve_banded`, so each eigenvalue
they give has the bits those functions give.  A warm real window's
Rayleigh quotients are not bisection's bits, but lie within an ulp of
||T|| of them.
"""

from __future__ import annotations

import functools
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
# Complex numbers per block of the Aberth sweeps and of the block-band
# solves (`_shifted_solve`), so that memory stays O(N) however many
# eigenvalues a sweep, a Rayleigh window or the residual check takes.  Both
# callers of the block band carry several such arrays per block, so its
# blocks are a quarter of the size, which keeps them in cache.
_BLOCK = 1 << 16
_CERTIFY_BLOCK = _BLOCK >> 2
# A window of k eigenvalues is solved only while k <= N / _WINDOW_SHARE, for
# both grid kinds.  Bisection costs some 17 `dsterf`s per eigenvalue, so a
# real window costs less than a whole solve below about N/16; a complex
# window takes 2k + 8 Aberth starts and a count, which cost less than a
# whole solve below about N/8 starts.
_WINDOW_SHARE = 16
# Gauss-Legendre nodes per panel of a window's argument-principle count, and
# how far that count may be from the number of window roots it proves.
_PANEL_NODES = 16
_COUNT_TOL = 1e-6
# A warm real window's Rayleigh-quotient iteration: an eigenvalue has
# converged when its residual ||Tv - sigma v|| is at most _RAYLEIGH_ULPS
# sqrt(N) ulps of ||T||.  That is four times the floor at which rounding
# leaves the residual of a computed eigenvector, which grows as sqrt(N):
# about 1.5 ulps at N = 2000 and 6 at N = 16000 on the trig grid, where a
# fixed few ulps, the tolerance of `dstebz`, would refuse every window of a
# large grid.  The eigenvalue's own error is of the order of the residual
# squared over the gap, far below an ulp.  A window with any left after
# _RAYLEIGH_STEPS iterations is refused; the grids of the tests and the
# benchmark take 2 or 3.
_RAYLEIGH_ULPS = 0.25
_RAYLEIGH_STEPS = 6
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


def _stebz(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The lowest k eigenvalues, ascending, of the real symmetric
    tridiagonal with diagonal d and off-diagonal e, by LAPACK `dstebz`
    bisection: `eigvalsh_tridiagonal(d, e, select="i", select_range=(0, k -
    1), lapack_driver="stebz")`, which passes the 1-based indices 1 to k and
    an absolute tolerance of 0.  No call for k = 0, where that function
    refuses the range."""
    if not k:
        return np.empty(0)
    m, w, _, _, info = _flapack.dstebz(np.asarray_chkfinite(d), np.asarray_chkfinite(e), 2, 0.0, 1.0, 1, k, 0.0, "E")
    _check_info(info, "dstebz", "did not converge")
    return w[:m]


def _shifted_solve(d: np.ndarray, b: float, shifts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The rows x_j of (T - shifts_j) x_j = rhs_j, T the tridiagonal with
    diagonal d and constant off-diagonal b, by one LAPACK call: the shifted
    copies of T sit uncoupled down the diagonal of one band, which `dgtsv`
    solves where that diagonal is real and `zgtsv` where it is complex.
    That `zgtsv` call is the one of `scipy.linalg.solve_banded((1, 1), band,
    rhs, overwrite_b=True)` on the band.  It overwrites rhs where that is an
    array of its own, of the band's type.  Raises LinAlgError if one of them
    is singular."""
    m, n = rhs.shape
    off = np.full(m * n - 1, b)
    off[n - 1 :: n] = 0.0
    diag = (d - shifts[:, None]).ravel()
    gtsv, name = (_flapack.zgtsv, "zgtsv") if np.iscomplexobj(diag) else (_flapack.dgtsv, "dgtsv")
    *_, x, info = gtsv(off, diag, off, rhs.reshape(-1, 1), overwrite_d=True, overwrite_b=True)
    _check_info(info, name, "singular matrix")
    return x.reshape(m, n)


# The block-band solve by the name `_certify` calls, which the benchmark
# counts as the residual check's solves; `_rayleigh_window` calls
# `_shifted_solve` itself.
solve_banded = _shifted_solve


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
        return _tridiagonal_product(self.diagonal, self.offdiagonal, v)


def _tridiagonal_product(diag: np.ndarray, b: float, v: np.ndarray) -> np.ndarray:
    """T v for one vector or for each row of a stack of them, T the
    tridiagonal with diagonal `diag`, one for all rows or one per row, and
    constant off-diagonal b."""
    out = diag * v
    out[..., :-1] += b * v[..., 1:]
    out[..., 1:] += b * v[..., :-1]
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


def _certify(H: GridHamiltonian, eigs: np.ndarray, trace_bound: np.ndarray | None) -> None:
    """Residual check of eigs, sorted by real part, against the contract
    bound relative to ||H||_max: every eigenvalue of a complex grid and of a
    warm real window, the lowest five of a bisected or whole real grid.

    On a complex grid each eigenvalue comes with a trace bound on its best
    residual.  With G = (T - z)^-1, sigma_min(T - z) = 1/||G||_2 <= 1/max_r
    |G_rr| <= N/|tr G| = N |p(z)/p'(z)| (Parlett & Dhillon, Linear Algebra
    Appl. 267 (1997) 247-279), so the Newton ratios of one recurrence sweep
    over all N bound the best residual of each z.  `_aberth` takes them
    from each root's last sweep, so no sweep runs here.  A warm real window
    (`_rayleigh_window`) passes the residual ||Tv - sigma v|| of each
    eigenvalue's unit Rayleigh-quotient vector, a certificate in itself; a
    real grid solved by `dstebz` or `dsterf` passes None.

    The banded check is inverse iteration.  A block of shifts takes one
    block-band solve per step (`solve_banded`).  Three steps run from the
    fixed start v_j = 1 + j/N, as in `_rayleigh_window`, without
    renormalizing, and ||Hv - lambda v||/||v|| is taken once, on the last
    v.  It runs on the lowest five eigenvalues, but of a warm real window,
    as witnesses independent of the recurrence on a complex grid and as the
    whole certification of a real grid that passes None; and on every
    eigenvalue whose bound is over the contract or not a number, as an
    evaluation that met an exactly zero pivot gives.  Raises
    QRNotConverged if a banded residual exceeds the contract, or is not a
    number.
    """
    n = H.N
    bound = _RESIDUAL_BOUND * _norm(H.diagonal, H.offdiagonal)
    check = np.arange(len(eigs)) < (0 if H.is_real and trace_bound is not None else 5)
    if trace_bound is not None:
        check |= ~(trace_bound <= bound)  # a NaN bound routes its eigenvalue to the banded check
    idx = np.flatnonzero(check)
    per = max(1, _CERTIFY_BLOCK // n)
    for start in range(0, len(idx), per):
        lam = eigs[idx[start : start + per]]
        shift = lam + 1e-10 * (1.0 + np.abs(lam)) * (1 + 1j)
        v = np.tile(1.0 + np.arange(n) / n + 0j, (len(lam), 1))
        for _ in range(3):
            try:
                v = solve_banded(H.diagonal, H.offdiagonal, shift, v)
            except np.linalg.LinAlgError:
                break
        resid = float(np.max(np.linalg.norm(H.matvec(v) - lam[:, None] * v, axis=1) / np.linalg.norm(v, axis=1)))
        if not resid <= bound:
            raise QRNotConverged(f"residual certification failed: {resid:.3g} > {bound:.3g}")


def _recurrence_sum(d: np.ndarray, w: np.ndarray, b2: float, z: np.ndarray, tiny) -> np.ndarray:
    """The sum over all rows d, w of the recurrence at each z, one step per
    row over all of z.  With `tiny` given, an exactly zero pivot becomes
    tiny; with None, it divides as it is.

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
    any whose sum overflowed, are the mask, and each runs again from row 0
    with each exactly zero pivot made `tiny`, so that b2 = 0 gives no 0/0.
    That is the sum a check in every row gives, to the bit; a NaN `tiny`
    makes it NaN at each z that met one.
    """
    w = np.full(len(d), -1.0) if w is None else w
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot is found by its sum
        total = _recurrence_sum(d, w, b2, z, None)
    hit = ~np.isfinite(total)
    if hit.any():
        total[hit] = _recurrence_sum(d, w, b2, z[hit], tiny)
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


def _norm(d: np.ndarray, b: float) -> float:
    """max|d| + 2|b|, the ||T||_max of `_certify`'s contract, for the
    tridiagonal with diagonal d and constant off-diagonal b: the scale of
    an Aberth solve's ulps."""
    return float(np.max(np.abs(d))) + 2.0 * abs(b)


def _aberth_start(d: np.ndarray, b: float, tiny: float, count: int | None = None) -> np.ndarray:
    """First-order eigenvalues mu_j + i c_j of T = T_0 + i diag(Im d), T_0
    the real part of the tridiagonal with diagonal d and off-diagonal b:
    all N, or with `count`, those of the lowest `count` mu_j.

    mu_j comes from `dsterf` on T_0, or for the lowest `count` from `dstebz`
    by index, and c_j = v_j^T diag(Im d) v_j, v_j its eigenvector, is
    -(d_t log p)/(d_mu log p) at t = 0 for p(mu, t) = det(T_0 + t diag(Im d)
    - mu).  Both derivatives come from one recurrence pass over all mu, with
    no eigenvector: T_0 and mu are real, so the recurrence along w = -1 +
    i Im d keeps the parts of w apart, and its sum is d_mu log p + i d_t log
    p.  A start value that is not finite falls back to mu_j + i mean(Im d).
    """
    off = np.full(len(d) - 1, b)
    mu = _sterf(d.real, off) if count is None else _stebz(d.real, off, count)
    with np.errstate(all="ignore"):  # a value that is not finite takes the fallback
        g, _ = _recurrence_log_derivative(d.real, b * b, mu, tiny, -1.0 + 1j * d.imag)
        c = -g.imag / g.real
    c[~np.isfinite(c)] = np.mean(d.imag)
    return mu + 1j * c


def _aberth(d: np.ndarray, b: float, lam: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the tridiagonal with diagonal d and constant
    off-diagonal b, by Ehrlich-Aberth iteration, each with a trace bound on
    its least singular value sigma_min(T - lambda): all N, from the
    first-order eigenvalues of T in its imaginary part (`_aberth_start`), or
    one root from each start of `lam`, which it overwrites.

    A sweep updates every unconverged approximation at once; one stops when
    its step is at most a few ulps of ||H||.  The Aberth correction sums
    over the roots being found, so a window of starts finds a window of
    roots.  Raises QRNotConverged if any is left after _ABERTH_SWEEPS
    sweeps.

    Each bound comes from the root's last sweep, which moved it from z to
    lambda = z - step: sigma_min(T - lambda) <= sigma_min(T - z) + |step|
    <= N |w| + |step|, for w = p(z)/p'(z) the Newton ratio before the
    Aberth correction (the trace bound of `_certify`).  A root whose last
    evaluation met an exactly zero pivot, so that w is that of the patched
    pivot, gets NaN.
    """
    n = len(d)
    ulp = np.finfo(float).eps * _norm(d, b)
    lam = _aberth_start(d, b, ulp) if lam is None else lam
    bound = np.empty(len(lam))
    active = np.arange(len(lam))
    rows = max(1, _BLOCK // len(lam))
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
    raise QRNotConverged(
        f"Ehrlich-Aberth: {len(active)} of {len(lam)} eigenvalues unconverged after {_ABERTH_SWEEPS} sweeps"
    )


def _sturm_count(d: np.ndarray, b: float, x: float) -> int:
    """How many eigenvalues of the real symmetric tridiagonal with diagonal
    d and constant off-diagonal b lie at or below x: the pivots r_k = (d_k -
    x) - b^2/r_{k-1} of T - x that are not positive (Sylvester's law of
    inertia), each smaller in size than pivmin taken as -pivmin, as
    LAPACK's `dstebz` counts.  N Python steps on floats."""
    b2 = b * b
    pivmin = sys.float_info.min * max(1.0, b2)
    count, r = 0, math.inf
    for a in (d - x).tolist():
        r = a - b2 / r
        if r < pivmin:
            count += 1
            if r > -pivmin:
                r = -pivmin
    return count


class Window(NamedTuple):
    """What a caller reads of one grid: every eigenvalue up to `below`, the
    `more` above those, at least the lowest `lowest`, and on a complex grid
    the greedy match of each entry of `energies` (`_reach`); with k, the
    eigenvalues of the grid's real part that this takes, and whether the
    grid is solved whole instead.  Built by `_size_window`."""

    lowest: int | None
    below: float
    more: int
    energies: tuple
    k: int
    whole: bool


class GridSolve(NamedTuple):
    """One grid's solve: its eigenvalues, a bound on each one's residual
    (the trace bounds of a complex grid, the residuals of a warm real
    window, None from `dstebz` or `dsterf`), R, the real part below which
    they are every eigenvalue (+inf where they are all N, and on a real
    grid), and every root the solve converged, to start a finer grid of the
    same form."""

    eigs: np.ndarray
    bounds: np.ndarray | None
    reach: float
    roots: np.ndarray


def _size_window(
    d: np.ndarray, b: float, lowest: int | None = None, below: float = -math.inf, more: int = 0, energies=()
) -> Window:
    """The window of the real symmetric tridiagonal with diagonal d and
    constant off-diagonal b that holds every eigenvalue up to `below`, the
    `more` above those, and at least the lowest `lowest`: k of them, from
    one Sturm count at `below` (none at -inf), before anything is solved.
    It is whole where the grid is better solved whole: where no window was
    asked (lowest None or below +inf: then k = N), or k > N / _WINDOW_SHARE.

    It is one rule for both grid kinds: a real grid solves the k, a
    complex grid takes the k of its real part as the core of its Aberth
    starts, and keeps `energies` to cover their greedy match."""
    n = len(d)
    if lowest is None or below == math.inf:
        return Window(lowest, below, more, tuple(energies), n, True)
    count = _sturm_count(d, b, below) if below > -math.inf else 0
    k = max(lowest, count + more)
    return Window(lowest, below, more, tuple(energies), k, k * _WINDOW_SHARE > n)


def _rayleigh_window(d: np.ndarray, b: float, starts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(eigenvalues, residuals) of the lowest k eigenvalues of the real
    symmetric tridiagonal with diagonal d and constant off-diagonal b,
    refined from the lowest k of `starts` by Rayleigh-quotient iteration,
    or None where they do not prove that window.

    The starts are the eigenvalues of a coarser grid of the same form, each
    within O(h^2) of its eigenvalue here, and from such a shift the
    iteration converges cubically (Parlett, The Symmetric Eigenvalue
    Problem, SIAM 1998, ch. 4).  Each step solves (T - sigma) x = v for a
    block of at most _CERTIFY_BLOCK // N shifts at once (`_shifted_solve`)
    and takes the unit vector v of x.  The first, from v_j = 1 + j/N, is one
    step of inverse iteration at the starts: that vector is mostly the
    lowest eigenvectors, and a quotient taken after one solve can move a
    higher start to a neighbour's eigenvalue.  Each later step moves sigma
    by v^T (T - sigma) v, to the Rayleigh quotient, and the residual
    ||(T - sigma) v|| of the moved sigma stops an eigenvalue's iteration
    once it is at most _RAYLEIGH_ULPS sqrt(N) ulps of ||T||.

    For symmetric T an eigenvalue lies within each residual of its sigma.
    With a margin of N ulps of ||T|| for rounding, the window is proved
    where these brackets are disjoint, so that each holds its own
    eigenvalue, and a Sturm count at the top of the highest is k, so that
    they are the lowest k.  None where that fails, where fewer than k
    starts are given, where a sigma is not converged after _RAYLEIGH_STEPS
    quotients, or where a solve is singular or not finite.
    """
    n = len(d)
    if len(starts) < k:
        return None
    ulp = np.finfo(float).eps * _norm(d, b)
    tol = _RAYLEIGH_ULPS * math.sqrt(n) * ulp
    sigma = np.sort(starts.real)[:k]
    resid = np.empty(k)
    first = 1.0 + np.arange(n) / n
    per = max(1, _CERTIFY_BLOCK // n)
    with np.errstate(all="ignore"):  # an iterate that is not finite never converges
        for start in range(0, k, per):
            rows = np.arange(start, min(start + per, k))
            v = np.tile(first, (len(rows), 1))
            for i in range(_RAYLEIGH_STEPS + 1):
                try:
                    x = _shifted_solve(d, b, sigma[rows], v)
                except np.linalg.LinAlgError:
                    return None
                v = x / np.linalg.norm(x, axis=1)[:, None]
                if not i:
                    continue  # inverse iteration at the starts, before any quotient moves them
                w = _tridiagonal_product(d - sigma[rows, None], b, v)
                move = np.sum(v * w, axis=1)
                sigma[rows] += move
                resid[rows] = np.linalg.norm(w - move[:, None] * v, axis=1)
                left = ~(resid[rows] <= tol)
                rows, v = rows[left], v[left]
                if not len(rows):
                    break
            else:
                return None
    order = np.argsort(sigma)
    sigma, resid = sigma[order], resid[order]
    low, high = sigma - resid - n * ulp, sigma + resid + n * ulp
    if not (np.all(low[1:] > high[:-1]) and _sturm_count(d, b, np.max(high, initial=-math.inf)) == k):
        return None
    return sigma, resid


def _real_eigenvalues(d: np.ndarray, b: float, window: Window, starts: np.ndarray | None = None) -> GridSolve:
    """The `GridSolve` of a window of the real tridiagonal with diagonal d
    (its real part) and constant off-diagonal b: its lowest k eigenvalues,
    ascending, all N where no window was asked.

    A whole window comes from `dsterf`, cut to its k, with no bisection.
    Given `starts`, a window is refined from them by Rayleigh-quotient
    iteration, and where that proves it, each eigenvalue comes with its
    residual (`_rayleigh_window`).  Otherwise the bounds are None and the
    window comes from one `dstebz` bisection by index, of the lowest k.
    The roots are the eigenvalues."""
    d = d.real
    off = np.full(len(d) - 1, b)
    if window.whole:
        eigs, bounds = _sterf(d, off)[: window.k], None
    else:
        proved = None if starts is None else _rayleigh_window(d, b, starts, window.k)
        eigs, bounds = (_stebz(d, off, window.k), None) if proved is None else proved
    return GridSolve(eigs, bounds, math.inf, eigs)


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of m-point Gauss-Legendre quadrature on [-1, 1]:
    Newton's method on P_m, by its three-term recurrence, from the nodes'
    asymptotic guesses cos(pi (j + 3/4) / (m + 1/2)).  NumPy's `leggauss`
    would solve an eigenproblem by LAPACK, whose bits may follow the BLAS
    thread count, where this loop makes no BLAS call.  Computed on the
    first call for each m, not at import, and shared by every later one,
    so the arrays are read-only."""
    x = np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):  # quadratic from these guesses: 8 steps reach rounding
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _segment_distance(a: np.ndarray, e: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each segment [a_i, e_i] of the complex plane to the
    nearest of points."""
    ab = (e - a)[:, None]
    t = np.clip(((points - a[:, None]) * ab.conj()).real / np.abs(ab) ** 2, 0.0, 1.0)
    return np.min(np.abs(points - (a[:, None] + t * ab)), axis=1)


def _argument_count(
    d: np.ndarray, b: float, roots: np.ndarray, left: float, right: float, height: float, tiny: float
) -> complex:
    """(1/2 pi i) times the integral of p'/p, p(z) = det(T - z), around the
    rectangle [left, right] x [-height, height]: the number of eigenvalues
    of T inside it, by the argument principle (Delves & Lyness, Math. Comp.
    21 (1967) 543-560), as a complex number that is an integer up to the
    quadrature's error.

    Each side is one panel of _PANEL_NODES-point Gauss-Legendre quadrature
    to begin with, and a panel is halved until its length is at most its
    distance to the nearest of `roots`.  p'/p comes from the recurrence at
    every node in one pass.  NaN where 60 halvings do not get there: one of
    `roots` lies on the contour."""
    corners = np.array([complex(left, -height), complex(right, -height), complex(right, height), complex(left, height)])
    a, e = corners, np.roll(corners, -1)
    for _ in range(60):
        with np.errstate(invalid="ignore"):  # a panel halved to a point has a NaN distance: never fine
            fine = np.abs(e - a) <= _segment_distance(a, e, roots)
        if fine.all():
            break
        mid = (a[~fine] + e[~fine]) / 2
        a, e = np.concatenate([a[fine], a[~fine], mid]), np.concatenate([e[fine], mid, e[~fine]])
    else:
        return complex(math.nan, math.nan)
    t, weights = _gauss_legendre(_PANEL_NODES)
    half = (e - a)[:, None] / 2
    nodes = (a[:, None] + half) + half * t
    g, _ = _recurrence_log_derivative(d, b * b, nodes.ravel(), tiny)
    return complex(np.sum(g.reshape(nodes.shape) * weights * half)) / (2j * math.pi)


def _reach(roots: np.ndarray, window: Window) -> float | None:
    """R, the right side of a complex window's count: in the widest gap
    between the real parts of `roots` above all that a caller reads of the
    window, or None where no gap is above that.

    A caller reads every root up to `below`, the `more` above those, and at
    least the lowest `lowest`.  For each finite entry e of `energies`, K of
    them, it reads e's greedy match: with D_e the distance from e to its
    K-th nearest root, R > Re e + D_e puts every eigenvalue beyond R
    farther from e than D_e.  Fewer than K entries come before e, so one of
    its K nearest roots is unused and no farther than D_e, and e takes a
    root below R, as it would from the whole spectrum (`_covering_window`'s
    argument in the complex plane).
    """
    x = np.sort(roots.real)
    energies = window.energies
    top = max(window.lowest, int(np.sum(x <= window.below)) + window.more)
    if max(top, len(energies), 2) > len(x):
        return None
    need = max(window.below, x[top - 1] if top else -math.inf)
    for e in energies:
        e = complex(e)
        if np.isfinite(e):
            dist = np.sort(np.abs(roots - e))
            need = max(need, e.real + dist[len(energies) - 1])
    low = np.maximum(x[:-1], need)
    gap = np.where(x[1:] > need, x[1:] - low, -math.inf)
    i = int(np.argmax(gap))
    return float(low[i] + gap[i] / 2) if gap[i] > 0 else None


def _aberth_window(
    d: np.ndarray, b: float, m: int, window: Window, start: np.ndarray | None = None
) -> GridSolve | None:
    """The `GridSolve` of a window of m Aberth starts: its roots left of R,
    their trace bounds, R, its reach (`_reach`), and all m roots,
    converged, where a count by the argument principle proves that the
    roots left of R are every eigenvalue with real part below R; None where
    it does not, or the window did not converge.

    The starts are the first-order values of the lowest m eigenvalues of
    Re T (`_aberth_start`), or `start`, m values that it overwrites: the
    roots of a coarser grid of the same form, each within O(h^2) of its
    root here.  Those are not swept where one of them lies outside the
    field of values below, as the roots of a PT Manning-Rosen grid at its
    poles can, where its levels do not converge with h.

    T = T_0 + i diag(Im d) has its field of values in Re z >= lambda_min(T_0)
    and |Im z| <= max |Im d|, so every eigenvalue with real part below R lies
    in any rectangle [L, R] x [-Y, Y] beyond those bounds.  With W = R -
    lambda_min(T_0), the count takes L = lambda_min(T_0) - W and Y = max
    |Im d| + W.  The window is proved where that count is within
    _COUNT_TOL of the number of roots left of R.
    """
    ulp = np.finfo(float).eps * _norm(d, b)
    height = float(np.max(np.abs(d.imag)))
    if start is None:
        start = _aberth_start(d, b, ulp, m)
        floor = start[0].real
    else:
        floor = _stebz(d.real, np.full(len(d) - 1, b), 1)[0]
        if np.any(start.real < floor) or np.any(np.abs(start.imag) > height):
            return None  # outside the field of values: no root here is near
    try:
        lam, bound = _aberth(d, b, start)
    except QRNotConverged:
        return None
    reach = _reach(lam, window)
    if reach is None:
        return None
    width = reach - floor
    count = _argument_count(d, b, lam, floor - width, reach, height + width, ulp)
    inside = lam.real < reach
    if not abs(count - np.count_nonzero(inside)) <= _COUNT_TOL:
        return None
    return GridSolve(lam[inside], bound[inside], reach, lam)


def _complex_eigenvalues(d: np.ndarray, b: float, window: Window, starts: np.ndarray | None = None) -> GridSolve:
    """The `GridSolve` of the complex tridiagonal with diagonal d and
    constant off-diagonal b: every eigenvalue with real part below R, a
    window that holds what `window` asks of its real part and covers the
    greedy match of its energies (`_aberth_window`), or all N with R =
    +inf.  Its roots are every one the solve converged, the window's m or
    all N.

    The window takes 2k + 8 starts for the k of its real part: the lowest
    2k + 8 of `starts` by real part, where there are that many, then the
    first-order ones; where its count refuses those too, or the window is
    whole, the grid is solved whole."""
    m = min(2 * window.k + 8, len(d))
    tries = [] if window.whole else [None]
    if tries and starts is not None and len(starts) >= m:
        tries.insert(0, starts[np.argsort(starts.real, kind="stable")[:m]])
    for start in tries:
        solve = _aberth_window(d, b, m, window, start)
        if solve is not None:
            return solve
    lam, bound = _aberth(d, b)
    return GridSolve(lam, bound, math.inf, lam)


def eigen_complex_dense(
    H: GridHamiltonian,
    certify: bool = True,
    window: Window | None = None,
    starts: np.ndarray | None = None,
    solves: list | None = None,
) -> np.ndarray:
    """Eigenvalues sorted by real part, from the tridiagonal alone: the
    `window` (`_size_window`) of the grid, or with None, all N.

    No dense matrix is built.  The name, the grid as the first argument,
    `certify` as the second and the array returned are those the
    benchmark's tracer and reference maker read: the tracer wraps the
    oracle's eigensolve by this name, sizes it by H.N and counts what it
    returns, and the reference maker iterates the array.

    A real symmetric grid takes all N from LAPACK `dsterf`: the bits the
    dense symmetric solver gives, since `dsyevd` runs the `dsytrd`
    reduction, which leaves a tridiagonal matrix as it is, then the same
    `dsterf`.  Given `starts`, its window is refined from them by
    Rayleigh-quotient iteration and kept where the residuals and one Sturm
    count prove it (`_rayleigh_window`); otherwise it comes from one
    `dstebz` bisection, in O(N) per eigenvalue (`_real_eigenvalues`).  A
    complex grid takes them from Ehrlich-Aberth iteration.  Neither makes a
    BLAS call, so the bits do not depend on the BLAS thread count.  A
    complex window also covers the greedy match of each of the window's
    energies, and holds every eigenvalue with real part below a bound R
    that a count by the argument principle proves; where no count proves
    one, the grid is solved whole (`_complex_eigenvalues`).  Given a list
    `solves`, the grid appends its `GridSolve` to it, whose roots, passed
    back as `starts` to a finer grid of the same form, start that grid's
    window: in place of the first-order values on a complex grid, of
    bisection on a real one.

    certify=True checks the residual contract (`_certify`): every
    eigenvalue returned by a complex grid, by its trace bound or by inverse
    iteration, and by a warm real window, by its own residual; the lowest
    five of a bisected or whole real grid, by inverse iteration.
    """
    if window is None:
        window = _size_window(H.diagonal.real, H.offdiagonal)
    route = _real_eigenvalues if H.is_real else _complex_eigenvalues
    try:
        solve = route(H.diagonal, H.offdiagonal, window, starts)
    except np.linalg.LinAlgError as err:
        raise QRNotConverged(str(err)) from err
    if solves is not None:
        solves.append(solve)
    order = np.argsort(solve.eigs.real)
    eigs = solve.eigs.astype(complex)[order]
    if certify:
        _certify(H, eigs, None if solve.bounds is None else solve.bounds[order])
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
    formula levels are those of the whole spectrum.  A complex spectrum
    needs the energies themselves: its window proves the same cover from
    each entry's distance to its K-th nearest root (`_reach`).
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
    # N if none were.  A complex grid's window holds every eigenvalue with
    # real part below `reach`, a bound its count proves; it takes all N
    # where no count proves one
    eigs_finest: np.ndarray
    finest_is_real: bool
    reach: float  # +inf where eigs_finest is all N, and on a real grid

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
    shrink h by one ratio, h_-3 / h_-2 = h_-2 / h_-1.  Either grid kind is
    solved only for what the study reads: a coarse grid for its lowest
    n_levels, the finest for every eigenvalue below the continuum threshold
    and at least its lowest n_levels.  With no threshold, the finest grid
    is solved for the window that covers a `match_levels` of `energies`
    (`_covering_window`), and at least its lowest n_levels; with
    `energies` None, whole.  The finest grid's eigenvalues are
    residual-certified and returned with the report, so a caller needs no
    second solve of that grid.  The grids are solved from coarse to fine,
    and each passes the roots of its `GridSolve` to the next one's solve,
    as the starts of that grid's window: a complex grid every root it
    converged, a real grid its eigenvalues.  One Sturm count sizes the
    finest window, k eigenvalues, before any grid is solved, and the finest
    solve takes that `Window`.  Where the finest grid is real and not
    solved whole, each coarser grid is asked for its lowest k, at least
    n_levels, so that the finest has a start for each.  The report's reach
    is the finest solve's.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ValueError("N_list needs at least 2 entries")
    if len(set(N_list)) < len(N_list):
        # two equal grids make the Richardson denominator h1^2 - h2^2 zero
        raise ValueError(f"N_list repeats a grid size: {N_list}")
    thr = continuum_threshold(spec)
    finest, more, entries = thr, 0, ()
    if energies is not None and thr == math.inf:
        finest, more = _covering_window(energies)
        entries = energies
    grids = [discretize(spec, domain, N) for N in N_list]
    fine = grids[-1]
    fine_window = _size_window(fine.diagonal.real, fine.offdiagonal, n_levels, finest, more, entries)
    # a start on each coarse grid for each eigenvalue of a real finest window
    coarse = fine_window.k if fine.is_real and not fine_window.whole else n_levels
    all_eigs = []
    hs = []
    solves = []
    for H in grids:
        window = fine_window if H is fine else _size_window(H.diagonal.real, H.offdiagonal, coarse)
        starts = solves[-1].roots if solves else None
        all_eigs.append(eigen_complex_dense(H, certify=H is fine, window=window, starts=starts, solves=solves))
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
        finest_is_real=fine.is_real,
        reach=solves[-1].reach,
    )


def verify_levels(spec: PotentialSpec, domain: DomainSpec, N: int, *entry_lists, n_levels: int = 6):
    """(study, matches, conjugation) of each list of (n, E) entries, on
    grids of N // 2 (at least 50) and N nodes.

    The study solves the finest grid for the window that covers every
    list's energies, so each list's `match_levels` against it is its match
    against the whole spectrum.  A real grid's N eigenvalues are each their
    own mirror, so its conjugation report needs no solve.  A complex grid's
    report covers the eigenvalues the study returned: every one with real
    part below `study.reach`, all N where that is +inf.
    """
    energies = [e for entries in entry_lists for _, e in entries]
    study = convergence_study(spec, domain, [max(N // 2, 50), N], n_levels=n_levels, energies=energies)
    eigs, thr = study.eigs_finest, continuum_threshold(spec)
    if study.finest_is_real:
        conj = ConjugationReport(real_count=N, pair_count=0, unpaired=0, max_defect=0.0, closed=True)
    else:
        conj = conjugation_pair_check(eigs, tol=1e-8)
    return study, tuple(match_levels(entries, eigs, thr) for entries in entry_lists), conj
