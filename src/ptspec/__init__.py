"""Exactly solvable 1D quantum potentials: closed-form spectra, a numeric
hypergeometric-reduction pipeline, and an independent finite-difference
eigenvalue oracle, covering Hermitian, PT-symmetric and non-Hermitian
variants of three potential families.
"""

from .core_math import LowPoly, JacobiIndex, jacobi_eval, quadratic_roots, sqrt_principal
from .families import Family, Variant
from .potentials import DomainSpec, PotentialSpec, apply_variant, default_domain, evaluate, pt_symmetry_check

__version__ = "0.1.0"
