import pytest

from ptspec import oracle
from ptspec.potentials import Family, PotentialSpec, default_domain


def _solve(spec, N):
    H = oracle.discretize(spec, default_domain(spec), N)
    return H, oracle.eigen_complex_dense(H)


@pytest.fixture(scope="session")
def trig_a2_spec():
    return PotentialSpec(family=Family.TrigScarf, A=-2.0)


@pytest.fixture(scope="session")
def trig_a2_eigs_3000(trig_a2_spec):
    return _solve(trig_a2_spec, 3000)


@pytest.fixture(scope="session")
def box_eigs_3000():
    spec = PotentialSpec(family=Family.TrigScarf, A=0.0)
    return (spec, *_solve(spec, 3000))
