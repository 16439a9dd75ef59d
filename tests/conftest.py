"""Shared fixtures.

The expensive objects (resonance search, bound-state normalization, the
background fit) are session-scoped: they are deterministic pure functions
of the default parameter set, so every test that needs them can share one
instance without coupling.
"""

import functools
import math

import numpy as np
import pytest

import bicscatter as bs


def _quadrature_norm_sq(params):
    """Reference for the trapped state's N^2: adaptive Simpson of raw^2 on
    [0, R] plus the r^-4 tail.

    R is about 300/q, moved onto a node of sin(2 theta) so that the
    oscillating half of the tail integrates to zero at leading order; the
    tail's mean envelope is averaged over whole periods past R. Cells are a
    quarter period (the aliasing guard), and the tolerance is relative to
    the norm, so large norms (~650 at alpha = q = 3) stay reachable.
    """
    psi = bs.bound_state(params, normalized=False)
    q, delta = params.q, psi.phase.delta
    period = math.pi / q
    r_cut = (0.5 * math.pi * math.ceil((300.0 + delta) / (0.5 * math.pi)) - delta) / q
    inner = bs.adaptive_quadrature(
        lambda r: float(psi(r)) ** 2, 0.0, r_cut, tol=1e-11 * psi.norm**2,
        initial_intervals=math.ceil(4.0 * r_cut / period),
    )
    r = r_cut + np.linspace(0.0, period * math.ceil(r_cut / period), 20000, endpoint=False)
    return inner + float(np.mean(psi(r) ** 2 * r**4)) / (3.0 * r_cut**3)


@pytest.fixture(scope="session")
def params():
    return bs.PotentialParams.bic()


@pytest.fixture(scope="session")
def config(params):
    return bs.TruncatedConfig(params=params, a=5000.0)


@pytest.fixture(scope="session")
def doublet_pair(config):
    """The two resonances nearest k=q from the default search box."""
    return bs.doublet_of(bs.find_resonances(config), config.params.q)


@pytest.fixture(scope="session")
def doublet(doublet_pair):
    return bs.Doublet.from_resonances(*doublet_pair)


@pytest.fixture(scope="session")
def psi_b(params):
    return bs.bound_state(params)


@pytest.fixture(scope="session")
def quadrature_norm_sq():
    """``params -> N^2`` by quadrature, independent of the closed-form norm
    (cached: the default parameters are checked by several tests)."""
    return functools.lru_cache(maxsize=None)(_quadrature_norm_sq)


@pytest.fixture(scope="session")
def landmarks(config):
    return bs.sigma_landmarks(config, 0.995, 1.005)


@pytest.fixture(scope="session")
def fit(config, doublet):
    return bs.fit_lambda(config, doublet)
