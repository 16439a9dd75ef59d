"""Shared fixtures and the reference kernels that only tests use.

The expensive objects (resonance search, bound-state normalization, the
background fit) are session-scoped: they are deterministic pure functions
of the default parameter set, so every test that needs them can share one
instance without coupling.

The reference kernels are second evaluations of what the library computes
one way (W1 in its compact form, V in its log-derivative form, G's
polynomials through np.convolve), or checks
of its results (the Schrodinger residual, quadrature norms, mpmath
oracles). Each is served by a session fixture of the same name without the
leading underscore.
"""

import functools
import math
from types import SimpleNamespace
from unittest import mock

import mpmath

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
    psi = bs.bound_state(params)
    q, delta = params.q, psi.phase.delta
    period = math.pi / q
    r_cut = (0.5 * math.pi * math.ceil((300.0 + delta) / (0.5 * math.pi)) - delta) / q
    inner = bs.adaptive_quadrature(
        lambda r: float(psi.raw(r)) ** 2, 0.0, r_cut, tol=1e-11 * psi.norm**2,
        initial_intervals=math.ceil(4.0 * r_cut / period),
    )
    r = r_cut + np.linspace(0.0, period * math.ceil(r_cut / period), 20000, endpoint=False)
    return inner + float(np.mean(psi.raw(r) ** 2 * r**4)) / (3.0 * r_cut**3)


def _uv_reference(k, r, q, ph, sin=np.sin, cos=np.cos):
    """Reference re-derivation of the oscillator amplitudes (u, v).

    Written directly from the displayed closed forms, term by term and in
    display order, with no shared scaffolding with the production code:
    production groups by trigonometric basis function with hoisted
    coefficients and expands in k^2 - q^2, this keeps each displayed line
    intact. Agreement between the two transcriptions is the strongest guard
    we have against a copying slip in either one. ``ph`` carries delta and
    gamma0..2; with mpmath numbers and functions the same lines are the
    high-precision oracle (``_uv_oracle``).
    """
    g = r + ph.gamma0
    g1, g2 = ph.gamma1, ph.gamma2
    th = q * r + ph.delta

    kk = k * k
    qq = q * q
    dsq = kk - qq                      # k^2 - q^2
    A = kk * kk + 6 * qq * kk + qq * qq
    B = kk * kk - 4 * qq * kk - qq * qq
    C = kk * kk - qq * qq
    s2, c2 = sin(2 * th), cos(2 * th)

    u = (
        16 * q**4 * dsq**2 * g**4
        - 12 * qq * A * g**2
        + 8 * g2 * q**4 * dsq**2 * g
        - 12 * g1**2 * q**4 * dsq**2
        + 24 * qq * (B * g**2 + q * g1 * C * g) * c2
        + (16 * q**3 * C * g**3 - 12 * q * B * g - 4 * g2 * q**3 * C
           - 12 * g1 * qq * B) * s2
        + 3 * A * s2**2
    )
    v = (
        64 * q**4 * k * dsq * g**3
        - 24 * qq * k * (kk + qq) * g
        + 8 * g2 * q**4 * k * dsq
        - 48 * g1 * q**5 * k
        + (32 * q**4 * k * dsq * g**3 + 24 * qq * k * (kk + qq) * g
           - 8 * g2 * q**4 * k * dsq + 48 * g1 * q**5 * k) * c2
        + (96 * q**5 * k * g**2 - 48 * g1 * q**4 * k * dsq * g
           - 12 * q * k * (kk + qq)) * s2
        + 6 * q * k * (kk + qq) * sin(4 * th)
    )
    return u, v


def _phase_data_mp(params):
    """``phase_data`` in mpmath arithmetic, from the same binary alpha, beta, q."""
    a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
    t = a * mpmath.mpf(params.q) - b
    d = 1 + t * t
    return SimpleNamespace(delta=mpmath.atan(t), gamma0=a / d, gamma1=-2 * a**2 * t / d**2,
                           gamma2=-2 * a**3 * (1 - 3 * t * t) / d**3)


def _uv_oracle(params, k, r):
    """(u, v, u_r, v_r) of ``_uv_reference`` in mpmath at the working
    precision, the r-derivatives by mpmath differentiation."""
    ph, q, r = _phase_data_mp(params), mpmath.mpf(params.q), mpmath.mpf(r)
    k = mpmath.mpc(k)

    def uv(rr, i):
        return _uv_reference(k, rr, q, ph, mpmath.sin, mpmath.cos)[i]

    return (uv(r, 0), uv(r, 1),
            mpmath.diff(lambda rr: uv(rr, 0), r), mpmath.diff(lambda rr: uv(rr, 1), r))


def _dg_oracle(config, k):
    """(d, g) at k in mpmath at the working precision: u, v at r = 0 and
    u, v, u_r, v_r at r = a from the display form (``_uv_oracle``); W1(a)
    and W1'(a) are the library's floats."""
    p, a = config.params, mpmath.mpf(config.a)
    wb = bs.w1_bundle(p, config.a)
    wa, wa_r = float(wb.w1), float(wb.w1_r)
    k = mpmath.mpc(k)
    u0, v0 = _uv_reference(k, mpmath.mpf(0), mpmath.mpf(p.q), _phase_data_mp(p),
                           mpmath.sin, mpmath.cos)
    ua, va, ua_r, va_r = _uv_oracle(p, k, a)
    s, c = mpmath.sin(k * a), mpmath.cos(k * a)
    rot_a, rot_b = u0 * s - v0 * c, u0 * c + v0 * s
    d = (ua_r * wa - ua * wa_r - k * va * wa) * rot_a + (
        va_r * wa - va * wa_r + k * ua * wa) * rot_b
    g = -k * wa * (ua * rot_a + va * rot_b)
    return d, g


def _w1_generic(params, r):
    """Compact W1 form parameterized by the phase-shift derivatives.

    Must agree with ``w1_bundle(...).w1`` to near machine precision; the two
    evaluations share no intermediate algebra.
    """
    r = np.asarray(r, dtype=float)
    pd = bs.phase_data(params)
    q = params.q
    th = q * r + pd.delta
    qg = q * (r + pd.gamma0)
    qg1 = q * q * pd.gamma1
    qg2 = q**3 * pd.gamma2
    return (
        16.0 * qg**4
        - 12.0 * qg**2
        + 8.0 * qg2 * qg
        - 12.0 * qg1**2
        + 24.0 * (qg1 * qg + qg**2) * np.cos(2.0 * th)
        + 3.0 * np.sin(2.0 * th) ** 2
        + (16.0 * qg**3 - 12.0 * qg - 12.0 * qg1 - 4.0 * qg2) * np.sin(2.0 * th)
    )


def _g_polynomials_convolve(at_0, at_a, w1_a, q, a):
    """Reference for ``scattering._g_polynomials``: the same formulas on
    zero-padded numpy arrays, each product an np.convolve cut to degree 4.

    at_0 holds the lists of u and v/k at r = 0, at_a the arrays of u, v/k
    and of their r-derivatives at r = a, w1_a (W1(a), W1'(a)). The library
    sums each product in its own order, so the two agree to a few eps of
    each polynomial's largest coefficient, not bit for bit.
    """
    def padded(c):
        return np.concatenate([c, np.zeros(5 - len(c))])

    def mul(c1, c2):
        return np.convolve(c1, c2)[:5]

    def e2_derivative(c):
        return np.append(c[1:] * np.arange(1.0, 5.0), 0.0)

    u0, v0 = (padded(c) for c in at_0)
    (ua, va), (ua_r, va_r) = ((padded(c) for c in rows) for rows in at_a)
    w, w_r = w1_a
    k2 = padded([q * q, 1.0])
    x, y = va_r * w - va * w_r, ua_r * w - ua * w_r
    x_plus, y_plus = x + 2.0 * w * ua, y - 2.0 * w * mul(k2, va)
    a_p = -0.5 * (mul(u0, y) + mul(k2, mul(v0, x)))
    b_p = 0.5 * (mul(u0, x) - mul(v0, y))
    a_q = 0.5 * (mul(u0, y_plus) + mul(k2, mul(v0, x_plus)))
    b_q = 0.5 * (mul(u0, x_plus) - mul(v0, y_plus))
    g_prime = (-(b_p + 2.0 * mul(k2, e2_derivative(b_p))), 2.0 * e2_derivative(a_p),
               -(b_q + 2.0 * mul(k2, e2_derivative(b_q))) - 2.0 * a * a_q,
               2.0 * e2_derivative(a_q) - 2.0 * a * b_q)
    return (a_p, b_p, a_q, b_q), g_prime, np.array([b_p, a_p, b_q - b_p, a_q - a_p])


def _potential_v4_log(params, r):
    """V(r) = -2 d^2/dr^2 ln W1 as -2 (W1''/W1 - (W1'/W1)^2).

    Algebraically identical to ``potential_v4``'s -2 (W1'' W1 - W1'^2) / W1^2,
    kept as a cross-check; no singularity guard.
    """
    b = bs.w1_bundle(params, np.asarray(r, dtype=float))
    return -2.0 * (b.w1_rr / b.w1 - (b.w1_r / b.w1) ** 2)


def _schrodinger_residual(params, k, evaluator, grid) -> float:
    """Max scaled residual of -psi'' + V psi - k^2 psi on a uniform grid.

    The second derivative is the five-point stencil
    (-psi[i-2] + 16 psi[i-1] - 30 psi[i] + 16 psi[i+1] - psi[i+2]) / (12 h^2),
    truncation O(h^4); with the closed forms' curvature near the origin a
    three-point stencil at h = 1e-3 would bottom out near 1e-4, too coarse
    to certify anything.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 5:
        raise bs.ValidationError("grid must be 1-d with at least 5 points")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=1e-9):
        raise bs.ValidationError("grid must be uniform")
    psi = np.asarray(evaluator(grid))
    d2 = (
        -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]
    ) / (12.0 * h * h)
    v = bs.potential_v4(params, grid[2:-2])
    resid = -d2 + (v - k * k) * psi[2:-2]
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


@pytest.fixture(scope="session")
def w1_generic():
    return _w1_generic


@pytest.fixture(scope="session")
def g_polynomials_convolve():
    return _g_polynomials_convolve


@pytest.fixture(scope="session")
def potential_v4_log():
    return _potential_v4_log


@pytest.fixture(scope="session")
def schrodinger_residual():
    return _schrodinger_residual


@pytest.fixture(scope="session")
def dg_oracle():
    return _dg_oracle


@pytest.fixture(scope="session")
def uv_reference():
    return _uv_reference


@pytest.fixture(scope="session")
def uv_oracle():
    return _uv_oracle


@pytest.fixture(scope="session")
def pinned_minima():
    """minima -> a patch under which ``fit_lambda`` pins the given minima
    (in ascending order) in place of those its window scan finds
    (``background._sigma_minima``)."""
    return lambda minima: mock.patch("bicscatter.background._sigma_minima",
                                     return_value=(list(minima), []))


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


@pytest.fixture(scope="session")
def exact_zero_config():
    """The first of a fixed, seeded list of envelope draws at which d(q) and
    g(q) round to exact zeros (the e2^0 coefficients of u and v at r = 0 come
    out as 0.0), about one draw in 40. a stays below 10^3.5, so that a
    1e-7 grid over q +- 3 pi/a stays below 10^6 points."""
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        alpha, q, log_a = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(2.0, 3.5)
        config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
        if bs.dg(config, config.params.q) == (0.0, 0.0):
            return config
    pytest.fail("no envelope draw with d(q) = g(q) = 0 exactly")
