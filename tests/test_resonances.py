import cmath
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import bicscatter as bs
from bicscatter import numerics, resonances, scattering


def test_doublet_positions(doublet_pair):
    r1, r2 = doublet_pair
    assert r1.k_complex.real == pytest.approx(0.998984403241, abs=1e-9)
    assert r1.k_complex.imag == pytest.approx(-1.730065546e-4, abs=1e-10)
    assert r2.k_complex.real == pytest.approx(1.001015575682, abs=1e-9)
    assert r2.k_complex.imag == pytest.approx(-1.731296976e-4, abs=1e-10)


def test_doublet_straddles_q_symmetrically(doublet_pair):
    r1, r2 = doublet_pair
    mid = 0.5 * (r1.k_re + r2.k_re)
    assert abs(mid - 1.0) < 2e-5


def test_residuals_certified(doublet_pair):
    for res in doublet_pair:
        assert res.residual < 1e-8


def test_resonance_properties(doublet_pair):
    r1, _ = doublet_pair
    assert r1.k_re == r1.k_complex.real
    assert r1.half_width == -r1.k_complex.imag
    assert r1.energy == pytest.approx(r1.k_complex**2)
    # narrow resonance: the energy is dominantly real
    assert r1.energy.real > abs(r1.energy.imag)


def test_roots_annihilate_the_jost_function(config, doublet_pair):
    # |F(-k)| at a root is many orders below a same-scale reference point
    # taken just outside the degenerate-normalizer neighborhood of q
    ref = abs(bs.jost_function(config, 1.005)[0])
    for res in doublet_pair:
        fm = abs(bs.jost_function(config, res.k_complex)[0])
        assert fm < 1e-8 * ref


def test_default_box_winding_certificate(config, doublet_pair):
    box = bs.default_search_box(config)
    assert box.im_max < 0  # stays off the real axis
    for res in doublet_pair:
        assert box.contains(res.k_complex)
    assert bs.winding_count(bs.root_function(config), box) == 2


@pytest.mark.parametrize("a", [300.0, 1e5])  # a = 5000: the test above
def test_default_box_winds_twice(params, a):
    config = bs.TruncatedConfig(params=params, a=a)
    assert bs.winding_count(bs.root_function(config), bs.default_search_box(config)) == 2


@pytest.mark.parametrize("a", [300.0, 5000.0, 1e5])
def test_root_function_broadcasts(params, a):
    # one call on a 41x21 grid over the default box equals point-by-point
    # calls; the gap is scaled by max|G| because pointwise G cancels to
    # ~1e-7 of its terms
    config = bs.TruncatedConfig(params=params, a=a)
    g = bs.root_function(config)
    box = bs.default_search_box(config)
    re = np.linspace(box.re_min, box.re_max, 41)
    im = np.linspace(box.im_min, box.im_max, 21)
    grid = re[None, :] + 1j * im[:, None]
    batched = g(grid)
    pointwise = np.array([[complex(g(complex(z))) for z in row] for row in grid])
    assert batched.shape == grid.shape
    assert np.max(np.abs(batched - pointwise)) <= 1e-10 * np.max(np.abs(pointwise))


def _cauchy_derivative(f, z0, radius, n=256):
    """f'(z0) from n points of the Cauchy integral on a circle (f broadcasts)."""
    e = np.exp(2j * np.pi * np.arange(n) / n)
    return np.mean(f(z0 + radius * e) / e) / radius


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 300.0), (1.0, 1.0, 5000.0),
                                       (1.0, 1.0, 2e4), (0.5, 2.0, 3000.0)])
def test_root_derivative_matches_cauchy_derivative(alpha, q, a):
    """At both doublet members and at 1.3 q - i/a on a circle of radius
    0.05/a, and deeper below the axis, where e^{-2ika} no longer dominates
    G' and the k-derivatives of u and v show, on one of radius 1e-3 q."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    g, g_prime = bs.root_function(config), bs.root_derivative(config)
    doublet = [res.k_complex for res in bs.doublet_of(bs.find_resonances(config), q)]
    for k, radius in ([(k, 0.05 / a) for k in doublet + [1.3 * q - 1j / a]]
                      + [(q * (1.3 - 0.01j), 1e-3 * q), (q * (0.6 - 0.002j), 1e-3 * q)]):
        want = _cauchy_derivative(g, k, radius)
        assert abs(g_prime(k) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 5000.0), (0.5, 2.0, 3000.0)])
def test_gamow_norm_matches_cauchy_derivative(alpha, q, a):
    """N^2 = F(k_n) dF(-k)/dk / (4 i k_n^2), with dF(-k)/dk from the Cauchy
    integral of F(-k) itself (a difference quotient of F(-k) was off by
    ~1e-3 here)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        kn = res.k_complex
        d_f_minus = _cauchy_derivative(lambda k: bs.jost_function(config, k)[0], kn, 0.05 / a)
        want = bs.jost_function(config, kn)[1] * d_f_minus / (4j * kn**2)
        got = bs.gamow_state(config, res).N_squared
        assert abs(got - want) <= 1e-5 * abs(want)


def _gamow_norm_oracle(config, kn, uv_oracle, dg_oracle):
    """N^2 = F(k_n) dF(-k)/dk / (4 i k_n^2) at 50 digits: d, g
    (``dg_oracle``) and h from the display-form u, v (``uv_oracle``),
    dG/dk by mpmath differentiation; W1(0), W1(a) and W1'(a) are the
    library's floats."""
    p, a = config.params, config.a
    w0 = float(bs.w1_bundle(p, 0.0).w1)
    wa = float(bs.w1_bundle(p, a).w1)
    with mpmath.workdps(50):
        a = mpmath.mpf(a)

        def big_g(k):
            d, g = dg_oracle(config, k)
            return mpmath.exp(-1j * k * a) * (d + 1j * g)

        k = mpmath.mpc(kn)
        d, g = dg_oracle(config, k)
        u0, v0, u0_r, v0_r = uv_oracle(p, k, 0.0)
        h = u0 * v0_r - v0 * u0_r + k * (u0**2 + v0**2)
        pref = w0 / (h * wa**2)
        f_plus = pref * mpmath.exp(-1j * k * a) * (d - 1j * g)
        d_f_minus = pref * mpmath.exp(2j * k * a) * mpmath.diff(big_g, k)
        return complex(f_plus * d_f_minus / (4j * k**2))


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 5000.0), (0.5, 2.0, 3000.0)])
def test_gamow_norm_against_mpmath_oracle(alpha, q, a, uv_oracle, dg_oracle):
    """The whole N^2, G' and h included, against 50-digit arithmetic
    (measured <= 5e-13; the difference quotient and the cancelling h were
    off by 1e-4 to 7e-4 here)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        want = _gamow_norm_oracle(config, res.k_complex, uv_oracle, dg_oracle)
        assert abs(bs.gamow_state(config, res).N_squared - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("alpha,q,a,rtol", [(1.0, 1.0, 2e4, 1e-9),
                                            (1.5627, 2.861, 73949.5881, 1e-9),
                                            (0.7904, 2.279, 202505.0041, 1e-9),
                                            (3.0, 3.0, 1e6, 1e-8)])
def test_gamow_norm_at_large_cutoffs(alpha, q, a, rtol, uv_oracle, dg_oracle):
    """h(k_n) is tiny here (below 1e-12 of |u|^2 + |v|^2 at r = 0 at the
    last three points), yet N^2 is computed and right: measured <= 8e-11
    at the first three points and 2.6e-9 at the corner of the envelope,
    where the rounding of k a dominates. A cancelling h gave N^2 off by
    17%, 100% and 100% at the first three; a threshold on |h| refused the
    last three."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        want = _gamow_norm_oracle(config, res.k_complex, uv_oracle, dg_oracle)
        assert abs(bs.gamow_state(config, res).N_squared - want) <= rtol * abs(want)


def test_n_squared_rounding_reads_d_g_beside_q(exact_zero_config):
    # d(q) = g(q) = 0 exactly here (the e2^0 coefficients at r = 0 come out
    # as exact zeros), so read at q alone the d +- ig term of the estimate
    # that F+- and N^2 are refused by would be 0; beside q it is the
    # rounding it estimates. With |d +- ig| infinite only the phases remain.
    config = exact_zero_config
    assert bs.dg(config, config.params.q) == (0.0, 0.0)
    kn = bs.find_resonances(config)[0].k_complex
    d, g = bs.dg(config, kn)
    estimate = scattering._jost_rounding
    assert estimate(config, kn, d + 1j * g, d - 1j * g) > estimate(config, kn, math.inf, math.inf)


@pytest.mark.envelope
@settings(max_examples=100, deadline=None)
@given(log_alpha=st.floats(math.log(0.3), math.log(3.0)),
       log_q=st.floats(math.log(0.3), math.log(3.0)), log_a=st.floats(2.0, 6.0))
def test_jost_function_builds_the_gamow_norm_over_the_envelope(log_alpha, log_q, log_a):
    """F(k_n) from ``jost_function`` at both doublet members gives N^2 bit
    for bit: N^2 is built from the same F(k_n), refused by the same rule."""
    q = math.exp(log_q)
    config = bs.TruncatedConfig(
        params=bs.PotentialParams.bic(alpha=math.exp(log_alpha), q=q), a=10.0**log_a)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        kn = res.k_complex
        _, f_plus = bs.jost_function(config, kn)
        d_f_minus = (scattering._jost_prefactor(config, kn) * np.exp(2j * kn * config.a)
                     * bs.root_derivative(config)(kn))
        assert f_plus * d_f_minus / (4j * kn**2) == bs.gamow_state(config, res).N_squared


@pytest.mark.parametrize("a,k", [(5000.0, 1.0 + 1e-5 + 0j), (5000.0, 1.0 + 3e-6 - 1e-6j),
                                 (5000.0, 1.0 - 1e-7j), (1e6, 1.0 - 1e-7j)])
def test_gamow_state_refuses_rounding_noise(params, a, k):
    """Within about 1e-5 of q at a = 5000, d - ig and G' are rounding noise
    (N^2 off by 4e-6, 2e-3 and more than 100% at the first three points;
    at the first only d - ig is noisier than 1e-6); a = 1e6 at q - 1e-7 i
    is where a difference-quotient Newton used to report a false root."""
    config = bs.TruncatedConfig(params=params, a=a)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.gamow_state(config, bs.Resonance(k_complex=k, residual=0.0))


def _gamow_density_oracle(config, kn, n_squared, r, uv_oracle):
    """|psi_n(r)|^2 = |Phi(r)|^2 / |N^2| at 40 digits, Phi from the
    display-form u, v and h = u v' - v u' + k (u^2 + v^2) at r = 0; W1 and
    N^2 come in as floats."""
    p = config.params
    w0 = float(bs.w1_bundle(p, 0.0).w1)
    with mpmath.workdps(40):
        k = mpmath.mpc(kn)
        u0, v0, u0_r, v0_r = uv_oracle(p, k, 0.0)
        h = u0 * v0_r - v0 * u0_r + k * (u0**2 + v0**2)
        out = []
        for rr in r:
            u, v, _, _ = uv_oracle(p, k, rr)
            s, c = mpmath.sin(k * rr), mpmath.cos(k * rr)
            phi = w0 / (h * float(bs.w1_bundle(p, rr).w1)) * (u * (u0 * s - v0 * c)
                                                             + v * (u0 * c + v0 * s))
            out.append(float(abs(phi) ** 2) / abs(n_squared))
    return np.array(out)


@pytest.mark.parametrize("alpha,q,a,rtol", [(1.0, 1.0, 300.0, 1e-9), (1.0, 1.0, 5000.0, 1e-4),
                                            (0.5, 2.0, 3000.0, 1e-4)])
def test_gamow_density_against_mpmath_oracle(alpha, q, a, rtol, uv_oracle):
    """Median over the first wells of |psi_n|^2 against 40 digits. Phi and
    N^2 share the closed-form h, which cancels in psi_n = Phi / N_n
    (measured 6e-12, 9e-6 and 1e-6; dividing Phi by the combination
    u v' - v u' + k (u^2 + v^2) instead gave 4e-9, 3e-4 and 6e-4)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    r = np.linspace(0.1, 30.0, 60)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        state = bs.gamow_state(config, res)
        want = _gamow_density_oracle(config, res.k_complex, state.N_squared, r, uv_oracle)
        got = np.abs(state(r)) ** 2
        assert np.median(np.abs(got - want) / want) <= rtol


@pytest.mark.parametrize("a", [5e5, 1e6])
@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.3, 0.3), (3.0, 3.0)])
def test_census_at_large_cutoffs(alpha, q, a):
    """Exactly the doublet, at its asymptotic place: (Re k - q) a / pi near
    +-1.616 and Im k a near -0.865. The top edge of the box sits next to
    the fourth-order zero of d + ig at k = q; it must not come back as a
    root."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    found = bs.find_resonances(config)
    assert len(found) == 2
    for res, sign in zip(found, (-1.0, 1.0)):
        assert (res.k_re - q) * a / math.pi == pytest.approx(sign * 1.616, abs=1e-3)
        assert res.k_complex.imag * a == pytest.approx(-0.865, abs=1e-3)
        assert res.residual <= 1e-9


def test_limit_roots_against_mpmath():
    """x_n for n = 1..50 against mpmath's root of the limit equation at 30
    digits, each in ((n + 1/2) pi, (n + 3/4) pi); -conj(x_n) solves it too."""
    def f(x):
        return (x + 1.5j) * mpmath.exp(2j * x) + 1j * (x * x - 2j * x - 1.5)

    with mpmath.workdps(30):
        for n in range(1, 51):
            x = resonances._limit_root(n)
            assert (n + 0.5) * math.pi < x.real < (n + 0.75) * math.pi
            for root in (x, -x.conjugate()):
                assert abs(root - complex(mpmath.findroot(f, mpmath.mpc(root)))) <= 1e-13
    assert resonances._limit_root(1) / math.pi == pytest.approx(1.61637 - 0.27545j, abs=1e-5)


@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.3, 3.0), (2.0, 0.5)])
def test_doublet_approaches_the_scaling_limit(alpha, q):
    """(k_n - q) a = x_n + O(1/a), with no alpha or q in x_n: a times the gap
    stays below 10 (at most 8.2 for a from 1e3 to 1e8 at these points; it
    oscillates with q a rather than decaying)."""
    x = resonances._limit_root(1)
    for a in (1e3, 1e4, 1e5, 1e6):
        config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
        first, second = bs.find_resonances(config)
        assert a * abs((second.k_complex - q) * a - x) <= 10.0
        assert a * abs((first.k_complex - q) * a + x.conjugate()) <= 10.0


@pytest.mark.parametrize("a", [3242.0, 5000.0, 5453.0, 15422.0])
def test_wide_box_census_from_limit_seeds(params, a, monkeypatch):
    """The limit seeds find every zero of the wide box: the census equals a
    winding count on 1024 initial segments per edge."""
    config = bs.TruncatedConfig(params=params, a=a)
    box = bs.ComplexRectangle(0.99, 1.01, -1e-3, -1e-5)
    with monkeypatch.context() as m:
        m.setattr(numerics, "_INITIAL_SEGMENTS", 1024)
        want = bs.winding_count(bs.root_function(config), box)
    assert len(bs.find_resonances(config, search_box=box)) == want


def test_aliased_wide_box_is_refused(params):
    """At a = 9170 the 64-segment winding count of the wide box aliases to -2
    (the true count is 56; G alone aliases to 2); the limit seeds find all
    56, so the census is refused rather than certified."""
    config = bs.TruncatedConfig(params=params, a=9170.0)
    with pytest.raises(bs.RootCountMismatch, match="winding number -2 but 56"):
        bs.find_resonances(config, search_box=bs.ComplexRectangle(0.99, 1.01, -1e-3, -1e-5))


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 3.0), q=st.floats(0.3, 3.0), log_a=st.floats(2.0, 6.0))
def test_default_census_needs_no_grid(alpha, q, log_a):
    """Over the envelope the two limit seeds certify the doublet."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
    assert len(bs.find_resonances(config)) == 2


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 3.0), q=st.floats(0.3, 3.0), log_a=st.floats(2.0, 6.0))
def test_deflated_census_resolves_on_its_first_samples(alpha, q, log_a):
    """Over the envelope the default census counts the winding of
    G / (k - q)^5 from one G call (the 4 x 65 initial samples), and the
    count equals that of G itself on 1024 initial segments per edge."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
    g_sizes, winding_g_sizes, counts = [], [], []

    def counted_root_function(config):
        g = bs.root_function(config)
        return lambda k: g_sizes.append(np.size(k)) or g(k)

    def recorded_winding_count(f, box):
        before = len(g_sizes)
        counts.append(numerics.winding_count(f, box))
        winding_g_sizes.extend(g_sizes[before:])
        return counts[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(resonances, "root_function", counted_root_function)
        m.setattr(resonances, "winding_count", recorded_winding_count)
        assert len(bs.find_resonances(config)) == 2
    assert winding_g_sizes == [4 * (numerics._INITIAL_SEGMENTS + 1)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_INITIAL_SEGMENTS", 1024)
        assert counts == [bs.winding_count(bs.root_function(config),
                                           bs.default_search_box(config))]


def test_box_holding_q_is_refused(config, monkeypatch):
    """A box whose top edge (Im k = 0) holds k = q would put G's zero there
    on the contour, where a winding number certifies nothing; it is refused
    before any G evaluation, with q inside the edge or at its corner."""
    box = bs.default_search_box(config)
    q = config.params.q
    monkeypatch.setattr(resonances, "winding_count", None)
    for re_min in (box.re_min, q):
        on_axis = bs.ComplexRectangle(re_min, box.re_max, box.im_min, 0.0)
        with pytest.raises(bs.ValidationError, match="must not hold k = q"):
            bs.find_resonances(config, search_box=on_axis)


def test_census_below_the_scaling_limit_is_refused():
    """At q a = 1.5 the default box reaches Re k < 0 (it does wherever
    q a <= 2.1 pi) and is refused before searching. Cut off at Re k = 0.05
    it winds twice and the limit's seeds converge on 1 of its zeros; the
    census is refused, not filled in by another search."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=1.0, q=0.3), a=5.0)
    box = bs.default_search_box(config)
    with pytest.raises(bs.ValidationError, match="Re k > 0"):
        bs.find_resonances(config)
    clipped = bs.ComplexRectangle(0.05, box.re_max, box.im_min, box.im_max)
    with pytest.raises(bs.RootCountMismatch, match="winding number 2 but 1"):
        bs.find_resonances(config, search_box=clipped)


def test_box_reaching_re_k_zero_is_refused(monkeypatch):
    """A box reaching Re k <= 0 is outside the scaling limit (it holds the
    string's mirror near k = -q and zeros on the imaginary axis), so it is
    refused before any G evaluation."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=0.3, q=0.3), a=100.0)
    monkeypatch.setattr(resonances, "winding_count", None)
    for re_min in (-0.328, 0.0):
        box = bs.ComplexRectangle(re_min, 0.928, -0.05, -0.0005)
        with pytest.raises(bs.ValidationError, match="Re k > 0"):
            bs.find_resonances(config, search_box=box)


def test_doublet_at_a_3e9_has_both_members():
    """At a = 3e9 the doublet is 3.4e-9 apart, and both members come back."""
    a = 3e9
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(), a=a)
    first, second = bs.find_resonances(config)
    assert abs(second.k_complex - first.k_complex) < 1e-8
    assert (first.k_re - 1.0) * a / math.pi == pytest.approx(-1.616, abs=1e-3)
    assert (second.k_re - 1.0) * a / math.pi == pytest.approx(1.616, abs=1e-3)


def test_newton_near_the_removable_zero_leaves_the_box(params):
    config = bs.TruncatedConfig(params=params, a=1e6)
    try:
        z, _, _ = bs.newton_complex(bs.root_function(config), bs.root_derivative(config),
                                    1.0 - 1e-7j)
    except (bs.NoConvergence, bs.ZeroDerivative):
        return
    assert not bs.default_search_box(config).contains(z)


def test_resonances_hold_builtin_numbers(doublet_pair):
    for res in doublet_pair:
        assert type(res.k_complex) is complex
        assert type(res.residual) is float


def test_empty_seed_list_fails_certification(config, monkeypatch):
    # the winding certificate sees two zeros, zero converged roots
    monkeypatch.setattr(resonances, "_limit_seeds", lambda config, box: [])
    with pytest.raises(bs.RootCountMismatch):
        bs.find_resonances(config)


@pytest.mark.parametrize("pick", [lambda seeds: [seeds[0], seeds[0]],
                                  lambda seeds: seeds + seeds[:1]],
                         ids=["one zero twice, one missed", "one zero twice, none missed"])
def test_census_listing_one_zero_twice_is_refused(config, monkeypatch, pick):
    # the doublet's first seed is run twice, in place of the second member
    # (so the root count equals the winding number, 2) or beside both; either
    # census is refused, not merged or certified
    seeds = resonances._limit_seeds
    monkeypatch.setattr(resonances, "_limit_seeds", lambda config, box: pick(seeds(config, box)))
    with pytest.raises(bs.RootCountMismatch, match="a zero was found twice"):
        bs.find_resonances(config)


def test_failed_seed_with_a_short_census_raises_no_convergence(config, monkeypatch):
    # the first seed's Newton run fails, so the census holds one root of
    # the two the winding number counts
    newton = resonances.newton_complex
    seeds = []

    def failing_first(f, fprime, seed):
        seeds.append(seed)
        if len(seeds) == 1:
            raise bs.NoConvergence("patched")
        return newton(f, fprime, seed)

    monkeypatch.setattr(resonances, "newton_complex", failing_first)
    with pytest.raises(bs.NoConvergence, match="1 seed.s. failed and census is short: "
                                               "winding 2, converged 1"):
        bs.find_resonances(config)


def test_search_box_must_be_below_axis(config):
    with pytest.raises(bs.ValidationError):
        bs.find_resonances(config, search_box=bs.ComplexRectangle(0.99, 1.01, -1e-3, 1e-3))


def test_wide_box_census(config, doublet_pair):
    """The zeros of the truncated-potential Jost function form a string
    below the real axis with spacing ~pi/a; a wide window holds 30 of
    them, and the innermost two are the doublet."""
    box = bs.ComplexRectangle(0.99, 1.01, -1e-3, -1e-5)
    found = bs.find_resonances(config, search_box=box)
    assert len(found) == 30
    inner = bs.doublet_of(found, config.params.q)
    for got, want in zip(inner, doublet_pair):
        assert abs(got.k_complex - want.k_complex) < 1e-10
    for res in found:
        assert res.residual < 1e-8


def test_doublet_of_needs_two(doublet_pair):
    with pytest.raises(bs.ValidationError):
        bs.doublet_of([doublet_pair[0]], 1.0)


def test_gamow_state_rejects_uncertified_input(config, doublet_pair):
    """A k_n that is not a zero of G is refused whatever its residual says:
    the doublet's first member moved by 1e-5, its certified residual kept,
    gave N^2 = -4.4166e9 + 1.9872e9i (-4.4193e9 + 1.9833e9i at the root)
    with no error."""
    root = doublet_pair[0]
    for res in (bs.Resonance(k_complex=0.999 - 2e-4j, residual=1.0),
                bs.Resonance(k_complex=root.k_complex + 1e-5, residual=root.residual)):
        with pytest.raises(bs.ValidationError, match="not a zero of G"):
            bs.gamow_state(config, res)


@pytest.fixture(scope="module")
def gamow(config, doublet_pair):
    return bs.gamow_state(config, doublet_pair[0])


def test_gamow_metadata(gamow):
    assert gamow.N == cmath.sqrt(gamow.N_squared)
    assert gamow.N.real >= 0


def test_gamow_vanishes_at_origin(gamow):
    assert abs(complex(gamow(0.0))) < 1e-12


@pytest.mark.parametrize("a", [300.0, 5000.0, 2e4])
def test_regular_solution_is_zero_at_origin(params, a):
    """Phi(0) = 0 exactly at both doublet members and a few ulps off them:
    the closed form cancels there only to rounding, which 1/h amplifies."""
    config = bs.TruncatedConfig(params=params, a=a)
    for res in bs.find_resonances(config):
        kn = res.k_complex
        for steps in (-3, 0, 3):
            re = kn.real + steps * math.ulp(kn.real)
            im = kn.imag - steps * math.ulp(kn.imag)
            ph, _ = bs.regular_solution(config, complex(re, im), np.array([0.0, 0.5]))
            assert ph[0] == 0.0 and ph[1] != 0.0
            assert bs.regular_solution(config, complex(re, im), 0.0)[0] == 0.0


def test_gamow_outgoing_at_the_cut(config, doublet_pair):
    kn = doublet_pair[0].k_complex
    phi, phi_r = bs.regular_solution(config, kn, config.a)
    assert abs(phi_r / phi - 1j * kn) < 1e-8


def test_gamow_profile_localizes_in_first_well(gamow):
    r = np.linspace(0.0, 8.0, 4001)
    prof = np.abs(gamow(r)) ** 2
    assert r[int(np.argmax(prof))] < 2.2


def test_gamow_profile_matches_trapped_state(gamow, psi_b):
    """The narrow-resonance profile is nearly the trapped state: unit-peak
    densities agree to a few percent (measured ~0.3%)."""
    r = np.linspace(0.0, 8.0, 4001)
    pn = np.abs(gamow(r)) ** 2
    pn /= pn.max()
    pb = psi_b(r) ** 2
    pb /= pb.max()
    assert np.max(np.abs(pn - pb)) < 0.05
    assert abs(r[int(np.argmax(pn))] - r[int(np.argmax(pb))]) < 0.05


def test_gamow_normalization_against_overlap_integral(config, doublet_pair, gamow):
    """Independent route to N^2: the regularized self-overlap of the
    interior solution, with the analytic boundary counterterm, equals
    -N^2. Integration error dominates the tolerance."""
    kn = doublet_pair[0].k_complex
    r = np.linspace(0.0, config.a, 2_000_001)
    phi = bs.regular_solution(config, kn, r)[0]
    overlap = simpson(phi**2, x=r) + 1j * phi[-1] ** 2 / (2 * kn)
    assert abs(overlap / gamow.N_squared + 1.0) < 1e-3


def test_sweep_rows(params):
    sw = bs.sweep_cutoff(params, [2500.0, 5000.0, 10000.0])
    assert [row.a for row in sw.rows] == [2500.0, 5000.0, 10000.0]
    got = [(row.first.k_re, row.first.half_width, row.second.k_re, row.second.half_width)
           for row in sw.rows]
    want = [
        (0.9979690511, 3.455627e-4, 1.0020307716, 3.466024e-4),
        (0.9989844032, 1.730066e-4, 1.0010155757, 1.731297e-4),
        (0.9994922097, 8.652052e-5, 1.0005077860, 8.654594e-5),
    ]
    for g, w in zip(got, want):
        assert g[0] == pytest.approx(w[0], abs=1e-8)
        assert g[1] == pytest.approx(w[1], abs=1e-9)
        assert g[2] == pytest.approx(w[2], abs=1e-8)
        assert g[3] == pytest.approx(w[3], abs=1e-9)
    assert sw.gamma_monotone


def test_sweep_widths_shrink_and_positions_close_in(params):
    sw = bs.sweep_cutoff(params, [5000.0, 10000.0])
    r5, r10 = sw.rows
    assert r10.first.half_width < r5.first.half_width
    assert r10.second.half_width < r5.second.half_width
    assert abs(r10.first.k_re - 1.0) < abs(r5.first.k_re - 1.0)


def test_sweep_requires_increasing_cutoffs(params):
    with pytest.raises(bs.ValidationError):
        bs.sweep_cutoff(params, [5000.0, 2500.0])


def test_sweep_rows_are_independent_censuses(params):
    # an eightfold step in the cutoff moves the doublet by more than its
    # own spacing; each row is still the census at its own cutoff
    sw = bs.sweep_cutoff(params, [2500.0, 20000.0])
    for row in sw.rows:
        config = bs.TruncatedConfig(params=params, a=row.a)
        assert (row.first, row.second) == bs.doublet_of(bs.find_resonances(config), params.q)
    assert sw.gamma_monotone


# (alpha, q, a) where OpenBLAS's default and Sandybridge (no FMA) kernels
# gave different roots, N^2, lambda, sigma minima or peak before every
# scalar result was formed outside BLAS
_KERNEL_DRAWS = [
    (0.9619524990007192, 0.9432132463845742, 211.1470729120281),
    (0.3378731083294536, 0.6216414037480721, 644.1100348663869),
    (0.7163967833846048, 0.5985204959282986, 127.59541397008634),
    (1.7027607359570034, 0.5654414858997512, 667705.6716796495),
]

_SCALAR_RESULTS = """
import json, sys
import bicscatter as bs
for alpha, q, a in json.loads(sys.argv[1]):
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    found = bs.find_resonances(config)
    pair = bs.doublet_of(found, q)
    fit = bs.fit_lambda(config, bs.Doublet.from_resonances(*pair))
    marks = bs.sigma_landmarks(config, *fit.fit_report["window"])
    print(repr([[r.k_complex for r in found], [r.residual for r in found],
                [bs.gamow_state(config, r).N_squared for r in pair],
                fit.lambda0, fit.lambda1, fit.fit_report["condition_number"],
                fit.fit_report["residuals"], marks.minima, marks.peak]))
"""


def _child_env(**extra):
    src = os.path.dirname(os.path.dirname(os.path.abspath(bs.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env.update(extra, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    return env


def test_scalar_results_do_not_depend_on_the_blas_kernel():
    # one child on the default kernel and one on Sandybridge: the census,
    # both N^2, the fit and the landmarks over the fit window come out with
    # the same reprs, as they take no bit from a BLAS product
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env=_child_env(OPENBLAS_VERBOSE="2",
                                                     OPENBLAS_CORETYPE="Sandybridge"))
    if "Core: Sandybridge" not in probe.stderr:
        pytest.skip("numpy's BLAS ignores OPENBLAS_CORETYPE")
    results = [subprocess.run([sys.executable, "-c", _SCALAR_RESULTS, json.dumps(_KERNEL_DRAWS)],
                              capture_output=True, text=True, check=True, timeout=300,
                              env=_child_env(**kernel)).stdout.splitlines()
               for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"})]
    assert len(results[0]) == len(_KERNEL_DRAWS)
    assert results[0] == results[1]
