import dataclasses
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.optimize import brentq
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicscatter as bs
from bicscatter import scattering
from bicscatter.darboux import _w1_bounds


def test_config_validation(params):
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=-5.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=0.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=bs.PotentialParams(alpha=1.0, beta=5.0, q=1.0), a=100.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(
            params=bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0, diagnostic=True),
            a=100.0,
        )


def test_config_accepts_numpy_cutoffs(params, doublet_pair):
    config = bs.TruncatedConfig(params=params, a=np.int64(5000))
    assert type(config.a) is float and config.a == 5000.0
    assert bs.doublet_of(bs.find_resonances(config), params.q) == doublet_pair
    assert type(bs.TruncatedConfig(params=params, a=np.float32(300.5)).a) is float
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=True)


def test_config_boundary_data_is_not_identity(params):
    """Equality, hash and repr see (params, a) only, and replace() derives
    the boundary data of the new cutoff."""
    c1 = bs.TruncatedConfig(params=params, a=5000.0)
    c2 = bs.TruncatedConfig(params=params, a=5000.0)
    assert c1 == c2 and hash(c1) == hash(c2) and c1 is not c2
    assert repr(c1) == f"TruncatedConfig(params={params!r}, a=5000.0)"
    other = dataclasses.replace(c1, a=300.0)
    k = np.array([0.99, 1.0 - 3e-3j, 1.02 - 1e-2j])
    fresh = bs.root_function(bs.TruncatedConfig(params=params, a=300.0))(k)
    assert np.array_equal(bs.root_function(other)(k), fresh)
    assert not np.allclose(bs.root_function(c1)(k), fresh)


envelope = st.floats(min_value=0.3, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope)
def test_w1_bounds_hold_on_the_envelope(alpha, q):
    """The quartic lower bound stays below W1 and m2 above |W1''| (in x =
    q r) on dense samples of [0, x_star/q], and the certificate proves
    W1 > 0 over the envelope."""
    params = bs.PotentialParams.bic(alpha=alpha, q=q)
    x_star, lower, m2 = _w1_bounds(params)
    assert x_star <= 3.7
    r = np.linspace(0.0, x_star / q, 20001)
    w = bs.w1_bundle(params, r)
    x = q * r
    slack = 1e-12 * (1.0 + x**4)  # rounding of the closed form
    assert np.all(polyval(x, lower) <= w.w1 + slack)
    assert np.all(np.abs(w.w1_rr) <= q * q * polyval(x, m2) + slack)
    assert polyval(x_star, lower) > 0.0
    assert scattering._w1_violation(params, 1e6) is None


def test_w1_certificate_finds_the_diagnostic_crossing():
    """beta = -1 makes W1 cross zero; the certificate reports it within one
    grid step of the first sign-change bracket of the plain scan."""
    bad = bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0, diagnostic=True)
    lo, hi = bs.scan_w1_sign(bad, 30.0)[0]
    where = scattering._w1_violation(bad, 30.0)
    step = _w1_bounds(bad)[0] / bad.q / scattering._W1_CELLS
    assert where is not None
    assert lo - step <= where <= hi + step
    assert float(bs.w1_bundle(bad, where).w1) <= 0.0


def test_w1_certificate_refuses_what_its_grid_cannot_prove(monkeypatch):
    # W1(0) ~ 7e-4 here: the first 64-cell pass leaves cells unproven
    params = bs.PotentialParams.bic(alpha=100.0, q=1.0)
    assert scattering._w1_violation(params, 1e3) is None
    monkeypatch.setattr(scattering, "_W1_REFINEMENTS", 0)
    assert scattering._w1_violation(params, 1e3) is not None


def test_w1_certificate_cost_is_independent_of_cutoff(params, monkeypatch):
    points = []

    def counting(p, r):
        points.append(np.size(r))
        return bs.w1_bundle(p, r)

    monkeypatch.setattr(scattering, "w1_bundle", counting)
    counts = []
    for a in (1e3, 1e6):
        points.clear()
        bs.TruncatedConfig(params=params, a=a)
        counts.append(sum(points))
    assert counts[0] == counts[1] < 1000


def test_regular_solution_origin_slope(config):
    """Phi is pinned by Phi(0)=0, Phi'(0)=1, so Phi(eps)/eps -> 1."""
    for k in (1.5, 0.7):
        phi, _ = bs.regular_solution(config, k, 1e-4)
        assert float(phi) / 1e-4 == pytest.approx(1.0, abs=1e-5)


def test_regular_solution_range_check(config):
    with pytest.raises(bs.ValidationError):
        bs.regular_solution(config, 1.5, config.a + 1000.0)
    with pytest.raises(bs.ValidationError):
        bs.regular_solution(config, 1.5, -0.1)


def test_regular_solution_satisfies_equation(config, params):
    grid = np.arange(0.1, 50.0, 1e-3)
    res = bs.schrodinger_residual(
        params, 1.5, lambda r: bs.regular_solution(config, 1.5, r)[0], grid
    )
    assert res < 1e-5


def test_interior_exterior_matching(config):
    """Continuity of value at r=a between the interior solution and the
    incoming/outgoing representation."""
    for k in (1.3, 0.7):
        phi, _ = bs.regular_solution(config, k, config.a)
        fm, fp = bs.jost_function(config, k)
        a = config.a
        outer = (1j / (2 * k)) * (fm * np.exp(-1j * k * a) - fp * np.exp(1j * k * a))
        assert complex(outer) == pytest.approx(complex(phi), rel=1e-10)


def test_incoming_amplitude_from_interior_derivative(config):
    # F(-k) = e^{ika} [Phi'(a) - ik Phi(a)], with no extra scale: checks
    # the derivative matching as well
    for k in (1.3, 0.7):
        phi, phi_r = bs.regular_solution(config, k, config.a)
        fm, _ = bs.jost_function(config, k)
        assembled = np.exp(1j * k * config.a) * (complex(phi_r) - 1j * k * complex(phi))
        assert assembled == pytest.approx(complex(fm), rel=1e-10)


def test_dg_real_for_real_k(config):
    d, g = bs.dg(config, 1.4)
    assert np.imag(d) == 0 and np.imag(g) == 0


@pytest.mark.parametrize("k", [1.0004, 1.003 - 1e-4j])
def test_dg_scalar_skips_numpy_arrays(config, k):
    # a builtin scalar stays a scalar through d, g: wrapping a complex k in
    # a 0-d array would round the products as numpy complex arithmetic does
    d, g = bs.dg(config, k)
    assert not isinstance(d, np.ndarray) and not isinstance(g, np.ndarray)
    u0, v0, ua, va, bu, bv, kw = scattering._boundary(config, k)
    s, c = np.sin(k * config.a), np.cos(k * config.a)
    rot_a, rot_b = u0 * s - v0 * c, u0 * c + v0 * s
    assert d == bu * rot_a + bv * rot_b
    assert g == kw * (ua * rot_a + va * rot_b)


@pytest.mark.parametrize("name", ["dg", "phase_shift", "cross_section",
                                  "model_phase_and_sigma"])
def test_blocked_grid_matches_sub_block_slices(config, fit, name):
    fn = {"model_phase_and_sigma": lambda k: bs.model_phase_and_sigma(fit, k)}.get(
        name, lambda k: getattr(bs, name)(config, k))
    k = np.linspace(0.995, 1.005, 5 * scattering._BLOCK // 2)
    whole = np.array(fn(k))
    sliced = np.concatenate([np.array(fn(k[i:i + 1000])) for i in range(0, k.size, 1000)],
                            axis=-1)
    assert whole.shape == sliced.shape
    assert np.array_equal(whole, sliced)


def test_cross_section_peak_memory_is_bounded(config):
    k = np.linspace(0.995, 1.005, 10**6)
    tracemalloc.start()
    try:
        sigma = bs.cross_section(config, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * sigma.nbytes


def test_jost_function_conjugation(config):
    k = 1.003 - 1e-4j
    fm, fp = bs.jost_function(config, k)
    fm_c, fp_c = bs.jost_function(config, np.conj(k))
    assert abs(np.conj(fp) - fm_c) < 1e-10 * abs(fm_c)
    assert abs(np.conj(fm) - fp_c) < 1e-10 * abs(fp_c)


def test_s_matrix_unitary_on_real_axis(config):
    rng = np.random.default_rng(7)
    ks = rng.uniform(0.1, 5.0, size=50)
    ks = ks[np.abs(ks - config.params.q) > 1e-3]
    for k in ks:
        pt = bs.scattering_point(config, float(k))
        assert abs(abs(pt.S) - 1.0) < 1e-10


def test_sigma_matches_s_matrix_route(config):
    for k in (0.6, 0.9975, 1.3, 2.8):
        pt = bs.scattering_point(config, k)
        via_s = (math.pi / k**2) * abs(1.0 - pt.S) ** 2
        assert pt.sigma == pytest.approx(via_s, rel=1e-10)
        assert pt.sigma == pytest.approx((4 * math.pi / k**2) * math.sin(pt.delta_a) ** 2, rel=1e-10)


def test_phase_shift_principal_branch(config):
    k = np.array([0.5, 0.9, 1.2, 3.0])
    d = bs.phase_shift(config, k)
    assert np.all(np.abs(d) <= math.pi / 2 + 1e-12)


def test_normalizer_positive_off_the_singular_point(params):
    k = np.linspace(0.5, 2.0, 301)
    k = k[np.abs(k - params.q) > 5e-4]
    h = bs.h_normalizer(params, k)
    assert np.all(np.real(h) > 0)
    assert np.max(np.abs(np.imag(h))) == 0


@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.3, 3.0), (3.0, 0.3)])
def test_normalizer_closed_form_against_mpmath(alpha, q, uv_oracle):
    """h = k U2(0)^2 (k^2 - q^2)^4 equals u v' - v u' + k (u^2 + v^2) at
    r = 0 evaluated at 60 digits, also at the a = 5000 and a = 2e4 doublets,
    where the float combination cancels to 2e-4 and 5e-2 relative."""
    p = bs.PotentialParams.bic(alpha=alpha, q=q)
    with mpmath.workdps(60):
        for k in (q * (0.998984403241 - 1.73006555e-4j), q * (1.000253892492 - 4.3271688e-5j),
                  1.3 * q, q * (0.5 + 0.1j)):
            u, v, u_r, v_r = uv_oracle(p, k, 0.0)
            want = complex(u * v_r - v * u_r + mpmath.mpc(k) * (u * u + v * v))
            assert abs(complex(bs.h_normalizer(p, k)) - want) <= 1e-12 * abs(want)


def test_degenerate_normalizer_guard(config):
    # the flux-normalized quantities blow up as (k^2-q^2)^-4 near k=q and
    # are blocked; the phase/sigma route involves no such division and
    # stays available through the same neighborhood
    with pytest.raises(bs.DegenerateNormalizer):
        bs.jost_function(config, 1.0001)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.scattering_point(config, 1.0001)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.regular_solution(config, config.params.q, 1.0)
    assert np.isfinite(float(bs.cross_section(config, 1.0001)))
    assert np.isfinite(float(bs.phase_shift(config, 1.0001)))
    # outside the guard band the full point works
    assert np.isfinite(bs.scattering_point(config, 1.0005).sigma)


def test_sigma_landmark_positions(landmarks):
    m1, m2 = landmarks.minima
    assert m1 == pytest.approx(0.9997210660, abs=1e-7)
    assert m2 == pytest.approx(1.0005261782, abs=1e-7)
    assert landmarks.peak == pytest.approx(1.0001161, abs=1e-5)
    assert m1 < landmarks.peak < m2


def test_sigma_minima_are_deep(config, landmarks):
    for m in landmarks.minima:
        bound = 4 * math.pi / m**2
        assert float(bs.cross_section(config, m)) < 1e-4 * bound


def test_sigma_peak_touches_unitarity_bound(config, landmarks):
    k = landmarks.peak
    bound = 4 * math.pi / k**2
    sigma = float(bs.cross_section(config, k))
    assert sigma <= bound * (1 + 1e-12)
    assert sigma >= bound * (1 - 1e-3)


def test_phase_at_landmarks(config, landmarks):
    # transmission zeros sit at delta = 0 mod pi, the inter-peak maximum
    # at |delta| = pi/2
    for m in landmarks.minima:
        assert abs(math.sin(float(bs.phase_shift(config, m)))) < 1e-8
    assert abs(math.cos(float(bs.phase_shift(config, landmarks.peak)))) < 0.05


def test_fine_grid_finds_no_minimum_in_the_noise_at_q(config):
    # dk = 2.3e-7 samples within 1e-6 of q, where d and g are rounding noise
    # and the numerator changes sign at random
    assert len(bs.sigma_landmarks(config, 0.995, 1.005, dk=2.3e-7).minima) == 2


@pytest.mark.parametrize("a", [5e4, 3e5, 1e6])
def test_sigma_minima_sit_at_fixed_scaled_positions(params, a):
    # the minima sit at fixed (k - q) a / pi, which the default dk = pi/(64 a)
    # resolves at every cutoff
    config = bs.TruncatedConfig(params=params, a=a)
    marks = bs.sigma_landmarks(config, 1 - 3 * math.pi / a, 1 + 3 * math.pi / a)
    x = [(m - 1.0) * a / math.pi for m in marks.minima]
    assert x == pytest.approx([-0.444, 0.837], abs=1e-3)


@pytest.mark.parametrize("a", [5000.0, 2e5])
@pytest.mark.parametrize("x", [-2.3, -0.444, 0.5, 0.837, 2.9])
def test_num_den_derivative_matches_central_difference(params, a, x):
    # x = (k - q) a / pi; the values match the d, g route to rounding and
    # the derivatives a central difference over a step of 1e-4 pi/a
    config = bs.TruncatedConfig(params=params, a=a)
    k = 1.0 + x * math.pi / a
    (num, dnum), (den, dden) = scattering._num_den_dk(config, k)
    reference = [float(v) for v in scattering._num_den(config, k)]
    scale = math.hypot(*reference)
    assert [num, den] == pytest.approx(reference, abs=1e-12 * scale)
    h = 1e-4 * math.pi / a
    hi, lo = scattering._num_den(config, k + h), scattering._num_den(config, k - h)
    central = [(float(p) - float(m)) / (2.0 * h) for p, m in zip(hi, lo)]
    assert [dnum, dden] == pytest.approx(central, abs=1e-6 * 2.0 * a * scale)


def test_landmarks_refine_only_the_brackets_that_can_win(config, landmarks, monkeypatch):
    # at the defaults the window holds 2 numerator and 3 denominator
    # brackets; only the denominator bracket between the minima is refined
    refined = []
    newton = scattering._bracketed_newton

    def counting(f, lo, hi, *args, **kwargs):
        refined.append((lo, hi))
        return newton(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(scattering, "_bracketed_newton", counting)
    assert bs.sigma_landmarks(config, 0.995, 1.005) == landmarks
    assert len(refined) == 3


def _brentq_refinement(f, lo, hi, f_lo, f_hi):
    return brentq(lambda kk: f(kk)[0], lo, hi, xtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0))
@example(alpha=2.62, q=2.94, log_a=math.log10(7.8e4))
@example(alpha=2.403293061183309, q=1.0302044633075347, log_a=math.log10(329.77842326039297))
def test_landmarks_agree_with_brentq_over_the_envelope(alpha, q, log_a):
    """On the same brackets, bracketed Newton and brentq(xtol=1e-14) find
    the same minima and peak to 1e-10 relative (the largest gaps are
    peaks where the denominator is rounding noise over a few 1e-11)."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    window = (q - 3.0 * math.pi / a, q + 3.0 * math.pi / a)
    marks = bs.sigma_landmarks(config, *window)
    with mock.patch.object(scattering, "_bracketed_newton", _brentq_refinement):
        reference = bs.sigma_landmarks(config, *window)
    assert len(marks.minima) == len(reference.minima)
    assert marks.minima == pytest.approx(reference.minima, rel=1e-10)
    assert (marks.peak is None) == (reference.peak is None)
    if marks.peak is not None:
        assert marks.peak == pytest.approx(reference.peak, rel=1e-10)


@pytest.mark.parametrize("dk", [None, 1e-6, 1e-7])
def test_no_minimum_in_the_noise_where_d_g_vanish_exactly_at_q(dk):
    # the e2^0 coefficients at r = 0 come out as exact zeros here, so
    # d(q) = g(q) = 0 exactly; the noise floor must come from the rounding
    # beside q, or sign changes within 1e-3 pi/a of q pass as minima
    params = bs.PotentialParams.bic(alpha=2.403293061183309, q=1.0302044633075347)
    config = bs.TruncatedConfig(params=params, a=329.77842326039297)
    q, a = params.q, config.a
    assert bs.dg(config, q) == (0.0, 0.0)
    marks = bs.sigma_landmarks(config, q - 3 * math.pi / a, q + 3 * math.pi / a, dk=dk)
    x = [(m - q) * a / math.pi for m in marks.minima]
    assert x == pytest.approx([-0.5529, 0.7214], abs=1e-4)


def test_minima_not_found_in_barren_window(config):
    with pytest.raises(bs.MinimaNotFound):
        bs.sigma_landmarks(config, 0.9999, 1.0004)


def test_unwrapped_phase_fine_grid(config):
    k = np.arange(0.9985, 1.0015, 1e-6)
    k = k[np.abs(k - 1.0) > 1e-5]
    un = bs.phase_shift_unwrapped(config, k)
    assert np.max(np.abs(np.diff(un))) < 0.45 * math.pi
    # the drop across the doublet is just short of a full turn
    assert un[-1] - un[0] == pytest.approx(-5.9998, abs=0.05)


def test_unwrap_ambiguity_on_coarse_grid(config):
    k = np.arange(0.995, 1.005, 2e-4)
    k = k[np.abs(k - 1.0) > 1e-5]
    with pytest.raises(bs.UnwrapAmbiguity):
        bs.phase_shift_unwrapped(config, k)


def test_unwrap_step_budget_parameter(config):
    k = np.arange(0.9995, 1.0005, 1e-6)
    k = k[np.abs(k - 1.0) > 1e-5]
    with pytest.raises(bs.UnwrapAmbiguity):
        bs.phase_shift_unwrapped(config, k, max_step_fraction=1e-3)


def test_unwrapped_requires_increasing_grid(config):
    with pytest.raises(bs.ValidationError):
        bs.phase_shift_unwrapped(config, np.array([1.002, 1.001, 1.003]))


def test_phase_jump_across_doublet(config):
    jump = bs.phase_jump(config, 0.99, 1.01)
    assert jump == pytest.approx(-6.163017, abs=1e-3)
    assert abs(abs(jump) - 2 * math.pi) < 0.2
