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
    # the certificate samples W1 alone (order 0); the boundary data takes
    # W1 and W1' at r = 0 and r = a in one more call of order 1
    points = []
    w1 = scattering._w1

    def counting(p, r, order):
        if order == 0:
            points.append(np.size(r))
        return w1(p, r, order)

    monkeypatch.setattr(scattering, "_w1", counting)
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
    q = config.params.q
    e2 = k * k - q * q

    def horner(c):
        acc = c[-1]
        for ci in reversed(c[:-1]):
            acc = acc * e2 + ci
        return acc

    b_sum, a_diff, b_diff, a_sum = (horner(c) for c in config._boundary_data.dg)
    s, c = np.sin(k * config.a), np.cos(k * config.a)
    assert d == k * b_sum * c - a_diff * s
    assert g == k * b_diff * s + a_sum * c


def _random_cuts(n, seed):
    """Split indices of range(n) into pieces of random sizes: 1 to a few
    thousand points, with one-point pieces at both ends and inside."""
    rng = np.random.default_rng(seed)
    cuts = rng.choice(np.arange(2, n - 2), 40, replace=False)
    return np.unique(np.concatenate([[1, n - 1], cuts, cuts[:10] + 1]))


def _full_grid_landmarks(config, k_lo, k_hi, dk, cuts=()):
    """``sigma_landmarks`` as a scan of the whole grid at once: num and den
    on all of np.arange(k_lo, k_hi + dk, dk), here evaluated on the pieces
    split at ``cuts``, then the same bracket filters and refinement."""
    grid = np.arange(k_lo, k_hi + dk, dk)
    num, den = (np.concatenate(f) for f in zip(*(
        scattering._num_den(config, piece) for piece in np.split(grid, cuts))))
    q, floor = config.params.q, scattering._noise_floor(config)

    def refine(f, part, keep_lo=-math.inf, keep_hi=math.inf):
        roots = []
        for i in np.nonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[0]:
            lo, hi = float(grid[i]), float(grid[i + 1])
            if (hi <= keep_lo or lo >= keep_hi or lo <= q <= hi
                    or math.hypot(num[i], den[i]) <= floor
                    or math.hypot(num[i + 1], den[i + 1]) <= floor):
                continue
            roots.append(scattering._bracketed_newton(
                lambda kk: scattering._num_den_dk(config, kk)[part],
                lo, hi, float(f[i]), float(f[i + 1])))
        return roots

    minima = refine(num, 0)
    if len(minima) < 2:
        return bs.MinimaNotFound
    lo, hi = minima[0], minima[-1]
    peaks = [z for z in refine(den, 1, lo, hi) if lo < z < hi]
    sin2 = []
    for z in peaks:
        (n, _), (d, _) = scattering._num_den_dk(config, z)
        sin2.append(n * n / (n * n + d * d))
    return scattering.SigmaLandmarks(minima=tuple(minima),
                                     peak=peaks[int(np.argmax(sin2))] if peaks else None)


@pytest.mark.parametrize("name", ["dg", "phase_shift", "cross_section",
                                  "model_phase_and_sigma", "hadamard_residual",
                                  "phase_shift_unwrapped", "sigma_landmarks"])
def test_blocked_grid_matches_sub_block_slices(config, fit, name):
    # a grid of 2.5 blocks gives the same bits whole as on pieces split at
    # random, one-point pieces included: numpy sends a one-column matrix
    # product to gemv, which sums in another order, unless it is padded
    k = np.linspace(0.995, 1.005, 5 * scattering._BLOCK // 2)
    cuts = _random_cuts(k.size, 11)
    if name == "sigma_landmarks":
        dk = 0.01 / k.size
        assert bs.sigma_landmarks(config, 0.995, 1.005, dk) == _full_grid_landmarks(
            config, 0.995, 1.005, dk, cuts)
        return
    if name == "phase_shift_unwrapped":
        k = k[np.abs(k - 1.0) > scattering.Q_EXCLUSION]
        raw = np.concatenate([bs.phase_shift(config, piece) for piece in np.split(k, cuts)])
        assert np.array_equal(bs.phase_shift_unwrapped(config, k),
                              bs.unwrap_phase(raw, math.pi))
        return
    fn = {"model_phase_and_sigma": lambda k: bs.model_phase_and_sigma(fit, k),
          "hadamard_residual": lambda k: bs.hadamard_residual(config, fit, k)}.get(
        name, lambda k: getattr(bs, name)(config, k))
    whole = np.array(fn(k))
    parts = [np.array(fn(piece)) for piece in np.split(k, cuts)]
    sliced = np.max(parts) if name == "hadamard_residual" else np.concatenate(parts, axis=-1)
    assert whole.shape == sliced.shape
    assert np.array_equal(whole, sliced)


def test_blocked_unwrap_matches_sub_block_slices(config):
    # the grid is shifted so that the principal phase jumps by about pi
    # between samples _BLOCK - 1 and _BLOCK, where the count's carry passes
    # from one block to the next; the blocked unwrap equals the whole-array
    # count applied to principal values computed on sub-block slices
    block = scattering._BLOCK
    k = np.linspace(0.995, 1.005, 5 * block // 2)
    k = k[np.abs(k - 1.0) > scattering.Q_EXCLUSION]
    jumps = np.nonzero(np.abs(np.diff(bs.phase_shift(config, k))) > math.pi / 2)[0]
    k = k[jumps[jumps >= block][0] + 1 - block:]
    raw = np.concatenate([bs.phase_shift(config, k[i:i + 1000])
                          for i in range(0, k.size, 1000)])
    assert abs(raw[block] - raw[block - 1]) > math.pi / 2
    count = np.concatenate([[0.0], np.cumsum(np.rint(np.diff(raw) / math.pi))])
    whole = bs.phase_shift_unwrapped(config, k)
    assert np.array_equal(whole, raw - math.pi * count)
    assert abs(whole[block] - whole[block - 1]) < 0.01


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cross_section_peak_memory_is_bounded(config):
    k = np.linspace(0.995, 1.005, 10**6)
    sigma, peak = _peak_bytes(lambda: bs.cross_section(config, k))
    assert peak < 3 * sigma.nbytes


def test_unwrapped_phase_peak_memory_is_bounded(config):
    # the principal values and the output, plus one block's temporaries
    k = np.linspace(0.995, 1.005, 10**6)
    k = k[np.abs(k - 1.0) > scattering.Q_EXCLUSION]
    delta, peak = _peak_bytes(lambda: bs.phase_shift_unwrapped(config, k))
    assert peak < 3 * delta.nbytes


def test_sigma_landmarks_peak_memory_is_bounded(config, landmarks):
    # a 10^6-point window is streamed a block at a time: the peak is a few
    # blocks' temporaries, a fraction of one grid-sized array (8 MB)
    marks, peak = _peak_bytes(lambda: bs.sigma_landmarks(config, 0.995, 1.005, dk=1e-8))
    assert marks.minima == pytest.approx(landmarks.minima, abs=1e-12)
    assert peak < 0.4 * 8 * 10**6


@pytest.mark.parametrize("which", [0, -1])
def test_bracket_across_a_block_end_is_kept(config, landmarks, which):
    # the window puts one minimum between the last point of the first block
    # and the first point of the second; the other lies inside the window
    dk, block = 1e-7, scattering._BLOCK
    k_lo = landmarks.minima[which] - (block - 0.5) * dk
    window = (k_lo, k_lo + (block + 10_000) * dk, dk)
    points = scattering._window_points(k_lo, dk, block - 1, block + 1)
    assert points[0] < landmarks.minima[which] < points[1]
    marks = bs.sigma_landmarks(config, *window)
    assert marks == _full_grid_landmarks(config, *window)
    assert marks.minima == pytest.approx(landmarks.minima, abs=1e-12)


@pytest.mark.parametrize("k_lo,k_hi,dk", [(0.995, 1.005, 1e-8), (0.99, 1.01, 3e-7),
                                          (-0.3, 2.7, 1e-4), (1e3, 1e3 + 1.0, 7e-5)])
def test_window_points_are_those_of_arange(k_lo, k_hi, dk):
    grid = np.arange(k_lo, k_hi + dk, dk)
    n = scattering._window_size(k_lo, k_hi, dk)
    assert n == grid.size
    for start in (0, 1, 2, 5000, n - 3):
        stop = min(start + scattering._BLOCK + 1, n)
        points = scattering._window_points(k_lo, dk, start, stop)
        assert np.array_equal(points, grid[start:stop])


@settings(max_examples=25, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0),
       cells=st.integers(min_value=64, max_value=10000))
def test_streamed_landmarks_match_the_full_grid_scan(alpha, q, log_a, cells):
    """The window streamed a block at a time gives the landmarks of one
    scan over the whole grid, bit for bit, or both refuse; from 64 cells
    per pi/a (the default) to 10^4, where the window spans four blocks."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    window = (q - 3.0 * math.pi / a, q + 3.0 * math.pi / a, math.pi / (cells * a))
    marks = _landmarks_or_refusal(config, window)
    assert marks == _full_grid_landmarks(config, *window)


def test_sin_cos_matches_numpy():
    # the real-axis kernel's e^{i phi} from one tangent of phi/2, against
    # np.sin and np.cos: with P = 1 and Q = 0, den + i num = e^{i phi}.
    # Absolute error within 4 eps, over |phi| <= 3e6 and within 1e-12 of
    # multiples of pi/2 (where t = tan(phi/2) is 0, +-1 or huge)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    n = rng.integers(-1_900_000, 1_900_000, 20_000)
    x = np.concatenate([rng.uniform(-3e6, 3e6, 100_000), rng.uniform(-10.0, 10.0, 20_000),
                        n * (math.pi / 2) + rng.uniform(-1e-12, 1e-12, n.size),
                        n * (math.pi / 2), [0.0, -0.0, math.pi, -math.pi, 3e6, -3e6]])
    unit = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    s, c = scattering._rotated(unit, np.zeros_like(x), 0.5 * x)
    assert np.max(np.abs(s - np.sin(x))) <= 4 * eps
    assert np.max(np.abs(c - np.cos(x))) <= 4 * eps
    assert np.max(np.abs(s * s + c * c - 1.0)) <= 4 * eps


def test_sin2_delta_against_oracle(config, dg_oracle):
    # sin^2 delta through the real-axis kernel (``_num_den``: one matrix
    # product and one tangent of k a)
    # against 40 digits, on points from 1e-7 to 1e-2 off q, binned by
    # decades of hypot(d, g) over the noise floor; in every bin the worst
    # error is at most twice that of the same pipeline on np.sin and np.cos
    # (the reference kernel, written out here). Both share the rounding of
    # d, g and k a, which sets the error in every bin.
    q, a = config.params.q, config.a
    rng = np.random.default_rng(5)
    k = np.sort(q + np.geomspace(1e-7, 1e-2, 120) * rng.choice([-1.0, 1.0], 120))
    num, den = scattering._num_den(config, k)
    got = num**2 / (num**2 + den**2)
    b_sum, a_diff, b_diff, a_sum = (polyval(k * k - q * q, c)
                                    for c in config._boundary_data.dg)
    s, c = np.sin(k * a), np.cos(k * a)
    d, g = k * b_sum * c - a_diff * s, k * b_diff * s + a_sum * c
    num, den = d * s + g * c, d * c - g * s
    reference = num**2 / (num**2 + den**2)
    want = []
    with mpmath.workdps(40):
        for kk in k:
            dd, gg = (z.real for z in dg_oracle(config, float(kk)))
            ka = mpmath.mpf(float(kk)) * mpmath.mpf(a)
            nn = dd * mpmath.sin(ka) + gg * mpmath.cos(ka)
            mm = dd * mpmath.cos(ka) - gg * mpmath.sin(ka)
            want.append(float(nn**2 / (nn**2 + mm**2)))
    err_tan, err_ref = np.abs(got - want), np.abs(reference - want)
    decade = np.floor(np.log10(np.hypot(d, g) / scattering._noise_floor(config)))
    assert decade.min() < 0 and decade.max() > 12
    for b in np.unique(decade):
        in_bin = decade == b
        assert err_tan[in_bin].max() <= 2.0 * err_ref[in_bin].max(), b


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 5000.0), (0.5, 2.0, 3000.0),
                                       (2.403293061183309, 1.0302044633075347,
                                        329.77842326039297)])
def test_root_function_against_oracle(alpha, q, a, dg_oracle):
    # G = P + e^{-2ika} Q from the config's e2-polynomials against
    # e^{-ika} (d + ig) at 40 digits, near the doublet, between it and q,
    # past it and away from q (measured <= 8.2e-13, the rounding of k a)
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    g = bs.root_function(config)
    ks = [q + (x - 0.87j) * math.pi / a for x in (-1.6, 1.6, 0.3, 3.0)]
    for k in ks + [1.3 * q - 1j / a, 0.6 * q - 0.01j]:
        with mpmath.workdps(40):
            d, gg = dg_oracle(config, k)
            want = complex(mpmath.exp(-1j * mpmath.mpc(k) * a) * (d + 1j * gg))
        assert abs(g(k) - want) <= 2e-12 * abs(want)
        assert abs(g(np.array([k]))[0] - want) <= 2e-12 * abs(want)


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
    # at alpha = q = 1 the minima have settled at fixed (k - q) a / pi, which
    # the default dk = pi/(64 a) resolves at every one of these cutoffs
    config = bs.TruncatedConfig(params=params, a=a)
    marks = bs.sigma_landmarks(config, 1 - 3 * math.pi / a, 1 + 3 * math.pi / a)
    x = [(m - 1.0) * a / math.pi for m in marks.minima]
    assert x == pytest.approx([-0.444, 0.837], abs=1e-3)


@pytest.mark.parametrize("a", [5000.0, 2e5])
@pytest.mark.parametrize("x", [-2.3, -0.444, 0.5, 0.837, 2.9])
def test_num_den_derivative_matches_central_difference(params, a, x):
    # x = (k - q) a / pi; the values match the real-axis kernel to rounding
    # and the derivatives a central difference over a step of 1e-4 pi/a
    config = bs.TruncatedConfig(params=params, a=a)
    k = 1.0 + x * math.pi / a
    (num, dnum), (den, dden) = scattering._num_den_dk(config, k)

    def kernel(kk):
        return [float(v[0]) for v in scattering._num_den(config, np.array([kk]))]

    reference = kernel(k)
    scale = math.hypot(*reference)
    assert [num, den] == pytest.approx(reference, abs=1e-12 * scale)
    h = 1e-4 * math.pi / a
    central = [(p - m) / (2.0 * h) for p, m in zip(kernel(k + h), kernel(k - h))]
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


def _landmarks_or_refusal(config, window):
    try:
        return bs.sigma_landmarks(config, *window)
    except bs.MinimaNotFound:
        return bs.MinimaNotFound


@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0))
@example(alpha=2.62, q=2.94, log_a=math.log10(7.8e4))
@example(alpha=2.403293061183309, q=1.0302044633075347, log_a=math.log10(329.77842326039297))
@example(alpha=0.375, q=0.3125, log_a=2.0)
def test_landmarks_agree_with_brentq_over_the_envelope(alpha, q, log_a):
    """On the same brackets, bracketed Newton and brentq(xtol=1e-14) find
    the same minima and peak to 1e-10 relative (the largest gaps are
    peaks where the denominator is rounding noise over a few 1e-11), or
    both refuse: at small q a the window q +- 3 pi/a can hold one minimum
    only (at alpha = 0.375, q = 0.3125, a = 100 the other sits beyond it)."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    window = (q - 3.0 * math.pi / a, q + 3.0 * math.pi / a)
    marks = _landmarks_or_refusal(config, window)
    with mock.patch.object(scattering, "_bracketed_newton", _brentq_refinement):
        reference = _landmarks_or_refusal(config, window)
    if marks is bs.MinimaNotFound or reference is bs.MinimaNotFound:
        assert marks is reference
        return
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
    params = bs.PotentialParams.bic(alpha=1.3515190914385014, q=2.075714076655437)
    config = bs.TruncatedConfig(params=params, a=786.6321175533113)
    q, a = params.q, config.a
    assert bs.dg(config, q) == (0.0, 0.0)
    marks = bs.sigma_landmarks(config, q - 3 * math.pi / a, q + 3 * math.pi / a, dk=dk)
    x = [(m - q) * a / math.pi for m in marks.minima]
    assert x == pytest.approx([-0.5622, 0.7110], abs=1e-4)


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


@pytest.mark.parametrize("fn,args", [
    ("sigma_landmarks", (0.99, 1.01, 0.0)),
    ("sigma_landmarks", (0.99, 1.01, -1e-6)),
    ("sigma_landmarks", (0.99, 1.01, math.nan)),
    ("sigma_landmarks", (0.99, math.inf)),
    ("sigma_landmarks", (math.nan, 1.01)),
    ("phase_jump", (0.99, 1.01, 0.0)),
    ("phase_jump", (0.99, 1.01, math.nan)),
    ("phase_jump", (0.99, math.inf)),
    ("phase_shift_unwrapped", (np.array([0.999, math.nan, 1.001]),)),
    ("phase_shift_unwrapped", (np.array([0.999, 1.001, math.inf]),)),
])
def test_grid_inputs_raise_validation_error(config, fn, args):
    # a zero, negative or NaN step, an infinite or NaN window end, and a
    # grid holding NaN or an infinity are all refused before any numerics
    with pytest.raises(bs.ValidationError):
        getattr(bs, fn)(config, *args)


@pytest.mark.parametrize("fn,args", [
    ("sigma_landmarks", (0.99, 1.01, 1e-300)),
    ("sigma_landmarks", (0.99, 1.01, 1e-12)),
    ("phase_jump", (0.99, 1.01, 1e-300)),
    ("phase_jump", (0.99, 1.01, 1e-12)),
    ("hadamard_residual", ()),
])
def test_oversized_grids_raise_validation_error(config, fit, fn, args):
    # more than numerics._MAX_GRID_POINTS points are refused before
    # anything is allocated or looped over; the default Hadamard grid is
    # oversized by minima far apart at a fine step pi/(640 a)
    if fn == "hadamard_residual":
        wide = dataclasses.replace(fit, fit_report={**fit.fit_report, "minima": [0.1, 10.0]})
        call = lambda: bs.hadamard_residual(config, wide)
    else:
        call = lambda: getattr(bs, fn)(config, *args)
    with pytest.raises(bs.ValidationError, match="more than"):
        call()


def test_phase_jump_across_doublet(config):
    jump = bs.phase_jump(config, 0.99, 1.01)
    assert jump == pytest.approx(-6.163017, abs=1e-3)
    assert abs(abs(jump) - 2 * math.pi) < 0.2
