import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import bicscatter as bs
from bicscatter import background, scattering


def _model_num_den(doublet, a, lam0, lam1, k):
    # independent in-test assembly of the two-resonance-plus-background
    # model from the public building blocks
    k = np.asarray(k, dtype=float)
    y, z = bs.yz(doublet, k)
    lam = lam0 + lam1 * k
    ska, cka = np.sin(k * a), np.cos(k * a)
    return (y - lam * z) * ska + (lam * y + z) * cka, \
           (y - lam * z) * cka - (lam * y + z) * ska


def test_doublet_validation(doublet_pair):
    with pytest.raises(bs.ValidationError):
        bs.Doublet(k1=1.001, half_width1=1e-4, k2=0.999, half_width2=1e-4)
    d = bs.Doublet.from_resonances(*doublet_pair)
    assert d.k1 < d.k2
    assert not d.overlapping
    wide = bs.Doublet(k1=0.9999, half_width1=3e-4, k2=1.0001, half_width2=3e-4)
    assert wide.overlapping


def test_resonance_quadratics_degenerate_limit():
    # with zero widths Y and Z vanish at the pole positions
    d = bs.Doublet(k1=0.999, half_width1=0.0, k2=1.001, half_width2=0.0)
    y, z = bs.yz(d, np.array([0.999, 1.001]))
    assert np.max(np.abs(y)) == 0
    assert np.max(np.abs(z)) == 0


def test_y_negative_between_poles(doublet):
    y, _ = bs.yz(doublet, np.array([0.5 * (doublet.k1 + doublet.k2)]))
    assert y[0] < 0


def test_y_roots_against_quadratic_formula(doublet):
    """Y is an explicit monic quadratic; its roots sit near k1, k2 shifted
    by the width product."""
    g1, g2 = 2 * doublet.half_width1, 2 * doublet.half_width2
    s = doublet.k1 + doublet.k2
    disc = (doublet.k2 - doublet.k1) ** 2 + g1 * g2
    roots = [(s - math.sqrt(disc)) / 2, (s + math.sqrt(disc)) / 2]
    y, _ = bs.yz(doublet, np.array(roots))
    assert np.max(np.abs(y)) < 1e-12
    assert abs(roots[0] - doublet.k1) < 1e-4
    assert abs(roots[1] - doublet.k2) < 1e-4


def test_fit_defaults(fit, landmarks):
    assert fit.lambda0 + fit.lambda1 == pytest.approx(-0.8236, rel=0.10)
    rep = fit.fit_report
    assert set(rep) >= {"minima", "condition_number", "residuals", "window",
                        "overlapping_resonances"}
    assert rep["minima"] == pytest.approx(list(landmarks.minima), abs=1e-9)
    assert rep["condition_number"] > 1e3  # documented ill-conditioning
    assert np.max(np.abs(rep["residuals"])) < 1e-9
    assert rep["overlapping_resonances"] is False


def test_model_pins_the_fitted_minima(fit):
    num, _ = _model_num_den(fit.doublet, fit.a, fit.lambda0, fit.lambda1,
                            np.asarray(fit.fit_report["minima"]))
    assert np.max(np.abs(num)) < 1e-10


def test_reference_background_reproduces_minima(config, doublet, landmarks):
    """Forward check with a reference coefficient pair (an earlier
    high-precision determination of the same background): the model minima
    coincide with the exact ones within 1e-4 (measured ~5e-9)."""
    lam0, lam1 = 1311.3931, -1312.2167
    for m in landmarks.minima:
        f = lambda k: float(_model_num_den(doublet, config.a, lam0, lam1, k)[0])
        root = brentq(f, m - 2e-4, m + 2e-4, xtol=1e-14)
        assert abs(root - m) < 1e-4


def test_fit_round_trip_reference_values(config, doublet, landmarks, pinned_minima):
    # minima generated from the reference coefficients, refit: recovers
    # them to machine-level despite the condition number
    lam0, lam1 = 1311.3931, -1312.2167
    minima = []
    for m in landmarks.minima:
        f = lambda k: float(_model_num_den(doublet, config.a, lam0, lam1, k)[0])
        minima.append(brentq(f, m - 2e-4, m + 2e-4, xtol=1e-15))
    with pinned_minima(minima):
        refit = bs.fit_lambda(config, doublet)
    assert refit.lambda0 == pytest.approx(lam0, rel=1e-2)
    assert refit.lambda1 == pytest.approx(lam1, rel=1e-2)


def test_fit_round_trip_synthetic_well_conditioned(params, pinned_minima):
    """Wide synthetic doublet at small cutoff: zeros are far apart, the
    system is well conditioned, and the round trip is tight."""
    cfg = bs.TruncatedConfig(params=params, a=7.0)
    d = bs.Doublet(k1=0.9, half_width1=0.01, k2=1.1, half_width2=0.012)
    lam0, lam1 = 0.3, 0.2
    ks = np.linspace(0.5, 1.5, 20001)
    num = _model_num_den(d, 7.0, lam0, lam1, ks)[0]
    idx = np.where(np.sign(num[:-1]) * np.sign(num[1:]) < 0)[0][:2]
    zeros = [
        brentq(lambda k: float(_model_num_den(d, 7.0, lam0, lam1, k)[0]),
               ks[i], ks[i + 1], xtol=1e-15)
        for i in idx
    ]
    with pinned_minima(zeros):
        refit = bs.fit_lambda(cfg, d)
    assert refit.lambda0 == pytest.approx(lam0, rel=1e-6)
    assert refit.lambda1 == pytest.approx(lam1, rel=1e-6)
    assert refit.fit_report["condition_number"] < 1e4


def test_singular_fit_system(config, pinned_minima):
    # zero-width doublet evaluated at its own poles: the linear system for
    # lambda degenerates
    d = bs.Doublet(k1=0.999, half_width1=0.0, k2=1.001, half_width2=0.0)
    with pinned_minima([0.999, 1.001]), pytest.raises(bs.SingularFitSystem):
        bs.fit_lambda(config, d)


def test_fit_refuses_two_equal_minima(config, doublet, pinned_minima):
    with pinned_minima([1.0003, 1.0003]), pytest.raises(bs.SingularFitSystem,
                                                        match="both minima"):
        bs.fit_lambda(config, doublet)



def test_fit_refines_only_the_minima(config, doublet, fit, monkeypatch):
    # the default window holds the two minima and one peak bracket between
    # them; sigma_landmarks refines all three, the fit only the minima
    refined = []
    newton = scattering._bracketed_newton

    def counting(f, lo, hi, *args):
        refined.append((lo, hi))
        return newton(f, lo, hi, *args)

    monkeypatch.setattr(scattering, "_bracketed_newton", counting)
    assert bs.fit_lambda(config, doublet) == fit
    assert len(refined) == 2
    refined.clear()
    marks = bs.sigma_landmarks(config, *fit.fit_report["window"])
    assert list(marks.minima) == fit.fit_report["minima"] and len(refined) == 3


def _numpy_fit(m1, m2, num_den):
    """lambda0, lambda1 and the Jacobian condition number of ``fit_lambda``
    through np.linalg.solve and np.linalg.cond, with the 2-norm condition
    number of the Vandermonde system solved."""
    (num1, den1), (num2, den2) = num_den
    vander = np.array([[1.0, m1], [1.0, m2]])
    lam = np.linalg.solve(vander, [-num1 / den1, -num2 / den2])
    jac = np.array([[den1, den1 * m1], [den2, den2 * m2]])
    return lam, float(np.linalg.cond(jac)), float(np.linalg.cond(vander))


def _assert_closed_form_fit(m1, m2, num_den):
    # agreement to within the condition number times 8 eps: lambda in norm
    # against the solved system's, the condition number relative to itself
    eps = np.finfo(float).eps
    (num1, den1), (num2, den2) = num_den
    lam = background._pinned_line(m1, m2, -num1 / den1, -num2 / den2)
    cond = background._condition_number(den1, den2, m1, m2)
    want, want_cond, vander_cond = _numpy_fit(m1, m2, num_den)
    assert np.hypot(*(np.array(lam) - want)) <= 8 * eps * vander_cond * np.hypot(*want)
    assert abs(cond - want_cond) <= 8 * eps * want_cond * want_cond


def test_closed_form_fit_matches_numpy_at_the_defaults(config, doublet, fit):
    m1, m2 = fit.fit_report["minima"]
    num_den = [tuple(float(v) for v in background._ka_rotation(*bs.yz(doublet, m), m * config.a))
               for m in (m1, m2)]
    _assert_closed_form_fit(m1, m2, num_den)
    assert (fit.lambda0, fit.lambda1) == background._pinned_line(
        m1, m2, *(-num / den for num, den in num_den))


@pytest.mark.envelope
@settings(max_examples=200, deadline=None)
@given(m1=st.floats(min_value=0.3, max_value=3.0), log_gap=st.floats(min_value=-7.0, max_value=0.0),
       r=st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=2),
       log_den=st.floats(min_value=-30.0, max_value=0.0),
       log_ratio=st.floats(min_value=-3.0, max_value=3.0),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2))
def test_closed_form_fit_matches_numpy(m1, log_gap, r, log_den, log_ratio, signs):
    # minima 1e-7 to 1 apart, as on the envelope (condition numbers 80 to
    # 2e7 there), and pinning terms within 1e3 of each other; far past
    # 1/eps np.linalg.cond loses its own accuracy
    m2 = m1 + m1 * 10.0**log_gap
    dens = [signs[0] * 10.0**log_den, signs[1] * 10.0**(log_den + log_ratio)]
    _assert_closed_form_fit(m1, m2, [(-ri * d, d) for ri, d in zip(r, dens)])


def test_given_grid_residual_refuses_where_d_g_vanish_exactly(exact_zero_config):
    # d(q) = g(q) = 0 exactly: a given grid holding q is refused by name;
    # the default grid drops q by the noise floor and still gives a number
    config = exact_zero_config
    q = config.params.q
    fit = bs.fit_lambda(config, bs.Doublet.from_resonances(
        *bs.doublet_of(bs.find_resonances(config), q)))
    with pytest.raises(bs.DegenerateNormalizer, match=rf"k = {re.escape(repr(q))} "):
        bs.hadamard_residual(config, fit, [q, q + 1e-3])
    assert np.isfinite(bs.hadamard_residual(config, fit, [q + 1e-3]))
    assert 0.0 <= bs.hadamard_residual(config, fit) < 1.0

def test_fit_propagates_missing_minima(config, doublet):
    with pytest.raises(bs.MinimaNotFound):
        bs.fit_lambda(config, doublet, window=(0.9999, 1.0004))


def test_model_phase_sigma_identity(fit):
    k = np.arange(0.995, 1.005, 1e-5)
    k = k[np.abs(k - 1.0) > 1e-5]
    dm, sm = bs.model_phase_and_sigma(fit, k)
    bound = 4 * np.pi / k**2
    assert np.max(np.abs(sm - bound * np.sin(dm) ** 2) / bound) < 1e-12
    assert np.all(sm >= 0)
    assert np.all(sm <= bound * (1 + 1e-12))


@pytest.mark.parametrize("k", [1.0004, np.float64(0.9993), np.array(1.0021)])
def test_model_phase_and_sigma_scalar(fit, k):
    # a scalar or 0-d k gives scalars, through the same block kernel as the
    # one-element array
    dm, sm = bs.model_phase_and_sigma(fit, k)
    assert np.ndim(dm) == 0 and np.ndim(sm) == 0
    dm1, sm1 = bs.model_phase_and_sigma(fit, np.array([k], dtype=float))
    assert dm1.shape == sm1.shape == (1,)
    assert dm == pytest.approx(dm1[0], rel=1e-12, abs=1e-15)
    assert sm == pytest.approx(sm1[0], rel=1e-12, abs=1e-15)


def test_model_phase_value_before_first_minimum(fit):
    # the model phase passes near -pi/2 just below the first transmission
    # zero (branch fixed by the atan2 of the model numerator/denominator)
    num, den = _model_num_den(fit.doublet, fit.a, fit.lambda0, fit.lambda1,
                              np.array([0.999]))
    d_model = math.atan2(float(num[0]), float(den[0]))
    dist = (d_model + math.pi / 2) % (2 * math.pi)
    assert min(dist, 2 * math.pi - dist) < 0.3


def test_shape_deviation_on_doublet_window(config, fit):
    assert bs.hadamard_residual(config, fit) < 0.15


def test_shape_deviation_at_minima(config, fit):
    grid = np.asarray(fit.fit_report["minima"])
    assert bs.hadamard_residual(config, fit, grid) < 1e-3


def test_shape_deviation_at_large_cutoff(params):
    # the default grid scales with pi/a: at a = 10^6 the whole doublet
    # window lies within 1e-5 of q
    config = bs.TruncatedConfig(params=params, a=1e6)
    fit = bs.fit_lambda(config, bs.Doublet.from_resonances(
        *bs.doublet_of(bs.find_resonances(config), params.q)))
    m1, m2 = fit.fit_report["minima"]
    assert m1 < params.q < m2
    dev = bs.hadamard_residual(config, fit)
    assert math.isfinite(dev) and dev >= 0


def test_shape_deviation_far_field_reported(config, fit):
    # the two-pole model is not claimed outside the doublet window; the
    # deviation there is just recorded as finite
    dev = bs.hadamard_residual(config, fit, np.array([1.5, 1.50001]))
    assert np.isfinite(dev) and dev >= 0


@pytest.mark.envelope
@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(min_value=0.3, max_value=3.0), q=st.floats(min_value=0.3, max_value=3.0),
       log_a=st.floats(min_value=2.0, max_value=6.0))
def test_default_residual_grid_is_arange(alpha, q, log_a):
    """The default grid, streamed from the window's own points, gives the
    residual of np.arange(lo, hi + dk, dk), dk = pi/(640 a), evaluated whole
    through ``_block_deviation``, bit for bit, or is refused where that is
    empty or reaches k <= 0 (at small q a)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
    try:
        fit = bs.fit_lambda(config, bs.Doublet.from_resonances(
            *bs.doublet_of(bs.find_resonances(config), q)))
    except bs.BicscatterError:
        assume(False)
    m1, m2 = fit.fit_report["minima"]
    span = m2 - m1
    dk = math.pi / (640.0 * config.a)
    grid = np.arange(m1 - 0.25 * span, m2 + 0.25 * span + dk, dk)
    if grid[0] <= 0:
        with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
            bs.hadamard_residual(config, fit)
        return
    num, den = scattering._num_den(config, grid)
    floor = scattering._noise_floor(config)
    want = background._block_deviation(fit, grid, num, den,
                                       num * num + den * den > floor * floor)
    if want == -math.inf:
        with pytest.raises(bs.ValidationError):
            bs.hadamard_residual(config, fit)
    else:
        assert bs.hadamard_residual(config, fit) == want


def test_shape_deviation_refuses_an_empty_grid(config, fit):
    with pytest.raises(bs.ValidationError, match="^empty k grid$"):
        bs.hadamard_residual(config, fit, np.array([]))
    # the default grid, emptied by the noise mask around k = q: the refusal
    # names the window and the floor, not a grid the caller never passed
    m1, m2 = fit.fit_report["minima"]
    lo, hi = m1 - 0.25 * (m2 - m1), m2 + 0.25 * (m2 - m1)
    with mock.patch("bicscatter.scattering._noise_floor", return_value=math.inf):
        with pytest.raises(bs.ValidationError,
                           match=re.escape(f"[{lo!r}, {hi!r}]")) as refusal:
            bs.hadamard_residual(config, fit)
    assert "rounding floor inf" in str(refusal.value) and "k grid" not in str(refusal.value)


def test_default_grid_that_reaches_k_zero_is_refused(config, doublet, pinned_minima):
    # minima at 0.001 and 1.0003 put the default grid over [-0.249, 1.25],
    # across k = 0, where the phase steps; that returned 0.99999
    with pinned_minima([0.001, 1.0003]):
        fit = bs.fit_lambda(config, doublet)
    with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
        bs.hadamard_residual(config, fit)


@pytest.mark.parametrize("k", [[1.0005, math.nan], [math.inf, 1.0]])
def test_shape_deviation_refuses_a_grid_that_is_not_finite(config, fit, k):
    # both returned nan without an error, the second with a RuntimeWarning
    with pytest.raises(bs.ValidationError, match="finite"):
        bs.hadamard_residual(config, fit, np.array(k))


def test_shape_deviation_refuses_a_fit_at_another_cutoff(params, fit):
    with pytest.raises(bs.ValidationError):
        bs.hadamard_residual(bs.TruncatedConfig(params=params, a=4000.0), fit)


def test_shape_deviation_peak_memory_is_bounded(config, fit):
    # one pass over blocks keeps only block maxima: the peak is a few
    # blocks' temporaries, a fraction of the grid
    k = np.linspace(0.995, 1.005, 10**6)
    tracemalloc.start()
    try:
        bs.hadamard_residual(config, fit, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * k.nbytes
