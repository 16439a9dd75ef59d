import math

import numpy as np
import pytest
from scipy.optimize import brentq

import bicscatter as bs


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


def test_fit_round_trip_reference_values(config, doublet, landmarks):
    # minima generated from the reference coefficients, refit: recovers
    # them to machine-level despite the condition number
    lam0, lam1 = 1311.3931, -1312.2167
    minima = []
    for m in landmarks.minima:
        f = lambda k: float(_model_num_den(doublet, config.a, lam0, lam1, k)[0])
        minima.append(brentq(f, m - 2e-4, m + 2e-4, xtol=1e-15))
    refit = bs.fit_lambda(config, doublet, minima=minima)
    assert refit.lambda0 == pytest.approx(lam0, rel=1e-2)
    assert refit.lambda1 == pytest.approx(lam1, rel=1e-2)


def test_fit_round_trip_synthetic_well_conditioned(params):
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
    refit = bs.fit_lambda(cfg, d, minima=zeros)
    assert refit.lambda0 == pytest.approx(lam0, rel=1e-6)
    assert refit.lambda1 == pytest.approx(lam1, rel=1e-6)
    assert refit.fit_report["condition_number"] < 1e4


def test_singular_fit_system(config):
    # zero-width doublet evaluated at its own poles: the linear system for
    # lambda degenerates
    d = bs.Doublet(k1=0.999, half_width1=0.0, k2=1.001, half_width2=0.0)
    with pytest.raises(bs.SingularFitSystem):
        bs.fit_lambda(config, d, minima=[0.999, 1.001])


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
