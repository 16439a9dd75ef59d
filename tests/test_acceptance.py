"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS] line (visible with ``pytest -s`` or in the
captured-output section) so a release run reads as a checklist. Tolerances
are the contractual ones, looser than the library's measured margins on
purpose: they are the promise, not the typical performance.
"""

import math
import time

import numpy as np
import pytest
from scipy.signal import argrelmax

import bicscatter as bs


def test_criterion_1_resonance_doublet(config):
    t0 = time.monotonic()
    found = bs.find_resonances(config)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    assert len(found) == 2
    for res in found:
        assert 0.99 <= res.k_complex.real <= 1.01
        assert -0.001 <= res.k_complex.imag < 0.0
    k1, k2 = found[0].k_complex, found[1].k_complex
    assert k1.real == pytest.approx(0.9989844032, abs=1e-6)
    assert -k1.imag == pytest.approx(0.0001730065, abs=1e-6)
    assert k2.real == pytest.approx(1.0010155756, abs=1e-6)
    assert -k2.imag == pytest.approx(0.0001731296, abs=1e-6)
    print(f"\n[PASS] criterion 1: doublet at {k1.real:.10f}, {k2.real:.10f} "
          f"within 1e-6 (runtime {elapsed:.2f}s)")


def test_criterion_2_potential_landmarks(params):
    t0 = time.monotonic()
    v0 = float(bs.potential_v4(params, 0.0))
    r = np.arange(1.0, 1.6, 1e-4)
    vmax = float(np.max(bs.potential_v4(params, r)))
    elapsed = time.monotonic() - t0
    assert v0 == pytest.approx(19.55, abs=0.01)
    assert vmax == pytest.approx(4.43, abs=0.01)
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 2: V(0)={v0:.4f}, first max {vmax:.4f} "
          f"(runtime {elapsed:.3f}s)")


def test_criterion_3_wronskian_identity(params):
    q = params.q
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        k = complex(rng.uniform(0.2, 3.0), rng.uniform(-0.5, 0.1))
        r = rng.uniform(0.05, 60.0)
        jv = bs.jost_value(params, k, r, normalized=False)
        w = jv.f_plus * jv.f_minus_r - jv.f_minus * jv.f_plus_r
        expected = -2j * k * (k**2 - q**2) ** 4
        worst = max(worst, abs(w - expected) / abs(expected))
    assert worst < 1e-8

    jv = bs.jost_value(params, q, 2.0, normalized=False)
    w_q = jv.f_plus * jv.f_minus_r - jv.f_minus * jv.f_plus_r
    scale = abs(jv.f_plus * jv.f_minus_r) + abs(jv.f_minus * jv.f_plus_r)
    assert abs(w_q) < 1e-10 * scale
    print(f"\n[PASS] criterion 3: Wronskian identity, worst rel {worst:.2e} "
          f"over 100 draws; |W(q)|/scale = {abs(w_q)/scale:.2e}")


def test_criterion_4_schrodinger_residuals(params, config, psi_b, schrodinger_residual):
    grid = np.arange(0.1, 50.0, 1e-3)
    res_fplus = schrodinger_residual(
        params, 2.0, lambda r: bs.jost_value(params, 2.0, r, normalized=False).f_plus, grid
    )
    res_bic = schrodinger_residual(params, params.q, psi_b, grid)
    res_phi = schrodinger_residual(
        params, 1.5, lambda r: bs.regular_solution(config, 1.5, r)[0], grid
    )
    assert res_fplus < 1e-5
    assert res_bic < 1e-5
    assert res_phi < 1e-5
    print(f"\n[PASS] criterion 4: residuals f+ {res_fplus:.1e}, "
          f"bound {res_bic:.1e}, regular {res_phi:.1e} (< 1e-5)")


def test_criterion_5_cross_section_structure(config, landmarks):
    m1, m2 = landmarks.minima
    for m in (m1, m2):
        assert float(bs.cross_section(config, m)) < 1e-4 * (4 * math.pi / m**2)
    peak = landmarks.peak
    bound = 4 * math.pi / peak**2
    sigma_peak = float(bs.cross_section(config, peak))
    assert bound * (1 - 1e-3) <= sigma_peak <= bound
    assert peak == pytest.approx(1.0001, abs=5e-4)

    jump = bs.phase_jump(config, 0.99, 1.01)
    assert abs(abs(jump) - 2 * math.pi) < 0.2
    print(f"\n[PASS] criterion 5: minima at {m1:.8f}, {m2:.8f} (depth < 1e-4), "
          f"peak {peak:.6f} at {sigma_peak/bound:.6f} of bound, "
          f"|phase jump| {abs(jump):.4f} = 2pi - {2*math.pi-abs(jump):.4f}")


def test_criterion_6_background_fit(config, fit, landmarks, pinned_minima):
    from scipy.optimize import brentq

    lam_at_1 = fit.lambda0 + fit.lambda1
    assert lam_at_1 == pytest.approx(-0.8236, rel=0.10)

    # model minima against exact minima
    def model_num(k):
        y, z = bs.yz(fit.doublet, np.asarray([k]))
        lam = fit.lambda0 + fit.lambda1 * k
        num = (y - lam * z) * math.sin(k * fit.a) + (lam * y + z) * math.cos(k * fit.a)
        return float(num[0])

    for m in landmarks.minima:
        root = brentq(model_num, m - 2e-4, m + 2e-4, xtol=1e-14)
        assert abs(root - m) < 1e-4

    dev = bs.hadamard_residual(config, fit)
    assert dev < 0.15

    # round-trip oracle in place of asserting the coefficients directly
    lam0, lam1 = 1311.3931, -1312.2167
    minima = []
    for m in landmarks.minima:
        f = lambda k: ((lambda y, z, lam: float(
            ((y - lam * z) * math.sin(k * fit.a) + (lam * y + z) * math.cos(k * fit.a))[0]
        ))(*bs.yz(fit.doublet, np.asarray([k])), lam0 + lam1 * k))
        minima.append(brentq(f, m - 2e-4, m + 2e-4, xtol=1e-15))
    with pinned_minima(minima):
        refit = bs.fit_lambda(config, fit.doublet)
    assert refit.lambda0 == pytest.approx(lam0, rel=1e-2)
    assert refit.lambda1 == pytest.approx(lam1, rel=1e-2)
    print(f"\n[PASS] criterion 6: lambda(1) = {lam_at_1:.6f} (target -0.8236 +/- 10%), "
          f"minima matched < 1e-4, shape deviation {dev:.4f} < 0.15, round-trip ok")


def test_criterion_7_width_shrinks_with_cutoff(params):
    sw = bs.sweep_cutoff(params, [5000.0, 10000.0])
    r5, r10 = sw.rows
    assert r10.first.half_width < r5.first.half_width
    assert r10.second.half_width < r5.second.half_width
    print(f"\n[PASS] criterion 7: half-widths {r5.first.half_width:.3e} -> "
          f"{r10.first.half_width:.3e} and {r5.second.half_width:.3e} -> "
          f"{r10.second.half_width:.3e} as a doubles")


def test_criterion_8_bound_state_properties(params, psi_b, quadrature_norm_sq):
    # "zero at the origin": identically zero up to float rounding of the
    # closed form (the sin^2 cos term evaluates to ~1e-16 at r=0)
    at0 = abs(float(psi_b(0.0)))
    assert at0 < 1e-14

    # tail envelope: log-log slope of the oscillation maxima
    r = np.linspace(100.0, 1000.0, 200000)
    amp = np.abs(psi_b(r))
    peaks = argrelmax(amp)[0]
    slope = np.polyfit(np.log(r[peaks]), np.log(amp[peaks]), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)

    # closed-form norm, cross-checked against quadrature of psi^2
    norm_dev = abs(quadrature_norm_sq(params) / psi_b.norm**2 - 1.0)
    assert norm_dev < 1e-6
    print(f"\n[PASS] criterion 8: psi(0) = {at0:.1e}, tail slope {slope:.4f}, "
          f"norm^2 matches quadrature to {norm_dev:.1e}")


def test_criterion_9_algebraic_cross_checks(params, config, fit, w1_generic,
                                            potential_v4_log):
    # W1: expanded vs compact assembly
    r = np.linspace(0.0, 120.0, 4001)
    w_a = bs.w1_bundle(params, r).w1
    w_b = w1_generic(params, r)
    w1_dev = float(np.max(np.abs(w_a - w_b) / np.maximum(1.0, np.abs(w_a))))
    assert w1_dev < 1e-12

    # potential: ratio form vs log-derivative form
    v_a = bs.potential_v4(params, r)
    v_b = potential_v4_log(params, r)
    v_dev = float(np.max(np.abs(v_a - v_b)))
    assert v_dev < 1e-10 * float(np.max(np.abs(v_a)))

    # S-matrix unitarity on the real axis
    rng = np.random.default_rng(7)
    ks = rng.uniform(0.1, 5.0, size=50)
    ks = ks[np.abs(ks - params.q) > 1e-3]
    s_dev = max(abs(abs(bs.scattering_point(config, float(k)).S) - 1.0) for k in ks)
    assert s_dev < 1e-10

    # model phase/sigma identity
    kg = np.arange(0.995, 1.005, 1e-5)
    kg = kg[np.abs(kg - 1.0) > 1e-5]
    dm, sm = bs.model_phase_and_sigma(fit, kg)
    bound = 4 * np.pi / kg**2
    m_dev = float(np.max(np.abs(sm - bound * np.sin(dm) ** 2) / bound))
    assert m_dev < 1e-12
    print(f"\n[PASS] criterion 9: W1 routes {w1_dev:.1e}, V routes "
          f"{v_dev:.1e}, |S|-1 {s_dev:.1e}, model identity {m_dev:.1e}")
