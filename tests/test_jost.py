import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicscatter as bs


@pytest.mark.parametrize("alpha,beta,q", [
    (1.0, 3.0, 1.0),
    (0.8, 2.1, 1.3),
    (1.5, 0.9, 0.6),
])
def test_uv_against_reference_transcription(alpha, beta, q, uv_reference):
    p = bs.PotentialParams(alpha=alpha, beta=beta, q=q)
    r = np.array([0.0, 0.3, 1.0, 2.5, 7.0, 31.0])
    for k in (2.0, 1.5, 0.35, 1.2 - 0.3j, 0.4 + 0.05j):
        b = bs.uv_bundle(p, k, r)
        u_ref, v_ref = uv_reference(k, r, p.q, bs.phase_data(p))
        scale = np.maximum(1.0, np.abs(u_ref))
        assert np.max(np.abs(b.u - u_ref) / scale) < 1e-12
        assert np.max(np.abs(b.v - v_ref) / scale) < 1e-12


@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.3, 3.0), (3.0, 0.3)])
def test_uv_against_mpmath_oracle(alpha, q, uv_oracle):
    """u, v, u_r, v_r against the display-form closed form at 60 digits,
    out to r = 5000 and at complex k one doublet spacing from q."""
    p = bs.PotentialParams.bic(alpha=alpha, q=q)
    worst = 0.0
    with mpmath.workdps(60):
        for r in (0.0, 1.0, 300.0, 5000.0):
            for k in (q + 0.3, q - 0.2 + 0.01j, q / 2, q + math.pi / 5000 - 0.9j / 5000):
                b = bs.uv_bundle(p, k, r)
                for got, want in zip((b.u, b.v, b.u_r, b.v_r), uv_oracle(p, k, r)):
                    want = complex(want)
                    worst = max(worst, abs(complex(got) - want) / abs(want))
    assert worst < 1e-10


def test_v_vanishes_at_zero_momentum():
    p = bs.PotentialParams.bic()
    r = np.linspace(0.0, 20.0, 101)
    b = bs.uv_bundle(p, 0.0, r)
    assert np.max(np.abs(b.v)) < 1e-14 * max(1.0, np.max(np.abs(b.u)))


def test_uv_real_for_real_k():
    p = bs.PotentialParams.bic()
    b = bs.uv_bundle(p, 1.7, np.linspace(0.1, 10.0, 50))
    assert np.all(np.isreal(b.u)) and np.all(np.isreal(b.v))


def test_uv_conjugation_symmetry():
    # coefficients are real polynomials in k, so u(conj k) = conj(u(k))
    p = bs.PotentialParams.bic()
    r = np.array([0.5, 2.0, 9.0])
    k = 1.1 - 0.2j
    b = bs.uv_bundle(p, k, r)
    bc = bs.uv_bundle(p, np.conj(k), r)
    assert np.allclose(bc.u, np.conj(b.u), rtol=1e-13, atol=0)
    assert np.allclose(bc.v, np.conj(b.v), rtol=1e-13, atol=0)


def test_uv_derivatives_match_finite_differences():
    p = bs.PotentialParams.bic()
    h = 1e-6
    for k in (2.0, 0.9 - 0.1j):
        for r in (0.4, 3.3, 12.0):
            b = bs.uv_bundle(p, k, r)
            bp = bs.uv_bundle(p, k, r + h)
            bm = bs.uv_bundle(p, k, r - h)
            assert complex(b.u_r) == pytest.approx((complex(bp.u) - complex(bm.u)) / (2 * h), rel=1e-7)
            assert complex(b.v_r) == pytest.approx((complex(bp.v) - complex(bm.v)) / (2 * h), rel=1e-7)


def test_outgoing_asymptotics():
    """The flux-normalized outgoing solution tends to a pure plane wave:
    F+ e^{-ikr} -> 1 far out."""
    p = bs.PotentialParams.bic()
    jv = bs.jost_value(p, 2.0, 5000.0)
    assert abs(jv.F_plus * np.exp(-2.0j * 5000.0) - 1.0) < 1e-2


def test_wronskian_identity_spot():
    p = bs.PotentialParams.bic()
    q = p.q
    for k, r in [(1.5, 3.0), (0.4, 11.0), (2.3 - 0.2j, 0.7)]:
        jv = bs.jost_value(p, k, r, normalized=False)
        w = jv.f_plus * jv.f_minus_r - jv.f_minus * jv.f_plus_r
        expected = -2j * k * (k**2 - q**2) ** 4
        assert abs(w - expected) < 1e-10 * abs(expected)


def test_wronskian_vanishes_at_coalescence():
    p = bs.PotentialParams.bic()
    r = 2.0
    jv = bs.jost_value(p, p.q, r, normalized=False)
    w = jv.f_plus * jv.f_minus_r - jv.f_minus * jv.f_plus_r
    scale = abs(jv.f_plus) * abs(jv.f_minus_r) + abs(jv.f_minus) * abs(jv.f_plus_r)
    assert abs(w) < 1e-10 * scale


def test_solutions_coalesce_at_k_equals_q():
    """Approaching k=q, e^{i delta} f+ and e^{-i delta} f- merge into the
    same (normalizable) solution; the difference shrinks linearly."""
    p = bs.PotentialParams.bic()
    delta = bs.phase_data(p).delta
    r = np.array([0.3, 1.0, 2.5])

    def gap(offset):
        jv = bs.jost_value(p, p.q + offset, r, normalized=False)
        diff = jv.f_plus * np.exp(1j * delta) - jv.f_minus * np.exp(-1j * delta)
        return np.max(np.abs(diff)) / np.max(np.abs(jv.f_plus))

    assert gap(1e-4) < 1e-3
    assert gap(-1e-4) < 1e-3
    assert gap(1e-4) < 0.5 * gap(1e-3)


def test_coalesced_solution_is_the_trapped_state():
    # at k=q exactly, f± equal 4q^2 e^{∓i delta} times the trapped-state
    # profile, for any parameter set on the constraint line
    for p in (bs.PotentialParams.bic(), bs.PotentialParams.bic(alpha=0.7, q=1.3)):
        ph = bs.phase_data(p)
        raw = bs.BoundState(params=p, phase=ph, norm=1.0)
        r = np.array([0.2, 0.9, 3.1, 14.0])
        jv = bs.jost_value(p, p.q, r, normalized=False)
        target_plus = 4 * p.q**2 * np.exp(-1j * ph.delta) * raw.raw(r)
        target_minus = 4 * p.q**2 * np.exp(1j * ph.delta) * raw.raw(r)
        scale = np.max(np.abs(target_plus))
        assert np.max(np.abs(jv.f_plus - target_plus)) < 1e-10 * scale
        assert np.max(np.abs(jv.f_minus - target_minus)) < 1e-10 * scale


def test_flux_normalization_blocked_at_singular_point():
    p = bs.PotentialParams.bic()
    for k in (1.0, -1.0, np.array([1.5, 1.0])):
        with pytest.raises(bs.NearSpectralSingularity):
            bs.jost_value(p, k, 2.0)
    # raw solutions remain available
    jv = bs.jost_value(p, 1.0, 2.0, normalized=False)
    assert jv.F_plus is None and jv.F_minus is None
    assert np.isfinite(jv.f_plus)
    # one ulp away everything works
    jv2 = bs.jost_value(p, math.nextafter(1.0, 2.0), 2.0)
    assert np.isfinite(jv2.F_plus) and np.isfinite(jv2.F_minus)


def _near_pole_errors(p, k, r, uv_oracle):
    """(error of F+-, error of f+-) at (k, r), each the larger relative
    error of the pair against 60-digit u, v (W1(r) is the library's float)."""
    jv = bs.jost_value(p, k, r)
    w1 = float(bs.w1_bundle(p, r).w1)
    with mpmath.workdps(60):
        u, v, _, _ = uv_oracle(p, k, r)
        kk, q = mpmath.mpf(k), mpmath.mpf(p.q)
        f = (u + 1j * v) * mpmath.exp(1j * kk * r) / w1
        f_norm, f = complex(f / (kk * kk - q * q) ** 2), complex(f)
    return tuple(max(abs(got_p - want), abs(got_m - want.conjugate())) / abs(want)
                 for got_p, got_m, want in ((jv.F_plus, jv.F_minus, f_norm),
                                            (jv.f_plus, jv.f_minus, f)))


@pytest.mark.parametrize("r", [2.0, 20.0])
@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.5, 2.0), (1.3, 0.7)])
def test_flux_normalized_jost_near_the_pole_against_oracle(alpha, q, r, uv_oracle):
    """F+- at k = q (1 + 10^-j), j = 6 to 15: measured within 5.1e-15 of
    60-digit arithmetic. With k^2 - q^2 formed as k*k - q*q they were off
    by 1e-8 at j = 8, where a guard band |k^2 - q^2| < 1e-8 ended, and by
    4e-2 at (1.3, 0.7), j = 15."""
    p = bs.PotentialParams.bic(alpha=alpha, q=q)
    for j in range(6, 16):
        assert _near_pole_errors(p, q * (1.0 + 10.0**-j), r, uv_oracle)[0] <= 1e-14


@pytest.mark.envelope
@settings(max_examples=100, deadline=None)
@given(log_alpha=st.floats(math.log(0.3), math.log(3.0)),
       log_q=st.floats(math.log(0.3), math.log(3.0)), j=st.integers(6, 15),
       r=st.sampled_from([2.0, 20.0]))
def test_flux_normalization_loses_nothing_near_the_pole(log_alpha, log_q, j, r, uv_oracle):
    """Over the envelope, dividing by (k^2 - q^2)^2 at k = q (1 + 10^-j)
    adds at most a few rounding errors to those of the unnormalized f+-
    (measured up to 2.1 eps over 400 draws; f+- themselves are within
    3e-14 at r = 20)."""
    q = math.exp(log_q)
    p = bs.PotentialParams.bic(alpha=math.exp(log_alpha), q=q)
    normalized, raw = _near_pole_errors(p, q * (1.0 + 10.0**-j), r, uv_oracle)
    assert normalized <= raw + 8.0 * np.finfo(float).eps


def test_bound_state_norm_squared(psi_b):
    # the closed-form norm for alpha=1, q=1 is 10/3
    assert psi_b.norm**2 == pytest.approx(10.0 / 3.0, rel=1e-8)


def test_bound_state_normalization_consistency(params, psi_b, quadrature_norm_sq):
    # the normalized state integrates to one by quadrature
    assert quadrature_norm_sq(params) / psi_b.norm**2 == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("alpha,q", [
    (1.0, 1.0), (0.3, 0.3), (0.3, 3.0), (3.0, 0.3), (2.9, 2.9), (3.0, 3.0),
])
def test_bound_state_norm_matches_quadrature(alpha, q, quadrature_norm_sq):
    # closed form 2 q^2 (1 + 4 alpha^2 q^2) / (3 alpha) across the envelope,
    # including alpha = q = 3 where N^2 = 650
    p = bs.PotentialParams.bic(alpha=alpha, q=q)
    norm_sq = bs.bound_state(p).norm ** 2
    assert norm_sq == pytest.approx(2 * q**2 * (1 + 4 * alpha**2 * q**2) / (3 * alpha),
                                    rel=1e-14)
    assert quadrature_norm_sq(p) == pytest.approx(norm_sq, rel=1e-9)


def test_bound_state_zero_at_origin(psi_b):
    assert abs(float(psi_b(0.0))) < 1e-14


@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.5, 2.0), (1.3, 0.7)])
def test_bound_state_is_exactly_zero_at_the_origin(alpha, q):
    # the closed form cancels there to rounding (3.1e-16, 1.2e-15 and
    # -1.4e-16 of raw at these parameters), as Phi's does at r = 0
    psi = bs.bound_state(bs.PotentialParams.bic(alpha=alpha, q=q))
    assert psi.raw(0.0) == 0.0 and psi(0.0) == 0.0
    raw = psi.raw(np.array([0.0, 1.0]))
    assert raw[0] == 0.0 and raw[1] != 0.0


def test_bound_state_takes_a_list(psi_b):
    # as potential_v4 and w1_bundle do
    assert psi_b([0.5, 1.0]).tolist() == psi_b(np.array([0.5, 1.0])).tolist()


def test_bound_state_requires_constraint():
    p = bs.PotentialParams(alpha=1.0, beta=5.0, q=1.0)
    with pytest.raises(bs.NotBicMode):
        bs.bound_state(p)


@pytest.mark.parametrize("params", [
    # the bic line at alpha < 0 (so beta < 0): N^2 < 0
    bs.PotentialParams(alpha=-1.0, beta=-3.0, q=1.0),
    # q^2 overflows: N^2 = inf
    bs.PotentialParams.bic(alpha=1e-155, q=1e155),
])
def test_bound_state_refuses_a_norm_that_is_not_finite_and_positive(params):
    with pytest.raises(bs.ValidationError, match="alpha=.*q="):
        bs.bound_state(params)


def test_outgoing_solution_satisfies_equation(schrodinger_residual):
    p = bs.PotentialParams.bic()
    grid = np.arange(0.1, 50.0, 1e-3)
    res = schrodinger_residual(
        p, 2.0, lambda r: bs.jost_value(p, 2.0, r, normalized=False).f_plus, grid
    )
    assert res < 1e-5


def test_trapped_state_satisfies_equation(params, psi_b, schrodinger_residual):
    grid = np.arange(0.1, 50.0, 1e-3)
    res = schrodinger_residual(params, params.q, psi_b, grid)
    assert res < 1e-5


def test_residual_rejects_perturbed_state(params, psi_b, schrodinger_residual):
    # negative control: a small additive contamination must be seen
    grid = np.arange(0.1, 50.0, 1e-3)
    res = schrodinger_residual(
        params, params.q, lambda r: psi_b(r) + 0.01 * np.sin(r), grid
    )
    assert res > 1e-3


def test_residual_requires_uniform_grid(params, psi_b, schrodinger_residual):
    grid = np.array([0.1, 0.2, 0.35, 0.5])
    with pytest.raises(bs.ValidationError):
        schrodinger_residual(params, params.q, psi_b, grid)
