import math

import numpy as np
import pytest
from scipy.optimize import brentq

import bicscatter as bs


def test_phase_data_closed_forms():
    """delta is the principal arctan of (alpha*q - beta); the gamma's are
    its first three q-derivatives."""
    p = bs.PotentialParams.bic()
    ph = bs.phase_data(p)
    assert ph.delta == pytest.approx(math.atan(1.0 * 1.0 - 3.0), abs=1e-15)
    assert -math.pi / 2 < ph.delta < math.pi / 2
    # alpha=1, beta=3, q=1: t=-2, D=5
    assert ph.gamma0 == pytest.approx(0.2, abs=1e-15)
    assert ph.gamma1 == pytest.approx(0.16, abs=1e-15)
    assert ph.gamma2 == pytest.approx(0.176, abs=1e-15)


def test_phase_data_matches_q_derivatives():
    # central differences of delta(q) against the closed-form gammas
    alpha, beta = 0.7, 1.9
    h = 1e-4

    def delta(q):
        return math.atan(alpha * q - beta)

    q0 = 1.3
    p = bs.PotentialParams(alpha=alpha, beta=beta, q=q0)
    ph = bs.phase_data(p)
    d1 = (delta(q0 + h) - delta(q0 - h)) / (2 * h)
    d2 = (delta(q0 + h) - 2 * delta(q0) + delta(q0 - h)) / h**2
    # the third difference needs a larger step: roundoff scales as eps/h^3
    h3 = 1e-3
    d3 = (delta(q0 + 2 * h3) - 2 * delta(q0 + h3) + 2 * delta(q0 - h3)
          - delta(q0 - 2 * h3)) / (2 * h3**3)
    assert ph.gamma0 == pytest.approx(d1, rel=1e-7)
    assert ph.gamma1 == pytest.approx(d2, rel=1e-6)
    assert ph.gamma2 == pytest.approx(d3, rel=1e-4)


def test_w1_value_at_origin():
    """W1(0) = 12 beta^2 / (1 + (alpha q - beta)^2)^2 for any parameters."""
    for alpha, beta, q in [(1.0, 3.0, 1.0), (0.5, 2.0, 1.5), (2.0, 1.0, 0.7)]:
        p = bs.PotentialParams(alpha=alpha, beta=beta, q=q)
        w = bs.w1_bundle(p, 0.0)
        expected = 12 * beta**2 / (1 + (alpha * q - beta) ** 2) ** 2
        assert float(w.w1) == pytest.approx(expected, rel=1e-13)
    # the default set lands on 108/25
    w0 = bs.w1_bundle(bs.PotentialParams.bic(), 0.0)
    assert float(w0.w1) == pytest.approx(4.32, abs=1e-12)


def test_w1_two_routes_agree(w1_generic):
    """Expanded polynomial-in-gamma assembly vs the compact trigonometric
    form, on a wide grid and for several parameter sets."""
    r = np.linspace(0.0, 120.0, 4001)
    for alpha, beta, q in [(1.0, 3.0, 1.0), (0.8, 2.1, 1.3), (1.5, 0.9, 0.6)]:
        p = bs.PotentialParams(alpha=alpha, beta=beta, q=q)
        a = bs.w1_bundle(p, r).w1
        b = w1_generic(p, r)
        scale = np.maximum(1.0, np.abs(a))
        assert np.max(np.abs(a - b) / scale) < 1e-12


def test_w1_derivatives_match_finite_differences():
    p = bs.PotentialParams.bic()
    h = 1e-5
    for r in (0.3, 1.7, 8.0, 33.3):
        w = bs.w1_bundle(p, r)
        wp = bs.w1_bundle(p, r + h).w1
        wm = bs.w1_bundle(p, r - h).w1
        fd1 = (wp - wm) / (2 * h)
        fd2 = (wp - 2 * w.w1 + wm) / h**2
        assert float(w.w1_r) == pytest.approx(float(fd1), rel=1e-7, abs=1e-7)
        assert float(w.w1_rr) == pytest.approx(float(fd2), rel=1e-4, abs=1e-3)


def test_w1_growth_is_quartic():
    # leading term ~ (q gamma)^4 * 16/..., so W1/r^4 tends to a constant
    p = bs.PotentialParams.bic()
    r = np.array([200.0, 400.0, 800.0])
    w = bs.w1_bundle(p, r).w1
    ratio = w / r**4
    assert np.all(ratio > 0)
    assert abs(ratio[2] - ratio[1]) < abs(ratio[1] - ratio[0])


def test_potential_two_forms_agree(potential_v4_log):
    p = bs.PotentialParams.bic()
    r = np.linspace(0.0, 60.0, 6001)
    va = bs.potential_v4(p, r)
    vb = potential_v4_log(p, r)
    assert np.max(np.abs(va - vb)) < 1e-10 * np.max(np.abs(va))


def test_potential_landmarks():
    p = bs.PotentialParams.bic()
    assert float(bs.potential_v4(p, 0.0)) == pytest.approx(19.5556, abs=1e-3)
    r = np.arange(1.0, 1.6, 1e-4)
    v = bs.potential_v4(p, r)
    i = int(np.argmax(v))
    assert v[i] == pytest.approx(4.43, abs=0.01)
    assert r[i] == pytest.approx(1.27, abs=0.02)


def test_potential_envelope_decays_like_one_over_r():
    """|V| * r stays bounded and does not die away: the tail oscillates
    under a 1/r envelope."""
    p = bs.PotentialParams.bic()
    r = np.linspace(100.0, 1000.0, 200001)
    env = np.abs(bs.potential_v4(p, r)) * r
    assert env.max() < 50.0
    assert env[r > 500.0].mean() > 1.0


def test_bic_constructor_ties_beta():
    p = bs.PotentialParams.bic(alpha=0.5, q=2.0)
    assert p.beta == 3.0 * 0.5 * 2.0
    assert p.bic_mode


def test_bic_mode_requires_exact_relation():
    # bic_mode is read from beta, not set: off the line by 1e-7 it is false
    assert not bs.PotentialParams(alpha=1.0, beta=3.0000001, q=1.0).bic_mode
    p = bs.PotentialParams(alpha=1.0, beta=3.0, q=1.0)
    assert p.bic_mode and p == bs.PotentialParams.bic()


def test_parameter_validation():
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams(alpha=1.0, beta=3.0, q=0.0)
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams(alpha=1.0, beta=3.0, q=-1.0)
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams(alpha=1.0, beta=0.0, q=1.0)
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams(alpha=math.nan, beta=3.0, q=1.0)


def test_params_accept_numpy_scalars_and_reject_bools():
    p = bs.PotentialParams.bic(alpha=np.float32(1.3), q=np.int64(1))
    assert type(p.alpha) is float and type(p.beta) is float and type(p.q) is float
    assert p.beta == 3.0 * p.alpha * p.q
    assert bs.PotentialParams.bic(alpha=np.int64(1)) == bs.PotentialParams.bic()
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams.bic(alpha=True)
    with pytest.raises(bs.ValidationError):
        bs.PotentialParams(alpha=1.0, beta=3.0, q=True)


def test_negative_beta_is_refused_where_a_regular_potential_is_needed():
    # beta < 0 builds parameters (W1 can be plotted there), but V, the
    # bound state and the truncated problem refuse them by their values
    p = bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0)
    with pytest.raises(bs.SingularPotential):
        bs.potential_v4(p, np.linspace(0.0, 30.0, 3001))
    with pytest.raises(bs.NotBicMode):
        bs.bound_state(p)
    with pytest.raises(bs.ValidationError, match="bic-mode"):
        bs.TruncatedConfig(params=p, a=100.0)
    # on the bic line beta < 0 needs alpha < 0: N^2 < 0, alpha*q out of range
    p = bs.PotentialParams.bic(alpha=-1.0)
    assert p.beta == -3.0 and p.bic_mode
    with pytest.raises(bs.ValidationError, match="not finite and positive"):
        bs.bound_state(p)
    with pytest.raises(bs.ValidationError, match="W1 > 0 is proven"):
        bs.TruncatedConfig(params=p, a=100.0)
    assert bs.PotentialParams(alpha=1.0, beta=3.0, q=1.0) == bs.PotentialParams.bic()


def test_w1_sign_scan():
    """beta=-1 makes W1 cross zero (invalid potential); beta=5 keeps it
    positive. The scan returns sign-change brackets."""
    bad = bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0)
    brackets = bs.scan_w1_sign(bad, 30.0)
    assert len(brackets) >= 1
    for lo, hi in brackets:
        assert float(bs.w1_bundle(bad, lo).w1) * float(bs.w1_bundle(bad, hi).w1) < 0

    good = bs.PotentialParams(alpha=1.0, beta=5.0, q=1.0)
    assert bs.scan_w1_sign(good, 30.0) == []


@pytest.mark.parametrize("r_max", [math.inf, math.nan, 1e12, -1.0])
def test_w1_scan_refuses_unbounded_or_negative_ranges(r_max):
    # no grid for an infinite, NaN or negative range (an empty bracket list
    # would read as a positivity certificate), and none of 1e14 points
    with pytest.raises(bs.ValidationError):
        bs.scan_w1_sign(bs.PotentialParams.bic(), r_max)


def test_w1_coefficient_overflow_is_a_validation_error():
    # t**4 of the W1 table overflows at t = alpha*q - beta = 1e160
    p = bs.PotentialParams(alpha=1.0, beta=-1e160, q=1.0)
    with pytest.raises(bs.ValidationError, match="overflow at alpha=1.0, beta=-1e"):
        bs.w1_bundle(p, 1.0)


@pytest.mark.parametrize("call", [
    lambda p, config: bs.potential_v4(p, [1.0, math.nan]),
    lambda p, config: bs.potential_v4(p, 1e60),  # W1 is finite there, W1^2 is not
    lambda p, config: bs.w1_bundle(p, math.nan),
    lambda p, config: bs.jost_value(p, 2.0, math.nan),
    lambda p, config: bs.regular_solution(config, 1.3, math.nan),
    lambda p, config: bs.bound_state(p)(math.inf),
], ids=["v4-nan", "v4-1e60", "w1-nan", "jost-nan", "regular-nan", "bound-inf"])
def test_non_finite_closed_forms_raise(params, config, call):
    # each returned NaN without an error
    with pytest.raises(bs.ValidationError, match="alpha=1.0, beta=3.0, q=1.0"):
        call(params, config)


@pytest.mark.parametrize("call", [
    lambda p: bs.w1_bundle(p, -1.0),
    lambda p: bs.bound_state(p)(-1.0),
    lambda p: bs.uv_bundle(p, 1.0, -1.0),
    lambda p: bs.potential_v4(p, [-2.0, -1.0]),
    lambda p: bs.uv_bundle(p, 1.0, [1.0, math.nan]),
    lambda p: bs.uv_bundle(p, 1.0, math.inf),
], ids=["w1", "bound", "uv", "v4", "uv-nan", "uv-inf"])
def test_radii_off_the_half_line_raise_validation_error(params, call):
    # the first three and uv-nan returned values with no error (uv-inf with
    # a RuntimeWarning); v4 raised SingularPotential, a NumericalError, for
    # an input out of the domain
    with pytest.raises(bs.ValidationError, match="alpha=1.0, beta=3.0, q=1.0: r must be "
                                                 "nonnegative and finite"):
        call(params)


def test_singular_potential_raises():
    bad = bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0)
    r = np.linspace(0.0, 30.0, 30001)
    with pytest.raises(bs.SingularPotential):
        bs.potential_v4(bad, r)
    # a scalar r on the zero of W1 near 0.0245875 meets the pointwise
    # floor, as no sign change between samples can show it
    zero = brentq(lambda x: float(bs.w1_bundle(bad, x).w1), 0.02, 0.03, xtol=1e-300)
    with pytest.raises(bs.SingularPotential, match="W1 vanishes near r = 0.0245875"):
        bs.potential_v4(bad, zero)
