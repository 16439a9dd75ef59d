"""Scattering off the potential truncated at r = a.

Cutting the potential to zero beyond a finite radius a turns the embedded
bound state into zeros of the Jost function below the real axis: a fifth,
ultra-narrow zero k* beside the zero of order 4 of d + ig at k = q (Im k* =
-1.3349e-8 at alpha = q = 1, a = 100, in 60-digit arithmetic), and around
it a string of resonances whose innermost pair, the doublet, straddles q
(``resonances``). Everything observable about the truncated problem
reduces to two real-analytic functions of k,

    d(k) and g(k),

built from the closed forms at r = 0 and r = a: the Jost function is
F(-k) = pref * e^{ika} (d + ig) with pref = W1(0) / (h(k) W1(a)^2), the
S-matrix is S = e^{-2ika} (d - ig)/(d + ig), and the phase shift is

    delta_a(k) = -arctan[(d sin ka + g cos ka) / (d cos ka - g sin ka)].

d and g carry no 1/h factor, so the phase shift and cross section stay
finite even where the boundary-condition normalizer h(k) degenerates
(near k = q); there the F's are refused only where d +- ig are rounding
noise, the regular solution where |h| is below a threshold.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .darboux import PotentialParams, _checked_finite, _is_real, _overflow_checked, _w1, phase_data
from .errors import DegenerateNormalizer, MinimaNotFound, ValidationError
from .jost import _checked_k, _uv_at, _uv_closed_form, _uv_table, uv_bundle
from .numerics import _BLOCK, _bracketed_newton, _grid_count, _unwrap, _unwrap_grid

__all__ = [
    "TruncatedConfig",
    "ScatteringPoint",
    "regular_solution",
    "dg",
    "jost_function",
    "scattering_point",
    "phase_shift",
    "phase_shift_unwrapped",
    "cross_section",
    "sigma_landmarks",
    "phase_jump",
]

# |h(k)| below 1e-12 * scale(k) means the boundary-condition normalization
# of the regular solution has degenerated (h -> 0 like (k-q)^4 at the
# embedded-state wave number), where Phi's numerator cancels to about h r
H_DEGENERACY_RTOL = 1e-12
# F+- (and the Gamow N^2) are refused past this estimated relative rounding
_JOST_RTOL = 1e-6
_EPS = np.finfo(float).eps

# d and g are resolved where hypot(d, g) exceeds this multiple of its values at
# k = q and q +- _NOISE_OFFSET / a, which are pure rounding (see _noise_floor)
_NOISE_FACTOR = 1e3
_NOISE_OFFSET = 1e-4


# alpha*q range on which W1 > 0 for every r >= 0 is proven (bic line,
# beta = 3 alpha q): in x = q r, W1 depends on s = alpha*q alone, and
# tests/test_scattering.py::test_w1_is_positive_over_the_proven_s_range proves
# W1(x; s) > 0 for all x >= 0 and all s here (with beta a few ulps off 3s)
# by interval arithmetic on W1's own table
S_MIN = 1e-2
S_MAX = 1e2


@dataclass(frozen=True)
class _BoundaryData:
    """What d, g, G and G' need of the closed forms: the e2-coefficients of
    u and v/k at r = 0 (see ``jost._uv_coefficients``), W1(0), W1(a), and
    the polynomials of ``_g_polynomials``: G's four (``g``), from which d
    and g are read too, those of -i G' and the real-axis ``rows``.

    Every number is a builtin float, so a scalar k runs on Python float and
    complex arithmetic, at a fraction of numpy's per-scalar cost, while an
    array k still broadcasts. Sums and products round as numpy's do; a
    complex quotient may differ from numpy's in the last bits. ``rows`` is
    the one array: the (4, 5) coefficients of bP, aP, bQ - bP and aQ - aP,
    which ``_num_den`` multiplies onto the powers of e2.

    At r = 0 u and v keep the per-term Horner of ``darboux._closed_form``:
    on beta = 3 alpha q their e2^0 coefficients cancel there to rounding
    (to exact zeros at about one envelope draw in 40), and a reordered sum
    such as a dot product of the table with the basis values leaves
    residues 2 to 4 times larger, which the Gamow N^2 near q inherits."""

    at_0: list
    w1_0: float
    w1_a: float
    g: tuple
    g_prime: tuple
    rows: np.ndarray


def _boundary_values(params: PotentialParams, a: float):
    """(at_0, at_a, W1(0), [W1(a), W1'(a)]) in builtin floats: the lists of
    ``jost._uv_coefficients`` at r = 0, and at r = a with r-derivatives.

    Scalar evaluations of one u, v table and of W1's, at order 0 for r = 0
    and 1 for r = a, bit for bit those on the array [0, a]; ValidationError
    where a coefficient overflows or W1 is not finite (``darboux._w1``). A u
    or v that overflows comes back as inf or nan, without a warning, and
    TruncatedConfig's finiteness check refuses it."""
    pd = phase_data(params)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _overflow_checked(_uv_table, params, pd, 0)
        (at_0,) = _uv_closed_form(params, pd, table, 0.0, 0)
        at_a = _uv_closed_form(params, pd, table, a, 1)
    (w1_0,) = _w1(params, 0.0, 0)
    return (at_0.tolist(), [c.tolist() for c in at_a], float(w1_0),
            [float(w) for w in _w1(params, a, 1)])


def _mul(c1, c2):
    """The product of two coefficient lists as its 5 coefficients of degree
    0 to 4, each summed in ascending order of c1's index."""
    out = [0.0] * 5
    for i, x in enumerate(c1):
        for j, y in enumerate(c2[:5 - i]):
            out[i + j] += x * y
    return out


def _e2_derivative(c):
    """The 5 coefficients of the e2-derivative of a polynomial of degree 4."""
    return [c[1], 2.0 * c[2], 3.0 * c[3], 4.0 * c[4], 0.0]


def _g_polynomials(at_0, at_a, w1_a, q: float, a: float):
    """(g, g_prime, rows): three groups of four real polynomials in
    e2 = k^2 - q^2 of degree at most 4, the first two as lists of 5
    builtin floats.

    Write u = U, v = kV at r = 0 and v = k V_a at r = a, all polynomials in
    e2 (``jost._uv_coefficients``, at r = a with their r-derivatives), and
    with (W, W') = w1_a = (W1(a), W1'(a)) let

        X = (v_r W - v W') / k,   Y = u_r W - u W'     at r = a,
        X+ = X + 2Wu,             Y+ = Y - 2k^2 W V_a.

    Then d = (Y - kWv) A + k (X + Wu) B and g = -kW (u A + v B), with
    (A, B) = (U sin ka - kV cos ka, U cos ka + kV sin ka). Writing sin ka
    and cos ka as exponentials, G = e^{-ika} (d + ig) = P + e^{-2ika} Q,

        P = (U - ikV)(kX - iY) / 2 = i aP + k bP,
        Q = (U + ikV)(kX+ + iY+) / 2 = i aQ + k bQ,

        aP = -(U Y + k^2 V X) / 2,    bP = (U X - V Y) / 2,
        aQ = (U Y+ + k^2 V X+) / 2,   bQ = (U X+ - V Y+) / 2,

    with k^2 = e2 + q^2; g is (aP, bP, aQ, bQ), and rows is
    (bP, aP, bQ - bP, aQ - aP) as an array. As d + ig = e^{ika} G,

        d = k (bP + bQ) cos ka - (aP - aQ) sin ka,
        g = k (bP - bQ) sin ka + (aP + aQ) cos ka

    (``_dg``, from the values of g's four polynomials). With ' = d/dk and _e
    the derivative in e2, (i a + k b)' = (b + 2k^2 b_e) + ik (2 a_e), so

        G' = P' + e^{-2ika} (Q' - 2ia Q),
        P'         = x + iky,   x = bP + 2k^2 bP_e,            y = 2 aP_e,
        Q' - 2ia Q = x + iky,   x = bQ + 2k^2 bQ_e + 2a aQ,   y = 2 aQ_e - 2a bQ.

    As x + iky = i (i (-x) + k y), -i G' has the shape of G: g_prime is
    (-x, y) of P' followed by (-x, y) of Q' - 2ia Q.

    The inputs are the lists of ``_boundary_values``; v/k's e2^2
    coefficient is zero, so ``_mul`` cuts off only zeros. Each product sums
    its terms in np.convolve's order, but np.convolve takes them from the
    BLAS dot product, which fuses multiply-adds where the kernel has FMA:
    against it each coefficient moves by up to about 2 eps of the summed
    magnitudes of its terms (bit-identical on OpenBLAS's Sandybridge).
    """
    u0, v0 = at_0
    (ua, va), (ua_r, va_r) = at_a
    w, w_r = w1_a
    k2 = [q * q, 1.0]
    two_w, two_a = 2.0 * w, 2.0 * a
    x = [s * w - t * w_r for s, t in zip(va_r, va)]
    y = [s * w - t * w_r for s, t in zip(ua_r, ua)]
    x_plus = [s + two_w * t for s, t in zip(x, ua)]
    y_plus = [s - two_w * t for s, t in zip(y + [0.0, 0.0], _mul(k2, va))]
    a_p = [-0.5 * (s + t) for s, t in zip(_mul(u0, y), _mul(k2, _mul(v0, x)))]
    b_p = [0.5 * (s - t) for s, t in zip(_mul(u0, x), _mul(v0, y))]
    a_q = [0.5 * (s + t) for s, t in zip(_mul(u0, y_plus), _mul(k2, _mul(v0, x_plus)))]
    b_q = [0.5 * (s - t) for s, t in zip(_mul(u0, x_plus), _mul(v0, y_plus))]
    g_prime = ([-(s + 2.0 * t) for s, t in zip(b_p, _mul(k2, _e2_derivative(b_p)))],
               [2.0 * s for s in _e2_derivative(a_p)],
               [-(s + 2.0 * t) - two_a * u
                for s, t, u in zip(b_q, _mul(k2, _e2_derivative(b_q)), a_q)],
               [2.0 * s - two_a * t for s, t in zip(_e2_derivative(a_q), b_q)])
    rows = np.array([b_p, a_p, [t - s for s, t in zip(b_p, b_q)],
                     [t - s for s, t in zip(a_p, a_q)]])
    return (a_p, b_p, a_q, b_q), g_prime, rows


@dataclass(frozen=True)
class TruncatedConfig:
    """Potential parameters plus the truncation radius a.

    The truncated problem is only defined while the transformation itself
    is (W1 > 0 everywhere). On the bic line that holds for every r, hence
    every a, once alpha*q lies in [S_MIN, S_MAX], where it is proven once
    and for all (see ``S_MIN``); construction checks that range and
    evaluates W1 nowhere but at r = 0 and r = a. ``a`` may be any real
    scalar except a bool and is stored as a builtin float.

    Construction also evaluates the boundary data once: u and v and their
    r-derivatives depend on k only through e2 = k^2 - q^2 (and a factor k
    in v), so G is P + e^{-2ika} Q with P and Q built from four real
    polynomials in e2 (``_g_polynomials``), and every later d, g, G and G'
    is a short polynomial evaluation. u, v/k and W1 are evaluated at the
    scalar radii 0 and a (``_boundary_values``), with the bits of one
    evaluation on the array [0, a], and the polynomials are formed in
    builtin floats. The data is derived from (params, a) and takes no part
    in equality, hashing or repr; ``dataclasses.replace`` recomputes it for
    the new cutoff. Construction is refused (ValidationError) when a number
    stored is not finite: the products that build u, v and the polynomials
    can overflow with no OverflowError, as at (alpha, q, a) =
    (1e-30, 1e30, 1e-20), where alpha*q = 1.
    """

    params: PotentialParams
    a: float
    _boundary_data: _BoundaryData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_real(self.a) and math.isfinite(self.a) and self.a > 0):
            raise ValidationError(f"cutoff a must be positive and finite, got {self.a!r}")
        object.__setattr__(self, "a", float(self.a))
        if not self.params.bic_mode:
            raise ValidationError(
                "truncated scattering is defined on the bic-mode potential "
                "(beta = 3*alpha*q); use PotentialParams.bic()"
            )
        s = self.params.alpha * self.params.q
        if not S_MIN <= s <= S_MAX:
            raise ValidationError(
                f"alpha*q = {s!r} is outside [{S_MIN}, {S_MAX}], the range on which "
                "W1 > 0 is proven"
            )
        at_0, at_a, w1_0, w1_a = _boundary_values(self.params, self.a)
        bd = _BoundaryData(at_0, w1_0, w1_a[0],
                           *_g_polynomials(at_0, at_a, w1_a, self.params.q, self.a))
        # rows, (bP, aP, bQ - bP, aQ - aP), is finite only where G's four are
        if not all(np.isfinite(x).all() for x in (at_0, bd.rows, bd.g_prime, w1_0, w1_a)):
            raise ValidationError(f"boundary data at alpha*q = {s!r}, q = {self.params.q!r}, "
                                  f"a = {self.a!r} overflow: u, v, W1 or G's polynomials")
        object.__setattr__(self, "_boundary_data", bd)


@dataclass(frozen=True)
class ScatteringPoint:
    """All real-axis scattering quantities at one wave number."""

    k: float
    d: float
    g: float
    F_minus: complex
    F_plus: complex
    S: complex
    delta_a: float
    sigma: float


def _h_of(u2, k, q):
    """h(k) = u v' - v u' + k (u^2 + v^2), all at r = 0, from u2 = U2(0).

    Normalizes the regular solution's boundary condition. With
    u = U0 + U1 e2 + U2 e2^2 and v = k (V0 + V1 e2), e2 = k^2 - q^2
    (``jost._uv_coefficients``), h / k is a polynomial of degree 4 in e2
    whose only e2^4 term comes from u^2. h vanishes like e2^4 at the
    embedded-state wave number, so its lower coefficients are zero and

        h(k) = k U2(0)^2 (k^2 - q^2)^4

    exactly. The product is accurate to rounding; the combination cancels
    near k = q, where its rounding error is 1e-5 to 1e-4 of h at the
    a = 5000 doublet and grows like a^4.
    """
    e2 = (k - q) * (k + q)
    t = u2 * e2 * e2
    return k * (t * t)


def _polys_at(config: TruncatedConfig, polys, k):
    """(aP, bP, aQ, bQ) at k, the four polynomials in e2 = k^2 - q^2 of G
    or of -i G' (``_g_polynomials``).

    Horner's rule written out for 5 coefficients: ``darboux._horner``'s
    operations in its order, so its bits, at half its cost on a scalar."""
    q = config.params.q
    e = k * k - q * q
    ((a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4),
     (d0, d1, d2, d3, d4)) = polys
    return (((((a4 * e + a3) * e + a2) * e + a1) * e + a0),
            ((((b4 * e + b3) * e + b2) * e + b1) * e + b0),
            ((((c4 * e + c3) * e + c2) * e + c1) * e + c0),
            ((((d4 * e + d3) * e + d2) * e + d1) * e + d0))


def _pq(config: TruncatedConfig, polys, k):
    """(i aP + k bP, i aQ + k bQ) at k (``_polys_at``)."""
    a_p, b_p, a_q, b_q = _polys_at(config, polys, k)
    return 1j * a_p + k * b_p, 1j * a_q + k * b_q


def _g(config: TruncatedConfig, k):
    """G(k) = P + e^{-2ika} Q: only e^{-2ika} appears, which underflows
    harmlessly in the lower half-plane. Broadcasts over complex k."""
    p, q = _pq(config, config._boundary_data.g, k)
    return p + np.exp(-2j * k * config.a) * q


def _g_prime(config: TruncatedConfig, k):
    """G'(k), the exact k-derivative of ``_g``."""
    p, q = _pq(config, config._boundary_data.g_prime, k)
    return 1j * (p + np.exp(-2j * k * config.a) * q)


def _ka_rotation(x, y, ka):
    """(x sin ka + y cos ka, x cos ka - y sin ka), for a scalar or complex
    ka; real-axis grids go through ``_rotated`` instead."""
    s, c = np.sin(ka), np.cos(ka)
    return x * s + y * c, x * c - y * s


def _rotated(coeffs: np.ndarray, x: np.ndarray, half: np.ndarray, k=None):
    """(num, den) with den + i num = e^{i phi} (p + i p') + (r + i r') on
    one block of points, where phi = 2 half and

        (p, p', r - p, r' - p') = coeffs @ [1, x, x^2, ...],

    p and r - p multiplied by k when k is given. This is the real-axis
    kernel of the exact phase (``_num_den``) and of the model phase
    (``background._model_num_den``). With t = tan(half) and
    w = 2 / (1 + t^2), cos phi = w - 1 and sin phi = t w, so

        den = w (p - t p') + (r - p),    num = w (t p + p') + (r' - p').

    The polynomials are one matrix product over the powers of x, the phase
    is one tangent, and ``half`` is overwritten. A lone point is padded to
    two columns: numpy sends a one-column product to gemv, which sums in
    another order than gemm does on the same column inside a longer block.
    """
    m = x.size
    basis = np.empty((coeffs.shape[1], max(m, 2)))
    basis[0] = 1.0
    np.copyto(basis[1, :m], x, casting="same_kind")  # a complex x raises TypeError
    basis[1, m:] = 0.0
    for j in range(2, len(basis)):
        np.multiply(basis[j - 1], basis[1], out=basis[j])
    p_re, p_im, dq_re, dq_im = (coeffs @ basis)[:, :m]
    del basis
    if k is not None:
        p_re *= k
        dq_re *= k
    t = np.tan(half, out=half)
    w = np.multiply(t, t)
    w += 1.0
    np.divide(2.0, w, out=w)
    num = np.multiply(t, p_re)
    num += p_im
    num *= w
    num += dq_im
    p_im *= t
    den = np.subtract(p_re, p_im)
    den *= w
    den += dq_re
    return num, den


def _blockwise(fn, k):
    """fn on k for an fn of one 1-d block that returns a tuple of arrays
    shaped like it, ``_BLOCK`` points at a time into preallocated outputs
    shaped like k (numpy scalars for a scalar k).

    Outputs are bit-identical to fn on the whole array; what is alive at
    once is the outputs plus one block's temporaries.
    """
    flat = np.asarray(k).reshape(-1)
    if flat.size <= _BLOCK:
        out = fn(flat)
    else:
        out = None
        for start in range(0, flat.size, _BLOCK):
            part = fn(flat[start:start + _BLOCK])
            if out is None:
                out = tuple(np.empty(flat.size, dtype=p.dtype) for p in part)
            for o, p in zip(out, part):
                o[start:start + _BLOCK] = p
    return tuple(o.reshape(np.shape(k))[()] for o in out)


def _near_q(config: TruncatedConfig) -> Tuple[float, float, float]:
    """k = q and q +- 1e-4/a, where d, g and G' are rounding (see ``_noise_floor``)."""
    q, offset = config.params.q, _NOISE_OFFSET / config.a
    return q - offset, q, q + offset


def _dg_rounding_near_q(config: TruncatedConfig) -> float:
    """The largest hypot(d, g) over ``_near_q``."""
    return max(math.hypot(*dg(config, k)) for k in _near_q(config))


def _noise_floor(config: TruncatedConfig) -> float:
    """hypot(d, g) at or below which d, g (and num, den, their rotation)
    are rounding noise: ``_NOISE_FACTOR`` times the largest hypot(d, g) at
    k = q and q +- 1e-4/a (``_dg_rounding_near_q``).

    d + ig has a zero of order exactly 4 at k = q (the e2^4 of h; F(-q)
    is not zero), but its x^4 term, in x = (k - q) a, weighs about a^-3
    against the next: at leading order in 1/a, d + ig is e2 times the
    bracket of ``resonances._limit_root``, -(2/3) x^4 + O(x^5), so it falls
    like x^5 down to |x| ~ a^-3. At |x| <= 1e-4 its exact value is about
    1e-20 of its size at |x| ~ 1, so what is computed there is rounding.
    At q alone the rounding can be exactly zero (when the e2^0 coefficients
    at r = 0 come out as exact zeros, as at alpha = 2.4033, q = 1.0302),
    which would leave no floor at all.
    """
    return _NOISE_FACTOR * _dg_rounding_near_q(config)


def _principal_phase(num, den):
    """-arctan(num / den) on the principal branch (-pi/2, pi/2]."""
    raw = np.arctan2(num, den)
    return -(raw - math.pi * np.round(raw / math.pi))


def _sin2(num, den, k):
    """sin^2 delta = num^2 / (num^2 + den^2) with no arctan at the points
    k, overwriting num and den when they are arrays (den becomes
    num^2 + den^2). ValidationError at a point where num^2 + den^2 is not
    finite (``darboux._checked_finite``), as where it overflows;
    DegenerateNormalizer at one where it is 0 (d = g = 0 for the exact
    phase, as at k = q for some parameters). Both are read off one min and
    one max of num^2 + den^2, which cost what a test for zeros alone did."""
    num *= num
    den *= den
    den += num
    if den.size and not 0.0 < den.min() <= den.max() < math.inf:
        _checked_finite("num^2 + den^2 of tan delta is", (den,), k=k)
        at = float(np.ravel(k)[np.argmin(np.ravel(den))])
        raise DegenerateNormalizer(f"sin^2 delta at k = {at!r} is 0/0: the numerator and "
                                   "denominator of tan delta vanish there (for the exact "
                                   "phase, d = g = 0)")
    num /= den
    return num


def _sigma(k, num, den):
    """(4 pi / k^2) sin^2 delta; overwrites num and den, refuses a point as
    ``_sin2`` does and one where 4 pi / k^2 overflows (ValidationError)."""
    return _checked_finite("sigma is", ((4.0 * math.pi / np.asarray(k) ** 2)
                                        * _sin2(num, den, k),), k=k)[0]


def regular_solution(config: TruncatedConfig, k, r):
    """The solution Phi with Phi(0) = 0, Phi'(0) = 1, and its derivative.

    Valid on 0 <= r <= a (inside the truncated well the potential is the
    full closed form). Accepts complex k; broadcasts over r. Phi is exactly
    0 at r = 0, the boundary condition that defines it: the closed form
    there cancels u(k, 0) a1 + v(k, 0) a2 to rounding, which 1/h amplifies.

    Raises
    ------
    ValidationError
        If k is not finite, or r is outside [0, a] or W1 is not finite
        there (r a NaN), or Phi or Phi' is not finite.
    DegenerateNormalizer
        If |h(k)| < 1e-12 * max(1, |u(k,0)|^2 + |v(k,0)|^2).
    """
    _checked_k(k)
    r = np.asarray(r)
    if np.any(r < 0) or np.any(r > config.a):
        raise ValidationError("regular solution is defined on 0 <= r <= a")
    p = config.params
    u0, v0 = _uv_at(config._boundary_data.at_0, k, k * k - p.q * p.q)
    h = _h_of(config._boundary_data.at_0[0][2], k, p.q)
    scale = max(1.0, float(np.max(np.abs(u0) ** 2 + np.abs(v0) ** 2)))
    if np.min(np.abs(h)) < H_DEGENERACY_RTOL * scale:
        raise DegenerateNormalizer(
            f"|h(k)| = {float(np.min(np.abs(h))):.3e} at k = {k!r}: boundary-condition "
            "normalization degenerates (k too close to the embedded-state wave number)"
        )
    b = uv_bundle(p, k, r)
    w1, w1_r = _w1(p, r, 1)
    w10 = config._boundary_data.w1_0
    a1, a2 = _ka_rotation(u0, -v0, k * r)
    cu = b.u_r * w1 - b.u * w1_r - k * b.v * w1
    cv = b.v_r * w1 - b.v * w1_r + k * b.u * w1
    ph = np.where(r == 0.0, 0.0, (w10 / (h * w1)) * (b.u * a1 + b.v * a2))[()]
    ph_r = (w10 / (h * w1**2)) * (cu * a1 + cv * a2)
    return _checked_finite("Phi, Phi' are", (ph, ph_r), k=k, r=r)


def dg(config: TruncatedConfig, k):
    """The pair (d(k), g(k)); real for real k, polynomial-and-trig in k.

    d + ig carries every zero of the truncated problem's Jost function
    (the prefactor of F(-k) is zero-free), which is why the resonance
    search operates on it directly.

    A scalar k gives scalars, in Python arithmetic where k is a builtin; an
    array k is evaluated in blocks of ``_BLOCK`` points, so beyond the two
    outputs the peak memory is one block's temporaries, whatever the grid
    size. d and g are read from G's four polynomials (``_g_polynomials``),
    the ones the resonance search evaluates. Phases and cross sections do
    not go through d and g (see ``_num_den``).

    Raises
    ------
    ValidationError
        If k, or a point of an array k, is not finite, or d or g is not
        there: at large |k| (from about 4e30 at alpha = q = 1, a = 5000) or
        above the real axis (from a Im k of about 640 there).
    """
    if np.ndim(k) == 0:
        return _dg(config, k)
    return _blockwise(lambda kk: _dg(config, kk), k)


def _dg(config: TruncatedConfig, k):
    """(d, g) at k, unblocked, from the values of G's four polynomials
    (``_polys_at``) as in ``_g_polynomials``, and np.sin, np.cos of ka;
    ValidationError where k, d or g is not finite."""
    _checked_k(k)
    a_p, b_p, a_q, b_q = _polys_at(config, config._boundary_data.g, k)
    ka = k * config.a
    s, c = np.sin(ka), np.cos(ka)
    return _checked_finite("d, g are", (k * (b_p + b_q) * c - (a_p - a_q) * s,
                                        k * (b_p - b_q) * s + (a_p + a_q) * c), k=k)


def jost_function(config: TruncatedConfig, k) -> Tuple[complex, complex]:
    """(F(-k), F(k)) with the full prefactor W1(0) / (h(k) W1(a)^2).

    Returned wherever d +- ig are resolved, close to q too: at alpha = q = 1
    and a = 5000, k = 1.0001 gives -78.19 -+ 1215.16i. An array k, empty
    or not, gives complex arrays shaped like it, from one pass of ``dg``.

    Raises
    ------
    ValidationError
        If k, or a point of an array k, is not finite (``dg``) or is 0,
        where h(k) = 0 and the prefactor divides by it (``_jost_from_dg``),
        or where h(k) W1(a)^2 underflows to 0 (``_jost_prefactor``), or
        F+- are not finite.
    DegenerateNormalizer
        If F+- are rounding noise at k, or at a point of an array k
        (estimated relative rounding above 1e-6, ``_jost_from_dg``).
    """
    return _jost_from_dg(config, k, *dg(config, k))


def _jost_prefactor(config: TruncatedConfig, k):
    """W1(0) / (h(k) W1(a)^2), the zero-free factor of F(-k) / (e^{ika} (d + ig)).

    Not guarded for accuracy: h is the exact closed form, and what the
    prefactor multiplies decides it. ValidationError where h(k) W1(a)^2
    underflows to 0 in builtin floats; in numpy's, pref is then infinite
    and ``_jost_from_dg`` refuses the F+- it gives.
    """
    bd = config._boundary_data
    try:
        return bd.w1_0 / (_h_of(bd.at_0[0][2], k, config.params.q) * bd.w1_a**2)
    except ZeroDivisionError as exc:  # builtin floats; numpy's division gives inf
        raise ValidationError(f"F(+-k) are not formed at k = {k!r}, where h(k) W1(a)^2 "
                              "underflows to 0") from exc


def _phase_rounding(k, a: float, q: float = 0.0):
    """About 2 eps (|k| + 2q) a: the relative rounding that the phases k a
    and q a + delta bring into F+- (``_jost_rounding``) and into tan delta
    (``_checked_real_axis``)."""
    return 2.0 * _EPS * (abs(k) + 2.0 * q) * a


def _jost_rounding(config: TruncatedConfig, k, d_plus_ig, d_minus_ig, extra=0.0):
    """The estimated relative rounding of ``_jost_from_dg``'s F+-, plus ``extra``."""
    with np.errstate(divide="ignore"):
        noise = _dg_rounding_near_q(config) / np.maximum(abs(d_plus_ig), abs(d_minus_ig))
    return noise + extra + _phase_rounding(k, config.a, config.params.q)


def _jost_from_dg(config: TruncatedConfig, k, d, g, extra=0.0):
    """(F(-k), F(k)) = pref e^{+-ika} (d +- ig) from d, g at k and
    pref = W1(0) / (h(k) W1(a)^2): the one place F+- are formed.

    DegenerateNormalizer where their estimated relative rounding
    (``_jost_rounding``) is above ``_JOST_RTOL``. pref is a product, accurate
    to rounding however small h gets. d and g at and beside q, where d + ig
    vanishes to fourth order, are pure rounding (``_dg_rounding_near_q``);
    over max(|d + ig|, |d - ig|) they give the share lost to cancellation
    (at a root |d + ig| is the residual; on the real axis both are
    hypot(d, g)). Then come ``extra``, the caller's share, and about
    2 eps (|k| + 2q) a for the phases k a and q a + delta, summed in that
    order. With ``extra`` the noise of G' over |G'| it estimates the Gamow
    N^2: against 50-digit arithmetic it read 0.7 to 2 times the error where
    cancellation dominates (k within 1e-3 of q at a = 300 and 5000, error up
    to 0.3), above 1 wherever N^2 was noise, and 1.5 to 400 times the error
    at doublets with a up to 1e8, where the phases dominate. At the first
    k = q + x/a it accepts (x = 0.06 to 0.3, seven configs, a = 5000 to
    1e6) it read 0.5 to 2.8 times the 40-digit error of d + ig. k = 0,
    where h = 0 leaves pref undefined, raises ValidationError, and so do a
    pref whose denominator underflows (``_jost_prefactor``) and F+- that
    are not finite.
    """
    if (k == 0) if isinstance(k, (float, complex)) else not np.all(k):
        raise ValidationError("F(+-k) are not formed at k = 0, where h(k) = 0 and the "
                              "prefactor W1(0) / (h(k) W1(a)^2) divides by it")
    d_plus_ig, d_minus_ig = d + 1j * g, d - 1j * g
    rounding = _jost_rounding(config, k, d_plus_ig, d_minus_ig, extra)
    if not (rounding <= _JOST_RTOL).all():
        i = np.argmin(np.ravel(rounding <= _JOST_RTOL))
        raise DegenerateNormalizer(f"F(+-k) at k = {np.ravel(k)[i].item()!r} is resolved only "
                                   f"to {np.ravel(rounding)[i]:.1e} relative: d +- ig are noise")
    pref = _jost_prefactor(config, k)
    return _checked_finite("F(+-k) are", (pref * np.exp(1j * k * config.a) * d_plus_ig,
                                          pref * np.exp(-1j * k * config.a) * d_minus_ig), k=k)


def _real(k) -> np.ndarray:
    """k as an array, if its dtype is real (float or integer); ValidationError
    otherwise: a cast to float would drop the imaginary part of a complex k,
    and the real-axis kernels compare and multiply k as real. Every
    real-axis entry converts its k through here."""
    k = np.asarray(k)
    if k.dtype.kind not in "fiu":
        raise ValidationError(f"real-axis k must be real, got an array of dtype {k.dtype}")
    return k


def _checked_real_axis(k: np.ndarray, a: float, q: float = 0.0) -> None:
    """ValidationError unless the 1-d block k is real (``_real``), every
    point of it is finite and positive, by one min and one max (the phase
    is odd in k and steps at k = 0, and sigma = (4 pi / k^2) sin^2 delta is
    infinite there), and the block lies in the real-axis range: at its
    largest k the phases k a and q a + delta still resolve tan delta to
    ``_JOST_RTOL`` relative, the bound F+- are refused by
    (``_phase_rounding``; q = 0 for the model phase, whose only phase is
    k a). Against 50 digits the model phase was off by 0.1 to 0.5 times
    2 eps k a (5e-6 at k = 1.4e7, a = 5000)."""
    _real(k)
    if not k.size:
        return
    top = k.max()
    if not (0 < k.min() and top < math.inf):
        bad = k[np.argmin((k > 0) & (k < math.inf))]
        raise ValidationError(f"real-axis k = {float(bad)!r} is not finite and positive")
    rounding = _phase_rounding(top, a, q)
    if rounding > _JOST_RTOL:
        raise ValidationError(f"tan delta at k = {top.item()!r} is resolved only to "
                              f"{rounding:.1e} relative: k a = {top * a:.3e} has lost its digits")


def _num_den(config: TruncatedConfig, k: np.ndarray):
    """Numerator and denominator of tan(-delta_a) on one block of real k (a
    1-d array): sin^2 delta = num^2 / (num^2 + den^2).

    den + i num = e^{ika} (d + ig) = e^{2ika} P + Q (``_g_polynomials``),
    so the block takes one matrix product of ``_BoundaryData.rows`` over the
    powers of e2 and one tangent of ka (``_rotated``), with no d, g or
    second rotation on the way. Every real-axis phase and cross section
    passes through here, so this is where a block is refused unless each
    of its points is finite and positive and in the real-axis range
    (``_checked_real_axis``: at alpha = q = 1 the range ends at a of about
    7.5e8 for k = q and 6.8e8 for k = 1.3, and at k of about 4.5e5 for
    a = 5000), and where it is refused if num or den is not finite at one
    of them (``darboux._checked_finite``, one pass over each).
    """
    q = config.params.q
    _checked_real_axis(k, config.a, q)
    e2 = np.multiply(k, k, dtype=float)
    e2 -= q * q
    num_den = _rotated(config._boundary_data.rows, e2, np.multiply(k, config.a), k)
    return _checked_finite("num, den of tan delta are", num_den, k=k)


def _num_den_dk(config: TruncatedConfig, k: float):
    """((num, num'), (den, den')) at one real k, in Python complex arithmetic.

    den + i num = e^{ika} (d + ig) = e^{2ika} G, so with P, Q and the parts
    of G' of ``_g_polynomials``

        den + i num   = e^{2ika} P + Q,
        den' + i num' = e^{2ika} (G' + 2ia G)
                      = e^{2ika} P' + (Q' - 2ia Q) + 2ia (den + i num).

    The values agree with ``_num_den`` to rounding, not bit for bit.
    """
    p, q = _pq(config, config._boundary_data.g, k)
    dp, dq = _pq(config, config._boundary_data.g_prime, k)
    a = config.a
    e = cmath.rect(1.0, 2.0 * k * a)
    z = e * p + q
    w = 1j * (e * dp + dq) + 2j * a * z
    return (z.imag, w.imag), (z.real, w.real)


def phase_shift(config: TruncatedConfig, k):
    """Principal-value phase shift delta_a(k) in (-pi/2, pi/2].

    The underlying arctan is branch-ambiguous mod pi; use
    ``phase_shift_unwrapped`` for a continuous curve on a grid. Evaluated
    in blocks of ``_BLOCK`` points through ``_num_den``, which refuses
    (ValidationError) a point that is not finite and positive, or past the
    real-axis range (from k of about 4.5e5 at alpha = q = 1, a = 5000), or
    where num or den of tan delta is not finite.
    """
    return _blockwise(lambda kk: (_principal_phase(*_num_den(config, kk)),), k)[0]


def phase_shift_unwrapped(config: TruncatedConfig, k_grid: np.ndarray) -> np.ndarray:
    """Continuous delta_a along a monotone k grid.

    Unwraps the principal values mod pi, ``_BLOCK`` points at a time, each
    evaluated once (``numerics._unwrap_grid``): beyond the output only one
    block of principal values is alive.

    Raises
    ------
    ValidationError
        If the grid is not real, is not 1-d, has fewer than two points, or
        any step is not finite and positive (a NaN or an infinity in it
        included).
    UnwrapAmbiguity
        At the first adjusted step, in grid order, above 0.45 pi: the grid
        is too coarse to track the phase through the resonances (their
        half-widths are ~1e-4 at a = 5000, so dk must be well below that).
    """
    k_grid = _checked_grid(k_grid)
    return _unwrap_grid(lambda i, j: _principal_phase(*_num_den(config, k_grid[i:j])), k_grid)


def _checked_grid(k_grid) -> np.ndarray:
    """k_grid as a float array, if it is real (``_real``), 1-d with at least
    two points, finite and strictly increasing; ValidationError otherwise. A NaN fails the
    step test (run ``_BLOCK`` steps at a time), and an increasing grid can
    hold an infinity only at an end."""
    k_grid = np.asarray(_real(k_grid), dtype=float)
    if (k_grid.ndim != 1 or k_grid.size < 2 or not np.isfinite(k_grid[[0, -1]]).all()
            or not all(np.all(np.diff(k_grid[start:start + _BLOCK + 1]) > 0)
                       for start in range(0, k_grid.size - 1, _BLOCK))):
        raise ValidationError("k_grid must be finite and strictly increasing, length >= 2")
    return k_grid


def cross_section(config: TruncatedConfig, k):
    """sigma(k) = (4 pi / k^2) sin^2 delta_a, computed branch-free.

    Evaluated in blocks of ``_BLOCK`` points through ``_num_den``: on 10^6
    points the peak allocation stays below three output-sized arrays.

    Raises
    ------
    ValidationError
        At a point that is not finite and positive, or past the real-axis
        range, or where num or den of tan delta (``_num_den``),
        num^2 + den^2 (``_sin2``) or 4 pi / k^2 is not finite. Inside the
        range num^2 + den^2 overflows only at small a (at alpha = q = 1 for
        a <= 1e-8, from k of about 8e16 at a = 1e-10).
    DegenerateNormalizer
        At a point where d = g = 0 (``_sin2``), where sin^2 delta is 0/0.
    """
    return _blockwise(lambda kk: (_sigma(kk, *_num_den(config, kk)),), k)[0]


def scattering_point(config: TruncatedConfig, k: float) -> ScatteringPoint:
    """Bundle every real-axis quantity at one k (refused where ``jost_function`` is).

    delta_a and sigma are those of ``phase_shift`` and ``cross_section`` at
    k, bit for bit: the point goes through their kernel (``_num_den``),
    which pads a lone point to the product of a longer block. S is
    F(k) / F(-k) = e^{-2ika} (d - ig) / (d + ig), from the F+- returned.

    Raises
    ------
    ValidationError
        If k is not real, finite and positive.
    DegenerateNormalizer
        Where ``jost_function`` raises it.
    """
    k = float(_real(k))
    block = np.array([k])
    num, den = _num_den(config, block)
    d, g = dg(config, k)
    f_minus, f_plus = _jost_from_dg(config, k, d, g)
    return ScatteringPoint(
        k=k,
        d=float(d),
        g=float(g),
        F_minus=complex(f_minus),
        F_plus=complex(f_plus),
        S=complex(f_plus / f_minus),
        delta_a=float(_principal_phase(num, den)[0]),
        sigma=float(_sigma(block, num, den)[0]),
    )


def _window_size(k_lo: float, k_hi: float, dk: float) -> int:
    """The number of points of the grid k_lo, k_lo + dk, ... through k_hi,
    that is of np.arange(k_lo, k_hi + dk, dk), for finite k_lo < k_hi and
    a finite dk > 0, and at most ``numerics._MAX_GRID_POINTS`` of them;
    ValidationError otherwise."""
    if not (-math.inf < k_lo < k_hi < math.inf and 0 < dk < math.inf):
        raise ValidationError(
            f"need finite k_lo < k_hi and finite dk > 0, got k_lo = {k_lo!r}, "
            f"k_hi = {k_hi!r}, dk = {dk!r}"
        )
    return _grid_count(k_lo, k_hi + dk, dk)


def _window_points(k_lo: float, dk: float, start: int, stop: int) -> np.ndarray:
    """Points start, ..., stop - 1 of the ``_window_size`` grid, bit for bit
    those of np.arange, which sets point 1 to k_lo + dk and point i > 1 to
    k_lo + i ((k_lo + dk) - k_lo)."""
    k = np.arange(start, stop, dtype=float)
    k *= (k_lo + dk) - k_lo
    k += k_lo
    if start <= 1 < stop:
        k[1 - start] = k_lo + dk
    return k


def _scan(config: TruncatedConfig, n: int, points):
    """(k, num, den) over the n points that points(start, stop) gives,
    ``_BLOCK`` at a time through ``_num_den``: the one scan of every
    real-axis window (``_window_scan``) and of a given grid. Each block
    after the first is led by the previous block's last point and its num
    and den, so that brackets and steps across a block end are kept while
    each point goes through ``_num_den`` once, which refuses a block with
    a point that is not finite and positive (only a given grid can hold
    one) before it is evaluated."""
    end = ((), ())
    for start in range(0, n, _BLOCK):
        k = points(max(start - 1, 0), min(start + _BLOCK, n))
        # the lead point, if any, is end's; the rest are new
        num, den = (np.concatenate((e, f)) for e, f in zip(end, _num_den(config, k[len(end[0]):])))
        end = [num[-1]], [den[-1]]  # copies: a consumer may overwrite num and den
        yield k, num, den


def _window_scan(config: TruncatedConfig, k_lo: float, k_hi: float, dk: Optional[float]):
    """(floor, blocks of (k, num, den, keep)): the window k_lo, k_lo + dk,
    ... through k_hi (``_window_points``), dk defaulting to pi/(64 a),
    scanned (``_scan``) once ``_window_size`` has checked it. A window that
    reaches k <= 0 is refused: the phase is odd in k and steps there, so
    neither its jump, its sigma landmarks nor its model deviation are
    those of the scattering problem.

    keep is each block's noise mask, num^2 + den^2 > floor^2 with floor the
    noise floor of hypot(d, g) (``_noise_floor``, read once per call), taken
    before a consumer overwrites num and den: false where
    num^2 + den^2 = d^2 + g^2 is rounding, in the band around k = q. It is
    the one rule by which every window (of ``sigma_landmarks``,
    ``phase_jump`` and ``background.hadamard_residual``) drops that band."""
    if dk is None:
        dk = math.pi / (64.0 * config.a)
    n = _window_size(k_lo, k_hi, dk)
    if not k_lo > 0:
        raise ValidationError(f"the window [{k_lo!r}, {k_hi!r}] reaches k <= 0; "
                              "real-axis windows need k_lo > 0")
    floor = _noise_floor(config)
    blocks = _scan(config, n, functools.partial(_window_points, k_lo, dk))
    return floor, ((k, num, den, num * num + den * den > floor * floor) for k, num, den in blocks)


@dataclass(frozen=True)
class SigmaLandmarks:
    """Transmission-zero minima of sigma and the unitary peak between them."""

    minima: Tuple[float, ...]
    peak: Optional[float]


def sigma_landmarks(config: TruncatedConfig, k_lo: float, k_hi: float,
                    dk: Optional[float] = None) -> SigmaLandmarks:
    """Locate the sigma ~ 0 minima and the full-height peak on [k_lo, k_hi].

    Minima are the real zeros of the phase-shift numerator
    d sin ka + g cos ka (there sigma vanishes identically); the peak is the
    zero of the denominator, of largest sin^2 delta, between the outermost
    minima minima[0] and minima[-1] (there delta_a = pi/2 mod pi, so sigma
    touches 4 pi / k^2). Both are bracketed on a dk grid and refined by
    Newton on their exact k-derivatives (``_num_den_dk``), kept inside the bracket
    (``numerics._bracketed_newton``) and started from ``_num_den_dk`` at
    its ends, so that no bit of the BLAS kernel behind the grid's values
    reaches a landmark (``_refined``): each stops within about
    1e-14 + 4 eps k of the zero of the computed function, unless that
    function is rounding noise over a wider band around it. Only
    denominator brackets that reach into (minima[0], minima[-1]) are
    refined. The resonance structure scales with pi/a, so dk defaults to
    pi/(64 a), 64 cells per pi/a. In x = (k - q) a / pi the minima depend
    on alpha and q and settle only as a grows: alpha = q = 1 puts them at
    -0.453 and 0.831 at a = 100 and at -0.444 and 0.837 from a = 5000 on;
    alpha = q = 0.3 at -0.104, 2.365 and 2.536 at a = 100, where the
    closest pair is 11 cells apart. The grid is streamed (``_scan``): each
    block of ``_BLOCK`` points is scanned for sign changes and then
    dropped, so only the brackets and their end values are kept, whatever
    the number of points.

    d + ig also vanishes (removably, to fourth order) at the embedded-state
    wave number q, dragging both numerator and denominator through zero
    there. A bracket is discarded when it contains q, or when either end is
    outside the window's noise mask (``_window_scan``, the mask of
    ``phase_jump`` and ``background.hadamard_residual``): there
    num^2 + den^2 = d^2 + g^2 is at or below the square of the floor, 1e3
    times the largest hypot(d, g) at q and q +- 1e-4/a, which is pure
    rounding, so a sign change there is noise.

    Raises
    ------
    ValidationError
        If the window is not finite with 0 < k_lo < k_hi, dk is not finite
        and positive, or the grid would hold more than
        ``numerics._MAX_GRID_POINTS`` points.
    MinimaNotFound
        If fewer than two numerator zeros survive on the window.
    NoConvergence
        If a refinement exhausts its iteration budget.
    """
    minima, peak_brackets = _sigma_minima(config, k_lo, k_hi, dk)
    lo, hi = minima[0], minima[-1]
    peaks = [z for z in _refined(config, peak_brackets, 1, lo, hi) if lo < z < hi]
    peak = None
    if peaks:
        # the candidate of largest sin^2 delta = sigma k^2 / (4 pi)
        sin2 = [n * n / (n * n + d * d)
                for (n, _), (d, _) in (_num_den_dk(config, z) for z in peaks)]
        peak = peaks[int(np.argmax(sin2))]
    return SigmaLandmarks(minima=tuple(minima), peak=peak)


def _sigma_minima(config: TruncatedConfig, k_lo: float, k_hi: float,
                  dk: Optional[float] = None) -> Tuple[List[float], list]:
    """(minima, peak_brackets): ``sigma_landmarks``' scan of the window and
    its refined minima, with the denominator brackets left unrefined, for
    callers that need no peak; window checks and refusals as there."""
    q = config.params.q
    # sign changes of num and of den with both ends in the mask that do not
    # hold q, as (lo, hi)
    brackets: Tuple[list, list] = ([], [])
    _, blocks = _window_scan(config, k_lo, k_hi, dk)
    for k, num, den, keep in blocks:
        for f, found in zip((num, den), brackets):
            sign = np.signbit(f)
            for i in np.flatnonzero(sign[:-1] != sign[1:]):
                lo, hi = float(k[i]), float(k[i + 1])
                if keep[i] and keep[i + 1] and not lo <= q <= hi:
                    found.append((lo, hi))
    minima = _refined(config, brackets[0], 0)
    if len(minima) < 2:
        raise MinimaNotFound(
            f"found {len(minima)} cross-section minima on [{k_lo}, {k_hi}]; "
            "widen the window or refine dk"
        )
    return minima, brackets[1]


def _refined(config: TruncatedConfig, brackets: list, part: int,
             keep_lo: float = -math.inf, keep_hi: float = math.inf) -> List[float]:
    """The zeros of num (part 0) or den (part 1) refined by
    ``_bracketed_newton`` in those of the (lo, hi) ``brackets`` that reach
    into (keep_lo, keep_hi).

    Newton starts from the values of ``_num_den_dk`` at the two ends, not
    from the grid's: those come from ``_num_den``'s matrix product, whose
    bits depend on the BLAS kernel (a fused multiply-add or not), and a
    secant start that moves by an ulp can move the zero found by one."""
    def f(kk):
        return _num_den_dk(config, kk)[part]

    return [_bracketed_newton(f, lo, hi, f(lo)[0], f(hi)[0])
            for lo, hi in brackets if hi > keep_lo and lo < keep_hi]


def phase_jump(config: TruncatedConfig, k_lo: float, k_hi: float,
               dk: Optional[float] = None) -> float:
    """Total change of the unwrapped delta_a across [k_lo, k_hi].

    Across a window containing the resonance doublet (with enough margin
    for the Breit-Wigner tails to complete) the magnitude approaches 2*pi:
    each resonance contributes a drop of pi. dk defaults to pi/(64 a), as
    in ``sigma_landmarks``. Only the grid points in the window's noise mask
    (``_window_scan``, the one rule of ``sigma_landmarks`` and
    ``background.hadamard_residual``) are unwrapped: outside it
    hypot(num, den) = hypot(d, g) is at or below the noise floor
    (``_noise_floor``) and the sampled phase is rounding. Over the envelope
    that drops |x| below about 0.1 in x = (k - q) a, so the doublet (|x|
    about 5) and the sigma minima stay on the grid at every cutoff.

    The window is streamed as in ``sigma_landmarks`` (``_scan``): each
    block's masked points are unwrapped (``numerics._unwrap``) and dropped,
    so only the ends of the unwrapped phase are kept. On 10^6 points the
    peak memory is about 2.6 MB, where a pass over the whole grid held
    65 MB.

    Raises
    ------
    ValidationError
        If the window or dk fails the checks of ``sigma_landmarks``, or
        fewer than two points of the window clear the noise floor.
    UnwrapAmbiguity
        At the first step between kept points, in grid order, that exceeds
        0.45 pi once unwrapped (as in ``phase_shift_unwrapped``).
    """
    floor, blocks = _window_scan(config, k_lo, k_hi, dk)
    first, last = _unwrap((k[keep], _principal_phase(num[keep], den[keep]), None)
                          for k, num, den, keep in blocks if keep.any())
    if first is None or first[0] == last[0]:
        raise ValidationError(f"fewer than two points of the window [{k_lo!r}, {k_hi!r}] clear "
                              f"the rounding floor {floor:.3e} of hypot(d, g) at k = q")
    return float(last[1] - first[1])
