"""Scattering off the potential truncated at r = a.

Cutting the potential to zero beyond a finite radius a turns the embedded
bound state into a pair of resonances. Everything observable about the
truncated problem reduces to two real-analytic functions of k,

    d(k) and g(k),

built from the closed forms at r = 0 and r = a: the Jost function is
F(-k) = pref * e^{ika} (d + ig) with pref = W1(0) / (h(k) W1(a)^2), the
S-matrix is S = e^{-2ika} (d - ig)/(d + ig), and the phase shift is

    delta_a(k) = -arctan[(d sin ka + g cos ka) / (d cos ka - g sin ka)].

d and g carry no 1/h factor, so the phase shift and cross section stay
finite even where the boundary-condition normalizer h(k) degenerates
(near k = q); only the regular solution and the F's themselves are blocked
there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .darboux import PotentialParams, W1Bundle, _is_real, _w1_bounds, w1_bundle
from .errors import (
    DegenerateNormalizer,
    MinimaNotFound,
    UnwrapAmbiguity,
    ValidationError,
)
from .jost import UVBundle, _uv_at, _uv_coefficients, _uv_dk, uv_bundle
from .numerics import _bracketed_newton, unwrap_phase

__all__ = [
    "TruncatedConfig",
    "ScatteringPoint",
    "h_normalizer",
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
# of the regular solution and of F+- has degenerated (h -> 0 like (k-q)^4 at
# the embedded-state wave number). ``resonances.gamow_state`` refuses on the
# rounding of what N^2 is built from instead.
H_DEGENERACY_RTOL = 1e-12

# k grids for phase and cross section skip this neighborhood of k = q, where
# d and g vanish to fourth order and the sampled phase is rounding noise
Q_EXCLUSION = 1e-5

# Real-axis arrays are evaluated this many points at a time: the float64
# temporaries of one block (128 KB each) are reused from cache, where those of a
# whole 10^6-point grid (8 MB each) would stream through memory on every pass
_BLOCK = 16384

# d and g are resolved where hypot(d, g) exceeds this multiple of its values at
# k = q and q +- _NOISE_OFFSET / a, which are pure rounding (see _noise_floor)
_NOISE_FACTOR = 1e3
_NOISE_OFFSET = 1e-4


# W1 certificate grid: cells on the first pass, and doublings before giving up
_W1_CELLS = 64
_W1_REFINEMENTS = 10


def _w1_violation(params: PotentialParams, a: float) -> Optional[float]:
    """None if W1 > 0 on all of [0, a] is proven, else the first radius
    where the proof fails.

    Beyond r = x_star/q the quartic lower bound of ``darboux._w1_bounds``
    is positive, so only [0, R], R = min(a, x_star/q), is sampled, on a
    uniform grid of step h. On a cell [r_i, r_i + h], W1 lies above its
    linear interpolant minus M2 h^2/8 (the interpolation error bound), with
    M2 = q^2 m2(q (r_i + h)) a majorant of |W1''| there, so the cell is
    proven when min(W1_i, W1_i+1) > M2 h^2/8. Unproven cells halve h, up to
    ``_W1_REFINEMENTS`` times. A sample W1 <= 0 is a violation outright and
    is returned at once; otherwise the first unproven cell of the finest
    grid is returned. R does not depend on a once a > x_star/q, and
    x_star <= 3.7 for alpha, q in [0.3, 3], where one 65-point pass
    suffices. The rounding error of the samples (~1e-16 of the term
    magnitudes, below 1e-11 there) is far below every margin accepted.
    """
    x_star, _, m2 = _w1_bounds(params)
    q = params.q
    r_max = min(a, x_star / q)
    n = _W1_CELLS
    for _ in range(_W1_REFINEMENTS + 1):
        r = np.linspace(0.0, r_max, n + 1)
        w = w1_bundle(params, r).w1
        if np.any(w <= 0.0):
            return float(r[np.argmax(w <= 0.0)])
        h = r_max / n
        m2_cells = q * q * polyval(q * r[1:], m2)
        proven = np.minimum(w[:-1], w[1:]) > m2_cells * h * h / 8.0
        if proven.all():
            return None
        n *= 2
    return float(r[np.argmin(proven)])


@dataclass(frozen=True)
class _BoundaryData:
    """What d, g, G and their k-derivatives need of the closed forms: the
    e2-coefficients of u, v, u_r, v_r at r = 0 and r = a (see
    ``jost._uv_coefficients``), W1(0), and W1, W1' at r = a.

    Every number is a builtin float, so a scalar k runs on Python float and
    complex arithmetic, at a fraction of numpy's per-scalar cost, while an
    array k still broadcasts. Sums and products round as numpy's do; a
    complex quotient may differ from numpy's in the last bits."""

    at_0: list
    at_a: list
    w1_0: float
    w1_a: W1Bundle


@dataclass(frozen=True)
class TruncatedConfig:
    """Potential parameters plus the truncation radius a.

    The truncated problem is only defined while the transformation itself
    is (W1 > 0 everywhere). Construction proves W1 > 0 on all of [0, a],
    at a cost that does not grow with a: a quartic lower bound beyond a
    parameter-dependent radius and a certified grid below it (derived in
    ``_w1_violation`` and ``darboux._w1_bounds``). ``a`` may be any real
    scalar except a bool and is stored as a builtin float.

    Construction also evaluates the boundary data once: u, v, u_r and v_r
    depend on k only through e2 = k^2 - q^2 (and a factor k in v), so their
    e2-coefficients at r = 0 and r = a, with W1(0), W1(a) and W1'(a), turn
    every later d, g, G and G' into a short polynomial evaluation. The data
    is derived from (params, a) and takes no part in equality, hashing or
    repr; ``dataclasses.replace`` recomputes it for the new cutoff.
    """

    params: PotentialParams
    a: float
    _boundary_data: _BoundaryData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_real(self.a) and math.isfinite(self.a) and self.a > 0):
            raise ValidationError(f"cutoff a must be positive and finite, got {self.a!r}")
        object.__setattr__(self, "a", float(self.a))
        if self.params.diagnostic:
            raise ValidationError("scattering requires strict-mode parameters")
        if not self.params.bic_mode:
            raise ValidationError(
                "truncated scattering is defined on the bic-mode potential "
                "(beta = 3*alpha*q); use PotentialParams.bic()"
            )
        bad = _w1_violation(self.params, self.a)
        if bad is not None:
            raise ValidationError(
                f"W1 is not positive on [0, {self.a}] (first violation near r = {bad:.6g})"
            )
        w1_a = w1_bundle(self.params, self.a)
        object.__setattr__(self, "_boundary_data", _BoundaryData(
            at_0=np.array(_uv_coefficients(self.params, 0.0)).tolist(),
            at_a=np.array(_uv_coefficients(self.params, self.a)).tolist(),
            w1_0=float(w1_bundle(self.params, 0.0).w1),
            w1_a=W1Bundle(float(w1_a.w1), float(w1_a.w1_r), float(w1_a.w1_rr)),
        ))


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


def h_normalizer(params: PotentialParams, k):
    """h(k) = u v' - v u' + k (u^2 + v^2), all at r = 0.

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
    return _h_of(_uv_coefficients(params, 0.0)[0][2], k, params.q)


def _h_of(u2, k, q):
    e2 = (k - q) * (k + q)
    return k * (u2 * e2 * e2) ** 2


def _check_h(config: TruncatedConfig, k, b0: UVBundle):
    """h(k), or DegenerateNormalizer if it is below the threshold; b0 is
    u, v at r = 0, which set the scale."""
    h = _h_of(config._boundary_data.at_0[0][2], k, config.params.q)
    scale = max(1.0, float(np.max(np.abs(b0.u) ** 2 + np.abs(b0.v) ** 2)))
    if np.min(np.abs(h)) < H_DEGENERACY_RTOL * scale:
        raise DegenerateNormalizer(
            f"|h(k)| = {float(np.min(np.abs(h))):.3e} at k = {k!r}: boundary-condition "
            "normalization degenerates (k too close to the embedded-state wave number)"
        )
    return h


def _uv_combinations(b, w, k):
    """(u_r W1 - u W1' - k v W1, v_r W1 - v W1' + k u W1) at one radius."""
    return (b.u_r * w.w1 - b.u * w.w1_r - k * b.v * w.w1,
            b.v_r * w.w1 - b.v * w.w1_r + k * b.u * w.w1)


def _boundary(config: TruncatedConfig, k):
    """(u0, v0, ua, va, bu, bv, kw): u, v at r = 0 and r = a, the
    combinations (bu, bv) at r = a, and kw = -k W1(a).

    With (A, B) the ka rotation of (u0, -v0), d = bu A + bv B and
    g = kw (ua A + va B). Writing sin ka and cos ka as exponentials, with
    cu = bu + i kw ua and cv = bv + i kw va,

        G = e^{-ika} (d + ig)
          = [(u0 - i v0)(cv - i cu) + e^{-2ika} (u0 + i v0)(cv + i cu)] / 2;

    ``_g_parts`` gives G and its k-derivative in parts. Evaluated from the
    config's boundary data. Accepts complex k and broadcasts over it.
    """
    bd = config._boundary_data
    q = config.params.q
    b0 = _uv_at(bd.at_0, k, q)
    ba = _uv_at(bd.at_a, k, q)
    return (b0.u, b0.v, ba.u, ba.v, *_uv_combinations(ba, bd.w1_a, k), -k * bd.w1_a.w1)


def _boundary_dk(config: TruncatedConfig, k):
    """Exact k-derivatives of the seven ``_boundary`` values.

    W1 does not depend on k, so bu' = u_r' W1 - u' W1' - (v + k v') W1,
    bv' = v_r' W1 - v' W1' + (u + k u') W1 and kw' = -W1(a).
    """
    bd = config._boundary_data
    q = config.params.q
    d0 = _uv_dk(bd.at_0, k, q)
    ba = _uv_at(bd.at_a, k, q)
    da = _uv_dk(bd.at_a, k, q)
    w1 = bd.w1_a.w1
    dbu, dbv = _uv_combinations(da, bd.w1_a, k)
    return d0.u, d0.v, da.u, da.v, dbu - ba.v * w1, dbv + ba.u * w1, -w1


def _g_parts(config: TruncatedConfig, k):
    """(m x, p y, A, B) with

        G  = (m x + e^{-2ika} p y) / 2   (see ``_boundary``),
        G' = (A + e^{-2ika} B) / 2,

    where m, p = u0 -+ i v0 and x, y = cv -+ i cu. By the product rule,
    with ' = d/dk (``_boundary_dk``),

        A = (m x)',    B = (p y)' - 2ia p y.

    ``resonances.root_derivative`` assembles G' from A and B, and
    ``_num_den_dk`` rotates all four onto the real axis. Accepts complex k
    and broadcasts over it.
    """
    u0, v0, ua, va, bu, bv, kw = _boundary(config, k)
    du0, dv0, dua, dva, dbu, dbv, dkw = _boundary_dk(config, k)
    cu = bu + 1j * kw * ua
    cv = bv + 1j * kw * va
    dcu = dbu + 1j * (dkw * ua + kw * dua)
    dcv = dbv + 1j * (dkw * va + kw * dva)
    m, p = u0 - 1j * v0, u0 + 1j * v0
    x, y = cv - 1j * cu, cv + 1j * cu
    dm, dp = du0 - 1j * dv0, du0 + 1j * dv0
    dx, dy = dcv - 1j * dcu, dcv + 1j * dcu
    return m * x, p * y, dm * x + m * dx, dp * y + p * dy - 2j * config.a * p * y


def _ka_rotation(x, y, ka):
    """(x sin ka + y cos ka, x cos ka - y sin ka)."""
    return _rotate(x, y, np.sin(ka), np.cos(ka))


def _rotate(x, y, s, c):
    """``_ka_rotation`` given s = sin ka and c = cos ka."""
    return x * s + y * c, x * c - y * s


def _blockwise(fn, k):
    """fn(k) for an elementwise fn returning a tuple of arrays shaped like k,
    evaluated ``_BLOCK`` points at a time into preallocated outputs.

    A scalar or 0-d k reaches fn unchanged (Python complex arithmetic rounds
    differently from numpy's), and so does an array of at most one block.
    Outputs are bit-identical to fn(k) on the whole array; what is alive at
    once is the outputs plus one block's temporaries.
    """
    if np.size(k) <= _BLOCK:
        return fn(k)
    flat = np.asarray(k).reshape(-1)
    out = None
    for start in range(0, flat.size, _BLOCK):
        part = fn(flat[start:start + _BLOCK])
        if out is None:
            out = tuple(np.empty(flat.size, dtype=p.dtype) for p in part)
        for o, p in zip(out, part):
            o[start:start + _BLOCK] = p
    return tuple(o.reshape(np.shape(k)) for o in out)


def _noise_floor(config: TruncatedConfig) -> float:
    """hypot(d, g) at or below which d, g (and num, den, their rotation)
    are rounding noise: ``_NOISE_FACTOR`` times the largest hypot(d, g) at
    k = q and q +- 1e-4/a.

    At leading order in 1/a, d + ig is e2 times the bracket of
    ``resonances._limit_root``, which is -(2/3) x^4 + O(x^5) in
    x = (k - q) a: it vanishes like x^5. At |x| <= 1e-4 its exact value is
    about 1e-20 of its size at |x| ~ 1, so what is computed there is
    rounding. At q alone the rounding can be exactly zero (when the e2^0
    coefficients at r = 0 come out as exact zeros, as at alpha = 2.4033,
    q = 1.0302), which would leave no floor at all.
    """
    q, offset = config.params.q, _NOISE_OFFSET / config.a
    return _NOISE_FACTOR * max(math.hypot(*dg(config, k)) for k in (q - offset, q, q + offset))


def _principal_phase(num, den):
    """-arctan(num / den) on the principal branch (-pi/2, pi/2]."""
    raw = np.arctan2(num, den)
    return -(raw - math.pi * np.round(raw / math.pi))


def _sigma(k, num, den):
    """(4 pi / k^2) num^2 / (num^2 + den^2): sin^2 delta with no arctan."""
    return (4.0 * math.pi / np.asarray(k) ** 2) * num**2 / (num**2 + den**2)


def regular_solution(config: TruncatedConfig, k, r):
    """The solution Phi with Phi(0) = 0, Phi'(0) = 1, and its derivative.

    Valid on 0 <= r <= a (inside the truncated well the potential is the
    full closed form). Accepts complex k; broadcasts over r. Phi is exactly
    0 at r = 0, the boundary condition that defines it: the closed form
    there cancels u(k, 0) a1 + v(k, 0) a2 to rounding, which 1/h amplifies.

    Raises
    ------
    DegenerateNormalizer
        If |h(k)| < 1e-12 * max(1, |u(k,0)|^2 + |v(k,0)|^2).
    """
    r = np.asarray(r)
    if np.any(r < 0) or np.any(r > config.a):
        raise ValidationError("regular solution is defined on 0 <= r <= a")
    p = config.params
    b0 = _uv_at(config._boundary_data.at_0, k, p.q)
    h = _check_h(config, k, b0)
    b = uv_bundle(p, k, r)
    w = w1_bundle(p, r)
    w10 = config._boundary_data.w1_0
    a1, a2 = _ka_rotation(b0.u, -b0.v, k * r)
    cu, cv = _uv_combinations(b, w, k)
    ph = np.where(r == 0.0, 0.0, (w10 / (h * w.w1)) * (b.u * a1 + b.v * a2))[()]
    ph_r = (w10 / (h * w.w1**2)) * (cu * a1 + cv * a2)
    return ph, ph_r


def dg(config: TruncatedConfig, k):
    """The pair (d(k), g(k)); real for real k, polynomial-and-trig in k.

    d + ig carries every zero of the truncated problem's Jost function
    (the prefactor of F(-k) is zero-free), which is why the resonance
    search operates on it directly.

    An array k is evaluated in blocks of ``_BLOCK`` points, so beyond the
    two outputs the peak memory is one block's temporaries, whatever the
    grid size; a scalar k gives scalars.
    """
    return _blockwise(lambda kk: _dg_sin_cos(config, kk)[:2], k)


def _dg_sin_cos(config: TruncatedConfig, k):
    """(d, g, sin ka, cos ka) at k, unblocked."""
    ka = k * config.a
    s, c = np.sin(ka), np.cos(ka)
    u0, v0, ua, va, bu, bv, kw = _boundary(config, k)
    rot_a, rot_b = _rotate(u0, -v0, s, c)
    return bu * rot_a + bv * rot_b, kw * (ua * rot_a + va * rot_b), s, c


def jost_function(config: TruncatedConfig, k) -> Tuple[complex, complex]:
    """(F(-k), F(k)) with the full prefactor W1(0) / (h(k) W1(a)^2).

    Raises
    ------
    DegenerateNormalizer
        Propagated from the 1/h(k) prefactor.
    """
    return _jost_from_dg(config, k, *dg(config, k))


def _jost_prefactor(config: TruncatedConfig, k):
    """W1(0) / (h(k) W1(a)^2), the zero-free factor of F(-k) / (e^{ika} (d + ig)).

    Not guarded: h is the exact closed form, and what the prefactor
    multiplies decides the accuracy.
    """
    bd = config._boundary_data
    return bd.w1_0 / (_h_of(bd.at_0[0][2], k, config.params.q) * bd.w1_a.w1**2)


def _jost_from_dg(config: TruncatedConfig, k, d, g):
    _check_h(config, k, _uv_at(config._boundary_data.at_0, k, config.params.q))
    pref = _jost_prefactor(config, k)
    f_minus = pref * np.exp(1j * k * config.a) * (d + 1j * g)
    f_plus = pref * np.exp(-1j * k * config.a) * (d - 1j * g)
    return f_minus, f_plus


def _num_den(config: TruncatedConfig, k):
    """Numerator/denominator of tan(-delta_a): sin^2 delta = num^2/(num^2+den^2).

    One sin/cos of ka serves both the rotation inside d, g and the rotation
    of (d, g). Unblocked: callers pass one block or a scalar.
    """
    return _rotate(*_dg_sin_cos(config, k))


def _num_den_dk(config: TruncatedConfig, k: float):
    """((num, num'), (den, den')) at one real k, in Python complex arithmetic.

    den + i num = e^{ika} (d + ig) = e^{2ika} G, so with the parts of
    ``_g_parts``

        den + i num   = (e^{2ika} m x + p y) / 2,
        den' + i num' = e^{2ika} (G' + 2ia G)
                      = (e^{2ika} A + B) / 2 + 2ia (den + i num).

    The values agree with ``_num_den`` to rounding, not bit for bit.
    """
    mx, py, front, back = _g_parts(config, k)
    e = cmath.rect(1.0, 2.0 * k * config.a)
    z = 0.5 * (e * mx + py)
    w = 0.5 * (e * front + back) + 2j * config.a * z
    return (z.imag, w.imag), (z.real, w.real)


def phase_shift(config: TruncatedConfig, k):
    """Principal-value phase shift delta_a(k) in (-pi/2, pi/2].

    The underlying arctan is branch-ambiguous mod pi; use
    ``phase_shift_unwrapped`` for a continuous curve on a grid. Evaluated
    in blocks, like ``dg``.
    """
    return _blockwise(lambda kk: (_principal_phase(*_num_den(config, kk)),), k)[0]


def phase_shift_unwrapped(config: TruncatedConfig, k_grid: np.ndarray,
                          max_step_fraction: float = 0.45) -> np.ndarray:
    """Continuous delta_a along a monotone k grid.

    Unwraps the principal values mod pi.

    Raises
    ------
    UnwrapAmbiguity
        If any adjusted step exceeds ``max_step_fraction * pi``: the grid
        is too coarse to track the phase through the resonances (their
        half-widths are ~1e-4 at a = 5000, so dk must be well below that).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    return _unwrap_principal(phase_shift(config, k_grid), k_grid, max_step_fraction)


def _unwrap_principal(raw: np.ndarray, k_grid: np.ndarray,
                      max_step_fraction: float = 0.45) -> np.ndarray:
    """``phase_shift_unwrapped`` from the principal values ``raw`` already
    computed on ``k_grid``: grid check, unwrap mod pi, step test."""
    if k_grid.ndim != 1 or k_grid.size < 2 or np.any(np.diff(k_grid) <= 0):
        raise ValidationError("k_grid must be strictly increasing, length >= 2")
    out = unwrap_phase(raw, period=math.pi)
    steps = np.abs(np.diff(out))
    if np.any(steps > max_step_fraction * math.pi):
        i = int(np.argmax(steps))
        raise UnwrapAmbiguity(
            f"unwrapped phase step {steps[i]:.3f} rad between k = {k_grid[i]:.9g} "
            f"and {k_grid[i + 1]:.9g}; refine the grid"
        )
    return out


def cross_section(config: TruncatedConfig, k):
    """sigma(k) = (4 pi / k^2) sin^2 delta_a, computed branch-free.

    Evaluated in blocks of ``_BLOCK`` points (see ``dg``): on 10^6 points
    the peak allocation stays below three output-sized arrays.
    """
    return _blockwise(lambda kk: (_sigma(kk, *_num_den(config, kk)),), k)[0]


def scattering_point(config: TruncatedConfig, k: float) -> ScatteringPoint:
    """Bundle every real-axis quantity at one k (requires h(k) healthy)."""
    k = float(k)
    d, g = dg(config, k)
    f_minus, f_plus = _jost_from_dg(config, k, d, g)
    num, den = _ka_rotation(d, g, k * config.a)
    s = np.exp(-2j * k * config.a) * (d - 1j * g) / (d + 1j * g)
    return ScatteringPoint(
        k=k,
        d=float(d),
        g=float(g),
        F_minus=complex(f_minus),
        F_plus=complex(f_plus),
        S=complex(s),
        delta_a=float(_principal_phase(num, den)),
        sigma=float(_sigma(k, num, den)),
    )


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
    zero of the denominator between the two innermost minima (there
    delta_a = pi/2 mod pi, so sigma touches 4 pi / k^2). Both are bracketed
    on a dk grid and refined by Newton on their exact k-derivatives
    (``_num_den_dk``), kept inside the bracket
    (``numerics._bracketed_newton``): each stops within about
    1e-14 + 4 eps k of the zero of the computed function, unless that
    function is rounding noise over a wider band around it. Only
    denominator brackets that reach into (minima[0], minima[-1]) are
    refined. The resonance structure scales
    with pi/a (the minima sit at fixed (k - q) a / pi for every a), so dk
    defaults to pi/(64 a), 64 cells per pi/a. The grid is evaluated in
    blocks, like ``dg``.

    d + ig also vanishes (removably, to fourth order) at the embedded-state
    wave number q, dragging both numerator and denominator through zero
    there. A bracket is discarded when it contains q, or when at either end
    hypot(num, den) = hypot(d, g) is within a factor 1e3 of its value at q,
    which is pure rounding: a sign change there is noise.

    Raises
    ------
    MinimaNotFound
        If fewer than two numerator zeros survive on the window.
    NoConvergence
        If a refinement exhausts its iteration budget.
    """
    if not (k_lo < k_hi):
        raise ValidationError("need k_lo < k_hi")
    if dk is None:
        dk = math.pi / (64.0 * config.a)
    q = config.params.q
    grid = np.arange(k_lo, k_hi + dk, dk)
    num, den = _blockwise(lambda kk: _num_den(config, kk), grid)
    floor = _noise_floor(config)

    def refine(part: int, keep_lo=-math.inf, keep_hi=math.inf) -> List[float]:
        fvec = (num, den)[part]
        idx = np.nonzero(np.signbit(fvec[:-1]) != np.signbit(fvec[1:]))[0]
        roots = []
        for i in idx:
            lo, hi = float(grid[i]), float(grid[i + 1])
            if (hi <= keep_lo or lo >= keep_hi or lo <= q <= hi
                    or math.hypot(num[i], den[i]) <= floor
                    or math.hypot(num[i + 1], den[i + 1]) <= floor):
                continue
            roots.append(_bracketed_newton(
                lambda kk: _num_den_dk(config, kk)[part],
                lo, hi, float(fvec[i]), float(fvec[i + 1])))
        return roots

    minima = refine(0)
    if len(minima) < 2:
        raise MinimaNotFound(
            f"found {len(minima)} cross-section minima on [{k_lo}, {k_hi}]; "
            "widen the window or refine dk"
        )
    peak = None
    lo, hi = minima[0], minima[-1]
    peaks = [z for z in refine(1, lo, hi) if lo < z < hi]
    if peaks:
        sig = [float(cross_section(config, z)) * z**2 / (4.0 * math.pi) for z in peaks]
        peak = peaks[int(np.argmax(sig))]
    return SigmaLandmarks(minima=tuple(minima), peak=peak)


def phase_jump(config: TruncatedConfig, k_lo: float, k_hi: float,
               dk: float = 1e-6) -> float:
    """Total change of the unwrapped delta_a across [k_lo, k_hi].

    Across a window containing the resonance doublet (with enough margin
    for the Breit-Wigner tails to complete) the magnitude approaches 2*pi:
    each resonance contributes a drop of pi. Grid points within Q_EXCLUSION
    of the embedded-state wave number are excised.
    """
    grid = np.arange(k_lo, k_hi + dk, dk)
    grid = grid[np.abs(grid - config.params.q) > Q_EXCLUSION]
    un = phase_shift_unwrapped(config, grid)
    return float(un[-1] - un[0])
