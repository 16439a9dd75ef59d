"""Root finding, contour counting, quadrature, and phase unwrapping.

These are the only numerical primitives in the package that are not
closed-form physics. They are deliberately small and fully deterministic:
given the same inputs they return the same outputs bit for bit, which the
command-line layer relies on for reproducible runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousWinding,
    BoundaryZero,
    MaxDepthExceeded,
    NoConvergence,
    ValidationError,
    ZeroDerivative,
)

__all__ = [
    "Tolerance",
    "ComplexRectangle",
    "newton_complex",
    "winding_count",
    "adaptive_quadrature",
    "unwrap_phase",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-13
    max_iter: int = 80

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.max_iter >= 1):
            raise ValidationError("tolerances must be positive and max_iter >= 1")

    def met(self, value: float, scale: float = 1.0) -> bool:
        return abs(value) <= self.abs_tol + self.rel_tol * abs(scale)


@dataclass(frozen=True)
class ComplexRectangle:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError(
                f"degenerate rectangle [{self.re_min}, {self.re_max}] x "
                f"[{self.im_min}, {self.im_max}]"
            )

    @property
    def corners(self):
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, z: complex) -> bool:
        return (
            self.re_min <= z.real <= self.re_max
            and self.im_min <= z.imag <= self.im_max
        )


def newton_complex(f, fprime, z0: complex, tol: Tolerance = Tolerance()):
    """Damped Newton iteration on a complex scalar function.

    ``fprime`` is the exact derivative of ``f``; the update f/f' is halved
    (up to 60 times) until |f| decreases, which keeps the iteration inside
    the basin even from seeds several linewidths away.

    Returns
    -------
    (z, fz, iterations)

    Raises
    ------
    ZeroDerivative
        If f' vanishes, or is so small that the step would exceed
        1e23 (1 + |z|) (stationary point between the root and the seed).
    NoConvergence
        If the iteration budget leaves the step above tolerance.
    """
    z = complex(z0)
    fz = f(z)
    for it in range(tol.max_iter):
        df = fprime(z)
        if df == 0 or abs(df) * (1.0 + abs(z)) < 1e-23 * abs(fz):
            raise ZeroDerivative(f"derivative vanished at {z!r} (|f| = {abs(fz):.3e})")
        step = fz / df
        damping = 1.0
        for _ in range(60):
            z_new = z - damping * step
            fz_new = f(z_new)
            if abs(fz_new) < abs(fz):
                break
            damping *= 0.5
        else:
            # no productive step of any size: either converged or stuck
            if abs(step) <= tol.abs_tol + tol.rel_tol * abs(z):
                return z, fz, it
            raise NoConvergence(f"stalled at {z!r} with |f| = {abs(fz):.3e}")
        z, fz = z_new, fz_new
        if abs(damping * step) <= tol.abs_tol + tol.rel_tol * abs(z):
            return z, fz, it + 1
    raise NoConvergence(
        f"no convergence after {tol.max_iter} iterations, |f| = {abs(fz):.3e}"
    )


_EPS = sys.float_info.epsilon
# _bracketed_newton's iteration budget: bisection alone brings any bracket
# narrower than 2^60 * 2e-14 (about 2e4) down to the stopping width
_BRACKET_MAX_ITER = 60


def _bracketed_newton(f, lo: float, hi: float, f_lo: float, f_hi: float,
                      max_iter: int = _BRACKET_MAX_ITER) -> float:
    """Zero of a real scalar function on [lo, hi], where it changes sign.

    ``f(x)`` returns the pair (f, f') as Python floats; ``f_lo`` and
    ``f_hi`` are values of f at lo and hi with opposite sign bits. Newton
    starts from the secant point of the ends (the midpoint if that is not
    strictly inside), and every iterate replaces the bracket end on its
    side of the sign change. A step that leaves the bracket, or a zero or
    non-finite f', bisects instead. With
    tol = 1e-14 + 4 eps |x|, the iteration stops when |f/f'| <= tol,
    returning the Newton update, or when the bracket is at most 2 tol wide,
    returning its midpoint. The step test comes first: a step landing
    exactly on the root would otherwise fail the in-bracket test and fall
    back to bisection of the wide side.

    Raises
    ------
    NoConvergence
        If ``max_iter`` evaluations meet neither stopping test.
    """
    neg_lo = math.copysign(1.0, f_lo) < 0.0
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi)) if f_lo != f_hi else lo
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        tol = 1e-14 + 4.0 * _EPS * abs(x)
        step = fx / dfx if dfx != 0.0 and math.isfinite(dfx) else math.inf
        if abs(step) <= tol:
            return x - step
        if hi - lo <= 2.0 * tol:
            return 0.5 * (lo + hi)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise NoConvergence(
        f"bracketed Newton still on [{lo!r}, {hi!r}] after {max_iter} iterations"
    )


# winding_count subdivision limits
_INITIAL_SEGMENTS = 64
_MAX_DEPTH = 48
_PHASE_CAP = math.pi / 4.0
_MAG_RATIO_CAP = math.log(2.0)


def winding_count(f, rect: ComplexRectangle) -> int:
    """Number of zeros of ``f`` inside ``rect``, counted with multiplicity.

    Integrates the argument of f around the boundary by adaptive edge
    subdivision. A segment's phase increment is accepted only when both

      * |delta arg| < pi/4, and
      * the endpoint magnitudes differ by less than a factor of 2,

    otherwise the segment is bisected (to depth 48). The magnitude condition
    matters: near a high-order zero just outside an edge, symmetric sample
    placement can alias a full 2*pi of phase while each naive increment
    stays small. Requiring the modulus to be resolved as well rules that
    out for zeros up to order ~4.

    ``f`` must broadcast over a 1-d complex array, returning one value per
    point. The work goes level by level: one call evaluates the 65 samples
    of each edge (each corner twice, once per edge it ends, so that an
    integrand whose values drift between calls fails the integer test),
    then every open segment is judged at once and all midpoints of the
    rejected ones are evaluated in one call. f is called at most 49 times.

    Assumes ``f`` is analytic on and inside the rectangle.

    Raises
    ------
    BoundaryZero
        If a sample lands exactly on a zero (perturb the rectangle).
    AmbiguousWinding
        If the accumulated phase is not within 0.1 of an integer multiple
        of 2*pi (non-analytic integrand or an unresolvable boundary zero).
    MaxDepthExceeded
        If a segment fails both acceptance tests at depth 48.
    """
    c = rect.corners
    pts = np.array([np.linspace(a, b, _INITIAL_SEGMENTS + 1)
                    for a, b in zip(c, c[1:] + c[:1])])
    vals = np.reshape(f(pts.ravel()), pts.shape)
    za, zb = pts[:, :-1].ravel(), pts[:, 1:].ravel()
    fa, fb = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    total = 0.0
    for depth in range(_MAX_DEPTH + 1):
        on_zero = (fa == 0) | (fb == 0)
        if on_zero.any():
            raise BoundaryZero(f"zero of f on the contour near {za[np.argmax(on_zero)]!r}")
        dphi = np.angle(fb / fa)
        resolved = (np.abs(dphi) < _PHASE_CAP) & (
            np.abs(np.log(np.abs(fb) / np.abs(fa))) < _MAG_RATIO_CAP
        )
        total += float(np.sum(dphi[resolved]))
        if resolved.all():
            break
        if depth == _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"edge segment near {za[np.argmin(resolved)]!r} not resolved at depth {_MAX_DEPTH}"
            )
        rejected = ~resolved
        za, zb, fa, fb = za[rejected], zb[rejected], fa[rejected], fb[rejected]
        zm = 0.5 * (za + zb)
        fm = f(zm)
        za, zb = np.concatenate([za, zm]), np.concatenate([zm, zb])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) >= 0.1:
        raise AmbiguousWinding(f"winding integral gave {n:.4f}, not close to an integer")
    return int(round(n))


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-10,
                        max_depth: int = 50, initial_intervals: int = 1) -> float:
    """Adaptive Simpson integration of a real function on [a, b].

    Classic halving scheme: a panel is accepted when the two-half Simpson
    estimate agrees with the single-panel one to ``tol`` (scaled by the
    local interval fraction), with the usual |S2 - S1|/15 error model and
    Richardson extrapolation on acceptance.

    ``initial_intervals`` pre-splits the range before any adaptivity. For
    oscillatory integrands this is not an optimization but a correctness
    guard: a panel commensurate with the oscillation period can pass the
    two-half agreement test spuriously. Pre-split below the period.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration limits must be finite")
    if initial_intervals < 1:
        raise ValidationError("initial_intervals must be >= 1")
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    total = 0.0
    edges = np.linspace(a, b, initial_intervals + 1)
    cell_tol = tol / initial_intervals
    stack = []
    for x0, x2 in zip(edges[:-1], edges[1:]):
        m0 = 0.5 * (x0 + x2)
        fa, fm, fb = f(x0), f(m0), f(x2)
        stack.append((x0, x2, fa, fm, fb, simpson(x0, x2, fa, fm, fb), cell_tol, 0))
    while stack:
        x0, x2, f0, f1, f2, s_whole, tol_here, depth = stack.pop()
        xm_l = 0.5 * (x0 + 0.5 * (x0 + x2))
        xm_r = 0.5 * (0.5 * (x0 + x2) + x2)
        fl, fr = f(xm_l), f(xm_r)
        x1 = 0.5 * (x0 + x2)
        s_left = simpson(x0, x1, f0, fl, f1)
        s_right = simpson(x1, x2, f1, fr, f2)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * tol_here:
            total += s_left + s_right + err / 15.0
        elif depth >= max_depth:
            raise MaxDepthExceeded(
                f"quadrature panel [{x0:.6g}, {x2:.6g}] not converged at depth {max_depth}"
            )
        else:
            stack.append((x1, x2, f1, fr, f2, s_right, 0.5 * tol_here, depth + 1))
            stack.append((x0, x1, f0, fl, f1, s_left, 0.5 * tol_here, depth + 1))
    return total


def unwrap_phase(values: np.ndarray, period: float = math.pi) -> np.ndarray:
    """Make a sampled modulo-``period`` phase continuous.

    Shifts each sample by the integer multiple of ``period`` that brings
    successive differences into (-period/2, period/2]; the first value is
    preserved. Phases extracted through a tangent need period pi. After
    one pass every step lies within period/2, so a further pass with a
    longer period changes nothing. Coarse sampling is diagnosed by the
    caller, which knows the grid.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("unwrap_phase needs a 1-d array of at least 2 samples")
    if period <= 0:
        raise ValidationError("period must be positive")
    return np.unwrap(values, period=period)
