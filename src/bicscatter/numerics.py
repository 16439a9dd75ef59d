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
    UnwrapAmbiguity,
    ValidationError,
    ZeroDerivative,
)

__all__ = [
    "ComplexRectangle",
    "newton_complex",
    "winding_count",
    "adaptive_quadrature",
    "unwrap_phase",
]

# Array kernels work this many points at a time: the float64 temporaries of one
# block (128 KB each) are reused from cache, where those of a whole 10^6-point
# grid (8 MB each) would stream through memory on every pass
_BLOCK = 16384


# newton_complex stops once a step is at most _NEWTON_TOL (1 + |z|), and
# gives up after _NEWTON_MAX_ITER steps
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class ComplexRectangle:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        edges = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(e) for e in edges):
            raise ValidationError(f"rectangle edges must be finite, got {edges!r}")
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


def newton_complex(f, fprime, z0: complex):
    """Damped Newton iteration on a complex scalar function.

    ``fprime`` is the exact derivative of ``f``. Once a Newton step f/f' is
    at most 1e-13 (1 + |z|), it is taken undamped and the iteration stops,
    within 80 steps. A step above that is halved (up to 60 times) until |f|
    decreases, which keeps the iteration inside the basin even from seeds
    several linewidths away.

    Returns
    -------
    (z, fz, iterations)

    Raises
    ------
    ZeroDerivative
        If f' vanishes, or is so small that the step would exceed
        1e23 (1 + |z|) (stationary point between the root and the seed).
    NoConvergence
        If no halving of a step above tolerance lowers |f|, or the
        iteration budget runs out.
    """
    z = complex(z0)
    fz = f(z)
    for it in range(_NEWTON_MAX_ITER):
        df = fprime(z)
        if df == 0 or abs(df) * (1.0 + abs(z)) < 1e-23 * abs(fz):
            raise ZeroDerivative(f"derivative vanished at {z!r} (|f| = {abs(fz):.3e})")
        step = fz / df
        if abs(step) <= _NEWTON_TOL + _NEWTON_TOL * abs(z):
            z -= step
            return z, f(z), it + 1
        damping = 1.0
        for _ in range(60):
            z_new = z - damping * step
            fz_new = f(z_new)
            if abs(fz_new) < abs(fz):
                break
            damping *= 0.5
        else:
            raise NoConvergence(f"stalled at {z!r} with |f| = {abs(fz):.3e}")
        z, fz = z_new, fz_new
    raise NoConvergence(
        f"no convergence after {_NEWTON_MAX_ITER} iterations, |f| = {abs(fz):.3e}"
    )


_EPS = sys.float_info.epsilon
# _bracketed_newton's iteration budget: bisection alone brings any bracket
# narrower than 2^60 * 2e-14 (about 2e4) down to the stopping width
_BRACKET_MAX_ITER = 60


def _bracketed_newton(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
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
        If ``_BRACKET_MAX_ITER`` evaluations meet neither stopping test.
    """
    neg_lo = math.copysign(1.0, f_lo) < 0.0
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi)) if f_lo != f_hi else lo
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_BRACKET_MAX_ITER):
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
        f"bracketed Newton still on [{lo!r}, {hi!r}] after {_BRACKET_MAX_ITER} iterations"
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
    out for zeros up to order ~4. ``find_resonances`` divides the zero
    that motivated it (order 4 at k = q, beside the top edge of its
    default box) out of its integrand; the test still guards other
    integrands and boxes.

    ``f`` must broadcast over a 1-d complex array, returning one value per
    point. The work goes level by level: one call evaluates the 65 samples
    of each edge (``_edge_samples``, np.linspace's points from one product;
    each corner twice, once per edge it ends, so that an integrand whose
    values drift between calls fails the integer test), then every open
    segment is judged at once and all midpoints of the rejected ones are
    evaluated in one call. f is called at most 49 times.

    Assumes ``f`` is analytic on and inside the rectangle.

    Raises
    ------
    BoundaryZero
        If a sample lands exactly on a zero (perturb the rectangle).
    AmbiguousWinding
        If the accumulated phase is not within 0.1 of an integer multiple
        of 2*pi (non-analytic integrand or an unresolvable boundary zero),
        or at the first sample where f is not finite: a segment with such
        an end is never accepted, so subdividing it would only double it
        to the depth limit.
    MaxDepthExceeded
        If a segment fails both acceptance tests at depth 48.
    """
    pts = _edge_samples(rect)
    vals = _finite_samples(np.reshape(f(pts.ravel()), pts.shape), pts)
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
        fm = _finite_samples(f(zm), zm)
        za, zb = np.concatenate([za, zm]), np.concatenate([zm, zb])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) >= 0.1:
        raise AmbiguousWinding(f"winding integral gave {n:.4f}, not close to an integer")
    return int(round(n))


def _edge_samples(rect: ComplexRectangle) -> np.ndarray:
    """The (4, 65) samples of ``winding_count``'s edges, from each corner to
    the next: np.linspace's bits (start + i (end - start) / 64, then the
    end) from one arange-times-step product."""
    c = rect.corners
    start, end = np.array(c), np.array(c[1:] + c[:1])
    step = (end - start) / _INITIAL_SEGMENTS
    pts = np.arange(_INITIAL_SEGMENTS + 1, dtype=complex) * step[:, None]
    pts += start[:, None]
    pts[:, -1] = end
    return pts


def _finite_samples(fz: np.ndarray, z: np.ndarray) -> np.ndarray:
    """fz, the values of f at z, once all are finite; AmbiguousWinding else."""
    finite = np.isfinite(fz)
    if not finite.all():
        at = z.ravel()[np.argmin(finite.ravel())]
        raise AmbiguousWinding(f"f is not finite on the contour at {complex(at)!r}")
    return fz


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


def unwrap_phase(values: np.ndarray) -> np.ndarray:
    """Make a sampled modulo-pi phase, such as one extracted through a
    tangent, continuous.

    Each step between neighbouring samples is counted as n = round(step /
    pi) whole periods (half to even), and each sample loses pi times the
    sum of the counts up to it, so every step ends up within pi/2; the
    first value is preserved. This is the loop of ``_unwrap``, run over
    ``_BLOCK`` samples at a time (``_unwrap_grid``): the counts are
    integers summed exactly with a carry, so the result does not depend on
    the blocking and the only rounding per sample is that of pi * count
    and of the subtraction. Coarse sampling is diagnosed by the callers
    that know the grid (``_unwrap``'s ``max_step``).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("unwrap_phase needs a 1-d array of at least 2 samples")
    return _unwrap_grid(lambda i, j: values[i:j], range(values.size), max_step=None)


# the phase shift's unwrap refuses an adjusted step above this many periods
_MAX_STEP_FRACTION = 0.45


def _unwrap_grid(samples, k, max_step=_MAX_STEP_FRACTION) -> np.ndarray:
    """``_unwrap`` along the grid k (a bare sequence passes its indices),
    ``_BLOCK`` points at a time, where samples(start, stop) gives the
    samples on k[start:stop]: beyond the output only one block of samples
    is alive. The default is that of the phase shift
    (``scattering.phase_shift_unwrapped``, the ``phase-shift`` command)."""
    out = np.empty(len(k))
    _unwrap(((k[start:start + _BLOCK], samples(start, start + _BLOCK), out[start:start + _BLOCK])
             for start in range(0, len(k), _BLOCK)), max_step)
    return out


def _unwrap(blocks, max_step=_MAX_STEP_FRACTION):
    """Unwrap modulo pi a phase handed over in consecutive blocks: the one
    loop behind every unwrap in the package.

    Each block is a triple (k, part, out): the samples ``part``, none
    empty, at the abscissae ``k``, unwrapped into ``out`` (a fresh array if
    None). Each step, the one from the previous block's last sample into a
    block included, is counted as n = round(step / pi) whole periods; the
    counts are whole-number floats, summed exactly (up to 2^53 periods)
    with a carry from block to block, and each sample loses pi times the
    count up to it. The adjusted step is read off the rounding,
    |step / pi - n| periods: the first one above ``max_step`` (0.45 by
    default; None tests none) in sample order raises UnwrapAmbiguity
    naming its ends in k.

    Returns (k, unwrapped) at the first and at the last sample, or
    (None, None) if there is no block.
    """
    first, last, prev, carry = None, None, None, 0.0
    for k, part, out in blocks:
        excess = np.empty(part.size)
        excess[0] = 0.0 if prev is None else part[0] - prev
        np.subtract(part[1:], part[:-1], out=excess[1:])
        excess /= math.pi
        count = np.rint(excess)
        excess -= count
        np.cumsum(count, out=count)
        count += carry
        carry = count[-1]
        count *= math.pi
        out = np.subtract(part, count, out=out)
        if max_step is not None and (np.abs(excess, out=excess) > max_step).any():
            i = int(np.argmax(excess > max_step))
            raise UnwrapAmbiguity(f"unwrapped phase step {math.pi * excess[i]:.3f} rad between "
                                  f"k = {k[i - 1] if i else last[0]:.9g} and {k[i]:.9g}; "
                                  "refine the grid")
        first = first or (k[0], out[0])
        last, prev = (k[-1], out[-1]), part[-1]
    return first, last


# Grids are refused above this many points, before anything is allocated:
# 80 MB per float array, ten times the largest benchmarked spectrum
_MAX_GRID_POINTS = 10**7


def _grid_count(start: float, stop: float, step: float) -> int:
    """len(np.arange(start, stop, step)) for finite start, stop and step > 0,
    or ValidationError if that exceeds ``_MAX_GRID_POINTS``."""
    n = (stop - start) / step
    if not n <= _MAX_GRID_POINTS:
        raise ValidationError(
            f"a grid from {start!r} to {stop!r} in steps of {step!r} would hold "
            f"{n:.3g} points, more than {_MAX_GRID_POINTS}"
        )
    return max(0, math.ceil(n))
