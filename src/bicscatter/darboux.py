"""Base phase shift, the degenerate Wronskian W1, and the transformed potential.

Everything here is closed-form. The transformation seed is the free wave
sin(q*r + delta(q)) with delta(q) = arctan(alpha*q - beta); the four-fold
degenerate Wronskian W1(q, r) of that seed and its first three q-derivatives
defines the potential

    V(r) = -2 * d^2/dr^2 [ln W1(q, r)].

W1 is evaluated from one fully expanded closed form (`w1_bundle`), which also
carries exact analytic r-derivatives.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SingularPotential, ValidationError
from .numerics import _grid_count

__all__ = [
    "PotentialParams",
    "PhaseData",
    "W1Bundle",
    "phase_data",
    "w1_bundle",
    "potential_v4",
    "scan_w1_sign",
]

# |W1| below this scale-aware threshold means the potential is effectively
# singular at that radius (W1 appears squared in the denominator of V).
SINGULARITY_THRESHOLD = 1e-10


def _is_real(v) -> bool:
    """A real scalar, Python or numpy, that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class PotentialParams:
    """The (alpha, beta, q) triple defining the transformed potential.

    Any nonzero beta is accepted, so that W1's sign structure can be
    plotted at beta < 0 too, where W1 vanishes and the potential is
    singular; what needs a regular potential refuses such a beta by its
    values (``potential_v4``, ``jost.bound_state``,
    ``scattering.TruncatedConfig``). Fields are stored as builtin floats
    whatever real type they were given in.
    """

    alpha: float
    beta: float
    q: float

    def __post_init__(self):
        for name in ("alpha", "beta", "q"):
            v = getattr(self, name)
            if not (_is_real(v) and math.isfinite(v)):
                raise ValidationError(f"{name} must be a finite real number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.q <= 0:
            raise ValidationError(f"q must be positive, got {self.q}")
        if self.beta == 0:
            raise ValidationError("beta must be nonzero")

    @property
    def bic_mode(self) -> bool:
        """beta == 3*alpha*q exactly, where a normalizable state sits at energy q**2."""
        return self.beta == 3.0 * self.alpha * self.q

    @classmethod
    def bic(cls, alpha: float = 1.0, q: float = 1.0) -> "PotentialParams":
        """Parameters with beta pinned to 3*alpha*q (bound state in the continuum)."""
        # beta is formed in builtin floats, as ``bic_mode`` compares it
        if _is_real(alpha) and _is_real(q):
            alpha, q = float(alpha), float(q)
        return cls(alpha=alpha, beta=3.0 * alpha * q, q=q)


@dataclass(frozen=True)
class PhaseData:
    """Base phase shift delta(q) and its first three q-derivatives.

    gamma0, gamma1, gamma2 are d delta/dq, d2 delta/dq2, d3 delta/dq3.
    """

    delta: float
    gamma0: float
    gamma1: float
    gamma2: float


@dataclass(frozen=True)
class W1Bundle:
    """W1 with its exact first and second r-derivatives (arrays broadcast over r)."""

    w1: np.ndarray
    w1_r: np.ndarray
    w1_rr: np.ndarray


def _overflow_checked(build, params: PotentialParams, *args):
    """build(params, *args), with the OverflowError of a ``**`` past the
    float range in its coefficients raised as a ValidationError naming the
    parameters."""
    try:
        return build(params, *args)
    except OverflowError as exc:
        raise ValidationError(
            f"closed-form coefficients overflow at alpha={params.alpha!r}, "
            f"beta={params.beta!r}, q={params.q!r}"
        ) from exc


def phase_data(params: PotentialParams) -> PhaseData:
    """Closed-form delta(q) = arctan(alpha*q - beta) and its q-derivatives.

    With t = alpha*q - beta and D = 1 + t**2:

        delta  = arctan(t)
        gamma0 = alpha / D
        gamma1 = -2 alpha^2 t / D^2
        gamma2 = -2 alpha^3 (1 - 3 t^2) / D^3

    Raises
    ------
    ValidationError
        If (alpha, beta, q) are so large that a coefficient overflows.
    """
    return _overflow_checked(_phase_data, params)


def _phase_data(params: PotentialParams) -> PhaseData:
    t = params.alpha * params.q - params.beta
    d = 1.0 + t * t
    return PhaseData(
        delta=math.atan(t),
        gamma0=params.alpha / d,
        gamma1=-2.0 * params.alpha**2 * t / d**2,
        gamma2=-2.0 * params.alpha**3 * (1.0 - 3.0 * t * t) / d**3,
    )


def _horner(c, x):
    """c[0] + c[1] x + ... + c[-1] x^n by Horner's rule, in place on the
    one temporary c[-1] x when that is an array; c[0] itself when n = 0."""
    if len(c) == 1:
        return c[0]
    acc = c[-1] * x
    for ci in c[-2:0:-1]:
        acc += ci
        acc *= x
    acc += c[0]
    return acc


def _derived(table, s_r, x_r):
    """The ``_closed_form`` table of df/dr, term by term (see there)."""
    out = []
    for w, o, c, s in table:
        if not w:
            out.append((w, o, [n * s_r * c[n] for n in range(1, len(c))], s))
            continue
        wx = w * x_r
        out.append((w, o,
                    [n * s_r * c[n] + wx * s[n - 1] for n in range(1, len(c))] + [wx * s[-1]],
                    [n * s_r * s[n] - wx * c[n - 1] for n in range(1, len(s))] + [-wx * c[-1]]))
    return out


def _closed_form(table, s, x, s_r, x_r, order: int):
    """[f, df/dr, ..., d^order f/dr^order] of the closed form

        f = sum_j C_j(s) cos(w_j x + o_j) + S_j(s) sin(w_j x + o_j)

    with s and x affine in r (ds/dr = s_r, dx/dr = x_r). ``table`` lists the
    terms (w_j, o_j, C_j, S_j): C_j and S_j are ascending coefficient lists
    in s, of floats or of arrays that broadcast against s; S_j is empty
    where w_j = 0 and as long as C_j elsewhere. By the product rule each
    term differentiates into one of the same frequency,

        C -> s_r C' + w x_r S,    S -> s_r S' - w x_r C,

    so every derivative is the same evaluation of a derived table, and all
    of them share one cosine and one sine per term. A scalar x (a builtin
    float) takes them from ``math`` (on 4e5 arguments up to 4e13 they had
    numpy's bits), so a table of builtin floats is evaluated in Python
    floats throughout; an infinite phase gives NaN, as numpy's does.
    """
    waves = []
    for w, o, _, _ in table:
        phase = w * x + o if o else w * x
        if not w:
            waves.append(None)
        elif not isinstance(phase, float):
            waves.append((np.cos(phase), np.sin(phase)))
        elif math.isinf(phase):
            waves.append((math.nan, math.nan))
        else:
            waves.append((math.cos(phase), math.sin(phase)))
    out = []
    for m in range(order + 1):
        if m:
            table = _derived(table, s_r, x_r)
        f = 0.0
        for (_, _, c, sn), wave in zip(table, waves):
            if wave is None:
                f = f + _horner(c, s)
            else:
                f = f + _horner(c, s) * wave[0] + _horner(sn, s) * wave[1]
        out.append(f)
    return out


def _w1_table(params: PotentialParams):
    """W1 as a ``_closed_form`` table in s = x = q*r:

        C0 + Cc cos(2x) + Cs sin(2x)
          + 16(x^4 + p3 x^3 + p2 x^2 + p1 x) - 12(x^2 + d1 x)
          + 24(x^2 + e1 x) cos(2 theta)
          + [16(x^3 + f2 x^2 + f1 x) - 12 x] sin(2 theta)
          + 3 [S2 sin^2(2x) + SC sin(2x) cos(2x)]

    with theta = x + delta, 3 S2 sin^2(2x) = 1.5 S2 (1 - cos(4x)) and
    3 SC sin(2x) cos(2x) = 1.5 SC sin(4x): four terms, of frequency 0, 2,
    2 (offset 2 delta) and 4. Each coefficient is formed as derived, so the
    dominant 16 x^4 is a single monomial and cancellation at large r never
    exceeds a few units in the last place of the subdominant terms.
    Builtin floats throughout, so a scalar r runs on Python arithmetic but
    for the cosines and sines.
    """
    a, b, q = params.alpha, params.beta, params.q
    t = a * q - b
    d = 1.0 + t * t
    aq = a * q
    p3, p2, p1 = 4.0 * aq / d, 6.0 * aq * aq / d**2, 3.0 * aq**3 / d**2
    d1, e1 = 2.0 * aq / d, 2.0 * aq * (1.0 - b * t) / d**2
    f2, f1 = 3.0 * aq / d, 3.0 * aq * aq / d**2
    s2 = 1.5 * ((1.0 - 6.0 * t * t + t**4) / d**2)
    sc = 1.5 * (4.0 * t * (1.0 - t * t) / d**2)
    c0 = 12.0 * b * b / d**2 - 24.0 * b * aq / d**2
    return [
        (0.0, 0.0, [c0 + s2, 16.0 * p1 - 12.0 * d1, 16.0 * p2 - 12.0, 16.0 * p3, 16.0], []),
        (2.0, 0.0, [24.0 * b * aq / d**2], [12.0 * aq * (aq * aq + b * b - 1.0) / d**2]),
        (2.0, 2.0 * math.atan(t), [0.0, 24.0 * e1, 24.0, 0.0],
         [0.0, 16.0 * f1 - 12.0, 16.0 * f2, 16.0]),
        (4.0, 0.0, [-s2], [sc]),
    ]


def _w1(params: PotentialParams, r, order: int):
    """[W1, dW1/dr, ..., d^order W1/dr^order] at r, from ``_w1_table``;
    ValidationError where r is negative, where a coefficient of that table
    overflows, or where one of the results is not finite: r is not finite,
    or q r or q is so large that W1 (about 16 (q r)^4) or a derivative
    (q^m times one in q r) overflows. A scalar r is evaluated in Python
    floats (see ``_closed_form``) and gives numpy scalars, whose arithmetic
    callers rely on (a ** past the float range gives inf, not an error)."""
    r = np.asarray(r, dtype=float)
    x = params.q * (float(r) if r.ndim == 0 else r)
    table = _overflow_checked(_w1_table, params)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _closed_form(table, x, x, params.q, params.q, order)
    if (r < 0).any() or not all(np.isfinite(f).all() for f in out):
        raise ValidationError(
            f"W1 refused for r in [{float(r.min())!r}, {float(r.max())!r}] at "
            f"alpha={params.alpha!r}, beta={params.beta!r}, q={params.q!r}: r must be nonnegative "
            "and finite, and q r and q small enough that W1 and its r-derivatives do not overflow"
        )
    return out if r.ndim else [np.float64(f) for f in out]


def w1_bundle(params: PotentialParams, r) -> W1Bundle:
    """Expanded closed form of W1(q, r) with exact analytic r-derivatives.

    W1 and its derivatives are evaluations of one table of four terms
    (``_w1_table``), the derivatives by the product rule of
    ``_closed_form``. Numerical differentiation is never used here: the
    potential amplifies derivative noise quadratically.

    Parameters
    ----------
    params : PotentialParams
    r : float or array_like
        Radial coordinate, r >= 0.

    Returns
    -------
    W1Bundle
        Fields broadcast to the shape of ``r``.

    Raises
    ------
    ValidationError
        If some r is negative, (alpha, beta, q) are so large that a
        coefficient of W1 overflows, or W1 or a derivative is not finite at
        some r (r not finite, q r past about 6e76, or q past about 1e154).
    """
    return W1Bundle(*_w1(params, r, 2))


def _checked_finite(what: str, values, **at):
    """values, unless a point of one of them (None aside) is not finite:
    ValidationError then, naming ``what`` and the first such point by its
    coordinates ``at``, broadcast against the value. The one check of a k
    that is not finite (``jost._checked_k``) and of a result that is not:
    finite inputs give one where a closed form overflows, as e2 = k^2 - q^2
    at large |k|, e^{-ika} above the real axis and W1^2 at large q r do. A
    float or complex scalar (numpy's included) is checked by cmath, at a
    tenth of numpy's cost on one point."""
    for v in values:
        if v is not None and not (cmath.isfinite(v) if isinstance(v, (float, complex))
                                  else np.isfinite(v).all()):
            i = np.argmin(np.isfinite(v).ravel())
            where = ", ".join(f"{name} = {np.broadcast_to(x, np.shape(v)).flat[i].item()!r}"
                              for name, x in at.items())
            raise ValidationError(f"{what} not finite at {where}")
    return values


def potential_v4(params: PotentialParams, r):
    """The transformed potential V(r) = -2 d^2/dr^2 ln W1, computed as
    -2 (W1'' W1 - W1'^2) / W1^2.

    Raises
    ------
    ValidationError
        If some r is negative or W1 is not finite at some r (``w1_bundle``),
        or V is not: W1^2 overflows from q r of about 1e38 on.
    SingularPotential
        If |W1| falls below the scale-aware threshold
        ``1e-10 * (1 + (q r)^4)`` anywhere on ``r`` (a zero of W1 is a pole
        of V), or if W1 changes sign between consecutive samples of an
        ordered grid -- a crossing can dodge any pointwise floor.
    """
    r = np.asarray(r, dtype=float)
    b = w1_bundle(params, r)
    floor = SINGULARITY_THRESHOLD * (1.0 + (params.q * r) ** 4)
    if np.any(np.abs(b.w1) < floor):
        bad = r[np.abs(b.w1) < floor] if r.ndim else r
        raise SingularPotential(f"W1 vanishes near r = {np.atleast_1d(bad)[0]:.6g}")
    flips = _sign_changes(np.atleast_1d(b.w1))
    if flips.size:
        bad = float(np.atleast_1d(r)[flips[0]])
        raise SingularPotential(f"W1 changes sign between samples near r = {bad:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        v = -2.0 * (b.w1_rr * b.w1 - b.w1_r**2) / b.w1**2
    return _checked_finite(f"V at alpha={params.alpha!r}, beta={params.beta!r}, q={params.q!r} "
                           "is", (v,), r=r)[0]


def _sign_changes(w: np.ndarray) -> np.ndarray:
    """Indices i where w[i] and w[i + 1] have opposite signs (a zero opens none)."""
    return np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]


# scan_w1_sign samples W1 this far apart
_SCAN_STEP = 0.01


def scan_w1_sign(params: PotentialParams, r_max: float):
    """Scan [0, r_max] for sign changes of W1, in steps of 0.01.

    Returns a list of (r_lo, r_hi) brackets, each containing at least one
    zero of W1. An empty list says only that W1 keeps its sign between the
    samples; a pair of zeros closer than the step goes unseen.

    Raises
    ------
    ValidationError
        If r_max is not finite and non-negative, or the grid would hold
        more than ``numerics._MAX_GRID_POINTS`` points.
    """
    if not 0.0 <= r_max < math.inf:
        raise ValidationError(f"r_max must be finite and non-negative, got {r_max!r}")
    _grid_count(0.0, r_max + _SCAN_STEP, _SCAN_STEP)
    r = np.arange(0.0, r_max + _SCAN_STEP, _SCAN_STEP)
    return [(float(r[i]), float(r[i + 1])) for i in _sign_changes(_w1(params, r, 0)[0])]
