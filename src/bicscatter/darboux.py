"""Base phase shift, the degenerate Wronskian W1, and the transformed potential.

Everything here is closed-form. The transformation seed is the free wave
sin(q*r + delta(q)) with delta(q) = arctan(alpha*q - beta); the four-fold
degenerate Wronskian W1(q, r) of that seed and its first three q-derivatives
defines the potential

    V(r) = -2 * d^2/dr^2 [ln W1(q, r)].

W1 is evaluated in two algebraically equivalent ways: a fully expanded closed
form (`w1_bundle`, which also carries exact analytic r-derivatives) and a
compact form parameterized by the phase-shift derivatives (`w1_generic`).
Their agreement is one of the package's standing cross-checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SingularPotential, StrictModeViolation, ValidationError

__all__ = [
    "PotentialParams",
    "PhaseData",
    "W1Bundle",
    "phase_data",
    "w1_bundle",
    "w1_generic",
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

    ``bic_mode`` records that beta was constructed as exactly 3*alpha*q, the
    relation under which the transformation supports a normalizable state at
    energy q**2. ``diagnostic`` permits beta < 0, which produces a singular
    potential (useful only for plotting the W1 sign structure); all scattering
    machinery requires strict mode (beta > 0). Fields are stored as builtin
    floats whatever real type they were given in.
    """

    alpha: float
    beta: float
    q: float
    bic_mode: bool = False
    diagnostic: bool = False

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
        if self.beta < 0 and not self.diagnostic:
            raise StrictModeViolation(
                "beta < 0 produces a singular potential; pass diagnostic=True "
                "if that is intentional"
            )
        if self.bic_mode and self.beta != 3.0 * self.alpha * self.q:
            raise ValidationError(
                f"bic_mode requires beta == 3*alpha*q exactly "
                f"(beta={self.beta}, 3*alpha*q={3.0 * self.alpha * self.q})"
            )

    @classmethod
    def bic(cls, alpha: float = 1.0, q: float = 1.0) -> "PotentialParams":
        """Parameters with beta pinned to 3*alpha*q (bound state in the continuum)."""
        # beta is formed in builtin floats, as the exact bic check compares it
        if _is_real(alpha) and _is_real(q):
            alpha, q = float(alpha), float(q)
        return cls(alpha=alpha, beta=3.0 * alpha * q, q=q, bic_mode=True)


@dataclass(frozen=True)
class PhaseData:
    """Base phase shift delta(q) and its first three q-derivatives.

    gamma0, gamma1, gamma2 are d delta/dq, d2 delta/dq2, d3 delta/dq3. The
    evaluators theta(r) = q*r + delta and gamma(r) = r + gamma0 are the two
    combinations in which r enters every closed form below.
    """

    delta: float
    gamma0: float
    gamma1: float
    gamma2: float
    q: float

    def theta(self, r):
        return self.q * r + self.delta

    def gamma(self, r):
        return r + self.gamma0


@dataclass(frozen=True)
class W1Bundle:
    """W1 with its exact first and second r-derivatives (arrays broadcast over r)."""

    w1: np.ndarray
    w1_r: np.ndarray
    w1_rr: np.ndarray


def phase_data(params: PotentialParams) -> PhaseData:
    """Closed-form delta(q) = arctan(alpha*q - beta) and its q-derivatives.

    With t = alpha*q - beta and D = 1 + t**2:

        delta  = arctan(t)
        gamma0 = alpha / D
        gamma1 = -2 alpha^2 t / D^2
        gamma2 = -2 alpha^3 (1 - 3 t^2) / D^3
    """
    t = params.alpha * params.q - params.beta
    d = 1.0 + t * t
    return PhaseData(
        delta=math.atan(t),
        gamma0=params.alpha / d,
        gamma1=-2.0 * params.alpha**2 * t / d**2,
        gamma2=-2.0 * params.alpha**3 * (1.0 - 3.0 * t * t) / d**3,
        q=params.q,
    )


def _w1_coefficients(params: PotentialParams):
    """Constant coefficients of the expanded W1 closed form.

    Grouped so that the radial dependence enters only through x = q*r (the
    polynomial and double-frequency pieces) and theta = q*r + delta (the
    oscillatory pieces). Keeping the grouping exactly as derived preserves the
    relative accuracy of the large-r evaluation: the dominant 16 x^4 term is
    carried by a single monomial, so cancellation never exceeds a few units
    in the last place of the subdominant terms.
    """
    a, b, q = params.alpha, params.beta, params.q
    t = a * q - b
    d = 1.0 + t * t
    aq = a * q
    return {
        "c0": 12.0 * b * b / d**2 - 24.0 * b * aq / d**2,
        "cc": 24.0 * b * aq / d**2,
        "cs": 12.0 * aq * (aq * aq + b * b - 1.0) / d**2,
        "p3": 4.0 * aq / d,
        "p2": 6.0 * aq * aq / d**2,
        "p1": 3.0 * aq**3 / d**2,
        "d1": 2.0 * aq / d,
        "e1": 2.0 * aq * (1.0 - b * t) / d**2,
        "f2": 3.0 * aq / d,
        "f1": 3.0 * aq * aq / d**2,
        "s2": (1.0 - 6.0 * t * t + t**4) / d**2,
        "sc": 4.0 * t * (1.0 - t * t) / d**2,
    }


def _w1_bounds(params: PotentialParams):
    """(x_star, lower, m2): polynomial bounds on W1 in x = q*r >= 0, as
    ascending coefficient arrays for ``numpy.polynomial.polynomial.polyval``.

    The closed form of ``w1_bundle`` is a sum of terms P_j(x) T_j(x), with
    P_j a polynomial and T_j either 1 or a sine or cosine of frequency
    w_j in x, so |T_j^(m)| <= w_j^m (3 S2 sin^2(2x) and 3 SC sin(2x)cos(2x)
    are written as constants plus half-amplitude frequency-4 waves). Let
    |P| be P with its coefficients replaced by their absolute values, so
    |P(x)| <= |P|(x) and |P^(m)(x)| <= |P|^(m)(x) for x >= 0; terms of
    one frequency share a row of |P| coefficients below.

    * lower(x) = 16 x^4 - A3 x^3 - A2 x^2 - A1 x - A0, with A_n the sum over
      all terms of |coefficient of x^n|, satisfies W1 >= lower; by the
      Cauchy root bound lower > 0, hence W1 > 0, for x >= x_star =
      1 + max(A_n)/16.
    * m2(x) = sum_j |P_j|'' + 2 w_j |P_j|' + w_j^2 |P_j| bounds
      |d^2 W1/dx^2| by the product rule; it increases with x, so on
      [0, X] it is at most m2(X). In r, |W1''| <= q^2 m2(q r).
    """
    k = _w1_coefficients(params)
    s2, sc = 1.5 * k["s2"], 1.5 * k["sc"]
    # |P| of the frequency 0, 2 and 4 terms (rows), coefficients of x^0 .. x^4
    c = np.array([
        [abs(k["c0"] + s2), abs(16.0 * k["p1"] - 12.0 * k["d1"]),
         abs(16.0 * k["p2"] - 12.0), abs(16.0 * k["p3"]), 16.0],
        [abs(k["cc"]) + abs(k["cs"]), abs(24.0 * k["e1"]) + abs(16.0 * k["f1"] - 12.0),
         24.0 + abs(16.0 * k["f2"]), 16.0, 0.0],
        [abs(s2) + abs(sc), 0.0, 0.0, 0.0, 0.0],
    ])
    w = np.array([[0.0], [2.0], [4.0]])
    dx = np.diag(np.arange(1.0, 5.0), -1)  # c @ dx: coefficients of dc/dx
    m2 = (c @ dx @ dx + 2.0 * w * (c @ dx) + w * w * c).sum(axis=0)
    a = c.sum(axis=0)[:4]
    return 1.0 + a.max() / 16.0, np.append(-a, 16.0), m2


def w1_bundle(params: PotentialParams, r) -> W1Bundle:
    """Expanded closed form of W1(q, r) with exact analytic r-derivatives.

    W1 is assembled as

        C0 + Cc cos(2qr) + Cs sin(2qr)
          + 16(x^4 + p3 x^3 + p2 x^2 + p1 x) - 12(x^2 + d1 x)
          + 24(x^2 + e1 x) cos(2 theta)
          + [16(x^3 + f2 x^2 + f1 x) - 12 x] sin(2 theta)
          + 3 [S2 sin^2(2qr) + SC sin(2qr) cos(2qr)]

    with x = q*r, theta = q*r + delta. The derivatives are term-by-term,
    using d/dr sin^2(2qr) = 2q sin(4qr) and
    d/dr [sin(2qr) cos(2qr)] = 2q cos(4qr). Numerical differentiation is
    never used here: the potential amplifies derivative noise quadratically.

    Parameters
    ----------
    params : PotentialParams
    r : float or array_like
        Radial coordinate, r >= 0.

    Returns
    -------
    W1Bundle
        Fields broadcast to the shape of ``r``.
    """
    r = np.asarray(r, dtype=float)
    q = params.q
    pd = phase_data(params)
    k = _w1_coefficients(params)
    x = q * r
    th2 = 2.0 * (x + pd.delta)

    poly = 16.0 * (x**4 + k["p3"] * x**3 + k["p2"] * x**2 + k["p1"] * x) - 12.0 * (
        x**2 + k["d1"] * x
    )
    dpoly = 16.0 * (4.0 * x**3 + 3.0 * k["p3"] * x**2 + 2.0 * k["p2"] * x + k["p1"]) - 12.0 * (
        2.0 * x + k["d1"]
    )
    ddpoly = 16.0 * (12.0 * x**2 + 6.0 * k["p3"] * x + 2.0 * k["p2"]) - 24.0

    pc = 24.0 * (x**2 + k["e1"] * x)
    dpc = 24.0 * (2.0 * x + k["e1"])
    ddpc = 48.0
    ps = 16.0 * (x**3 + k["f2"] * x**2 + k["f1"] * x) - 12.0 * x
    dps = 16.0 * (3.0 * x**2 + 2.0 * k["f2"] * x + k["f1"]) - 12.0
    ddps = 16.0 * (6.0 * x + 2.0 * k["f2"])

    s2t, c2t = np.sin(th2), np.cos(th2)
    sq, cq = np.sin(2.0 * x), np.cos(2.0 * x)
    s4q, c4q = np.sin(4.0 * x), np.cos(4.0 * x)

    w1 = (
        k["c0"]
        + k["cc"] * cq
        + k["cs"] * sq
        + poly
        + pc * c2t
        + ps * s2t
        + 3.0 * (k["s2"] * sq**2 + k["sc"] * sq * cq)
    )
    w1_r = q * (
        -2.0 * k["cc"] * sq
        + 2.0 * k["cs"] * cq
        + dpoly
        + (dpc + 2.0 * ps) * c2t
        + (dps - 2.0 * pc) * s2t
        + 6.0 * (k["s2"] * s4q + k["sc"] * c4q)
    )
    w1_rr = q * q * (
        -4.0 * k["cc"] * cq
        - 4.0 * k["cs"] * sq
        + ddpoly
        + (ddpc + 4.0 * dps - 4.0 * pc) * c2t
        + (ddps - 4.0 * dpc - 4.0 * ps) * s2t
        + 24.0 * (k["s2"] * c4q - k["sc"] * s4q)
    )
    return W1Bundle(w1=w1, w1_r=w1_r, w1_rr=w1_rr)


def w1_generic(params: PotentialParams, r):
    """Compact W1 form parameterized by the phase-shift derivatives.

    Must agree with ``w1_bundle(...).w1`` to near machine precision; the two
    evaluations share no intermediate algebra.
    """
    r = np.asarray(r, dtype=float)
    pd = phase_data(params)
    q = params.q
    th = pd.theta(r)
    qg = q * pd.gamma(r)
    qg1 = q * q * pd.gamma1
    qg2 = q**3 * pd.gamma2
    return (
        16.0 * qg**4
        - 12.0 * qg**2
        + 8.0 * qg2 * qg
        - 12.0 * qg1**2
        + 24.0 * (qg1 * qg + qg**2) * np.cos(2.0 * th)
        + 3.0 * np.sin(2.0 * th) ** 2
        + (16.0 * qg**3 - 12.0 * qg - 12.0 * qg1 - 4.0 * qg2) * np.sin(2.0 * th)
    )


def potential_v4(params: PotentialParams, r, form: str = "ratio"):
    """The transformed potential V(r) = -2 d^2/dr^2 ln W1.

    Parameters
    ----------
    params : PotentialParams
    r : float or array_like
    form : {"ratio", "log"}
        Two algebraically identical evaluations, kept separate as a
        cross-check:  "ratio" computes -2 (W1'' W1 - W1'^2) / W1^2,
        "log" computes -2 (W1''/W1 - (W1'/W1)^2).

    Raises
    ------
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
    w = np.atleast_1d(b.w1)
    flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if flips.size:
        bad = float(np.atleast_1d(r)[flips[0]])
        raise SingularPotential(f"W1 changes sign between samples near r = {bad:.6g}")
    if form == "ratio":
        return -2.0 * (b.w1_rr * b.w1 - b.w1_r**2) / b.w1**2
    if form == "log":
        return -2.0 * (b.w1_rr / b.w1 - (b.w1_r / b.w1) ** 2)
    raise ValidationError(f"unknown potential form {form!r}")


def scan_w1_sign(params: PotentialParams, r_max: float, step: float = 0.01):
    """Scan [0, r_max] for sign changes of W1.

    Returns a list of (r_lo, r_hi) brackets, each containing at least one
    zero of W1. An empty list certifies positivity on the scanned grid, which
    is the validity condition for the transformation.
    """
    if step <= 0:
        raise ValidationError("step must be positive")
    r = np.arange(0.0, r_max + step, step)
    w = w1_bundle(params, r).w1
    flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    return [(float(r[i]), float(r[i + 1])) for i in flips]
