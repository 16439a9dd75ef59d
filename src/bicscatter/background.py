"""Two-resonance model of the cross section with a linear background.

Near the doublet the Jost function factors into the two resonant zeros
times a smooth remainder. Folding the remainder into one real background
function lambda(k), approximated as lambda0 + lambda1*k, gives a model
phase shift

    delta(k) = -arctan[ ((Y - lambda Z) sin ka + (lambda Y + Z) cos ka)
                      / ((Y - lambda Z) cos ka - (lambda Y + Z) sin ka) ]

with the resonance quadratics

    Y(k) = (k - k1)(k - k2) - G1 G2 / 4
    Z(k) = (G1/2)(k - k2) + (G2/2)(k - k1),        G_i = 2 * half-width.

lambda0 and lambda1 are fixed by pinning the model's two transmission
zeros to the exact cross-section minima. Only the combination lambda(k~1)
is well determined — the two coefficients are strongly anti-correlated —
so quality is judged by lambda(1), the minima positions, and the shape
deviation, never by the individual coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import SingularFitSystem, ValidationError
from .darboux import _checked_finite
from .jost import _checked_k
from .resonances import Resonance
from .scattering import (TruncatedConfig, _blockwise, _checked_real_axis, _ka_rotation,
                         _principal_phase, _real, _rotated, _scan, _sigma, _sigma_minima,
                         _sin2, _window_scan)

__all__ = [
    "Doublet",
    "BackgroundFit",
    "yz",
    "model_phase_and_sigma",
    "fit_lambda",
    "hadamard_residual",
]


@dataclass(frozen=True)
class Doublet:
    """The resonance pair feeding the model: positions and half-widths."""

    k1: float
    half_width1: float
    k2: float
    half_width2: float

    def __post_init__(self):
        if not self.k1 < self.k2:
            raise ValidationError("doublet must be ordered k1 < k2")

    @classmethod
    def from_resonances(cls, first: Resonance, second: Resonance) -> "Doublet":
        return cls(
            k1=first.k_re,
            half_width1=first.half_width,
            k2=second.k_re,
            half_width2=second.half_width,
        )

    @property
    def overlapping(self) -> bool:
        """Spacing below the mean full width: the isolation assumption frays."""
        return self.k2 - self.k1 < self.half_width1 + self.half_width2


@dataclass(frozen=True)
class BackgroundFit:
    """Fitted linear background over a doublet, with its fit diagnostics."""

    lambda0: float
    lambda1: float
    doublet: Doublet
    a: float
    fit_report: dict


def yz(doublet: Doublet, k):
    """The resonance quadratics (Y, Z) at real k (vectorized); ValidationError
    where k is not real (``scattering._real``) or not finite."""
    k = np.asarray(_real(k), dtype=float)
    _checked_k(k)
    g1 = 2.0 * doublet.half_width1
    g2 = 2.0 * doublet.half_width2
    y = (k - doublet.k1) * (k - doublet.k2) - g1 * g2 / 4.0
    z = 0.5 * ((k - doublet.k1) * g2 + (k - doublet.k2) * g1)
    return y, z


def _model_num_den(doublet: Doublet, a: float, lam0: float, lam1: float, k: np.ndarray):
    """Numerator and denominator of tan(-delta_model) on one block of real
    k (a 1-d array).

    den + i num = e^{ika} (A + iB) with A = Y - lam Z and B = lam Y + Z, two
    cubics in kappa = k - c, c = (k1 + k2)/2. With h = (k2 - k1)/2 and
    lam = l0 + l1 kappa, l0 = lam0 + lam1 c,

        Y = kappa^2 - (h^2 + hw1 hw2),    Z = (hw1 + hw2) kappa + (hw2 - hw1) h,

    (hw = half-width), and the block is the kernel of the exact phase,
    ``scattering._rotated``, on [1, kappa, kappa^2, kappa^3] with
    half-angle ka/2 and no second term. ValidationError where num or den
    is not finite (``darboux._checked_finite``).
    """
    c = 0.5 * (doublet.k1 + doublet.k2)
    h = 0.5 * (doublet.k2 - doublet.k1)
    y0 = -(h * h + doublet.half_width1 * doublet.half_width2)
    z0 = (doublet.half_width2 - doublet.half_width1) * h
    z1 = doublet.half_width1 + doublet.half_width2
    l0 = lam0 + lam1 * c
    y_lz = [y0 - l0 * z0, -(l0 * z1 + lam1 * z0), 1.0 - lam1 * z1, 0.0]
    ly_z = [l0 * y0 + z0, lam1 * y0 + z1, l0, lam1]
    coeffs = np.array([y_lz, ly_z, [-v for v in y_lz], [-v for v in ly_z]])
    return _checked_finite("the model's num, den are",
                           _rotated(coeffs, np.subtract(k, c), np.multiply(k, 0.5 * a)), k=k)


def model_phase_and_sigma(fit: BackgroundFit, k):
    """(delta_model, sigma_model) at k; identical branch handling to the
    exact pipeline (principal arctan phase, branch-free sin^2 for sigma).
    Evaluated in blocks through ``_model_num_den``, like
    ``scattering.cross_section``, and refused as it is (ValidationError)
    where k is not real, a point is not finite and positive or lies past
    the real-axis range (``scattering._checked_real_axis``), or the model's
    num, den or sigma is not finite there."""
    def block(kk):
        _checked_real_axis(kk, fit.a)
        num, den = _model_num_den(fit.doublet, fit.a, fit.lambda0, fit.lambda1, kk)
        phase = _principal_phase(num, den)  # before _sigma overwrites num, den
        return phase, _sigma(kk, num, den)

    return _blockwise(block, k)


def fit_lambda(
    config: TruncatedConfig,
    doublet: Doublet,
    window: Optional[Tuple[float, float]] = None,
) -> BackgroundFit:
    """Pin the model's transmission zeros to the exact minima.

    At a model zero m, (Y - lam Z) sin ma + (lam Y + Z) cos ma = 0 solves to

        lam_required(m) = -(Y sin ma + Z cos ma) / (Y cos ma - Z sin ma),

    and lambda0 + lambda1 * m = lam_required(m) at the two minima is a 2x2
    linear system. The Jacobian condition number is reported; positions are
    pinned exactly (depths there are zero by construction). Both come in
    closed form (``_pinned_line``, ``_condition_number``), within the
    condition number times a few eps of np.linalg.solve and np.linalg.cond.
    The reported residuals, |sin delta_model| at the two minima, come from
    the same pinning terms in builtin floats, not from ``_model_num_den``'s
    matrix product, so no bit of them depends on the BLAS kernel.

    ``window`` defaults to [k1 - 10*G1, k2 + 10*G2], and the minima pinned
    are the outermost that ``scattering.sigma_landmarks`` finds on it.

    Raises
    ------
    MinimaNotFound
        Fewer than two exact minima on the window (propagated).
    SingularFitSystem
        Degenerate doublet (zero widths make the zeros insensitive to
        lambda), or both minima at one k, or a singular Jacobian.
    """
    if window is None:
        window = (
            doublet.k1 - 20.0 * doublet.half_width1,
            doublet.k2 + 20.0 * doublet.half_width2,
        )
    found, _ = _sigma_minima(config, window[0], window[1])
    m1, m2 = found[0], found[-1]

    a = config.a
    # (Y sin ma + Z cos ma, Y cos ma - Z sin ma) at each minimum; the second
    # is also the derivative of the zero condition in lambda
    zero_terms = [_ka_rotation(*yz(doublet, m), m * a) for m in (m1, m2)]
    for m, (num, den) in zip((m1, m2), zero_terms):
        if den == 0 or not math.isfinite(num / den):
            raise SingularFitSystem(
                f"background is unconstrained at minimum k = {m:.9g} "
                "(degenerate doublet?)"
            )
    if m1 == m2:
        raise SingularFitSystem(f"fit system singular: both minima at k = {m1:.9g}")
    (num1, den1), (num2, den2) = zero_terms
    lam0, lam1 = _pinned_line(m1, m2, float(-num1 / den1), float(-num2 / den2))
    cond = _condition_number(float(den1), float(den2), m1, m2)
    if not math.isfinite(cond):
        raise SingularFitSystem("fit Jacobian is singular (zero-width doublet)")

    # the model's num and den at each minimum from its pinning terms, with
    # lam = lam0 + lam1 m: (Y - lam Z) sin ma + (lam Y + Z) cos ma and
    # (Y - lam Z) cos ma - (lam Y + Z) sin ma
    residuals = []
    for m, (num, den) in zip((m1, m2), zero_terms):
        lam = lam0 + lam1 * m
        num, den = float(num + lam * den), float(den - lam * num)
        residuals.append(abs(num) / math.hypot(num, den))
    return BackgroundFit(
        lambda0=lam0,
        lambda1=lam1,
        doublet=doublet,
        a=a,
        fit_report={
            "minima": [m1, m2],
            "condition_number": cond,
            "residuals": residuals,
            "window": list(window),
            "overlapping_resonances": doublet.overlapping,
        },
    )


def _pinned_line(m1: float, m2: float, r1: float, r2: float) -> Tuple[float, float]:
    """(lambda0, lambda1) with lambda0 + lambda1 m_i = r_i for m1 != m2, by
    the steps of LU with partial pivoting on [[1, m1], [1, m2]]."""
    lam1 = (r2 - r1) / (m2 - m1)
    return r1 - m1 * lam1, lam1


def _condition_number(den1: float, den2: float, m1: float, m2: float) -> float:
    """The 2-norm condition number of J = [[den1, den1 m1], [den2, den2 m2]]
    (inf if singular). For [[a, b], [c, d]] the singular values are
    (h+ +- h-) / 2 with h+- = hypot(a +- d, b -+ c), whose product is |det|,
    so it is (h+ + h-)^2 / (4 |det|), with det = den1 den2 (m2 - m1) formed
    as a product, free of cancellation."""
    a, b, c, d = den1, den1 * m1, den2, den2 * m2
    det = den1 * den2 * (m2 - m1)
    h = math.hypot(a + d, b - c) + math.hypot(a - d, b + c)
    return 0.25 * h * h / abs(det) if det else math.inf


def hadamard_residual(config: TruncatedConfig, fit: BackgroundFit,
                      k_grid: Optional[np.ndarray] = None) -> float:
    """Max |sin^2 delta_model - sin^2 delta_exact| over a k grid, which is
    |sigma_model - sigma_exact| / (4 pi / k^2).

    Default grid: the window from a quarter of the inter-minima span below
    the first minimum to a quarter above the second (where the
    factorization is meant to hold), in steps of pi/(640 a), through its
    end, that is the points of np.arange(lo, hi + dk, dk). It is a window
    like those of ``scattering.sigma_landmarks`` and
    ``scattering.phase_jump`` (``scattering._window_scan``): refused where
    it reaches k <= 0 or holds too many points, and only its points in the
    noise mask are evaluated, which drops the band around the removable
    point k = q where d and g are rounding.

    The default grid and a given one are streamed alike (``scattering._scan``,
    with the default grid's points made a block at a time, and a given
    grid's blocks refused before they are evaluated where a point is not
    finite and positive): each block goes through the exact and the model
    kernel (``scattering._num_den``, ``_model_num_den``) and only its
    maximum is kept, so no grid-sized array is allocated.

    Raises
    ------
    ValidationError
        If the fit was made at another cutoff, or a given grid is empty
        ("empty k grid"), is not real or holds a point that is not finite
        and positive or lies past the real-axis range
        (``scattering._checked_real_axis``), or a point where num^2 + den^2
        of the exact or the model phase is not finite (``scattering._sin2``),
        or the default grid fails the window checks or has no point in the
        noise mask (the refusal names the window and the floor, as
        ``scattering.phase_jump``'s does).
    DegenerateNormalizer
        If a given grid holds a point where d = g = 0, where the exact
        sin^2 delta is 0/0 (``scattering._sin2``).
    """
    if fit.a != config.a:
        raise ValidationError(f"fit is for cutoff {fit.a!r}, config has {config.a!r}")
    if k_grid is None:
        m1, m2 = fit.fit_report["minima"]
        span = m2 - m1
        lo, hi = m1 - 0.25 * span, m2 + 0.25 * span
        floor, blocks = _window_scan(config, lo, hi, math.pi / (640.0 * config.a))
    else:
        k_grid = np.asarray(_real(k_grid), dtype=float).ravel()
        if not k_grid.size:
            raise ValidationError("empty k grid")
        blocks = ((*b, None) for b in _scan(config, k_grid.size, lambda i, j: k_grid[i:j]))
    deviation = np.max([_block_deviation(fit, *b) for b in blocks], initial=-math.inf)
    if deviation == -math.inf:
        raise ValidationError(f"no point of the window [{lo!r}, {hi!r}] clears the "
                              f"rounding floor {floor:.3e} of hypot(d, g) at k = q")
    return float(deviation)


def _block_deviation(fit: BackgroundFit, k, num, den, keep):
    """``hadamard_residual`` on one block of points k, given the exact
    kernel's num and den there (``scattering._num_den``, overwritten): the
    maximum deviation over the points in the mask ``keep``
    (``scattering._window_scan``; all of a given grid's block for None,
    refused where d = g = 0), or -inf if none. A point where num^2 + den^2
    of either phase overflows is refused (``scattering._sin2``)."""
    if keep is not None:
        k, num, den = k[keep], num[keep], den[keep]
    exact = _sin2(num, den, k)
    model = _sin2(*_model_num_den(fit.doublet, fit.a, fit.lambda0, fit.lambda1, k), k)
    model -= exact
    return np.max(np.abs(model, out=model), initial=-math.inf)
