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
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import SingularFitSystem, ValidationError
from .resonances import Resonance
from .scattering import (TruncatedConfig, _blockwise, _ka_rotation, _noise_floor,
                         _principal_phase, _sigma, cross_section, dg, sigma_landmarks)

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

    def lam(self, k):
        return self.lambda0 + self.lambda1 * np.asarray(k)


def yz(doublet: Doublet, k):
    """The resonance quadratics (Y, Z) at k (vectorized)."""
    k = np.asarray(k, dtype=float)
    g1 = 2.0 * doublet.half_width1
    g2 = 2.0 * doublet.half_width2
    y = (k - doublet.k1) * (k - doublet.k2) - g1 * g2 / 4.0
    z = 0.5 * ((k - doublet.k1) * g2 + (k - doublet.k2) * g1)
    return y, z


def _model_num_den(doublet: Doublet, a: float, lam0: float, lam1: float, k):
    k = np.asarray(k, dtype=float)
    y, z = yz(doublet, k)
    lam = lam0 + lam1 * k
    return _ka_rotation(y - lam * z, lam * y + z, k * a)


def model_phase_and_sigma(fit: BackgroundFit, k):
    """(delta_model, sigma_model) at k; identical branch handling to the
    exact pipeline (principal arctan phase, branch-free sin^2 for sigma).
    Evaluated in blocks, like ``scattering.cross_section``."""
    def block(kk):
        num, den = _model_num_den(fit.doublet, fit.a, fit.lambda0, fit.lambda1, kk)
        return _principal_phase(num, den), _sigma(kk, num, den)

    return _blockwise(block, k)


def fit_lambda(
    config: TruncatedConfig,
    doublet: Doublet,
    window: Optional[Tuple[float, float]] = None,
    minima: Optional[Sequence[float]] = None,
) -> BackgroundFit:
    """Pin the model's transmission zeros to the exact minima.

    At a model zero m, (Y - lam Z) sin ma + (lam Y + Z) cos ma = 0 solves to

        lam_required(m) = -(Y sin ma + Z cos ma) / (Y cos ma - Z sin ma),

    and lambda0 + lambda1 * m = lam_required(m) at the two minima is a 2x2
    linear system. The Jacobian condition number is reported; positions are
    pinned exactly (depths there are zero by construction).

    ``window`` defaults to [k1 - 10*G1, k2 + 10*G2]; ``minima`` overrides
    the exact-minima search (used by round-trip tests).

    Raises
    ------
    MinimaNotFound
        Fewer than two exact minima on the window (propagated).
    SingularFitSystem
        Degenerate doublet (zero widths make the zeros insensitive to
        lambda) or numerically singular 2x2 system.
    """
    if window is None:
        window = (
            doublet.k1 - 20.0 * doublet.half_width1,
            doublet.k2 + 20.0 * doublet.half_width2,
        )
    if minima is None:
        marks = sigma_landmarks(config, window[0], window[1])
        m1, m2 = marks.minima[0], marks.minima[-1]
    else:
        if len(minima) != 2:
            raise ValidationError("minima override must supply exactly two positions")
        m1, m2 = sorted(float(m) for m in minima)

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
    vander = np.array([[1.0, m1], [1.0, m2]])
    try:
        lam0, lam1 = np.linalg.solve(vander, [-num / den for num, den in zero_terms])
    except np.linalg.LinAlgError as exc:
        raise SingularFitSystem(f"fit system singular: {exc}") from exc

    # Jacobian of the two zero conditions w.r.t. (lambda0, lambda1)
    jac_rows = [[den, den * m] for m, (_, den) in zip((m1, m2), zero_terms)]
    cond = float(np.linalg.cond(np.array(jac_rows)))
    if not math.isfinite(cond):
        raise SingularFitSystem("fit Jacobian is singular (zero-width doublet)")

    num1, den1 = _model_num_den(doublet, a, lam0, lam1, np.array([m1, m2]))
    residuals = list(np.abs(num1) / np.hypot(num1, den1))
    return BackgroundFit(
        lambda0=float(lam0),
        lambda1=float(lam1),
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


def hadamard_residual(config: TruncatedConfig, fit: BackgroundFit,
                      k_grid: Optional[np.ndarray] = None) -> float:
    """Max |sigma_model - sigma_exact| / (4 pi / k^2) over a k grid.

    Default grid: the inter-minima span widened by a quarter on each side
    (where the factorization is meant to hold), step pi/(640 a), without
    the points near the removable point k = q where d and g are rounding
    noise (the rule of ``scattering.sigma_landmarks``).
    """
    if k_grid is None:
        m1, m2 = fit.fit_report["minima"]
        s = m2 - m1
        k_grid = np.arange(m1 - 0.25 * s, m2 + 0.25 * s, math.pi / (640.0 * config.a))
        k_grid = k_grid[np.hypot(*dg(config, k_grid)) > _noise_floor(config)]
    k_grid = np.asarray(k_grid, dtype=float)
    exact = cross_section(config, k_grid)
    _, model = model_phase_and_sigma(fit, k_grid)
    scale = 4.0 * math.pi / k_grid**2
    return float(np.max(np.abs(model - exact) / scale))
