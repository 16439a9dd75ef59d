"""Zeros of the truncated-potential Jost function and Gamow states.

Truncating the potential at r = a converts the embedded bound state at
k = q into a conjugate-symmetric pair of resonances just below the real
axis, flanking q at a distance ~pi/a with half-widths ~1/a. They are the
two innermost members of a regular string of Jost-function zeros spaced
~pi/a along Re k; a wide search box picks up the rest of the string.

The search operates on d(k) + i g(k) (all zeros of F(-k), none of its
zero-free prefactor), evaluated in an overflow-safe grouping: d and g
separately contain e^{+-ika} pieces that overflow for Im k a few units of
1/a below the axis, so the root function used here is

    G(k) = e^{-ika} (d(k) + i g(k))

assembled so that only e^{-2ika} appears, which *underflows* harmlessly in
the lower half-plane instead of overflowing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateNormalizer,
    NoConvergence,
    RootCountMismatch,
    TrackingLost,
    ValidationError,
    ZeroDerivative,
)
from .darboux import PotentialParams
from .numerics import ComplexRectangle, Tolerance, newton_complex, winding_count
from .scattering import (
    TruncatedConfig,
    _boundary,
    _boundary_dk,
    _jost_prefactor,
    dg,
    regular_solution,
)

__all__ = [
    "Resonance",
    "GamowState",
    "SweepRow",
    "SweepResult",
    "root_function",
    "root_derivative",
    "default_search_box",
    "find_resonances",
    "doublet_of",
    "gamow_state",
    "sweep_cutoff",
]

# seeding grid for the box scan (local minima of log|G| feed Newton)
_GRID_RE = 41
_GRID_IM = 21
# grid-density doublings allowed when the census comes up short of the
# winding number (boxes much wider than the doublet hold ~width/(pi/a)
# zeros and need proportionally more seeds)
_MAX_GRID_REFINEMENTS = 3
# two polished roots closer than this are the same zero
_DEDUPE_DISTANCE = 1e-8
# gamow_state refuses N^2 whose estimated relative rounding is above this
_N_SQUARED_RTOL = 1e-6


@dataclass(frozen=True)
class Resonance:
    """One zero k_n = k_re - i Gamma/2 of the truncated Jost function.

    ``residual`` is |d + ig| at the root scaled by the magnitude of the
    same function on the search-box boundary (the raw value is meaningless:
    d and g grow like a^11 with the cutoff).
    """

    k_complex: complex
    residual: float

    @property
    def k_re(self) -> float:
        return self.k_complex.real

    @property
    def half_width(self) -> float:
        return -self.k_complex.imag

    @property
    def energy(self) -> complex:
        return self.k_complex**2


def root_function(config: TruncatedConfig) -> Callable:
    """G(k) = e^{-ika} (d + ig) in the overflow-safe grouping above.

    Agrees with e^{-ika} (d + ig) computed naively wherever the latter is
    finite. Broadcasts over k.
    """
    a = config.a

    def g_of(k):
        u0, v0, ua, va, bu, bv, kw = _boundary(config, k)
        cu = bu + 1j * kw * ua
        cv = bv + 1j * kw * va
        return 0.5 * (
            (u0 - 1j * v0) * (cv - 1j * cu)
            + np.exp(-2j * k * a) * (u0 + 1j * v0) * (cv + 1j * cu)
        )

    return g_of


def root_derivative(config: TruncatedConfig) -> Callable:
    """G'(k), the exact k-derivative of ``root_function(config)``.

    The product rule on G's grouping (see ``scattering._boundary``):

        G' = [((u0 - i v0)(cv - i cu))'
              + e^{-2ika} (((u0 + i v0)(cv + i cu))'
                           - 2ia (u0 + i v0)(cv + i cu))] / 2,

    with the derivatives of u, v and the r = a combinations from
    ``scattering._boundary_dk``. Broadcasts over k.
    """
    a = config.a

    def dg_of(k):
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
        return 0.5 * (dm * x + m * dx + np.exp(-2j * k * a) * (dp * y + p * dy - 2j * a * p * y))

    return dg_of


def default_search_box(config: TruncatedConfig) -> ComplexRectangle:
    """Box isolating the doublet: Re within ~2 string spacings of q.

    The zero string is spaced pi/a in Re with the doublet offset ~1.6 pi/a
    from q and depth ~0.87/a; the nearest non-doublet members sit at
    ~2.7 pi/a and depth ~1.09/a. The bounds below (scale-free in a) keep
    exactly the two innermost zeros inside with comfortable margin on all
    four sides.
    """
    q = config.params.q
    a = config.a
    half = 2.1 * math.pi / a
    return ComplexRectangle(q - half, q + half, -0.97 / a, -0.1 / a)


def find_resonances(
    config: TruncatedConfig,
    search_box: Optional[ComplexRectangle] = None,
    seeds: Optional[Sequence[complex]] = None,
) -> List[Resonance]:
    """All zeros of F(-k) inside a box, certified by the argument principle.

    Seeds come from local minima of |G| on a 41x21 grid over the box (or
    are supplied explicitly); each is polished by damped Newton. The final
    count must match the winding number of G around the box, which is what
    makes the result a census rather than a sample.

    Raises
    ------
    RootCountMismatch
        Winding number differs from the number of converged distinct roots.
    NoConvergence
        Some seed failed to converge *and* the census came up short.
    """
    if search_box is None:
        search_box = default_search_box(config)
    if search_box.im_max > 0:
        raise ValidationError("search box must lie below the real axis")
    g = root_function(config)
    g_prime = root_derivative(config)

    def grid_seeds(n_re: int, n_im: int) -> List[complex]:
        grid = search_box.grid(n_re, n_im)
        mag = np.abs(g(grid))
        # local minima over 3x3 neighborhoods, edges included
        padded = np.pad(mag, 1, constant_values=np.inf)
        neigh = np.stack(
            [
                padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ]
        )
        return [complex(z) for z in grid[mag <= neigh.min(axis=0)]]

    def polish(candidates, roots: List[complex]) -> int:
        failures = 0
        for seed in candidates:
            try:
                z, _, _ = newton_complex(g, g_prime, seed,
                                         Tolerance(abs_tol=1e-13, rel_tol=1e-13))
            except (NoConvergence, ZeroDerivative):
                failures += 1
                continue
            if not search_box.contains(z):
                continue
            if all(abs(z - r) > _DEDUPE_DISTANCE for r in roots):
                roots.append(z)
        return failures

    count = winding_count(g, search_box)
    roots: List[complex] = []
    if seeds is not None:
        failures = polish(seeds, roots)
    else:
        # densify the seeding grid until the census matches the certificate:
        # adjacent zeros merge into one grid minimum when the node spacing
        # exceeds their separation
        n_re, n_im = _GRID_RE, _GRID_IM
        for refinement in range(_MAX_GRID_REFINEMENTS + 1):
            failures = polish(grid_seeds(n_re, n_im), roots)
            if len(roots) >= count:
                break
            n_re, n_im = 2 * n_re - 1, 2 * n_im - 1

    if count != len(roots):
        if failures and count > len(roots):
            raise NoConvergence(
                f"{failures} seed(s) failed and census is short: winding {count}, "
                f"converged {len(roots)}"
            )
        raise RootCountMismatch(
            f"winding number {count} but {len(roots)} distinct converged roots"
        )

    boundary_scale = np.max(np.abs(g(np.array(search_box.corners))))
    roots.sort(key=lambda z: z.real)
    return [Resonance(complex(z), float(abs(g(z)) / boundary_scale)) for z in roots]


def doublet_of(resonances: Sequence[Resonance], q: float) -> Tuple[Resonance, Resonance]:
    """The two members nearest the embedded-state wave number, Re-sorted."""
    if len(resonances) < 2:
        raise ValidationError(f"need at least two resonances, got {len(resonances)}")
    pair = sorted(resonances, key=lambda r: abs(r.k_complex - q))[:2]
    pair.sort(key=lambda r: r.k_re)
    return pair[0], pair[1]


@dataclass(frozen=True)
class GamowState:
    """Purely outgoing eigenfunction at a resonance pole.

    psi_n = Phi(k_n, .) / N_n with N_n^2 = F(k_n) F'(-k_n) / (4 i k_n^2).
    N_n is defined by its square only; ``branch`` records which square root
    the evaluator uses (the density psi_n^2 is branch-independent).
    """

    resonance: Resonance
    N_squared: complex
    config: TruncatedConfig = field(repr=False)
    branch: str = "principal"

    @property
    def N(self) -> complex:
        return cmath.sqrt(self.N_squared)

    def __call__(self, r):
        ph, _ = regular_solution(self.config, self.resonance.k_complex, r)
        return ph / self.N


def _n_squared_rounding(config: TruncatedConfig, k, d_minus_ig, g_prime) -> float:
    """Estimated relative rounding error of N^2 built from d - ig and G' at k.

    d + ig and d - ig vanish at k = q to fourth order and G' to third, so
    their values computed at q are pure rounding: the noise floor of this
    config's d, g and G', which stays at that level near q. Divided by
    |d - ig| and |G'| at k they give the share lost to cancellation. The
    rounding of the phases k a and theta(a) = q a + delta adds about
    2 eps (|k| + 2q) a. Against N^2 in 50-digit arithmetic the estimate
    was 0.7 to 2 times the error where cancellation dominates (k within
    1e-3 of q at a = 300 and 5000, error up to 0.3), above 1 wherever N^2
    was pure noise, and 1.5 to 400 times the error at doublets with a up
    to 1e8, where the phases dominate.
    """
    q = config.params.q
    d_q, g_q = dg(config, q)
    phases = 2.0 * np.finfo(float).eps * (abs(k) + 2.0 * q) * config.a
    return float(math.hypot(d_q, g_q) / abs(d_minus_ig)
                 + abs(root_derivative(config)(q)) / abs(g_prime) + phases)


def gamow_state(config: TruncatedConfig, resonance: Resonance,
                residual_tol: float = 1e-6) -> GamowState:
    """Normalize the regular solution at a resonance pole.

    F(-k) = pref(k) e^{2ika} G(k) with the zero-free pref = W1(0) / (h(k)
    W1(a)^2), so at a zero of G the derivative is exactly
    dF(-k)/dk = pref(k_n) e^{2ik_n a} G'(k_n), from ``root_derivative``;
    the terms it drops are proportional to the root residual. h and pref
    are products, accurate to rounding however small h gets, so N^2 is as
    accurate as d - ig and G' at k_n (``_n_squared_rounding``). Evaluating
    the state keeps the |h| threshold of ``regular_solution``, whose
    numerator cancels to about h r.

    Raises
    ------
    ValidationError
        If the resonance residual is above ``residual_tol`` (not a certified
        root).
    DegenerateNormalizer
        If the estimated relative rounding of N^2 is above 1e-6: k_n is so
        close to q that d - ig and G' are rounding noise.
    ZeroDerivative
        If |dF(-k)/dk| at the root is negligible against F(k_n) — the zero
        would be higher-order and the state degenerate.
    """
    if resonance.residual > residual_tol:
        raise ValidationError(
            f"resonance residual {resonance.residual:.3e} above {residual_tol:.0e}"
        )
    kn = resonance.k_complex
    d, g = dg(config, kn)
    g_prime = root_derivative(config)(kn)
    rounding = _n_squared_rounding(config, kn, d - 1j * g, g_prime)
    if not rounding <= _N_SQUARED_RTOL:
        raise DegenerateNormalizer(
            f"N^2 at k = {kn!r} is resolved only to {rounding:.1e} relative: d - ig and "
            "G' are rounding noise this close to the embedded-state wave number"
        )
    pref = _jost_prefactor(config, kn)
    f_plus = pref * np.exp(-1j * kn * config.a) * (d - 1j * g)
    d_f_minus = pref * np.exp(2j * kn * config.a) * g_prime
    if abs(d_f_minus) * (1.0 + abs(kn)) < 1e-12 * abs(f_plus):
        raise ZeroDerivative(
            f"|dF(-k)/dk| = {abs(d_f_minus):.3e} at k = {kn!r}: higher-order zero"
        )
    n_squared = f_plus * d_f_minus / (4j * kn**2)
    return GamowState(resonance=resonance, N_squared=complex(n_squared), config=config)


@dataclass(frozen=True)
class SweepRow:
    a: float
    first: Resonance
    second: Resonance


@dataclass(frozen=True)
class SweepResult:
    """Doublet trajectory across cutoffs, with the width-trend verdict."""

    rows: Tuple[SweepRow, ...]
    gamma_monotone: bool


def sweep_cutoff(params: PotentialParams, a_values: Sequence[float]) -> SweepResult:
    """Track the doublet as the cutoff grows.

    Continuation is nearest-neighbor: each new doublet member must lie
    within the current doublet spacing |k2 - k1| of its predecessor, else
    the identification is not trustworthy (the whole zero string moves as
    ~1/a, so a large enough jump in a walks the doublet past its former
    neighbors).

    Raises
    ------
    TrackingLost
        If a continuation step exceeds the current doublet spacing.
    """
    if len(a_values) < 1:
        raise ValidationError("a_values must be non-empty")
    if any(a2 <= a1 for a1, a2 in zip(a_values, a_values[1:])):
        raise ValidationError("a_values must be strictly increasing")
    rows: List[SweepRow] = []
    prev: Optional[Tuple[Resonance, Resonance]] = None
    for a in a_values:
        config = TruncatedConfig(params=params, a=float(a))
        pair = doublet_of(find_resonances(config), params.q)
        if prev is not None:
            spacing = abs(pair[1].k_complex - pair[0].k_complex)
            drift = max(
                abs(pair[0].k_complex - prev[0].k_complex),
                abs(pair[1].k_complex - prev[1].k_complex),
            )
            if drift > spacing:
                raise TrackingLost(
                    f"doublet moved {drift:.3e} between a = {rows[-1].a:g} and "
                    f"a = {a:g}, exceeding its spacing {spacing:.3e}; "
                    "insert intermediate cutoffs"
                )
        rows.append(SweepRow(a=float(a), first=pair[0], second=pair[1]))
        prev = pair
    monotone = all(
        r2.first.half_width < r1.first.half_width
        and r2.second.half_width < r1.second.half_width
        for r1, r2 in zip(rows, rows[1:])
    )
    return SweepResult(rows=tuple(rows), gamma_monotone=monotone)
