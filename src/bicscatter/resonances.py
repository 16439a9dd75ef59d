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
    ValidationError,
    ZeroDerivative,
)
from .darboux import PotentialParams
from .numerics import ComplexRectangle, newton_complex, winding_count
from .scattering import (
    TruncatedConfig,
    _boundary,
    _g_parts,
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

# Newton steps allowed on the scaling-limit equation (3 to 7 are taken)
_LIMIT_MAX_ITER = 30
_EPS = np.finfo(float).eps
# two polished roots closer than this many pi/a are the same zero (the
# string's members are about pi/a apart)
_DEDUPE_SPACINGS = 1e-3
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
    """G'(k), the exact k-derivative of ``root_function(config)``, assembled
    from the product-rule parts of ``scattering._g_parts``. Broadcasts over
    k.
    """
    a = config.a

    def dg_of(k):
        _, _, front, back = _g_parts(config, k)
        return 0.5 * (front + np.exp(-2j * k * a) * back)

    return dg_of


def _limit_root(n: int) -> complex:
    """x_n, the n-th root (n >= 1) in Re x > 0 of the zero string's scaling limit

        (x + 3i/2) e^{2ix} = -i (x^2 - 2ix - 3/2),

    by Newton from the large-|x| asymptote (n + 3/4) pi - (i/2) ln((n + 3/4) pi).
    The doublet is x_1 = (1.61637 - 0.27545i) pi. -conj(x_n) is a root too,
    and x = 0 (the removable zero of d + ig at k = q, on the real axis).

    Derivation (``_limit_seeds`` maps x to k = q + x/a): with x fixed and
    a -> infinity, e2 = k^2 - q^2 = 2qx/a + x^2/a^2 and gamma(a) = a + gamma0,
    so the a^2 terms of ``jost._uv_coefficients`` at r = a dominate. With
    theta = qa + delta they sum to

        u +- iv = 32 q^6 a^2 [2x^2 +- 4ix - 3 +- i (2x +- 3i) e^{-+2i theta}],

    and d/dr falls on theta alone at this order:
    (u +- iv)_r = 64 q^7 a^2 (2x +- 3i) e^{-+2i theta}. In G (see
    ``scattering._boundary``), cv - i cu = -i (W1 (u + iv)_r - W1' (u + iv))
    and cv + i cu = i (W1 (u - iv)_r - W1' (u - iv)) + 2k W1 (u - iv). As
    W1'/W1 = O(1/a), to leading order

        cv - i cu = -64i q^7 a^2 W1 (2x + 3i) e^{-2i theta},
        cv + i cu = 64 q^7 a^2 W1 (2x^2 - 4ix - 3),

    the e^{2i theta} of i (u - iv)_r cancelling that of 2k (u - iv). At r = 0
    the e2^0 coefficients of u and v vanish on beta = 3 alpha q, and the
    e2^1 ones give u0 +- i v0 = M e2 e^{-+i delta} (1 + O(1/a)) with
    M = 144 alpha^2 q^4 / (1 + 4 alpha^2 q^2)^{3/2} > 0. Writing
    e^{-2ika} = e^{-2i theta + 2i delta - 2ix},

        G = 32 q^7 a^2 W1(a) M e2 e^{i delta - 2i theta}
            [-i (2x + 3i) + e^{-2ix} (2x^2 - 4ix - 3)] (1 + O(1/a)),

    whose bracket is the equation above: alpha and q drop out, and the zeros
    approach k_n = q + x_n/a with an O(1/a^2) error. (The expansions were
    checked symbolically.)
    """
    z = (n + 0.75) * math.pi
    x = complex(z, -0.5 * math.log(z))
    for _ in range(_LIMIT_MAX_ITER):
        e = cmath.exp(2j * x)
        step = (((x + 1.5j) * e + 1j * (x * x - 2j * x - 1.5))
                / ((2j * x - 2.0) * e + 2j * x + 2.0))
        x -= step
        if abs(step) <= 4.0 * _EPS * abs(x):
            break
    return x


def _limit_seeds(config: TruncatedConfig, box: ComplexRectangle) -> List[complex]:
    """k = q + x/a for every root x_n, -conj(x_n) of the scaling limit
    (``_limit_root``) in the box widened by pi/(2a) on each side.

    Re x_n lies in ((n + 1/2) pi, (n + 3/4) pi), which bounds n. A member
    polished from the margin counts only if it lands inside the box.
    """
    q, a = config.params.q, config.a
    lo, hi = (box.re_min - q) * a - 0.5 * math.pi, (box.re_max - q) * a + 0.5 * math.pi
    im_lo, im_hi = box.im_min * a - 0.5 * math.pi, box.im_max * a + 0.5 * math.pi
    nearest = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    first = max(1, math.ceil(nearest / math.pi - 0.75))
    last = math.floor(max(abs(lo), abs(hi)) / math.pi - 0.5)
    seeds = []
    for n in range(first, last + 1):
        x = _limit_root(n)
        for z in (-x.conjugate(), x):
            if lo <= z.real <= hi and im_lo <= z.imag <= im_hi:
                seeds.append(q + z / a)
    return seeds


def default_search_box(config: TruncatedConfig) -> ComplexRectangle:
    """Box holding exactly the doublet: Re within 2.1 pi/a of q, Im in
    [-1.5/a, -0.1/a].

    In x = (k - q) a the zero string tends to the a-independent roots of
    ``_limit_root``: the doublet at x/pi = +-1.61637 - 0.27545i and the next
    members at +-2.66382 - 0.34660i. The box is fixed in x. Its Re edges
    hold the doublet 0.48 pi inside and the next members 0.56 pi outside;
    its Im edges stay clear of the removable zero at k = q and of the
    doublet's O(1/a) offsets from the limit, which at qa = 30 put Im x at
    -0.98 to -0.73 (Im x = -0.865 in the limit).
    """
    q = config.params.q
    a = config.a
    half = 2.1 * math.pi / a
    return ComplexRectangle(q - half, q + half, -1.5 / a, -0.1 / a)


def find_resonances(
    config: TruncatedConfig,
    search_box: Optional[ComplexRectangle] = None,
) -> List[Resonance]:
    """All zeros of F(-k) inside a box, certified by the argument principle.

    The seeds are the scaling-limit predictions k = q + x_n/a of every
    string member in or near the box (``_limit_seeds``), one damped Newton
    run on the exact G' per member. Polished roots outside the box are
    dropped, and roots within 1e-3 pi/a of each other count once. The
    winding number of G around the box is the certificate: the census is
    returned only if it holds exactly that many distinct roots. A box the
    limit does not describe (q a below about 6.3, or Re k reaching 0) is
    refused, not searched by other means.

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
    dedupe = _DEDUPE_SPACINGS * math.pi / config.a

    count = winding_count(g, search_box)
    roots: List[complex] = []
    failures = 0
    for seed in _limit_seeds(config, search_box):
        try:
            z, _, _ = newton_complex(g, g_prime, seed)
        except (NoConvergence, ZeroDerivative):
            failures += 1
            continue
        if search_box.contains(z) and all(abs(z - r) > dedupe for r in roots):
            roots.append(z)

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
    """The doublet at each cutoff, and whether both widths shrink.

    Each row is an independent census in ``default_search_box``, which is
    fixed in x = (k - q) a and holds exactly the doublet, so every row is
    certified on its own and equals ``find_resonances`` at that cutoff.
    No continuation links the rows: any increasing list of cutoffs works,
    however far apart.
    """
    if len(a_values) < 1:
        raise ValidationError("a_values must be non-empty")
    if any(a2 <= a1 for a1, a2 in zip(a_values, a_values[1:])):
        raise ValidationError("a_values must be strictly increasing")
    rows: List[SweepRow] = []
    for a in a_values:
        config = TruncatedConfig(params=params, a=float(a))
        first, second = doublet_of(find_resonances(config), params.q)
        rows.append(SweepRow(a=float(a), first=first, second=second))
    monotone = all(
        r2.first.half_width < r1.first.half_width
        and r2.second.half_width < r1.second.half_width
        for r1, r2 in zip(rows, rows[1:])
    )
    return SweepResult(rows=tuple(rows), gamma_monotone=monotone)
