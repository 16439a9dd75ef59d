"""Zeros of the truncated-potential Jost function and Gamow states.

Truncating the potential at r = a turns the embedded bound state at k = q
into zeros of the Jost function just below the real axis. Beside the zero
of order 4 of d + ig at q, which h cancels in F(-k), a fifth, simple and
ultra-narrow zero k* = q + x*/a carries the trapped state (60-digit
arithmetic: Im k* = -1.3349e-8 at alpha = q = 1, a = 100, falling like
a^-4; see ``_limit_root``); no census here counts it. Flanking q at about
1.6 pi/a, with half-widths ~1/a, is the doublet: a pair of resonances
mirrored about Re k = q, the two innermost members of a regular string of
zeros spaced ~pi/a along Re k. A wide search box picks up the rest of the
string.

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
    NoConvergence,
    RootCountMismatch,
    ValidationError,
    ZeroDerivative,
)
from .darboux import PotentialParams, _checked_finite
from .jost import _checked_k
from .numerics import ComplexRectangle, newton_complex, winding_count
from .scattering import (
    _EPS,
    TruncatedConfig,
    _g,
    _g_prime,
    _jost_from_dg,
    _jost_prefactor,
    _near_q,
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
# two polished roots closer than this many pi/a are one zero found twice
# (the string's members are about pi/a apart)
_SAME_ZERO_SPACINGS = 1e-3
# gamow_state refuses a k_n unless a |G(k_n) / G'(k_n)|, its distance from a
# zero of G in units of 1/a, is at most this
_ROOT_TOL = 1e-6
# power of (k - q) that find_resonances divides out of G before counting.
# G's zero at q has order exactly 4, but G ~ e2 x^4 at leading order in 1/a
# (x = (k - q) a, see _limit_root) falls like x^5 down to |x| ~ a^-3, as the
# default box's top edge sees it. G / (k - q)^5 has a simple pole at q, which
# every counted box leaves outside, so it winds exactly as often as G.
_DEFLATION_ORDER = 5


@dataclass(frozen=True)
class Resonance:
    """One zero k_n = k_re - i Gamma/2 of the truncated Jost function.

    ``residual`` is |G| = |e^{-ika} (d + ig)| at the root, as Newton
    returned it, over the largest |G| at the search box's four corners (the
    raw value is meaningless: d and g grow like a^11 with the cutoff).
    It is not a ratio of |d + ig|: |G| = e^{a Im k} |d + ig|, and at the
    doublet that factor is about 0.42.
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

    G = P + e^{-2ika} Q with P and Q from four real polynomials in
    e2 = k^2 - q^2 built with the config (``scattering._g_polynomials``).
    Agrees with e^{-ika} (d + ig) computed naively wherever the latter is
    finite. Broadcasts over k; ValidationError where k, or a point of an
    array k, is not finite (``jost._checked_k``), or where G is not
    (``darboux._checked_finite``): above the real axis, where e^{-2ika} Q
    overflows (from a Im k of about 320 at alpha = q = 1, a = 5000), and
    where |k| is so large that the polynomials in e2 overflow (from about
    4e30 there).
    """
    def g(k):
        _checked_k(k)
        return _checked_finite("G is", (_g(config, k),), k=k)[0]

    return g


def root_derivative(config: TruncatedConfig) -> Callable:
    """G'(k) = P' + e^{-2ika} (Q' - 2ia Q), the exact k-derivative of
    ``root_function(config)``, from polynomials derived once from those of
    G (``scattering._g_polynomials``). Broadcasts over k, and refuses a k,
    or a G', that is not finite as ``root_function`` does.
    """
    def g_prime(k):
        _checked_k(k)
        return _checked_finite("G' is", (_g_prime(config, k),), k=k)[0]

    return g_prime


def _limit_root(n: int) -> complex:
    """x_n, the n-th root (n >= 1) in Re x > 0 of the zero string's scaling limit

        (x + 3i/2) e^{2ix} = -i (x^2 - 2ix - 3/2),

    by Newton from the large-|x| asymptote (n + 3/4) pi - (i/2) ln((n + 3/4) pi).
    The doublet is x_1 = (1.61637 - 0.27545i) pi. -conj(x_n) is a root too,
    and so is x = 0. At finite a that root is not on the real axis: it is
    the simple zero k* = q + x*/a of d + ig just below it, with
    x* = -3.95e-8 - 1.335e-6i at alpha = q = 1, a = 100 (60-digit
    arithmetic) and Im k* falling like a^-4. It sits beside the zero of
    order 4 of d + ig at k = q itself, which h (``scattering._h_of``)
    cancels in F(-k): F(-q) is finite, while F(-k*) = 0.

    Derivation (``_limit_seeds`` maps x to k = q + x/a): with x fixed and
    a -> infinity, e2 = k^2 - q^2 = 2qx/a + x^2/a^2 and gamma(a) = a + gamma0,
    so the a^2 terms of ``jost._uv_coefficients`` at r = a dominate. With
    theta = qa + delta they sum to

        u +- iv = 32 q^6 a^2 [2x^2 +- 4ix - 3 +- i (2x +- 3i) e^{-+2i theta}],

    and d/dr falls on theta alone at this order:
    (u +- iv)_r = 64 q^7 a^2 (2x +- 3i) e^{-+2i theta}. In
    G = [(u0 - i v0)(kX - iY) + e^{-2ika} (u0 + i v0)(kX+ + iY+)] / 2 (see
    ``scattering._g_polynomials``), kX - iY = -i (W1 (u + iv)_r - W1' (u + iv))
    and kX+ + iY+ = i (W1 (u - iv)_r - W1' (u - iv)) + 2k W1 (u - iv). As
    W1'/W1 = O(1/a), to leading order

        kX - iY   = -64i q^7 a^2 W1 (2x + 3i) e^{-2i theta},
        kX+ + iY+ = 64 q^7 a^2 W1 (2x^2 - 4ix - 3),

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
    its Im edges stay clear of the zeros at and beside k = q and of the
    doublet's O(1/a) offsets from the limit, which at qa = 30 put Im x at
    -0.98 to -0.73 (Im x = -0.865 in the limit). Those zeros are the one
    of order 4 at q, which h cancels in F(-k), and the simple zero k* just
    below the axis (``_limit_root``; Im x* = -1.3e-6 at alpha = q = 1,
    a = 100, and smaller beyond). The top edge passes 0.1/a below q, so it
    clears k* too. Seen from the edge, G falls like x^5, the zero of order
    4 at q and k* together (``_DEFLATION_ORDER``), yet costs no refinement:
    ``find_resonances`` counts the winding of G / (k - q)^5, which has no
    zero near the edge, so the count resolves on the 4 x 65 initial samples
    of ``winding_count`` over the envelope. The box reaches Re k <= 0, and
    is refused, where q a <= 2.1 pi.
    """
    return _x_window(config, 2.1 * math.pi, -1.5, -0.1)


def _x_window(config: TruncatedConfig, half: float, lo: float, hi: float) -> ComplexRectangle:
    """The box |Re x| <= half, lo <= Im x <= hi in x = (k - q) a, where the
    zero string does not move with the cutoff (``_limit_root``)."""
    q, a = config.params.q, config.a
    return ComplexRectangle(q - half / a, q + half / a, lo / a, hi / a)


def find_resonances(
    config: TruncatedConfig,
    search_box: Optional[ComplexRectangle] = None,
) -> List[Resonance]:
    """All zeros of F(-k) inside a box, certified by the argument principle.

    The seeds are the scaling-limit predictions k = q + x_n/a of every
    string member in or near the box (``_limit_seeds``), one Newton run on
    the exact G' per member, damped only on steps above its tolerance
    (``numerics.newton_complex``). Polished roots outside the box are
    dropped. The winding number of G around the box is the certificate:
    the census is returned only if it holds exactly that many roots, no
    two of them within 1e-3 pi/a of each other. Two seeds polished onto
    one zero are refused, not merged: the count alone would pass a census
    that lists one zero twice and misses another. A box the
    limit does not describe (q a below about 6.3) is refused, not searched
    by other means; one reaching Re k <= 0 or holding k = q is refused
    before any search.

    G has a zero of order 4 at k = q, on the real axis, which h cancels in
    F(-k), and beside it the simple zero k* just below the axis
    (``_limit_root``); a little way off, G falls like (k - q)^5
    (``_DEFLATION_ORDER``). The winding is counted on H = G / (k - q)^5,
    which has a simple pole at q: a box that leaves q outside its closed
    rectangle holds no zero or pole of (k - q)^5 on or inside it, so by the
    argument principle H winds exactly as often as G, and the certificate
    is the same theorem. The default box leaves k* outside too
    (``default_search_box``). H is free of the near-zero beside the top
    edge that forced G's contour to be refined there. A box holding q (on
    its top edge, at Im k = 0)
    would put a zero of G on the contour, where no winding number
    certifies anything. Seeds, roots and residuals are those of G.

    Raises
    ------
    ValidationError
        The box reaches Im k > 0 or Re k <= 0, or holds k = q; or G is not
        finite at a contour sample (``root_function``). A box so deep or so
        far out that G overflows meets this refusal at the first such
        sample of the winding count's first call, before the count's own
        test for a value that is not finite (``numerics.winding_count``).
    RootCountMismatch
        Winding number differs from the number of converged roots in the
        box, or two of them lie within 1e-3 pi/a of each other.
    NoConvergence
        Some seed failed to converge *and* the census came up short.
    """
    if search_box is None:
        search_box = default_search_box(config)
    if search_box.im_max > 0:
        raise ValidationError("search box must lie below the real axis")
    if search_box.re_min <= 0:
        raise ValidationError("search box must lie in Re k > 0")
    q = config.params.q
    if search_box.contains(q):
        raise ValidationError("search box must not hold k = q")
    g = root_function(config)
    g_prime = root_derivative(config)

    count = winding_count(lambda k: g(k) / (k - q) ** _DEFLATION_ORDER, search_box)
    roots: List[Tuple[complex, complex]] = []  # (z, G(z)) as Newton returned them
    failures = 0
    for seed in _limit_seeds(config, search_box):
        try:
            z, gz, _ = newton_complex(g, g_prime, seed)
        except (NoConvergence, ZeroDerivative):
            failures += 1
            continue
        if search_box.contains(z):
            roots.append((z, gz))

    same = _SAME_ZERO_SPACINGS * math.pi / config.a
    if any(abs(z - w) <= same for i, (z, _) in enumerate(roots) for w, _ in roots[:i]):
        raise RootCountMismatch(f"a zero was found twice: two converged roots within {same:.3g}")

    if count != len(roots):
        if failures and count > len(roots):
            raise NoConvergence(
                f"{failures} seed(s) failed and census is short: winding {count}, "
                f"converged {len(roots)}"
            )
        raise RootCountMismatch(
            f"winding number {count} but {len(roots)} converged roots"
        )

    boundary_scale = np.max(np.abs(g(np.array(search_box.corners))))
    roots.sort(key=lambda root: root[0].real)
    return [Resonance(complex(z), float(abs(gz) / boundary_scale)) for z, gz in roots]


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
    N_n is defined by its square only; the evaluator uses its principal
    square root (the density psi_n^2 is branch-independent).
    """

    resonance: Resonance
    N_squared: complex
    config: TruncatedConfig = field(repr=False)

    @property
    def N(self) -> complex:
        return cmath.sqrt(self.N_squared)

    def __call__(self, r):
        ph, _ = regular_solution(self.config, self.resonance.k_complex, r)
        return ph / self.N


def gamow_state(config: TruncatedConfig, resonance: Resonance) -> GamowState:
    """Normalize the regular solution at a resonance pole.

    F(-k) = pref(k) e^{2ika} G(k) with the zero-free pref = W1(0) / (h(k)
    W1(a)^2), so at a zero of G the derivative is exactly
    dF(-k)/dk = pref(k_n) e^{2ik_n a} G'(k_n), from ``root_derivative``;
    the terms it drops are proportional to the root residual. F(k_n) comes
    from ``scattering._jost_from_dg``, whose rounding estimate G' joins with
    its own noise near q (it vanishes at q to third order) over |G'|.
    Evaluating the state keeps the |h| threshold of ``regular_solution``,
    whose numerator cancels to about h r.

    The resonance's ``residual`` is not consulted: k_n itself must be a
    zero of G, to a Newton step a |G / G'| of at most 1e-6 (that is, within
    about 1e-6 / a of the zero), which the census roots meet with orders
    of magnitude to spare. The test is a product, |G| a <= 1e-6 |G'|, so
    that G' = 0 at a zero of G reaches the ZeroDerivative test.

    Raises
    ------
    ValidationError
        If k_n is not finite, or is not a zero of G to the step above, or
        N^2 is not finite.
    DegenerateNormalizer
        If the estimated relative rounding of N^2 is above 1e-6: k_n is so
        close to q that d - ig and G' are rounding noise. This is tested
        first, so near q the refusal is this one whether or not k_n is a
        root.
    ZeroDerivative
        If |dF(-k)/dk| at the root is negligible against F(k_n) — the zero
        would be higher-order and the state degenerate.
    """
    kn = resonance.k_complex
    g_prime = root_derivative(config)(kn)
    g_prime_noise = max(abs(_g_prime(config, k)) for k in _near_q(config))
    _, f_plus = _jost_from_dg(config, kn, *dg(config, kn), g_prime_noise / abs(g_prime))
    g_step = abs(_g(config, kn)) * config.a
    if not g_step <= _ROOT_TOL * abs(g_prime):
        raise ValidationError(f"k = {kn!r} is not a zero of G: |G| a = {g_step:.3e} is above "
                              f"{_ROOT_TOL:.0e} |G'| = {_ROOT_TOL * abs(g_prime):.3e}")
    d_f_minus = _jost_prefactor(config, kn) * np.exp(2j * kn * config.a) * g_prime
    if abs(d_f_minus) * (1.0 + abs(kn)) < 1e-12 * abs(f_plus):
        raise ZeroDerivative(
            f"|dF(-k)/dk| = {abs(d_f_minus):.3e} at k = {kn!r}: higher-order zero"
        )
    (n_squared,) = _checked_finite("N^2 is", (f_plus * d_f_minus / (4j * kn**2),), k=kn)
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
