"""Jost solutions of the untruncated problem and the embedded bound state.

The building blocks are two long closed-form polynomials-in-(k, gamma(r))
with trigonometric coefficients, u(k, r) and v(k, r). From them:

    f+-(k, r)  =  (u +- i v) e^{+-ikr} / W1(r)      (unnormalized)
    F+-(k, r)  =  f+- / (k^2 - q^2)^2               (unit flux at infinity)

The Wronskian of the unnormalized pair is -2ik(k^2-q^2)^4, so the pair
degenerates at k = q: both collapse onto one real function, which after
normalization is the square-integrable state psi_B sitting at energy q^2
inside the continuum. That collapse only happens when beta = 3*alpha*q,
which is what ``PotentialParams.bic`` pins.

u and v are polynomials in k, so every formula here accepts complex k
verbatim; the resonance machinery depends on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .darboux import (
    PhaseData,
    PotentialParams,
    _checked_finite,
    _closed_form,
    _horner,
    _overflow_checked,
    _w1,
    phase_data,
)
from .errors import NearSpectralSingularity, NotBicMode, ValidationError

__all__ = [
    "UVBundle",
    "JostValue",
    "BoundState",
    "uv_bundle",
    "jost_value",
    "bound_state",
]


@dataclass(frozen=True)
class UVBundle:
    """u, v and their exact r-derivatives. Real for real k."""

    u: np.ndarray
    v: np.ndarray
    u_r: np.ndarray
    v_r: np.ndarray


@dataclass(frozen=True)
class JostValue:
    """Jost solutions at one (k, r): unnormalized f+-, flux-normalized F+-.

    F_plus / F_minus are None when normalization was not requested. The
    derivative fields are for the unnormalized pair (the Wronskian identity
    is stated for that pair).
    """

    f_plus: complex
    f_minus: complex
    f_plus_r: complex
    f_minus_r: complex
    F_plus: Optional[complex]
    F_minus: Optional[complex]


def _uv_table(params: PotentialParams, pd: PhaseData, ndim: int):
    """u and v/k as one ``darboux._closed_form`` table in s = gamma =
    r + gamma0 with angle x = theta = q*r + delta.

    Each coefficient is an array of shape (2, 3) + (1,) * ndim: row 0 holds
    the coefficients of e2^0, e2^1 and e2^2 of u, row 1 those of v/k, so
    that u = U0 + U1 e2 + U2 e2^2 and v = k (V0 + V1 e2) with
    e2 = k^2 - q^2. With K = k^2 and Q = q^2, the k-polynomials of the
    closed form are

        K^2 + 6QK + Q^2 = e2^2 + 8Q e2 + 8Q^2          (p)
        K^2 - 4QK - Q^2 = e2^2 - 2Q e2 - 4Q^2          (mm)
        K^2 - Q^2       = e2^2 + 2Q e2                  (n)
        K + Q           = e2 + 2Q                       (s2k)

    and every coefficient of the closed form is a combination of them and
    of 1, e2 and e2^2, the rows of ``basis`` below:

        u = Ua(gamma) + Uc(gamma) cos 2theta + Us(gamma) sin 2theta
            + 3 p sin^2 2theta
        v = Va(gamma) + Vc(gamma) cos 2theta + Vs(gamma) sin 2theta
            + 6 q k (K + Q) sin 4theta

    with 3 p sin^2 2theta = 1.5 p (1 - cos 4theta): terms of frequency 0, 2
    and 4 in theta.

    Each coefficient is formed as the sum, over the rows of ``basis``, of
    its weight times that row, in row order, rather than by a matrix
    product: every weight row holds at most two nonzero entries, so each
    coefficient sums at most two rounded products, in a fixed order. A BLAS
    product fuses multiply-adds on some kernels (OpenBLAS's SkylakeX) and
    not on others (Sandybridge), and those bits would reach the census
    roots and the Gamow N^2.
    """
    q = params.q
    qq = q * q
    g1, g2 = pd.gamma1, pd.gamma2
    # rows: the e2-coefficients of 1, e2, e2^2 and the k-polynomials above
    one, e2, e4, p, mm, n, s2k = range(7)
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [8.0 * qq * qq, 8.0 * qq, 1.0], [-4.0 * qq * qq, -2.0 * qq, 1.0],
                      [0.0, 2.0 * qq, 1.0], [2.0 * qq, 1.0, 0.0]])
    # (u, v/k) per coefficient, as multiples of the rows of basis
    rows = [
        # frequency 0, cos: Ua and Va/k, gamma^0 .. gamma^4
        ({p: 1.5, e4: -12.0 * g1**2 * q**4}, {e2: 8.0 * g2 * q**4, one: -48.0 * g1 * q**5}),
        ({e4: 8.0 * g2 * q**4}, {s2k: -24.0 * q**2}),
        ({p: -12.0 * q**2}, {}),
        ({}, {e2: 64.0 * q**4}),
        ({e4: 16.0 * q**4}, {}),
        # frequency 2, cos: Uc and Vc/k, gamma^0 .. gamma^3
        ({}, {e2: -8.0 * g2 * q**4, one: 48.0 * g1 * q**5}),
        ({n: 24.0 * q**3 * g1}, {s2k: 24.0 * q**2}),
        ({mm: 24.0 * q**2}, {}),
        ({}, {e2: 32.0 * q**4}),
        # frequency 2, sin: Us and Vs/k, gamma^0 .. gamma^3
        ({n: -4.0 * g2 * q**3, mm: -12.0 * g1 * q**2}, {s2k: -12.0 * q}),
        ({mm: -12.0 * q}, {e2: -48.0 * g1 * q**4}),
        ({}, {one: 96.0 * q**5}),
        ({n: 16.0 * q**3}, {}),
        # frequency 4, cos and sin
        ({p: -1.5}, {}),
        ({}, {s2k: 6.0 * q}),
    ]
    weights = np.zeros((len(rows), 2, len(basis)))
    for i, pair in enumerate(rows):
        for j, row in enumerate(pair):
            for b, x in row.items():
                weights[i, j, b] = x
    c = (weights[..., None] * basis).sum(axis=2).reshape((-1, 2, 3) + (1,) * ndim)
    return [(0.0, 0.0, list(c[:5]), []), (2.0, 0.0, list(c[5:9]), list(c[9:13])),
            (4.0, 0.0, [c[13]], [c[14]])]


def _uv_coefficients(params: PotentialParams, r, order: int):
    """[c, dc/dr, ..., d^order c/dr^order]: u and v/k at r as polynomials in
    e2 = k^2 - q^2, arrays of shape (2, 3) + shape(r) laid out as in
    ``_uv_table``, from one evaluation of that table; r >= 0 and finite."""
    r = np.asarray(r, dtype=float)
    if not ((r >= 0) & (r < math.inf)).all():
        raise ValidationError(f"u, v refused for r in [{float(r.min())!r}, {float(r.max())!r}] "
                              f"at alpha={params.alpha!r}, beta={params.beta!r}, q={params.q!r}: "
                              "r must be nonnegative and finite")
    pd = phase_data(params)
    table = _overflow_checked(_uv_table, params, pd, r.ndim)
    return _uv_closed_form(params, pd, table, float(r) if r.ndim == 0 else r, order)


def _uv_closed_form(params: PotentialParams, pd: PhaseData, table, r, order: int):
    """``_uv_coefficients`` at r from a ``_uv_table`` built for it, unchecked."""
    return _closed_form(table, r + pd.gamma0, params.q * r + pd.delta, 1.0, params.q, order)


def _uv_at(c, k, e2):
    """(u, v) at wave number k from the rows c of ``_uv_coefficients``,
    with e2 = k^2 - q^2 (computed once by callers that need it again)."""
    return _horner(c[0], e2), k * _horner(c[1], e2)


def _checked_k(k):
    """ValidationError unless the wave number k (real or complex), or every
    point of an array k, is finite: the closed forms would give NaN or inf."""
    _checked_finite("the wave number is", (k,), k=k)


def uv_bundle(params: PotentialParams, k, r) -> UVBundle:
    """Evaluate u(k, r), v(k, r) and their analytic r-derivatives.

    k enters only through e2 = k^2 - q^2 and, in v, an overall factor k:
    u = U0 + U1 e2 + U2 e2^2 and v = k (V0 + V1 e2), with coefficients in r
    from ``_uv_coefficients``. Broadcasting over both k and r works; complex
    k is evaluated verbatim; k must be finite (``_checked_k``), r
    nonnegative and finite, and ValidationError is raised where u, v or a
    derivative overflows (``darboux._checked_finite``).
    """
    k = np.asarray(k)
    _checked_k(k)
    e2 = k * k - params.q * params.q
    c, c_r = _uv_coefficients(params, r, 1)
    return UVBundle(*_checked_finite("u, v are", (*_uv_at(c, k, e2), *_uv_at(c_r, k, e2)),
                                     k=k, r=r))


def jost_value(params: PotentialParams, k, r, normalized: bool = True) -> JostValue:
    """f+-(k, r) with derivatives, and (optionally) the flux-normalized F+-.

    Raises
    ------
    ValidationError
        If k is not finite (``uv_bundle``), r is negative, W1 is not
        finite at r (``darboux.w1_bundle``), or a value returned is not
        (``darboux._checked_finite``): f+-_r divide by W1^2, which
        overflows from q r of about 1e38 on.
    NearSpectralSingularity
        If ``normalized`` and (k^2 - q^2)^2 is 0: at k = +-q, where the
        normalization factor 1/(k^2 - q^2)^2 has a double pole, or so close
        that the square underflows. Re-call with ``normalized=False`` for
        the (regular) unnormalized pair.

    Anywhere else F+- are formed, however close to the pole: k^2 - q^2 is
    taken as (k - q)(k + q), where k - q is exact near q, so F+- keep the
    relative accuracy of f+- (against 60-digit arithmetic, within 5.1e-15 at
    k = q (1 + 10^-j) for j = 6 to 15).
    """
    w1, w1_r = _w1(params, r, 1)
    b = uv_bundle(params, k, r)
    ep, em = np.exp(1j * k * np.asarray(r)), np.exp(-1j * k * np.asarray(r))
    up, um = b.u + 1j * b.v, b.u - 1j * b.v
    f_plus = up * ep / w1
    f_minus = um * em / w1
    f_plus_r = ((b.u_r + 1j * b.v_r + 1j * k * up) * w1 - up * w1_r) * ep / w1**2
    f_minus_r = ((b.u_r - 1j * b.v_r - 1j * k * um) * w1 - um * w1_r) * em / w1**2
    F_plus = F_minus = None
    if normalized:
        e2_sq = np.square((k - params.q) * (k + params.q))
        if np.any(e2_sq == 0):
            raise NearSpectralSingularity(
                "(k^2 - q^2)^2 is 0: flux normalization has a double pole at k = +-q "
                "(request normalized=False for f+-)"
            )
        F_plus, F_minus = f_plus / e2_sq, f_minus / e2_sq
    return JostValue(*_checked_finite("f+-, their r-derivatives or F+- are",
                                      (f_plus, f_minus, f_plus_r, f_minus_r, F_plus, F_minus),
                                      k=k, r=r))


@dataclass(frozen=True)
class BoundState:
    """The square-integrable state at energy q^2 (requires beta = 3*alpha*q).

    ``norm`` is the L2 norm of the raw closed-form amplitude (``raw``);
    calling the object evaluates the amplitude divided by ``norm``.
    """

    params: PotentialParams
    phase: PhaseData
    norm: float

    def raw(self, r):
        """Closed-form amplitude 24 q^2 X(r) / W1(r), exactly 0 at r = 0,
        where X vanishes and its closed form cancels to rounding. Takes what
        ``potential_v4`` takes, with the same ValidationError where r is
        negative or W1 is not finite.

        With gamma = r + gamma0 and theta = q r + delta,

            X = -2 q^2 gamma^2 cos theta + (q gamma + q^2 gamma1) sin theta
                + sin^2 theta cos theta,

        and sin^2 theta cos theta = (cos theta - cos 3 theta) / 4, so X is a
        ``darboux._closed_form`` table of two terms, of frequency 1 and 3 in
        theta, evaluated like W1 and u, v.
        """
        r = np.asarray(r, dtype=float)
        w1 = _w1(self.params, r, 0)[0]
        q, ph = self.params.q, self.phase
        table = [(1.0, 0.0, [0.25, 0.0, -2.0 * q * q], [q * q * ph.gamma1, q, 0.0]),
                 (3.0, 0.0, [-0.25], [0.0])]
        at = float(r) if r.ndim == 0 else r
        (x,) = _closed_form(table, at + ph.gamma0, q * at + ph.delta, 1.0, q, 0)
        return np.where(r == 0.0, 0.0, 24.0 * q**2 * x / w1)[()]

    def __call__(self, r):
        return self.raw(r) / self.norm


def bound_state(params: PotentialParams) -> BoundState:
    """Construct psi_B with its closed-form norm.

    N^2 = int raw^2 dr is a Wronskian boundary term. The solution
    phi = [u cos(kr + delta) - v sin(kr + delta)] / W1 at energy k^2 is
    4 q^2 raw at k = q, and d/dr W(phi, dphi/dk) = -2k phi^2. At k = q that
    Wronskian falls off like r^-3 and phi(q, 0) = 0, so
    N^2 = -phi'(q, 0) dphi/dk(q, 0) / (32 q^5). The closed forms of u, v at
    r = 0 reduce this to 72 q^4 gamma0 / W1(0), with W1(0) = 12 beta^2 / D^2,
    which on beta = 3 alpha q is 2 q^2 (1 + 4 alpha^2 q^2) / (3 alpha).

    Raises
    ------
    NotBicMode
        If beta != 3*alpha*q (no embedded bound state exists off that line).
    ValidationError
        If N^2 is not finite and positive: alpha < 0 on the bic line (so
        beta < 0, a singular potential), or q so large (about 1e154) that
        N^2 overflows.
    """
    if not params.bic_mode:
        raise NotBicMode(
            f"bound state requires beta = 3*alpha*q "
            f"(beta={params.beta}, 3*alpha*q={3.0 * params.alpha * params.q})"
        )
    a, q = params.alpha, params.q
    norm_sq = 2.0 * q * q * (1.0 + 4.0 * a * a * q * q) / (3.0 * a)
    if not 0.0 < norm_sq < math.inf:
        raise ValidationError(
            f"bound state norm^2 = {norm_sq!r} is not finite and positive "
            f"(alpha={a!r}, q={q!r})"
        )
    return BoundState(
        params=params,
        phase=phase_data(params),
        norm=math.sqrt(norm_sq),
    )
