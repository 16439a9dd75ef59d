import dataclasses
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from mpmath import iv
from numpy.polynomial.polynomial import polyadd, polyval
from scipy.optimize import brentq
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicscatter as bs
from bicscatter import background, cli, darboux, jost, scattering
from bicscatter.darboux import _w1, _w1_table
from bicscatter.scattering import S_MAX, S_MIN


def test_config_validation(params):
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=-5.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=0.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=bs.PotentialParams(alpha=1.0, beta=5.0, q=1.0), a=100.0)
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(
            params=bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0),
            a=100.0,
        )


def test_config_accepts_numpy_cutoffs(params, doublet_pair):
    config = bs.TruncatedConfig(params=params, a=np.int64(5000))
    assert type(config.a) is float and config.a == 5000.0
    assert bs.doublet_of(bs.find_resonances(config), params.q) == doublet_pair
    assert type(bs.TruncatedConfig(params=params, a=np.float32(300.5)).a) is float
    with pytest.raises(bs.ValidationError):
        bs.TruncatedConfig(params=params, a=True)


def test_config_boundary_data_is_not_identity(params):
    """Equality, hash and repr see (params, a) only, and replace() derives
    the boundary data of the new cutoff."""
    c1 = bs.TruncatedConfig(params=params, a=5000.0)
    c2 = bs.TruncatedConfig(params=params, a=5000.0)
    assert c1 == c2 and hash(c1) == hash(c2) and c1 is not c2
    assert repr(c1) == f"TruncatedConfig(params={params!r}, a=5000.0)"
    other = dataclasses.replace(c1, a=300.0)
    k = np.array([0.99, 1.0 - 3e-3j, 1.02 - 1e-2j])
    fresh = bs.root_function(bs.TruncatedConfig(params=params, a=300.0))(k)
    assert np.array_equal(bs.root_function(other)(k), fresh)
    assert not np.allclose(bs.root_function(c1)(k), fresh)


envelope = st.floats(min_value=0.3, max_value=3.0)


# W1 > 0, proven once over the alpha*q range that TruncatedConfig accepts.
#
# In x = q r, W1 depends on s = alpha*q and beta alone (``_w1_table`` reads
# only alpha*q, beta and alpha*q - beta), and the bic line is beta = 3s. So
# W1(x; s) > 0 for every x >= 0 and every s in [S_MIN, S_MAX] is one
# statement in one parameter, valid for every cutoff a. ``_prove`` proves it
# on a subdivision of the s range into pairs [s_i, s_i+1]:
#
# * at the left node, a cell certificate on [0, X*]: the quartic Cauchy
#   bound of ``_w1_bounds`` covers x >= X*, and the curvature majorant m2
#   covers each cell below it;
# * over the pair, a majorant K(x) of |dW1/ds|, from the table's own
#   coefficient formulas evaluated on jets of mpmath intervals, so that the
#   proof and the evaluator cannot disagree;
# * the pair is accepted when every cell keeps a margin above the change
#   (s_i+1 - s_i) K(x) that the step in s can bring, and retried with half
#   the step otherwise.
#
# The node's samples are float evaluations of the table, so each margin also
# pays an allowance for their rounding, and the step carries the few ulps by
# which beta = fl(3 alpha q) sits off 3s.

# cells on the first pass of a cell certificate, and doublings before giving up
_CELLS = 64
_REFINEMENTS = 10
# log-spaced chunks of the s range, growth of the step in s after an
# accepted pair, and halvings of it before giving up
_CHUNKS = 16
_GROWTH = 1.3
_HALVINGS = 30
# relative distance of beta = fl(fl(3 alpha) q) from 3 (alpha q), the exact
# product of the floats: two roundings, with room (4.5e-16 would do)
_BETA_RTOL = 1e-15
# rounding of a float W1 sample, relative to the sum of the table's terms in
# absolute value (``test_w1_sample_rounding_is_inside_its_allowance``)
_SAMPLE_RTOL = 1e-12
# float sums of nonnegative majorant terms, inflated by this much to stay
# above their exact values
_UP = 1.0 + 1e-12
# every float alpha*q in [S_MIN, S_MAX] stands for an exact product within
# one rounding of it
_PROVEN = (S_MIN * (1.0 - 1e-12), S_MAX * (1.0 + 1e-12))


def _w1_bounds(table):
    """(x_star, lower, m2): polynomial bounds on W1 in x >= 0 from a
    ``darboux._w1_table`` (or from a table of upper bounds on its
    coefficients' magnitudes), as ascending coefficient arrays for
    ``numpy.polynomial.polynomial.polyval``.

    The table writes W1 as a sum of terms P_j(x) T_j(x), with P_j a
    polynomial and T_j either 1 or a sine or cosine of frequency w_j in x,
    so |T_j^(m)| <= w_j^m. Let |P| be P with its coefficients replaced by
    their absolute values, so |P(x)| <= |P|(x) and |P^(m)(x)| <= |P|^(m)(x)
    for x >= 0; the terms of one frequency share a row of |P| coefficients.

    * lower(x) = 16 x^4 - A3 x^3 - A2 x^2 - A1 x - A0, with A_n the sum over
      all terms of |coefficient of x^n|, satisfies W1 >= lower; by the
      Cauchy root bound lower > 0, hence W1 > 0, for x >= x_star =
      1 + max(A_n)/16.
    * m2(x) = sum_j |P_j|'' + 2 w_j |P_j|' + w_j^2 |P_j| bounds
      |d^2 W1/dx^2| by the product rule; it increases with x, so on
      [0, X] it is at most m2(X).
    """
    rows = {}
    for w, _, c, s in table:
        row = rows.setdefault(w, [0.0] * 5)
        for poly in (c, s):
            for n, v in enumerate(poly):
                row[n] += abs(v)
    assert rows[0.0][4] == 16.0 and all(rows[w][4] == 0.0 for w in rows if w)
    c = np.array([rows[w] for w in sorted(rows)])
    w = np.array(sorted(rows))[:, None]
    dx = np.diag(np.arange(1.0, 5.0), -1)  # c @ dx: coefficients of dc/dx
    m2 = (c @ dx @ dx + 2.0 * w * (c @ dx) + w * w * c).sum(axis=0)
    a = c.sum(axis=0)[:4]
    return 1.0 + a.max() / 16.0, np.append(-a, 16.0), m2


class _Jet:
    """f, f' and f'' along one direction in (s, beta), each an mpmath
    interval: ``_w1_table``'s formulas differentiated in forward mode and
    enclosed over a box. Floats enter as exact constants."""

    __slots__ = ("f",)

    def __init__(self, f0, f1=iv.mpf(0), f2=iv.mpf(0)):
        self.f = (f0, f1, f2)

    @staticmethod
    def lift(v):
        """v as a _Jet; a float as a constant."""
        return v if isinstance(v, _Jet) else _Jet(iv.mpf(v))

    def __add__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.f[0] + iv.mpf(o), *self.f[1:])
        return _Jet(*(a + b for a, b in zip(self.f, o.f)))

    __radd__ = __add__

    def __neg__(self):
        return _Jet(*(-a for a in self.f))

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            o = iv.mpf(o)
            return _Jet(*(a * o for a in self.f))
        (a, a1, a2), (b, b1, b2) = self.f, o.f
        return _Jet(a * b, a1 * b + a * b1, a2 * b + (a1 * b1 + a1 * b1) + a * b2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        (a, a1, a2), (b, b1, b2) = self.f, o.f
        q = a / b
        q1 = (a1 - q * b1) / b
        return _Jet(q, q1, (a2 - (q1 * b1 + q1 * b1) - q * b2) / b)

    def __pow__(self, n):
        # (a^n)' = n a^(n-1) a',  (a^n)'' = n a^(n-2) ((n-1) a'^2 + a a'')
        a, a1, a2 = self.f
        m, low = iv.mpf(n), a ** (n - 2)
        return _Jet(a**n, m * low * a * a1, m * low * (iv.mpf(n - 1) * a1 * a1 + a * a2))

    def atan(self):
        t, t1, t2 = self.f
        d = 1 + t * t
        # the value enters no bound (only |C| + |S| of the offset term)
        return _Jet(iv.pi * iv.mpf([-0.5, 0.5]), t1 / d, t2 / d - 2 * t * t1**2 / d**2)


def _magnitude(x) -> float:
    """An upper bound on |x| over the interval x (a 53-bit endpoint)."""
    return float(abs(x).b)


def _table_jets(s_lo: float, s_hi: float, along_ray: bool):
    """``_w1_table`` over s in [s_lo, s_hi] and beta within _BETA_RTOL of
    3s, as _Jet coefficients along the ray beta = 3s(1 + eps) or along
    beta alone. The table reads alpha and q only through alpha*q, so
    alpha = s, q = 1 stands for every (alpha, q) on the line."""
    s, one = iv.mpf([s_lo, s_hi]), iv.mpf(1)
    ray = 3 * iv.mpf([1 - _BETA_RTOL, 1 + _BETA_RTOL])
    box = SimpleNamespace(alpha=_Jet(s, one if along_ray else iv.mpf(0)), q=1.0,
                          beta=_Jet(s * ray, ray if along_ray else one))
    # the table's one transcendental coefficient is the offset 2 atan(t)
    with mock.patch.object(darboux, "math", SimpleNamespace(atan=_Jet.atan)):
        table = _w1_table(box)
    lift = _Jet.lift
    return [(w, lift(o), [lift(v) for v in c], [lift(v) for v in sn]) for w, o, c, sn in table]


def _flat(table):
    """Each term's coefficients in one list: offset, then C, then S."""
    return [[o, *c, *sn] for _, o, c, sn in table]


def _majorant(table, slopes) -> np.ndarray:
    """Ascending coefficients of a polynomial K(x) >= |dW1| for x >= 0,
    where table holds _Jet enclosures of the coefficients over the box and
    slopes, in the order of ``_flat``, bounds on their derivatives d. For
    one term C(x) cos(w x + o) + S(x) sin(w x + o) that derivative is at
    most |dC| + |dS| |sin(w x + o)| + |do| (|C| + |S|), with
    |P(x)| <= |P|(x) for x >= 0, and |sin(w x)| <= w x where the offset o
    is zero: at large s, W1(0) is about 7/s^2 and those sines would
    otherwise set the step."""
    k = [0.0] * 6
    for (w, o, c, sn), (turn, *dc) in zip(table, slopes):
        shift = 0 if turn or _magnitude(o.f[0]) else 1
        for n, v in enumerate(c):
            k[n] += dc[n] + turn * _magnitude(v.f[0])
        for n, v in enumerate(sn):
            k[n] += turn * _magnitude(v.f[0])
            k[n + shift] += dc[len(c) + n] * (w if shift else 1.0)
    return np.array(k) * _UP


def _beta_majorant(s_lo: float, s_hi: float) -> np.ndarray:
    """K(x) >= |dW1/dbeta| over the box of ``_table_jets``."""
    table = _table_jets(s_lo, s_hi, False)
    return _majorant(table, [[_magnitude(v.f[1]) for v in term] for term in _flat(table)])


def _ray_slopes(s_lo: float, s_hi: float, table) -> list:
    """Bounds on |d/ds| along the ray beta = 3s(1 + eps) over the pair of
    each coefficient of ``table = _table_jets(s_lo, s_hi, True)``, in the
    order of ``_flat``. They are in centered form, from the derivative at
    the midpoint m and the second derivative over the pair,
    |f'(s)| <= |f'(m)| + |s - m| |f''|: f' enclosed over the whole pair
    would lose the cancellations between the terms of a coefficient, by an
    amount that grows with the width of the pair."""
    mid = 0.5 * (s_lo + s_hi)
    half = max(mid - s_lo, s_hi - mid) * _UP
    return [[_magnitude(at_mid.f[1]) + half * _magnitude(over.f[2]) for at_mid, over in zip(*terms)]
            for terms in zip(_flat(_table_jets(mid, mid, True)), _flat(table))]


def _cell_certificate(params, x_max: float, slack, m2, refinements: int = _REFINEMENTS):
    """None if W1 > slack on x = q r in [0, x_max] is proven, else the
    first x where the proof fails; slack and m2 are ascending coefficients
    of polynomials with nonnegative coefficients, so they increase on
    x >= 0.

    On a uniform grid of step h, W1 lies above its linear interpolant
    minus M2 h^2/8 on each cell (the interpolation error bound), with
    M2 = m2(right end) a majorant of |d^2 W1/dx^2| there, so the cell is
    proven when min(W1_i, W1_i+1) - M2 h^2/8 > slack(right end). Unproven
    cells halve h, up to ``refinements`` times; a sample at or below the
    slack fails outright, since no finer grid can prove the cells beside it.
    """
    n = _CELLS
    for _ in range(refinements + 1):
        x = np.linspace(0.0, x_max, n + 1)
        w = _w1(params, x / params.q, 0)[0]
        floor = polyval(x, slack)
        if np.any(w <= floor):
            return float(x[np.argmax(w <= floor)])
        h = x_max / n
        proven = np.minimum(w[:-1], w[1:]) - polyval(x[1:], m2) * h * h / 8.0 > floor[1:]
        if proven.all():
            return None
        n *= 2
    return float(x[np.argmin(proven)])


def _pair_is_proven(s_lo: float, s_hi: float, k_beta) -> bool:
    """W1(x; s) > 0 for all x >= 0, s in [s_lo, s_hi] and beta within
    _BETA_RTOL of 3s, given k_beta >= |dW1/dbeta| there.

    Beyond X*, the largest x_star over the pair, the Cauchy bound holds at
    every s. Below it the node s_lo is certified cell by cell with a slack
    that covers the rounding of its float samples and the largest change
    of W1 from the node to any (s, beta) of the pair. The path moves beta
    from the node's fl(3 s_lo) onto the ray beta = 3s(1 + eps), by at most
    6 _BETA_RTOL s_hi, then s along the ray by at most s_hi - s_lo.
    """
    table = _table_jets(s_lo, s_hi, True)
    k_ray = _majorant(table, _ray_slopes(s_lo, s_hi, table))
    x_star, lower, m2 = _w1_bounds([
        (w, 0.0, [_magnitude(v.f[0]) for v in c], [_magnitude(v.f[0]) for v in sn])
        for w, _, c, sn in table])
    slack = polyadd(_SAMPLE_RTOL * np.abs(lower),
                    ((s_hi - s_lo) * k_ray + 6.0 * _BETA_RTOL * s_hi * k_beta) * _UP)
    node = bs.PotentialParams.bic(alpha=s_lo, q=1.0)
    return _cell_certificate(node, x_star * _UP, slack, m2 * _UP) is None


def _prove(s_lo: float, s_hi: float, chunks=_CHUNKS, halvings=_HALVINGS):
    """(True, number of pairs accepted) if W1 > 0 is proven over
    [s_lo, s_hi] (see ``_pair_is_proven``), else (False, left node of the
    first pair still unproven after ``halvings`` halvings of its step).

    The pairs run upward from s_lo; the step grows by _GROWTH after each
    accepted pair and halves after each refused one. |dW1/dbeta| only meets
    steps of a few ulps, so it is bounded once per log-spaced chunk of the
    range, and pairs end at the chunk boundaries."""
    nodes = np.geomspace(s_lo, s_hi, chunks + 1)
    nodes[0], nodes[-1] = s_lo, s_hi
    accepted, step = 0, None
    for lo, hi in zip(nodes[:-1].tolist(), nodes[1:].tolist()):
        k_beta = _beta_majorant(lo, hi)
        s, step = lo, step or hi - lo
        while s < hi:
            top = min(s + step, hi)
            if _pair_is_proven(s, top, k_beta):
                accepted, s, step = accepted + 1, top, _GROWTH * (top - s)
            elif (step := 0.5 * (top - s)) < (hi - lo) * 0.5**halvings:
                return False, s
    return True, accepted


def test_w1_is_positive_over_the_proven_s_range():
    """The proof itself, over every alpha*q that ``TruncatedConfig``
    accepts; the range holds the envelope alpha, q in [0.3, 3] with room.
    A pair whose left node is certified but across which
    W1(0) = 108 s^2/(1 + 4s^2)^2 changes by more than W1(0) itself is
    refused when its step may not shrink, so the node-spacing test is not
    vacuous.
    322 pairs in 3.3 to 4.1 s on a 2-CPU Xeon VM (Python 3.11, mpmath 1.3)."""
    assert S_MIN <= 0.05 and S_MAX >= 20.0
    proven, where = _prove(*_PROVEN)
    assert proven, f"no proof for the pair from s = {where!r}"
    lo, hi = S_MIN, 2.0 * S_MIN
    w1_lo, w1_hi = (float(bs.w1_bundle(bs.PotentialParams.bic(alpha=s, q=1.0), 0.0).w1)
                    for s in (lo, hi))
    assert w1_hi - w1_lo > w1_lo
    node = bs.PotentialParams.bic(alpha=lo, q=1.0)
    assert _cell_certificate(node, 4.0, [0.0], _w1_bounds(_w1_table(node))[2]) is None
    assert _prove(lo, hi, chunks=1, halvings=0) == (False, lo)


@pytest.mark.parametrize("s_lo,s_hi", [(S_MIN, 1.02 * S_MIN), (0.3, 0.31), (3.0, 3.1),
                                       (S_MAX / 1.01, S_MAX)])
def test_w1_s_majorant_bounds_the_change_across_a_pair(s_lo, s_hi):
    """The step term of ``_pair_is_proven``, (s - s_lo) K(x), stays above
    the change of the float W1 between the nodes on dense x."""
    table = _table_jets(s_lo, s_hi, True)
    k_ray = _majorant(table, _ray_slopes(s_lo, s_hi, table))
    x = np.linspace(0.0, 4.0, 4001)
    for s in np.linspace(s_lo, s_hi, 5)[1:]:
        w0, w = (bs.w1_bundle(bs.PotentialParams.bic(alpha=v, q=1.0), x).w1 for v in (s_lo, s))
        assert np.all(np.abs(w - w0) <= (s - s_lo) * polyval(x, k_ray) + 1e-12 * (1.0 + x**4))


@pytest.mark.parametrize("s_lo,s_hi", [(S_MIN, 1.1 * S_MIN), (0.3, 0.33), (3.0, 3.3),
                                       (S_MAX / 1.1, S_MAX)])
def test_w1_ray_slopes_bound_each_coefficient(s_lo, s_hi):
    """Each coefficient's slope bound stays above its central difference
    along the ray, taken on the float table at the ends and the middle of
    the pair."""
    slopes = _ray_slopes(s_lo, s_hi, _table_jets(s_lo, s_hi, True))

    def coefficients(s):
        return np.array([float(v) for term in _flat(_w1_table(bs.PotentialParams.bic(alpha=s, q=1.0)))
                         for v in term])

    bound = np.array([v for term in slopes for v in term])
    for s in (s_lo, 0.5 * (s_lo + s_hi), s_hi):
        h = 1e-6 * s
        slope = (coefficients(s + h) - coefficients(s - h)) / (2.0 * h)
        assert np.all(np.abs(slope) <= bound + 1e-6 * (1.0 + np.abs(slope)))


@pytest.mark.parametrize("s", [S_MIN, 0.09, 1.0, 9.0, S_MAX])
def test_w1_sample_rounding_is_inside_its_allowance(s):
    """Float W1 samples against the same table in 40-digit arithmetic at
    the float (s, beta): the error stays 100 times below _SAMPLE_RTOL times
    the sum of the terms in absolute value."""
    params = bs.PotentialParams.bic(alpha=s, q=1.0)
    _, lower, _ = _w1_bounds(_w1_table(params))
    x = np.linspace(0.0, 4.0, 201)
    with mpmath.workdps(40):
        exact_params = SimpleNamespace(alpha=mpmath.mpf(params.alpha), q=mpmath.mpf(1),
                                       beta=mpmath.mpf(params.beta))
        with mock.patch.object(darboux, "math", mpmath):
            table = _w1_table(exact_params)
        exact = [sum(mpmath.polyval(c[::-1], xi) * mpmath.cos(w * xi + o)
                     + (mpmath.polyval(sn[::-1], xi) * mpmath.sin(w * xi + o) if sn else 0)
                     for w, o, c, sn in table) for xi in map(mpmath.mpf, x)]
    error = np.abs(_w1(params, x, 0)[0] - np.array([float(e) for e in exact]))
    assert np.all(error <= 0.01 * _SAMPLE_RTOL * polyval(x, np.abs(lower)))


@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope)
def test_w1_bounds_hold_on_the_envelope(alpha, q):
    """The quartic lower bound stays below W1 and m2 above |W1''| (in x =
    q r) on dense samples of [0, x_star/q]."""
    params = bs.PotentialParams.bic(alpha=alpha, q=q)
    x_star, lower, m2 = _w1_bounds(_w1_table(params))
    assert x_star <= 3.7
    r = np.linspace(0.0, x_star / q, 20001)
    w = bs.w1_bundle(params, r)
    x = q * r
    slack = 1e-12 * (1.0 + x**4)  # rounding of the closed form
    assert np.all(polyval(x, lower) <= w.w1 + slack)
    assert np.all(np.abs(w.w1_rr) <= q * q * polyval(x, m2) + slack)
    assert polyval(x_star, lower) > 0.0


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(log_s=st.floats(min_value=math.log(S_MIN), max_value=math.log(S_MAX)),
       q=st.floats(min_value=0.1, max_value=10.0))
@example(log_s=math.log(S_MIN), q=1.0)
@example(log_s=math.log(S_MAX), q=1.0)
def test_w1_is_positive_where_configs_are_accepted(log_s, q):
    """W1 > 0 at the floats ``TruncatedConfig`` accepts, on dense x in
    [0, x_star] and on x far beyond it."""
    params = bs.PotentialParams.bic(alpha=math.exp(log_s) / q, q=q)
    try:
        bs.TruncatedConfig(params=params, a=1e6)
    except bs.ValidationError:  # alpha*q rounded just outside the range
        assert not S_MIN <= params.alpha * params.q <= S_MAX
        return
    x_star = _w1_bounds(_w1_table(params))[0]
    x = np.concatenate([np.linspace(0.0, x_star, 20001), np.geomspace(x_star, 1e6, 2001)])
    assert np.all(bs.w1_bundle(params, x / q).w1 > 0.0)


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(log_alpha=st.floats(min_value=math.log(0.3), max_value=math.log(3.0)),
       log_q=st.floats(min_value=math.log(0.3), max_value=math.log(3.0)),
       log_a=st.floats(min_value=2.0, max_value=6.0))
def test_bic_mode_is_read_from_beta(log_alpha, log_q, log_a):
    """Parameters given with beta = 3*alpha*q are the bic parameters: equal
    to ``PotentialParams.bic``, in bic mode, and accepted by TruncatedConfig
    with the boundary data of the config built from ``bic``, bit for bit."""
    alpha, q, a = math.exp(log_alpha), math.exp(log_q), 10.0**log_a
    params = bs.PotentialParams(alpha=alpha, beta=3.0 * alpha * q, q=q)
    bic = bs.PotentialParams.bic(alpha, q)
    assert params == bic and params.bic_mode
    rows = bs.TruncatedConfig(params=params, a=a)._boundary_data.rows
    assert rows.tobytes() == bs.TruncatedConfig(params=bic, a=a)._boundary_data.rows.tobytes()


def test_w1_certificate_finds_the_diagnostic_crossing():
    """beta = -1 makes W1 cross zero; the certificate reports it within one
    grid step of the first sign-change bracket of the plain scan."""
    bad = bs.PotentialParams(alpha=1.0, beta=-1.0, q=1.0)
    lo, hi = bs.scan_w1_sign(bad, 30.0)[0]
    x_star, _, m2 = _w1_bounds(_w1_table(bad))
    where = _cell_certificate(bad, x_star, [0.0], m2)
    step = x_star / bad.q / _CELLS
    assert where is not None
    assert lo - step <= where <= hi + step
    assert float(bs.w1_bundle(bad, where).w1) <= 0.0


def test_w1_certificate_refuses_what_its_grid_cannot_prove():
    # W1(0) ~ 7e-4 here: the first 64-cell pass leaves cells unproven
    params = bs.PotentialParams.bic(alpha=100.0, q=1.0)
    x_star, _, m2 = _w1_bounds(_w1_table(params))
    assert _cell_certificate(params, x_star, [0.0], m2) is None
    assert _cell_certificate(params, x_star, [0.0], m2, refinements=0) is not None


def test_config_evaluates_w1_only_at_zero_and_a(params, monkeypatch):
    # two scalar calls: W1 at r = 0, and W1 with W1' at r = a
    calls = []
    w1 = scattering._w1

    def counting(p, r, order):
        calls.append((np.asarray(r).tolist(), order))
        return w1(p, r, order)

    monkeypatch.setattr(scattering, "_w1", counting)
    for a in (1e2, 5000.0, 1e6, 1e12):
        calls.clear()
        bs.TruncatedConfig(params=params, a=a)
        assert calls == [(0.0, 0), (a, 1)]


@pytest.mark.parametrize("end,outward", [(S_MIN, 0.0), (S_MAX, math.inf)])
def test_config_refuses_alpha_q_outside_the_proven_range(end, outward):
    # alpha*q one ulp past either end of the range on which W1 > 0 is proven
    bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=end, q=1.0), a=5000.0)
    alpha = float(np.nextafter(end, outward))
    with pytest.raises(bs.ValidationError, match=r"outside \[0\.01, 100\.0\]"):
        bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=1.0), a=5000.0)


def test_regular_solution_origin_slope(config):
    """Phi is pinned by Phi(0)=0, Phi'(0)=1, so Phi(eps)/eps -> 1."""
    for k in (1.5, 0.7):
        phi, _ = bs.regular_solution(config, k, 1e-4)
        assert float(phi) / 1e-4 == pytest.approx(1.0, abs=1e-5)


def test_regular_solution_range_check(config):
    with pytest.raises(bs.ValidationError):
        bs.regular_solution(config, 1.5, config.a + 1000.0)
    with pytest.raises(bs.ValidationError):
        bs.regular_solution(config, 1.5, -0.1)


def test_regular_solution_satisfies_equation(config, params, schrodinger_residual):
    grid = np.arange(0.1, 50.0, 1e-3)
    res = schrodinger_residual(
        params, 1.5, lambda r: bs.regular_solution(config, 1.5, r)[0], grid
    )
    assert res < 1e-5


def test_interior_exterior_matching(config):
    """Continuity of value at r=a between the interior solution and the
    incoming/outgoing representation."""
    for k in (1.3, 0.7):
        phi, _ = bs.regular_solution(config, k, config.a)
        fm, fp = bs.jost_function(config, k)
        a = config.a
        outer = (1j / (2 * k)) * (fm * np.exp(-1j * k * a) - fp * np.exp(1j * k * a))
        assert complex(outer) == pytest.approx(complex(phi), rel=1e-10)


def test_incoming_amplitude_from_interior_derivative(config):
    # F(-k) = e^{ika} [Phi'(a) - ik Phi(a)], with no extra scale: checks
    # the derivative matching as well
    for k in (1.3, 0.7):
        phi, phi_r = bs.regular_solution(config, k, config.a)
        fm, _ = bs.jost_function(config, k)
        assembled = np.exp(1j * k * config.a) * (complex(phi_r) - 1j * k * complex(phi))
        assert assembled == pytest.approx(complex(fm), rel=1e-10)


def test_dg_real_for_real_k(config):
    d, g = bs.dg(config, 1.4)
    assert np.imag(d) == 0 and np.imag(g) == 0


@pytest.mark.parametrize("k", [1.0004, 1.003 - 1e-4j])
def test_dg_scalar_skips_numpy_arrays(config, k):
    # a builtin scalar stays a scalar through d, g: wrapping a complex k in
    # a 0-d array would round the products as numpy complex arithmetic does
    d, g = bs.dg(config, k)
    assert not isinstance(d, np.ndarray) and not isinstance(g, np.ndarray)
    q = config.params.q
    e2 = k * k - q * q

    def horner(c):
        acc = c[-1]
        for ci in reversed(c[:-1]):
            acc = acc * e2 + ci
        return acc

    a_p, b_p, a_q, b_q = (horner(c) for c in config._boundary_data.g)
    s, c = np.sin(k * config.a), np.cos(k * config.a)
    assert d == k * (b_p + b_q) * c - (a_p - a_q) * s
    assert g == k * (b_p - b_q) * s + (a_p + a_q) * c


def _same_bits(x, y):
    """x and y hold the same float64 or complex128 values, bit for bit."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.envelope
@settings(max_examples=40, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0),
       x=st.floats(min_value=-20.0, max_value=20.0), y=st.floats(min_value=-3.0, max_value=0.0))
def test_unrolled_horner_is_horner(alpha, q, log_a, x, y):
    # _polys_at writes Horner's rule out for _pq and _dg: darboux._horner's
    # operations in its order, so the same bits for a real scalar, a complex
    # scalar and arrays
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
    q, a, bd = config.params.q, config.a, config._boundary_data
    k_re = q + x / a
    grid = q + np.linspace(-20.0, 20.0, 41) / a
    for k in (k_re, complex(k_re, y / a), grid, grid + 1j * y / a):
        e2 = k * k - q * q
        for polys in (bd.g, bd.g_prime):
            a_p, b_p, a_q, b_q = (darboux._horner(c, e2) for c in polys)
            got = scattering._pq(config, polys, k)
            assert _same_bits(got[0], 1j * a_p + k * b_p)
            assert _same_bits(got[1], 1j * a_q + k * b_q)
        a_p, b_p, a_q, b_q = (darboux._horner(c, e2) for c in bd.g)
        s, c = np.sin(k * a), np.cos(k * a)
        d, g = scattering._dg(config, k)
        assert _same_bits(d, k * (b_p + b_q) * c - (a_p - a_q) * s)
        assert _same_bits(g, k * (b_p - b_q) * s + (a_p + a_q) * c)


def _g_polynomial_magnitudes(at_0, at_a, w1_a, q, a):
    """The formulas of ``_g_polynomials`` with every input replaced by its
    absolute value and every difference by a sum: coefficient by coefficient,
    the sum of the magnitudes of the terms, to which the rounding of any
    order of summation is proportional."""
    def padded(c):
        return np.concatenate([np.abs(c), np.zeros(5 - len(c))])

    def mul(c1, c2):
        return np.convolve(c1, c2)[:5]

    def e2_derivative(c):
        return np.append(c[1:] * np.arange(1.0, 5.0), 0.0)

    u0, v0 = (padded(c) for c in at_0)
    (ua, va), (ua_r, va_r) = ((padded(c) for c in rows) for rows in at_a)
    w, w_r = abs(w1_a[0]), abs(w1_a[1])
    k2 = padded([q * q, 1.0])
    x, y = va_r * w + va * w_r, ua_r * w + ua * w_r
    x_plus, y_plus = x + 2.0 * w * ua, y + 2.0 * w * mul(k2, va)
    a_p = 0.5 * (mul(u0, y) + mul(k2, mul(v0, x)))
    b_p = 0.5 * (mul(u0, x) + mul(v0, y))
    a_q = 0.5 * (mul(u0, y_plus) + mul(k2, mul(v0, x_plus)))
    b_q = 0.5 * (mul(u0, x_plus) + mul(v0, y_plus))
    g_prime = (b_p + 2.0 * mul(k2, e2_derivative(b_p)), 2.0 * e2_derivative(a_p),
               b_q + 2.0 * mul(k2, e2_derivative(b_q)) + 2.0 * a * a_q,
               2.0 * e2_derivative(a_q) + 2.0 * a * b_q)
    return (a_p, b_p, a_q, b_q), g_prime, np.array([b_p, a_p, b_q + b_p, a_q + a_p])


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0))
@example(alpha=1.865927809385139, q=0.6401951898946958, log_a=3.9468147965929883)
@example(alpha=0.8429534370741294, q=0.34073022595214075, log_a=4.05914271782859)
def test_g_polynomials_match_the_convolve_form(alpha, q, log_a, g_polynomials_convolve):
    # the list products sum in another order than np.convolve: every
    # coefficient stays within 8 eps of the magnitude of its terms (about
    # 2 eps is seen). Against the largest coefficient of the polynomial the
    # change reaches 12 to 17 eps where a coefficient cancels (the examples)
    params = bs.PotentialParams.bic(alpha=alpha, q=q)
    a = 10.0**log_a
    at_0, at_a, _, w1_a = scattering._boundary_values(params, a)
    got = scattering._g_polynomials(at_0, at_a, w1_a, q, a)
    want = g_polynomials_convolve(at_0, [np.array(c) for c in at_a], w1_a, q, a)
    bound = _g_polynomial_magnitudes(at_0, at_a, w1_a, q, a)
    eps = np.finfo(float).eps
    assert len(got) == len(want) == len(bound) == 3
    assert isinstance(got[2], np.ndarray) and got[2].shape == (4, 5)
    for polys, refs, mags in zip(got, want, bound):
        assert len(polys) == len(refs) == 4
        for c, ref, mag in zip(polys, refs, mags):
            assert len(c) == 5
            assert np.all(np.abs(np.asarray(c) - ref) <= 8.0 * eps * mag)


@pytest.mark.envelope
@settings(max_examples=40, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=12.0))
@example(alpha=1.0, q=1.0, log_a=2.0)
@example(alpha=1.0, q=1.0, log_a=12.0)
def test_boundary_values_are_those_of_the_array_evaluation(alpha, q, log_a):
    # u, v/k and W1 at the two scalar radii, bit for bit what an evaluation
    # on the array [0, a] gives (the exact zeros at r = 0 included)
    params = bs.PotentialParams.bic(alpha=alpha, q=q)
    a = 10.0**log_a
    uv, uv_r = jost._uv_coefficients(params, [0.0, a], 1)
    w1, w1_r = _w1(params, [0.0, a], 1)
    at_0, at_a, w1_0, w1_a = scattering._boundary_values(params, a)
    assert _same_bits(at_0, uv[..., 0])
    assert _same_bits(at_a, [uv[..., 1], uv_r[..., 1]])
    assert _same_bits([w1_0, *w1_a], [w1[0], w1[1], w1_r[1]])
    bd = bs.TruncatedConfig(params=params, a=a)._boundary_data
    assert bd.at_0 == at_0 and (bd.w1_0, bd.w1_a) == (w1_0, w1_a[0])
    assert all(type(v) is float for v in (bd.w1_0, bd.w1_a, *bd.at_0[0], *bd.at_0[1]))

def _random_cuts(n, seed):
    """Split indices of range(n) into pieces of random sizes: 1 to a few
    thousand points, with one-point pieces at both ends and inside."""
    rng = np.random.default_rng(seed)
    cuts = rng.choice(np.arange(2, n - 2), 40, replace=False)
    return np.unique(np.concatenate([[1, n - 1], cuts, cuts[:10] + 1]))


def _full_grid_landmarks(config, k_lo, k_hi, dk, cuts=()):
    """``sigma_landmarks`` as a scan of the whole grid at once: num and den
    on all of np.arange(k_lo, k_hi + dk, dk), here evaluated on the pieces
    split at ``cuts``, then the same bracket filters and refinement, which
    starts from ``_num_den_dk`` at the bracket ends."""
    grid = np.arange(k_lo, k_hi + dk, dk)
    num, den = (np.concatenate(f) for f in zip(*(
        scattering._num_den(config, piece) for piece in np.split(grid, cuts))))
    q, floor = config.params.q, scattering._noise_floor(config)

    def refine(f, part, keep_lo=-math.inf, keep_hi=math.inf):
        def exact(kk):
            return scattering._num_den_dk(config, kk)[part]

        roots = []
        for i in np.nonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[0]:
            lo, hi = float(grid[i]), float(grid[i + 1])
            if (hi <= keep_lo or lo >= keep_hi or lo <= q <= hi
                    or math.hypot(num[i], den[i]) <= floor
                    or math.hypot(num[i + 1], den[i + 1]) <= floor):
                continue
            roots.append(scattering._bracketed_newton(exact, lo, hi, exact(lo)[0], exact(hi)[0]))
        return roots

    minima = refine(num, 0)
    if len(minima) < 2:
        return bs.MinimaNotFound
    lo, hi = minima[0], minima[-1]
    peaks = [z for z in refine(den, 1, lo, hi) if lo < z < hi]
    sin2 = []
    for z in peaks:
        (n, _), (d, _) = scattering._num_den_dk(config, z)
        sin2.append(n * n / (n * n + d * d))
    return scattering.SigmaLandmarks(minima=tuple(minima),
                                     peak=peaks[int(np.argmax(sin2))] if peaks else None)


@pytest.mark.parametrize("name", ["dg", "phase_shift", "cross_section",
                                  "model_phase_and_sigma", "hadamard_residual",
                                  "phase_shift_unwrapped", "sigma_landmarks"])
def test_blocked_grid_matches_sub_block_slices(config, fit, name):
    # a grid of 2.5 blocks gives the same bits whole as on pieces split at
    # random, one-point pieces included: numpy sends a one-column matrix
    # product to gemv, which sums in another order, unless it is padded
    k = np.linspace(0.995, 1.005, 5 * scattering._BLOCK // 2)
    cuts = _random_cuts(k.size, 11)
    if name == "sigma_landmarks":
        dk = 0.01 / k.size
        assert bs.sigma_landmarks(config, 0.995, 1.005, dk) == _full_grid_landmarks(
            config, 0.995, 1.005, dk, cuts)
        return
    if name == "phase_shift_unwrapped":
        k = k[np.abs(k - 1.0) > cli.Q_EXCLUSION]
        raw = np.concatenate([bs.phase_shift(config, piece) for piece in np.split(k, cuts)])
        assert np.array_equal(bs.phase_shift_unwrapped(config, k),
                              bs.unwrap_phase(raw))
        return
    fn = {"model_phase_and_sigma": lambda k: bs.model_phase_and_sigma(fit, k),
          "hadamard_residual": lambda k: bs.hadamard_residual(config, fit, k)}.get(
        name, lambda k: getattr(bs, name)(config, k))
    whole = np.array(fn(k))
    parts = [np.array(fn(piece)) for piece in np.split(k, cuts)]
    sliced = np.max(parts) if name == "hadamard_residual" else np.concatenate(parts, axis=-1)
    assert whole.shape == sliced.shape
    assert np.array_equal(whole, sliced)


def test_blocked_unwrap_matches_sub_block_slices(config):
    # the grid is shifted so that the principal phase jumps by about pi
    # between samples _BLOCK - 1 and _BLOCK, where the count's carry passes
    # from one block to the next; the blocked unwrap equals the whole-array
    # count applied to principal values computed on sub-block slices
    block = scattering._BLOCK
    k = np.linspace(0.995, 1.005, 5 * block // 2)
    k = k[np.abs(k - 1.0) > cli.Q_EXCLUSION]
    jumps = np.nonzero(np.abs(np.diff(bs.phase_shift(config, k))) > math.pi / 2)[0]
    k = k[jumps[jumps >= block][0] + 1 - block:]
    raw = np.concatenate([bs.phase_shift(config, k[i:i + 1000])
                          for i in range(0, k.size, 1000)])
    assert abs(raw[block] - raw[block - 1]) > math.pi / 2
    count = np.concatenate([[0.0], np.cumsum(np.rint(np.diff(raw) / math.pi))])
    whole = bs.phase_shift_unwrapped(config, k)
    assert np.array_equal(whole, raw - math.pi * count)
    assert abs(whole[block] - whole[block - 1]) < 0.01


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cross_section_peak_memory_is_bounded(config):
    k = np.linspace(0.995, 1.005, 10**6)
    sigma, peak = _peak_bytes(lambda: bs.cross_section(config, k))
    assert peak < 3 * sigma.nbytes


def test_unwrapped_phase_peak_memory_is_bounded(config):
    # the principal values and the output, plus one block's temporaries
    k = np.linspace(0.995, 1.005, 10**6)
    k = k[np.abs(k - 1.0) > cli.Q_EXCLUSION]
    delta, peak = _peak_bytes(lambda: bs.phase_shift_unwrapped(config, k))
    assert peak < 3 * delta.nbytes


def test_sigma_landmarks_peak_memory_is_bounded(config, landmarks):
    # a 10^6-point window is streamed a block at a time: the peak is a few
    # blocks' temporaries, a fraction of one grid-sized array (8 MB)
    marks, peak = _peak_bytes(lambda: bs.sigma_landmarks(config, 0.995, 1.005, dk=1e-8))
    assert marks.minima == pytest.approx(landmarks.minima, abs=1e-12)
    assert peak < 0.4 * 8 * 10**6


@pytest.mark.parametrize("which", [0, -1])
def test_bracket_across_a_block_end_is_kept(config, landmarks, which):
    # the window puts one minimum between the last point of the first block
    # and the first point of the second; the other lies inside the window
    dk, block = 1e-7, scattering._BLOCK
    k_lo = landmarks.minima[which] - (block - 0.5) * dk
    window = (k_lo, k_lo + (block + 10_000) * dk, dk)
    points = scattering._window_points(k_lo, dk, block - 1, block + 1)
    assert points[0] < landmarks.minima[which] < points[1]
    marks = bs.sigma_landmarks(config, *window)
    assert marks == _full_grid_landmarks(config, *window)
    assert marks.minima == pytest.approx(landmarks.minima, abs=1e-12)


@pytest.mark.parametrize("k_lo,k_hi,dk", [(0.995, 1.005, 1e-8), (0.99, 1.01, 3e-7),
                                          (-0.3, 2.7, 1e-4), (1e3, 1e3 + 1.0, 7e-5)])
def test_window_points_are_those_of_arange(k_lo, k_hi, dk):
    grid = np.arange(k_lo, k_hi + dk, dk)
    n = scattering._window_size(k_lo, k_hi, dk)
    assert n == grid.size
    for start in (0, 1, 2, 5000, n - 3):
        stop = min(start + scattering._BLOCK + 1, n)
        points = scattering._window_points(k_lo, dk, start, stop)
        assert np.array_equal(points, grid[start:stop])


@pytest.mark.envelope
@settings(max_examples=25, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0),
       cells=st.integers(min_value=64, max_value=10000))
def test_streamed_landmarks_match_the_full_grid_scan(alpha, q, log_a, cells):
    """The window streamed a block at a time gives the landmarks of one
    scan over the whole grid, bit for bit, or both refuse; from 64 cells
    per pi/a (the default) to 10^4, where the window spans four blocks."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    window = (q - 3.0 * math.pi / a, q + 3.0 * math.pi / a, math.pi / (cells * a))
    marks = _landmarks_or_refusal(config, window)
    assert marks == _full_grid_landmarks(config, *window)


def test_sin_cos_matches_numpy():
    # the real-axis kernel's e^{i phi} from one tangent of phi/2, against
    # np.sin and np.cos: with P = 1 and Q = 0, den + i num = e^{i phi}.
    # Absolute error within 4 eps, over |phi| <= 3e6 and within 1e-12 of
    # multiples of pi/2 (where t = tan(phi/2) is 0, +-1 or huge)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    n = rng.integers(-1_900_000, 1_900_000, 20_000)
    x = np.concatenate([rng.uniform(-3e6, 3e6, 100_000), rng.uniform(-10.0, 10.0, 20_000),
                        n * (math.pi / 2) + rng.uniform(-1e-12, 1e-12, n.size),
                        n * (math.pi / 2), [0.0, -0.0, math.pi, -math.pi, 3e6, -3e6]])
    unit = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    s, c = scattering._rotated(unit, np.zeros_like(x), 0.5 * x)
    assert np.max(np.abs(s - np.sin(x))) <= 4 * eps
    assert np.max(np.abs(c - np.cos(x))) <= 4 * eps
    assert np.max(np.abs(s * s + c * c - 1.0)) <= 4 * eps


def test_sin2_delta_against_oracle(config, dg_oracle):
    # sin^2 delta through the real-axis kernel (``_num_den``: one matrix
    # product and one tangent of k a)
    # against 40 digits, on points from 1e-7 to 1e-2 off q, binned by
    # decades of hypot(d, g) over the noise floor; in every bin the worst
    # error is at most twice that of the same pipeline on np.sin and np.cos
    # (the reference kernel, written out here). Both share the rounding of
    # d, g and k a, which sets the error in every bin.
    q, a = config.params.q, config.a
    rng = np.random.default_rng(5)
    k = np.sort(q + np.geomspace(1e-7, 1e-2, 120) * rng.choice([-1.0, 1.0], 120))
    num, den = scattering._num_den(config, k)
    got = num**2 / (num**2 + den**2)
    a_p, b_p, a_q, b_q = (polyval(k * k - q * q, c) for c in config._boundary_data.g)
    s, c = np.sin(k * a), np.cos(k * a)
    d, g = k * (b_p + b_q) * c - (a_p - a_q) * s, k * (b_p - b_q) * s + (a_p + a_q) * c
    num, den = d * s + g * c, d * c - g * s
    reference = num**2 / (num**2 + den**2)
    want = []
    with mpmath.workdps(40):
        for kk in k:
            dd, gg = (z.real for z in dg_oracle(config, float(kk)))
            ka = mpmath.mpf(float(kk)) * mpmath.mpf(a)
            nn = dd * mpmath.sin(ka) + gg * mpmath.cos(ka)
            mm = dd * mpmath.cos(ka) - gg * mpmath.sin(ka)
            want.append(float(nn**2 / (nn**2 + mm**2)))
    err_tan, err_ref = np.abs(got - want), np.abs(reference - want)
    decade = np.floor(np.log10(np.hypot(d, g) / scattering._noise_floor(config)))
    assert decade.min() < 0 and decade.max() > 12
    for b in np.unique(decade):
        in_bin = decade == b
        assert err_tan[in_bin].max() <= 2.0 * err_ref[in_bin].max(), b


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 5000.0), (0.5, 2.0, 3000.0),
                                       (2.403293061183309, 1.0302044633075347,
                                        329.77842326039297)])
def test_root_function_against_oracle(alpha, q, a, dg_oracle):
    # G = P + e^{-2ika} Q from the config's e2-polynomials against
    # e^{-ika} (d + ig) at 40 digits, near the doublet, between it and q,
    # past it and away from q (measured <= 8.2e-13, the rounding of k a)
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    g = bs.root_function(config)
    ks = [q + (x - 0.87j) * math.pi / a for x in (-1.6, 1.6, 0.3, 3.0)]
    for k in ks + [1.3 * q - 1j / a, 0.6 * q - 0.01j]:
        with mpmath.workdps(40):
            d, gg = dg_oracle(config, k)
            want = complex(mpmath.exp(-1j * mpmath.mpc(k) * a) * (d + 1j * gg))
        assert abs(g(k) - want) <= 2e-12 * abs(want)
        assert abs(g(np.array([k]))[0] - want) <= 2e-12 * abs(want)


def test_jost_function_conjugation(config):
    k = 1.003 - 1e-4j
    fm, fp = bs.jost_function(config, k)
    fm_c, fp_c = bs.jost_function(config, np.conj(k))
    assert abs(np.conj(fp) - fm_c) < 1e-10 * abs(fm_c)
    assert abs(np.conj(fm) - fp_c) < 1e-10 * abs(fp_c)


def test_jost_function_on_an_array_matches_scalar_calls(config):
    """One call over an array gives each point's scalar result up to the
    rounding of the last product (pref e^{+-ika}) (d +- ig): numpy's array
    loop and its scalar loop round a complex product differently, each
    within sqrt(5) u of the exact one, so they differ by at most sqrt(5) eps
    (measured 1.3 eps over twelve random configs of the envelope)."""
    eps = np.finfo(float).eps
    k = np.concatenate([np.linspace(0.5, 1.5, 200), 1.0 + np.linspace(-0.006, 0.006, 200)])
    k = k[np.abs(k - 1.0) > 2e-4].reshape(2, -1)
    fm, fp = bs.jost_function(config, k)
    assert fm.shape == fp.shape == k.shape
    for z, got_m, got_p in zip(k.ravel(), fm.ravel(), fp.ravel()):
        want_m, want_p = bs.jost_function(config, float(z))
        assert abs(got_m - want_m) <= math.sqrt(5.0) * eps * abs(want_m)
        assert abs(got_p - want_p) <= math.sqrt(5.0) * eps * abs(want_p)


def test_jost_function_on_an_empty_array(config):
    fm, fp = bs.jost_function(config, np.array([]))
    for f in (fm, fp):
        assert isinstance(f, np.ndarray) and f.shape == (0,) and f.dtype == complex


def test_jost_function_evaluates_d_g_once_per_point(config):
    # n points plus the three beside q that the rounding estimate reads
    # (``scattering._dg_rounding_near_q``); a loop over the points took 4n
    seen, kernel = [], scattering._dg

    def counted(config, k):
        seen.append(np.size(k))
        return kernel(config, k)

    k = np.linspace(1.01, 1.5, 100)
    with mock.patch.object(scattering, "_dg", counted):
        bs.jost_function(config, k)
    assert sum(seen) == k.size + 3


def test_jost_function_refusal_names_the_first_unresolved_point(config):
    k = np.array([1.5, 1.0 + 1e-6, 1.0 - 1e-6, 1.2])
    with pytest.raises(bs.DegenerateNormalizer, match=f"at k = {1.0 + 1e-6!r} is resolved"):
        bs.jost_function(config, k)


def test_s_matrix_unitary_on_real_axis(config):
    rng = np.random.default_rng(7)
    ks = rng.uniform(0.1, 5.0, size=50)
    ks = ks[np.abs(ks - config.params.q) > 1e-3]
    for k in ks:
        pt = bs.scattering_point(config, float(k))
        assert abs(abs(pt.S) - 1.0) < 1e-10


def test_sigma_matches_s_matrix_route(config):
    for k in (0.6, 0.9975, 1.3, 2.8):
        pt = bs.scattering_point(config, k)
        via_s = (math.pi / k**2) * abs(1.0 - pt.S) ** 2
        assert pt.sigma == pytest.approx(via_s, rel=1e-10)
        assert pt.sigma == pytest.approx((4 * math.pi / k**2) * math.sin(pt.delta_a) ** 2, rel=1e-10)


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0),
       x=st.floats(min_value=-20.0, max_value=20.0))
def test_scattering_point_gives_the_array_functions_values(alpha, q, log_a, x):
    """At k = q + x/a, scattering_point's delta_a and sigma are those of
    phase_shift and cross_section bit for bit, at k alone and at k inside a
    grid; near q it refuses where jost_function does."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    k = q + x / a
    try:
        pt = bs.scattering_point(config, k)
    except bs.DegenerateNormalizer:
        with pytest.raises(bs.DegenerateNormalizer):
            bs.jost_function(config, k)
        return
    grid = np.array([k - 1.0 / a, k, k + 1.0 / a])
    for delta, sigma in ((bs.phase_shift(config, k), bs.cross_section(config, k)),
                         (bs.phase_shift(config, grid)[1], bs.cross_section(config, grid)[1])):
        assert pt.delta_a == delta and pt.sigma == sigma


_BAD_K = {
    "jost_function at 0": lambda c, fit: bs.jost_function(c, 0.0),
    "jost_function at nan": lambda c, fit: bs.jost_function(c, math.nan),
    "jost_function at inf in an array": lambda c, fit: bs.jost_function(
        c, np.array([1.01, math.inf])),
    "scattering_point at 0": lambda c, fit: bs.scattering_point(c, 0.0),
    "scattering_point at -1": lambda c, fit: bs.scattering_point(c, -1.0),
    "scattering_point at nan": lambda c, fit: bs.scattering_point(c, math.nan),
    "gamow_state at nan": lambda c, fit: bs.gamow_state(
        c, bs.Resonance(complex(math.nan, math.nan), 0.0)),
    "dg at nan": lambda c, fit: bs.dg(c, math.nan),
    "dg at complex inf": lambda c, fit: bs.dg(c, complex(math.inf, -1.0)),
    "regular_solution at nan": lambda c, fit: bs.regular_solution(c, math.nan, 1.0),
    "jost_value at nan": lambda c, fit: bs.jost_value(c.params, math.nan, 1.0),
    "uv_bundle at inf": lambda c, fit: bs.uv_bundle(c.params, math.inf, 1.0),
    "cross_section at nan": lambda c, fit: bs.cross_section(c, [math.nan, 1.001]),
    "cross_section at 0": lambda c, fit: bs.cross_section(c, [0.0]),
    "cross_section at -1.001": lambda c, fit: bs.cross_section(c, -1.001),
    "phase_shift at -inf": lambda c, fit: bs.phase_shift(c, [1.001, -math.inf]),
    "phase_shift_unwrapped below 0": lambda c, fit: bs.phase_shift_unwrapped(
        c, [-1.001, -1.0009]),
    "model_phase_and_sigma at 0": lambda c, fit: bs.model_phase_and_sigma(fit, [0.0, 1.001]),
    "hadamard_residual at 0": lambda c, fit: bs.hadamard_residual(c, fit, [0.0, 1.0005]),
    "yz at nan": lambda c, fit: bs.yz(fit.doublet, math.nan),
    "root_function at nan": lambda c, fit: bs.root_function(c)(math.nan),
    "root_function at nan in an array": lambda c, fit: bs.root_function(c)(
        np.array([1.0 - 1e-4j, math.nan])),
    "root_derivative at inf - 1j": lambda c, fit: bs.root_derivative(c)(
        complex(math.inf, -1.0)),
}


@pytest.mark.parametrize("call", list(_BAD_K.values()), ids=list(_BAD_K))
def test_a_bad_k_is_refused(config, fit, call):
    # these raised ZeroDivisionError (h(0) = 0), DegenerateNormalizer (a
    # NaN k) or a RuntimeWarning, or returned NaN (the root function and
    # its derivative: (nan+nanj)), inf or, below k = 0, a cross section
    # and a phase
    with pytest.raises(bs.ValidationError, match="k = "):
        call(config, fit)


_COMPLEX_K = {
    "phase_shift": lambda c, fit, k: bs.phase_shift(c, k),
    "phase_shift_unwrapped": lambda c, fit, k: bs.phase_shift_unwrapped(c, k),
    "cross_section": lambda c, fit, k: bs.cross_section(c, k),
    "scattering_point": lambda c, fit, k: bs.scattering_point(c, k[0]),
    "model_phase_and_sigma": lambda c, fit, k: bs.model_phase_and_sigma(fit, k),
    "hadamard_residual": lambda c, fit, k: bs.hadamard_residual(c, fit, k),
    "yz": lambda c, fit, k: bs.yz(fit.doublet, k),
}


@pytest.mark.parametrize("call", list(_COMPLEX_K.values()), ids=list(_COMPLEX_K))
def test_complex_k_on_the_real_axis_is_refused(config, fit, call):
    # phase_shift_unwrapped and hadamard_residual dropped Im k with only a
    # ComplexWarning (hadamard_residual returned the value at the real
    # parts); the others raised a bare TypeError
    with pytest.raises(bs.ValidationError, match="must be real"):
        call(config, fit, np.array([1.0003 + 0.2j, 1.0004 + 0.3j]))


def _far_config():
    """alpha = 1e-10, q = 1e10, a = 1: inside the proven alpha*q range,
    with num and den of tan delta near 1e160 at k = 1.3 q."""
    return bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=1e-10, q=1e10), a=1.0)


def _far_residual():
    doublet = bs.Doublet(k1=1.2e10, half_width1=0.1, k2=1.4e10, half_width2=0.1)
    fit = bs.BackgroundFit(lambda0=0.0, lambda1=0.0, doublet=doublet, a=1.0,
                           fit_report={"minima": [1.2e10, 1.4e10]})
    return bs.hadamard_residual(_far_config(), fit, [1.3e10])


def _tiny_config():
    """alpha = q = 1, a = 1e-40: the real-axis range reaches k of about
    2e49, and num and den of tan delta overflow from k of about 1e34."""
    return bs.TruncatedConfig(params=bs.PotentialParams.bic(), a=1e-40)


# finite inputs whose results are not finite; k = 1e160 makes e2 = k^2 - q^2
# overflow, e^{-ika} overflows above the real axis, W1^2 at r = 1e39, and
# h(k) W1(a)^2, the denominator of F+-'s prefactor, underflows at q = 1e-36,
# k = 1e-38. The real-axis functions at k = 1e160, at a = 1e19 and at the far
# config (where num^2 + den^2 overflowed) are refused before that, past the
# real-axis range, where k a has lost its digits; at a = 1e-40 the range
# still holds k = 1e35, where num and den overflow, and at a = 1e-10 it
# holds k = 1e17, where num^2 + den^2 does
_OVERFLOWS = {
    "dg": (lambda c, p: bs.dg(c, 1e160), "not finite at k = 1e+160"),
    "phase_shift": (lambda c, p: bs.phase_shift(c, 1e160),
                    "tan delta at k = 1e+160 is resolved only to"),
    "cross_section": (lambda c, p: bs.cross_section(c, [1.3, 1e160]),
                      "tan delta at k = 1e+160 is resolved only to"),
    "phase_shift at a = 1e-40": (lambda c, p: bs.phase_shift(_tiny_config(), 1e35),
                                 "num, den of tan delta are not finite at k = 1e+35"),
    "cross_section at a = 1e-40": (lambda c, p: bs.cross_section(_tiny_config(), [1.3, 1e35]),
                                   "num, den of tan delta are not finite at k = 1e+35"),
    "cross_section at a = 1e-10": (
        lambda c, p: bs.cross_section(dataclasses.replace(c, a=1e-10), [1.3, 1e17]),
        "num^2 + den^2 of tan delta is not finite at k = 1e+17"),
    "regular_solution": (lambda c, p: bs.regular_solution(c, 1e160, 1.0),
                         "not finite at k = 1e+160, r = 1.0"),
    "uv_bundle": (lambda c, p: bs.uv_bundle(p, 1e160, 1.0), "not finite at k = 1e+160, r = 1.0"),
    "jost_value": (lambda c, p: bs.jost_value(p, 1e160, 1.0),
                   "not finite at k = 1e+160, r = 1.0"),
    "root_function": (lambda c, p: bs.root_function(c)(1e160), "not finite at k = 1e+160"),
    "root_function above the axis": (lambda c, p: bs.root_function(c)(1 + 0.1j),
                                     "not finite at k = (1+0.1j)"),
    "dg above the axis": (lambda c, p: bs.dg(c, 1 + 0.2j), "not finite at k = (1+0.2j)"),
    "cross_section at a = 1e19": (
        lambda c, p: bs.cross_section(dataclasses.replace(c, a=1e19), 1.3),
        "tan delta at k = 1.3 is resolved only to"),
    "cross_section far": (lambda c, p: bs.cross_section(_far_config(), 1.3e10),
                          "tan delta at k = 13000000000.0 is resolved only to"),
    "hadamard_residual far": (lambda c, p: _far_residual(),
                              "tan delta at k = 13000000000.0 is resolved only to"),
    "jost_value at r = 1e39": (lambda c, p: bs.jost_value(p, 1.3, 1e39),
                               "not finite at k = 1.3, r = 1e+39"),
    "jost_function with an underflowing prefactor": (
        lambda c, p: bs.jost_function(bs.TruncatedConfig(
            params=bs.PotentialParams.bic(alpha=1e35, q=1e-36), a=1e37), 1e-38),
        "not formed at k = 1e-38, where h(k) W1(a)^2 underflows"),
}


@pytest.mark.parametrize("call,message", list(_OVERFLOWS.values()), ids=list(_OVERFLOWS))
def test_results_that_overflow_are_refused(config, params, call, message):
    # each returned NaN or inf with no error (only jost_function refused
    # k = 1e160), and the last raised ZeroDivisionError; numpy warns of the
    # overflow on the way, and the result is refused, naming the first point
    # where it is not finite
    with np.errstate(all="ignore"), pytest.raises(bs.ValidationError, match=re.escape(message)):
        call(config, params)


@pytest.mark.parametrize("q,a", [(1.0, 7.5e8), (1.0, 5000.0), (2.0, 1e5), (0.3, 1e-4)])
def test_real_axis_range_ends_where_the_phases_lose_their_digits(q, a):
    """Real-axis phases are refused from k = 1e-6 / (2 eps a) - 2q on, where
    2 eps (k + 2q) a, the term F+- are refused by, passes 1e-6: at
    alpha = q = 1 from a of about 7.5e8 at k = q and 6.8e8 at k = 1.3, and
    from k of about 4.5e5 at a = 5000. The model phase, whose only phase
    is k a, is refused from k = 1e-6 / (2 eps a) on. At k = 1.3 phase_shift
    read -1.04248277262858 for every a from 1e17 to 1e25. At small a
    (alpha = q = 1: a <= 1e-8) num^2 + den^2 overflows below the cut, and
    sigma is refused there first ("cross_section at a = 1e-10" above)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=1.0 / q, q=q), a=a)
    fit = bs.BackgroundFit(lambda0=0.0, lambda1=0.0, a=a, fit_report={},
                           doublet=bs.Doublet(k1=q, half_width1=1.0, k2=2.0 * q, half_width2=1.0))
    cut = 1e-6 / (2.0 * np.finfo(float).eps * a)
    for limit, call in [(cut - 2.0 * q, lambda k: bs.phase_shift(config, k)),
                        (cut - 2.0 * q, lambda k: bs.cross_section(config, [1e-3 * k, k])),
                        (cut - 2.0 * q, lambda k: bs.phase_shift_unwrapped(config, [0.5 * k, k])),
                        (cut - 2.0 * q, lambda k: bs.scattering_point(config, k)),
                        (cut, lambda k: bs.model_phase_and_sigma(fit, k))]:
        call(limit * (1.0 - 1e-9))
        with pytest.raises(bs.ValidationError, match="has lost its digits"):
            call(limit * (1.0 + 1e-9))
    with pytest.raises(bs.ValidationError, match="k a = 1.300e[+]17 has lost its digits"):
        bs.phase_shift(dataclasses.replace(config, a=1e17), 1.3)


@pytest.mark.parametrize("alpha,q,a", [(1e-30, 1e30, 1e-20), (1e-40, 1e40, 1e-39)])
def test_config_refuses_boundary_data_that_are_not_finite(alpha, q, a):
    # alpha*q = 1 is in the proven range, and the configs were built with 3
    # and 7 of the 48 numbers they store inf or NaN, so that every
    # real-axis function returned NaN
    with np.errstate(all="ignore"), pytest.raises(bs.ValidationError, match="boundary data"):
        bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)


def test_config_refuses_overflowing_u_v_without_a_warning():
    # u and v at r = a overflow in the closed form; numpy's overflow warning,
    # an error here, used to escape before the finiteness check refused them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bs.ValidationError):
            bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=1e10, q=1e-12), a=1e89)


_ENTRY_POINTS = {
    "dg": lambda c, k, r: bs.dg(c, k),
    "jost_function": lambda c, k, r: bs.jost_function(c, k),
    "root_function": lambda c, k, r: bs.root_function(c)(k),
    "root_derivative": lambda c, k, r: bs.root_derivative(c)(k),
    "phase_shift": lambda c, k, r: bs.phase_shift(c, k),
    "cross_section": lambda c, k, r: bs.cross_section(c, k),
    "scattering_point": lambda c, k, r: dataclasses.astuple(bs.scattering_point(c, k)),
    "regular_solution": lambda c, k, r: bs.regular_solution(c, k, r),
    "uv_bundle": lambda c, k, r: dataclasses.astuple(bs.uv_bundle(c.params, k, r)),
    "jost_value": lambda c, k, r: dataclasses.astuple(bs.jost_value(c.params, k, r)),
}


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(log_s=st.floats(math.log10(S_MIN), math.log10(S_MAX)), log_q=st.floats(-40.0, 40.0),
       log_a=st.floats(-40.0, 40.0), log_k=st.floats(-40.0, 40.0),
       im_sign=st.sampled_from([0.0, -1.0, 1.0]), log_im=st.floats(-40.0, 40.0),
       r_share=st.floats(0.0, 1.0))
# at alpha = q = 1: k = 1.3 at a = 1e17 and 1e25, where the phase read one
# value whatever a was; k = 3e13 at a = 5000 and k = 1.3 at a = 7e18, where
# num^2 + den^2 overflowed; and k = 1e17 at a = 1e-10, where it still does
# inside the range and sigma is refused
@example(log_s=0.0, log_q=0.0, log_a=17.0, log_k=math.log10(1.3), im_sign=0.0, log_im=0.0,
         r_share=0.5)
@example(log_s=0.0, log_q=0.0, log_a=25.0, log_k=math.log10(1.3), im_sign=0.0, log_im=0.0,
         r_share=0.5)
@example(log_s=0.0, log_q=0.0, log_a=math.log10(5000.0), log_k=math.log10(3e13), im_sign=0.0,
         log_im=0.0, r_share=0.5)
@example(log_s=0.0, log_q=0.0, log_a=math.log10(7e18), log_k=math.log10(1.3), im_sign=0.0,
         log_im=0.0, r_share=0.5)
@example(log_s=0.0, log_q=0.0, log_a=-10.0, log_k=17.0, im_sign=0.0, log_im=0.0, r_share=0.5)
def test_results_are_finite_or_refused_over_many_decades(log_s, log_q, log_a, log_k, im_sign,
                                                         log_im, r_share):
    """alpha, q, a and k each over many decades, with alpha*q in the proven
    range: every entry point of a config and a k (and an r in [0, a])
    returns finite values or raises a BicscatterError. The config is built
    without a warning; an entry point may warn of an overflow on the way to
    a refusal."""
    q = 10.0**log_q
    k = complex(10.0**log_k, im_sign * 10.0**log_im) if im_sign else 10.0**log_k
    try:
        config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=10.0**log_s / q, q=q),
                                    a=10.0**log_a)
    except bs.BicscatterError:
        return
    r = r_share * config.a
    with np.errstate(all="ignore"):
        for name, call in _ENTRY_POINTS.items():
            try:
                values = call(config, k, r)
            except bs.BicscatterError:
                continue
            values = values if isinstance(values, tuple) else (values,)
            assert all(np.isfinite(v).all() for v in values if v is not None), (name, values)


@pytest.mark.parametrize("alpha,q,a,worst", [
    (1.0, 1.0, 5000.0, [7.2e-3, 9.2e-8, 1.7e-12, 4.3e-13, 4.4e-13]),
    (0.5, 2.0, 1e5, [0.28, 3.9e-6, 9.6e-11, 1.3e-11, 1.4e-11]),
    (1.3, 0.7, 5000.0, [0.082, 8.2e-7, 1.1e-11, 2.5e-13, 4.0e-13])])
def test_dg_per_decade_against_oracle(alpha, q, a, worst, dg_oracle):
    """d + ig, read from G's four polynomials, against 40 digits at 8
    points per decade of |x|, x = (k - q) a, from 1e-2 to 1e3 on either
    side of q. ``worst`` is the worst relative error per decade of d and g
    from summed polynomials (bP + bQ, aP - aQ, ...), to two digits: from
    the rounding noise next to q to the rounding of k a far out. Each
    decade stays within twice it."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    rng = np.random.default_rng(7)
    x = np.geomspace(0.01, 1000.0, 41)[:-1] * rng.choice([-1.0, 1.0], 40)
    k = q + x / a
    d, g = bs.dg(config, k)
    with mpmath.workdps(40):
        want = np.array([complex(dd + 1j * gg)
                         for dd, gg in (dg_oracle(config, float(kk)) for kk in k)])
    err = np.abs(d + 1j * g - want) / np.abs(want)
    decade = np.floor(np.log10(np.abs(x)))
    assert np.array_equal(np.unique(decade), np.arange(-2.0, 3.0))
    for b, bound in zip(range(-2, 3), worst):
        assert err[decade == b].max() <= 2.0 * bound, b


def test_phase_shift_principal_branch(config):
    k = np.array([0.5, 0.9, 1.2, 3.0])
    d = bs.phase_shift(config, k)
    assert np.all(np.abs(d) <= math.pi / 2 + 1e-12)


def _h_normalizer(params, k):
    """h(k) through ``scattering._h_of``, with U2(0) from ``jost._uv_coefficients``."""
    return scattering._h_of(jost._uv_coefficients(params, 0.0, 0)[0][0][2], k, params.q)


def test_normalizer_positive_off_the_singular_point(params):
    k = np.linspace(0.5, 2.0, 301)
    k = k[np.abs(k - params.q) > 5e-4]
    h = _h_normalizer(params, k)
    assert np.all(np.real(h) > 0)
    assert np.max(np.abs(np.imag(h))) == 0


@pytest.mark.parametrize("alpha,q", [(1.0, 1.0), (0.3, 3.0), (3.0, 0.3)])
def test_normalizer_closed_form_against_mpmath(alpha, q, uv_oracle):
    """h = k U2(0)^2 (k^2 - q^2)^4 equals u v' - v u' + k (u^2 + v^2) at
    r = 0 evaluated at 60 digits, also at the a = 5000 and a = 2e4 doublets,
    where the float combination cancels to 2e-4 and 5e-2 relative."""
    p = bs.PotentialParams.bic(alpha=alpha, q=q)
    with mpmath.workdps(60):
        for k in (q * (0.998984403241 - 1.73006555e-4j), q * (1.000253892492 - 4.3271688e-5j),
                  1.3 * q, q * (0.5 + 0.1j)):
            u, v, u_r, v_r = uv_oracle(p, k, 0.0)
            want = complex(u * v_r - v * u_r + mpmath.mpc(k) * (u * u + v * v))
            assert abs(complex(_h_normalizer(p, k)) - want) <= 1e-12 * abs(want)


def _jost_oracle(config, k, uv_oracle, dg_oracle):
    """(F(-k), F(k)) = pref e^{+-ika} (d +- ig) at 40 digits: d, g from
    ``dg_oracle``, pref = W1(0) / (h W1(a)^2) with h = u v' - v u' +
    k (u^2 + v^2) at r = 0 from ``uv_oracle``; W1(0) and W1(a) are the
    library's floats."""
    p = config.params
    w0 = float(bs.w1_bundle(p, 0.0).w1)
    wa = float(bs.w1_bundle(p, config.a).w1)
    with mpmath.workdps(40):
        k = mpmath.mpc(k)
        d, g = dg_oracle(config, k)
        u0, v0, u0_r, v0_r = uv_oracle(p, k, 0.0)
        pref = w0 / ((u0 * v0_r - v0 * u0_r + k * (u0**2 + v0**2)) * wa**2)
        phase = mpmath.exp(1j * k * mpmath.mpf(config.a))
        return complex(pref * phase * (d + 1j * g)), complex(pref / phase * (d - 1j * g))


def test_degenerate_normalizer_guard(config, uv_oracle, dg_oracle):
    # F(-q) is finite (d + ig carries the e2^4 of h), so near q nothing
    # blows up: F+- are refused only where d +- ig are rounding, here from
    # within about 0.06/a of q. At x = (k - q) a = 0.5 they are resolved to
    # 1e-9 (measured 7e-11), and the regular solution keeps its |h| guard,
    # as its numerator cancels to about h r
    fm, fp = bs.jost_function(config, 1.0001)
    pt = bs.scattering_point(config, 1.0001)
    want_m, want_p = _jost_oracle(config, 1.0001, uv_oracle, dg_oracle)
    for got, want in ((fm, want_m), (fp, want_p), (pt.F_minus, want_m), (pt.F_plus, want_p)):
        assert abs(got - want) <= 1e-9 * abs(want)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.jost_function(config, 1.0 + 1e-6)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.scattering_point(config, 1.0 + 1e-6)
    with pytest.raises(bs.DegenerateNormalizer):
        bs.regular_solution(config, config.params.q, 1.0)
    assert np.isfinite(float(bs.cross_section(config, 1.0001)))
    assert np.isfinite(float(bs.phase_shift(config, 1.0001)))
    assert np.isfinite(bs.scattering_point(config, 1.0005).sigma)


@pytest.mark.parametrize("alpha,q,a", [(1.0, 1.0, 5e4), (1.0, 1.0, 2e5), (1.0, 1.0, 1e6),
                                       (0.3, 3.0, 1e6)])
def test_jost_function_at_doublets_of_large_cutoffs(alpha, q, a, uv_oracle, dg_oracle):
    """F(k_n) at both doublet members, where |h| was below a threshold of
    1e-12 (|u|^2 + |v|^2) at r = 0 from a = 3e4 on at alpha = q = 1, yet d - ig
    is resolved: within 1e-9 of 40-digit arithmetic (measured <= 1.3e-10)."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    for res in bs.doublet_of(bs.find_resonances(config), q):
        _, want = _jost_oracle(config, res.k_complex, uv_oracle, dg_oracle)
        _, got = bs.jost_function(config, res.k_complex)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_sigma_landmark_positions(landmarks):
    m1, m2 = landmarks.minima
    assert m1 == pytest.approx(0.9997210660, abs=1e-7)
    assert m2 == pytest.approx(1.0005261782, abs=1e-7)
    assert landmarks.peak == pytest.approx(1.0001161, abs=1e-5)
    assert m1 < landmarks.peak < m2


def test_sigma_minima_are_deep(config, landmarks):
    for m in landmarks.minima:
        bound = 4 * math.pi / m**2
        assert float(bs.cross_section(config, m)) < 1e-4 * bound


def test_sigma_peak_touches_unitarity_bound(config, landmarks):
    k = landmarks.peak
    bound = 4 * math.pi / k**2
    sigma = float(bs.cross_section(config, k))
    assert sigma <= bound * (1 + 1e-12)
    assert sigma >= bound * (1 - 1e-3)


def test_phase_at_landmarks(config, landmarks):
    # transmission zeros sit at delta = 0 mod pi, the inter-peak maximum
    # at |delta| = pi/2
    for m in landmarks.minima:
        assert abs(math.sin(float(bs.phase_shift(config, m)))) < 1e-8
    assert abs(math.cos(float(bs.phase_shift(config, landmarks.peak)))) < 0.05


def test_fine_grid_finds_no_minimum_in_the_noise_at_q(config):
    # dk = 2.3e-7 samples within 1e-6 of q, where d and g are rounding noise
    # and the numerator changes sign at random
    assert len(bs.sigma_landmarks(config, 0.995, 1.005, dk=2.3e-7).minima) == 2


@pytest.mark.parametrize("a", [5e4, 3e5, 1e6])
def test_sigma_minima_sit_at_fixed_scaled_positions(params, a):
    # at alpha = q = 1 the minima have settled at fixed (k - q) a / pi, which
    # the default dk = pi/(64 a) resolves at every one of these cutoffs
    config = bs.TruncatedConfig(params=params, a=a)
    marks = bs.sigma_landmarks(config, 1 - 3 * math.pi / a, 1 + 3 * math.pi / a)
    x = [(m - 1.0) * a / math.pi for m in marks.minima]
    assert x == pytest.approx([-0.444, 0.837], abs=1e-3)


@pytest.mark.parametrize("a", [5000.0, 2e5])
@pytest.mark.parametrize("x", [-2.3, -0.444, 0.5, 0.837, 2.9])
def test_num_den_derivative_matches_central_difference(params, a, x):
    # x = (k - q) a / pi; the values match the real-axis kernel to rounding
    # and the derivatives a central difference over a step of 1e-4 pi/a
    config = bs.TruncatedConfig(params=params, a=a)
    k = 1.0 + x * math.pi / a
    (num, dnum), (den, dden) = scattering._num_den_dk(config, k)

    def kernel(kk):
        return [float(v[0]) for v in scattering._num_den(config, np.array([kk]))]

    reference = kernel(k)
    scale = math.hypot(*reference)
    assert [num, den] == pytest.approx(reference, abs=1e-12 * scale)
    h = 1e-4 * math.pi / a
    central = [(p - m) / (2.0 * h) for p, m in zip(kernel(k + h), kernel(k - h))]
    assert [dnum, dden] == pytest.approx(central, abs=1e-6 * 2.0 * a * scale)


def test_landmarks_refine_only_the_brackets_that_can_win(config, landmarks, monkeypatch):
    # at the defaults the window holds 2 numerator and 3 denominator
    # brackets; only the denominator bracket between the minima is refined
    refined = []
    newton = scattering._bracketed_newton

    def counting(f, lo, hi, *args, **kwargs):
        refined.append((lo, hi))
        return newton(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(scattering, "_bracketed_newton", counting)
    assert bs.sigma_landmarks(config, 0.995, 1.005) == landmarks
    assert len(refined) == 3


def _brentq_refinement(f, lo, hi, f_lo, f_hi):
    return brentq(lambda kk: f(kk)[0], lo, hi, xtol=1e-14)


def _landmarks_or_refusal(config, window):
    try:
        return bs.sigma_landmarks(config, *window)
    except bs.MinimaNotFound:
        return bs.MinimaNotFound


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0))
@example(alpha=2.62, q=2.94, log_a=math.log10(7.8e4))
@example(alpha=2.403293061183309, q=1.0302044633075347, log_a=math.log10(329.77842326039297))
@example(alpha=0.375, q=0.3125, log_a=2.0)
def test_landmarks_agree_with_brentq_over_the_envelope(alpha, q, log_a):
    """On the same brackets, bracketed Newton and brentq(xtol=1e-14) find
    the same minima and peak to 1e-10 relative (the largest gaps are
    peaks where the denominator is rounding noise over a few 1e-11), or
    both refuse: at small q a the window q +- 3 pi/a can hold one minimum
    only (at alpha = 0.375, q = 0.3125, a = 100 the other sits beyond it)."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    window = (q - 3.0 * math.pi / a, q + 3.0 * math.pi / a)
    marks = _landmarks_or_refusal(config, window)
    with mock.patch.object(scattering, "_bracketed_newton", _brentq_refinement):
        reference = _landmarks_or_refusal(config, window)
    if marks is bs.MinimaNotFound or reference is bs.MinimaNotFound:
        assert marks is reference
        return
    assert len(marks.minima) == len(reference.minima)
    assert marks.minima == pytest.approx(reference.minima, rel=1e-10)
    assert (marks.peak is None) == (reference.peak is None)
    if marks.peak is not None:
        assert marks.peak == pytest.approx(reference.peak, rel=1e-10)


@pytest.mark.parametrize("dk", [None, 1e-6, 1e-7])
def test_no_minimum_in_the_noise_where_d_g_vanish_exactly_at_q(exact_zero_config, dk):
    # the e2^0 coefficients at r = 0 come out as exact zeros here, so
    # d(q) = g(q) = 0 exactly; the noise floor must come from the rounding
    # beside q, or sign changes within 1e-3 pi/a of q pass as minima. The
    # expected minima are the doublet's two, one on each side of q, refined
    # by brentq on the default grid.
    config = exact_zero_config
    q, a = config.params.q, config.a
    assert bs.dg(config, q) == (0.0, 0.0)
    window = (q - 3 * math.pi / a, q + 3 * math.pi / a)
    with mock.patch.object(scattering, "_bracketed_newton", _brentq_refinement):
        expected = [(m - q) * a / math.pi for m in bs.sigma_landmarks(config, *window).minima]
    assert len(expected) == 2 and expected[0] < -0.1 and expected[1] > 0.1
    marks = bs.sigma_landmarks(config, *window, dk=dk)
    x = [(m - q) * a / math.pi for m in marks.minima]
    assert x == pytest.approx(expected, abs=1e-4)



def test_cross_section_refuses_where_d_g_vanish_exactly(exact_zero_config):
    # d(q) = g(q) = 0 exactly: sin^2 delta is 0/0 at q, which is refused by
    # name where it would be NaN; the point beside it and the default-grid
    # paths, which drop q by the noise floor, still give numbers
    config = exact_zero_config
    q, a = config.params.q, config.a
    for k in ([q, q + 1e-3], q, np.array([[q + 1e-3], [q]])):
        with pytest.raises(bs.DegenerateNormalizer, match=rf"k = {re.escape(repr(q))} "):
            bs.cross_section(config, k)
    assert np.isfinite(bs.cross_section(config, q + 1e-3))
    window = (q - 3 * math.pi / a, q + 3 * math.pi / a)
    assert len(bs.sigma_landmarks(config, *window).minima) == 2
    assert abs(bs.phase_jump(config, *window)) > math.pi

def test_minima_not_found_in_barren_window(config):
    with pytest.raises(bs.MinimaNotFound):
        bs.sigma_landmarks(config, 0.9999, 1.0004)


def test_unwrapped_phase_fine_grid(config):
    k = np.arange(0.9985, 1.0015, 1e-6)
    k = k[np.abs(k - 1.0) > 1e-5]
    un = bs.phase_shift_unwrapped(config, k)
    assert np.max(np.abs(np.diff(un))) < 0.45 * math.pi
    # the drop across the doublet is just short of a full turn
    assert un[-1] - un[0] == pytest.approx(-5.9998, abs=0.05)


def test_unwrap_ambiguity_on_coarse_grid(config):
    k = np.arange(0.995, 1.005, 2e-4)
    k = k[np.abs(k - 1.0) > 1e-5]
    with pytest.raises(bs.UnwrapAmbiguity):
        bs.phase_shift_unwrapped(config, k)


def test_unwrap_ambiguity_does_not_depend_on_the_blocking(config):
    # steps 11, 12 and 13 are too large, 0.474, 0.493 and 0.474 pi: the
    # refusal names step 11, the first in grid order, whatever the block
    # size; it used to name the largest step of the first block holding one
    k = np.arange(0.995, 1.005, 4e-4)
    k = k[np.abs(k - 1.0) > 1e-5]
    messages = set()
    for block in (scattering._BLOCK, 7, 2):
        with mock.patch.object(scattering, "_BLOCK", block):
            with pytest.raises(bs.UnwrapAmbiguity) as refusal:
                bs.phase_shift_unwrapped(config, k)
        messages.add(str(refusal.value))
    assert len(messages) == 1


def test_unwrap_ambiguity_names_the_first_step_that_is_too_large():
    # two steps too large in one block, the smaller first: 0.46 pi from
    # k = 1 to 2, then 0.48 pi (-0.52 pi plus one period) from 4 to 5
    raw = np.array([0.0, 0.46, 0.46, 0.46, -0.06]) * math.pi
    k = np.arange(1.0, 6.0)
    with pytest.raises(bs.UnwrapAmbiguity,
                       match=r"step 1\.445 rad between k = 1 and 2;"):
        scattering._unwrap_grid(lambda start, stop: raw[start:stop], k)


def test_unwrap_phase_and_phase_shift_unwrapped_share_one_loop(config):
    # the same principal sequence gives the same bits through the public
    # unwrap and through the grid route of phase_shift_unwrapped and the CLI,
    # on a phase sampled across 2.5 blocks and on a random walk with jumps
    k = np.linspace(0.995, 1.005, 5 * scattering._BLOCK // 2)
    k = k[np.abs(k - 1.0) > cli.Q_EXCLUSION]
    raw = bs.phase_shift(config, k)
    assert np.array_equal(bs.phase_shift_unwrapped(config, k), bs.unwrap_phase(raw))
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.uniform(-0.44, 0.44, k.size) * math.pi)
    folded = walk - math.pi * np.round(walk / math.pi)
    assert np.array_equal(
        scattering._unwrap_grid(lambda start, stop: folded[start:stop], k),
        bs.unwrap_phase(folded))


def test_unwrapped_requires_increasing_grid(config):
    with pytest.raises(bs.ValidationError):
        bs.phase_shift_unwrapped(config, np.array([1.002, 1.001, 1.003]))


@pytest.mark.parametrize("fn,args", [
    ("sigma_landmarks", (0.99, 1.01, 0.0)),
    ("sigma_landmarks", (0.99, 1.01, -1e-6)),
    ("sigma_landmarks", (0.99, 1.01, math.nan)),
    ("sigma_landmarks", (0.99, math.inf)),
    ("sigma_landmarks", (math.nan, 1.01)),
    ("phase_jump", (0.99, 1.01, 0.0)),
    ("phase_jump", (0.99, 1.01, math.nan)),
    ("phase_jump", (0.99, math.inf)),
    ("phase_shift_unwrapped", (np.array([0.999, math.nan, 1.001]),)),
    ("phase_shift_unwrapped", (np.array([0.999, 1.001, math.inf]),)),
])
def test_grid_inputs_raise_validation_error(config, fn, args):
    # a zero, negative or NaN step, an infinite or NaN window end, and a
    # grid holding NaN or an infinity are all refused before any numerics
    with pytest.raises(bs.ValidationError):
        getattr(bs, fn)(config, *args)


@pytest.mark.parametrize("fn,args", [
    ("sigma_landmarks", (0.99, 1.01, 1e-300)),
    ("sigma_landmarks", (0.99, 1.01, 1e-12)),
    ("phase_jump", (0.99, 1.01, 1e-300)),
    ("phase_jump", (0.99, 1.01, 1e-12)),
    ("hadamard_residual", ()),
])
def test_oversized_grids_raise_validation_error(config, fit, fn, args):
    # more than numerics._MAX_GRID_POINTS points are refused before
    # anything is allocated or looped over; the default Hadamard grid is
    # oversized by minima far apart at a fine step pi/(640 a)
    if fn == "hadamard_residual":
        wide = dataclasses.replace(fit, fit_report={**fit.fit_report, "minima": [0.1, 10.0]})
        call = lambda: bs.hadamard_residual(config, wide)
    else:
        call = lambda: getattr(bs, fn)(config, *args)
    with pytest.raises(bs.ValidationError, match="more than"):
        call()


def test_phase_jump_across_doublet(config):
    jump = bs.phase_jump(config, 0.99, 1.01)
    assert jump == pytest.approx(-6.163017, abs=1e-3)
    assert abs(abs(jump) - 2 * math.pi) < 0.2


_log_uniform_envelope = st.floats(min_value=math.log10(0.3),
                                  max_value=math.log10(3.0)).map(lambda x: 10.0**x)
# the cutoffs of the phase-jump table that the fixed |k - q| <= 1e-5 window
# got wrong: UnwrapAmbiguity at 1e5 and 3e5, -0.970 pi at 2e5, +0.030 pi from
# 5e5 on (the doublet, at |x| ~ 5, falls inside the window there)
_PHASE_JUMP_TABLE = (5e4, 1e5, 2e5, 3e5, 5e5, 7e5, 1e6)


def _table_examples(fn):
    for alpha_q in (1.0, 0.3, 3.0):
        for a in _PHASE_JUMP_TABLE:
            fn = example(alpha=alpha_q, q=alpha_q, log_a=math.log10(a), shift=0.0)(fn)
    return fn


@pytest.mark.envelope
@settings(max_examples=80, deadline=None)
@given(alpha=_log_uniform_envelope, q=_log_uniform_envelope,
       log_a=st.floats(min_value=4.7, max_value=6.0),
       shift=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@_table_examples
# grid point 1279 lands exactly on k = q, where d and g are rounding
@example(alpha=1.0, q=1.0, log_a=6.0, shift=0.9999985604062519)
def test_phase_jump_is_two_pi_at_large_cutoffs(alpha, q, log_a, shift):
    """Across q +- 20 pi/a at the default dk = pi/(64 a), shifted by a
    fraction of dk, the jump reads -1.9696 pi to 5e-3, however large a
    gets: only points at the rounding noise floor around q are dropped."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    offset = shift * (math.pi / (64.0 * a))
    window = 20.0 * math.pi / a
    jump = bs.phase_jump(config, q - window + offset, q + window + offset)
    assert abs(jump / math.pi + 1.9696) <= 5e-3


def _kernel_points(fn):
    """The points fn() passes through ``scattering._num_den``, in order."""
    seen, kernel = [], scattering._num_den

    def counted(config, k):
        seen.append(np.array(k))
        return kernel(config, k)

    with mock.patch.object(scattering, "_num_den", counted):
        fn()
    return np.concatenate(seen)


def test_phase_jump_evaluates_each_window_point_once(config):
    # the floor test and the phase come from one pass of the kernel; the
    # phase used to be evaluated again on the points the floor kept. On a
    # window of 3.5 blocks the point shared by two blocks is evaluated once
    for dk in (math.pi / (64.0 * config.a), 0.02 / (3.5 * scattering._BLOCK)):
        points = _kernel_points(lambda: bs.phase_jump(config, 0.99, 1.01, dk))
        assert np.array_equal(points, np.arange(0.99, 1.01 + dk, dk))


def test_sigma_landmarks_evaluates_each_window_point_once(config):
    # consecutive blocks share their end point, which used to be evaluated
    # by both
    dk = 0.01 / (3.5 * scattering._BLOCK)
    points = _kernel_points(lambda: bs.sigma_landmarks(config, 0.995, 1.005, dk))
    assert np.array_equal(points, np.arange(0.995, 1.005 + dk, dk))


def test_phase_jump_peak_memory_is_bounded(config):
    # a 10^6-point window is streamed a block at a time, as in
    # sigma_landmarks: no grid-sized array (8 MB) is held; a whole-grid
    # pass held 65 MB
    jump, peak = _peak_bytes(lambda: bs.phase_jump(config, 0.995, 1.005, dk=1e-8))
    assert jump == pytest.approx(-6.041336, abs=1e-6)
    assert peak < 0.4 * 8 * 10**6


def test_phase_jump_refuses_a_window_inside_the_noise_floor(config):
    # every point of q +- 1e-9 is rounding at a = 5000: the refusal names
    # the window and the floor, not a grid the caller never passed
    q = config.params.q
    k_lo, k_hi = q - 1e-9, q + 1e-9
    with pytest.raises(bs.ValidationError, match=re.escape(f"[{k_lo!r}, {k_hi!r}]")) as refusal:
        bs.phase_jump(config, k_lo, k_hi)
    assert "rounding floor" in str(refusal.value) and "k_grid" not in str(refusal.value)


def test_windows_that_reach_k_zero_are_refused():
    # the phase is odd in k and steps at k = 0: such a window gave a jump
    # of -2.37 and sigma "minima" at k = +-0.0247 with no refusal
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=1.5, q=0.45526), a=100.0)
    with pytest.raises(bs.ValidationError, match=re.escape("[-0.0001, 0.0001] reaches k <= 0")):
        bs.phase_jump(config, -1e-4, 1e-4, 1e-8)
    with pytest.raises(bs.ValidationError, match=re.escape("[-0.05, 0.05] reaches k <= 0")):
        bs.sigma_landmarks(config, -0.05, 0.05)
    with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
        bs.sigma_landmarks(config, 0.0, 0.05)


def _two_pass_phase_jump(config, k_lo, k_hi):
    """``phase_jump`` as two passes: the floor mask from num and den on the
    whole window, then ``phase_shift_unwrapped`` on the points it keeps."""
    dk = math.pi / (64.0 * config.a)
    grid = np.arange(k_lo, k_hi + dk, dk)
    num, den = scattering._blockwise(lambda k: scattering._num_den(config, k), grid)
    floor = scattering._noise_floor(config)
    un = bs.phase_shift_unwrapped(config, grid[num * num + den * den > floor * floor])
    return float(un[-1] - un[0])


def _jump_or_refusal(jump, config, k_lo, k_hi):
    try:
        return jump(config, k_lo, k_hi)
    except bs.UnwrapAmbiguity as exc:
        return bs.UnwrapAmbiguity, str(exc)


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0),
       cells=st.floats(min_value=1.0, max_value=1000.0),
       shift=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
# grid point 1279 lands exactly on k = q, where d and g are rounding
@example(alpha=1.0, q=1.0, log_a=6.0, cells=20.0, shift=0.9999985604062519)
def test_phase_jump_matches_the_two_pass_route_over_the_envelope(alpha, q, log_a, cells,
                                                                  shift):
    """One kernel pass gives the jump of the two-pass route bit for bit, or
    both refuse with the same message, on windows q +- cells pi/a shifted
    by a fraction of dk: up to 1000 cells, where the window spans eight
    blocks. A window that reaches k <= 0 (at small q a) is refused."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    offset = shift * (math.pi / (64.0 * a))
    window = (q - cells * math.pi / a + offset, q + cells * math.pi / a + offset)
    if window[0] <= 0:
        with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
            bs.phase_jump(config, *window)
        return
    assert (_jump_or_refusal(bs.phase_jump, config, *window)
            == _jump_or_refusal(_two_pass_phase_jump, config, *window))


def _recorded(owner, name, record):
    """A patch of owner.name that calls record(*args) and then the original."""
    original = getattr(owner, name)

    def recording(*args):
        record(*args)
        return original(*args)

    return mock.patch.object(owner, name, recording)


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=envelope, q=envelope, log_a=st.floats(min_value=2.0, max_value=6.0))
@example(alpha=2.403293061183309, q=1.0302044633075347, log_a=math.log10(329.77842326039297))
@example(alpha=1.5, q=0.45525854299933427, log_a=2.00001)
def test_one_noise_mask_keeps_what_the_three_former_rules_kept(alpha, q, log_a):
    """On one window, about q +- 15 pi/a in steps of pi/(640 a) (two
    blocks), the points ``phase_jump`` unwraps, the brackets
    ``sigma_landmarks`` accepts and the default-grid points
    ``hadamard_residual`` evaluates are exactly those that the rule each
    of them used to apply on its own keeps. The references are those
    rules, on one kernel pass over the whole window, which is now the
    default grid too, its end included. Where the window reaches k <= 0
    (at small q a), all three refuse it."""
    a = 10.0**log_a
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=a)
    m1, m2 = q - 10.0 * math.pi / a, q + 10.0 * math.pi / a
    span = m2 - m1
    lo, hi, dk = m1 - 0.25 * span, m2 + 0.25 * span, math.pi / (640.0 * a)
    doublet = bs.Doublet(k1=q - 1.0 / a, half_width1=0.1 / a, k2=q + 1.0 / a, half_width2=0.1 / a)
    fit = bs.BackgroundFit(lambda0=0.0, lambda1=0.0, doublet=doublet, a=a,
                           fit_report={"minima": [m1, m2]})
    if lo <= 0:
        for landmark in (bs.phase_jump, bs.sigma_landmarks):
            with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
                landmark(config, lo, hi, dk)
        with pytest.raises(bs.ValidationError, match="reaches k <= 0"):
            bs.hadamard_residual(config, fit)
        return
    k = scattering._window_points(lo, dk, 0, scattering._window_size(lo, hi, dk))
    num, den = scattering._num_den(config, k)
    floor = scattering._noise_floor(config)

    # phase_jump's rule: num^2 + den^2 above floor^2
    want_unwrapped = k[num * num + den * den > floor * floor]
    # the sigma minima's rule: a sign change is dropped if it holds q or
    # hypot(num, den) is at or below the floor at either end
    want_brackets = [
        [(float(k[i]), float(k[i + 1]))
         for i in np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
         if not (k[i] <= q <= k[i + 1] or math.hypot(num[i], den[i]) <= floor
                 or math.hypot(num[i + 1], den[i + 1]) <= floor)]
        for f in (num, den)]
    # the deviation grid's rule: den above floor^2 once _sin2 had made it
    # den^2 + num^2, on the window
    want_evaluated = k[den * den + num * num > floor * floor]

    unwrapped, brackets, evaluated = [], {}, []
    original_unwrap = scattering._unwrap

    def unwrap(blocks, *args):
        # the blocks come as a generator, which can be read only once
        blocks = list(blocks)
        unwrapped.extend(points for points, _, _ in blocks)
        return original_unwrap(iter(blocks), *args)

    with _recorded(background, "_model_num_den",
                   lambda _d, _a, _l0, _l1, kk: evaluated.append(np.array(kk))):
        bs.hadamard_residual(config, fit)
    with mock.patch.object(scattering, "_unwrap", unwrap):
        bs.phase_jump(config, lo, hi, dk)
    with _recorded(scattering, "_refined",
                   lambda _, found, part, *keep: brackets.setdefault(part, list(found))):
        try:
            bs.sigma_landmarks(config, lo, hi, dk)
        except (bs.MinimaNotFound, bs.NoConvergence):
            pass  # the brackets of the numerator were recorded first
    # a block after the first is led by the point the previous one ended on
    assert np.array_equal(np.unique(np.concatenate(unwrapped)), want_unwrapped)
    assert brackets[0] == want_brackets[0]
    assert brackets.get(1, want_brackets[1]) == want_brackets[1]
    assert np.array_equal(np.unique(np.concatenate(evaluated)), want_evaluated)
