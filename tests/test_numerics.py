import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicscatter as bs
from bicscatter import numerics


def test_rectangle_basics():
    rect = bs.ComplexRectangle(-1.0, 2.0, -0.5, 0.5)
    bl, br, tr, tl = rect.corners
    assert bl == complex(-1.0, -0.5) and tr == complex(2.0, 0.5)
    assert rect.contains(0.0)
    assert not rect.contains(3.0)
    with pytest.raises(bs.ValidationError):
        bs.ComplexRectangle(1.0, 1.0, 0.0, 1.0)
    for edges in [(0.9, math.inf, -0.01, -0.001), (0.99, 1.01, -math.inf, -1e-5)]:
        with pytest.raises(bs.ValidationError, match="finite"):
            bs.ComplexRectangle(*edges)


# ------------------------------------------------------------------ newton


def test_newton_simple_root():
    z, fz, its = bs.newton_complex(lambda z: z * z - 1.0, lambda z: 2.0 * z, 1.1)
    assert abs(z - 1.0) < 1e-14
    assert its < 10


def test_newton_takes_a_converged_step_without_halving_it():
    # the seed is the root: the step 0 is within tolerance, so f is called
    # once at the seed and once at the returned z, not again for 60 halvings
    calls = []

    def f(z):
        calls.append(z)
        return z - 1.0

    z, fz, _ = bs.newton_complex(f, lambda z: 1.0, 1.0)
    assert len(calls) <= 2
    assert (z, fz) == (1.0, 0.0)


def test_newton_constructed_complex_root():
    root = 1 - 0.0002j

    def f(z):
        return (z - root) * (z - 2.0)

    def fprime(z):
        return 2.0 * z - root - 2.0

    z, fz, _ = bs.newton_complex(f, fprime, 1.01 - 0.001j)
    assert abs(z - root) < 1e-12


def test_newton_on_scattering_root_function(config):
    """Seeding just below the real axis converges onto the lower doublet
    member."""
    g = bs.root_function(config)
    z, fz, _ = bs.newton_complex(g, bs.root_derivative(config), 0.999 - 0.0002j)
    assert z.real == pytest.approx(0.9989844032, abs=1e-6)
    assert z.imag == pytest.approx(-0.0001730065, abs=1e-6)


def test_newton_zero_derivative():
    with pytest.raises(bs.ZeroDerivative):
        bs.newton_complex(lambda z: z * z + 1.0, lambda z: 2.0 * z, 0.0)


def test_newton_no_convergence():
    # exp has no zeros; |f| keeps decreasing so the iteration never stalls,
    # it just runs out of budget with a unit step. A constant f stalls: no
    # step of any size lowers |f|, and the unit step is above tolerance.
    for f, message in [(cmath.exp, "no convergence after"), (lambda z: 1.0, "stalled at 0j")]:
        with pytest.raises(bs.NoConvergence, match=message):
            bs.newton_complex(f, f, 0.0)


# -------------------------------------------------------- bracketed newton


def test_bracketed_newton_simple_root():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0, 2.0 * x

    root = numerics._bracketed_newton(f, 1.0, 2.0, -1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 4e-16 * math.sqrt(2.0)
    assert len(calls) <= 6


def test_bracketed_newton_starts_at_the_midpoint_between_signed_zeros():
    # f_lo = 0.0 and f_hi = -0.0 have opposite sign bits but compare equal,
    # so there is no secant point: Newton starts from the midpoint
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5, 1.0

    assert numerics._bracketed_newton(f, 0.0, 1.0, 0.0, -0.0) == 0.5
    assert calls == [0.5]


@pytest.mark.parametrize("derivative", [0.0, math.inf, math.nan])
def test_bracketed_newton_bisects_without_a_usable_derivative(derivative):
    # a zero derivative must not divide, an infinite one must not pass the
    # step test with a zero step: both bisect down to the stopping width
    # (the end values put the secant start at 0.5, off the root)
    root = numerics._bracketed_newton(lambda x: (x - 0.3, derivative), 0.0, 1.0, -1.0, 1.0)
    assert abs(root - 0.3) <= 2e-14


def test_bracketed_newton_stops_on_a_step_below_half_an_ulp():
    # the secant start 0.25 is the closest float to the root, so the Newton
    # step from it rounds back onto 0.25, which is now a bracket end: the
    # step test must stop there before the in-bracket test sends the
    # iteration into bisecting the wide side
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25 + 1e-20, 1.0

    assert numerics._bracketed_newton(f, 0.0, 1.0, -0.25, 0.75) == 0.25
    assert calls == [0.25]


def test_bracketed_newton_budget_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_BRACKET_MAX_ITER", 1)
    with pytest.raises(bs.NoConvergence):
        numerics._bracketed_newton(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, -1.0, 2.0)


# ----------------------------------------------------------------- winding


def test_winding_single_zero():
    rect = bs.ComplexRectangle(0.0, 2.0, -0.5, 1.5)
    assert bs.winding_count(lambda z: z - (1 + 0.5j), rect) == 1


def test_winding_no_zero():
    rect = bs.ComplexRectangle(0.0, 2.0, -0.5, 1.5)
    assert bs.winding_count(lambda z: z - (5 + 5j), rect) == 0
    assert bs.winding_count(lambda z: np.ones_like(z), rect) == 0


def test_winding_counts_multiplicity():
    """Order-4 zero plus a simple zero a linewidth away: the count must
    resolve both, including when the quadruple sits just outside an edge."""
    z0 = 1.002 - 0.0003j

    def f(z):
        return (z - 1.0) ** 4 * (z - z0)

    both = bs.ComplexRectangle(0.99, 1.01, -0.001, 0.001)
    assert bs.winding_count(f, both) == 5
    only_simple = bs.ComplexRectangle(1.0005, 1.01, -0.0009, -1e-5)
    assert bs.winding_count(f, only_simple) == 1


def test_winding_boundary_zero_detected():
    rect = bs.ComplexRectangle(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(bs.BoundaryZero):
        bs.winding_count(lambda z: z - complex(0.0, -1.0), rect)


def test_winding_branch_cut_hits_depth_limit():
    # principal sqrt jumps by pi across its cut; no subdivision resolves it
    # (np.sqrt has the same principal branch as cmath.sqrt)
    rect = bs.ComplexRectangle(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(bs.MaxDepthExceeded):
        bs.winding_count(lambda z: np.sqrt(z - (0.2 + 0.1j)), rect)


def test_winding_stops_at_the_first_non_finite_sample():
    # a segment with a non-finite end is never accepted: the count refuses
    # on the samples that show it rather than subdivide to the depth limit
    calls = []

    def f(z):
        calls.append(z)
        return np.where(z.imag < -0.5, np.inf, z)

    rect = bs.ComplexRectangle(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(bs.AmbiguousWinding, match="not finite"):
        bs.winding_count(f, rect)
    assert len(calls) == 1


def test_winding_inconsistent_values_flagged():
    """A function whose phase drifts between evaluations (deterministic
    stand-in for noisy numerics) accumulates a non-integer winding; that
    must raise, not round."""
    state = {"n": 0}

    def noisy(z):
        # one counter tick per element, as if evaluated point by point
        n = state["n"] + np.arange(1, z.size + 1)
        state["n"] += z.size
        return np.exp(0.0123j * n)

    rect = bs.ComplexRectangle(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(bs.AmbiguousWinding):
        bs.winding_count(noisy, rect)


def test_winding_evaluates_level_by_level():
    """f sees only 1-d complex arrays: one call for the four edges, then at
    most one call per subdivision level."""
    calls = []

    def f(z):
        calls.append(z)
        return (z - 1.0) ** 4 * (z - (1.002 - 0.0003j))

    rect = bs.ComplexRectangle(1.0005, 1.01, -0.0009, -1e-5)
    assert bs.winding_count(f, rect) == 1
    assert all(z.ndim == 1 and z.dtype == complex for z in calls)
    assert calls[0].size == 4 * 65
    assert 1 < len(calls) <= numerics._MAX_DEPTH + 1



_edge = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)


@pytest.mark.envelope
@settings(max_examples=200, deadline=None)
@given(xs=st.lists(_edge, min_size=2, max_size=2, unique=True),
       ys=st.lists(_edge, min_size=2, max_size=2, unique=True))
@example(xs=[0.9, 1.1], ys=[-1.5e-3, -1e-4])
@example(xs=[-1.0, 2.0], ys=[-0.5, 0.5])
def test_winding_edge_samples_are_those_of_linspace(xs, ys):
    # one arange-times-step product gives np.linspace's bits on every edge
    rect = bs.ComplexRectangle(min(xs), max(xs), min(ys), max(ys))
    c = rect.corners
    want = np.array([np.linspace(a, b, numerics._INITIAL_SEGMENTS + 1)
                     for a, b in zip(c, c[1:] + c[:1])])
    got = numerics._edge_samples(rect)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

# -------------------------------------------------------------- quadrature


def test_quadrature_sine():
    v = bs.adaptive_quadrature(math.sin, 0.0, math.pi, tol=1e-12)
    assert v == pytest.approx(2.0, abs=1e-10)


def test_quadrature_power_tail():
    # integral of r^-4 on [1, inf): finite part plus analytic tail
    R = 50.0
    v = bs.adaptive_quadrature(lambda r: r**-4, 1.0, R, tol=1e-12)
    assert v + 1.0 / (3.0 * R**3) == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_quadrature_oscillation_aliasing_guard():
    """A panel commensurate with the integrand period can fool the
    two-half agreement test completely; pre-splitting below the period is
    the documented guard."""
    f = lambda x: math.sin(x) ** 2
    aliased = bs.adaptive_quadrature(f, 0.0, 100 * math.pi, tol=1e-9)
    assert abs(aliased) < 1e-6  # silently, catastrophically wrong
    good = bs.adaptive_quadrature(f, 0.0, 100 * math.pi, tol=1e-9,
                                  initial_intervals=7)
    assert good == pytest.approx(50 * math.pi, rel=1e-9)


def test_quadrature_nonintegrable_singularity():
    with pytest.raises(bs.MaxDepthExceeded):
        bs.adaptive_quadrature(lambda x: 1.0 / abs(x - 0.3), 0.0, 1.0)


def test_quadrature_validation():
    assert bs.adaptive_quadrature(math.sin, 2.0, 2.0) == 0.0
    with pytest.raises(bs.ValidationError):
        bs.adaptive_quadrature(math.sin, 0.0, math.inf)
    with pytest.raises(bs.ValidationError):
        bs.adaptive_quadrature(math.sin, 0.0, 1.0, initial_intervals=0)


# ------------------------------------------------------------------ unwrap


def test_unwrap_recovers_folded_line():
    x = np.linspace(0.0, 10.0, 501)
    true = 0.7 * x
    folded = true - math.pi * np.round(true / math.pi)
    rec = bs.unwrap_phase(folded)
    assert np.allclose(rec - rec[0], true - true[0], atol=1e-12)


def test_unwrap_constant_unchanged():
    v = np.full(10, 0.3)
    assert np.array_equal(bs.unwrap_phase(v), v)


def test_unwrap_steep_ramp():
    # a fold of the ramp -a*k at a=5000 on a dk=1e-6 grid unwraps back to
    # the ramp slope
    k = np.arange(1.0, 1.001, 1e-6)
    raw = -5000.0 * k
    folded = raw - math.pi * np.round(raw / math.pi)
    rec = bs.unwrap_phase(folded)
    slope = np.polyfit(k, rec, 1)[0]
    assert slope == pytest.approx(-5000.0, abs=1e-3)


def _random_walk_with_jumps(seed, n):
    """Principal values (mod pi) of a random walk with steps below 0.45 pi,
    shifted by jumps of -3 to 3 whole periods at 5% of the samples."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.uniform(-0.45, 0.45, n) * math.pi)
    folded = walk - math.pi * np.round(walk / math.pi)
    jumps = np.where(rng.random(n) < 0.05, rng.integers(-3, 4, n), 0)
    return walk, folded + math.pi * np.cumsum(jumps)


@pytest.mark.parametrize("seed,n", [(0, 2000), (1, 2 * numerics._BLOCK + 1000),
                                    (2, 5000), (3, numerics._BLOCK + 1)])
def test_unwrap_matches_numpy_unwrap(seed, n):
    # np.unwrap adds up float corrections, which carry a rounding per
    # corrected step; the integer counts carry none. So the two agree to
    # (1 + m) ulp of the largest magnitude involved, m the number of
    # periods removed so far; no step here is a tie
    walk, values = _random_walk_with_jumps(seed, n)
    got = bs.unwrap_phase(values)
    want = np.unwrap(values, period=math.pi)
    m = np.concatenate([[0.0], np.cumsum(np.abs(np.rint(np.diff(values) / math.pi)))])
    ulp = np.spacing(np.maximum(np.maximum(np.abs(values), np.abs(want)), math.pi))
    assert np.all(np.abs(got - want) <= (1.0 + m) * ulp)
    assert np.allclose(got - got[0], walk - walk[0], rtol=0.0, atol=1e-11)


def test_unwrap_is_the_whole_array_count():
    # blocks carry the count exactly, so the result equals the count taken
    # over the whole array at once
    _, values = _random_walk_with_jumps(4, 3 * numerics._BLOCK + 7)
    count = np.concatenate([[0.0], np.cumsum(np.rint(np.diff(values) / math.pi))])
    assert np.array_equal(bs.unwrap_phase(values), values - math.pi * count)


def test_unwrap_validation():
    with pytest.raises(bs.ValidationError):
        bs.unwrap_phase(np.array([1.0]))
    with pytest.raises(bs.ValidationError):
        bs.unwrap_phase(np.ones((2, 2)))
