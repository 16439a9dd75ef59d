import cmath
import math

import numpy as np
import pytest
from scipy.integrate import simpson

import bicscatter as bs


def test_doublet_positions(doublet_pair):
    r1, r2 = doublet_pair
    assert r1.k_complex.real == pytest.approx(0.998984403241, abs=1e-9)
    assert r1.k_complex.imag == pytest.approx(-1.730065546e-4, abs=1e-10)
    assert r2.k_complex.real == pytest.approx(1.001015575682, abs=1e-9)
    assert r2.k_complex.imag == pytest.approx(-1.731296976e-4, abs=1e-10)


def test_doublet_straddles_q_symmetrically(doublet_pair):
    r1, r2 = doublet_pair
    mid = 0.5 * (r1.k_re + r2.k_re)
    assert abs(mid - 1.0) < 2e-5


def test_residuals_certified(doublet_pair):
    for res in doublet_pair:
        assert res.residual < 1e-8


def test_resonance_properties(doublet_pair):
    r1, _ = doublet_pair
    assert r1.k_re == r1.k_complex.real
    assert r1.half_width == -r1.k_complex.imag
    assert r1.energy == pytest.approx(r1.k_complex**2)
    # narrow resonance: the energy is dominantly real
    assert r1.energy.real > abs(r1.energy.imag)


def test_roots_annihilate_the_jost_function(config, doublet_pair):
    # |F(-k)| at a root is many orders below a same-scale reference point
    # taken just outside the degenerate-normalizer neighborhood of q
    ref = abs(bs.jost_function(config, 1.005)[0])
    for res in doublet_pair:
        fm = abs(bs.jost_function(config, res.k_complex)[0])
        assert fm < 1e-8 * ref


def test_default_box_winding_certificate(config, doublet_pair):
    box = bs.default_search_box(config)
    assert box.im_max < 0  # stays off the real axis
    for res in doublet_pair:
        assert box.contains(res.k_complex)
    assert bs.winding_count(bs.root_function(config), box) == 2


@pytest.mark.parametrize("a", [300.0, 1e5])  # a = 5000: the test above
def test_default_box_winds_twice(params, a):
    config = bs.TruncatedConfig(params=params, a=a)
    assert bs.winding_count(bs.root_function(config), bs.default_search_box(config)) == 2


@pytest.mark.parametrize("a", [300.0, 5000.0, 1e5])
def test_root_function_broadcasts(params, a):
    # one call on the seeding grid equals point-by-point calls; the gap is
    # scaled by max|G| because pointwise G cancels to ~1e-7 of its terms
    config = bs.TruncatedConfig(params=params, a=a)
    g = bs.root_function(config)
    grid = bs.default_search_box(config).grid(41, 21)
    batched = g(grid)
    pointwise = np.array([[complex(g(complex(z))) for z in row] for row in grid])
    assert batched.shape == grid.shape
    assert np.max(np.abs(batched - pointwise)) <= 1e-10 * np.max(np.abs(pointwise))


def test_resonances_hold_builtin_numbers(doublet_pair):
    for res in doublet_pair:
        assert type(res.k_complex) is complex
        assert type(res.residual) is float


def test_explicit_seeds_reproduce_the_doublet(config, doublet_pair):
    found = bs.find_resonances(config, seeds=[0.999 - 2e-4j, 1.001 - 2e-4j])
    assert len(found) == 2
    for got, want in zip(found, doublet_pair):
        assert abs(got.k_complex - want.k_complex) < 1e-12


def test_empty_seed_list_fails_certification(config):
    # the winding certificate sees two zeros, zero converged roots
    with pytest.raises(bs.RootCountMismatch):
        bs.find_resonances(config, seeds=[])


def test_search_box_must_be_below_axis(config):
    with pytest.raises(bs.ValidationError):
        bs.find_resonances(config, search_box=bs.ComplexRectangle(0.99, 1.01, -1e-3, 1e-3))


def test_wide_box_census(config, doublet_pair):
    """The zeros of the truncated-potential Jost function form a string
    below the real axis with spacing ~pi/a; a wide window holds 30 of
    them, and the innermost two are the doublet."""
    box = bs.ComplexRectangle(0.99, 1.01, -1e-3, -1e-5)
    found = bs.find_resonances(config, search_box=box)
    assert len(found) == 30
    inner = bs.doublet_of(found, config.params.q)
    for got, want in zip(inner, doublet_pair):
        assert abs(got.k_complex - want.k_complex) < 1e-10
    for res in found:
        assert res.residual < 1e-8


def test_doublet_of_needs_two(doublet_pair):
    with pytest.raises(bs.ValidationError):
        bs.doublet_of([doublet_pair[0]], 1.0)


def test_gamow_state_rejects_uncertified_input(config):
    coarse = bs.Resonance(k_complex=0.999 - 2e-4j, residual=1.0)
    with pytest.raises(bs.ValidationError):
        bs.gamow_state(config, coarse)


@pytest.fixture(scope="module")
def gamow(config, doublet_pair):
    return bs.gamow_state(config, doublet_pair[0])


def test_gamow_metadata(gamow):
    assert gamow.branch == "principal"
    assert gamow.N == cmath.sqrt(gamow.N_squared)
    assert gamow.N.real >= 0


def test_gamow_vanishes_at_origin(gamow):
    assert abs(complex(gamow(0.0))) < 1e-12


def test_gamow_outgoing_at_the_cut(config, doublet_pair):
    kn = doublet_pair[0].k_complex
    phi, phi_r = bs.regular_solution(config, kn, config.a)
    assert abs(phi_r / phi - 1j * kn) < 1e-8


def test_gamow_profile_localizes_in_first_well(gamow):
    r = np.linspace(0.0, 8.0, 4001)
    prof = np.abs(gamow(r)) ** 2
    assert r[int(np.argmax(prof))] < 2.2


def test_gamow_profile_matches_trapped_state(gamow, psi_b):
    """The narrow-resonance profile is nearly the trapped state: unit-peak
    densities agree to a few percent (measured ~0.3%)."""
    r = np.linspace(0.0, 8.0, 4001)
    pn = np.abs(gamow(r)) ** 2
    pn /= pn.max()
    pb = psi_b(r) ** 2
    pb /= pb.max()
    assert np.max(np.abs(pn - pb)) < 0.05
    assert abs(r[int(np.argmax(pn))] - r[int(np.argmax(pb))]) < 0.05


def test_gamow_normalization_against_overlap_integral(config, doublet_pair, gamow):
    """Independent route to N^2: the regularized self-overlap of the
    interior solution, with the analytic boundary counterterm, equals
    -N^2. Integration error dominates the tolerance."""
    kn = doublet_pair[0].k_complex
    r = np.linspace(0.0, config.a, 2_000_001)
    phi = bs.regular_solution(config, kn, r)[0]
    overlap = simpson(phi**2, x=r) + 1j * phi[-1] ** 2 / (2 * kn)
    assert abs(overlap / gamow.N_squared + 1.0) < 1e-3


def test_sweep_rows(params):
    sw = bs.sweep_cutoff(params, [2500.0, 5000.0, 10000.0])
    assert [row.a for row in sw.rows] == [2500.0, 5000.0, 10000.0]
    got = [(row.first.k_re, row.first.half_width, row.second.k_re, row.second.half_width)
           for row in sw.rows]
    want = [
        (0.9979690511, 3.455627e-4, 1.0020307716, 3.466024e-4),
        (0.9989844032, 1.730066e-4, 1.0010155757, 1.731297e-4),
        (0.9994922097, 8.652052e-5, 1.0005077860, 8.654594e-5),
    ]
    for g, w in zip(got, want):
        assert g[0] == pytest.approx(w[0], abs=1e-8)
        assert g[1] == pytest.approx(w[1], abs=1e-9)
        assert g[2] == pytest.approx(w[2], abs=1e-8)
        assert g[3] == pytest.approx(w[3], abs=1e-9)
    assert sw.gamma_monotone


def test_sweep_widths_shrink_and_positions_close_in(params):
    sw = bs.sweep_cutoff(params, [5000.0, 10000.0])
    r5, r10 = sw.rows
    assert r10.first.half_width < r5.first.half_width
    assert r10.second.half_width < r5.second.half_width
    assert abs(r10.first.k_re - 1.0) < abs(r5.first.k_re - 1.0)


def test_sweep_requires_increasing_cutoffs(params):
    with pytest.raises(bs.ValidationError):
        bs.sweep_cutoff(params, [5000.0, 2500.0])


def test_sweep_tracking_lost_on_absurd_jump(params):
    # quadrupling the cutoff in one step moves the doublet by more than
    # its own spacing; continuation correctly refuses to identify them
    with pytest.raises(bs.TrackingLost):
        bs.sweep_cutoff(params, [2500.0, 20000.0])
