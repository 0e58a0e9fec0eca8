"""Eigensolver oracles: hydrogenic closed forms, the Airy-series root for the
pure linear potential, a Frobenius series for the default confinement state,
scaling laws, node counts, and the virial identity.

The Airy oracle below evaluates Ai(x) from its Maclaurin series and root-finds
the first zero by bisection; the Frobenius oracle sums the Cornell series in
140-digit decimal arithmetic.  Neither touches the mesh solver it checks.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from comptonqcd import spectrum
from comptonqcd.cli import main
from comptonqcd.errors import DimensionError, DomainError, GridTooSmall, NoBoundState
from comptonqcd.estimator import quark_mass_estimate
from comptonqcd.natunits import E2_PRECISE, Quantity
from comptonqcd.potential import CornellPotential, cornell_from_quark_mass
from comptonqcd.quadrature import composite_simpson
from comptonqcd.spectrum import (
    BoundState,
    RadialProblem,
    bound_state_sidecar,
    confinement_ratio,
    confinement_report,
    cover_extent,
    MAX_ANGULAR_MOMENTUM,
    MAX_GRID_POINTS,
    solve_bound_state,
    virial_check,
    wave_table,
)

# --- independent Airy oracle --------------------------------------------------


def airy_ai(x: float) -> float:
    """Ai(x) from the Maclaurin series, accurate for |x| up to a few units."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f_sum = term = 1.0
    k = 0
    while abs(term) > 1e-18 and k < 200:
        term *= x**3 / ((3 * k + 2) * (3 * k + 3))
        f_sum += term
        k += 1
    g_sum = term = x
    k = 0
    while abs(term) > 1e-18 and k < 200:
        term *= x**3 / ((3 * k + 3) * (3 * k + 4))
        g_sum += term
        k += 1
    return c1 * f_sum - c2 * g_sum


def first_airy_zero() -> float:
    lo, hi = -3.0, -2.0
    f_lo = airy_ai(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f_mid = airy_ai(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


AIRY_GROUND = -first_airy_zero()


def test_airy_oracle_self_check():
    assert abs(AIRY_GROUND - 2.338107410459767) < 1e-12
    assert abs(airy_ai(-AIRY_GROUND)) < 1e-14


# --- shared problems ----------------------------------------------------------

COULOMB = CornellPotential(Quantity(1.0, 0), Quantity(0.0, 2))
LINEAR = CornellPotential(Quantity(0.0, 0), Quantity(1.0, 2))
CORNELL = CornellPotential(Quantity(1.0, 0), Quantity(1.0, 2))


def hydrogen_problem(n_pts=40001, mu=1.0, alpha=1.0, ell=0):
    pot = CornellPotential(Quantity(alpha, 0), Quantity(0.0, 2))
    return RadialProblem(pot, Quantity(mu, 1), ell, n_pts)


def linear_problem(sigma=1.0, mu=0.5, n_pts=8001):
    pot = CornellPotential(Quantity(0.0, 0), Quantity(sigma, 2))
    return RadialProblem(pot, Quantity(mu, 1), 0, n_pts)


@pytest.fixture(scope="module")
def hydrogen_ground():
    return solve_bound_state(hydrogen_problem(), 1)


@pytest.fixture(scope="module")
def linear_ground():
    return solve_bound_state(linear_problem(), 1)


# --- solve_bound_state oracles -------------------------------------------------


def test_hydrogen_levels_match_closed_form():
    prob = hydrogen_problem()
    for n in (1, 2, 3):
        state = solve_bound_state(prob, n)
        exact = -0.5 / n**2
        assert abs(state.energy.value - exact) <= 1e-6 * abs(exact)
        assert state.nodes == n - 1


def test_linear_ground_state_matches_airy_oracle(linear_ground):
    state = linear_ground
    expected = AIRY_GROUND * (1.0 ** 2 / (2.0 * 0.5)) ** (1.0 / 3.0)
    assert abs(state.energy.value - expected) <= 1e-6 * expected
    assert state.nodes == 0


def test_hydrogen_with_angular_momentum():
    # lowest ell=1 state of the Coulomb problem: E = -1/8, zero radial nodes
    prob = hydrogen_problem(n_pts=24001, ell=1)
    state = solve_bound_state(prob, 1)
    assert abs(state.energy.value + 0.125) <= 1e-5 * 0.125
    assert state.nodes == 0


def test_wavefunction_normalized_and_pinned(hydrogen_ground):
    # u follows 2r e^(-r) from one step out to the mesh's last point at 17,
    # where u is below 2e-6; the rows leave out only [0, h], where u^2 < 4h^2
    r, u = wave_table(hydrogen_ground)
    h = r[1] - r[0]
    assert abs(composite_simpson(u**2, h) - 1.0) <= 1e-8
    error = np.abs(u - 2.0 * r * np.exp(-r))
    assert np.max(error[r <= 5.0]) <= 1e-8
    assert np.max(error) <= 3e-7


def test_no_bound_state_when_potential_vanishes():
    pot = CornellPotential(Quantity(0.0, 0), Quantity(0.0, 2))
    prob = RadialProblem(pot, Quantity(1.0, 1), 0, 2001)
    with pytest.raises(NoBoundState):
        solve_bound_state(prob, 1)


def test_grid_too_small_for_high_coulomb_level(monkeypatch):
    # a cover of 2 decay lengths beyond the turning point leaves 5e-4 to 8e-4
    # of each level's probability past the table's end
    monkeypatch.setattr(spectrum, "_DECAY_LENGTHS", 2.0)
    prob = hydrogen_problem(n_pts=8001)
    for n in (1, 3, 5):
        extent = cover_extent(1.0, 0.0, 1.0, n, 0)
        with pytest.raises(GridTooSmall, match=rf"^level {n}: \[0, {extent:g}\] holds 0\.999"):
            solve_bound_state(prob, n)


def test_level_must_be_positive():
    prob = hydrogen_problem(n_pts=4001)
    with pytest.raises(DomainError):
        solve_bound_state(prob, 0)


def test_node_theorem_and_ordering_for_cornell():
    prob = RadialProblem(CORNELL, Quantity(1.0, 1), 0, 4001)
    energies = []
    for n in range(1, 6):
        state = solve_bound_state(prob, n)
        assert state.nodes == n - 1
        energies.append(state.energy.value)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_linear_scaling_law():
    e_1 = solve_bound_state(linear_problem(sigma=1.0), 1).energy.value
    e_8 = solve_bound_state(linear_problem(sigma=8.0), 1).energy.value
    assert abs(e_8 / e_1 - 4.0) <= 1e-5 * 4.0  # (8 sigma)^{2/3} / sigma^{2/3} = 4


def test_coulomb_scaling_law():
    for mu, alpha in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        prob = hydrogen_problem(n_pts=24001, mu=mu, alpha=alpha)
        state = solve_bound_state(prob, 1)
        exact = -0.5 * mu * alpha**2
        assert abs(state.energy.value - exact) <= 1e-5 * abs(exact)


def _mesh_self_convergence(prob, n, monkeypatch):
    coarse = solve_bound_state(prob, n).energy.value
    base = spectrum._mesh_size
    monkeypatch.setattr(spectrum, "_mesh_size", lambda level: base(level) + 20)
    fine = solve_bound_state(prob, n).energy.value
    return abs(fine - coarse) / abs(coarse)


def test_mesh_size_self_convergence_linear(monkeypatch):
    assert _mesh_self_convergence(linear_problem(), 1, monkeypatch) <= 1e-10


def test_mesh_size_self_convergence_coulomb(monkeypatch):
    assert _mesh_self_convergence(hydrogen_problem(), 1, monkeypatch) <= 1e-10


# --- cover rule and postconditions ---------------------------------------------


def test_cover_extent_closed_forms():
    # hydrogen n = 1: turning point 2, decay length 1
    assert cover_extent(1.0, 0.0, 1.0, 1, 0) == 17.0
    # k = n + ell scales both lengths, 1 / (mu alpha) sets the unit, and the
    # cover adds 15 + (k - 1) / 2 decay lengths
    assert cover_extent(2.0, 0.0, 0.5, 2, 1) == pytest.approx(2 * 9 + 16 * 3)
    assert cover_extent(1.0, 0.0, 1.0, 40, 10) == pytest.approx(2 * 50**2 + 39.5 * 50)
    # linear: WKB turning point E / sigma plus 15 (2 mu sigma)^(-1/3)
    wkb = (1.5 * math.pi * 0.75) ** (2.0 / 3.0)
    assert cover_extent(0.0, 1.0, 0.5, 1, 0) == pytest.approx(wkb + 15.0)
    assert cover_extent(1.0, 1.0, 0.5, 1, 0) == cover_extent(0.0, 1.0, 0.5, 1, 0)


def test_cover_extent_takes_the_smaller_cover():
    # a tiny linear term once switched to the linear rule: extent 1375 for a
    # state of size ~5, and GridTooSmall in place of the level
    assert cover_extent(1.0, 1e-6, 1.0, 3, 0) == cover_extent(1.0, 0.0, 1.0, 3, 0)
    pot = CornellPotential(Quantity(1.0, 0), Quantity(1e-6, 2))
    for n in (1, 3):
        state = solve_bound_state(RadialProblem(pot, Quantity(1.0, 1), 0, 4001), n)
        assert state.nodes == n - 1
        # first order in sigma: E = -1/(2 n^2) + sigma <r>, <r> = 3 n^2 / 2
        assert abs(state.energy.value - (-0.5 / n**2 + 1.5e-6 * n**2)) <= 1e-8


@pytest.mark.parametrize("sigma", [1e-160, 1e-200])
def test_cover_extent_never_squares_sigma(sigma):
    # sigma * sigma underflows here; it once cut the cover to 2.9617197525885e54
    # at 1e-160 and to 5.53e67 at 1e-200.  Against 40-digit decimals, float64
    # rounds the exponent -1/3 by 2e-17, which moves x^(-1/3) by |ln x| times
    # that: up to 1e-14 here
    wkb = (1.5 * math.pi * 0.75) ** (2.0 / 3.0)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = (Decimal(wkb) + 15) * (2 * Decimal(sigma)) ** (Decimal(-1) / 3)
    cover = cover_extent(0.0, sigma, 1.0, 1, 0)
    assert abs(cover / ((wkb + 15.0) * (2.0 * sigma) ** (-1.0 / 3.0)) - 1.0) <= 1e-15
    assert abs(cover / float(exact) - 1.0) <= 2e-14


def test_cover_extent_rejects_bad_input():
    with pytest.raises(NoBoundState):
        cover_extent(0.0, 0.0, 1.0, 1, 0)
    for args in ((1.0, 0.0, 0.0, 1, 0), (1.0, 1.0, -1.0, 1, 0), (1.0, 0.0, 1.0, 0, 0),
                 (1.0, 0.0, 1.0, 51, 0), (1.0, 0.0, 1.0, 1, -1)):
        with pytest.raises(DomainError):
            cover_extent(*args)
    # a nan or negative coupling was once ignored: alpha = nan and alpha = -1
    # returned the linear-only cover 13.74709216593793 and sigma = -2 the
    # Coulomb-free 17.0
    for args, named in (((-1.0, 1.0, 1.0, 1, 0), "alpha = -1, sigma = 1, mu = 1"),
                        ((1.0, -2.0, 1.0, 1, 0), "alpha = 1, sigma = -2, mu = 1")):
        message = rf"^alpha and sigma must be non-negative \({named}\)$"
        with pytest.raises(DomainError, match=message):
            cover_extent(*args)
    # each coupling is a finite real number: a string once raised a bare TypeError
    for args, message in (((math.nan, 1.0, 1.0, 1, 0), "alpha must be finite, got nan"),
                          ((math.nan, math.nan, 1.0, 1, 0), "alpha must be finite, got nan"),
                          ((1.0, math.nan, 1.0, 1, 0), "sigma must be finite, got nan"),
                          ((1.0, 1.0, math.nan, 1, 0), "reduced mass must be finite, got nan"),
                          (("1", 1.0, 1.0, 1, 0), "alpha must be a real number, got '1'")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cover_extent(*args)
    # a decay scale that underflows, and a cover that overflows, leave float64
    for args, message in (
            ((1e-300, 0.0, 1e-300, 1, 0),
             "mu*alpha at alpha = 1e-300, sigma = 0, mu = 1e-300 underflows"),
            ((1e-5, 0.0, 1e-305, 1, 0),
             "mu*alpha at alpha = 1e-05, sigma = 0, mu = 1e-305 underflows"),
            ((1.0, 1e-20, 1e-320, 1, 0),
             "2*mu*sigma at alpha = 1, sigma = 1e-20, mu = 9.99989e-321 underflows"),
            ((1e10, 0.0, 1e300, 1, 0),
             "mu*alpha at alpha = 1e+10, sigma = 0, mu = 1e+300 overflows"),
            ((1e-300, 0.0, 5e-8, 1, 0),
             "the mesh cover at alpha = 1e-300, sigma = 0, mu = 5e-08 overflows")):
        with pytest.raises(DomainError) as exc:
            cover_extent(*args)
        assert str(exc.value) == f"{message} float64"


def test_too_small_mesh_is_caught_by_the_node_count(monkeypatch):
    # 20 mesh points cannot resolve level 5: its eigenvector shows 7 sign changes
    args = (1.28, 1.51, 1.63, 5, 2)
    extent = cover_extent(*args)
    prob = RadialProblem(
        CornellPotential(Quantity(1.28, 0), Quantity(1.51, 2)), Quantity(1.63, 1), 2, 4001
    )
    state = solve_bound_state(prob, 5)
    assert state.nodes == 4 and wave_table(state)[0][-1] == extent
    monkeypatch.setattr(spectrum, "_mesh_size", lambda level: 20)
    with pytest.raises(GridTooSmall, match=r"level 5: the mesh shows 7 node\(s\), not 4"):
        solve_bound_state(prob, 5)


# --- properties over random Cornell problems -------------------------------------

# zeros of Ai(-x), a_1 .. a_13
AIRY_ZEROS = (
    2.338107410459767, 4.087949444130971, 5.520559828095551, 6.786708090071759,
    7.944133587120853, 9.022650853340981, 10.04017434155809, 11.008524303733262,
    11.936015563236262, 12.828776752865757, 13.691489035210719, 14.527829951775335,
    15.340755135977998,
)


def energy_bounds(alpha, sigma, mu, n, ell):
    """Dropping sigma r bounds E below; a Coulomb term and ell only lower
    the linear level n + ell, so its Airy energy bounds E above."""
    coulomb = -mu * alpha * alpha / (2.0 * (n + ell) ** 2)
    linear = (sigma * sigma / (2.0 * mu)) ** (1.0 / 3.0)
    if sigma == 0.0:
        return coulomb, coulomb
    if alpha == 0.0:
        return linear * AIRY_ZEROS[n - 1], linear * AIRY_ZEROS[n + ell - 1]
    return coulomb, linear * AIRY_ZEROS[n + ell - 1]


COUPLING = st.one_of(st.just(0.0), st.floats(0.1, 2.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=COUPLING, sigma=COUPLING, mu=st.floats(0.2, 2.0), ell=st.integers(0, 8))
def test_random_cornell_levels(alpha, sigma, mu, ell):
    assume(alpha > 0.0 or sigma > 0.0)
    pot = CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
    energies = []
    for n in range(1, 6):
        prob = RadialProblem(pot, Quantity(mu, 1), ell, 4001)
        state = solve_bound_state(prob, n)
        assert state.nodes == n - 1
        energy = state.energy.value
        lower, upper = energy_bounds(alpha, sigma, mu, n, ell)
        assert lower - 1e-9 * abs(lower) <= energy <= upper + 1e-9 * abs(upper)
        assert virial_check(state) <= 1e-4
        energies.append(energy)
    assert all(b > a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("ell", [0, 3, 8, 20])
def test_hydrogen_levels_on_default_tables(ell):
    # near the origin u ~ r^(ell+1), and the table's values there are rounding
    # noise that changes sign; the mesh eigenvector carries the node count
    for n in (1, 5, 10, 20, 30, 40, 50):
        k = n + ell
        state = solve_bound_state(RadialProblem(COULOMB, Quantity(1.0, 1), ell), n)
        assert state.nodes == n - 1
        assert abs(state.energy.value + 0.5 / k**2) <= 1e-10 / (2 * k**2)
        rms = math.sqrt(k * k * (5 * k * k + 1 - 3 * ell * (ell + 1)) / 2.0)
        assert abs(state.rms_radius.value - rms) <= 1e-9 * rms


# --- derived observables --------------------------------------------------------


def test_hydrogen_rms_radius(hydrogen_ground):
    assert abs(hydrogen_ground.rms_radius.value - math.sqrt(3.0)) <= 1e-5 * math.sqrt(3.0)


def test_rms_halves_when_mass_doubles():
    prob = hydrogen_problem(n_pts=16001, mu=2.0)
    state = solve_bound_state(prob, 1)
    assert abs(state.rms_radius.value - math.sqrt(3.0) / 2.0) <= 1e-5


def test_rms_scales_with_cube_root_of_tension():
    r_1 = solve_bound_state(linear_problem(sigma=1.0), 1).rms_radius.value
    r_8 = solve_bound_state(linear_problem(sigma=8.0), 1).rms_radius.value
    assert abs(r_1 / r_8 - 2.0) <= 1e-4 * 2.0


def test_virial_residuals(hydrogen_ground, linear_ground):
    assert virial_check(hydrogen_ground) <= 1e-4
    assert virial_check(linear_ground) <= 1e-4


def test_virial_residual_is_finite_where_the_energy_vanishes():
    # this sigma puts the ground-state energy at ~1e-14; dividing by |E|
    # once reported a residual of order 1e4 for a correct state
    pot = CornellPotential(Quantity(1.0, 0), Quantity(0.4077484124895122, 2))
    prob = RadialProblem(pot, Quantity(1.0, 1), 0, 4001)
    state = solve_bound_state(prob, 1)
    assert abs(state.energy.value) <= 1e-12
    assert virial_check(state) <= 1e-4


def test_virial_rejects_unnormalized_state(hydrogen_ground):
    state = hydrogen_ground
    bad = BoundState(
        level=state.level,
        energy=state.energy,
        nodes=state.nodes,
        coefficients=2.0 * state.coefficients,
        rms_radius=state.rms_radius,
        mesh_radii=state.mesh_radii,
        problem=state.problem,
        r_max=state.r_max,
    )
    with pytest.raises(DomainError, match=r"^state is not normalized \(sum of mesh weights = 4\)"):
        virial_check(bad)


# --- problem validation -----------------------------------------------------------


def test_radial_problem_validation():
    for mu, ell, n_pts in ((0.0, 0, 2001), (-1.0, 0, 2001), (1.0, -1, 2001), (1.0, 0, 999),
                           (1.0, 0, MAX_GRID_POINTS + 1), (1.0, 0, 10**10)):
        with pytest.raises(DomainError):
            RadialProblem(COULOMB, Quantity(mu, 1), ell, n_pts)
    with pytest.raises(DimensionError, match="dim 1"):
        RadialProblem(COULOMB, Quantity(1.0, 0))


def test_grid_cap_is_checked_before_any_allocation(monkeypatch):
    # a grid one above the cap fails in the constructor, so no solve runs
    monkeypatch.setattr(np, "linspace", None)
    with pytest.raises(DomainError, match=f"^grid must have 1000 to {MAX_GRID_POINTS} points"):
        RadialProblem(COULOMB, Quantity(1.0, 1), 0, MAX_GRID_POINTS + 1)


def test_angular_momentum_cap_is_where_the_mesh_holds(monkeypatch):
    # hydrogen n = 1..10: right to 1.4e-13 at the cap; above it the centrifugal
    # barrier outgrows the mesh, and at ell = 170 most levels show the wrong
    # node count (8 of 10 on x86-64 with OpenBLAS)
    for ell in (50, 90, MAX_ANGULAR_MOMENTUM):
        for n in range(1, 11):
            k = n + ell
            state = solve_bound_state(RadialProblem(COULOMB, Quantity(1.0, 1), ell, 1000), n)
            assert state.nodes == n - 1
            assert abs(state.energy.value + 0.5 / k**2) <= 1e-12 * 0.5 / k**2
    with pytest.raises(DomainError, match=f"^angular momentum ell must be 0 to "
                                          f"{MAX_ANGULAR_MOMENTUM}, got 101$"):
        RadialProblem(COULOMB, Quantity(1.0, 1), MAX_ANGULAR_MOMENTUM + 1)
    monkeypatch.setattr(spectrum, "MAX_ANGULAR_MOMENTUM", 170)
    failed = 0
    for n in range(1, 11):
        try:
            solve_bound_state(RadialProblem(COULOMB, Quantity(1.0, 1), 170, 1000), n)
        except GridTooSmall:
            failed += 1
    assert failed > 0


def test_table_rows_end_at_the_cover():
    # grid_points rows, one step apart, from r_max / grid_points to the cover
    for args in ((1.0, 1.0, 1.0, 2, 1), (1.0, 0.0, 1.0, 1, 0), (0.0, 1.0, 0.5, 2, 0)):
        alpha, sigma, mu, n, ell = args
        pot = CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
        prob = RadialProblem(pot, Quantity(mu, 1), ell, 2000)
        state = solve_bound_state(prob, n)
        r_max = bound_state_sidecar(state)["r_max"]
        radii, u = wave_table(state)
        assert state.r_max == r_max == radii[-1] == cover_extent(*args)
        assert len(radii) == len(u) == 2000
        assert radii[0] == r_max / 2000
        assert np.allclose(np.diff(radii), r_max / 2000, rtol=1e-9, atol=0.0)


def test_a_csv_request_computes_the_cover_once(monkeypatch):
    # the state carries its cover, so the table and the sidecar reuse it
    calls = []
    cover = spectrum.cover_extent

    def counted(*args):
        calls.append(args)
        return cover(*args)

    monkeypatch.setattr(spectrum, "cover_extent", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--grid-points", "1000", "--format", "csv"]) == 0
    assert calls == [(1.0, 0.0, 1.0, 1, 0)]


def test_a_state_holds_the_problem_it_solves():
    prob = RadialProblem(CORNELL, Quantity(0.7, 1), 2, 1000)
    state = solve_bound_state(prob, 3)
    assert state.problem is prob
    sidecar = bound_state_sidecar(state)
    assert (sidecar["alpha"], sidecar["sigma"], sidecar["mu"], sidecar["ell"],
            sidecar["grid_points"]) == (1.0, 1.0, 0.7, 2, 1000)
    assert len(wave_table(state)[0]) == 1000


# --- exact coverage, and solves that build no table -----------------------------


def _simpson_norm(state):
    """The held probability as the solve once took it: Simpson over the table and the origin."""
    x, basis, _ = spectrum._laguerre_mesh(len(state.coefficients))
    h = state.r_max / x[-1]
    r = np.linspace(0.0, state.r_max, state.problem.grid_points + 1)
    u = spectrum._wavefunction(state.coefficients, x, basis, r / h) / math.sqrt(h)
    return composite_simpson(u * u, float(r[1]))


_CHAIN_MASS = quark_mass_estimate().mass


# the Simpson sum's error falls as rows^-4; these row counts take it below 1e-12
@pytest.mark.parametrize("pot, mu, ell, n, rows", [
    (COULOMB, 1.0, 0, 1, 100_000),
    (COULOMB, 1.0, 3, 10, 20_000),
    (COULOMB, 1.0, 0, 20, 200_000),
    (COULOMB, 1.0, 0, 50, 400_000),
    (CornellPotential(Quantity(1.0, 0), Quantity(0.5, 2)), 1.0, 0, 2, 100_000),
    (CORNELL, 1.0, 0, 50, 100_000),
    (LINEAR, 1.0, 5, 50, 20_000),
    (cornell_from_quark_mass(_CHAIN_MASS), _CHAIN_MASS.value / 2.0, 0, 1, 100_000),
])
def test_exact_coverage_matches_the_simpson_norm(pot, mu, ell, n, rows):
    # up to n = 50 the tail rule's weights and u stay finite: no numpy warning
    prob = RadialProblem(pot, Quantity(mu, 1), ell, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve_bound_state(prob, n)
        x, basis, _ = spectrum._laguerre_mesh(len(state.coefficients))
        held = spectrum._coverage(state.coefficients, x, basis)
    assert abs(held - _simpson_norm(state)) <= 1e-12


def test_json_solve_memory_does_not_grow_with_grid_points(capsys):
    argv = ["spectrum", "--grid-points", str(MAX_GRID_POINTS), "--format", "json"]
    assert main(argv) == 0  # loads numpy's lazily imported parts
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["grid_points"] == MAX_GRID_POINTS
    assert peak < 1 << 20


class _Digest(io.TextIOBase):
    """A sink that keeps only the byte count and the sha256 of what it is written."""

    def __init__(self):
        self.chars = 0
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        self.sha.update(text.encode())
        return len(text)


def test_csv_export_memory_is_one_block():
    # 10^6 rows of text are 23.9 MB, and one float64 array of the table 8 MB.
    # Summing the norm per block moved two rows in the 10th digit: rows 450701
    # (0.007208407109 -> 0.00720840711) and 743090 (8.247193449e-05 ->
    # 8.24719345e-05)
    sink = _Digest()
    with contextlib.redirect_stdout(sink):
        assert main(["spectrum", "--grid-points", str(MAX_GRID_POINTS), "--format", "csv"]) == 0
    assert sink.chars == 23_917_959
    assert sink.sha.hexdigest() == ("9ed5e8c156661aa4887e24967e27720e"
                                    "bfb0f69da5ae8ce81fee77b1e81842b7")
    # evaluated, normalized and written a block at a time, the export traces
    # about 0.8 MiB (18.3 MiB at 10^6 rows when it held the table's two
    # arrays); tracing costs seconds per 10^6 rows, so the peak is taken at
    # 2*10^5 rows, where one float64 array of the table is 1.6 MB
    rows = 200_000
    assert rows * 8 > 1 << 20
    argv = ["spectrum", "--grid-points", str(rows), "--format", "csv"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv[:2] + ["1000", "--format", "csv"]) == 0
    sink = _Digest()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_only_the_csv_form_evaluates_table_rows(monkeypatch):
    # the other forms evaluate u only at the (N+1)-point tail rule's nodes;
    # the CSV form evaluates each table row twice, in blocks of at most 4096
    # rows: once for the norm, once to print it
    points = []
    evaluate = spectrum._wavefunction

    def counted(c, x, basis, t):
        points.append(len(t))
        return evaluate(c, x, basis, t)

    monkeypatch.setattr(spectrum, "_wavefunction", counted)
    tail = spectrum._mesh_size(1) + 1
    for argv in (["spectrum", "--format", "json"], ["spectrum", "--format", "table"],
                 ["confinement"], ["confinement", "--format", "csv"]):
        points.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert points == [tail], argv
    points.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--format", "csv"]) == 0
    blocks = [4096] * 4 + [spectrum.DEFAULT_GRID_POINTS - 4 * 4096]
    assert points == [tail] + blocks + blocks


# 4097 and 8193 leave one row past a whole block, which the last block takes
# with two rows of the block before, for the rule's 3/8 tail
@pytest.mark.parametrize("rows", [1000, 1001, 4096, 4097, 4098, 8193, 8195, 10001, 12000])
def test_blocked_table_keeps_the_whole_table_simpson_rule(rows):
    prob = RadialProblem(CORNELL, Quantity(0.7, 1), 2, rows)
    state = solve_bound_state(prob, 3)
    blocks = list(spectrum.wave_blocks(state))
    assert all(0 < len(r) == len(u) <= 4096 for r, u in blocks)
    radii, u = wave_table(state)
    assert np.array_equal(radii, np.concatenate([r for r, _ in blocks]))
    assert np.array_equal(u, np.concatenate([v for _, v in blocks]))
    # the reference: the whole table in one array, as linspace spaces it
    x, basis, _ = spectrum._laguerre_mesh(len(state.coefficients))
    h = state.r_max / x[-1]
    r = np.linspace(0.0, state.r_max, rows + 1)
    assert np.array_equal(radii, r[1:])
    reference = spectrum._wavefunction(state.coefficients, x, basis, r / h)[1:] / math.sqrt(h)
    reference /= math.sqrt(_simpson_norm(state))
    assert np.allclose(u, reference, rtol=1e-15, atol=0.0)


def test_a_table_that_overflows_is_refused_before_any_row_is_yielded(monkeypatch):
    state = solve_bound_state(RadialProblem(COULOMB, Quantity(1.0, 1), 0, 1000), 1)
    monkeypatch.setattr(spectrum, "_wavefunction", lambda c, x, basis, t: np.full_like(t, 1e200))
    with pytest.raises(DomainError, match=r"^level 1: the output table overflows float64"):
        spectrum.wave_blocks(state)


# --- confinement chain --------------------------------------------------------------


def test_confinement_ratio_is_order_unity():
    ratio = confinement_ratio()
    assert 0.1 <= ratio <= 10.0


def test_confinement_ratio_insensitive_to_coupling_mode():
    base = confinement_report()
    precise = confinement_report(e_squared=E2_PRECISE)
    assert abs(precise["ratio"] - base["ratio"]) / base["ratio"] < 0.01


def test_pure_coulomb_contrast_spreads_beyond_band():
    # without the linear term, excited states leak far outside the Compton scale
    m = 1233.0
    prob = hydrogen_problem(n_pts=20001, mu=m / 2.0)
    state = solve_bound_state(prob, 3)
    assert state.rms_radius.value * m > 10.0


def test_confinement_report_fields():
    report = confinement_report()
    assert "e2_mode" not in report
    assert report["m_quark"] == 1233.0
    assert report["sigma"] == 1233.0
    assert report["reduced_mass"] == 616.5
    assert report["within_band"] is True
    assert report["compton_wavelength"] == 1.0 / 1233.0


# --- independent Frobenius oracle for the default confinement state --------------


def frobenius_u(big_r, energy, alpha, sigma, mu, lam):
    """u(R) of the s-wave regular at 0, from its entire Frobenius series.

    u = sum a_k r^(k+1) with a_0 = 1 solves -u''/(2 mu) + (-alpha/r + sigma r
    + lam r^2) u = E u when a_k k (k+1) = 2 mu (-alpha a_(k-1) - E a_(k-2)
    + sigma a_(k-3) + lam a_(k-4)).  The sum stops once four terms in a row,
    as many as the recursion reaches back, fall below 1e-130 of the largest.
    """
    two_mu = 2 * mu
    back = [Decimal(0), Decimal(0), Decimal(0), Decimal(1)]  # a_(k-4) .. a_(k-1)
    power = total = peak = big_r
    k = small = 0
    while small < 4:
        k += 1
        a_k = two_mu * (-alpha * back[3] - energy * back[2] + sigma * back[1]
                        + lam * back[0]) / (k * (k + 1))
        back = back[1:] + [a_k]
        power *= big_r
        term = a_k * power
        total += term
        peak = max(peak, abs(term))
        small = small + 1 if abs(term) <= Decimal("1e-130") * peak else 0
    return total


def frobenius_ground_level(big_r, alpha, sigma, mu, lam):
    """The lowest E with u(R) = 0, bisected on the sign of u(R) to about 1e-46.

    sigma r >= 0 and the wall at R raise every hydrogen level, so the ground
    state lies above -mu alpha^2/2 and the first excited state above
    -mu alpha^2/8; a |lam| r^2 far below the gap moves neither past its bound.
    """
    lo, hi = -mu * alpha**2 / 2, -mu * alpha**2 / 8
    assert frobenius_u(big_r, lo, alpha, sigma, mu, lam) > 0
    assert frobenius_u(big_r, hi, alpha, sigma, mu, lam) < 0
    for _ in range(160):
        mid = (lo + hi) / 2
        if frobenius_u(big_r, mid, alpha, sigma, mu, lam) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_confinement_report_matches_the_frobenius_oracle():
    # the default chain: m = 9 * 137, alpha = 1, sigma = m, mu = m/2, ell = 0;
    # <r^2> = dE/dlam for an added lam r^2 (Hellmann-Feynman) as a central
    # difference, and E as the mean of the two shifted levels, off by O(lam^2)
    with localcontext() as ctx:
        ctx.prec = 140
        m = Decimal(9 * 137)
        lam = Decimal("1e-12")
        oracle = []
        for big_r in (Decimal("0.06"), Decimal("0.08")):
            up, down = (frobenius_ground_level(big_r, Decimal(1), m, m / 2, shift)
                        for shift in (lam, -lam))
            oracle.append(((up + down) / 2, (up - down) / (2 * lam)))
        (energy, r2), (energy_far, r2_far) = oracle
        # the wall is far enough out that moving it changes nothing printed
        assert abs(energy_far - energy) <= Decimal("1e-20") * abs(energy)
        assert abs(r2_far - r2) <= Decimal("1e-20") * r2
        rms = r2.sqrt()
        ratio = rms * m

        def off(got: float, want: Decimal) -> Decimal:
            return abs(Decimal(got) - want) / abs(want)

        report = confinement_report()
        # off by at most 9.6e-14, 1.04e-11 and 1.04e-11 on OpenBLAS's
        # SkylakeX, Haswell and Prescott kernels
        assert off(report["energy"], energy) <= Decimal("1e-12")
        assert off(report["rms_radius"], rms) <= Decimal("2e-11")
        assert off(report["ratio"], ratio) <= Decimal("2e-11")


# --- export ----------------------------------------------------------------------


def test_bound_state_export_round_trip(tmp_path, linear_ground):
    # the CLI export of the same problem holds the table and the library's sidecar
    state = linear_ground
    path = tmp_path / "state.csv"
    assert main(["spectrum", "--alpha", "0", "--sigma", "1", "--mu", "0.5", "--n", "1",
                 "--grid-points", "8001", "--format", "csv", "-o", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == state.problem.grid_points + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.allclose(table, np.column_stack(wave_table(state)), rtol=1e-9, atol=0.0)
    sidecar = json.loads((tmp_path / "state.csv.json").read_text(encoding="utf-8"))
    assert sidecar == bound_state_sidecar(state)
    # the last row lies at r_max, printed to 10 digits
    assert lines[-1].split(",")[0] == f"{sidecar['r_max']:.10g}"
    assert sidecar["n"] == 1 and sidecar["nodes"] == 0
    assert list(sidecar) == [
        "n", "E", "nodes", "rms_radius", "grid_points",
        "alpha", "sigma", "mu", "ell", "r_max",
    ]
    assert sidecar["sigma"] == 1.0 and sidecar["r_max"] == cover_extent(0.0, 1.0, 0.5, 1, 0)
