"""Eigensolver oracles: hydrogenic closed forms, the Airy-series root for the
pure linear potential, scaling laws, node counts, and the virial identity.

The Airy oracle below evaluates Ai(x) from its Maclaurin series and root-finds
the first zero by bisection; it never touches the mesh solver it checks.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from comptonqcd import spectrum
from comptonqcd.cli import main
from comptonqcd.errors import DomainError, GridTooSmall, NoBoundState
from comptonqcd.natunits import E2_PRECISE, Quantity
from comptonqcd.potential import CornellPotential
from comptonqcd.spectrum import (
    BoundState,
    RadialProblem,
    bound_state_sidecar,
    confinement_ratio,
    confinement_report,
    cover_extent,
    make_default_problem,
    R_MIN_FACTOR,
    solve_bound_state,
    virial_check,
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


def hydrogen_problem(r_max=30.0, n_pts=40001, mu=1.0, alpha=1.0, ell=0):
    pot = CornellPotential(Quantity(alpha, 0), Quantity(0.0, 2))
    return RadialProblem(
        pot, Quantity(mu, 1), Quantity(1e-8, -1), Quantity(r_max, -1), ell, n_pts
    )


def linear_problem(sigma=1.0, mu=0.5, r_max=14.0, n_pts=8001):
    pot = CornellPotential(Quantity(0.0, 0), Quantity(sigma, 2))
    return RadialProblem(
        pot, Quantity(mu, 1), Quantity(1e-7, -1), Quantity(r_max, -1), 0, n_pts
    )


@pytest.fixture(scope="module")
def hydrogen_ground():
    prob = hydrogen_problem()
    return prob, solve_bound_state(prob, 1)


@pytest.fixture(scope="module")
def linear_ground():
    prob = linear_problem()
    return prob, solve_bound_state(prob, 1)


# --- solve_bound_state oracles -------------------------------------------------


def test_hydrogen_levels_match_closed_form():
    for n, r_max in ((1, 30.0), (2, 42.0), (3, 60.0)):
        prob = hydrogen_problem(r_max=r_max)
        state = solve_bound_state(prob, n)
        exact = -0.5 / n**2
        assert abs(state.energy.value - exact) <= 1e-6 * abs(exact)
        assert state.nodes == n - 1


def test_linear_ground_state_matches_airy_oracle(linear_ground):
    _, state = linear_ground
    expected = AIRY_GROUND * (1.0 ** 2 / (2.0 * 0.5)) ** (1.0 / 3.0)
    assert abs(state.energy.value - expected) <= 1e-6 * expected
    assert state.nodes == 0


def test_hydrogen_with_angular_momentum():
    # lowest ell=1 state of the Coulomb problem: E = -1/8, zero radial nodes
    prob = hydrogen_problem(r_max=50.0, n_pts=24001, ell=1)
    state = solve_bound_state(prob, 1)
    assert abs(state.energy.value + 0.125) <= 1e-5 * 0.125
    assert state.nodes == 0


def test_wavefunction_normalized_and_pinned(hydrogen_ground):
    # the mesh has no wall at r_min: u follows 2r e^(-r) from r = 1e-8 out to
    # r_max = 30, beyond the mesh's last point at 17, where u is below 2e-6
    prob, state = hydrogen_ground
    from comptonqcd.quadrature import composite_simpson

    r = state.radii
    h = r[1] - r[0]
    assert abs(composite_simpson(state.u**2, h) - 1.0) <= 1e-8
    error = np.abs(state.u - 2.0 * r * np.exp(-r))
    assert np.max(error[r <= 5.0]) <= 1e-8
    assert np.max(error) <= 3e-7


def test_no_bound_state_when_potential_vanishes():
    pot = CornellPotential(Quantity(0.0, 0), Quantity(0.0, 2))
    prob = RadialProblem(pot, Quantity(1.0, 1), Quantity(1e-6, -1), Quantity(10.0, -1), 0, 2001)
    with pytest.raises(NoBoundState):
        solve_bound_state(prob, 1)


def test_grid_too_small_for_high_coulomb_level():
    prob = hydrogen_problem(r_max=40.0, n_pts=8001)
    # <r> = 37.5 for n = 5, so much more than 1e-6 of the probability lies beyond r_max = 40
    with pytest.raises(GridTooSmall, match="probability"):
        solve_bound_state(prob, 5)


def test_level_must_be_positive():
    prob = hydrogen_problem(n_pts=4001)
    with pytest.raises(DomainError):
        solve_bound_state(prob, 0)


def test_node_theorem_and_ordering_for_cornell():
    prob = RadialProblem(
        CORNELL, Quantity(1.0, 1), Quantity(1e-4, -1), Quantity(40.0, -1), 0, 4001
    )
    energies = []
    for n in range(1, 6):
        state = solve_bound_state(prob, n)
        assert state.nodes == n - 1
        energies.append(state.energy.value)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_linear_scaling_law():
    e_1 = solve_bound_state(linear_problem(sigma=1.0), 1).energy.value
    e_8 = solve_bound_state(linear_problem(sigma=8.0, r_max=7.0), 1).energy.value
    assert abs(e_8 / e_1 - 4.0) <= 1e-5 * 4.0  # (8 sigma)^{2/3} / sigma^{2/3} = 4


def test_coulomb_scaling_law():
    for mu, alpha in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        a0 = 1.0 / (mu * alpha)
        prob = hydrogen_problem(r_max=30.0 * a0, n_pts=24001, mu=mu, alpha=alpha)
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
        prob = make_default_problem(pot, Quantity(1.0, 1), level=n, grid_points=4001)
        state = solve_bound_state(prob, n)
        assert state.nodes == n - 1
        # first order in sigma: E = -1/(2 n^2) + sigma <r>, <r> = 3 n^2 / 2
        assert abs(state.energy.value - (-0.5 / n**2 + 1.5e-6 * n**2)) <= 1e-8


def test_cover_extent_rejects_bad_input():
    with pytest.raises(NoBoundState):
        cover_extent(0.0, 0.0, 1.0, 1, 0)
    for args in ((1.0, 0.0, 0.0, 1, 0), (1.0, 1.0, -1.0, 1, 0), (1.0, 0.0, 1.0, 0, 0),
                 (1.0, 0.0, 1.0, 51, 0), (1.0, 0.0, 1.0, 1, -1)):
        with pytest.raises(DomainError):
            cover_extent(*args)
    # a decay scale that underflows, and a cover that overflows, leave float64
    for args, name in (((1e-300, 0.0, 1e-300, 1, 0), r"mu\*alpha = 0"),
                       ((1e-5, 0.0, 1e-305, 1, 0), r"mu\*alpha = 1e-310"),
                       ((1.0, 1e-20, 1e-320, 1, 0), r"2\*mu\*sigma = 0"),
                       ((1e10, 0.0, 1e300, 1, 0), r"mu\*alpha = inf"),
                       ((1e-300, 0.0, 5e-8, 1, 0), "the mesh cover = inf")):
        with pytest.raises(DomainError, match=f"^{name} is not a normal float64"):
            cover_extent(*args)


def test_too_small_mesh_is_caught_by_the_node_count(monkeypatch):
    # 20 mesh points cannot resolve level 5: its eigenvector shows 7 sign changes
    args = (1.28, 1.51, 1.63, 5, 2)
    extent = cover_extent(*args)
    prob = RadialProblem(
        CornellPotential(Quantity(1.28, 0), Quantity(1.51, 2)), Quantity(1.63, 1),
        Quantity(1e-6, -1), Quantity(extent, -1), 2, 4001,
    )
    assert solve_bound_state(prob, 5).nodes == 4
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
        prob = make_default_problem(pot, Quantity(mu, 1), level=n, angular_momentum=ell,
                                    grid_points=4001)
        state = solve_bound_state(prob, n)
        assert state.nodes == n - 1
        energy = state.energy.value
        lower, upper = energy_bounds(alpha, sigma, mu, n, ell)
        assert lower - 1e-9 * abs(lower) <= energy <= upper + 1e-9 * abs(upper)
        assert virial_check(state, prob) <= 1e-4
        energies.append(energy)
    assert all(b > a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("ell", [0, 3, 8, 20])
def test_hydrogen_levels_on_default_tables(ell):
    # near the origin u ~ r^(ell+1), and the table's values there are rounding
    # noise that changes sign; the mesh eigenvector carries the node count
    for n in (1, 5, 10, 20, 30, 40, 50):
        k = n + ell
        state = solve_bound_state(make_default_problem(COULOMB, Quantity(1.0, 1), level=n,
                                                       angular_momentum=ell), n)
        assert state.nodes == n - 1
        assert abs(state.energy.value + 0.5 / k**2) <= 1e-10 / (2 * k**2)
        rms = math.sqrt(k * k * (5 * k * k + 1 - 3 * ell * (ell + 1)) / 2.0)
        assert abs(state.rms_radius.value - rms) <= 1e-9 * rms


# --- derived observables --------------------------------------------------------


def test_hydrogen_rms_radius(hydrogen_ground):
    _, state = hydrogen_ground
    assert abs(state.rms_radius.value - math.sqrt(3.0)) <= 1e-5 * math.sqrt(3.0)


def test_rms_halves_when_mass_doubles():
    prob = hydrogen_problem(r_max=15.0, n_pts=16001, mu=2.0)
    state = solve_bound_state(prob, 1)
    assert abs(state.rms_radius.value - math.sqrt(3.0) / 2.0) <= 1e-5


def test_rms_scales_with_cube_root_of_tension():
    r_1 = solve_bound_state(linear_problem(sigma=1.0), 1).rms_radius.value
    r_8 = solve_bound_state(linear_problem(sigma=8.0, r_max=7.0), 1).rms_radius.value
    assert abs(r_1 / r_8 - 2.0) <= 1e-4 * 2.0


def test_virial_residuals(hydrogen_ground, linear_ground):
    prob_h, state_h = hydrogen_ground
    prob_l, state_l = linear_ground
    assert virial_check(state_h, prob_h) <= 1e-4
    assert virial_check(state_l, prob_l) <= 1e-4


def test_virial_residual_is_finite_where_the_energy_vanishes():
    # this sigma puts the ground-state energy at ~1e-14; dividing by |E|
    # once reported a residual of order 1e4 for a correct state
    pot = CornellPotential(Quantity(1.0, 0), Quantity(0.4077484124895122, 2))
    prob = RadialProblem(pot, Quantity(1.0, 1), Quantity(1e-6, -1), Quantity(20.0, -1), 0, 4001)
    state = solve_bound_state(prob, 1)
    assert abs(state.energy.value) <= 1e-12
    assert virial_check(state, prob) <= 1e-4


def test_virial_rejects_unnormalized_state(hydrogen_ground):
    prob, state = hydrogen_ground
    bad = BoundState(
        level=state.level,
        energy=state.energy,
        nodes=state.nodes,
        radii=state.radii,
        u=state.u,
        rms_radius=state.rms_radius,
        mesh_radii=state.mesh_radii,
        mesh_weights=2.0 * state.mesh_weights,
    )
    with pytest.raises(DomainError):
        virial_check(bad, prob)


# --- problem validation -----------------------------------------------------------


def test_radial_problem_validation():
    with pytest.raises(DomainError):
        RadialProblem(COULOMB, Quantity(1.0, 1), Quantity(1.0, -1), Quantity(0.5, -1), 0, 2001)
    with pytest.raises(DomainError):
        RadialProblem(COULOMB, Quantity(1.0, 1), Quantity(0.0, -1), Quantity(1.0, -1), 0, 2001)
    with pytest.raises(DomainError):
        RadialProblem(COULOMB, Quantity(1.0, 1), Quantity(1e-6, -1), Quantity(1.0, -1), 0, 999)
    with pytest.raises(DomainError):
        RadialProblem(COULOMB, Quantity(-1.0, 1), Quantity(1e-6, -1), Quantity(1.0, -1), 0, 2001)
    with pytest.raises(DomainError):
        RadialProblem(COULOMB, Quantity(1.0, 1), Quantity(1e-6, -1), Quantity(1.0, -1), -1, 2001)


def test_make_default_problem_factors():
    # the default table ends where the mesh does, at the level's cover_extent
    prob = make_default_problem(CORNELL, Quantity(1.0, 1), level=2, angular_momentum=1,
                                grid_points=2000)
    extent = cover_extent(1.0, 1.0, 1.0, 2, 1)
    assert prob.r_max.value == extent
    assert prob.r_min.value == R_MIN_FACTOR * extent
    assert (prob.angular_momentum, prob.grid_points) == (1, 2000)
    assert make_default_problem(CORNELL, Quantity(1.0, 1)).r_max.value == cover_extent(
        1.0, 1.0, 1.0, 1, 0)
    with pytest.raises(DomainError):
        make_default_problem(CORNELL, Quantity(0.0, 1))


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
    a0 = 2.0 / m
    prob = hydrogen_problem(r_max=70.0 * a0, n_pts=20001, mu=m / 2.0)
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


# --- export ----------------------------------------------------------------------


def test_bound_state_export_round_trip(tmp_path, linear_ground):
    # the CLI export of the same problem holds the table and the library's sidecar
    prob, state = linear_ground
    path = tmp_path / "state.csv"
    assert main(["spectrum", "--alpha", "0", "--sigma", "1", "--mu", "0.5", "--n", "1",
                 "--r-min", "1e-7", "--r-max", "14", "--grid-points", "8001",
                 "--format", "csv", "-o", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == prob.grid_points + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.allclose(table, np.column_stack([state.radii, state.u]), rtol=1e-9, atol=0.0)
    sidecar = json.loads((tmp_path / "state.csv.json").read_text(encoding="utf-8"))
    assert sidecar == bound_state_sidecar(state, prob)
    assert sidecar["n"] == 1 and sidecar["nodes"] == 0
    assert list(sidecar) == [
        "n", "E", "nodes", "rms_radius", "grid_points",
        "alpha", "sigma", "mu", "ell", "r_min", "r_max",
    ]
    assert sidecar["sigma"] == 1.0 and sidecar["r_max"] == 14.0
