"""Cornell potential, exact fractions, and the three-quark line energies."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from comptonqcd.errors import (
    DomainError,
    InvalidDimension,
    InvalidMass,
    SingularConfiguration,
)
from comptonqcd.natunits import E2_PAPER, Quantity
from comptonqcd.potential import (
    CornellPotential,
    QuarkConfiguration,
    central_displacement_energy,
    charge_fraction,
    configuration_energy,
    configuration_energy_fraction,
    confinement_slope,
    cornell_from_quark_mass,
    evaluate_cornell,
    proton_configuration,
)

E2 = float(E2_PAPER)


def test_cornell_from_unit_mass():
    v = cornell_from_quark_mass(Quantity(1.0, 1))
    assert v.alpha.value == 1.0 and v.sigma.value == 1.0


def test_cornell_from_chain_mass():
    v = cornell_from_quark_mass(Quantity(1233.0, 1))
    assert v.sigma.value == 1233.0
    assert v.sigma.dim == 2


def test_cornell_sigma_linear_in_mass():
    assert cornell_from_quark_mass(Quantity(2.0, 1)).sigma.value == 2.0


def test_cornell_rejects_bad_mass():
    with pytest.raises(InvalidMass):
        cornell_from_quark_mass(Quantity(0.0, 1))
    with pytest.raises(InvalidMass):
        cornell_from_quark_mass(Quantity(1.0, 0))


def test_evaluate_cornell_examples():
    pure_coulomb = CornellPotential(Quantity(1.0, 0), Quantity(0.0, 2))
    assert evaluate_cornell(pure_coulomb, Quantity(2.0, -1)).value == -0.5
    balanced = CornellPotential(Quantity(1.0, 0), Quantity(1.0, 2))
    assert evaluate_cornell(balanced, Quantity(1.0, -1)).value == 0.0
    chain = CornellPotential(Quantity(1.0, 0), Quantity(1233.0, 2))
    got = evaluate_cornell(chain, Quantity(0.1, -1)).value
    assert got == pytest.approx(113.3, rel=1e-12)


def test_evaluate_cornell_domain_error():
    v = CornellPotential(Quantity(1.0, 0), Quantity(1.0, 2))
    with pytest.raises(DomainError):
        evaluate_cornell(v, Quantity(0.0, -1))
    with pytest.raises(DomainError):
        evaluate_cornell(v, Quantity(-1.0, -1))


@pytest.mark.parametrize("alpha, sigma, r, bound", [
    (1e-300, 0.0, 1e10, "underflows"),  # once returned the subnormal -1e-310
    (1.0, 1e300, 1e10, "overflows"),  # once ended in "value must be finite, got inf"
    (1e300, 1.0, 1e-10, "overflows"),
    (0.0, 1e-300, 1e-10, "underflows"),
])
def test_evaluate_cornell_term_outside_float64_is_domain_error(alpha, sigma, r, bound):
    v = CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
    message = f"V at alpha = {alpha:g}, sigma = {sigma:g}, r = {r:g} {bound} float64"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evaluate_cornell(v, Quantity(r, -1))


def test_cornell_is_correctly_rounded_at_the_crossover():
    # sigma*r - alpha/r in floats once cancelled to 0.0 here, against an exact -3.6e-17
    alpha, sigma, r = 1.4302060167127721, 8.489593995678604, 0.41044582250162376
    got = evaluate_cornell(CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2)),
                           Quantity(r, -1)).value
    exact = Fraction(sigma) * Fraction(r) - Fraction(alpha) / Fraction(r)
    assert got == float(exact) == pytest.approx(-3.6e-17, rel=0.05)


def test_cornell_is_never_zero_at_a_float_crossover():
    # a float radius sqrt(alpha/sigma) is never the exact crossover of float inputs
    rng = np.random.default_rng(31)
    for alpha, sigma in rng.uniform(0.1, 10.0, size=(20000, 2)).tolist():
        r = math.sqrt(alpha / sigma)
        v = CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
        got = evaluate_cornell(v, Quantity(r, -1)).value
        assert got != 0.0, (alpha, sigma, r)
        assert got == float(Fraction(sigma) * Fraction(r) - Fraction(alpha) / Fraction(r))


def test_cornell_is_strictly_increasing_with_unique_zero():
    v = CornellPotential(Quantity(1.0, 0), Quantity(4.0, 2))
    # the crossover radius sqrt(alpha/sigma)
    r_star = Quantity(math.sqrt(v.alpha.value / v.sigma.value), -1)
    assert r_star.value == 0.5
    assert evaluate_cornell(v, r_star).value == pytest.approx(0.0, abs=1e-14)
    rs = np.geomspace(0.01, 100.0, 500)
    vals = [evaluate_cornell(v, Quantity(float(r), -1)).value for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # |V| on a log grid bottoms out at the crossover radius
    mags = np.abs(vals)
    arg = int(np.argmin(mags))
    assert rs[arg] == pytest.approx(r_star.value, rel=0.03)


def test_charge_fraction_exact_values():
    assert charge_fraction(1) == Fraction(1, 3)
    assert charge_fraction(2) == Fraction(2, 3)
    assert charge_fraction(3) == Fraction(1)


def test_charge_fraction_monotone_and_triples():
    fracs = [charge_fraction(d) for d in (1, 2, 3)]
    assert fracs[0] < fracs[1] < fracs[2]
    for d in (1, 2, 3):
        assert charge_fraction(d) * 3 == d


def test_charge_fraction_rejects_other_dimensions():
    for bad in (0, 4, -1, True):
        with pytest.raises(InvalidDimension):
            charge_fraction(bad)


def test_proton_configuration_shape():
    cfg = proton_configuration(Quantity(1.0, -1))
    assert cfg.charges == (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3))
    assert cfg.positions == (-1.0, 0.0, 1.0)
    assert cfg.total_charge == 1
    assert cfg.charges[1] == Fraction(-1, 3)


def test_configuration_energy_proton_exact():
    cfg = proton_configuration(Quantity(1.0, -1))
    frac = configuration_energy_fraction(cfg)
    assert frac == Fraction(-2, 9) * E2_PAPER
    assert configuration_energy(cfg).value == float(Fraction(-2, 9) * E2_PAPER)


def test_configuration_energy_single_pair():
    cfg = QuarkConfiguration((Fraction(1), Fraction(1)), (0.0, 2.0), Quantity(1.0, -1))
    assert configuration_energy_fraction(cfg) == E2_PAPER / 2


def test_configuration_energy_scales_as_inverse_separation():
    reference = configuration_energy_fraction(proton_configuration(Quantity(1.0, -1)))
    for l in (2.0, 5.0):
        scaled = configuration_energy_fraction(proton_configuration(Quantity(l, -1)))
        assert scaled * Fraction(l) == reference
    assert configuration_energy_fraction(proton_configuration(Quantity(2.0, -1))) == Fraction(
        -1, 9
    ) * E2_PAPER


def test_one_charge_is_not_a_configuration():
    for charges, positions in (((Fraction(1),), (0.0,)), ((Fraction(1), Fraction(1)), (0.0,))):
        with pytest.raises(DomainError, match="^need at least two charges"):
            QuarkConfiguration(charges, positions, Quantity(1.0, -1))


def test_coincident_positions_rejected():
    with pytest.raises(SingularConfiguration):
        QuarkConfiguration((Fraction(1), Fraction(1)), (1.0, 1.0), Quantity(1.0, -1))


def test_displacement_zero_matches_configuration_energy():
    cfg = proton_configuration(Quantity(1.0, -1))
    assert (
        central_displacement_energy(cfg, 0.0, "axial").value
        == configuration_energy(cfg).value
    )
    assert (
        central_displacement_energy(cfg, 0.0, "transverse").value
        == pytest.approx(configuration_energy(cfg).value, rel=1e-15)
    )


def second_derivative(f, h):
    return (f(h) - 2.0 * f(0.0) + f(-h)) / h**2


def test_axial_curvature_matches_expansion():
    for l in (1.0, 2.0):
        cfg = proton_configuration(Quantity(l, -1))

        def energy(x):
            return central_displacement_energy(cfg, x, "axial").value

        # d^2/dx^2 with x in units of l: divide by l^2 for physical curvature
        got = second_derivative(energy, 1e-4) / l**2
        want = -(8.0 / 9.0) * E2 / l**3
        assert abs(got - want) <= 1e-6 * abs(want)


def test_transverse_curvature_matches_expansion():
    cfg = proton_configuration(Quantity(1.0, -1))

    def energy(x):
        return central_displacement_energy(cfg, x, "transverse").value

    got = second_derivative(energy, 1e-4)
    want = (4.0 / 9.0) * E2
    assert abs(got - want) <= 1e-6 * abs(want)


def test_axial_first_derivative_vanishes_exactly():
    cfg = proton_configuration(Quantity(1.0, -1))
    h = 1e-5
    plus = central_displacement_energy(cfg, h, "axial").value
    minus = central_displacement_energy(cfg, -h, "axial").value
    assert abs(plus - minus) / (2.0 * h) <= 1e-9


def test_displacement_bounds_and_axis_validation():
    cfg = proton_configuration(Quantity(1.0, -1))
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(SingularConfiguration):
            central_displacement_energy(cfg, bad, "axial")
    with pytest.raises(DomainError):
        central_displacement_energy(cfg, 0.1, "sideways")
    even = QuarkConfiguration((Fraction(1), Fraction(1)), (0.0, 1.0), Quantity(1.0, -1))
    with pytest.raises(DomainError):
        central_displacement_energy(even, 0.1, "axial")


def test_axial_displacement_onto_a_neighbour_is_singular():
    # uneven spacing: the central charge at 0 sits 0.5 from its left neighbour
    cfg = QuarkConfiguration(
        (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)), (-0.5, 0.0, 1.0), Quantity(1.0, -1)
    )
    with pytest.raises(SingularConfiguration):
        central_displacement_energy(cfg, -0.5, "axial")
    # the same shift off the line keeps every distance positive
    assert math.isfinite(central_displacement_energy(cfg, -0.5, "transverse").value)


def test_confinement_slope_values():
    assert confinement_slope(Quantity(1.0, -1)).value == pytest.approx(8.110e-4, rel=1e-3)
    assert confinement_slope(Quantity(1.0, -1)).value == float(Fraction(1, 1233))
    assert confinement_slope(Quantity(1.0, -1), e_squared=1).value == pytest.approx(
        1.0 / 9.0, rel=1e-15
    )
    quarter = confinement_slope(Quantity(2.0, -1)).value
    assert quarter == pytest.approx(confinement_slope(Quantity(1.0, -1)).value / 4.0, rel=1e-15)
    assert confinement_slope(Quantity(1.0, -1)).dim == 2


@pytest.mark.parametrize("l_value", [1e160, 1e170, 1e-160])
def test_confinement_slope_outside_float64_is_domain_error(l_value):
    # these once returned the subnormal 1e-323, returned 0.0 and raised a bare
    # OverflowError from Fraction.__float__
    bound = "overflows" if l_value < 1.0 else "underflows"
    with pytest.raises(DomainError) as exc:
        confinement_slope(Quantity(l_value, -1))
    assert str(exc.value) == (f"the declared slope e^2/(9 l^2) at l = {l_value:g}, "
                              f"e^2 = 0.00729927 {bound} float64")


def test_single_pair_slope_is_twice_declared():
    l = 1.0
    sep = Quantity(l, -1)

    def pair_energy(x):
        cfg = QuarkConfiguration((Fraction(-1, 3), Fraction(2, 3)), (x, 1.0), sep)
        return configuration_energy(cfg).value

    h = 1e-6
    slope = abs(pair_energy(h) - pair_energy(-h)) / (2.0 * h)
    declared = confinement_slope(sep).value
    assert abs(slope - 2.0 * declared) <= 1e-6 * (2.0 * declared)
