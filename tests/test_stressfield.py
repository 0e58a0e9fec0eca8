"""Kernel integrals checked against independent closed forms.

The analytic oracles below are derived once from the radial reductions for a
uniform ball of total energy E and support radius R:

    inverse kernel:  E/r outside;  E (3 R^2 - r^2) / (2 R^3) inside
    linear kernel:   E (r + R^2/(5r)) outside;
                     E (3R/4 + r^2/(2R) - r^4/(20 R^3)) inside

and stay independent of the quadrature path they check.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from comptonqcd.errors import DomainError, InvalidDimension, InvalidSource, RegimeError
from comptonqcd.natunits import Quantity
from comptonqcd.stressfield import (
    ClampWarning,
    RadialTable,
    UniformBall,
    default_source,
    far_field_coupling,
    load_source_csv,
    near_field_potential,
    radial_reduce_inverse,
    radial_reduce_linear,
)

BALL = UniformBall(Quantity(1.0, -1), Quantity(1.0, 1))


def inverse_oracle(e_tot: float, big_r: float, r: float) -> float:
    if r >= big_r:
        return e_tot / r
    return e_tot * (3.0 * big_r**2 - r * r) / (2.0 * big_r**3)


def linear_oracle(e_tot: float, big_r: float, r: float) -> float:
    if r >= big_r:
        return e_tot * (r + big_r**2 / (5.0 * r))
    return e_tot * (0.75 * big_r + r * r / (2.0 * big_r) - r**4 / (20.0 * big_r**3))


def test_inverse_exterior_point_value():
    assert radial_reduce_inverse(BALL, Quantity(2.0, -1)).value == pytest.approx(0.5, rel=1e-12)


def test_inverse_interior_closed_form():
    got = radial_reduce_inverse(BALL, Quantity(0.5, -1))
    assert got.value == pytest.approx(1.375, rel=1e-12)


def test_inverse_origin_limit():
    assert radial_reduce_inverse(BALL, Quantity(0.0, -1)).value == pytest.approx(1.5, rel=1e-12)


def test_inverse_dimension_is_energy_times_mass():
    assert radial_reduce_inverse(BALL, Quantity(2.0, -1)).dim == 2


def test_linear_exterior_point_values():
    assert radial_reduce_linear(BALL, Quantity(2.0, -1)).value == pytest.approx(2.1, rel=1e-12)
    assert radial_reduce_linear(BALL, Quantity(10.0, -1)).value == pytest.approx(10.02, rel=1e-12)


def test_linear_origin_is_mean_radius():
    assert radial_reduce_linear(BALL, Quantity(0.0, -1)).value == pytest.approx(0.75, rel=1e-12)


def test_shell_theorem_fifty_random_exterior_radii():
    rng = np.random.default_rng(20319)
    for r in rng.uniform(1.0, 8.0, size=50):
        got = radial_reduce_inverse(BALL, Quantity(float(r), -1)).value
        assert abs(got - 1.0 / r) <= 1e-10 / r


def test_inverse_interior_fifty_random_radii():
    rng = np.random.default_rng(4)
    for r in rng.uniform(1e-3, 1.0, size=50):
        got = radial_reduce_inverse(BALL, Quantity(float(r), -1)).value
        want = inverse_oracle(1.0, 1.0, float(r))
        assert abs(got - want) <= 1e-8 * abs(want)


def test_linear_kernel_fifty_random_radii_vs_oracle():
    rng = np.random.default_rng(77)
    for r in rng.uniform(1e-3, 5.0, size=50):
        got = radial_reduce_linear(BALL, Quantity(float(r), -1)).value
        want = linear_oracle(1.0, 1.0, float(r))
        assert abs(got - want) <= 1e-8 * abs(want)


def test_kernels_reject_negative_radius():
    with pytest.raises(DomainError):
        radial_reduce_inverse(BALL, Quantity(-0.5, -1))
    with pytest.raises(DomainError):
        radial_reduce_linear(BALL, Quantity(-0.5, -1))


def exact_ball_kernels(e_tot: float, big_r: float, r: float) -> tuple[Fraction, Fraction]:
    """Both ball kernels from the radial reductions, integrated exactly in rationals.

    With s = min(r, R) and 2*pi*eps = 3E / (2R^3) the integrals are
    inverse: Int_0^s 2x^2 dx + Int_s^R 2rx dx,
    linear:  Int_0^s (6r^2x^2 + 2x^4) dx + Int_s^R (2r^3x + 6rx^3) dx.
    """
    E, R, r = Fraction(e_tot), Fraction(big_r), Fraction(r)
    if r == 0:
        return 3 * E / (2 * R), 3 * E * R / 4
    s = min(r, R)
    two_pi_eps = 3 * E / (2 * R**3)
    inv = 2 * s**3 / 3 + r * (R**2 - s**2)
    lin = 2 * r**2 * s**3 + 2 * s**5 / 5 + r**3 * (R**2 - s**2) + 3 * r * (R**4 - s**4) / 2
    return two_pi_eps / r * inv, two_pi_eps / (3 * r) * lin


def test_ball_kernels_are_exact_closed_forms():
    # R**3 once overflowed at R = 1e200 and underflowed to 0 at R = 1e-200
    for e_tot, big_r in ((1.0, 1.0), (2.0, 0.5), (0.3, 7.25), (1.0, 1e-200), (1.0, 1e200)):
        ball = UniformBall(Quantity(big_r, -1), Quantity(e_tot, 1))
        # the centre, inside, the surface and outside
        for x in (0.0, 1e-3, 0.3, 0.999, 1.0, 1.001, 2.5, 40.0):
            r = x * big_r
            want_inv, want_lin = exact_ball_kernels(e_tot, big_r, r)
            got_inv = radial_reduce_inverse(ball, Quantity(r, -1)).value
            got_lin = radial_reduce_linear(ball, Quantity(r, -1)).value
            assert abs(Fraction(got_inv) - want_inv) <= Fraction(1e-14) * want_inv
            assert abs(Fraction(got_lin) - want_lin) <= Fraction(1e-14) * want_lin


def test_ball_kernels_need_no_quadrature(monkeypatch):
    import comptonqcd.stressfield as sf

    def refuse(*args):
        raise AssertionError("a uniform ball must not call composite_simpson")

    monkeypatch.setattr(sf, "composite_simpson", refuse)
    m = Quantity(2.0, 1)
    for r in (0.0, 0.25, 0.5, 3.0):
        near_field_potential(default_source(m), m, Quantity(r, -1))


# --- tabulated profiles -----------------------------------------------------


def uniform_like_table(total_energy: float = 1.0, big_r: float = 1.0) -> RadialTable:
    radii = list(np.linspace(0.0, big_r * (1.0 - 1e-9), 64)) + [big_r]
    densities = [1.0] * 64 + [0.0]
    return RadialTable.from_samples(radii, densities, Quantity(total_energy, 1))


def test_table_matches_uniform_ball():
    tab = uniform_like_table()
    for r in (0.2, 0.5, 0.9, 1.5, 3.0):
        for kernel in (radial_reduce_inverse, radial_reduce_linear):
            got = kernel(tab, Quantity(r, -1)).value
            want = kernel(BALL, Quantity(r, -1)).value
            assert abs(got - want) <= 1e-6 * abs(want)


def test_table_shell_theorem():
    radii = np.linspace(0.0, 2.0, 41)
    densities = (4.0 - radii**2).clip(min=0.0)
    densities[-1] = 0.0
    tab = RadialTable.from_samples(radii, densities, Quantity(3.0, 1))
    rng = np.random.default_rng(11)
    for r in rng.uniform(2.0, 9.0, size=50):
        got = radial_reduce_inverse(tab, Quantity(float(r), -1)).value
        assert abs(got - 3.0 / r) <= 1e-10 * (3.0 / r)


def test_table_normalization_enforced():
    tab = uniform_like_table(total_energy=2.5)
    # stored densities integrate back to the requested energy
    from comptonqcd.stressfield import _table_integral

    norm = _table_integral(
        tab.radii, tab.densities, lambda x: 4.0 * math.pi * x * x, 0.0, 1.0
    )
    assert abs(norm - 2.5) <= 1e-10 * 2.5


def test_direct_table_construction_rejects_unnormalized():
    with pytest.raises(InvalidSource):
        RadialTable((0.0, 1.0), (5.0, 0.0), Quantity(1.0, -1), Quantity(1.0, 1))


def test_table_validation_errors():
    e = Quantity(1.0, 1)
    with pytest.raises(InvalidSource):
        RadialTable.from_samples([0.0, 0.0, 1.0], [1.0, 1.0, 0.0], e)  # not increasing
    with pytest.raises(InvalidSource):
        RadialTable.from_samples([0.0, 1.0], [-1.0, 0.0], e)  # negative density
    with pytest.raises(InvalidSource):
        RadialTable.from_samples([0.0, 1.0], [1.0, 0.5], e)  # final sample nonzero
    with pytest.raises(InvalidSource):
        RadialTable.from_samples([0.5], [0.0], e)  # too short


def test_table_origin_clamps_with_warning():
    tab = uniform_like_table()
    with pytest.warns(ClampWarning):
        got = radial_reduce_inverse(tab, Quantity(0.0, -1)).value
    assert got == pytest.approx(1.5, rel=1e-3)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "profile.csv"
    radii = np.linspace(0.0, 1.0, 21)
    densities = (1.0 - radii**2).clip(min=0.0)
    densities[-1] = 0.0
    lines = ["r,eps"] + [f"{r},{d}" for r, d in zip(radii, densities)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tab = load_source_csv(str(path), Quantity(2.0, 1))
    direct = RadialTable.from_samples(radii, densities, Quantity(2.0, 1))
    assert tab.radii == direct.radii
    assert tab.densities == direct.densities
    got = radial_reduce_inverse(tab, Quantity(3.0, -1)).value
    assert abs(got - 2.0 / 3.0) <= 1e-10


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,density\n0,1\n1,0\n", encoding="utf-8")
    with pytest.raises(InvalidSource):
        load_source_csv(str(path), Quantity(1.0, 1))


def test_csv_rejects_bad_cell(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("r,eps\n0,1\nx,0\n", encoding="utf-8")
    with pytest.raises(InvalidSource):
        load_source_csv(str(path), Quantity(1.0, 1))


# --- composed fields ---------------------------------------------------------


def test_near_field_point_value():
    m = Quantity(1.0, 1)
    got = near_field_potential(BALL, m, Quantity(2.0, -1))
    assert got.value == pytest.approx(6.2, rel=1e-12)
    assert got.dim == 3


def test_near_field_slope_approaches_linear_coefficient():
    m = Quantity(1.0, 1)
    r, h = 300.0, 0.05
    hi = near_field_potential(BALL, m, Quantity(r + h, -1)).value
    lo = near_field_potential(BALL, m, Quantity(r - h, -1)).value
    slope = (hi - lo) / (2.0 * h)
    assert abs(slope - 2.0) <= 1e-4 * 2.0  # 2 m^3 E_tot with m = E_tot = 1


def test_near_field_coulomb_term_dominates_at_small_radius():
    m = Quantity(1.0, 1)
    # inside the default source the ratio of the two terms tends to 4
    r = 1e-3
    inv_part = 4.0 * radial_reduce_inverse(BALL, Quantity(r, -1)).value
    lin_part = 2.0 * radial_reduce_linear(BALL, Quantity(r, -1)).value
    assert inv_part == pytest.approx(4.0 * lin_part, rel=1e-4)
    # outside a compact source the first term grows like 1/r and takes over
    small = UniformBall(Quantity(0.01, -1), Quantity(1.0, 1))
    ratios = []
    for r in (0.5, 0.1, 0.02):
        inv_part = 4.0 * radial_reduce_inverse(small, Quantity(r, -1)).value
        lin_part = 2.0 * radial_reduce_linear(small, Quantity(r, -1)).value
        ratios.append(inv_part / lin_part)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 100.0


def test_near_field_has_unique_interior_minimum():
    sources = [
        (BALL, Quantity(1.0, 1)),
        (default_source(Quantity(2.0, 1)), Quantity(2.0, 1)),
        (uniform_like_table(), Quantity(1.0, 1)),
    ]
    for src, m in sources:
        rs = np.geomspace(0.05, 50.0, 400)
        vals = [
            near_field_potential(src, m, Quantity(float(r), -1)).value
            for r in rs
        ]
        diffs = np.sign(np.diff(vals))
        flips = int(np.sum(diffs[:-1] != diffs[1:]))
        assert flips == 1  # decreasing then increasing: one minimum
        arg = int(np.argmin(vals))
        assert vals[arg + 1] > vals[arg] < vals[arg - 1]
        # monotone increase above the minimum
        assert all(b > a for a, b in zip(vals[arg:], vals[arg + 1 :]))


def test_far_field_calibration_anchor():
    m = Quantity(1.0, 1)
    r = Quantity(2.0, -1)
    e2 = 1.0 / 137.0
    assert far_field_coupling(None, m, 3, r).value == e2 / 2.0
    assert far_field_coupling(None, m, 2, r).value == pytest.approx(2.0 / 3.0 * e2 / 2.0, rel=1e-15)
    assert far_field_coupling(None, m, 1, r).value == pytest.approx(1.0 / 3.0 * e2 / 2.0, rel=1e-15)


def test_far_field_fraction_ratio_exact():
    # the d-dependence enters through the exact rational d/3
    for d in (1, 2, 3):
        assert Fraction(d, 3) / Fraction(3, 3) == Fraction(d, 3)
    m = Quantity(2.0, 1)
    r = Quantity(5.0, -1)
    base = far_field_coupling(None, m, 3, r).value
    assert far_field_coupling(None, m, 1, r).value == pytest.approx(base / 3.0, rel=1e-15)


def test_far_field_regime_and_dimension_errors():
    m = Quantity(1.0, 1)
    with pytest.raises(RegimeError):
        far_field_coupling(None, m, 3, Quantity(0.5, -1))
    with pytest.raises(RegimeError):
        far_field_coupling(None, m, 3, Quantity(1.0, -1))  # boundary is inside
    with pytest.raises(InvalidDimension):
        far_field_coupling(None, m, 4, Quantity(2.0, -1))
    with pytest.raises(InvalidDimension):
        far_field_coupling(None, m, 0, Quantity(2.0, -1))


def test_default_source_shape():
    src = default_source(Quantity(2.0, 1))
    assert src.support_radius.value == 0.5
    assert src.total_energy.value == 2.0


def test_uniform_ball_validation():
    with pytest.raises(InvalidSource):
        UniformBall(Quantity(0.0, -1), Quantity(1.0, 1))
    with pytest.raises(InvalidSource):
        UniformBall(Quantity(1.0, -1), Quantity(-1.0, 1))
    with pytest.raises(DomainError):
        UniformBall(Quantity(1.0, 1), Quantity(1.0, 1))  # wrong dim
