"""Mass chain arithmetic and the scale-regime classifier."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from comptonqcd.errors import DomainError
from comptonqcd.estimator import (
    MassEstimate,
    Regime,
    classify_regime,
    derivation_report,
    effective_mass_from_slope,
    format_exact,
    order_of_magnitude_ok,
    pion_mass_estimate,
    quark_mass_estimate,
)
from comptonqcd.natunits import E2_PRECISE


def test_slope_one_ninth_gives_1233():
    est = effective_mass_from_slope(Fraction(1, 9))
    assert est.mass_fraction == 1233
    assert est.mass.value == 1233.0
    assert est.mass.dim == 1


def test_slope_one_gives_137():
    assert effective_mass_from_slope(1).mass_fraction == 137
    # numpy's float32 once reached Fraction(), which raised a bare TypeError
    assert effective_mass_from_slope(np.float32(0.5)).mass_fraction == 274


def test_slope_with_precise_coupling():
    est = effective_mass_from_slope(Fraction(1, 9), e_squared=E2_PRECISE)
    assert est.mass_fraction == Fraction(9 * 137_035_999, 1_000_000)
    assert est.mass.value == pytest.approx(1233.323991, abs=1e-9)


def test_slope_rejects_nonpositive():
    for bad in (0, -1, Fraction(-1, 9)):
        with pytest.raises(DomainError):
            effective_mass_from_slope(bad)


def test_mass_reproducible_from_fields():
    est = effective_mass_from_slope(Fraction(2, 7), fermions=3)
    assert est.mass_fraction == Fraction(3) / (Fraction(2, 7) * est.e_squared)


def test_slope_ratio_is_exact_in_rational_arithmetic():
    k1, k2 = Fraction(1, 9), Fraction(3, 5)
    m1 = effective_mass_from_slope(k1).mass_fraction
    m2 = effective_mass_from_slope(k2).mass_fraction
    assert m1 / m2 == k2 / k1


def test_quark_mass_estimate():
    est = quark_mass_estimate()
    assert est.mass_fraction == 1233
    assert est.slope_coefficient == Fraction(1, 9)
    assert order_of_magnitude_ok(est)
    single = pion_mass_estimate(fermions=1)
    assert est.mass_fraction / single.mass_fraction == 9


def test_order_of_magnitude_band_is_open():
    est = effective_mass_from_slope(Fraction(1, 100), e_squared=Fraction(1, 100))
    assert est.mass_fraction == 10000
    assert not order_of_magnitude_ok(est)  # 10^4 sits on the boundary


def test_pion_mass_estimates():
    assert pion_mass_estimate().mass_fraction == 274
    assert pion_mass_estimate(fermions=1).mass_fraction == 137
    precise = pion_mass_estimate(e_squared=E2_PRECISE)
    assert precise.mass.value == pytest.approx(274.071998, abs=1e-9)


def test_mass_estimate_field_validation():
    with pytest.raises(DomainError):
        MassEstimate(Fraction(1), Fraction(1, 137), fermions=0)
    with pytest.raises(DomainError):
        MassEstimate(Fraction(0), Fraction(1, 137))


def test_classify_regime_reference_points():
    assert classify_regime(10.0) is Regime.ELECTRON
    assert classify_regime(1.0) is Regime.PION
    assert classify_regime(0.1) is Regime.QUARK


def test_classify_regime_band_edges():
    assert classify_regime(0.5) is Regime.QUARK
    assert classify_regime(1.5) is Regime.ELECTRON
    assert classify_regime(0.50000001) is Regime.PION
    assert classify_regime(1.2, band_halfwidth=0.1) is Regime.ELECTRON


def test_classify_regime_rejects_bad_inputs():
    with pytest.raises(DomainError):
        classify_regime(0.0)
    with pytest.raises(DomainError):
        classify_regime(-2.0)
    with pytest.raises(DomainError):
        classify_regime(1.0, band_halfwidth=0.0)


def test_classify_regime_compares_exact_ratios():
    # a rational is compared exactly, also where its float would be zero
    assert classify_regime(Fraction(1, 10**400)) is Regime.QUARK
    assert classify_regime(1e-320) is Regime.QUARK
    assert classify_regime(Fraction(3, 2), Fraction(1, 2)) is Regime.ELECTRON
    assert classify_regime(Fraction(3, 2) - Fraction(1, 10**30), Fraction(1, 2)) is Regime.PION


_ORDER = {Regime.QUARK: 0, Regime.PION: 1, Regime.ELECTRON: 2}


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_classify_regime_monotone(x, y):
    lo, hi = sorted((x, y))
    assert _ORDER[classify_regime(lo)] <= _ORDER[classify_regime(hi)]


def test_quark_mass_invariant_under_separation_choice():
    # the slope e^2/(9 l^2) always recovers k = 1/9, so l cancels in the mass
    from comptonqcd.natunits import E2_PAPER, Quantity
    from comptonqcd.potential import confinement_slope

    masses = []
    for l in (0.5, 1.0, 3.0):
        slope = confinement_slope(Quantity(l, -1)).value
        k = Fraction(slope) * Fraction(l) ** 2 / E2_PAPER
        masses.append(effective_mass_from_slope(k).mass.value)
    assert masses[0] == pytest.approx(masses[1], rel=1e-12)
    assert masses[2] == pytest.approx(masses[1], rel=1e-12)
    assert masses[1] == 1233.0


def test_format_exact():
    assert format_exact(Fraction(1233)) == "1233"
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(1233323991, 1000000)) == "1233.323991"
    assert format_exact(Fraction(-5, 4)) == "-1.25"
    assert format_exact(Fraction(0)) == "0"


def test_derivation_report_contents():
    report = derivation_report()
    assert list(report) == ["steps"]
    by_tag = {step["quantity"]: step for step in report["steps"]}
    assert by_tag["quark mass"]["value"] == "1233"
    assert by_tag["pion mass (two fermions)"]["value"] == "274"
    assert by_tag["single-fermion mass"]["value"] == "137"
    assert by_tag["charge fraction (d=1)"]["value"] == "1/3"
    assert by_tag["charge fraction (d=2)"]["value"] == "2/3"
    assert by_tag["quark mass order of magnitude (10^3 m_e)"]["value"] == "satisfied"
    steps = [s["step"] for s in report["steps"]]
    assert steps == sorted(steps)


def test_derivation_report_precise_mode():
    report = derivation_report(e_squared=E2_PRECISE)
    by_tag = {step["quantity"]: step for step in report["steps"]}
    assert by_tag["quark mass"]["value"] == "1233.323991"
    assert by_tag["pion mass (two fermions)"]["value"] == "274.071998"
