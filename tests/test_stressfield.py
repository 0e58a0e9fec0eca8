"""Kernel integrals checked against independent closed forms.

The analytic oracles below are derived once from the radial reductions for a
uniform ball of total energy E and support radius R:

    inverse kernel:  E/r outside;  E (3 R^2 - r^2) / (2 R^3) inside
    linear kernel:   E (r + R^2/(5r)) outside;
                     E (3R/4 + r^2/(2R) - r^4/(20 R^3)) inside

and stay independent of the quadrature path they check.
"""

import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comptonqcd import stressfield
from comptonqcd.errors import (DimensionError, DomainError, InvalidDimension, InvalidSource,
                               RegimeError)
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
    m, mass = Quantity(3.0, 1), Fraction(3)
    for e_tot, big_r in ((1.0, 1.0), (2.0, 0.5), (0.3, 7.25), (1.0, 1e-200), (1.0, 1e200)):
        ball = UniformBall(Quantity(big_r, -1), Quantity(e_tot, 1))
        # the centre, inside, the surface and outside
        for x in (0.0, 1e-3, 0.3, 0.999, 1.0, 1.001, 2.5, 40.0):
            r = x * big_r
            want_inv, want_lin = exact_ball_kernels(e_tot, big_r, r)
            got_inv = radial_reduce_inverse(ball, Quantity(r, -1)).value
            got_lin = radial_reduce_linear(ball, Quantity(r, -1)).value
            # each kernel is its exact value, rounded once
            assert (got_inv, got_lin) == (float(want_inv), float(want_lin))
            # the near field is the exact sum of the two kernel values, rounded once
            want = 4 * mass * Fraction(got_inv) + 2 * mass**3 * Fraction(got_lin)
            assert near_field_potential(ball, m, Quantity(r, -1)).value == float(want)


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


def exact_table_integral(tab: RadialTable, coefficients: dict[int, Fraction],
                         lo: Fraction = Fraction(0), hi: Fraction | None = None) -> Fraction:
    """Int_lo^hi p(x) eps(x) dx in rationals, for p(x) = sum c_j x^j and the stored samples.

    The span is [0, R] unless given.  eps is flat below the first radius and
    linear on each piece, eps(x) = c0 + q x, so each piece, cut to the span,
    contributes c0 (b^(j+1) - a^(j+1))/(j+1) + q (b^(j+2) - a^(j+2))/(j+2) for
    each term, computed exactly.
    """
    radii = [Fraction(x) for x in tab.radii]
    eps = [Fraction(e) for e in tab.densities]
    hi = radii[-1] if hi is None else hi
    pieces = [(Fraction(0), radii[0], eps[0], eps[0])] + list(
        zip(radii, radii[1:], eps, eps[1:]))
    total = Fraction(0)
    for a, b, ea, eb in pieces:
        if b == a:
            continue
        q = (eb - ea) / (b - a)
        c0 = ea - q * a
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        for j, c in coefficients.items():
            total += c * (c0 * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
                          + q * (b ** (j + 2) - a ** (j + 2)) / (j + 2))
    return total


def exact_interior_linear(tab: RadialTable, r: float) -> Fraction:
    """The linear kernel at 0 < r < R in rationals, with pi rounded to a float.

    (2 pi / (3r)) (Int_0^r (6r^2 x^2 + 2x^4) eps dx + Int_r^R (6r x^3 + 2r^3 x) eps dx)
    """
    x = Fraction(r)
    return 2 * Fraction(math.pi) / (3 * x) * (
        exact_table_integral(tab, {2: 6 * x * x, 4: 2}, hi=x)
        + exact_table_integral(tab, {3: 6 * x, 1: 2 * x**3}, lo=x))


def assert_exact_table(tab: RadialTable, rel: float = 1e-13) -> None:
    """Normalization, moments and the kernels against rationals.

    M_k = 4 pi Int x^k eps dx.  At r >= R the radial reductions read
    inverse: (2 pi / r) Int 2x^2 eps dx,
    linear:  (2 pi / (3r)) Int (6r^2 x^2 + 2x^4) eps dx,
    and at r = 0 the linear kernel is M_3.  Inside, the inverse kernel is
    (4 pi / r) Int_0^r x^2 eps dx + 4 pi Int_r^R x eps dx, and the linear
    kernel, which runs as Simpson, holds to 1e-12 (see exact_interior_linear).
    """
    from comptonqcd.stressfield import _moment

    pi = Fraction(math.pi)

    def close(got: float, want: Fraction, rel: float = rel) -> None:
        assert abs(Fraction(got) - want) <= Fraction(rel) * abs(want), (got, float(want))

    E = Fraction(tab.total_energy.value)
    for k in (2, 3, 4):
        close(_moment(tab.radii, tab.densities, k), 4 * pi * exact_table_integral(tab, {k: 1}))
    close(E, 4 * pi * exact_table_integral(tab, {2: 1}))
    close(radial_reduce_linear(tab, Quantity(0.0, -1)).value,
          4 * pi * exact_table_integral(tab, {3: 1}))
    big_r = tab.support_radius.value
    for r in (big_r, big_r * (1.0 + 1e-12), 1.5 * big_r, 40.0 * big_r):
        x = Fraction(r)
        close(radial_reduce_inverse(tab, Quantity(r, -1)).value,
              2 * pi / x * exact_table_integral(tab, {2: 2}))
        close(radial_reduce_linear(tab, Quantity(r, -1)).value,
              2 * pi / (3 * x) * exact_table_integral(tab, {2: 6 * x * x, 4: 2}))
    # a sample radius, the middle of the last piece, just below R, and inside
    # the flat core when the first sample is not at 0
    first, samples = tab.radii[0], [x for x in tab.radii[:-1] if x > 0.0]
    interior = [0.5 * (tab.radii[-2] + big_r), math.nextafter(big_r, 0.0)]
    interior += [samples[len(samples) // 2]] if samples else []
    interior += [0.5 * first] if first > 0.0 else []
    for r in interior:
        x = Fraction(r)
        close(radial_reduce_inverse(tab, Quantity(r, -1)).value,
              4 * pi / x * exact_table_integral(tab, {2: 1}, hi=x)
              + 4 * pi * exact_table_integral(tab, {1: 1}, lo=x))
        close(radial_reduce_linear(tab, Quantity(r, -1)).value, exact_interior_linear(tab, r),
              rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(first=st.sampled_from([0.0, 0.3, 2.0]),
       gaps=st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=40),
       data=st.data(),
       total_energy=st.floats(0.01, 100.0))
def test_table_moments_and_exterior_kernels_are_exact(first, gaps, data, total_energy):
    radii = [first]
    for gap in gaps:
        radii.append(radii[-1] + gap)
    densities = data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(gaps),
                                   max_size=len(gaps)), label="densities") + [0.0]
    densities[0] += 0.5  # a profile that integrates to zero is rejected
    # a density the rescale takes below float64's normal range is refused
    scale = total_energy / stressfield._energy_moment(tuple(radii), tuple(densities))
    if any(e != 0.0 and abs(e * scale) < sys.float_info.min for e in densities):
        with pytest.raises(InvalidSource, match=r"^sample \d+ .* not a normal float64$"):
            RadialTable.from_samples(radii, densities, Quantity(total_energy, 1))
        return
    assert_exact_table(RadialTable.from_samples(radii, densities, Quantity(total_energy, 1)))


def test_table_normalization_enforced():
    # stored densities integrate back to the requested energy, also across
    # the 1e-9-wide last piece, where a monomial antiderivative cancels
    tab = uniform_like_table(total_energy=2.5)
    assert_exact_table(tab)
    assert_exact_table(uniform_like_table(total_energy=0.7, big_r=3.0))
    # a flat core below the first sample
    offset = RadialTable.from_samples([0.5, 1.0, 2.0], [3.0, 1.0, 0.0], Quantity(2.0, 1))
    assert_exact_table(offset)
    # a zero-density tail three times as long as the pieces that carry the
    # density: it once took three quarters of the Simpson panels, and the
    # interior linear kernel was 2.5e-12 off at r = 0.15
    tail = RadialTable.from_samples([0.3, 0.8, 3.8], [0.5, 0.0, 0.0], Quantity(1.0, 1))
    assert_exact_table(tail)


def test_table_panels_do_not_depend_on_the_interpreters_sum(monkeypatch):
    # sum() of floats is compensated from CPython 3.12 on, so the zero-tail
    # width it once gave moved the panel counts, and the interior linear
    # values, with the interpreter
    def no_sum(*args):
        raise AssertionError("the built-in sum rounds by the interpreter's version")

    monkeypatch.setattr(stressfield, "sum", no_sum, raising=False)
    tail = RadialTable.from_samples([0.3, 0.8, 3.8], [0.5, 0.0, 0.0], Quantity(1.0, 1))
    assert repr(radial_reduce_linear(tail, Quantity(0.15, -1)).value) == "0.5040457658779564"


def test_direct_table_construction_rejects_unnormalized():
    with pytest.raises(InvalidSource):
        RadialTable((0.0, 1.0), (5.0, 0.0), Quantity(1.0, -1), Quantity(1.0, 1))
    for energy in (0.0, -1.0):
        with pytest.raises(InvalidSource, match="^total energy must be positive$"):
            RadialTable((0.0, 1.0), (5.0, 0.0), Quantity(1.0, -1), Quantity(energy, 1))


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


def test_table_density_rescaled_out_of_normal_range_is_invalid_source():
    # the rescale once stored 9.55e-321, a subnormal that is not the sample given
    e = Quantity(1.0, 1)
    with pytest.raises(InvalidSource, match=re.escape(
            "sample 1 (r = 1, eps = 9.99989e-321) rescales to 9.55029e-321, "
            "not a normal float64")):
        RadialTable.from_samples([0.0, 1.0, 2.0], [1.0, 1e-320, 0.0], e)
    # a subnormal sample that the rescale takes into the normal range is kept
    table = RadialTable.from_samples([0.0, 1.0, 2.0], [1e-15, 1e-320, 0.0], e)
    assert table.densities[1] > 2.2250738585072014e-308


def test_table_moment_overflow_is_invalid_source():
    # float ** int raises where float * float gives inf: radii near 1e100
    # once ended in a bare OverflowError from the moment's r'**k terms
    e = Quantity(1.0, 1)
    message = "energy integral over radii up to 2e+200 overflows float64"
    with pytest.raises(InvalidSource, match=re.escape(message)):
        RadialTable.from_samples([0.0, 1e200, 2e200], [1.0, 1.0, 0.0], e)
    # 5 * r'**2 overflows to inf on an empty piece, and inf * 0 is nan, which
    # no tolerance comparison rejects
    message = "energy integral over radii up to 1.1e+154 overflows float64"
    with pytest.raises(InvalidSource, match=re.escape(message)):
        RadialTable((0.0, 1e154, 1.1e154), (1e-300, 0.0, 0.0), Quantity(1.1e154, -1), e)


@pytest.mark.parametrize("radii, densities, energy, r", [
    ([0.0, 1e100, 2e100], [1.0, 1.0, 0.0], 1.0, 3e100),  # M_4 overflows outside
    ([0.0, 1e103, 2e103], [1e-300, 1e-300, 0.0], 1e200, 0.0),  # M_3 at the origin
])
def test_table_kernel_overflow_is_domain_error(radii, densities, energy, r):
    m = Quantity(1.0, 1)
    tab = RadialTable.from_samples(radii, densities, Quantity(energy, 1))
    message = f"the linear kernel of a table of radius {radii[-1]:g} at r = {r:g} overflows"
    with pytest.raises(DomainError, match=re.escape(message)):
        radial_reduce_linear(tab, Quantity(r, -1))
    if r > 0.0:  # the origin's inverse kernel warns of its clamp first
        with pytest.raises(DomainError, match=re.escape(message)):
            near_field_potential(tab, m, Quantity(r, -1))


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


def test_csv_rejects_a_row_of_three_cells(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("r,eps\n0,1\n0.5,1,2\n1,0\n", encoding="utf-8")
    with pytest.raises(InvalidSource, match=f"^{re.escape(str(path))}:3: expected two columns$"):
        load_source_csv(str(path), Quantity(1.0, 1))


def test_csv_that_is_not_utf8_is_invalid_source(tmp_path):
    # byte 0xE9 (Latin-1 e-acute) once ended in a bare UnicodeDecodeError
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"r,eps\n0,1\n0.5,\xe9\n1,0\n")
    with pytest.raises(InvalidSource, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
        load_source_csv(str(path), Quantity(1.0, 1))


@pytest.mark.parametrize("name, reason", [("missing.csv", "No such file or directory"),
                                          (".", "Is a directory")])
def test_csv_path_that_cannot_be_read_is_invalid_source(tmp_path, name, reason):
    # these once ended in FileNotFoundError and IsADirectoryError
    path = str(tmp_path / name)
    with pytest.raises(InvalidSource, match=f"^{re.escape(path)}: cannot read: {reason}$"):
        load_source_csv(path, Quantity(1.0, 1))


def test_csv_with_a_byte_order_mark_reads_its_header(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which once made the
    # header read as '\ufeffr,eps'
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfr,eps\n0,1\n0.5,1\n1,0\n")
    tab = load_source_csv(str(path), Quantity(1.0, 1))
    assert tab.radii == (0.0, 0.5, 1.0)


@pytest.mark.parametrize("radii, densities, index", [
    ([0.0, math.nan, 1.0], [1.0, 1.0, 0.0], 1),
    ([0.0, 0.5, math.inf], [1.0, 1.0, 0.0], 2),
    ([0.0, 0.5, 1.0], [1.0, math.nan, 0.0], 1),
    ([0.0, 0.5, 1.0], [math.inf, 1.0, 0.0], 0),
])
def test_non_finite_sample_is_invalid_source(tmp_path, radii, densities, index):
    # these once raised "the profile's energy integral ... overflows float64",
    # and a nan radius passed the strictly-increasing check
    e = Quantity(1.0, 1)
    message = (f"^sample {index} \\(r = {radii[index]:g}, eps = {densities[index]:g}\\) "
               "is not finite$")
    with pytest.raises(InvalidSource, match=message):
        RadialTable.from_samples(radii, densities, e)
    with pytest.raises(InvalidSource, match=message):
        # the samples are checked before the support radius, which inf cannot be
        RadialTable(tuple(radii), tuple(densities), Quantity(1.0, -1), e)
    path = tmp_path / "profile.csv"
    path.write_text("r,eps\n" + "".join(f"{r},{d}\n" for r, d in zip(radii, densities)),
                    encoding="utf-8")
    with pytest.raises(InvalidSource, match=message):
        load_source_csv(str(path), e)


def test_csv_rejects_bad_cell(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("r,eps\n0,1\nx,0\n", encoding="utf-8")
    with pytest.raises(InvalidSource):
        load_source_csv(str(path), Quantity(1.0, 1))


# --- composed fields ---------------------------------------------------------


def test_near_field_rejects_a_mass_that_is_not_positive():
    for m in (0.0, -1.0):
        with pytest.raises(DomainError, match="^mass must be positive$"):
            near_field_potential(BALL, Quantity(m, 1), Quantity(2.0, -1))


def test_near_field_point_value():
    m = Quantity(1.0, 1)
    got = near_field_potential(BALL, m, Quantity(2.0, -1))
    assert got.value == pytest.approx(6.2, rel=1e-12)
    assert got.dim == 3


@pytest.mark.parametrize("m, r", [(1e110, 1e190), (1e100, 1e10), (1.0, 1e308)])
def test_near_field_overflow_is_domain_error(m, r):
    # m**3 alone overflows at m = 1e110, which once raised a bare OverflowError;
    # the linear term overflows in the other two, but at r = 1e308 the inverse
    # kernel E/r = 1e-308 is subnormal, and the kernel names that first
    mass = Quantity(m, 1)
    message = f"near field at m = {m:g}, r = {r:g} overflows"
    if r == 1e308:
        message = "the inverse kernel of a ball of radius 1 at r = 1e+308 underflows float64"
    with pytest.raises(DomainError, match=re.escape(message)):
        near_field_potential(default_source(mass), mass, Quantity(r, -1))


@pytest.mark.parametrize("kernel, ball, r", [
    (radial_reduce_inverse, (1e-300, 1e300), 1e-301),  # E/R, as field --m-quark 1e300
    (radial_reduce_inverse, (1e-300, 1e300), 1e-299),  # E/r outside
    (radial_reduce_linear, (1e300, 1e300), 0.0),  # E*R at the centre
    (radial_reduce_linear, (1e300, 1e300), 1e301),  # E*r outside
])
def test_ball_kernel_overflow_names_radius_and_r(kernel, ball, r):
    # these once raised "value must be finite, got inf", which names no input
    big_r, energy = ball
    src = UniformBall(Quantity(big_r, -1), Quantity(energy, 1))
    name = "inverse" if kernel is radial_reduce_inverse else "linear"
    message = f"the {name} kernel of a ball of radius {big_r:g} at r = {r:g} overflows float64"
    with pytest.raises(DomainError, match=re.escape(message)):
        kernel(src, Quantity(r, -1))


def test_interior_table_kernel_overflow_raises_no_numpy_warning():
    # the Simpson sums once let numpy's "overflow encountered in power" escape
    # under -W error in place of the DomainError
    tab = RadialTable.from_samples([0.0, 1e103, 2e103], [1e-300, 1e-300, 0.0], Quantity(1e200, 1))
    message = "the linear kernel of a table of radius 2e+103 at r = 1e+103 overflows float64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message)):
            radial_reduce_linear(tab, Quantity(1e103, -1))


def irregular_table(size: int) -> RadialTable:
    """A table of ``size`` unevenly spaced samples of (1 - x^2)^2 (1 + x/5)."""
    big_r = 0.75
    radii = [0.0] + [big_r * (i + 0.25 * ((i * 37) % 11 - 5) / 5) / (size - 1)
                     for i in range(1, size - 1)] + [big_r]
    x = [r / big_r for r in radii[:-1]]
    densities = [(1.0 - t * t) * (1.0 - t * t) * (1.0 + 0.2 * t) for t in x] + [0.0]
    return RadialTable.from_samples(radii, densities, Quantity(1.3, 1))


def test_table_kernels_make_no_numpy_interp_call(monkeypatch):
    # each Simpson piece takes eps from its two end values, so no kernel
    # interpolates the whole table
    def refuse(*args, **kwargs):
        raise AssertionError("a table's kernels must not call np.interp")

    monkeypatch.setattr(np, "interp", refuse)
    tab, m = irregular_table(33), Quantity(1.2, 1)
    for r in (0.05, tab.radii[16], 0.3, 0.75, 2.0):
        near_field_potential(tab, m, Quantity(r, -1))
    radial_reduce_linear(tab, Quantity(0.0, -1))
    with pytest.warns(ClampWarning):
        near_field_potential(tab, m, Quantity(0.0, -1))


@pytest.mark.parametrize("scale", [1e-4, 1e-8, 1e-12, 1e-16, 1e-20, 1e-100, 1e-300])
def test_interior_table_linear_kernel_holds_at_small_r(scale):
    # the weights once subtracted (r + x)^3 - (r - x)^3, two near-equal cubes
    # at r << x: at r = 1e-17 this table's kernel read 8.8e-4, not about its
    # r = 0 limit M_3 = 0.6, and at r = 1e-100 it raised an underflow
    tab = RadialTable.from_samples([0.0, 0.5, 1.0], [2.0, 1.0, 0.0], Quantity(1.0, 1))
    r = scale * tab.support_radius.value
    got = radial_reduce_linear(tab, Quantity(r, -1)).value
    want = exact_interior_linear(tab, r)
    assert abs(Fraction(got) - want) <= Fraction(1e-12) * want, (got, float(want))


def test_table_inverse_kernel_needs_no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table's inverse kernel must not call composite_simpson")

    monkeypatch.setattr(stressfield, "composite_simpson", refuse)
    tab = irregular_table(33)
    # inside the first piece, on a sample, mid-piece and just below R; a
    # positive density's potential falls outward, so each exceeds E/R
    for r in (1e-3, tab.radii[16], 0.5 * (tab.radii[20] + tab.radii[21]), 0.75 * (1.0 - 1e-12)):
        assert radial_reduce_inverse(tab, Quantity(r, -1)).value > 1.3 / 0.75
    # the clamped centre takes the same rule
    with pytest.warns(ClampWarning):
        radial_reduce_inverse(tab, Quantity(0.0, -1))


# repr of interior kernel values; a kernel change that moves one is named in
# CHANGES.md
TABLE_KERNEL_PINS = {
    (65, 0.05): ("3.714374885386176", "0.5424578932601981", "19.70373392896089"),
    (65, 0.3): ("3.214286007421196", "0.6464201185633133", "17.662600765376553"),
    (65, 0.6): ("2.1540458366201674", "0.918138383385567", "13.512506268757322"),
    (257, 0.05): ("3.7150334002960017", "0.5423382403215351", "19.70648127997203"),
    (257, 0.3): ("3.214746907904646", "0.6463179398210329", "17.66445995796379"),
    (257, 0.6): ("2.154122604833511", "0.918071052683505", "13.512642061275045"),
}


@pytest.mark.parametrize("size, r", list(TABLE_KERNEL_PINS))
def test_interior_table_kernel_values_are_pinned(size, r):
    tab, q = irregular_table(size), Quantity(r, -1)
    got = (radial_reduce_inverse(tab, q).value, radial_reduce_linear(tab, q).value,
           near_field_potential(tab, Quantity(1.2, 1), q).value)
    assert tuple(map(repr, got)) == TABLE_KERNEL_PINS[size, r]


def test_kernel_underflow_is_domain_error():
    # E/R (3 - t^2)/2, about 1.5e-600 inside this ball, once came back to a
    # library caller as Quantity(0.0, 2)
    ball = UniformBall(Quantity(1e300, -1), Quantity(1e-300, 1))
    message = "the inverse kernel of a ball of radius 1e+300 at r = 1e+299 underflows float64"
    with pytest.raises(DomainError, match=re.escape(message)):
        radial_reduce_inverse(ball, Quantity(1e299, -1))


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
    src = default_source(m)
    assert far_field_coupling(src, m, 3, r).value == e2 / 2.0
    assert far_field_coupling(src, m, 2, r).value == pytest.approx(2.0 / 3.0 * e2 / 2.0, rel=1e-15)
    assert far_field_coupling(src, m, 1, r).value == pytest.approx(1.0 / 3.0 * e2 / 2.0, rel=1e-15)


def test_far_field_fraction_ratio_exact():
    # the d-dependence enters through the exact rational d/3
    for d in (1, 2, 3):
        assert Fraction(d, 3) / Fraction(3, 3) == Fraction(d, 3)
    m = Quantity(2.0, 1)
    r = Quantity(5.0, -1)
    src = default_source(m)
    base = far_field_coupling(src, m, 3, r).value
    assert far_field_coupling(src, m, 1, r).value == pytest.approx(base / 3.0, rel=1e-15)


def test_far_field_outside_float64_is_domain_error():
    m = Quantity(1.0, 1)
    message = "far field at d = 1, m = 1, r = 1e+306 underflows"
    with pytest.raises(DomainError, match=re.escape(message)):
        far_field_coupling(default_source(m), m, 1, Quantity(1e306, -1))
    light, heavy = Quantity(1e-300, 1), UniformBall(Quantity(1.0, -1), Quantity(1e300, 1))
    message = "far field at d = 3, m = 1e-300, r = 1e+301 overflows"
    with pytest.raises(DomainError, match=re.escape(message)):
        far_field_coupling(heavy, light, 3, Quantity(1e301, -1), e_squared=1e10)
    # E/m alone leaves float64, which once raised here, but the coupling does not
    got = far_field_coupling(heavy, light, 3, Quantity(1e301, -1)).value
    exact = Fraction(1, 137) * Fraction(1e300) / (Fraction(1e-300) * Fraction(1e301))
    assert got == float(exact) == pytest.approx(7.2992700729927e+296, rel=1e-13)


def test_far_field_is_correctly_rounded():
    for m_value, r_value, d, e2 in ((1.0, 1.25, 1, None), (3.0, 0.7, 2, 0.3), (0.1, 11.0, 3, 2.5)):
        m = Quantity(m_value, 1)
        got = far_field_coupling(default_source(m), m, d, Quantity(r_value, -1), e_squared=e2)
        e_squared = Fraction(1, 137) if e2 is None else Fraction(e2)
        exact = Fraction(d, 3) * e_squared * Fraction(m_value) / (Fraction(m_value)
                                                                  * Fraction(r_value))
        assert got.value == float(exact)


def test_far_field_regime_and_dimension_errors():
    m = Quantity(1.0, 1)
    src = default_source(m)
    with pytest.raises(RegimeError):
        far_field_coupling(src, m, 3, Quantity(0.5, -1))
    with pytest.raises(RegimeError):
        far_field_coupling(src, m, 3, Quantity(1.0, -1))  # boundary is inside
    with pytest.raises(InvalidDimension):
        far_field_coupling(src, m, 4, Quantity(2.0, -1))
    with pytest.raises(InvalidDimension):
        far_field_coupling(src, m, 0, Quantity(2.0, -1))


# a library field set-up as a fresh process makes it; type() alone, since any
# attribute access would run a lazy module
_LAZY_POTENTIAL_PROBE = """
import json, os, sys, tempfile, types, warnings
import comptonqcd.cli, comptonqcd.stressfield as sf
from comptonqcd.natunits import Quantity
warnings.simplefilter("ignore", sf.ClampWarning)  # a table's r = 0
ran = []
def record():
    ran.append(type(sys.modules["comptonqcd.potential"]) is types.ModuleType)
record()
m = Quantity(1.0, 1)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "profile.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,eps\\n0.25,2\\n0.5,1\\n1,0\\n")
    table = sf.load_source_csv(path, m)
record()
for src in (table, sf.default_source(m)):
    for r in (0.0, 0.5, 3.0):
        sf.near_field_potential(src, m, Quantity(r, -1))
record()
sf.far_field_coupling(table, m, 2, Quantity(3.0, -1))
record()
print(json.dumps(ran))
"""


def test_only_the_far_field_runs_the_charge_rules_module():
    # the far field takes its d/3 from potential.charge_fraction; a source and
    # its near field leave it unrun, so a field set-up runs no more code than before
    done = subprocess.run([sys.executable, "-c", _LAZY_POTENTIAL_PROBE],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [False, False, False, True]


def test_default_source_shape():
    src = default_source(Quantity(2.0, 1))
    assert src.support_radius.value == 0.5
    assert src.total_energy.value == 2.0


def test_uniform_ball_validation():
    with pytest.raises(InvalidSource):
        UniformBall(Quantity(0.0, -1), Quantity(1.0, 1))
    with pytest.raises(InvalidSource):
        UniformBall(Quantity(1.0, -1), Quantity(-1.0, 1))
    with pytest.raises(DimensionError):
        UniformBall(Quantity(1.0, 1), Quantity(1.0, 1))  # wrong dim
