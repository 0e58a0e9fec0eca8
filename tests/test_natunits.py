"""Dimension bookkeeping, Compton wavelengths, the exact coupling, and the value types."""

import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from comptonqcd.errors import (
    DimensionError,
    DivByZero,
    DomainError,
    InvalidMass,
    InvalidQuantity,
)
from comptonqcd.natunits import (
    E2_PAPER,
    E2_PRECISE,
    Quantity,
    compton_wavelength,
    is_normal,
    normal_float,
    range_error,
    resolve_e_squared,
)
from comptonqcd.cli import Output, RunConfig
from comptonqcd.estimator import MassEstimate
from comptonqcd.potential import CornellPotential, QuarkConfiguration
from comptonqcd.spectrum import BoundState, RadialProblem
from comptonqcd.stressfield import RadialTable, UniformBall


def test_make_quantity_identity():
    q = Quantity(2.0, 1)
    assert q.value == 2.0 and q.dim == 1


def test_make_quantity_zero():
    q = Quantity(0.0, -1)
    assert q.value == 0.0 and q.dim == -1


def test_make_quantity_rejects_nan_and_inf():
    with pytest.raises(InvalidQuantity):
        Quantity(float("nan"), 0)
    with pytest.raises(InvalidQuantity):
        Quantity(float("inf"), 2)


def test_quantity_accepts_numpy_real_scalars_but_not_bools():
    for value in (np.int64(3), np.int32(3), np.float64(3.0)):
        q = Quantity(value, 1)
        assert q.value == 3.0 and type(q.value) is float
    for value in (True, np.bool_(True), "3", None):
        with pytest.raises(InvalidQuantity):
            Quantity(value, 1)


def test_make_quantity_rejects_fractional_dim():
    with pytest.raises(InvalidQuantity):
        Quantity(1.0, 0.5)


def test_qarith_mul_cancels_dims():
    out = Quantity(3.0, 1) * Quantity(2.0, -1)
    assert out.value == 6.0 and out.dim == 0


def test_qarith_add_mismatch_raises():
    # a bare number is dim 0, on either side
    for add in (lambda: Quantity(1.0, 1) + Quantity(1.0, 0), lambda: Quantity(1.0, 1) + 1.0,
                lambda: 1.0 + Quantity(1.0, 1), lambda: Quantity(1.0, 1) - 1,
                lambda: 1 - Quantity(1.0, 1)):
        with pytest.raises(DimensionError):
            add()
    assert (2.0 - Quantity(0.5, 0)).value == 1.5 and (1 + Quantity(0.5, 0)).value == 1.5


def test_qarith_div_reciprocal_length():
    out = Quantity(1.0, 0) / Quantity(4.0, 1)
    assert out.value == 0.25 and out.dim == -1
    out = 1.0 / Quantity(4.0, 1)
    assert out.value == 0.25 and out.dim == -1


def test_qarith_div_by_zero():
    with pytest.raises(DivByZero):
        Quantity(1.0, 0) / Quantity(0.0, 1)
    with pytest.raises(DivByZero):
        Quantity(1.0, 0) / 0
    with pytest.raises(DivByZero):
        2.0 / Quantity(-0.0, 1)


def test_operator_sugar_matches_qarith():
    a, b = Quantity(3.0, 2), Quantity(1.5, -1)
    assert (a * b).dim == 1
    assert (a / b).dim == 3
    assert (2.0 * b).value == 3.0 and (2.0 * b).dim == -1
    assert (a + Quantity(1.0, 2)).value == 4.0
    assert (a**3).dim == 6
    assert -b == Quantity(-1.5, -1)
    for operand in ("3", None, True, float("nan")):
        with pytest.raises(InvalidQuantity):
            a * operand
    for exponent in (0.5, 2.0, True):
        with pytest.raises(DimensionError, match="^quantity exponents must be integers$"):
            a**exponent


def test_pow_out_of_range_is_a_toolkit_error():
    # these once raised a bare OverflowError and ZeroDivisionError
    with pytest.raises(InvalidQuantity, match="finite"):
        Quantity(1e200, 1) ** 2
    with pytest.raises(DivByZero):
        Quantity(0.0, 1) ** -1
    assert Quantity(2.0, 1) ** -2 == Quantity(0.25, -2)


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_mul_adds_dims_property(da, db, va, vb):
    out = Quantity(va, da) * Quantity(vb, db)
    assert out.dim == da + db
    assert out.value == va * vb


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_compton_times_mass_is_unity(m):
    lam = compton_wavelength(Quantity(m, 1))
    prod = lam * Quantity(m, 1)
    assert prod.dim == 0
    assert abs(prod.value - 1.0) < 1e-12


def test_compton_examples():
    assert compton_wavelength(Quantity(1.0, 1)).value == 1.0
    assert compton_wavelength(Quantity(2.0, 1)).value == 0.5
    lam = compton_wavelength(Quantity(1.0, 1))
    assert lam.dim == -1


def test_compton_of_quark_chain_mass():
    from comptonqcd.estimator import quark_mass_estimate

    m = quark_mass_estimate().mass
    lam = compton_wavelength(m)
    assert lam.value == pytest.approx(8.1103e-4, rel=1e-4)
    assert lam.value == 1.0 / 1233.0


def test_compton_rejects_nonpositive_and_wrong_dim():
    with pytest.raises(InvalidMass):
        compton_wavelength(Quantity(0.0, 1))
    with pytest.raises(InvalidMass):
        compton_wavelength(Quantity(-1.0, 1))
    with pytest.raises(DimensionError):
        compton_wavelength(Quantity(1.0, 0))


def test_fine_structure_default_is_exact():
    frac = resolve_e_squared(None)
    assert frac is E2_PAPER
    assert frac == Fraction(1, 137)
    assert frac * 137 == 1
    assert float(frac) == pytest.approx(7.2993e-3, rel=1e-4)


def test_fine_structure_precise_mode():
    frac = resolve_e_squared(E2_PRECISE)
    assert frac == Fraction(1_000_000, 137_035_999)
    val = float(frac)
    assert val == pytest.approx(7.29735e-3, rel=1e-5)
    assert abs(val * 137.035999 - 1.0) < 1e-12


def test_nine_over_e_squared_is_1233():
    assert Fraction(9) / E2_PAPER == 1233


def test_resolve_e_squared():
    assert resolve_e_squared(None) == E2_PAPER
    assert resolve_e_squared(Fraction(1)) == 1
    assert resolve_e_squared(0.5) == Fraction(1, 2)
    assert resolve_e_squared(E2_PRECISE) == E2_PRECISE
    with pytest.raises(DomainError):
        resolve_e_squared(-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_resolve_e_squared_rejects_non_finite(value):
    # nan once raised a bare ValueError and the infinities an OverflowError
    with pytest.raises(DomainError, match=f"^e\\^2 must be finite, got {value}$"):
        resolve_e_squared(value)


@pytest.mark.parametrize("value, normal", [
    (1.0, True), (-2.5, True), (sys.float_info.min, True), (-sys.float_info.max, True),
    (0.0, False), (-0.0, False), (5e-324, False), (sys.float_info.min / 2, False),
    (math.inf, False), (-math.inf, False), (math.nan, False),
])
def test_is_normal(value, normal):
    assert is_normal(value) is normal
    assert is_normal(1.0, value, 2.0) is normal


def test_normal_float_passes_only_exact_zeros():
    # a float zero may be an underflow, as a transverse energy's -0.0 once was
    for zero in (Fraction(0), 0):
        assert normal_float(zero, "x") == 0.0
    assert normal_float(Fraction(1, 3), "x") == 1.0 / 3.0
    for value, bound in ((0.0, "underflows"), (-0.0, "underflows"), (5e-324, "underflows"),
                         (Fraction(1, 10**400), "underflows"), (math.inf, "overflows"),
                         (math.nan, "overflows"), (Fraction(10**400), "overflows")):
        with pytest.raises(DomainError) as exc:
            normal_float(value, "the value at a = {}", value)
        assert str(exc.value).endswith(f" {bound} float64")


def test_range_error_words_every_bound_one_way():
    what = "the sum at a = {}, b = {}, kind = {}"
    inputs = (1e-300, Fraction(10**400), "ball")
    for values, bound in (((1.0, 0.0), "underflows"), ((5e-324, math.inf), "overflows"),
                          ((math.nan, 0.0), "overflows"), ((-math.inf,), "overflows")):
        error = range_error(values, what, *inputs)
        assert isinstance(error, DomainError)
        assert str(error) == f"the sum at a = 1e-300, b = 1e+400, kind = ball {bound} float64"


def test_an_int_past_float64_prints_as_a_rational():
    # n printed as its 401 digits once made a 473-character message
    with pytest.raises(DomainError) as exc:
        MassEstimate(Fraction(1, 9), Fraction(1, 10**300), 10**400).mass
    assert str(exc.value) == ("the mass n/(k e^2) at n = 1e+400, k = 0.111111, e^2 = 1e-300 "
                              "overflows float64")
    # so does one within float64's range but past 2**53: 10**300 once printed
    # as its 301 digits in a 373-character message
    with pytest.raises(DomainError) as exc:
        MassEstimate(Fraction(1, 9), Fraction(1, 10**300), 10**300).mass
    assert str(exc.value) == ("the mass n/(k e^2) at n = 1e+300, k = 0.111111, e^2 = 1e-300 "
                              "overflows float64")
    assert str(range_error((math.inf,), "n = {}, d = {}", 10**308, -(2**53 + 1))) == \
        "n = 1e+308, d = -9.0072e+15 overflows float64"
    # an int that float64 holds exactly prints in full
    assert str(range_error((math.inf,), "n = {}, d = {}, ell = {}, count = {}",
                           1233, -3, 0, 2**53)) == \
        "n = 1233, d = -3, ell = 0, count = 9007199254740992 overflows float64"


@pytest.mark.parametrize("value", ["1/137", True, 1j])
def test_resolve_e_squared_rejects_non_real_values(value):
    # "1/137" and True were once read as e^2 = 1/137 and e^2 = 1
    with pytest.raises(DomainError, match=r"^e\^2 must be a real number, got "):
        resolve_e_squared(value)


_TABLE = RadialTable.from_samples([0.0, 0.5, 1.0], [2.0, 1.0, 0.0], Quantity(3.0, 1))
# each value type with its fields, as keyword arguments in field order
_VALUE_TYPES = [
    (Quantity, {"value": 1.5, "dim": 1}),
    (CornellPotential, {"alpha": Quantity(1.0, 0), "sigma": Quantity(2.0, 2)}),
    (QuarkConfiguration, {"charges": (Fraction(2, 3), Fraction(-1, 3)),
                          "positions": (0.0, 1.0), "separation": Quantity(1.0, -1)}),
    (MassEstimate, {"slope_coefficient": Fraction(1, 9), "e_squared": Fraction(1, 137),
                    "fermions": 2}),
    (UniformBall, {"support_radius": Quantity(1.0, -1), "total_energy": Quantity(2.0, 1)}),
    (RadialTable, {"radii": _TABLE.radii, "densities": _TABLE.densities,
                   "support_radius": _TABLE.support_radius,
                   "total_energy": _TABLE.total_energy}),
    (RadialProblem, {"potential": CornellPotential(Quantity(1.0, 0), Quantity(0.0, 2)),
                     "reduced_mass": Quantity(1.0, 1), "angular_momentum": 1,
                     "grid_points": 1000}),
]


@pytest.mark.parametrize("cls, fields", _VALUE_TYPES, ids=lambda x: getattr(x, "__name__", ""))
def test_value_types_behave_as_frozen_dataclasses(cls, fields):
    # a frozen dataclass with the same fields is the reference for ==, hash and repr
    reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)
    value = cls(**fields)
    assert not hasattr(value, "__dict__")
    assert value == cls(*fields.values()) and not value != cls(**fields)
    assert value != reference and value != object()
    assert hash(value) == hash(reference)
    assert repr(value) == repr(reference)
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) == fields[name]


def test_bound_state_is_frozen_with_identity_equality():
    problem = RadialProblem(CornellPotential(Quantity(1.0, 0), Quantity(0.0, 2)),
                            Quantity(1.0, 1), 0, 1000)
    fields = {"level": 1, "energy": Quantity(-0.5, 1), "nodes": 0,
              "coefficients": np.full(2, 0.5**0.5), "rms_radius": Quantity(1.7, -1),
              "mesh_radii": np.ones(2), "problem": problem, "r_max": 17.0}
    hidden = {"coefficients", "mesh_radii"}
    reference = dataclasses.make_dataclass(
        "BoundState", [(name, object, dataclasses.field(repr=name not in hidden))
                       for name in fields], frozen=True, eq=False)
    state = BoundState(**fields)
    assert repr(state) == repr(reference(**fields))
    assert repr(state) == ("BoundState(level=1, energy=Quantity(value=-0.5, dim=1), nodes=0, "
                           "rms_radius=Quantity(value=1.7, dim=-1), problem=" + repr(problem)
                           + ", r_max=17.0)")
    assert state == state and state != BoundState(**fields)
    assert hash(state) == object.__hash__(state)
    with pytest.raises(AttributeError, match="cannot assign to field 'nodes'"):
        state.nodes = 1


def test_cli_records_take_keywords_and_hold_no_dict():
    config = RunConfig(e2_mode="precise", output_format="json",
                       output_path=None, options={})
    out = Output(payload={}, rows=[])
    assert (config.e2_mode, out.table_rows, out.title, out.sidecar) == ("precise", None, "", False)
    assert not hasattr(config, "__dict__") and not hasattr(out, "__dict__")
