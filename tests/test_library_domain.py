"""Generated input-domain sweep of the library's public functions and value constructors.

Every name in ``comptonqcd.__all__`` is either drawn here or listed in
``_NOT_DRAWN`` with the reason.  Each drawn call takes floats from the CLI
sweep's extremes (nan, +-inf, +-0, 1e-320, 1e-300, 1e308, 1.7e308), a few
ordinary values and any float, with every warning an error.  The rule: the
call raises a :class:`ToolkitError`, or every float it returns is finite and
normal wherever its exact value is non-zero.  For the closed forms
(``evaluate_cornell``, a ball's two kernels, ``near_field_potential`` from
its two kernel values and ``far_field_coupling``) the sweep computes that
exact value from the drawn inputs, and the call must return it rounded once,
so it returns zero only where the exact value is zero.  Elsewhere the sweep
cannot tell an exact zero from an underflow by its value, so a returned zero
passes; the library itself is stricter, as ``natunits.normal_float`` passes
a zero only from an int or a rational, and ``_FAULTS`` pins the paths that
once returned a float zero.  A float that equals a drawn input passes too,
as a constructor stores its arguments.  Now and then an argument that must
be exact or real (a charge, a slope coefficient, a fermion count, e^2, the
regime's ratio and band) is drawn as a string, a bool or a float that the
call must reject: a call that returns anyway has coerced it silently, and
fails.  ``Quantity``'s arithmetic operators are out of scope: they return
whatever float arithmetic gives, so
``Quantity(1e-300, -1) * Quantity(1e-300, -1)`` holds 0.0.
"""

import math
import os
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
import pytest

import comptonqcd
from comptonqcd import (
    ClampWarning,
    CornellPotential,
    MassEstimate,
    Quantity,
    QuarkConfiguration,
    RadialProblem,
    RadialTable,
    ToolkitError,
    UniformBall,
)

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e-300, 1e308, 1.7e308)
ORDINARY = (1.0, 0.5, 2.0, 1233.0)
FLOATS = st.sampled_from(EXTREMES + ORDINARY + (-1.0,)) | st.floats()
# exact values: the extremes as rationals, and numbers past float64's range
FRACTIONS = (st.sampled_from([Fraction(1, 137), Fraction(1, 9), Fraction(1e-320),
                              Fraction(1.7e308), Fraction(1, 10**400), Fraction(10**400)])
             | st.fractions() | st.integers(-3, 10))
E_SQUARED = st.one_of(st.none(), st.none(), FLOATS, FRACTIONS)
# values an exact or real argument must reject rather than coerce
NOT_REAL = st.sampled_from(["2", "1/9", True, False])
NOT_INT = st.sampled_from([True, False, 2.5, 2.0, "2"])
NOT_EXACT = st.sampled_from([0.5, 2.0, True, "1/3"])


class _Draw:
    """Draws a call's arguments, keeping every float passed to the library.

    Up to two float arguments, the wild ones, take any float; the others are
    ordinary, so that the call gets past its checks to the arithmetic that an
    extreme value breaks.  A Quantity has the dim its use expects nine times
    in ten.
    """

    def __init__(self, data):
        self.data = data
        self.inputs = []
        self.wild = {data.draw(st.integers(0, 7), label="wild argument") for _ in range(2)}
        self.count = 0
        self.rejected = []
        self.exact = None

    def checked(self, strategy, bad):
        """A draw from strategy, or one time in four from bad, which the call must reject."""
        if not self(st.sampled_from([False] * 3 + [True])):
            return self(strategy)
        self.rejected.append(self(bad))
        return self.rejected[-1]

    def __call__(self, strategy):
        value = self.data.draw(strategy)
        if isinstance(value, float):
            self.inputs.append(value)
        return value

    def value(self, ordinary=ORDINARY):
        self.count += 1
        return self(FLOATS if self.count - 1 in self.wild else st.sampled_from(ordinary))

    def quantity(self, dim):
        value = self.value()
        if not math.isfinite(value):  # Quantity rejects it: its own sweep draws it
            value = 1.0
        return Quantity(value, self(st.sampled_from((dim,) * 9 + (dim - 1,))))

    def samples(self):
        """Table samples: radii from 0 or a draw by drawn steps, densities ending at zero."""
        radii = [self.value() if self(st.booleans()) else 0.0]
        for _ in range(self(st.integers(1, 3))):
            radii.append(radii[-1] + self.value())
        self.inputs += radii
        return radii, [self.value() for _ in radii[1:]] + [0.0]

    def source(self):
        if self(st.booleans()):
            return UniformBall(self.quantity(-1), self.quantity(1))
        return RadialTable.from_samples(*self.samples(), self.quantity(1))

    def potential(self):
        return CornellPotential(self.quantity(0), self.quantity(2))

    def problem(self):
        grid = self(st.sampled_from([1000] * 8 + [999, comptonqcd.spectrum.MAX_GRID_POINTS + 1]))
        return RadialProblem(self.potential(), self.quantity(1),
                             self(st.sampled_from([0, 1, 3] * 3 + [-1])), grid)

    def state(self):
        return comptonqcd.solve_bound_state(self.problem(),
                                            self(st.sampled_from([1, 2, 5] * 3 + [0])))

    def configuration(self):
        if self(st.booleans()):
            return comptonqcd.proton_configuration(self.quantity(-1))
        positions = [self.value()]
        for _ in range(self(st.integers(1, 2))):
            positions.append(positions[-1] + self.value())
        self.inputs += positions
        charges = tuple(self.checked(FRACTIONS, NOT_EXACT) for _ in positions)
        return QuarkConfiguration(charges, tuple(positions), self.quantity(-1))

    def mass_estimate(self):
        return MassEstimate(self.checked(FRACTIONS, NOT_EXACT), self(FRACTIONS),
                            self.checked(st.integers(-1, 10**6), NOT_INT))


def _rounded_once(d, call, exact, *args, **kwargs):
    """call(*args, **kwargs), noting on d the exact value that it must return rounded once."""
    result = call(*args, **kwargs)
    d.exact = exact(*args, **kwargs)
    return result


def _cornell_exact(potential, r):
    alpha, sigma, x = (Fraction(q.value) for q in (potential.alpha, potential.sigma, r))
    return sigma * x - alpha / x


def _ball(src, r):
    """E, R and r of a ball as rationals; None for a table, which has no closed form inside."""
    if isinstance(src, UniformBall):
        return (Fraction(src.total_energy.value), Fraction(src.support_radius.value),
                Fraction(r.value))
    return None


def _inverse_exact(src, r):
    if (ball := _ball(src, r)) is not None:
        E, R, x = ball
        return E / x if x >= R else E * (3 * R**2 - x**2) / (2 * R**3)


def _linear_exact(src, r):
    if (ball := _ball(src, r)) is not None:
        E, R, x = ball
        return E * (x + R**2 / (5 * x)) if x >= R else \
            E * (x**2 / (2 * R) + 3 * R / 4 - x**4 / (20 * R**3))


def _near_field_exact(src, m, r):
    inv = Fraction(comptonqcd.radial_reduce_inverse(src, r).value)
    lin = Fraction(comptonqcd.radial_reduce_linear(src, r).value)
    mass = Fraction(m.value)
    return 4 * mass * inv + 2 * mass**3 * lin


def _far_field_exact(src, m, d, r, *, e_squared):
    return (Fraction(d, 3) * comptonqcd.resolve_e_squared(e_squared)
            * Fraction(src.total_energy.value) / (Fraction(m.value) * Fraction(r.value)))


def _load_source_csv(d):
    rows = "".join(f"{r!r},{eps!r}\n" for r, eps in zip(*d.samples()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,eps\n" + rows)
        return comptonqcd.load_source_csv(path, d.quantity(1))


# each public callable, and a call of it with drawn arguments
CALLS = {
    # natunits
    "Quantity": lambda d: Quantity(d(FLOATS), d(st.integers(-3, 3))),
    "compton_wavelength": lambda d: comptonqcd.compton_wavelength(d.quantity(1)),
    "resolve_e_squared": lambda d: comptonqcd.resolve_e_squared(d.checked(E_SQUARED, NOT_REAL)),
    # stressfield
    "UniformBall": lambda d: UniformBall(d.quantity(-1), d.quantity(1)),
    "RadialTable": lambda d: RadialTable(*map(tuple, d.samples()), d.quantity(-1),
                                         d.quantity(1)),
    "RadialTable.from_samples": lambda d: RadialTable.from_samples(*d.samples(), d.quantity(1)),
    "default_source": lambda d: comptonqcd.default_source(d.quantity(1)),
    "load_source_csv": _load_source_csv,
    "radial_reduce_inverse": lambda d: _rounded_once(
        d, comptonqcd.radial_reduce_inverse, _inverse_exact, d.source(), d.quantity(-1)),
    "radial_reduce_linear": lambda d: _rounded_once(
        d, comptonqcd.radial_reduce_linear, _linear_exact, d.source(), d.quantity(-1)),
    "near_field_potential": lambda d: _rounded_once(
        d, comptonqcd.near_field_potential, _near_field_exact, d.source(), d.quantity(1),
        d.quantity(-1)),
    "far_field_coupling": lambda d: _rounded_once(
        d, comptonqcd.far_field_coupling, _far_field_exact, d.source(), d.quantity(1),
        d(st.sampled_from([1, 2, 3] * 3 + [0, 4])), d.quantity(-1), e_squared=d(E_SQUARED)),
    # potential
    "CornellPotential": lambda d: d.potential(),
    "cornell_from_quark_mass": lambda d: comptonqcd.cornell_from_quark_mass(d.quantity(1)),
    "evaluate_cornell": lambda d: _rounded_once(
        d, comptonqcd.evaluate_cornell, _cornell_exact, d.potential(), d.quantity(-1)),
    "charge_fraction": lambda d: comptonqcd.charge_fraction(d(st.integers(-1, 4))),
    "QuarkConfiguration": lambda d: d.configuration(),
    "proton_configuration": lambda d: comptonqcd.proton_configuration(d.quantity(-1)),
    "configuration_energy": lambda d: comptonqcd.configuration_energy(
        d.configuration(), e_squared=d(E_SQUARED)),
    "configuration_energy_fraction": lambda d: comptonqcd.configuration_energy_fraction(
        d.configuration(), e_squared=d(E_SQUARED)),
    "central_displacement_energy": lambda d: comptonqcd.central_displacement_energy(
        d.configuration(), d.value((0.0, 0.25, -0.5)),
        d(st.sampled_from(["axial", "transverse"] * 3 + ["z"])), e_squared=d(E_SQUARED)),
    "confinement_slope": lambda d: comptonqcd.confinement_slope(
        d.quantity(-1), e_squared=d(E_SQUARED)),
    # estimator
    "MassEstimate": lambda d: d.mass_estimate(),
    "effective_mass_from_slope": lambda d: comptonqcd.effective_mass_from_slope(
        d.checked(FLOATS | FRACTIONS, NOT_REAL), e_squared=d(E_SQUARED),
        fermions=d.checked(st.integers(0, 3), NOT_INT)),
    "quark_mass_estimate": lambda d: comptonqcd.quark_mass_estimate(e_squared=d(E_SQUARED)),
    "pion_mass_estimate": lambda d: comptonqcd.pion_mass_estimate(
        e_squared=d(E_SQUARED), fermions=d.checked(st.integers(0, 3), NOT_INT)),
    "order_of_magnitude_ok": lambda d: comptonqcd.order_of_magnitude_ok(d.mass_estimate()),
    "classify_regime": lambda d: comptonqcd.classify_regime(
        d.checked(FLOATS | FRACTIONS, NOT_REAL), d.checked(FLOATS | FRACTIONS, NOT_REAL)),
    "derivation_report": lambda d: comptonqcd.derivation_report(e_squared=d(E_SQUARED)),
    # spectrum
    "RadialProblem": lambda d: d.problem(),
    "cover_extent": lambda d: comptonqcd.cover_extent(
        d.value(), d.value(), d.value(), d(st.integers(0, 51)), d(st.integers(-1, 3))),
    "solve_bound_state": lambda d: d.state(),
    "wave_blocks": lambda d: list(comptonqcd.wave_blocks(d.state())),
    "wave_table": lambda d: comptonqcd.wave_table(d.state()),
    "virial_check": lambda d: comptonqcd.virial_check(d.state()),
    "bound_state_sidecar": lambda d: comptonqcd.bound_state_sidecar(d.state()),
    "confinement_report": lambda d: comptonqcd.confinement_report(e_squared=d(E_SQUARED)),
    "confinement_ratio": lambda d: comptonqcd.confinement_ratio(e_squared=d(E_SQUARED)),
}

# public names that are not drawn as calls, and why
_NOT_DRAWN = {
    "E2_PAPER": "a constant",
    "E2_PRECISE": "a constant",
    "SourceDensity": "a type alias of UniformBall and RadialTable",
    "ClampWarning": "the warning a table's r = 0 clamp gives; the sweep lets it pass",
    "Regime": "an enum of classify_regime's results",
    "BoundState": "built by solve_bound_state, which checks what it stores",
}


def _floats(value):
    """Every float a result holds, through the library's value types."""
    if isinstance(value, (bool, int, str, Fraction)) or value is None:
        return
    if isinstance(value, float):
        yield value
    elif isinstance(value, Quantity):
        yield value.value
    elif isinstance(value, MassEstimate):
        yield from _floats(value.mass)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            yield from _floats(float(item) if isinstance(item, np.floating) else item)
    elif hasattr(value, "__slots__"):
        for name in value.__slots__:
            yield from _floats(getattr(value, name))
    else:
        raise AssertionError(f"unexpected result type {type(value).__name__}")


def test_every_public_name_is_drawn_or_excused():
    drawn = {name.split(".")[0] for name in CALLS}
    assert sorted(set(comptonqcd.__all__) - drawn - set(comptonqcd.errors.__all__)) == \
        sorted(_NOT_DRAWN)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_library_input_domain_sweep(name, data):
    draw = _Draw(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", ClampWarning)
        try:
            result = CALLS[name](draw)
            values = list(_floats(result))
        except ToolkitError:
            return
    assert not draw.rejected, (name, "accepted", draw.rejected)
    if draw.exact is not None:
        assert values == [float(draw.exact)], (name, values, draw.exact)
    for value in values:
        assert math.isfinite(value), (name, value)
        if value != 0.0 and abs(value) < sys.float_info.min:
            assert value in draw.inputs, (name, value)


_PROTON_NEAR = comptonqcd.proton_configuration(Quantity(1e-320, -1))
_PROTON_FAR = comptonqcd.proton_configuration(Quantity(1.7e308, -1))
_E2 = "e^2 = 0.00729927"
# each once returned a subnormal or a float zero, or raised a bare OverflowError
_FAULTS = {
    "compton-subnormal": (lambda: comptonqcd.compton_wavelength(Quantity(1.7e308, 1)),
                          "the Compton wavelength 1/m at m = 1.7e+308 underflows float64"),
    "energy-overflow": (lambda: comptonqcd.configuration_energy(_PROTON_NEAR),
                        f"the configuration energy at l = 9.99989e-321, {_E2} overflows float64"),
    "axial-overflow": (
        lambda: comptonqcd.central_displacement_energy(_PROTON_NEAR, 0.0, "axial"),
        f"the axial displacement energy at l = 9.99989e-321, d = 0, {_E2} overflows float64"),
    "energy-subnormal": (lambda: comptonqcd.configuration_energy(_PROTON_FAR),
                         f"the configuration energy at l = 1.7e+308, {_E2} underflows float64"),
    "transverse-subnormal": (
        lambda: comptonqcd.central_displacement_energy(_PROTON_FAR, 0.0, "transverse"),
        f"the transverse displacement energy at l = 1.7e+308, d = 0, {_E2} underflows float64"),
    "transverse-negative-zero": (
        lambda: comptonqcd.central_displacement_energy(
            comptonqcd.proton_configuration(Quantity(1e100, -1)), 0.1, "transverse",
            e_squared=1e-300),
        "the transverse displacement energy at l = 1e+100, d = 0.1, e^2 = 1e-300 underflows "
        "float64"),
    "regime-past-float64": (lambda: comptonqcd.classify_regime(Fraction(10**400)),
                            "the scale ratio 1e+400 overflows float64"),
    "transverse-charge-overflow": (
        lambda: comptonqcd.central_displacement_energy(QuarkConfiguration(
            (Fraction(1), Fraction(10**400), Fraction(1)), (0.0, 1.0, 2.0), Quantity(1.0, -1)),
            0.0, "transverse"),
        f"the transverse displacement energy at l = 1, d = 0, {_E2} overflows float64"),
    "quark-mass": (lambda: comptonqcd.quark_mass_estimate(e_squared=1e-320).mass,
                   "e^2 = 9.99989e-321 underflows float64"),
    "derivation": (lambda: comptonqcd.derivation_report(e_squared=1e-320),
                   "e^2 = 9.99989e-321 underflows float64"),
    "confinement": (lambda: comptonqcd.confinement_report(e_squared=1e-320),
                    "e^2 = 9.99989e-321 underflows float64"),
    "quark-mass-overflow": (lambda: comptonqcd.quark_mass_estimate(e_squared=3e-308).mass,
                            "the mass n/(k e^2) at n = 1, k = 0.111111, e^2 = 3e-308 "
                            "overflows float64"),
    "pion-in-derivation": (lambda: comptonqcd.derivation_report(e_squared=1.7e308),
                           "the mass n/(k e^2) at n = 1, k = 1, e^2 = 1.7e+308 underflows "
                           "float64"),
    "mass-past-float64": (
        lambda: MassEstimate(Fraction(1, 9), Fraction(1, 10**400)).mass,
        "the mass n/(k e^2) at n = 1, k = 0.111111, e^2 = 1e-400 overflows float64"),
}


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_values_outside_float64_are_domain_errors_naming_the_inputs(case):
    call, message = _FAULTS[case]
    with pytest.raises(comptonqcd.DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_non_finite_positions_and_displacements_are_rejected():
    # nan and inf once reached Fraction(), which raised a bare ValueError or OverflowError
    cfg = comptonqcd.proton_configuration(Quantity(1.0, -1))
    with pytest.raises(comptonqcd.DomainError, match=r"^positions must be finite"):
        QuarkConfiguration(cfg.charges, (0.0, math.nan, 1.0), cfg.separation)
    for axis in ("axial", "transverse"):
        with pytest.raises(comptonqcd.SingularConfiguration):
            comptonqcd.central_displacement_energy(cfg, math.nan, axis)
    with pytest.raises(comptonqcd.DomainError, match=r"^slope coefficient must be finite"):
        comptonqcd.effective_mass_from_slope(math.inf)


@pytest.mark.parametrize("charges", [(Fraction(0),) * 3, (0, Fraction(5), Fraction(0))])
def test_configurations_with_no_interacting_pair_have_exactly_zero_energy(charges):
    # an exact zero is not an underflow: no charge product is non-zero
    cfg = QuarkConfiguration(charges, (-1.0, 0.0, 1.0), Quantity(1e100, -1))
    energies = [comptonqcd.configuration_energy(cfg, e_squared=1e-300)]
    for axis in ("axial", "transverse"):
        energies.append(comptonqcd.central_displacement_energy(cfg, 0.1, axis,
                                                               e_squared=1e-300))
    for energy in energies:
        assert energy.value == 0.0 and math.copysign(1.0, energy.value) == 1.0


# each was once coerced: "1/9" and True gave the masses 1233 and 137,
# fermions=True and 2.5 gave 137 and 342.5, float charges made the exact
# energy a float, and the regime read "2" as 2 and True as 1, or raised a
# bare TypeError for "0.5"
_COERCIONS = {
    "slope-str": (lambda: comptonqcd.effective_mass_from_slope("1/9"),
                  "slope coefficient must be a real number, got '1/9'"),
    "slope-bool": (lambda: comptonqcd.effective_mass_from_slope(True),
                   "slope coefficient must be a real number, got True"),
    "fermions-bool": (lambda: comptonqcd.pion_mass_estimate(fermions=True),
                      "fermion count must be an integer, got True"),
    "fermions-float": (lambda: comptonqcd.effective_mass_from_slope(1, fermions=2.5),
                       "fermion count must be an integer, got 2.5"),
    "estimate-float": (lambda: MassEstimate(0.5, Fraction(1, 137)),
                       "slope coefficient must be an int or a Fraction, got 0.5"),
    "charges-float": (lambda: QuarkConfiguration((0.5, 0.25), (0.0, 1.0), Quantity(1.0, -1)),
                      "charges must be ints or Fractions, got (0.5, 0.25)"),
    "charges-bool": (lambda: QuarkConfiguration((True, Fraction(1)), (0.0, 1.0),
                                                Quantity(1.0, -1)),
                     "charges must be ints or Fractions, got (True, Fraction(1, 1))"),
    "regime-str": (lambda: comptonqcd.classify_regime("2"),
                   "scale ratio must be a real number, got '2'"),
    "regime-bool": (lambda: comptonqcd.classify_regime(True),
                    "scale ratio must be a real number, got True"),
    "regime-band-str": (lambda: comptonqcd.classify_regime(2.0, "0.5"),
                        "band halfwidth must be a real number, got '0.5'"),
}


@pytest.mark.parametrize("case", sorted(_COERCIONS))
def test_inexact_or_non_real_inputs_are_domain_errors(case):
    call, message = _COERCIONS[case]
    with pytest.raises(comptonqcd.DomainError) as exc:
        call()
    assert str(exc.value) == message
