"""Mass estimates from the confinement-slope comparison, plus the scale classifier.

Matching a measured linear slope k * e^2 / l^2 against the model form
(1/m) * m_e / l^2 gives m = m_e / (k * e^2); the separation l cancels.  With
k = 1/9 (the three-quark line) and e^2 = 1/137 this lands on 1233 m_e, and
with k = 1 on 137 m_e per fermion, 274 m_e for a two-fermion state.

All masses are exact rationals derived from the stored fields, so the chain
reproduces bit for bit at the default coupling e^2 = 1/137.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .natunits import Frozen, Quantity, normal_float, range_error, resolve_e_squared
from .potential import charge_fraction

__all__ = [
    "MassEstimate",
    "Regime",
    "effective_mass_from_slope",
    "quark_mass_estimate",
    "pion_mass_estimate",
    "order_of_magnitude_ok",
    "classify_regime",
    "derivation_report",
    "format_exact",
]

QUARK_SLOPE_COEFFICIENT = Fraction(1, 9)
PION_SLOPE_COEFFICIENT = Fraction(1)
PION_FERMION_COUNT = 2


class MassEstimate(Frozen):
    """A mass in units of m_e, reproducible from its defining fields.

    mass = fermions / (slope_coefficient * e_squared); ``fermions`` counts
    the constituents (1 unless stated otherwise).  The coefficient and e^2
    are exact: ints or rationals.  ``mass`` raises :class:`DomainError` when
    the mass is not a normal float64.
    """

    __slots__ = ("slope_coefficient", "e_squared", "fermions")

    def __init__(self, slope_coefficient: Fraction, e_squared: Fraction,
                 fermions: int = 1) -> None:
        for name, value in (("slope coefficient", slope_coefficient), ("e^2", e_squared)):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise DomainError(f"{name} must be an int or a Fraction, got {value!r}")
        if isinstance(fermions, bool) or not isinstance(fermions, int):
            raise DomainError(f"fermion count must be an integer, got {fermions!r}")
        if slope_coefficient <= 0:
            raise DomainError(f"slope coefficient must be positive, got {slope_coefficient}")
        if e_squared <= 0:
            raise DomainError(f"e^2 must be positive, got {e_squared}")
        if fermions < 1:
            raise DomainError(f"fermion count must be at least 1, got {fermions}")
        self._fill(slope_coefficient, e_squared, fermions)

    @property
    def mass_fraction(self) -> Fraction:
        return Fraction(self.fermions) / (self.slope_coefficient * self.e_squared)

    @property
    def mass(self) -> Quantity:
        return Quantity(normal_float(self.mass_fraction, "the mass n/(k e^2) at n = {}, k = {}, "
                                     "e^2 = {}", self.fermions, self.slope_coefficient,
                                     self.e_squared), 1)


def effective_mass_from_slope(
    k: Fraction | int | float,
    *,
    e_squared: Fraction | float | None = None,
    fermions: int = 1,
) -> MassEstimate:
    """Mass m_e / (k * e^2) implied by a linear slope coefficient k.

    k is a real number other than a bool; a float converts exactly.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Real):
        raise DomainError(f"slope coefficient must be a real number, got {k!r}")
    if isinstance(k, float) and not math.isfinite(k):
        raise DomainError(f"slope coefficient must be finite, got {k}")
    coeff = k if isinstance(k, Fraction) else Fraction(k)
    return MassEstimate(coeff, resolve_e_squared(e_squared), fermions)


def quark_mass_estimate(*, e_squared: Fraction | float | None = None) -> MassEstimate:
    """Quark mass from the k = 1/9 slope: 9/e^2 = 1233 m_e at e^2 = 1/137."""
    return effective_mass_from_slope(QUARK_SLOPE_COEFFICIENT, e_squared=e_squared)


def pion_mass_estimate(
    *, e_squared: Fraction | float | None = None, fermions: int = PION_FERMION_COUNT
) -> MassEstimate:
    """Pion mass from the k = 1 slope with two constituent fermions: 274 m_e.

    ``fermions=1`` gives the single-fermion value 137 m_e.
    """
    return effective_mass_from_slope(
        PION_SLOPE_COEFFICIENT, e_squared=e_squared, fermions=fermions
    )


def order_of_magnitude_ok(estimate: MassEstimate) -> bool:
    """True when the mass sits strictly within one decade of 10^3 m_e."""
    return 100 < estimate.mass_fraction < 10_000


class Regime(str, Enum):
    ELECTRON = "Electron"
    PION = "Pion"
    QUARK = "Quark"


def classify_regime(scale_over_compton: float, band_halfwidth: float = 0.5) -> Regime:
    """Classify a probe scale (as a multiple of the Compton wavelength).

    Quark at or below 1 - delta, Electron at or above 1 + delta, Pion in the
    band between; delta defaults to 0.5.  Both are real numbers other than
    bools, compared exactly; a ratio past float64's range is a
    :class:`DomainError`.
    """
    x, delta = scale_over_compton, band_halfwidth
    for name, value in (("scale ratio", x), ("band halfwidth", delta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
    if not x > 0:
        raise DomainError(f"scale ratio must be positive, got {x}")
    if not x < math.inf:
        raise DomainError(f"scale ratio must be finite, got {x}")
    if x > sys.float_info.max:  # an int or a rational too large for a float
        raise range_error((math.inf,), "the scale ratio {}", Fraction(x))
    if not 0 < delta < 1:
        raise DomainError(f"band halfwidth must lie in (0, 1), got {delta}")
    if x <= 1 - delta:
        return Regime.QUARK
    if x >= 1 + delta:
        return Regime.ELECTRON
    return Regime.PION


def format_exact(value: Fraction) -> str:
    """Render a rational exactly: integers plain, terminating decimals as
    decimals, everything else as p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = value * Fraction(10) ** digits
        text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
        sign = "-" if value < 0 else ""
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"


def derivation_report(*, e_squared: Fraction | float | None = None) -> dict:
    """The full derivation chain at coupling e^2 (default 1/137) as an ordered report.

    Returns {"steps": [...]} where each step carries the step index, a
    human-readable quantity, the exact value string, a float view (null for
    flags), the units, and a short tag naming the relation used.  A mass
    whose float view is not a normal float64 raises :class:`DomainError`.
    """
    e2 = resolve_e_squared(e_squared)
    quark = quark_mass_estimate(e_squared=e2)
    pion_single = pion_mass_estimate(e_squared=e2, fermions=1)
    pion = pion_mass_estimate(e_squared=e2)
    order_ok = order_of_magnitude_ok(quark)
    steps = [
        _step(1, "coupling e^2", e2, "1", "coupling-choice"),
        _step(2, "charge fraction (d=1)", charge_fraction(1), "e", "trace-fraction"),
        _step(3, "charge fraction (d=2)", charge_fraction(2), "e", "trace-fraction"),
        _step(4, "confinement slope coefficient k", QUARK_SLOPE_COEFFICIENT, "e^2/l^2", "three-quark-line"),
        _step(5, "quark mass", quark, "m_e", "slope-match"),
        {
            "step": 6,
            "quantity": "quark mass order of magnitude (10^3 m_e)",
            "value": "satisfied" if order_ok else "violated",
            "value_float": None,
            "units": "",
            "paper_eq": "order-estimate",
        },
        _step(7, "single-fermion mass", pion_single, "m_e", "compton-edge"),
        _step(8, "pion mass (two fermions)", pion, "m_e", "compton-edge"),
    ]
    return {"steps": steps}


def _step(idx: int, quantity: str, value: Fraction | MassEstimate, units: str,
          tag: str) -> dict:
    """One report step; a mass's float view is the checked ``MassEstimate.mass``."""
    if isinstance(value, MassEstimate):
        value, value_float = value.mass_fraction, value.mass.value
    else:
        value_float = float(value)
    return {
        "step": idx,
        "quantity": quantity,
        "value": format_exact(value),
        "value_float": value_float,
        "units": units,
        "paper_eq": tag,
    }
