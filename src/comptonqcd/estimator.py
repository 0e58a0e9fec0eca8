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
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .natunits import Frozen, Quantity, resolve_e_squared
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
    the constituents (1 unless stated otherwise).
    """

    __slots__ = ("slope_coefficient", "e_squared", "fermions")

    def __init__(self, slope_coefficient: Fraction, e_squared: Fraction,
                 fermions: int = 1) -> None:
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
        return Quantity(float(self.mass_fraction), 1)


def effective_mass_from_slope(
    k: Fraction | int | float,
    *,
    e_squared: Fraction | float | None = None,
    fermions: int = 1,
) -> MassEstimate:
    """Mass m_e / (k * e^2) implied by a linear slope coefficient k."""
    coeff = k if isinstance(k, Fraction) else Fraction(k)
    if coeff <= 0:
        raise DomainError(f"slope coefficient must be positive, got {k}")
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


def order_of_magnitude_ok(estimate: MassEstimate, power: int = 3) -> bool:
    """True when the mass sits strictly within one decade of 10**power m_e."""
    mass = estimate.mass_fraction
    return Fraction(10) ** (power - 1) < mass < Fraction(10) ** (power + 1)


class Regime(str, Enum):
    ELECTRON = "Electron"
    PION = "Pion"
    QUARK = "Quark"


def classify_regime(scale_over_compton: float, band_halfwidth: float = 0.5) -> Regime:
    """Classify a probe scale (as a multiple of the Compton wavelength).

    Quark at or below 1 - delta, Electron at or above 1 + delta, Pion in the
    band between; delta defaults to 0.5.
    """
    x = float(scale_over_compton)
    if not x > 0.0:
        raise DomainError(f"scale ratio must be positive, got {scale_over_compton}")
    if not math.isfinite(x):
        raise DomainError(f"scale ratio must be finite, got {scale_over_compton}")
    if not 0.0 < band_halfwidth < 1.0:
        raise DomainError(f"band halfwidth must lie in (0, 1), got {band_halfwidth}")
    if x <= 1.0 - band_halfwidth:
        return Regime.QUARK
    if x >= 1.0 + band_halfwidth:
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
    flags), the units, and a short tag naming the relation used.
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
        _step(5, "quark mass", quark.mass_fraction, "m_e", "slope-match"),
        {
            "step": 6,
            "quantity": "quark mass order of magnitude (10^3 m_e)",
            "value": "satisfied" if order_ok else "violated",
            "value_float": None,
            "units": "",
            "paper_eq": "order-estimate",
        },
        _step(7, "single-fermion mass", pion_single.mass_fraction, "m_e", "compton-edge"),
        _step(8, "pion mass (two fermions)", pion.mass_fraction, "m_e", "compton-edge"),
    ]
    return {"steps": steps}


def _step(idx: int, quantity: str, value: Fraction, units: str, tag: str) -> dict:
    return {
        "step": idx,
        "quantity": quantity,
        "value": format_exact(value),
        "value_float": float(value),
        "units": units,
        "paper_eq": tag,
    }
