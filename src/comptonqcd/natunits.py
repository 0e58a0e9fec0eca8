"""Dimension-checked arithmetic in natural units (hbar = c = 1, m_e = 1).

Every quantity carries a single integer mass-dimension exponent: masses and
energies have dimension +1, lengths dimension -1, pure numbers dimension 0.
The electron mass is the base scale, so masses are reported in units of m_e
and lengths in units of the electron Compton wavelength.

The squared electromagnetic coupling e^2 is kept as an exact rational.  The
default E2_PAPER is exactly 1/137 so that derived integer mass ratios (137,
274, 1233) reproduce without float drift; passing ``e_squared=E2_PRECISE``
(1/137.035999) to any function that takes a coupling gives the sensitivity
check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DivByZero, DomainError, InvalidMass, InvalidQuantity

__all__ = [
    "Quantity",
    "make_quantity",
    "qarith",
    "compton_wavelength",
    "resolve_e_squared",
    "E2_PAPER",
    "E2_PRECISE",
]

E2_PAPER = Fraction(1, 137)
E2_PRECISE = Fraction(1_000_000, 137_035_999)  # exactly 1/137.035999


@dataclass(frozen=True)
class Quantity:
    """A real value paired with an integer mass-dimension exponent."""

    value: float
    dim: int

    def __post_init__(self) -> None:
        value = self.value
        # the tuple test is a fast path; numbers.Real also admits numpy scalars
        if isinstance(value, bool) or not (
            isinstance(value, (int, float)) or isinstance(value, numbers.Real)
        ):
            raise InvalidQuantity(f"value must be a real number, got {value!r}")
        val = float(value)
        if not math.isfinite(val):
            raise InvalidQuantity(f"value must be finite, got {val!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, int):
            raise InvalidQuantity(f"dim must be an integer, got {self.dim!r}")
        object.__setattr__(self, "value", val)

    # Arithmetic delegates to qarith; bare numbers lift to dimension 0.
    def __add__(self, other: "Quantity | float | int") -> "Quantity":
        return qarith(self, _lift(other), "add")

    def __radd__(self, other: "float | int") -> "Quantity":
        return qarith(_lift(other), self, "add")

    def __sub__(self, other: "Quantity | float | int") -> "Quantity":
        return qarith(self, _lift(other), "sub")

    def __rsub__(self, other: "float | int") -> "Quantity":
        return qarith(_lift(other), self, "sub")

    def __mul__(self, other: "Quantity | float | int") -> "Quantity":
        return qarith(self, _lift(other), "mul")

    def __rmul__(self, other: "float | int") -> "Quantity":
        return qarith(_lift(other), self, "mul")

    def __truediv__(self, other: "Quantity | float | int") -> "Quantity":
        return qarith(self, _lift(other), "div")

    def __rtruediv__(self, other: "float | int") -> "Quantity":
        return qarith(_lift(other), self, "div")

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __pow__(self, exponent: int) -> "Quantity":
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise DimensionError("quantity exponents must be integers")
        return Quantity(self.value**exponent, self.dim * exponent)


def _lift(x: Quantity | float | int) -> Quantity:
    if isinstance(x, Quantity):
        return x
    return Quantity(x, 0)


def make_quantity(value: float, dim: int) -> Quantity:
    """Construct a Quantity, rejecting non-finite values and fractional dims."""
    return Quantity(value, dim)


def qarith(a: Quantity, b: Quantity, op: str) -> Quantity:
    """Combine two quantities: 'add' | 'sub' | 'mul' | 'div'.

    Addition and subtraction require equal dims; multiplication adds dims and
    division subtracts them (exact integer bookkeeping).
    """
    if op == "add" or op == "sub":
        if a.dim != b.dim:
            raise DimensionError(f"cannot {op} dim {a.dim} and dim {b.dim}")
        value = a.value + b.value if op == "add" else a.value - b.value
        return Quantity(value, a.dim)
    if op == "mul":
        return Quantity(a.value * b.value, a.dim + b.dim)
    if op == "div":
        if b.value == 0.0:
            raise DivByZero("division by a zero quantity")
        return Quantity(a.value / b.value, a.dim - b.dim)
    raise DomainError(f"unknown operation {op!r}")


def compton_wavelength(m: Quantity) -> Quantity:
    """Return 1/m: the Compton wavelength of a mass in natural units."""
    if m.dim != 1:
        raise DimensionError(f"mass must have dim 1, got dim {m.dim}")
    if m.value <= 0.0:
        raise InvalidMass(f"mass must be positive, got {m.value}")
    return Quantity(1.0 / m.value, -1)


def resolve_e_squared(e_squared: Fraction | float | int | None) -> Fraction:
    """Normalize an optional e^2 override to an exact rational.

    None selects the default 1/137.  Floats convert exactly (every finite
    float is a dyadic rational), so an explicit float override stays
    reproducible; nan and infinities raise :class:`DomainError`.
    """
    if e_squared is None:
        return E2_PAPER
    if isinstance(e_squared, float) and not math.isfinite(e_squared):
        raise DomainError(f"e^2 must be finite, got {e_squared}")
    frac = e_squared if isinstance(e_squared, Fraction) else Fraction(e_squared)
    if frac <= 0:
        raise DomainError(f"e^2 must be positive, got {e_squared}")
    return frac
