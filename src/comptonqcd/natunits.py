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
import sys
from fractions import Fraction

from .errors import DimensionError, DivByZero, DomainError, InvalidMass, InvalidQuantity

__all__ = [
    "Quantity",
    "compton_wavelength",
    "resolve_e_squared",
    "is_normal",
    "normal_float",
    "range_error",
    "E2_PAPER",
    "E2_PRECISE",
]

E2_PAPER = Fraction(1, 137)
E2_PRECISE = Fraction(1_000_000, 137_035_999)  # exactly 1/137.035999


class Frozen:
    """Base of the immutable value types, in place of a frozen dataclass.

    A subclass's fields are its ``__slots__``, in order, and its ``__init__``
    takes them in that order: it checks its arguments, then stores them with
    :meth:`_fill`.  Assignment and deletion then raise AttributeError.
    ``==``, ``hash``, ``repr`` and pickling go by the fields, as a frozen
    dataclass's do; ``repr`` leaves out the fields named in ``_unshown``.
    """

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


class Quantity(Frozen):
    """A real value paired with an integer mass-dimension exponent."""

    __slots__ = ("value", "dim")

    def __init__(self, value: float, dim: int) -> None:
        # the tuple test is a fast path; numbers.Real also admits numpy scalars
        if isinstance(value, bool) or not (
            isinstance(value, (int, float)) or isinstance(value, numbers.Real)
        ):
            raise InvalidQuantity(f"value must be a real number, got {value!r}")
        val = float(value)
        if not math.isfinite(val):
            raise InvalidQuantity(f"value must be finite, got {val!r}")
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise InvalidQuantity(f"dim must be an integer, got {dim!r}")
        # two direct stores: _fill's loop would slow the most built type by a third
        object.__setattr__(self, "value", val)
        object.__setattr__(self, "dim", dim)

    # Each forward operator computes its result; a reflected one lifts the
    # bare number to a dim-0 Quantity and hands it to the forward operator.
    def __add__(self, other: "Quantity | float | int") -> "Quantity":
        value, dim = _operand(other)
        if dim != self.dim:
            raise DimensionError(f"cannot add dim {self.dim} and dim {dim}")
        return Quantity(self.value + value, dim)

    def __radd__(self, other: "float | int") -> "Quantity":
        return Quantity(other, 0) + self

    def __sub__(self, other: "Quantity | float | int") -> "Quantity":
        value, dim = _operand(other)
        if dim != self.dim:
            raise DimensionError(f"cannot sub dim {self.dim} and dim {dim}")
        return Quantity(self.value - value, dim)

    def __rsub__(self, other: "float | int") -> "Quantity":
        return Quantity(other, 0) - self

    def __mul__(self, other: "Quantity | float | int") -> "Quantity":
        value, dim = _operand(other)
        return Quantity(self.value * value, self.dim + dim)

    def __rmul__(self, other: "float | int") -> "Quantity":
        return Quantity(other, 0) * self

    def __truediv__(self, other: "Quantity | float | int") -> "Quantity":
        value, dim = _operand(other)
        if value == 0.0:
            raise DivByZero("division by a zero quantity")
        return Quantity(self.value / value, self.dim - dim)

    def __rtruediv__(self, other: "float | int") -> "Quantity":
        return Quantity(other, 0) / self

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __pow__(self, exponent: int) -> "Quantity":
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise DimensionError("quantity exponents must be integers")
        if exponent < 0 and self.value == 0.0:
            raise DivByZero("division by a zero quantity")
        try:
            value = self.value**exponent
        except OverflowError:  # float ** int raises where float * float gives inf
            value = math.inf
        return Quantity(value, self.dim * exponent)


def _operand(x: Quantity | float | int) -> tuple[float, int]:
    """The value and dim of an operand; a bare number is checked as a dim-0 Quantity."""
    if not isinstance(x, Quantity):
        x = Quantity(x, 0)
    return x.value, x.dim


def compton_wavelength(m: Quantity) -> Quantity:
    """Return 1/m: the Compton wavelength of a mass in natural units.

    One that is not a normal float64 raises :class:`DomainError`.
    """
    if m.dim != 1:
        raise DimensionError(f"mass must have dim 1, got dim {m.dim}")
    if m.value <= 0.0:
        raise InvalidMass(f"mass must be positive, got {m.value}")
    return Quantity(normal_float(1.0 / m.value, "the Compton wavelength 1/m at m = {}", m.value),
                    -1)


def resolve_e_squared(e_squared: Fraction | float | int | None) -> Fraction:
    """Normalize an optional e^2 override to an exact rational.

    None selects the default 1/137.  Floats convert exactly (every finite
    float is a dyadic rational), so an explicit float override stays
    reproducible; a bool or a value that is not a real number, nan,
    infinities and an e^2 whose float64 is not normal raise
    :class:`DomainError`.
    """
    if e_squared is None:
        return E2_PAPER
    if isinstance(e_squared, bool) or not isinstance(e_squared, (Fraction, numbers.Real)):
        raise DomainError(f"e^2 must be a real number, got {e_squared!r}")
    if isinstance(e_squared, float) and not math.isfinite(e_squared):
        raise DomainError(f"e^2 must be finite, got {e_squared}")
    frac = e_squared if isinstance(e_squared, Fraction) else Fraction(e_squared)
    if frac <= 0:
        raise DomainError(f"e^2 must be positive, got {e_squared}")
    normal_float(frac, "e^2 = {}", frac)
    return frac


def is_normal(*values: float) -> bool:
    """True when every value is a normal float64: finite, and neither zero nor subnormal.

    A result that is non-zero in exact arithmetic must pass: float64 rounds
    one too large to inf, and one too small to a subnormal or to zero, which
    has lost its value.
    """
    for value in values:
        if not sys.float_info.min <= abs(value) < math.inf:
            return False
    return True


def range_error(values, what: str, *inputs) -> DomainError:
    """The DomainError "<what> overflows float64" if any value is inf or nan, else "underflows".

    Each ``{}`` in ``what`` takes one of ``inputs``: a number to ``%.6g``, a string as it is.
    """
    bound = "underflows" if all(map(math.isfinite, values)) else "overflows"
    return DomainError(f"{what.format(*map(_g, inputs))} {bound} float64")


def normal_float(value: Fraction | float, what: str, *inputs) -> float:
    """``float(value)``, which must be a normal float64 unless value is an exact zero.

    Only an int or a rational zero is exact; a float zero may have underflowed.
    Otherwise it raises :func:`range_error` for ``what`` and ``inputs``.  A
    rational too large for a float overflows: ``float`` raises OverflowError
    for it where float arithmetic gives inf.
    """
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if is_normal(result) or (value == 0 and isinstance(value, (int, Fraction))):
        return result
    raise range_error((result,), what, *inputs)


def _g(x) -> str:
    """A number as ``%.6g`` prints a float; a rational may lie past float64's range.

    A string prints as it is, and so does an int that float64 holds exactly
    (up to 2**53), such as a count; a larger int prints as a rational does
    (``1e+300``, ``1e+400``), not as its hundreds of digits.
    """
    if isinstance(x, str) or (isinstance(x, int) and abs(x) <= 2**53):
        return str(x)
    if isinstance(x, (int, Fraction)):
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if x != 0 and not is_normal(value):
            from decimal import Context

            return f"{Context(prec=6).divide(x.numerator, x.denominator).normalize():g}"
        x = value
    return f"{x:.6g}"
