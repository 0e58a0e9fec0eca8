"""Exception types shared across the toolkit."""

__all__ = [
    "ToolkitError", "InvalidQuantity", "DimensionError", "DivByZero", "InvalidMass",
    "DomainError", "RegimeError", "InvalidDimension", "SingularConfiguration",
    "InvalidSource", "NoBoundState", "GridTooSmall",
]


class ToolkitError(Exception):
    """Base class for every error raised by comptonqcd."""


class InvalidQuantity(ToolkitError, ValueError):
    """A quantity was built from a non-finite value or a non-integer dimension."""


class DimensionError(ToolkitError, ValueError):
    """An argument is not a Quantity of the dim expected, or two dims do not combine."""


class DivByZero(ToolkitError, ZeroDivisionError):
    """Division of quantities by an exactly zero value."""


class InvalidMass(ToolkitError, ValueError):
    """A mass argument was zero or negative."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RegimeError(ToolkitError, ValueError):
    """The far-field form was requested inside the Compton wavelength."""


class InvalidDimension(ToolkitError, ValueError):
    """Spatial dimension count outside {1, 2, 3}."""


class SingularConfiguration(ToolkitError, ValueError):
    """Point charges coincide (or would coincide), so pair energies diverge."""


class InvalidSource(ToolkitError, ValueError):
    """A source density profile violates its construction invariants."""


class NoBoundState(ToolkitError, ValueError):
    """The potential cannot bind any state (both coupling constants zero)."""


class GridTooSmall(ToolkitError, ValueError):
    """The requested level is not representable on the given radial grid."""
