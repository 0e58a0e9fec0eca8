"""Spherically symmetric energy-density sources and their field integrals.

A source is either a uniform ball or a tabulated radial profile with finite
support.  Spherical symmetry reduces the two three-dimensional kernels to
one-dimensional integrals over the source radius r':

    inverse kernel:  (2*pi/r) * Int r' eps(r') [(r + r') - |r - r'|] dr'
    linear kernel:   (2*pi/(3*r)) * Int r' eps(r') [(r + r')^3 - |r - r'|^3] dr'

For a uniform ball both integrals are polynomials in r (and 1/r), evaluated in
closed form with no quadrature.  For a tabulated profile both integrands have
a kink at r' = r, so they run as composite Simpson on each smooth piece (each
table segment, split at r), about DEFAULT_INTERVALS panels per integral.
Tables are renormalized at construction with the same rule, which makes the
shell theorem (exterior inverse kernel equal to E_tot/r) hold to rounding
accuracy for every table.

The near-field potential combines the kernels as

    4*m*(inverse kernel) + 2*m^3*(linear kernel)

where the m^2 factor on the linear term stands in for the second time
derivative of the source via the Compton-frequency substitution d/dt -> m.
The far-field coupling is the d/3 trace fraction of the calibrated Coulomb
coupling e^2/r, valid only outside the Compton wavelength.
"""

from __future__ import annotations

import csv
import math
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Union

from .errors import (
    DomainError,
    InvalidDimension,
    InvalidSource,
    RegimeError,
)
from .natunits import Frozen, Quantity, compton_wavelength, is_normal, resolve_e_squared
from .quadrature import composite_simpson

# numpy is imported inside the functions that use it, so that the exact
# subcommands, which load this module, never import it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "UniformBall",
    "RadialTable",
    "SourceDensity",
    "ClampWarning",
    "default_source",
    "load_source_csv",
    "radial_reduce_inverse",
    "radial_reduce_linear",
    "near_field_potential",
    "far_field_coupling",
    "DEFAULT_INTERVALS",
]

DEFAULT_INTERVALS = 4096


class ClampWarning(RuntimeWarning):
    """Evaluation radius was clamped away from zero for a tabulated profile."""


def _check_radius(q: Quantity, name: str) -> None:
    if q.dim != -1:
        raise DomainError(f"{name} must have dim -1, got dim {q.dim}")


def _check_energy(q: Quantity, name: str) -> None:
    if q.dim != 1:
        raise DomainError(f"{name} must have dim 1, got dim {q.dim}")


class UniformBall(Frozen):
    """Constant density inside a ball of radius R carrying total energy E_tot."""

    __slots__ = ("support_radius", "total_energy")

    def __init__(self, support_radius: Quantity, total_energy: Quantity) -> None:
        _check_radius(support_radius, "support_radius")
        _check_energy(total_energy, "total_energy")
        if support_radius.value <= 0.0:
            raise InvalidSource("support radius must be positive")
        if total_energy.value <= 0.0:
            raise InvalidSource("total energy must be positive")
        self._fill(support_radius, total_energy)


class RadialTable(Frozen):
    """Piecewise-linear density samples (r', eps(r')), renormalized to E_tot.

    Below the first sampled radius the density extends flat; the last sample
    must be zero and marks the support radius.  Build instances through
    :meth:`from_samples` or :func:`load_source_csv`: the stored densities must
    satisfy 4*pi*Int r'^2 eps dr' = E_tot to 1e-10 relative, and construction
    rejects tables that do not.
    """

    __slots__ = ("radii", "densities", "support_radius", "total_energy")

    def __init__(self, radii: tuple[float, ...], densities: tuple[float, ...],
                 support_radius: Quantity, total_energy: Quantity) -> None:
        _check_radius(support_radius, "support_radius")
        _check_energy(total_energy, "total_energy")
        _validate_samples(radii, densities)
        if support_radius.value != radii[-1]:
            raise InvalidSource("support radius must equal the last sampled radius")
        if total_energy.value <= 0.0:
            raise InvalidSource("total energy must be positive")
        norm = _table_integral(
            radii, densities, lambda x: 4.0 * math.pi * x * x, 0.0, radii[-1]
        )
        if abs(norm - total_energy.value) > 1e-10 * total_energy.value:
            raise InvalidSource(
                "densities are not normalized to the total energy; "
                "build the table with RadialTable.from_samples"
            )
        self._fill(radii, densities, support_radius, total_energy)

    @staticmethod
    def from_samples(
        radii: "list[float] | tuple[float, ...] | np.ndarray",
        densities: "list[float] | tuple[float, ...] | np.ndarray",
        total_energy: Quantity,
    ) -> "RadialTable":
        """Validate the samples and rescale them so they integrate to E_tot."""
        r = tuple(float(x) for x in radii)
        eps = tuple(float(x) for x in densities)
        _validate_samples(r, eps)
        _check_energy(total_energy, "total_energy")
        if total_energy.value <= 0.0:
            raise InvalidSource("total energy must be positive")
        norm = _table_integral(r, eps, lambda x: 4.0 * math.pi * x * x, 0.0, r[-1])
        if norm <= 0.0:
            raise InvalidSource("profile integrates to zero energy")
        scale = total_energy.value / norm
        return RadialTable(r, tuple(e * scale for e in eps), Quantity(r[-1], -1), total_energy)


def _validate_samples(r: tuple[float, ...], eps: tuple[float, ...]) -> None:
    if len(r) != len(eps) or len(r) < 2:
        raise InvalidSource("need at least two (r, eps) samples of equal length")
    if r[0] < 0.0:
        raise InvalidSource("radii must be non-negative")
    if any(b <= a for a, b in zip(r, r[1:])):
        raise InvalidSource("radii must be strictly increasing")
    if any(e < 0.0 for e in eps):
        raise InvalidSource("densities must be non-negative")
    if eps[-1] != 0.0:
        raise InvalidSource("final sample must have eps = 0 (support edge)")


SourceDensity = Union[UniformBall, RadialTable]


def default_source(m: Quantity) -> UniformBall:
    """Uniform ball with the Compton wavelength as radius and rest energy m."""
    return UniformBall(compton_wavelength(m), m)


def load_source_csv(path: str, total_energy: Quantity) -> RadialTable:
    """Load a two-column profile CSV with header ``r,eps``.

    Radii must increase strictly and the final row must carry eps = 0.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [c.strip() for c in rows[0]] != ["r", "eps"]:
        raise InvalidSource(f"{path}: expected header 'r,eps'")
    radii: list[float] = []
    densities: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise InvalidSource(f"{path}:{lineno}: expected two columns")
        try:
            radii.append(float(row[0]))
            densities.append(float(row[1]))
        except ValueError as exc:
            raise InvalidSource(f"{path}:{lineno}: {exc}") from exc
    return RadialTable.from_samples(radii, densities, total_energy)


# ---------------------------------------------------------------------------
# table quadrature


def _table_integral(
    radii: tuple[float, ...],
    densities: tuple[float, ...],
    weight: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> float:
    """Integrate weight(r') * eps(r') for a tabulated profile over [lo, hi].

    Composite Simpson runs inside each smooth piece (each table segment, split
    at lo and hi), about DEFAULT_INTERVALS panels over the whole span, so the
    piecewise-linear profile never straddles a quadrature panel.
    """
    import numpy as np

    if hi <= lo:
        return 0.0
    edges = [lo] + [p for p in radii if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        n = max(4, int(round(DEFAULT_INTERVALS * (b - a) / (hi - lo))))
        n += n % 2
        x = np.linspace(a, b, n + 1)
        eps = np.interp(x, radii, densities, left=densities[0], right=0.0)
        total += composite_simpson(weight(x) * eps, (b - a) / n)
    return total


# ---------------------------------------------------------------------------
# kernel integrals


def _radius_value(r: Quantity) -> float:
    _check_radius(r, "r")
    if r.value < 0.0:
        raise DomainError(f"radius must be non-negative, got {r.value}")
    return r.value


def radial_reduce_inverse(src: SourceDensity, r: Quantity) -> Quantity:
    """Inverse-distance kernel Int eps(x') / |x - x'| d^3x' at radius r.

    A uniform ball evaluates in closed form: E_tot/r outside, and
    E_tot (3R^2 - r^2) / (2R^3) inside.  For a tabulated profile exterior
    points reproduce E_tot/r to rounding accuracy (shell theorem), and r = 0
    is clamped to R / DEFAULT_INTERVALS with :class:`ClampWarning`.
    """
    rv = _radius_value(r)
    R = src.support_radius.value
    if isinstance(src, UniformBall):
        E = src.total_energy.value
        if rv >= R:
            return Quantity(E / rv, 2)
        t = rv / R
        return Quantity(E / R * (3.0 - t * t) / 2.0, 2)
    if rv == 0.0:
        rv = R / DEFAULT_INTERVALS
        warnings.warn(
            f"r = 0 clamped to the grid spacing {rv:.3e} for a tabulated profile",
            ClampWarning,
            stacklevel=2,
        )
    radii, densities, split = src.radii, src.densities, min(rv, R)
    # r' <= r: (r + r') - |r - r'| = 2 r';   r' >= r: it equals 2 r.
    total = _table_integral(radii, densities, lambda x: x * ((rv + x) - (rv - x)), 0.0, split)
    total += _table_integral(radii, densities, lambda x: x * ((rv + x) - (x - rv)), split, R)
    return Quantity(2.0 * math.pi / rv * total, 2)


def radial_reduce_linear(src: SourceDensity, r: Quantity) -> Quantity:
    """Linear-distance kernel Int eps(x') |x - x'| d^3x' at radius r.

    A uniform ball evaluates in closed form: E_tot (r + R^2/(5r)) outside, and
    E_tot (r^2/(2R) + 3R/4 - r^4/(20R^3)) inside.  For a tabulated profile
    the r = 0 limit is the mean-radius integral 4*pi*Int r'^3 eps dr',
    evaluated directly.
    """
    rv = _radius_value(r)
    R = src.support_radius.value
    if isinstance(src, UniformBall):
        E = src.total_energy.value
        if rv >= R:
            return Quantity(E * (rv + R * (R / rv) / 5.0), 0)
        t = rv / R
        return Quantity(E * R * (t * t / 2.0 + 0.75 - t**4 / 20.0), 0)
    radii, densities, split = src.radii, src.densities, min(rv, R)
    if rv == 0.0:
        total = _table_integral(radii, densities, lambda x: 4.0 * math.pi * x**3, 0.0, R)
        return Quantity(total, 0)
    total = _table_integral(
        radii, densities, lambda x: x * ((rv + x) ** 3 - (rv - x) ** 3), 0.0, split
    )
    total += _table_integral(
        radii, densities, lambda x: x * ((rv + x) ** 3 - (x - rv) ** 3), split, R
    )
    return Quantity(2.0 * math.pi / (3.0 * rv) * total, 0)


def near_field_potential(src: SourceDensity, m: Quantity, r: Quantity) -> Quantity:
    """Near-field potential 4*m*(inverse kernel) + 2*m^3*(linear kernel).

    The m^2 factor on the linear term models the second time derivative of
    the source through the Compton-frequency substitution; the additive
    constant terms carry no r dependence and are dropped.  Every factor is
    positive, so one that is not a normal float64 raises :class:`DomainError`.
    """
    _check_energy(m, "m")
    if m.value <= 0.0:
        raise DomainError("mass must be positive")
    inv = radial_reduce_inverse(src, r)
    lin = radial_reduce_linear(src, r)
    inverse_term = 4.0 * (m * inv)
    cube = m**3
    linear_term = 2.0 * (cube * lin)
    if not is_normal(inv.value, lin.value, cube.value, inverse_term.value, linear_term.value):
        raise DomainError(f"the near field at m = {m.value:g}, r = {r.value:g} "
                          "underflows float64")
    return inverse_term + linear_term


def far_field_coupling(
    src: SourceDensity | None,
    m: Quantity,
    d: int,
    r: Quantity,
    *,
    e_squared: "Fraction | float | None" = None,
) -> Quantity:
    """Far-field coupling (d/3) * e^2 * (E_tot/m) / r outside the Compton scale.

    Each of the d diagonal stress components contributes one third of the
    energy density, so three dimensions reproduce the full Coulomb coupling
    e^2/r for the default source (the calibration anchor), and one or two
    dimensions leave the fractions 1/3 and 2/3.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2, 3):
        raise InvalidDimension(f"spatial dimension must be 1, 2, or 3, got {d!r}")
    if src is None:
        src = default_source(m)
    _check_radius(r, "r")
    lam = compton_wavelength(m)
    if r.value <= lam.value:
        raise RegimeError(
            f"far-field form needs r > Compton wavelength ({lam.value:.6g}), got {r.value:.6g}"
        )
    e2 = resolve_e_squared(e_squared)
    energy_ratio = src.total_energy.value / m.value
    return Quantity(float(Fraction(d, 3)) * float(e2) * energy_ratio / r.value, 1)
