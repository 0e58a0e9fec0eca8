"""Spherically symmetric energy-density sources and their field integrals.

A source is either a uniform ball or a tabulated radial profile with finite
support.  Spherical symmetry reduces the two three-dimensional kernels to
one-dimensional integrals over the source radius r':

    inverse kernel:  (2*pi/r) * Int r' eps(r') [(r + r') - |r - r'|] dr'
    linear kernel:   (2*pi/(3*r)) * Int r' eps(r') [(r + r')^3 - |r - r'|^3] dr'

Outside the support (r >= R) both depend only on the total moments
M_k = 4*pi * Int r'^k eps(r') dr' (the shell theorem): the inverse kernel is
E_tot/r and the linear kernel E_tot*r + M_4/(3r).  For a uniform ball
M_4 = 3 E_tot R^2/5, and inside it both kernels are polynomials in r, so the
ball needs no quadrature at all.  A tabulated profile is piecewise linear, so
each x^k eps(x) is a polynomial of degree <= 5 on each piece and a 3-point
Gauss-Legendre rule per piece gives its moments exactly; they set its
normalization (M_2 = E_tot), its exterior kernels and the r = 0 limit of its
linear kernel.  The same rule over the pieces cut at r gives the partial
moments M_k(a, b) = 4*pi * Int_a^b r'^k eps(r') dr', and with them the
interior inverse kernel M_2(0, r)/r + M_1(r, R).  The interior linear kernel
runs as composite Simpson on the same pieces, cut at r, with a fixed internal
panel count; its weights 6r^2 x^2 + 2x^4 (x <= r) and 6r x^3 + 2r^3 x (x >= r)
are expanded, so no two near-equal cubes cancel at small r.  Only it imports
numpy.

The near-field potential combines the kernels as

    4*m*(inverse kernel) + 2*m^3*(linear kernel)

where the m^2 factor on the linear term stands in for the second time
derivative of the source via the Compton-frequency substitution d/dt -> m.
The far-field coupling is the d/3 trace fraction of the calibrated Coulomb
coupling e^2/r, valid only outside the Compton wavelength.

Each closed form (a ball's kernels, the near field from its two kernel values,
the far-field coupling) is the exact value of its float inputs, rounded once
by ``natunits.normal_float``.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Union

from .errors import (
    DomainError,
    InvalidDimension,
    InvalidSource,
    RegimeError,
)
from .natunits import (Frozen, Quantity, compton_wavelength, is_normal, normal_float,
                       resolve_e_squared)
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
]

# panels per Simpson integral; R / _SIMPSON_INTERVALS is also a table's r = 0 clamp radius
_SIMPSON_INTERVALS = 4096


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

    The samples are tuples of floats, because :class:`Frozen` hashes and
    compares an instance by its fields, and because loading a table, its
    exterior field and its inverse kernel need no numpy.
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
        norm = _energy_moment(radii, densities)
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
        """Validate the samples and rescale them so they integrate to E_tot.

        A non-zero density that the rescale takes below float64's normal range
        (or past it) would no longer be the sample given, so it raises
        :class:`InvalidSource` naming the sample.
        """
        r = tuple(float(x) for x in radii)
        eps = tuple(float(x) for x in densities)
        _validate_samples(r, eps)
        _check_energy(total_energy, "total_energy")
        if total_energy.value <= 0.0:
            raise InvalidSource("total energy must be positive")
        norm = _energy_moment(r, eps)
        if norm <= 0.0:
            raise InvalidSource("profile integrates to zero energy")
        scale = total_energy.value / norm
        stored = tuple(e * scale for e in eps)
        for i, (e, value) in enumerate(zip(eps, stored)):
            if e != 0.0 and not is_normal(value):
                raise InvalidSource(f"sample {i} (r = {r[i]:g}, eps = {e:g}) rescales to "
                                    f"{value:g}, not a normal float64")
        return RadialTable(r, stored, Quantity(r[-1], -1), total_energy)


def _validate_samples(r: tuple[float, ...], eps: tuple[float, ...]) -> None:
    if len(r) != len(eps) or len(r) < 2:
        raise InvalidSource("need at least two (r, eps) samples of equal length")
    # a nan radius would pass the ordering check, since every comparison with
    # nan is false
    for i, (x, e) in enumerate(zip(r, eps)):
        if not (math.isfinite(x) and math.isfinite(e)):
            raise InvalidSource(f"sample {i} (r = {x:g}, eps = {e:g}) is not finite")
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

    Radii must increase strictly and the final row must carry eps = 0.  A
    leading byte-order mark is skipped.  A path that cannot be read, or a file
    that is not UTF-8 text, raises :class:`InvalidSource` naming it.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise InvalidSource(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InvalidSource(f"{path}: cannot read: {exc.strerror or exc}") from exc
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
# table moments and quadrature

# 3-point Gauss-Legendre on a piece [a, b], exact for polynomials of degree
# <= 5: nodes a + s*(b - a) at s = 1/2 -+ sqrt(3/5)/2 and 1/2, weights
# (5/18, 5/18, 4/9) times b - a
_GAUSS_S = 0.5 - 0.5 * math.sqrt(0.6)


def _moment(radii: tuple[float, ...], densities: tuple[float, ...], k: int,
            lo: float = 0.0, hi: float | None = None) -> float:
    """M_k = 4*pi * Int_lo^hi r'^k eps(r') dr' of a table, exact up to rounding (k <= 4).

    The span is [0, R] unless given, 0 <= lo < hi <= R.  eps is linear on each
    piece, the flat core included, so x^k eps(x) has degree <= 5 there and the
    3-point rule is exact.  Each term is a non-negative density at a node
    times a positive weight, so nothing cancels, however narrow the piece; a
    monomial antiderivative c0 (b^(k+1) - a^(k+1))/(k+1) + ... would lose
    digits to cancellation on a narrow piece far from the origin.  A moment past
    float64's range comes back as inf or nan, never as an exception:
    ``float ** int`` raises OverflowError where ``float * float`` gives inf.
    """
    s0, s2 = _GAUSS_S, 1.0 - _GAUSS_S
    total = 0.0
    try:
        for a, b, ea, eb in _clipped_pieces(radii, densities, lo, radii[-1] if hi is None else hi):
            h = b - a
            # eps at the nodes, interpolated without differences
            total += h * (
                5.0 * (a + s0 * h) ** k * (s2 * ea + s0 * eb)
                + 4.0 * (a + 0.5 * h) ** k * (ea + eb)
                + 5.0 * (a + s2 * h) ** k * (s0 * ea + s2 * eb)
            )
    except OverflowError:
        return math.inf
    return 4.0 * math.pi * (total / 18.0)


def _clipped_pieces(radii: tuple[float, ...], densities: tuple[float, ...], lo: float,
                    hi: float) -> Iterator[tuple[float, float, float, float]]:
    """The pieces (a, b, eps(a), eps(b)) of a table cut to [lo, hi], flat core included."""
    i, j = bisect_right(radii, lo), bisect_left(radii, hi)
    xs = (lo, *radii[i:j], hi)
    es = (_density(radii, densities, lo, i), *densities[i:j], _density(radii, densities, hi, j))
    return zip(xs, xs[1:], es, es[1:])


def _density(radii: tuple[float, ...], densities: tuple[float, ...], x: float, p: int) -> float:
    """eps(x) on the piece [radii[p - 1], radii[p]] that holds x, or in the flat core at p = 0."""
    if p == 0:
        return densities[0]
    t = (x - radii[p - 1]) / (radii[p] - radii[p - 1])
    return (1.0 - t) * densities[p - 1] + t * densities[p]


def _energy_moment(radii: tuple[float, ...], densities: tuple[float, ...]) -> float:
    """M_2 of a table, which sets its normalization; one past float64's range is InvalidSource."""
    norm = _moment(radii, densities, 2)
    if not math.isfinite(norm):
        raise InvalidSource(f"the profile's energy integral over radii up to {radii[-1]:g} "
                            "overflows float64")
    return norm


def _table_integral(
    radii: tuple[float, ...],
    densities: tuple[float, ...],
    weight: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> float:
    """Integrate weight(r') * eps(r') for a tabulated profile over [lo, hi].

    Composite Simpson runs inside each piece from :func:`_clipped_pieces`, with
    eps linear between its end values, on its share of about _SIMPSON_INTERVALS
    panels.  Past float64's range the total is inf or nan, with no numpy
    warning: the caller's :func:`_kernel` names the overflow.
    """
    import numpy as np

    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, ea, eb in _clipped_pieces(radii, densities, lo, hi):
            n = max(4, int(round(_SIMPSON_INTERVALS * (b - a) / (hi - lo))))
            n += n % 2
            x = np.linspace(a, b, n + 1)
            eps = ea + (eb - ea) / (b - a) * (x - a)
            total += composite_simpson(weight(x) * eps, (b - a) / n)
    return total


# ---------------------------------------------------------------------------
# kernel integrals


def _radius_value(r: Quantity) -> float:
    _check_radius(r, "r")
    if r.value < 0.0:
        raise DomainError(f"radius must be non-negative, got {r.value}")
    return r.value


def _kernel(name: str, src: SourceDensity, r: Quantity, value: Fraction | float,
            dim: int) -> Quantity:
    """A kernel's value at r, rounded once to a Quantity.

    Every kernel is positive, so one outside float64's normal range raises
    :class:`DomainError` naming the source's radius and r.
    """
    kind = "ball" if isinstance(src, UniformBall) else "table"
    return Quantity(normal_float(value, "the {} kernel of a {} of radius {} at r = {}", name,
                                 kind, src.support_radius.value, r.value), dim)


def radial_reduce_inverse(src: SourceDensity, r: Quantity) -> Quantity:
    """Inverse-distance kernel Int eps(x') / |x - x'| d^3x' at radius r.

    Outside the support (r >= R) it is E_tot/r for every source (shell
    theorem).  Inside, a uniform ball gives E_tot (3R^2 - r^2) / (2R^3),
    correctly rounded; a tabulated profile gives M_2(0, r)/r + M_1(r, R) from
    its exact partial moments M_k(a, b) = 4*pi*Int_a^b r'^k eps dr', and r = 0
    is clamped to R / _SIMPSON_INTERVALS with :class:`ClampWarning`.  A value
    past float64's range raises :class:`DomainError`.
    """
    rv = _radius_value(r)
    R = src.support_radius.value
    E = src.total_energy.value
    if rv >= R:
        # one float division is already correctly rounded
        return _kernel("inverse", src, r, E / rv, 2)
    if isinstance(src, UniformBall):
        x, R = Fraction(rv), Fraction(R)
        return _kernel("inverse", src, r, Fraction(E) * (3 * R**2 - x**2) / (2 * R**3), 2)
    if rv == 0.0:
        rv = R / _SIMPSON_INTERVALS
        warnings.warn(
            f"r = 0 clamped to the grid spacing {rv:.3e} for a tabulated profile",
            ClampWarning,
            stacklevel=2,
        )
    radii, densities = src.radii, src.densities
    # (r + r') - |r - r'| is 2 r' for r' <= r and 2 r for r' >= r
    value = _moment(radii, densities, 2, 0.0, rv) / rv + _moment(radii, densities, 1, rv, R)
    return _kernel("inverse", src, r, value, 2)


def radial_reduce_linear(src: SourceDensity, r: Quantity) -> Quantity:
    """Linear-distance kernel Int eps(x') |x - x'| d^3x' at radius r.

    A uniform ball evaluates in closed form, correctly rounded:
    E_tot (r + R^2/(5r)) outside, and E_tot (r^2/(2R) + 3R/4 - r^4/(20R^3))
    inside.  A tabulated profile gives E_tot*r + M_4/(3r) outside (r >= R)
    and the mean-radius moment M_3 at r = 0, both from its exact moments
    M_k = 4*pi*Int r'^k eps dr', and runs composite Simpson per smooth piece
    at other interior radii.  A value past float64's range raises
    :class:`DomainError`.
    """
    rv = _radius_value(r)
    R = src.support_radius.value
    if isinstance(src, UniformBall):
        E, x, R = Fraction(src.total_energy.value), Fraction(rv), Fraction(R)
        if x >= R:
            return _kernel("linear", src, r, E * (5 * x**2 + R**2) / (5 * x), 0)
        value = E * (10 * (x * R)**2 + 15 * R**4 - x**4) / (20 * R**3)
        return _kernel("linear", src, r, value, 0)
    radii, densities = src.radii, src.densities
    if rv >= R:
        value = src.total_energy.value * rv + _moment(radii, densities, 4) / (3.0 * rv)
        return _kernel("linear", src, r, value, 0)
    if rv == 0.0:
        return _kernel("linear", src, r, _moment(radii, densities, 3), 0)
    # x ((r + x)^3 - |r - x|^3) expanded, so no two near-equal cubes cancel
    # at r << x; r^3 as a product, since float ** int raises OverflowError
    r3 = rv * rv * rv
    total = _table_integral(
        radii, densities, lambda x: 6.0 * rv * rv * x * x + 2.0 * x**4, 0.0, rv
    )
    total += _table_integral(
        radii, densities, lambda x: 6.0 * rv * x**3 + 2.0 * r3 * x, rv, R
    )
    return _kernel("linear", src, r, 2.0 * math.pi / 3.0 * (total / rv), 0)


def near_field_potential(src: SourceDensity, m: Quantity, r: Quantity) -> Quantity:
    """Near-field potential 4*m*(inverse kernel) + 2*m^3*(linear kernel).

    The m^2 factor on the linear term models the second time derivative of
    the source through the Compton-frequency substitution; the additive
    constant terms carry no r dependence and are dropped.  The sum is the
    exact value of the two kernel values and m, rounded once; it is positive,
    so one that is not a normal float64 raises :class:`DomainError`.
    """
    _check_energy(m, "m")
    if m.value <= 0.0:
        raise DomainError("mass must be positive")
    inv = Fraction(radial_reduce_inverse(src, r).value)
    lin = Fraction(radial_reduce_linear(src, r).value)
    mass = Fraction(m.value)
    # m * inverse kernel and m^3 * linear kernel both have dim 3
    return Quantity(normal_float(4 * mass * inv + 2 * mass**3 * lin,
                                 "the near field at m = {}, r = {}", m.value, r.value), 3)


def far_field_coupling(
    src: SourceDensity,
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
    dimensions leave the fractions 1/3 and 2/3.  The coupling is the exact
    value of its inputs, rounded once; it is positive, so one that is not a
    normal float64 raises :class:`DomainError`.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2, 3):
        raise InvalidDimension(f"spatial dimension must be 1, 2, or 3, got {d!r}")
    _check_radius(r, "r")
    lam = compton_wavelength(m)
    if r.value <= lam.value:
        raise RegimeError(
            f"far-field form needs r > Compton wavelength ({lam.value:.6g}), got {r.value:.6g}"
        )
    value = (Fraction(d, 3) * resolve_e_squared(e_squared) * Fraction(src.total_energy.value)
             / (Fraction(m.value) * Fraction(r.value)))
    return Quantity(normal_float(value, "the far field at d = {}, m = {}, r = {}",
                                 d, m.value, r.value), 1)
