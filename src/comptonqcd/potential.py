"""Cornell potential, fractional charges, and the three-quark line configuration.

The potential is V(r) = -alpha/r + sigma*r with a dimensionless Coulomb
strength and a string tension of dimension +2.  For a quark of mass m the
model sets alpha = 1 and sigma = m_e * m (the linear coefficient beta m_e/l^2
with beta = 1/m and l = 1/m).

Charges are exact rationals in units of e: the effective charge in d spatial
dimensions is d/3 because each diagonal stress component carries one third of
the energy density; :func:`charge_fraction` alone states it, for the proton's
charges and ``stressfield``'s far field.  The proton is two charges 2/3
flanking a central charge -1/3 on a line with spacing l; its Coulomb energy
and the energy under small displacements of the central charge are evaluated
exactly in rational arithmetic wherever the geometry allows.

Note on the confining slope: the declared linear coefficient for this
configuration is k e^2/l^2 with k = ``QUARK_SLOPE_COEFFICIENT`` = 1/9, while
the exact symmetric Coulomb expansion of the displaced-charge energy has no
linear term at all (its first derivative vanishes by symmetry and its axial
curvature is negative).  Both are exposed so the relationship stays visible;
see :func:`central_displacement_energy` and :func:`confinement_slope`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    DomainError,
    InvalidDimension,
    InvalidMass,
    SingularConfiguration,
)
from .natunits import Frozen, Quantity, dim_value, normal_float, real, resolve_e_squared

__all__ = [
    "CornellPotential",
    "QuarkConfiguration",
    "cornell_from_quark_mass",
    "evaluate_cornell",
    "charge_fraction",
    "proton_configuration",
    "configuration_energy",
    "configuration_energy_fraction",
    "central_displacement_energy",
    "confinement_slope",
]


class CornellPotential(Frozen):
    """Coulomb-plus-linear potential parameters (alpha dim 0, sigma dim 2)."""

    __slots__ = ("alpha", "sigma")

    def __init__(self, alpha: Quantity, sigma: Quantity) -> None:
        if min(dim_value(alpha, 0, "alpha"), dim_value(sigma, 2, "sigma")) < 0.0:
            raise DomainError("alpha and sigma must be non-negative")
        self._fill(alpha, sigma)


def cornell_from_quark_mass(m_quark: Quantity) -> CornellPotential:
    """Build the model potential for a quark mass: alpha = 1, sigma = m_e*m.

    The confinement length is the quark's Compton wavelength 1/m.
    """
    m = dim_value(m_quark, 1, "quark mass")
    if m <= 0.0:
        raise InvalidMass(f"quark mass must be positive, got {m}")
    # beta * m_e / l^2 with beta = 1/m and l = 1/m collapses to m exactly
    return CornellPotential(Quantity(1.0, 0), Quantity(m, 2))


def evaluate_cornell(potential: CornellPotential, r: Quantity) -> Quantity:
    """Evaluate -alpha/r + sigma*r at a positive radius, correctly rounded.

    V is the exact value of its float inputs, rounded once: it is zero only
    where that value is, and one outside float64's normal range raises
    :class:`DomainError`.
    """
    rv = dim_value(r, -1, "radius")
    if rv <= 0.0:
        raise DomainError(f"radius must be positive, got {rv}")
    alpha, sigma = potential.alpha.value, potential.sigma.value
    x = Fraction(rv)
    value = (Fraction(sigma) * x**2 - Fraction(alpha)) / x
    return Quantity(normal_float(value, "V at alpha = {}, sigma = {}, r = {}",
                                 alpha, sigma, rv), 1)


def charge_fraction(d: int) -> Fraction:
    """Effective charge in units of e for d spatial dimensions: exactly d/3."""
    if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2, 3):
        raise InvalidDimension(f"spatial dimension must be 1, 2, or 3, got {d!r}")
    return Fraction(d, 3)


class QuarkConfiguration(Frozen):
    """Point charges (exact rationals, units of e) on a line with spacing l.

    Each charge is an int or a Fraction, not a bool.  Positions are finite,
    dimensionless multiples of the separation scale l.
    """

    __slots__ = ("charges", "positions", "separation")

    def __init__(self, charges: tuple[Fraction, ...], positions: tuple[float, ...],
                 separation: Quantity) -> None:
        if len(charges) != len(positions) or len(charges) < 2:
            raise DomainError("need at least two charges with matching positions")
        if any(isinstance(q, bool) or not isinstance(q, (int, Fraction)) for q in charges):
            raise DomainError(f"charges must be ints or Fractions, got {charges}")
        if dim_value(separation, -1, "separation") <= 0.0:
            raise DomainError("separation must be a positive length (dim -1)")
        positions = tuple(real(x, "positions") for x in positions)
        if len(set(positions)) != len(positions):
            raise SingularConfiguration("positions must be pairwise distinct")
        self._fill(charges, positions, separation)

    @property
    def total_charge(self) -> Fraction:
        return sum(self.charges, Fraction(0))


QUARK_SLOPE_COEFFICIENT = Fraction(1, 9)  # k of the three-quark line's slope k e^2 / l^2


def proton_configuration(separation: Quantity) -> QuarkConfiguration:
    """Two charges 2/3 (d = 2) at -l and +l around a charge -1/3 (d = 1) at the origin."""
    return QuarkConfiguration(
        charges=(charge_fraction(2), -charge_fraction(1), charge_fraction(2)),
        positions=(-1.0, 0.0, 1.0),
        separation=separation,
    )


def _exact_energy(cfg: QuarkConfiguration, positions: list[Fraction], e2: Fraction) -> Fraction:
    """Exact sum of q_i q_j e^2 / (l |x_i - x_j|) over the pairs, for positions in units of l."""
    total = Fraction(0)
    for i, j in itertools.combinations(range(len(positions)), 2):
        dist = abs(positions[i] - positions[j])
        if dist == 0:
            raise SingularConfiguration("two charges coincide")
        total += cfg.charges[i] * cfg.charges[j] / dist
    return total * e2 / Fraction(cfg.separation.value)


def configuration_energy_fraction(
    cfg: QuarkConfiguration, *, e_squared: Fraction | float | None = None
) -> Fraction:
    """Exact pairwise Coulomb energy sum q_i q_j e^2 / |x_i - x_j| in units 1/l.

    Every float position converts to a rational exactly, so the sum carries
    no rounding at all; multiply by 1/l (also exact) for the energy in m_e.
    """
    positions = [Fraction(x) for x in cfg.positions]
    return _exact_energy(cfg, positions, resolve_e_squared(e_squared))


def configuration_energy(
    cfg: QuarkConfiguration, *, e_squared: Fraction | float | None = None
) -> Quantity:
    """Pairwise Coulomb energy of the configuration as a Quantity (dim 1).

    A non-zero energy that is not a normal float64 raises :class:`DomainError`.
    """
    e2 = resolve_e_squared(e_squared)
    return Quantity(normal_float(configuration_energy_fraction(cfg, e_squared=e2),
                                 "the configuration energy at l = {}, e^2 = {}",
                                 cfg.separation.value, e2), 1)


def _central_index(cfg: QuarkConfiguration) -> int:
    if len(cfg.charges) % 2 == 0:
        raise DomainError("central displacement needs an odd number of charges")
    order = sorted(range(len(cfg.positions)), key=lambda i: cfg.positions[i])
    return order[len(order) // 2]


def central_displacement_energy(
    cfg: QuarkConfiguration,
    displacement: float,
    axis: str = "axial",
    *,
    e_squared: Fraction | float | None = None,
) -> Quantity:
    """Configuration energy with the central charge moved by displacement * l.

    ``axis='axial'`` slides the charge along the line (computed in exact
    rational arithmetic); ``axis='transverse'`` lifts it perpendicular to the
    line (distances pick up square roots, so this path is float).  The
    displacement must keep the central charge strictly between its neighbours,
    |displacement| < 1.  A non-zero energy that is not a normal float64
    raises :class:`DomainError`; a transverse energy is an exact zero only
    when every pair's charge product is zero, and any float zero underflowed.
    """
    if axis not in ("axial", "transverse"):
        raise DomainError(f"axis must be 'axial' or 'transverse', got {axis!r}")
    displacement = real(displacement, "displacement")
    if not abs(displacement) < 1.0:
        raise SingularConfiguration(
            "displacement must satisfy |d| < 1 to keep the central charge inside"
        )
    e2 = resolve_e_squared(e_squared)
    c = _central_index(cfg)
    what = "the {} displacement energy at l = {}, d = {}, e^2 = {}"
    inputs = (axis, cfg.separation.value, displacement, e2)
    if axis == "axial":
        positions = [Fraction(x) for x in cfg.positions]
        positions[c] += Fraction(displacement)
        return Quantity(normal_float(_exact_energy(cfg, positions, e2), what, *inputs), 1)
    products = {(i, j): cfg.charges[i] * cfg.charges[j]
                for i, j in itertools.combinations(range(len(cfg.charges)), 2)}
    if not any(products.values()):
        return Quantity(0.0, 1)  # no pair interacts: the energy is exactly zero
    total_f = 0.0
    try:
        for (i, j), product in products.items():
            dy = displacement * ((i == c) - (j == c))
            total_f += float(product) / math.hypot(cfg.positions[i] - cfg.positions[j], dy)
    except OverflowError:  # a charge product too large for a float
        total_f = math.inf
    return Quantity(normal_float(total_f * float(e2) / cfg.separation.value, what, *inputs), 1)


def confinement_slope(
    separation: Quantity, *, e_squared: Fraction | float | None = None
) -> Quantity:
    """Declared linear coefficient k e^2 / l^2 = e^2 / (9 l^2) for the three-quark line.

    Taken as given for the model chain; the exact Coulomb expansion of the
    same configuration has no linear term (see module docstring).  The exact
    value is positive, so one that is not a normal float64 raises
    :class:`DomainError`.
    """
    if dim_value(separation, -1, "separation") <= 0.0:
        raise DomainError("separation must be a positive length (dim -1)")
    e2 = resolve_e_squared(e_squared)
    return Quantity(normal_float(QUARK_SLOPE_COEFFICIENT * e2 / Fraction(separation.value) ** 2,
                                 "the declared slope e^2/(9 l^2) at l = {}, e^2 = {}",
                                 separation.value, e2), 2)
