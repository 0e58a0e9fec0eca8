"""Cornell potential, fractional charges, and the three-quark line configuration.

The potential is V(r) = -alpha/r + sigma*r with a dimensionless Coulomb
strength and a string tension of dimension +2.  For a quark of mass m the
model sets alpha = 1 and sigma = m_e * m (the linear coefficient beta m_e/l^2
with beta = 1/m and l = 1/m).

Charges are exact rationals in units of e: the effective charge in d spatial
dimensions is d/3 because each diagonal stress component carries one third of
the energy density.  The proton is two charges 2/3 flanking a central charge
-1/3 on a line with spacing l; its Coulomb energy and the energy under small
displacements of the central charge are evaluated exactly in rational
arithmetic wherever the geometry allows.

Note on the confining slope: the declared linear coefficient for this
configuration is e^2/(9 l^2), while the exact symmetric Coulomb expansion of
the displaced-charge energy has no linear term at all (its first derivative
vanishes by symmetry and its axial curvature is negative).  Both quantities
are exposed so the relationship stays visible; see
:func:`central_displacement_energy` and :func:`confinement_slope`.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from .errors import (
    DomainError,
    InvalidDimension,
    InvalidMass,
    SingularConfiguration,
)
from .natunits import Frozen, Quantity, is_normal, resolve_e_squared

__all__ = [
    "CornellPotential",
    "QuarkConfiguration",
    "cornell_from_quark_mass",
    "evaluate_cornell",
    "cornell_zero_radius",
    "charge_fraction",
    "proton_configuration",
    "configuration_energy",
    "configuration_energy_fraction",
    "central_displacement_energy",
    "confinement_slope",
    "configuration_to_json",
    "configuration_from_json",
]


class CornellPotential(Frozen):
    """Coulomb-plus-linear potential parameters (alpha dim 0, sigma dim 2)."""

    __slots__ = ("alpha", "sigma")

    def __init__(self, alpha: Quantity, sigma: Quantity) -> None:
        if alpha.dim != 0:
            raise DomainError(f"alpha must be dimensionless, got dim {alpha.dim}")
        if sigma.dim != 2:
            raise DomainError(f"sigma must have dim 2, got dim {sigma.dim}")
        if alpha.value < 0.0 or sigma.value < 0.0:
            raise DomainError("alpha and sigma must be non-negative")
        self._fill(alpha, sigma)


def cornell_from_quark_mass(
    m_quark: Quantity, separation: Quantity | None = None
) -> CornellPotential:
    """Build the model potential for a quark mass: alpha = 1, sigma = m_e*m.

    The confinement length defaults to the Compton wavelength 1/m; passing
    ``separation`` overrides it, giving sigma = m_e / (m * l^2).
    """
    if m_quark.dim != 1:
        raise InvalidMass(f"quark mass must have dim 1, got dim {m_quark.dim}")
    if m_quark.value <= 0.0:
        raise InvalidMass(f"quark mass must be positive, got {m_quark.value}")
    if separation is None:
        # beta * m_e / l^2 with beta = 1/m and l = 1/m collapses to m exactly
        return CornellPotential(Quantity(1.0, 0), Quantity(m_quark.value, 2))
    if separation.dim != -1 or separation.value <= 0.0:
        raise DomainError("separation must be a positive length (dim -1)")
    sigma = 1.0 / (m_quark.value * separation.value**2)  # m_e = 1 in natural units
    return CornellPotential(Quantity(1.0, 0), Quantity(sigma, 2))


def evaluate_cornell(potential: CornellPotential, r: Quantity) -> Quantity:
    """Evaluate -alpha/r + sigma*r at a positive radius."""
    if r.dim != -1:
        raise DomainError(f"radius must have dim -1, got dim {r.dim}")
    if r.value <= 0.0:
        raise DomainError(f"radius must be positive, got {r.value}")
    return Quantity(-potential.alpha.value / r.value + potential.sigma.value * r.value, 1)


def cornell_zero_radius(potential: CornellPotential) -> Quantity:
    """Radius sqrt(alpha/sigma) where the linear term overtakes the Coulomb term.

    V is strictly increasing (dV/dr = alpha/r^2 + sigma > 0), so this is the
    unique zero of V and the argmin of |V|, not a stationary point.
    """
    if potential.alpha.value <= 0.0 or potential.sigma.value <= 0.0:
        raise DomainError("both terms must be present for a crossover radius")
    return Quantity(math.sqrt(potential.alpha.value / potential.sigma.value), -1)


def charge_fraction(d: int) -> Fraction:
    """Effective charge in units of e for d spatial dimensions: exactly d/3."""
    if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2, 3):
        raise InvalidDimension(f"spatial dimension must be 1, 2, or 3, got {d!r}")
    return Fraction(d, 3)


class QuarkConfiguration(Frozen):
    """Point charges (exact rationals, units of e) on a line with spacing l.

    Positions are dimensionless multiples of the separation scale l.
    """

    __slots__ = ("charges", "positions", "separation")

    def __init__(self, charges: tuple[Fraction, ...], positions: tuple[float, ...],
                 separation: Quantity) -> None:
        if len(charges) != len(positions) or len(charges) < 2:
            raise DomainError("need at least two charges with matching positions")
        if separation.dim != -1 or separation.value <= 0.0:
            raise DomainError("separation must be a positive length (dim -1)")
        if len(set(positions)) != len(positions):
            raise SingularConfiguration("positions must be pairwise distinct")
        self._fill(charges, positions, separation)

    @property
    def total_charge(self) -> Fraction:
        return sum(self.charges, Fraction(0))


def proton_configuration(separation: Quantity) -> QuarkConfiguration:
    """Two charges 2/3 at -l and +l with a central charge -1/3 at the origin."""
    if separation.dim != -1 or separation.value <= 0.0:
        raise DomainError("separation must be a positive length (dim -1)")
    return QuarkConfiguration(
        charges=(Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)),
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
    """Pairwise Coulomb energy of the configuration as a Quantity (dim 1)."""
    return Quantity(float(configuration_energy_fraction(cfg, e_squared=e_squared)), 1)


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
    |displacement| < 1.
    """
    if axis not in ("axial", "transverse"):
        raise DomainError(f"axis must be 'axial' or 'transverse', got {axis!r}")
    if abs(displacement) >= 1.0:
        raise SingularConfiguration(
            "displacement must satisfy |d| < 1 to keep the central charge inside"
        )
    e2 = resolve_e_squared(e_squared)
    c = _central_index(cfg)
    if axis == "axial":
        positions = [Fraction(x) for x in cfg.positions]
        positions[c] += Fraction(displacement)
        return Quantity(float(_exact_energy(cfg, positions, e2)), 1)
    total_f = 0.0
    for i in range(len(cfg.positions)):
        for j in range(i + 1, len(cfg.positions)):
            dx = cfg.positions[i] - cfg.positions[j]
            dy = displacement if i == c else 0.0
            dy -= displacement if j == c else 0.0
            dist_f = math.hypot(dx, dy)
            total_f += float(cfg.charges[i] * cfg.charges[j]) / dist_f
    return Quantity(total_f * float(e2) / cfg.separation.value, 1)


def confinement_slope(
    separation: Quantity, *, e_squared: Fraction | float | None = None
) -> Quantity:
    """Declared linear coefficient e^2 / (9 l^2) for the three-quark line.

    Taken as given for the model chain; the exact Coulomb expansion of the
    same configuration has no linear term (see module docstring).  The exact
    value is positive, so one that is not a normal float64 raises
    :class:`DomainError`.
    """
    if separation.dim != -1 or separation.value <= 0.0:
        raise DomainError("separation must be a positive length (dim -1)")
    e2 = resolve_e_squared(e_squared)
    try:
        value = float(e2 / 9 / Fraction(separation.value) ** 2)
    except OverflowError:
        value = math.inf
    if not is_normal(value):
        raise DomainError(f"l = {separation.value:g} puts the declared slope "
                          "e^2/(9 l^2) outside float64")
    return Quantity(value, 2)


def configuration_to_json(cfg: QuarkConfiguration) -> str:
    """Serialize to the wire form {"charges": [...], "positions": [...], "l": ...}.

    Charges travel as rational strings ("2/3") so the round trip is bit exact.
    """
    payload = {
        "charges": [str(q) for q in cfg.charges],
        "positions": list(cfg.positions),
        "l": cfg.separation.value,
    }
    return json.dumps(payload)


def configuration_from_json(text: str) -> QuarkConfiguration:
    """Parse the JSON wire form produced by :func:`configuration_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid configuration JSON: {exc}") from exc
    try:
        charges = tuple(Fraction(s) for s in payload["charges"])
        positions = tuple(float(x) for x in payload["positions"])
        separation = Quantity(float(payload["l"]), -1)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid configuration JSON: {exc}") from exc
    return QuarkConfiguration(charges, positions, separation)
