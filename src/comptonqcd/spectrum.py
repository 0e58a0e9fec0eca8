"""Radial bound states of the Cornell potential on a Lagrange–Laguerre mesh.

The radial equation -u''/(2 mu) + V_eff u = E u, with V_eff = -alpha/r +
sigma r + ell(ell+1)/(2 mu r^2), is discretized on the regularized
Lagrange–Laguerre mesh (D. Baye, "The Lagrange-mesh method", Phys. Rep. 565,
1, 2015): r_i = h x_i at the N zeros x_i of L_N, with basis functions that
vanish like r at the origin.  In the Gauss approximation
H = T / (2 mu h^2) + diag(V_eff(h x_i)) with T in closed form, and one
``numpy.linalg.eigh`` gives every level.  The mesh has N = 50 + 4n points and
ends at :func:`cover_extent`, the outer turning point of level n plus 15
decay lengths.

r_min, r_max and grid_points only set the output table, on which u is
evaluated, normalized with composite Simpson and its RMS radius taken;
:func:`make_default_problem` ends it where the mesh ends.  The solve checks
that the table shows n - 1 nodes and holds all but 1e-6 of the probability.
Solves are deterministic and repeat bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DomainError, GridTooSmall, NoBoundState
from .estimator import quark_mass_estimate
from .natunits import Quantity, compton_wavelength, e2_mode_label, fine_structure_fraction
from .potential import CornellPotential, cornell_from_quark_mass
from .quadrature import composite_simpson

# numpy is imported inside the functions that use it, so that the exact
# subcommands, which load this module, never import it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RadialProblem",
    "BoundState",
    "cover_extent",
    "solve_bound_state",
    "virial_check",
    "confinement_ratio",
    "confinement_report",
    "make_default_problem",
    "write_bound_state_csv",
    "bound_state_sidecar",
    "DEFAULT_GRID_POINTS",
    "R_MIN_FACTOR",
]

DEFAULT_GRID_POINTS = 20000
R_MIN_FACTOR = 1e-6

# decay lengths the mesh covers beyond the outer classical turning point
_DECAY_LENGTHS = 15.0
# highest level solved; Coulomb levels stop converging near n = 60
_MAX_LEVEL = 50
# probability the output table may miss; also virial_check's normalization test
_NORM_TOL = 1e-6


@dataclass(frozen=True)
class RadialProblem:
    """A Cornell potential with a reduced mass on a finite radial grid."""

    potential: CornellPotential
    reduced_mass: Quantity
    r_min: Quantity
    r_max: Quantity
    angular_momentum: int = 0
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if self.reduced_mass.dim != 1 or self.reduced_mass.value <= 0.0:
            raise DomainError("reduced mass must be positive with dim 1")
        if self.r_min.dim != -1 or self.r_max.dim != -1:
            raise DomainError("grid bounds must be lengths (dim -1)")
        if not 0.0 < self.r_min.value < self.r_max.value:
            raise DomainError("need 0 < r_min < r_max")
        if self.angular_momentum < 0:
            raise DomainError("angular momentum must be non-negative")
        if self.grid_points < 1000:
            raise DomainError("grid must have at least 1000 points")


@dataclass(frozen=True, eq=False)
class BoundState:
    """A normalized radial eigenstate: level n has n-1 interior nodes."""

    level: int
    energy: Quantity
    nodes: int
    radii: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    rms_radius: Quantity


def cover_extent(alpha: float, sigma: float, mu: float, n: int, ell: int) -> float:
    """Outer classical turning point of level n plus 15 decay lengths.

    With a linear term (sigma > 0) the turning point is E/sigma at the WKB
    energy E = (sigma^2/2mu)^(1/3) (3pi/2 (n + ell/2 - 1/4))^(2/3) and the
    decay length is (2 mu sigma)^(-1/3).  With a Coulomb term (alpha > 0) the
    turning point is 2(n+ell)^2/(mu alpha) and the decay length
    (n+ell)/(mu alpha).  Either term added to the other only deepens the
    well, so with both present the smaller of the two covers is taken.
    """
    if not 1 <= n <= _MAX_LEVEL:
        raise DomainError(f"level must be an integer from 1 to {_MAX_LEVEL}, got {n}")
    if ell < 0:
        raise DomainError("angular momentum must be non-negative")
    if not mu > 0.0:
        raise DomainError("reduced mass must be positive")
    covers = []
    if sigma > 0.0:
        wkb = (1.5 * math.pi * (n + 0.5 * ell - 0.25)) ** (2.0 / 3.0)
        energy = (sigma * sigma / (2.0 * mu)) ** (1.0 / 3.0) * wkb
        covers.append(energy / sigma + _DECAY_LENGTHS * (2.0 * mu * sigma) ** (-1.0 / 3.0))
    if alpha > 0.0:
        k = n + ell
        covers.append((2.0 * k * k + _DECAY_LENGTHS * k) / (mu * alpha))
    if not covers:
        raise NoBoundState("potential is identically zero")
    return min(covers)


def make_default_problem(
    potential: CornellPotential,
    reduced_mass: Quantity,
    *,
    level: int = 1,
    angular_momentum: int = 0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> RadialProblem:
    """The default output table for a level: [R_MIN_FACTOR, 1] times its cover_extent."""
    r_max = cover_extent(potential.alpha.value, potential.sigma.value, reduced_mass.value,
                         level, angular_momentum)
    return RadialProblem(
        potential=potential,
        reduced_mass=reduced_mass,
        r_min=Quantity(R_MIN_FACTOR * r_max, -1),
        r_max=Quantity(r_max, -1),
        angular_momentum=angular_momentum,
        grid_points=grid_points,
    )


def _mesh_size(n: int) -> int:
    """Mesh points for level n; fewer let far-tail sign flips fake nodes."""
    return 50 + 4 * n


def _laguerre_mesh(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros x_j of L_size and V_kj = sqrt(w_j) p_k(x_j), p_k = (-1)^k L_k orthonormal.

    The zeros are the eigenvalues of the Jacobi matrix (diagonal 2i+1,
    off-diagonal i).  As 1/w_j = sum_k p_k(x_j)^2, V is p_k(x_j) scaled to unit
    columns; the common factor e^(-x_j/2) cancels there and keeps high degrees finite.
    """
    import numpy as np

    off = np.arange(1.0, size)
    jacobi = np.diag(2.0 * np.arange(size) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    p = np.empty((size, size))
    p[0] = np.exp(-0.5 * x)
    p[1] = (x - 1.0) * p[0]
    for k in range(1, size - 1):
        p[k + 1] = ((x - (2 * k + 1)) * p[k] - k * p[k - 1]) / (k + 1)
    return x, p / np.linalg.norm(p, axis=0)


def _kinetic_matrix(x: np.ndarray) -> np.ndarray:
    """-d^2/dx^2 on the regularized Laguerre mesh, in the Gauss approximation."""
    import numpy as np

    size = len(x)
    idx = np.arange(size)
    sign = 1.0 - 2.0 * ((idx[:, None] + idx) % 2)
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    kinetic = sign * (x[:, None] + x) / (np.sqrt(np.outer(x, x)) * diff * diff)
    np.fill_diagonal(kinetic, -(x * x - 2.0 * (2 * size + 1) * x - 4.0) / (12.0 * x * x))
    return kinetic


def _effective_potential(p: RadialProblem, r: np.ndarray) -> np.ndarray:
    ell = p.angular_momentum
    centrifugal = ell * (ell + 1) / (2.0 * p.reduced_mass.value * r * r)
    return -p.potential.alpha.value / r + p.potential.sigma.value * r + centrifugal


def _wavefunction(c: np.ndarray, x: np.ndarray, basis: np.ndarray, h: float,
                 r: np.ndarray) -> np.ndarray:
    """u(r) = sum_j c_j f_j(r/h) / sqrt(h), f_j(t) = (t/x_j) e^(-t/2) sum_k p_k(t) V_kj.

    So u = t e^(-t/2) sum_k b_k p_k(t) / sqrt(h) with b = V (c/x), summed by
    Clenshaw's recurrence on a few table-sized arrays; e^(-t/2) enters at every
    step, so no term overflows at large t.
    """
    import numpy as np

    t = r / h
    b = basis @ (c / x)
    decay = np.exp(-0.5 * t)
    y1 = np.zeros_like(t)
    y2 = np.zeros_like(t)
    # p_(k+1) = ((t - 2k - 1) p_k - k p_(k-1)) / (k + 1)
    for k in range(len(b) - 1, -1, -1):
        y1, y2 = b[k] * decay + (t - (2 * k + 1)) / (k + 1) * y1 - (k + 1) / (k + 2) * y2, y1
    return t * y1 / math.sqrt(h)


def solve_bound_state(p: RadialProblem, n: int) -> BoundState:
    """The n-th bound state (n = 1 is the ground state, n-1 interior nodes).

    Raises :class:`NoBoundState` when both potential terms vanish,
    :class:`DomainError` when the mesh Hamiltonian or the output table
    overflows float64, and :class:`GridTooSmall` when the output table misses
    more than 1e-6 of the probability or shows a node count other than n - 1.
    """
    import numpy as np

    alpha, sigma, mu = p.potential.alpha.value, p.potential.sigma.value, p.reduced_mass.value
    extent = cover_extent(alpha, sigma, mu, n, p.angular_momentum)
    x, basis = _laguerre_mesh(_mesh_size(n))
    h = extent / x[-1]
    # extreme inputs overflow float64; each stage is checked below instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hamiltonian = _kinetic_matrix(x) / (2.0 * mu * h * h)
        hamiltonian[np.diag_indices_from(hamiltonian)] += _effective_potential(p, h * x)
        if not np.isfinite(hamiltonian).all():
            raise DomainError(f"level {n}: the mesh Hamiltonian overflows float64 "
                              f"(alpha = {alpha:g}, sigma = {sigma:g}, mu = {mu:g})")
        energies, vectors = np.linalg.eigh(hamiltonian)
        c = vectors[:, n - 1]
        # u > 0 near the origin, where it rises like r^(ell+1)
        if c[np.argmax(np.abs(c) > 1e-6 * np.max(np.abs(c)))] < 0.0:
            c = -c

        r = np.linspace(p.r_min.value, p.r_max.value, p.grid_points)
        step = float(r[1] - r[0])
        overflow = f"level {n}: the output table overflows float64 (r_max = {p.r_max.value:g})"
        u = _wavefunction(c, x, basis, h, r)
        norm = composite_simpson(u * u, step)
        if not math.isfinite(norm):
            raise DomainError(overflow)
        if abs(1.0 - norm) > _NORM_TOL:
            raise GridTooSmall(f"level {n}: [r_min, r_max] holds {norm:.9g} of the probability")
        u = u / math.sqrt(norm)
        # sign changes among the interior values above 1e-12 of the peak
        inner = u[1:-1][np.abs(u[1:-1]) > 1e-12 * np.max(np.abs(u))]
        nodes = int(np.sum(inner[:-1] * inner[1:] < 0.0))
        if nodes != n - 1:
            raise GridTooSmall(f"level {n}: the table shows {nodes} node(s), not {n - 1}")
        rms = math.sqrt(composite_simpson(r * r * u * u, step))
        if not math.isfinite(rms):
            raise DomainError(overflow)
    return BoundState(
        level=n,
        energy=Quantity(float(energies[n - 1]), 1),
        nodes=nodes,
        radii=r,
        u=u,
        rms_radius=Quantity(rms, -1),
    )


def virial_check(state: BoundState, p: RadialProblem) -> float:
    """Residual |2<T> - <r dV/dr>| / <r dV/dr> for a solved state.

    For the Cornell form r dV/dr = alpha/r + sigma*r, and <T> = E - <V>.
    With alpha, sigma >= 0, not both zero, <r dV/dr> is positive, so the
    residual stays meaningful where E passes through zero.  The state must be
    normalized; unnormalized input is rejected.
    """
    r = state.radii
    h = float(r[1] - r[0])
    u2 = state.u**2
    norm = composite_simpson(u2, h)
    if abs(norm - 1.0) > _NORM_TOL:
        raise DomainError(f"state is not normalized (Int u^2 dr = {norm:.6g})")
    alpha = p.potential.alpha.value
    sigma = p.potential.sigma.value
    mean_v = composite_simpson(u2 * (-alpha / r + sigma * r), h)
    mean_rdv = composite_simpson(u2 * (alpha / r + sigma * r), h)
    energy = state.energy.value
    # <T> = E - <V> keeps any centrifugal part on the kinetic side, as the
    # virial relation requires
    kinetic = energy - mean_v
    return abs(2.0 * kinetic - mean_rdv) / mean_rdv


def confinement_report(*, e2_mode: str = "paper") -> dict:
    """Solve the end-to-end confinement chain at the model defaults.

    Quark mass from the slope chain, potential from that mass, reduced mass
    m/2, ground state on the default table; the headline number is the RMS
    radius over the Compton wavelength.
    """
    e2 = fine_structure_fraction(e2_mode)
    estimate = quark_mass_estimate(e_squared=e2)
    m_quark = estimate.mass
    pot = cornell_from_quark_mass(m_quark)
    mu = Quantity(m_quark.value / 2.0, 1)
    lam = compton_wavelength(m_quark)
    problem = make_default_problem(pot, mu)
    state = solve_bound_state(problem, 1)
    ratio = state.rms_radius.value / lam.value
    return {
        "e2_mode": e2_mode_label(e2_mode),
        "m_quark": m_quark.value,
        "alpha": pot.alpha.value,
        "sigma": pot.sigma.value,
        "reduced_mass": mu.value,
        "energy": state.energy.value,
        "rms_radius": state.rms_radius.value,
        "compton_wavelength": lam.value,
        "ratio": ratio,
        "within_band": 0.1 <= ratio <= 10.0,
    }


def confinement_ratio(*, e2_mode: str = "paper") -> float:
    """RMS radius of the default-chain ground state over the Compton wavelength."""
    return confinement_report(e2_mode=e2_mode)["ratio"]


def bound_state_sidecar(state: BoundState, p: RadialProblem) -> dict:
    """The solved state and its problem, keyed and ordered as the CLI prints them."""
    return {
        "n": state.level,
        "E": state.energy.value,
        "nodes": state.nodes,
        "rms_radius": state.rms_radius.value,
        "grid_points": p.grid_points,
        "alpha": p.potential.alpha.value,
        "sigma": p.potential.sigma.value,
        "mu": p.reduced_mass.value,
        "ell": p.angular_momentum,
        "r_min": p.r_min.value,
        "r_max": p.r_max.value,
    }


def write_bound_state_csv(state: BoundState, p: RadialProblem, path: str) -> None:
    """Write the wavefunction table as ``r,u`` CSV plus a ``.json`` sidecar."""
    lines = ["r,u"]
    for rv, uv in zip(state.radii, state.u):
        lines.append(f"{rv:.10g},{uv:.10g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(bound_state_sidecar(state, p), fh, indent=2)
        fh.write("\n")
