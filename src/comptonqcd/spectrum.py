"""Radial bound states of the Cornell potential on a Lagrange–Laguerre mesh.

The radial equation -u''/(2 mu) + V_eff u = E u, with V_eff = -alpha/r +
sigma r + ell(ell+1)/(2 mu r^2), is discretized on the regularized
Lagrange–Laguerre mesh (D. Baye, "The Lagrange-mesh method", Phys. Rep. 565,
1, 2015): r_i = h x_i at the N zeros x_i of L_N, with basis functions that
vanish like r at the origin.  In the Gauss approximation
H = T / (2 mu h^2) + diag(V_eff(h x_i)) with T in closed form, and one
``numpy.linalg.eigh`` gives every level.  The mesh has N = 50 + 4n points and
ends at :func:`cover_extent`, the outer turning point of level n plus at
least 15 decay lengths.

The same Gauss approximation gives every expectation value as a sum
sum_j c_j^2 f(r_j) over the eigenvector c: the RMS radius here and the
virial residual in :func:`virial_check`.  As u(r_j) has the sign of c_j, the
node count is the number of sign changes of c_j; the solve checks that it is
n - 1.  r_min, r_max and grid_points only set the output table, on which u is
evaluated and normalized with composite Simpson;
:func:`make_default_problem` ends it where the mesh ends.  The solve checks
that the table holds all but 1e-6 of the probability.
Solves are deterministic and repeat bit for bit.  The BLAS thread count is
the caller's choice: this module leaves it to numpy's defaults and the
environment, and only the ``comptonqcd`` command sets one thread.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, GridTooSmall, NoBoundState
from .estimator import quark_mass_estimate
from .natunits import Frozen, Quantity, compton_wavelength, is_normal
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


class RadialProblem(Frozen):
    """A Cornell potential with a reduced mass on a finite radial grid."""

    __slots__ = ("potential", "reduced_mass", "r_min", "r_max", "angular_momentum",
                 "grid_points")

    def __init__(self, potential: CornellPotential, reduced_mass: Quantity, r_min: Quantity,
                 r_max: Quantity, angular_momentum: int = 0,
                 grid_points: int = DEFAULT_GRID_POINTS) -> None:
        if reduced_mass.dim != 1 or reduced_mass.value <= 0.0:
            raise DomainError("reduced mass must be positive with dim 1")
        if r_min.dim != -1 or r_max.dim != -1:
            raise DomainError("grid bounds must be lengths (dim -1)")
        if not 0.0 < r_min.value < r_max.value:
            raise DomainError("need 0 < r_min < r_max")
        if angular_momentum < 0:
            raise DomainError("angular momentum must be non-negative")
        if grid_points < 1000:
            raise DomainError("grid must have at least 1000 points")
        self._fill(potential, reduced_mass, r_min, r_max, angular_momentum, grid_points)


class BoundState(Frozen):
    """A normalized radial eigenstate: level n has n-1 interior nodes.

    ``radii`` and ``u`` are the output table.  ``mesh_radii`` are the mesh
    points r_j and ``mesh_weights`` the Gauss weights c_j^2 of the state,
    which sum to 1; expectation values are sums over them.  Two states are
    equal only when they are the same object; ``repr`` leaves out the arrays.
    """

    __slots__ = ("level", "energy", "nodes", "radii", "u", "rms_radius", "mesh_radii",
                 "mesh_weights")
    _unshown = ("radii", "u", "mesh_radii", "mesh_weights")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, level: int, energy: Quantity, nodes: int, radii: np.ndarray,
                 u: np.ndarray, rms_radius: Quantity, mesh_radii: np.ndarray,
                 mesh_weights: np.ndarray) -> None:
        self._fill(level, energy, nodes, radii, u, rms_radius, mesh_radii, mesh_weights)


def cover_extent(alpha: float, sigma: float, mu: float, n: int, ell: int) -> float:
    """Outer classical turning point of level n plus the decay lengths its tail needs.

    With a linear term (sigma > 0) the turning point is E/sigma at the WKB
    energy E = (sigma^2/2mu)^(1/3) (3pi/2 (n + ell/2 - 1/4))^(2/3), and the
    cover adds 15 decay lengths (2 mu sigma)^(-1/3).  With a Coulomb term
    (alpha > 0) and k = n + ell the turning point is 2k^2/(mu alpha) and the
    decay length k/(mu alpha); the tail u ~ r^k e^(-r mu alpha/k) falls more
    slowly for high k, so the cover adds 15 + (k - 1)/2 of them.  Either term
    added to the other only deepens the well, so with both present the
    smaller of the two covers is taken.  The cover and each decay scale,
    mu*alpha and 2*mu*sigma, must be normal float64 values; inputs that
    overflow or underflow one of them raise :class:`DomainError`.
    """
    if not 1 <= n <= _MAX_LEVEL:
        raise DomainError(f"level must be an integer from 1 to {_MAX_LEVEL}, got {n}")
    if ell < 0:
        raise DomainError("angular momentum must be non-negative")
    if not mu > 0.0:
        raise DomainError("reduced mass must be positive")
    covers = []
    if sigma > 0.0:
        _check_scale("2*mu*sigma", 2.0 * mu * sigma, alpha, sigma, mu)
        wkb = (1.5 * math.pi * (n + 0.5 * ell - 0.25)) ** (2.0 / 3.0)
        energy = (sigma * sigma / (2.0 * mu)) ** (1.0 / 3.0) * wkb
        covers.append(energy / sigma + _DECAY_LENGTHS * (2.0 * mu * sigma) ** (-1.0 / 3.0))
    if alpha > 0.0:
        _check_scale("mu*alpha", mu * alpha, alpha, sigma, mu)
        k = n + ell
        covers.append((2.0 * k * k + (_DECAY_LENGTHS + 0.5 * (k - 1)) * k) / (mu * alpha))
    if not covers:
        raise NoBoundState("potential is identically zero")
    cover = min(covers)
    _check_scale("the mesh cover", cover, alpha, sigma, mu)
    return cover


def _check_scale(name: str, value: float, alpha: float, sigma: float, mu: float) -> None:
    if not is_normal(value):
        raise DomainError(f"{name} = {value:g} is not a normal float64 "
                          f"(alpha = {alpha:g}, sigma = {sigma:g}, mu = {mu:g})")


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
    """Mesh points for level n; too few give the level's eigenvector the wrong node count."""
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
    :class:`DomainError` when the mesh Hamiltonian, or the output table with
    the RMS radius, overflows float64, and :class:`GridTooSmall` when the mesh
    eigenvector shows a node count other than n - 1 or the output table misses
    more than 1e-6 of the probability.
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
        # u(r_j) has the sign of c_j; amplitudes below 1e-6 of the largest are
        # noise.  u > 0 near the origin, where it rises like r^(ell+1)
        signs = c[np.abs(c) > 1e-6 * np.max(np.abs(c))]
        if signs[0] < 0.0:
            c, signs = -c, -signs
        nodes = int(np.sum(signs[:-1] * signs[1:] < 0.0))
        if nodes != n - 1:
            raise GridTooSmall(f"level {n}: the mesh shows {nodes} node(s), not {n - 1}")
        mesh_radii = h * x
        weights = c * c
        rms = math.sqrt(float((weights * mesh_radii * mesh_radii).sum()))

        r = np.linspace(p.r_min.value, p.r_max.value, p.grid_points)
        u = _wavefunction(c, x, basis, h, r)
        norm = composite_simpson(u * u, float(r[1] - r[0]))
        if not (math.isfinite(norm) and math.isfinite(rms)):
            raise DomainError(f"level {n}: the output table overflows float64 "
                              f"(r_max = {p.r_max.value:g})")
        if abs(1.0 - norm) > _NORM_TOL:
            raise GridTooSmall(f"level {n}: [r_min, r_max] holds {norm:.9g} of the probability")
    return BoundState(
        level=n,
        energy=Quantity(float(energies[n - 1]), 1),
        nodes=nodes,
        radii=r,
        u=u / math.sqrt(norm),
        rms_radius=Quantity(rms, -1),
        mesh_radii=mesh_radii,
        mesh_weights=weights,
    )


def virial_check(state: BoundState, p: RadialProblem) -> float:
    """Residual |2<T> - <r dV/dr>| / <r dV/dr> for a solved state.

    For the Cornell form r dV/dr = alpha/r + sigma*r, and <T> = E - <V>.
    With alpha, sigma >= 0, not both zero, <r dV/dr> is positive, so the
    residual stays meaningful where E passes through zero.  The expectation
    values are Gauss sums over the state's mesh weights, which must sum to 1;
    other weights are rejected.
    """
    r = state.mesh_radii
    weights = state.mesh_weights
    norm = float(weights.sum())
    if abs(norm - 1.0) > _NORM_TOL:
        raise DomainError(f"state is not normalized (sum of mesh weights = {norm:.6g})")
    alpha = p.potential.alpha.value
    sigma = p.potential.sigma.value
    mean_v = float((weights * (-alpha / r + sigma * r)).sum())
    mean_rdv = float((weights * (alpha / r + sigma * r)).sum())
    energy = state.energy.value
    # <T> = E - <V> keeps any centrifugal part on the kinetic side, as the
    # virial relation requires
    kinetic = energy - mean_v
    return abs(2.0 * kinetic - mean_rdv) / mean_rdv


def confinement_report(*, e_squared: Fraction | float | None = None) -> dict:
    """Solve the end-to-end confinement chain at coupling e^2 (default 1/137).

    Quark mass from the slope chain, potential from that mass, reduced mass
    m/2, ground state on the default table; the headline number is the RMS
    radius over the Compton wavelength.
    """
    m_quark = quark_mass_estimate(e_squared=e_squared).mass
    pot = cornell_from_quark_mass(m_quark)
    mu = Quantity(m_quark.value / 2.0, 1)
    lam = compton_wavelength(m_quark)
    problem = make_default_problem(pot, mu)
    state = solve_bound_state(problem, 1)
    ratio = state.rms_radius.value / lam.value
    return {
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


def confinement_ratio(*, e_squared: Fraction | float | None = None) -> float:
    """RMS radius of the default-chain ground state over the Compton wavelength."""
    return confinement_report(e_squared=e_squared)["ratio"]


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
