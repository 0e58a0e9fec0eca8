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
n - 1.  The solve also checks that [0, r_max] holds all but 1e-6 of the
probability, exactly from the mesh: the basis functions overlap as
delta_ij + (-1)^(i+j) / sqrt(x_i x_j), so u holds 1 + s^2 on the half-line,
s = sum_j (-1)^j c_j / sqrt(x_j), and an (N+1)-point Gauss-Laguerre rule gives
the part beyond r_max exactly.  A :class:`BoundState` holds its problem and
r_max.  grid_points only sets the output table, which :func:`wave_blocks`
builds for the callers that print it: u on grid_points equal steps out to
r_max, normalized with composite Simpson from the origin, where u = 0 exactly.
It evaluates the table twice, a block of at most 4096 rows at a time: once
for the norm, as a sum of the blocks' Simpson sums, and once to yield the
normalized rows.  So no array of grid_points rows is ever held, and
:func:`wave_table` joins the same blocks for callers that want two arrays.
Solves are deterministic and repeat bit for bit.  The BLAS thread count is
the caller's choice: this module leaves it to numpy's defaults and the
environment, and only the ``comptonqcd`` command sets one thread.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError, GridTooSmall, NoBoundState
from .estimator import quark_mass_estimate
from .natunits import Frozen, Quantity, compton_wavelength, normal_float
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
    "wave_blocks",
    "wave_table",
    "virial_check",
    "confinement_ratio",
    "confinement_report",
    "bound_state_sidecar",
    "DEFAULT_GRID_POINTS",
    "MAX_GRID_POINTS",
    "MAX_ANGULAR_MOMENTUM",
]

DEFAULT_GRID_POINTS = 20000
# largest output table: wave_blocks holds one block of it at a time, so only
# wave_table's two joined arrays (16 MB here, twice that while it joins them)
# grow with it; the check comes before any row is evaluated
MAX_GRID_POINTS = 1_000_000
# highest ell the mesh holds: hydrogen levels n = 1..10 are right to 1.4e-13
# at ell = 100 and 1.4e-11 at ell = 120; near ell = 150 the centrifugal
# barrier outgrows the mesh and levels show the wrong node count
MAX_ANGULAR_MOMENTUM = 100

# decay lengths the mesh covers beyond the outer classical turning point
_DECAY_LENGTHS = 15.0
# highest level solved; Coulomb levels stop converging near n = 60
_MAX_LEVEL = 50
# probability [0, r_max] may miss; also virial_check's normalization test
_NORM_TOL = 1e-6
# most table rows evaluated, normalized and yielded at a time
_BLOCK_ROWS = 4096


class RadialProblem(Frozen):
    """A Cornell potential with a reduced mass, and the row count of its output table."""

    __slots__ = ("potential", "reduced_mass", "angular_momentum", "grid_points")

    def __init__(self, potential: CornellPotential, reduced_mass: Quantity,
                 angular_momentum: int = 0, grid_points: int = DEFAULT_GRID_POINTS) -> None:
        if reduced_mass.dim != 1:
            raise DomainError("reduced mass must have dim 1")
        if not reduced_mass.value > 0.0:
            raise DomainError("reduced mass must be positive")
        if not 0 <= angular_momentum <= MAX_ANGULAR_MOMENTUM:
            raise DomainError(f"angular momentum ell must be 0 to {MAX_ANGULAR_MOMENTUM}, "
                              f"got {angular_momentum}")
        if not 1000 <= grid_points <= MAX_GRID_POINTS:
            raise DomainError(f"grid must have 1000 to {MAX_GRID_POINTS} points, got {grid_points}")
        self._fill(potential, reduced_mass, angular_momentum, grid_points)


class BoundState(Frozen):
    """A normalized radial eigenstate of ``problem``: level n has n-1 interior nodes.

    ``coefficients`` are the mesh eigenvector c, signed so that u > 0 near the
    origin and with sum c_j^2 = 1; :func:`wave_blocks` evaluates u from them.
    ``mesh_radii`` are the mesh points r_j, and expectation values are sums of
    c_j^2 f(r_j).  ``r_max`` is the level's cover, where the mesh ends.  Two
    states are equal only when they are the same object; ``repr`` leaves out
    the arrays.
    """

    __slots__ = ("level", "energy", "nodes", "coefficients", "rms_radius", "mesh_radii",
                 "problem", "r_max")
    _unshown = ("coefficients", "mesh_radii")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, level: int, energy: Quantity, nodes: int, coefficients: np.ndarray,
                 rms_radius: Quantity, mesh_radii: np.ndarray, problem: RadialProblem,
                 r_max: float) -> None:
        self._fill(level, energy, nodes, coefficients, rms_radius, mesh_radii, problem, r_max)


def cover_extent(alpha: float, sigma: float, mu: float, n: int, ell: int) -> float:
    """Outer classical turning point of level n plus the decay lengths its tail needs.

    With a linear term (sigma > 0) the turning point is E/sigma at the WKB
    energy E = (sigma^2/2mu)^(1/3) w, w = (3pi/2 (n + ell/2 - 1/4))^(2/3), and
    the cover adds 15 decay lengths (2 mu sigma)^(-1/3).  Their sum is
    (w + 15) (2 mu sigma)^(-1/3), which never squares sigma, so it holds
    where sigma^2 underflows.  With a Coulomb term (alpha > 0) and k = n + ell
    the turning point is 2k^2/(mu alpha) and the decay length k/(mu alpha);
    the tail u ~ r^k e^(-r mu alpha/k) falls more slowly for high k, so the
    cover adds 15 + (k - 1)/2 of them.  Either term
    added to the other only deepens the well, so with both present the
    smaller of the two covers is taken.  alpha and sigma must be
    non-negative numbers, as :class:`CornellPotential` requires, or
    :class:`DomainError` names them.  The cover and each decay scale,
    mu*alpha and 2*mu*sigma, must be normal float64 values; inputs that
    overflow or underflow one of them raise :class:`DomainError`.
    """
    if not 1 <= n <= _MAX_LEVEL:
        raise DomainError(f"level must be an integer from 1 to {_MAX_LEVEL}, got {n}")
    if ell < 0:
        raise DomainError("angular momentum must be non-negative")
    if not mu > 0.0:
        raise DomainError("reduced mass must be positive")
    if not (alpha >= 0.0 and sigma >= 0.0):
        raise DomainError(f"alpha and sigma must be non-negative "
                          f"(alpha = {alpha:g}, sigma = {sigma:g}, mu = {mu:g})")
    at, inputs = " at alpha = {}, sigma = {}, mu = {}", (alpha, sigma, mu)
    covers = []
    if sigma > 0.0:
        scale = normal_float(2.0 * mu * sigma, "2*mu*sigma" + at, *inputs)
        wkb = (1.5 * math.pi * (n + 0.5 * ell - 0.25)) ** (2.0 / 3.0)
        covers.append((wkb + _DECAY_LENGTHS) * scale ** (-1.0 / 3.0))
    if alpha > 0.0:
        scale = normal_float(mu * alpha, "mu*alpha" + at, *inputs)
        k = n + ell
        covers.append((2.0 * k * k + (_DECAY_LENGTHS + 0.5 * (k - 1)) * k) / scale)
    if not covers:
        raise NoBoundState("potential is identically zero")
    return normal_float(min(covers), "the mesh cover" + at, *inputs)


def _mesh_size(n: int) -> int:
    """Mesh points for level n; too few give the level's eigenvector the wrong node count."""
    return 50 + 4 * n


def _laguerre_mesh(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeros x_j of L_size, V_kj = sqrt(w_j) p_k(x_j) and sqrt(w_j) e^(x_j/2).

    p_k = (-1)^k L_k are the orthonormal Laguerre polynomials and w_j the
    Gauss-Laguerre weights.  The zeros are the eigenvalues of the Jacobi
    matrix (diagonal 2i+1, off-diagonal i), and V holds its eigenvectors
    (Golub-Welsch).  As 1/w_j = sum_k p_k(x_j)^2, V is p_k(x_j) scaled to unit
    columns.  Each column carries the factor e^(-x_j/2), which cancels in V
    and keeps high degrees finite; the scale is then sqrt(w_j) e^(x_j/2),
    finite where w_j underflows and e^(x_j) overflows.
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
    norm = np.linalg.norm(p, axis=0)
    return x, p / norm, 1.0 / norm


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


def _wavefunction(c: np.ndarray, x: np.ndarray, basis: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt(h) u(h t) = sum_j c_j f_j(t), f_j(t) = (t/x_j) e^(-t/2) sum_k p_k(t) V_kj.

    So sqrt(h) u = t e^(-t/2) sum_k b_k p_k(t) with b = V (c/x), summed by
    Clenshaw's recurrence on a few arrays the size of t; e^(-t/2) enters at
    every step, so no term overflows at large t.
    """
    import numpy as np

    b = basis @ (c / x)
    decay = np.exp(-0.5 * t)
    y1 = np.zeros_like(t)
    y2 = np.zeros_like(t)
    # p_(k+1) = ((t - 2k - 1) p_k - k p_(k-1)) / (k + 1)
    for k in range(len(b) - 1, -1, -1):
        y1, y2 = b[k] * decay + (t - (2 * k + 1)) / (k + 1) * y1 - (k + 1) / (k + 2) * y2, y1
    return t * y1


def _coverage(c: np.ndarray, x: np.ndarray, basis: np.ndarray) -> float:
    """The probability on [0, h x_N] of the state with mesh coefficients c, exactly.

    On the half-line it is 1 + s^2, s = sum_j (-1)^j c_j / sqrt(x_j), from the
    overlap delta_ij + (-1)^(i+j) / sqrt(x_i x_j) of the basis functions.
    Beyond h x_N, with t = x_N + s, sqrt(h) u = t e^(-t/2) q(t), deg q = N - 1,
    so e^s (sqrt(h) u)^2 is a polynomial of degree 2N in s, and the
    (N+1)-point Gauss-Laguerre rule s_k, w_k integrates it exactly:
    sum_k (sqrt(w_k) e^(s_k/2) sqrt(h) u)^2.  No factor depends on h.
    """
    import numpy as np

    a = c / np.sqrt(x)
    s = float(a[::2].sum() - a[1::2].sum())
    nodes, _, scale = _laguerre_mesh(len(x) + 1)
    tail = scale * _wavefunction(c, x, basis, x[-1] + nodes)
    return 1.0 + s * s - float((tail * tail).sum())


def solve_bound_state(p: RadialProblem, n: int) -> BoundState:
    """The n-th bound state (n = 1 is the ground state, n-1 interior nodes).

    Raises :class:`NoBoundState` when both potential terms vanish,
    :class:`DomainError` when the mesh Hamiltonian overflows float64 or the
    RMS radius leaves its normal range, and :class:`GridTooSmall` when the
    mesh eigenvector shows a node count other than n - 1 or [0, r_max] misses
    more than 1e-6 of the probability.  No array here has grid_points rows.
    """
    import numpy as np

    alpha, sigma, mu = p.potential.alpha.value, p.potential.sigma.value, p.reduced_mass.value
    extent = cover_extent(alpha, sigma, mu, n, p.angular_momentum)
    x, basis, _ = _laguerre_mesh(_mesh_size(n))
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
        rms = math.sqrt(float((c * c * mesh_radii * mesh_radii).sum()))
    rms = normal_float(rms, "level {}: the RMS radius at r_max = {}", n, extent)
    held = _coverage(c, x, basis)
    if abs(1.0 - held) > _NORM_TOL:
        raise GridTooSmall(f"level {n}: [0, {extent:g}] holds {held:.9g} of the probability")
    return BoundState(
        level=n,
        energy=Quantity(float(energies[n - 1]), 1),
        nodes=nodes,
        coefficients=c,
        rms_radius=Quantity(rms, -1),
        mesh_radii=mesh_radii,
        problem=p,
        r_max=extent,
    )


def _blocks(rows: int) -> list[tuple[int, int]]:
    """(b_k, b_(k+1)) for each block of the table: rows b_k + 1 .. b_(k+1).

    A block holds at most _BLOCK_ROWS rows, and its Simpson sum spans
    [b_k, b_(k+1)], from the last row of the block before (the origin for
    the first).  Every b_k but the last is even, so the blocks' sums add up
    to the whole-table composite Simpson rule.  The last block carries the
    odd remainder, with at least the three intervals of the rule's 3/8 tail.
    """
    bounds = list(range(0, rows, _BLOCK_ROWS)) + [rows]
    if bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 2
    return list(zip(bounds, bounds[1:]))


def wave_blocks(state: BoundState) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The output table of a solved state, as (radii, u) blocks of at most 4096 rows.

    Row i = 1..grid_points lies at r = i * step, step = r_max / grid_points,
    and the last row exactly at r_max, the level's cover.  u is normalized
    with composite Simpson over the rows and the origin, where u = 0 exactly;
    the origin is not returned.  The norm is taken before this returns, in a
    first pass over the blocks, and raises :class:`DomainError` when it
    leaves float64.  The iterator returned evaluates each block again and
    yields it normalized, so no array of grid_points rows is held.
    """
    import numpy as np

    extent = state.r_max
    rows = state.problem.grid_points
    x, basis, _ = _laguerre_mesh(len(state.coefficients))
    h = extent / x[-1]
    step = extent / rows
    blocks = _blocks(rows)

    def evaluate(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        r = np.arange(lo + 1, hi + 1, dtype=float) * step
        if hi == rows:
            r[-1] = extent
        with np.errstate(over="ignore", invalid="ignore"):
            return r, _wavefunction(state.coefficients, x, basis, r / h) / math.sqrt(h)

    norm = 0.0
    edge = 0.0  # u at the point each block's Simpson sum starts from
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in blocks:
            u = np.concatenate(([edge], evaluate(lo, hi)[1]))
            norm += composite_simpson(u * u, step)
            edge = u[-1]
    if not math.isfinite(norm):
        raise DomainError(f"level {state.level}: the output table overflows float64 "
                          f"(r_max = {extent:g})")
    scale = math.sqrt(norm)

    def normalized() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for lo, hi in blocks:
            r, u = evaluate(lo, hi)
            u /= scale
            yield r, u

    return normalized()


def wave_table(state: BoundState) -> tuple[np.ndarray, np.ndarray]:
    """The output table of a solved state: radii and u, grid_points rows each.

    The rows of :func:`wave_blocks`, joined into two arrays; raises
    :class:`DomainError` when the norm leaves float64.
    """
    import numpy as np

    radii, u = zip(*wave_blocks(state))
    return np.concatenate(radii), np.concatenate(u)


def virial_check(state: BoundState) -> float:
    """Residual |2<T> - <r dV/dr>| / <r dV/dr> for a solved state.

    For the Cornell form r dV/dr = alpha/r + sigma*r, and <T> = E - <V>.
    With alpha, sigma >= 0, not both zero, <r dV/dr> is positive, so the
    residual stays meaningful where E passes through zero.  The expectation
    values are Gauss sums over the mesh weights c_j^2, which must sum to 1;
    other coefficients are rejected.
    """
    r = state.mesh_radii
    weights = state.coefficients ** 2
    norm = float(weights.sum())
    if abs(norm - 1.0) > _NORM_TOL:
        raise DomainError(f"state is not normalized (sum of mesh weights = {norm:.6g})")
    alpha = state.problem.potential.alpha.value
    sigma = state.problem.potential.sigma.value
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
    m/2, ground state; the headline number is the RMS radius over the
    Compton wavelength.
    """
    m_quark = quark_mass_estimate(e_squared=e_squared).mass
    pot = cornell_from_quark_mass(m_quark)
    mu = Quantity(m_quark.value / 2.0, 1)
    lam = compton_wavelength(m_quark)
    state = solve_bound_state(RadialProblem(pot, mu), 1)
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


def bound_state_sidecar(state: BoundState) -> dict:
    """The solved state and its problem, keyed and ordered as the CLI prints them."""
    p = state.problem
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
        "r_max": state.r_max,
    }
