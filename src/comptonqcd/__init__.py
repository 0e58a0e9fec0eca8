"""comptonqcd: Compton-scale confinement arithmetic in natural units.

Dimension-checked quantities (hbar = c = 1, m_e = 1), spherically symmetric
stress-energy kernel integrals, the Cornell confinement potential with exact
fractional charges, the quark and pion mass-estimate chain, and a
Lagrange–Laguerre mesh bound-state solver that checks confinement at the
Compton scale.
"""

from .errors import (
    DimensionError,
    DivByZero,
    DomainError,
    GridTooSmall,
    InvalidDimension,
    InvalidMass,
    InvalidQuantity,
    InvalidSource,
    NoBoundState,
    RegimeError,
    SingularConfiguration,
    ToolkitError,
)
from .natunits import (
    E2_PAPER,
    E2_PRECISE,
    Quantity,
    compton_wavelength,
    make_quantity,
    qarith,
    resolve_e_squared,
)
from .stressfield import (
    ClampWarning,
    RadialTable,
    SourceDensity,
    UniformBall,
    default_source,
    far_field_coupling,
    load_source_csv,
    near_field_potential,
    radial_reduce_inverse,
    radial_reduce_linear,
)
from .potential import (
    CornellPotential,
    QuarkConfiguration,
    central_displacement_energy,
    charge_fraction,
    configuration_energy,
    configuration_energy_fraction,
    configuration_from_json,
    configuration_to_json,
    confinement_slope,
    cornell_from_quark_mass,
    cornell_zero_radius,
    evaluate_cornell,
    proton_configuration,
)
from .estimator import (
    MassEstimate,
    Regime,
    classify_regime,
    derivation_report,
    effective_mass_from_slope,
    order_of_magnitude_ok,
    pion_mass_estimate,
    quark_mass_estimate,
)
from .spectrum import (
    BoundState,
    RadialProblem,
    bound_state_sidecar,
    confinement_ratio,
    confinement_report,
    cover_extent,
    make_default_problem,
    solve_bound_state,
    virial_check,
)

__version__ = "0.1.0"
