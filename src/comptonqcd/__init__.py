"""comptonqcd: Compton-scale confinement arithmetic in natural units.

Dimension-checked quantities (hbar = c = 1, m_e = 1), spherically symmetric
stress-energy kernel integrals, the Cornell confinement potential with exact
fractional charges, the quark and pion mass-estimate chain, and a
Lagrange–Laguerre mesh bound-state solver that checks confinement at the
Compton scale.

Every layer module is in ``sys.modules`` from ``import comptonqcd`` onwards,
but each runs its body only on the first access to one of its attributes.
So a process loads only the layers its work touches: ``python -m comptonqcd
derive`` never compiles the solver or the field layers.  The names below are
re-exported through the same lazy path.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# each layer module and the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "DimensionError", "DivByZero", "DomainError", "GridTooSmall", "InvalidDimension",
        "InvalidMass", "InvalidQuantity", "InvalidSource", "NoBoundState", "RegimeError",
        "SingularConfiguration", "ToolkitError",
    ),
    "natunits": (
        "E2_PAPER", "E2_PRECISE", "Quantity", "compton_wavelength", "make_quantity", "qarith",
        "resolve_e_squared",
    ),
    "quadrature": (),
    "stressfield": (
        "ClampWarning", "RadialTable", "SourceDensity", "UniformBall", "default_source",
        "far_field_coupling", "load_source_csv", "near_field_potential",
        "radial_reduce_inverse", "radial_reduce_linear",
    ),
    "potential": (
        "CornellPotential", "QuarkConfiguration", "central_displacement_energy",
        "charge_fraction", "configuration_energy", "configuration_energy_fraction",
        "configuration_from_json", "configuration_to_json", "confinement_slope",
        "cornell_from_quark_mass", "cornell_zero_radius", "evaluate_cornell",
        "proton_configuration",
    ),
    "estimator": (
        "MassEstimate", "Regime", "classify_regime", "derivation_report",
        "effective_mass_from_slope", "order_of_magnitude_ok", "pion_mass_estimate",
        "quark_mass_estimate",
    ),
    "spectrum": (
        "BoundState", "RadialProblem", "bound_state_sidecar", "confinement_ratio",
        "confinement_report", "cover_extent", "make_default_problem", "solve_bound_state",
        "virial_check",
    ),
    "cli": (),
}
_ORIGIN = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_ORIGIN)

# A lazy module object stands in for each layer, so that the benchmark tracer,
# which indexes sys.modules for every layer and loads each through vars(),
# still sees every function.  Once that tracer skips layers never imported,
# imports inside the cli handlers can take the place of this registration.
for _layer in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name: str):
    layer = _ORIGIN.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
