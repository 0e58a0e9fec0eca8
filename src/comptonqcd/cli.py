"""Command-line interface: one subcommand per model claim.

    derive       full mass-derivation chain (fractions, slope, quark, pion)
    charge       effective charge fraction for d spatial dimensions
    potential    tabulate the Cornell potential V(r)
    field        near- and far-field curves of the default source
    linearize    displaced-charge Taylor coefficients vs the declared slope
    spectrum     bound states of a Cornell potential
    confinement  RMS radius of the default chain over the Compton wavelength
    regime       classify a probe scale against the Compton wavelength

Output is deterministic: numbers print with 10 significant digits, rationals
print exactly, line endings are '\\n', and JSON keys keep a fixed order.  The
JSON form of every subcommand validates against the schema files shipped in
``comptonqcd/schemas/``.

Settings resolve in precedence order: explicit flag, then the COMPTONQCD_E2
environment variable (for the coupling mode), then the optional JSON config
file (``--config``), then built-in defaults.  Unknown config keys are usage
errors.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import estimator, potential as pot, spectrum as spec, stressfield as sf
from .errors import ToolkitError
from .natunits import Quantity, compton_wavelength, fine_structure_fraction

__all__ = ["main", "console_main", "RunConfig", "schema_path"]

E2_CHOICES = ("paper-137", "precise")
FORMAT_CHOICES = ("csv", "json", "table")
ENV_E2 = "COMPTONQCD_E2"

_DEFAULT_FORMAT = {
    "derive": "table",
    "charge": "table",
    "potential": "csv",
    "field": "csv",
    "linearize": "table",
    "spectrum": "json",
    "confinement": "table",
    "regime": "table",
}

_CONFIG_KEYS = {
    "e2_mode",
    "output_format",
    "output_path",
    "d",
    "m_quark",
    "l",
    "alpha",
    "sigma",
    "mu",
    "ell",
    "n",
    "r_start",
    "r_stop",
    "points",
    "intervals",
    "step",
    "r_min",
    "r_max",
    "grid_points",
    "delta",
    "ratio",
}


@dataclass
class RunConfig:
    """Resolved common settings for one subcommand invocation."""

    command: str
    e2_mode: str
    output_format: str
    output_path: str | None
    options: dict


def fmt(x: float) -> str:
    """Fixed numeric formatting: 10 significant digits, '.' separator."""
    return f"{x:.10g}"


def schema_path(command: str) -> str:
    """Filesystem path of the JSON schema shipped for a subcommand."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "schemas", f"{command}.schema.json")


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comptonqcd",
        description="Compton-scale confinement toolkit in natural units (hbar=c=1, m_e=1).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--e2-mode", choices=E2_CHOICES, default=None, dest="e2_mode",
                        help="coupling mode: exact 1/137 (default) or 1/137.035999")
    common.add_argument("--format", choices=FORMAT_CHOICES, default=None, dest="output_format",
                        help="output form (per-subcommand default)")
    common.add_argument("--output", "-o", default=None, dest="output_path",
                        help="write output to this file instead of stdout")
    common.add_argument("--config", default=None, dest="config_path",
                        help="JSON config file with the same keys as the flags (flags win)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("derive", parents=[common],
                   help="full derivation chain: fractions, slope, quark and pion masses")

    p = sub.add_parser("charge", parents=[common], help="charge fraction for d dimensions")
    p.add_argument("--d", type=int, default=None, help="spatial dimension count (1, 2, or 3)")

    p = sub.add_parser("potential", parents=[common], help="tabulate V(r) = -alpha/r + sigma r")
    p.add_argument("--m-quark", type=float, default=None, dest="m_quark",
                   help="build alpha/sigma from this quark mass (m_e units)")
    p.add_argument("--alpha", type=float, default=None, help="Coulomb strength override")
    p.add_argument("--sigma", type=float, default=None, help="string tension override")
    p.add_argument("--r-start", type=float, default=None, dest="r_start")
    p.add_argument("--r-stop", type=float, default=None, dest="r_stop")
    p.add_argument("--points", type=int, default=None)

    p = sub.add_parser("field", parents=[common], help="near/far field of the default source")
    p.add_argument("--m-quark", type=float, default=None, dest="m_quark")
    p.add_argument("--d", type=int, default=None, help="dimension count for the far field")
    p.add_argument("--r-start", type=float, default=None, dest="r_start")
    p.add_argument("--r-stop", type=float, default=None, dest="r_stop")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--intervals", type=int, default=None, help="quadrature intervals")

    p = sub.add_parser("linearize", parents=[common],
                       help="displaced-charge derivatives vs the declared confining slope")
    p.add_argument("--l", type=float, default=None, help="separation scale (1/m_e units)")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    p = sub.add_parser("spectrum", parents=[common], help="bound states of a Cornell potential")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--mu", type=float, default=None, help="reduced mass (m_e units)")
    p.add_argument("--ell", type=int, default=None, help="orbital angular momentum")
    p.add_argument("--n", type=int, default=None, help="level (1 = ground state)")
    p.add_argument("--r-min", type=float, default=None, dest="r_min")
    p.add_argument("--r-max", type=float, default=None, dest="r_max")
    p.add_argument("--grid-points", type=int, default=None, dest="grid_points")

    p = sub.add_parser("confinement", parents=[common],
                       help="ground-state RMS radius over the Compton wavelength")
    p.add_argument("--grid-points", type=int, default=None, dest="grid_points")

    p = sub.add_parser("regime", parents=[common], help="classify a probe scale")
    p.add_argument("--ratio", type=float, default=None,
                   help="probe scale divided by the Compton wavelength")
    p.add_argument("--delta", type=float, default=None, help="band halfwidth (default 0.5)")

    return parser


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(unknown)}")
    return data


def _env_e2(parser: argparse.ArgumentParser) -> str | None:
    raw = os.environ.get(ENV_E2)
    if raw is None:
        return None
    key = raw.strip().lower()
    if key in ("paper", "paper-137"):
        return "paper-137"
    if key == "precise":
        return "precise"
    parser.error(f"{ENV_E2} must be 'paper' or 'precise', got {raw!r}")


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    file_cfg = _load_config(args.config_path, parser) if args.config_path else {}

    def pick(name: str, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg:
            return file_cfg[name]
        return default

    e2_mode = args.e2_mode or _env_e2(parser) or file_cfg.get("e2_mode") or "paper-137"
    if e2_mode not in E2_CHOICES:
        parser.error(f"e2_mode must be one of {E2_CHOICES}, got {e2_mode!r}")
    output_format = pick("output_format", _DEFAULT_FORMAT[args.command])
    if output_format not in FORMAT_CHOICES:
        parser.error(f"output_format must be one of {FORMAT_CHOICES}, got {output_format!r}")

    options = {}
    for key in _CONFIG_KEYS - {"e2_mode", "output_format", "output_path"}:
        value = pick(key)
        if value is not None:
            options[key] = value
    return RunConfig(
        command=args.command,
        e2_mode=e2_mode,
        output_format=output_format,
        output_path=pick("output_path"),
        options=options,
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns {"json": dict, "csv": rows, "table": str}


def _run_derive(cfg: RunConfig) -> dict:
    report = estimator.derivation_report(cfg.e2_mode)
    return {
        "json": report,
        "csv": estimator.render_report_csv_rows(report),
        "table": estimator.render_report_table(report),
    }


def _run_charge(cfg: RunConfig) -> dict:
    d = int(cfg.options.get("d", 3))
    frac = pot.charge_fraction(d)
    payload = {"d": d, "fraction": str(frac), "value_float": float(frac)}
    rows = [["d", "fraction"], [str(d), str(frac)]]
    return {"json": payload, "csv": rows, "table": f"{frac}\n"}


def _run_potential(cfg: RunConfig) -> dict:
    opts = cfg.options
    if opts.get("alpha") is not None or opts.get("sigma") is not None:
        alpha = float(opts.get("alpha", 1.0))
        sigma = float(opts.get("sigma", 0.0))
        cornell = pot.CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
    else:
        m_quark = float(opts.get("m_quark", 1.0))
        cornell = pot.cornell_from_quark_mass(Quantity(m_quark, 1))
    r_start = float(opts.get("r_start", 0.1))
    r_stop = float(opts.get("r_stop", 5.0))
    points = int(opts.get("points", 50))
    if points < 2 or not 0.0 < r_start < r_stop:
        raise ToolkitError("need points >= 2 and 0 < r_start < r_stop")
    step = (r_stop - r_start) / (points - 1)
    rows = [["r", "V"]]
    json_rows = []
    for i in range(points):
        r = r_start + i * step
        v = pot.evaluate_cornell(cornell, Quantity(r, -1)).value
        rows.append([fmt(r), fmt(v)])
        json_rows.append({"r": r, "V": v})
    payload = {"alpha": cornell.alpha.value, "sigma": cornell.sigma.value, "rows": json_rows}
    return {"json": payload, "csv": rows, "table": _table_from_rows(rows)}


def _run_field(cfg: RunConfig) -> dict:
    opts = cfg.options
    m_quark = float(opts.get("m_quark", 1.0))
    d = int(opts.get("d", 3))
    m = Quantity(m_quark, 1)
    src = sf.default_source(m)
    lam = compton_wavelength(m)
    r_start = float(opts.get("r_start", 0.1 * lam.value))
    r_stop = float(opts.get("r_stop", 10.0 * lam.value))
    points = int(opts.get("points", 50))
    intervals = int(opts.get("intervals", sf.DEFAULT_INTERVALS))
    if points < 2 or not 0.0 < r_start < r_stop:
        raise ToolkitError("need points >= 2 and 0 < r_start < r_stop")
    e2 = fine_structure_fraction(cfg.e2_mode)
    step = (r_stop - r_start) / (points - 1)
    rows = [["r", "near", "far"]]
    json_rows = []
    for i in range(points):
        r = r_start + i * step
        rq = Quantity(r, -1)
        near = sf.near_field_potential(src, m, rq, intervals=intervals).value
        far = None
        if r > lam.value:
            far = sf.far_field_coupling(src, m, d, rq, e_squared=e2).value
        rows.append([fmt(r), fmt(near), "" if far is None else fmt(far)])
        json_rows.append({"r": r, "near": near, "far": far})
    payload = {
        "m_quark": m_quark,
        "d": d,
        "support_radius": src.support_radius.value,
        "total_energy": src.total_energy.value,
        "rows": json_rows,
    }
    return {"json": payload, "csv": rows, "table": _table_from_rows(rows)}


def _run_linearize(cfg: RunConfig) -> dict:
    opts = cfg.options
    l_value = float(opts.get("l", 1.0))
    step = float(opts.get("step", 1e-4))
    if step <= 0.0 or step >= 0.5:
        raise ToolkitError("finite-difference step must lie in (0, 0.5)")
    e2 = fine_structure_fraction(cfg.e2_mode)
    sep = Quantity(l_value, -1)
    proton = pot.proton_configuration(sep)

    def axial(x: float) -> float:
        return pot.central_displacement_energy(proton, x, "axial", e_squared=e2).value

    def transverse(x: float) -> float:
        return pot.central_displacement_energy(proton, x, "transverse", e_squared=e2).value

    e0 = axial(0.0)
    # displacements are in units of l, so scale the derivatives back by 1/l^k
    first = (axial(step) - axial(-step)) / (2.0 * step) / l_value
    second_ax = (axial(step) - 2.0 * e0 + axial(-step)) / step**2 / l_value**2
    second_tr = (transverse(step) - 2.0 * e0 + transverse(-step)) / step**2 / l_value**2

    pair = pot.QuarkConfiguration(
        (Fraction(-1, 3), Fraction(2, 3)), (0.0, 1.0), sep
    )

    def pair_energy(x: float) -> float:
        shifted = pot.QuarkConfiguration(pair.charges, (x, 1.0), sep)
        return pot.configuration_energy(shifted, e_squared=e2).value

    pair_slope = abs(pair_energy(step) - pair_energy(-step)) / (2.0 * step) / l_value
    declared = pot.confinement_slope(sep, e_squared=e2)
    declared_exact = e2 / 9 / Fraction(l_value) ** 2
    payload = {
        "e2_mode": cfg.e2_mode,
        "l": l_value,
        "displacement_step": step,
        "axial_first_derivative": first,
        "axial_second_derivative": second_ax,
        "transverse_second_derivative": second_tr,
        "single_pair_slope_magnitude": pair_slope,
        "declared_slope": declared.value,
        "declared_slope_exact": estimator.format_exact(declared_exact),
        "pair_to_declared_ratio": pair_slope / declared.value,
    }
    rows = [["quantity", "value"]]
    for key in list(payload)[1:]:
        value = payload[key]
        rows.append([key, value if isinstance(value, str) else fmt(value)])
    return {"json": payload, "csv": rows, "table": _table_from_rows(rows)}


def _run_spectrum(cfg: RunConfig) -> dict:
    opts = cfg.options
    alpha = float(opts.get("alpha", 1.0))
    sigma = float(opts.get("sigma", 0.0))
    mu = float(opts.get("mu", 1.0))
    ell = int(opts.get("ell", 0))
    n = int(opts.get("n", 1))
    cornell = pot.CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
    # also rejects mu <= 0, n < 1 and ell < 0 before the scales below divide by them
    extent = spec.cover_extent(alpha, sigma, mu, n, ell)
    scale = 0.0
    if alpha > 0.0:
        scale = max(scale, 1.0 / (mu * alpha))
    if sigma > 0.0:
        scale = max(scale, (2.0 * mu * sigma) ** (-1.0 / 3.0))
    if scale == 0.0:
        scale = 1.0
    r_min = float(opts.get("r_min", spec.R_MIN_FACTOR * scale))
    r_max = float(opts.get("r_max", extent))
    grid_points = int(opts.get("grid_points", spec.DEFAULT_GRID_POINTS))
    problem = spec.RadialProblem(
        cornell, Quantity(mu, 1), Quantity(r_min, -1), Quantity(r_max, -1), ell, grid_points
    )
    state = spec.solve_bound_state(problem, n)
    payload = spec.bound_state_sidecar(state, problem)
    rows = [["r", "u"]]
    for rv, uv in zip(state.radii, state.u):
        rows.append([fmt(rv), fmt(uv)])
    table_rows = [["quantity", "value"]] + [
        [key, fmt(val) if isinstance(val, float) else str(val)] for key, val in payload.items()
    ]
    return {
        "json": payload,
        "csv": rows,
        "table": _table_from_rows(table_rows),
        "sidecar": payload,
    }


def _run_confinement(cfg: RunConfig) -> dict:
    grid_points = int(cfg.options.get("grid_points", spec.DEFAULT_GRID_POINTS))
    report = spec.confinement_report(e2_mode=cfg.e2_mode, grid_points=grid_points)
    rows = [["quantity", "value"]]
    for key, val in report.items():
        rows.append([key, val if isinstance(val, str) else (fmt(val) if isinstance(val, float) else str(val))])
    return {"json": report, "csv": rows, "table": _table_from_rows(rows)}


def _run_regime(cfg: RunConfig) -> dict:
    opts = cfg.options
    ratio = float(opts.get("ratio", 1.0))
    delta = float(opts.get("delta", 0.5))
    regime = estimator.classify_regime(ratio, delta)
    payload = {"scale_over_compton": ratio, "delta": delta, "regime": regime.value}
    rows = [["scale_over_compton", "delta", "regime"], [fmt(ratio), fmt(delta), regime.value]]
    return {"json": payload, "csv": rows, "table": f"{regime.value}\n"}


_HANDLERS = {
    "derive": _run_derive,
    "charge": _run_charge,
    "potential": _run_potential,
    "field": _run_field,
    "linearize": _run_linearize,
    "spectrum": _run_spectrum,
    "confinement": _run_confinement,
    "regime": _run_regime,
}


# ---------------------------------------------------------------------------
# rendering and entry points


def _table_from_rows(rows: list[list[str]]) -> str:
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    ]
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _render(result: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(result["json"], indent=2) + "\n"
    if output_format == "csv":
        return _render_csv(result["csv"])
    return result["table"]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args, parser)
    try:
        result = _HANDLERS[cfg.command](cfg)
        text = _render(result, cfg.output_format)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if cfg.command == "spectrum" and cfg.output_format == "csv" and "sidecar" in result:
            with open(cfg.output_path + ".json", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(result["sidecar"], indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return 0


def console_main() -> None:
    raise SystemExit(main())
