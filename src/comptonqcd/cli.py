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

Coupling mode names live only in this module: ``E2`` maps each printed mode
name to the exact e^2 that the library takes as ``e_squared=``, and the JSON
forms of ``derive``, ``linearize`` and ``confinement`` open with it as
``e2_mode``.  This module also writes every output file: ``-o PATH`` writes
the requested form to PATH, and ``spectrum --format csv -o PATH`` also writes
the JSON form to PATH.json as a sidecar.

Settings resolve in precedence order: explicit flag, then the COMPTONQCD_E2
environment variable (for the coupling mode: ``paper``, ``paper-137`` or
``precise``, in any case, surrounding space allowed), then the optional JSON
config file (``--config``), then built-in defaults.  The argparse definitions
are the one settings table: config keys are the flags' destinations, and each
config value must have its flag's type (a JSON integer for an int flag, any
JSON number for a float flag, a string from the choices for a choice flag).
Unknown keys and mistyped values are usage errors.  Exit codes: 0 success,
1 computation error, 2 usage error or unwritable output file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import estimator, potential as pot, spectrum as spec, stressfield as sf
from .errors import DomainError, ToolkitError
from .natunits import E2_PAPER, E2_PRECISE, Quantity, compton_wavelength, is_normal, normal_float

__all__ = ["main", "console_main", "RunConfig", "schema_path"]

# each coupling mode's printed name and its exact e^2
E2 = {"paper-137": E2_PAPER, "precise": E2_PRECISE}
FORMAT_CHOICES = ("csv", "json", "table")
ENV_E2 = "COMPTONQCD_E2"
# most rows of a potential or field table, checked before any is computed
MAX_POINTS = 100_000
# spectrum CSV rows formatted by one % operation
_CSV_ROWS = 1024

# parser destinations that are not settings
_NOT_CONFIG = {"help", "config_path"}
# by flag type: the JSON types a config value may take, and their name
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               None: ((str,), "a string")}


class RunConfig:
    """Resolved common settings for one subcommand invocation."""

    __slots__ = ("e2_mode", "output_format", "output_path", "options")

    def __init__(self, e2_mode: str, output_format: str, output_path: str | None,
                 options: dict) -> None:
        self.e2_mode = e2_mode
        self.output_format = output_format
        self.output_path = output_path
        self.options = options


class Output:
    """A handler's result, before any output form is built.

    ``payload`` is the JSON form.  ``rows`` is the CSV header then its data
    rows, as raw values or, for a block of rows, as its CSV text; it may be
    lazy, since only the printed form reads it.
    The table form aligns ``table_rows`` (default: ``rows``) under ``title``.
    With ``sidecar`` set, a CSV written to a file gets its JSON form beside it.
    """

    __slots__ = ("payload", "rows", "table_rows", "title", "sidecar")

    def __init__(self, payload: dict, rows: Iterable[Sequence] = (),
                 table_rows: Iterable[Sequence] | None = None, title: str = "",
                 sidecar: bool = False) -> None:
        self.payload = payload
        self.rows = rows
        self.table_rows = table_rows
        self.title = title
        self.sidecar = sidecar


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
    common.add_argument("--e2-mode", choices=tuple(E2), default=None, dest="e2_mode",
                        help="coupling mode: exact 1/137 (default) or 1/137.035999")
    common.add_argument("--format", choices=FORMAT_CHOICES, default=None, dest="output_format",
                        help="output form (per-subcommand default)")
    common.add_argument("--output", "-o", default=None, dest="output_path",
                        help="write output to this file instead of stdout")
    common.add_argument("--config", default=None, dest="config_path",
                        help="JSON config file with the same keys as the flags (flags win)")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, output_format: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run, default_format=output_format)
        return p

    command("derive", _run_derive, "table",
            "full derivation chain: fractions, slope, quark and pion masses")

    p = command("charge", _run_charge, "table", "charge fraction for d dimensions")
    p.add_argument("--d", type=int, default=None, help="spatial dimension count (1, 2, or 3)")

    p = command("potential", _run_potential, "csv", "tabulate V(r) = -alpha/r + sigma r")
    p.add_argument("--m-quark", type=float, default=None, dest="m_quark",
                   help="build alpha/sigma from this quark mass (m_e units)")
    p.add_argument("--alpha", type=float, default=None, help="Coulomb strength override")
    p.add_argument("--sigma", type=float, default=None, help="string tension override")
    p.add_argument("--r-start", type=float, default=None, dest="r_start")
    p.add_argument("--r-stop", type=float, default=None, dest="r_stop")
    p.add_argument("--points", type=int, default=None)

    p = command("field", _run_field, "csv", "near/far field of the default source")
    p.add_argument("--m-quark", type=float, default=None, dest="m_quark")
    p.add_argument("--d", type=int, default=None, help="dimension count for the far field")
    p.add_argument("--r-start", type=float, default=None, dest="r_start")
    p.add_argument("--r-stop", type=float, default=None, dest="r_stop")
    p.add_argument("--points", type=int, default=None)

    p = command("linearize", _run_linearize, "table",
                "displaced-charge derivatives vs the declared confining slope")
    p.add_argument("--l", type=float, default=None, help="separation scale (1/m_e units)")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    p = command("spectrum", _run_spectrum, "json", "bound states of a Cornell potential")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--mu", type=float, default=None, help="reduced mass (m_e units)")
    p.add_argument("--ell", type=int, default=None, help="orbital angular momentum")
    p.add_argument("--n", type=int, default=None, help="level (1 = ground state)")
    p.add_argument("--grid-points", type=int, default=None, dest="grid_points")

    command("confinement", _run_confinement, "table",
            "ground-state RMS radius over the Compton wavelength")

    p = command("regime", _run_regime, "table", "classify a probe scale")
    p.add_argument("--ratio", type=float, default=None,
                   help="probe scale divided by the Compton wavelength")
    p.add_argument("--delta", type=float, default=None, help="band halfwidth (default 0.5)")

    return parser


def _config_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Each config key, a flag's destination in any subcommand, with that flag's action."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action
        for subparser in subparsers.choices.values()
        for action in subparser._actions
        if action.dest not in _NOT_CONFIG
    }


def _typed(key: str, value, action: argparse.Action, parser: argparse.ArgumentParser):
    """A config value checked against its flag's type and converted as the flag would be."""
    if action.choices is not None:
        if value not in action.choices:
            parser.error(f"{key} must be one of {action.choices}, got {value!r}")
        return value
    kinds, name = _JSON_TYPES[action.type]
    if isinstance(value, bool) or not isinstance(value, kinds):
        parser.error(f"config key {key!r} must be {name}, got {json.dumps(value)}")
    try:
        return value if action.type is None else action.type(value)
    except OverflowError as exc:
        parser.error(f"config key {key!r}: {exc}")


def _load_config(path: str, actions: dict, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:  # also bad UTF-8 and integers too long to convert
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    unknown = sorted(set(data) - set(actions))
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(unknown)}")
    return {key: _typed(key, value, actions[key], parser) for key, value in data.items()}


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    actions = _config_actions(parser)
    settings = _load_config(args.config_path, actions, parser) if args.config_path else {}
    settings.update((key, value) for key, value in vars(args).items()
                    if key in actions and value is not None)
    # flag, then environment, then config file, then the default
    e2_mode = settings.pop("e2_mode", "paper-137")
    raw_env = os.environ.get(ENV_E2)
    if args.e2_mode is None and raw_env is not None:
        e2_mode = raw_env.strip().lower()
        if e2_mode == "paper":
            e2_mode = "paper-137"
        if e2_mode not in E2:
            parser.error(f"{ENV_E2} must be 'paper' or 'precise', got {raw_env!r}")
    return RunConfig(
        e2_mode=e2_mode,
        output_format=settings.pop("output_format", args.default_format),
        output_path=settings.pop("output_path", None),
        options=settings,
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its data as an Output; none formats a form


def _record(payload: dict) -> list:
    """A mapping as quantity,value rows."""
    return [("quantity", "value"), *payload.items()]


def _columns(records: list[dict]) -> list:
    """Equal-keyed records as rows under a header of their keys."""
    return [list(records[0]), *(record.values() for record in records)]


def _run_derive(cfg: RunConfig) -> Output:
    steps = estimator.derivation_report(e_squared=E2[cfg.e2_mode])["steps"]
    columns = ("step", "quantity", "value", "units", "paper_eq")
    rows = [columns, *([step[key] for key in columns] for step in steps)]
    return Output({"e2_mode": cfg.e2_mode, "steps": steps}, rows,
                  title=f"e2 mode: {cfg.e2_mode}\n")


def _run_charge(cfg: RunConfig) -> Output:
    d = cfg.options.get("d", 3)
    frac = pot.charge_fraction(d)
    payload = {"d": d, "fraction": str(frac), "value_float": float(frac)}
    return Output(payload, [("d", "fraction"), (d, frac)], table_rows=[(frac,)])


def _sample_range(opts: dict, r_start: float, r_stop: float) -> list[float]:
    """Equally spaced radii; r_start, r_stop and points in ``opts`` win over the defaults."""
    r_start = opts.get("r_start", r_start)
    r_stop = opts.get("r_stop", r_stop)
    points = opts.get("points", 50)
    if not (math.isfinite(r_start) and math.isfinite(r_stop)):
        raise ToolkitError(f"r_start and r_stop must be finite, got {r_start} and {r_stop}")
    if points > MAX_POINTS:
        raise ToolkitError(f"points must be at most {MAX_POINTS}, got {points}")
    if points < 2 or not 0.0 < r_start < r_stop:
        raise ToolkitError("need points >= 2 and 0 < r_start < r_stop")
    step = (r_stop - r_start) / (points - 1)
    normal_float(step, "the step {} between {} radii from {} to {}", step, points, r_start, r_stop)
    return [r_start + i * step for i in range(points)]


def _run_potential(cfg: RunConfig) -> Output:
    opts = cfg.options
    if "alpha" in opts or "sigma" in opts:
        alpha, sigma = opts.get("alpha", 1.0), opts.get("sigma", 0.0)
        cornell = pot.CornellPotential(Quantity(alpha, 0), Quantity(sigma, 2))
    else:
        cornell = pot.cornell_from_quark_mass(Quantity(opts.get("m_quark", 1.0), 1))
    rows = [
        {"r": r, "V": pot.evaluate_cornell(cornell, Quantity(r, -1)).value}
        for r in _sample_range(opts, 0.1, 5.0)
    ]
    payload = {"alpha": cornell.alpha.value, "sigma": cornell.sigma.value, "rows": rows}
    return Output(payload, _columns(rows))


def _run_field(cfg: RunConfig) -> Output:
    opts = cfg.options
    m_quark = opts.get("m_quark", 1.0)
    d = opts.get("d", 3)
    pot.charge_fraction(d)  # checks d also when no radius reaches the far field
    m = Quantity(m_quark, 1)
    src = sf.default_source(m)
    lam = compton_wavelength(m)
    radii = _sample_range(opts, 0.1 * lam.value, 10.0 * lam.value)
    e2 = E2[cfg.e2_mode]
    rows = []
    for r in radii:
        rq = Quantity(r, -1)
        near = sf.near_field_potential(src, m, rq).value
        far = None
        if r > lam.value:
            far = sf.far_field_coupling(src, m, d, rq, e_squared=e2).value
        rows.append({"r": r, "near": near, "far": far})
    payload = {
        "m_quark": m_quark,
        "d": d,
        "support_radius": src.support_radius.value,
        "total_energy": src.total_energy.value,
        "rows": rows,
    }
    return Output(payload, _columns(rows))


def _run_linearize(cfg: RunConfig) -> Output:
    opts = cfg.options
    l_value = opts.get("l", 1.0)
    step = opts.get("step", 1e-4)
    if not 0.0 < step < 0.5:
        raise ToolkitError("finite-difference step must lie in (0, 0.5)")
    e2 = E2[cfg.e2_mode]
    sep = Quantity(l_value, -1)
    proton = pot.proton_configuration(sep)

    def axial(x: float) -> float:
        return pot.central_displacement_energy(proton, x, "axial", e_squared=e2).value

    def transverse(x: float) -> float:
        return pot.central_displacement_energy(proton, x, "transverse", e_squared=e2).value

    pair = pot.QuarkConfiguration(
        (Fraction(-1, 3), Fraction(2, 3)), (0.0, 1.0), sep
    )

    def pair_energy(x: float) -> float:
        shifted = pot.QuarkConfiguration(pair.charges, (x, 1.0), sep)
        return pot.configuration_energy(shifted, e_squared=e2).value

    outside = f"l = {l_value:g} puts a derivative or the slope outside float64"
    try:
        e0 = axial(0.0)
        # displacements are in units of l, so scale the derivatives back by 1/l^k
        first = (axial(step) - axial(-step)) / (2.0 * step) / l_value
        second_ax = (axial(step) - 2.0 * e0 + axial(-step)) / step**2 / l_value**2
        second_tr = (transverse(step) - 2.0 * e0 + transverse(-step)) / step**2 / l_value**2
        pair_slope = abs(pair_energy(step) - pair_energy(-step)) / (2.0 * step) / l_value
    except (ArithmeticError, DomainError) as exc:  # an energy outside float64 raises DomainError
        raise DomainError(outside) from exc
    declared = pot.confinement_slope(sep, e_squared=e2)
    ratio = pair_slope / declared.value
    # float arithmetic past the float64 range raises, returns inf or, for a
    # value that is non-zero in exact arithmetic, a subnormal or zero; the
    # first derivative alone is zero by symmetry, and confinement_slope checks
    # the declared slope itself
    if not (math.isfinite(first) and is_normal(second_ax, second_tr, pair_slope, ratio)):
        raise DomainError(outside)
    values = {
        "l": l_value,
        "displacement_step": step,
        "axial_first_derivative": first,
        "axial_second_derivative": second_ax,
        "transverse_second_derivative": second_tr,
        "single_pair_slope_magnitude": pair_slope,
        "declared_slope": declared.value,
        "declared_slope_exact": estimator.format_exact(e2 / 9 / Fraction(l_value) ** 2),
        "pair_to_declared_ratio": ratio,
    }
    return Output({"e2_mode": cfg.e2_mode, **values}, _record(values))


def _wave_rows(blocks: Iterable) -> Iterator:
    """The r,u header, then the CSV text of each block's rows, one % per 1024 rows."""
    yield "r,u\n"
    for radii, u in blocks:
        for i in range(0, len(u), _CSV_ROWS):
            r = radii[i:i + _CSV_ROWS].tolist()
            values = r * 2
            values[::2], values[1::2] = r, u[i:i + _CSV_ROWS].tolist()
            yield "%.10g,%.10g\n" * len(r) % tuple(values)


def _run_spectrum(cfg: RunConfig) -> Output:
    opts = cfg.options
    cornell = pot.CornellPotential(Quantity(opts.get("alpha", 1.0), 0),
                                   Quantity(opts.get("sigma", 0.0), 2))
    problem = spec.RadialProblem(cornell, Quantity(opts.get("mu", 1.0), 1), opts.get("ell", 0),
                                 opts.get("grid_points", spec.DEFAULT_GRID_POINTS))
    state = spec.solve_bound_state(problem, opts.get("n", 1))
    payload = spec.bound_state_sidecar(state)
    # the table's norm is taken here, so that its error ends the run before any
    # output; its rows are evaluated again as they are written
    rows = _wave_rows(spec.wave_blocks(state)) if cfg.output_format == "csv" else ()
    return Output(payload, rows, table_rows=_record(payload), sidecar=True)


def _run_confinement(cfg: RunConfig) -> Output:
    report = {"e2_mode": cfg.e2_mode, **spec.confinement_report(e_squared=E2[cfg.e2_mode])}
    return Output(report, _record(report))


def _run_regime(cfg: RunConfig) -> Output:
    ratio = cfg.options.get("ratio", 1.0)
    delta = cfg.options.get("delta", 0.5)
    regime = estimator.classify_regime(ratio, delta).value
    payload = {"scale_over_compton": ratio, "delta": delta, "regime": regime}
    return Output(payload, [list(payload), list(payload.values())], table_rows=[(regime,)])


# ---------------------------------------------------------------------------
# rendering and entry points


def _cell(value) -> str:
    """One CSV or table cell: floats to 10 significant digits, None blank."""
    if isinstance(value, float):
        return fmt(value)
    return "" if value is None else str(value)


def _render(out: Output, output_format: str) -> Iterable[str]:
    """Build the one requested form of a handler's result, as blocks of text."""
    if output_format == "json":
        return [json.dumps(out.payload, indent=2) + "\n"]
    if output_format == "csv":
        return (row if isinstance(row, str) else ",".join(map(_cell, row)) + "\n"
                for row in out.rows)
    rows = [[_cell(value) for value in row] for row in (out.table_rows or out.rows)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return [out.title + "\n".join(lines) + "\n"]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args, parser)
    try:
        out = args.run(cfg)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not cfg.output_path:
        sys.stdout.writelines(_render(out, cfg.output_format))
        return 0
    forms = {cfg.output_path: cfg.output_format}
    if out.sidecar and cfg.output_format == "csv":
        forms[cfg.output_path + ".json"] = "json"
    try:
        for path, output_format in forms.items():
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(_render(out, output_format))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    """Entry point of ``comptonqcd`` and ``python -m comptonqcd``.

    One process makes one small eigensolve (at most a few hundred points), for
    which numpy's OpenBLAS worker thread only spins after the call returns and
    costs CPU the main thread never needs.  OpenBLAS reads its thread count
    when numpy loads, which no import of this package does, so the default set
    here reaches the first solve; a value already in the environment wins.

    Once :func:`main` returns, the process flushes stdout and stderr and ends
    with ``os._exit``, skipping interpreter teardown, which the work never
    needs: ``main`` has closed every output file, and freeing the loaded
    modules, numpy's above all, costs 10-25 ms of CPU.  ``atexit`` hooks
    therefore do not run in this process.  A flush that fails, or a write in
    ``main`` that fails (code 120), raises SystemExit instead, so that
    teardown reports the failure as it always has; argparse's exits (usage
    errors, ``--help``) and unexpected exceptions also leave through
    teardown.  :func:`main` itself never ends the process.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = 120
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        if code == 120:  # main's write failed: buffer a byte for teardown's flush to fail on
            with contextlib.suppress(OSError):
                sys.stdout.write("\n")
        raise SystemExit(code)
    os._exit(code)
