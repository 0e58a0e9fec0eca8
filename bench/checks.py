"""Output checks, run outside the timed interval.

Every check compares the program's output with a reference computed here,
independently of the program, and states its tolerance.  A tolerance is
one the program reaches on that request's grid; a request that misses it
counts as failed.  The module imports only the standard library (and
``jsonschema`` when a schema is first needed), so the benchmark process
never imports numpy before the ``lib-field`` set-up times it.

Tolerances and why:

* exact-rational outputs (``derive``, ``charge``, the declared slope of
  ``linearize``) must equal the exact rational;
* JSON numbers round-trip exactly, CSV and table numbers carry 10
  significant digits, so printed values get a relative 1e-9;
* ``linearize``: the axial first derivative vanishes by symmetry, so
  |d1| <= 1e-6 x declared slope admits rounding only; the central
  difference of the single pair has truncation error 2 step^2, so
  |ratio - 2| <= 2.02 step^2 + 2e-9;
* ``spectrum`` energies: the Coulomb core limits the Numerov start to low
  order, so Coulomb oracles get SPECTRUM_REL_TOL_4000 x 4000 / (grid - 1)
  (about three times the worst error measured on 4001-point grids); the
  Airy oracle (alpha = 0, l = 0) is smooth and gets AIRY_REL_TOL, whose
  floor is the r_min = 1e-6 x scale offset (~4e-7);
* other problems: the node theorem (n - 1 nodes) and the comparison bounds
  E_coulomb(n, l) <= E <= (sigma^2 / 2mu)^(1/3) a_(n+l), and, where the
  wavefunction is exported, the virial residual, relative to <r dV/dr>,
  within the energy tolerance of its grid (never below 2e-4);
* ``lib-field``: the kernels integrate polynomial pieces with composite
  Simpson on at least four panels per piece, so they match the exact ball
  closed forms and the exact table moments to FIELD_REL_TOL (measured
  worst 5e-14); at r = 0 a table is clamped to a small radius, so the
  allowance there is the clamp error measured from the radius the warning
  reports; the far field is a closed form and gets FAR_REL_TOL.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import os
import re
from fractions import Fraction

E2 = {"paper": Fraction(1, 137), "precise": Fraction(1_000_000, 137_035_999)}
MODE_LABEL = {"paper": "paper-137", "precise": "precise"}

# zeros of Ai(-x): a_1 .. a_7
AIRY_ZEROS = (
    2.338107410459767, 4.087949444130971, 5.520559828095551, 6.786708090071759,
    7.944133587120853, 9.022650853340981, 10.04017434155809,
)

PRINT_REL_TOL = 1e-9
SPECTRUM_REL_TOL_4000 = 1e-3
AIRY_REL_TOL = 1e-5
VIRIAL_TOL_FLOOR = 2e-4
CONFINEMENT_BAND = (0.1, 10.0)
RMS_REL_TOL = 1e-6
FIELD_REL_TOL = 1e-10
FAR_REL_TOL = 1e-12


class CheckError(Exception):
    """An output that does not match its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, rel: float, what: str, scale: float | None = None) -> None:
    bound = rel * (abs(want) if scale is None else scale)
    _require(math.isfinite(got) and abs(got - want) <= bound,
             f"{what}: got {got!r}, want {want!r} (tolerance {bound:.3g})")


# ---------------------------------------------------------------------------
# schemas


class Schemas:
    """Validates JSON payloads against the schema files shipped with the package."""

    def __init__(self, schema_dir: str):
        self.schema_dir = schema_dir
        self._validators: dict = {}

    def validate(self, command: str, payload) -> None:
        if command not in self._validators:
            import jsonschema

            with open(os.path.join(self.schema_dir, f"{command}.schema.json"), encoding="utf-8") as fh:
                schema = json.load(fh)
            self._validators[command] = jsonschema.Draft202012Validator(schema)
        errors = sorted(self._validators[command].iter_errors(payload), key=str)
        _require(not errors, f"{command} JSON violates its schema: {errors[0].message}" if errors else "")


# ---------------------------------------------------------------------------
# parsing the three output forms


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text))]


def _table_rows(text: str) -> list[list[str]]:
    return [re.split(r"\s{2,}", line.strip()) for line in text.splitlines() if line.strip()]


def _key_values(req, text: str, schemas: Schemas) -> dict:
    """Parse a quantity/value report (json, csv or table form) into a dict of strings or values."""
    if req.output_format == "json":
        payload = json.loads(text)
        schemas.validate(req.kind, payload)
        return payload
    rows = _csv_rows(text) if req.output_format == "csv" else _table_rows(text)
    _require(rows and rows[0] == ["quantity", "value"], f"unexpected header {rows[:1]}")
    _require(all(len(r) == 2 for r in rows[1:]), "rows must have two cells")
    return {k: v for k, v in rows[1:]}


def _printed_tol(req) -> float:
    return 0.0 if req.output_format == "json" else PRINT_REL_TOL


# ---------------------------------------------------------------------------
# cli-exact checks


DERIVE_QUANTITIES = {
    "coupling e^2": lambda e2: e2,
    "charge fraction (d=1)": lambda e2: Fraction(1, 3),
    "charge fraction (d=2)": lambda e2: Fraction(2, 3),
    "confinement slope coefficient k": lambda e2: Fraction(1, 9),
    "quark mass": lambda e2: 9 / e2,
    "single-fermion mass": lambda e2: 1 / e2,
    "pion mass (two fermions)": lambda e2: 2 / e2,
}


def check_derive(req, text: str, schemas: Schemas) -> None:
    """Exact 1/3, 2/3, 1233, 137, 274 (paper) or 1233.323991 ... (precise)."""
    mode = req.params["mode"]
    e2 = E2[mode]
    if req.output_format == "json":
        payload = json.loads(text)
        schemas.validate("derive", payload)
        _require(payload["e2_mode"] == MODE_LABEL[mode], f"e2_mode {payload['e2_mode']!r}")
        values = {s["quantity"]: s["value"] for s in payload["steps"]}
        for s in payload["steps"]:
            if s["value_float"] is not None:
                _require(s["value_float"] == float(Fraction(s["value"])), f"value_float of {s['quantity']}")
    else:
        lines = text.splitlines()
        if req.output_format == "table":
            _require(lines[0] == f"e2 mode: {MODE_LABEL[mode]}", f"table title {lines[0]!r}")
            rows = _table_rows("\n".join(lines[1:]))
        else:
            rows = _csv_rows(text)
        _require(rows[0] == ["step", "quantity", "value", "units", "paper_eq"], f"header {rows[0]}")
        values = {row[1]: row[2] for row in rows[1:]}
    for quantity, expected in DERIVE_QUANTITIES.items():
        _require(quantity in values, f"missing {quantity!r}")
        _require(Fraction(values[quantity]) == expected(e2),
                 f"{quantity}: got {values[quantity]}, want {expected(e2)}")
    _require(values.get("quark mass order of magnitude (10^3 m_e)") == "satisfied", "order flag")
    if mode == "precise":
        _require(values["quark mass"] == "1233.323991", f"precise quark mass {values['quark mass']}")


def check_charge(req, text: str, schemas: Schemas) -> None:
    d = req.params["d"]
    want = Fraction(d, 3)
    if req.output_format == "json":
        payload = json.loads(text)
        schemas.validate("charge", payload)
        _require(payload["d"] == d and payload["value_float"] == float(want), "charge payload")
        got = payload["fraction"]
    elif req.output_format == "csv":
        rows = _csv_rows(text)
        _require(rows[0] == ["d", "fraction"] and rows[1][0] == str(d), f"charge rows {rows}")
        got = rows[1][1]
    else:
        got = text.strip()
    _require(Fraction(got) == want, f"charge fraction {got}, want {want}")


def regime_of(ratio: float, delta: float) -> str:
    if ratio <= 1.0 - delta:
        return "Quark"
    if ratio >= 1.0 + delta:
        return "Electron"
    return "Pion"


def check_regime(req, text: str, schemas: Schemas) -> None:
    ratio, delta = req.params["ratio"], req.params["delta"]
    want = regime_of(ratio, delta)
    if req.output_format == "json":
        payload = json.loads(text)
        schemas.validate("regime", payload)
        _require(payload["scale_over_compton"] == ratio and payload["delta"] == delta, "regime echo")
        got = payload["regime"]
    elif req.output_format == "csv":
        rows = _csv_rows(text)
        _require(rows[0] == ["scale_over_compton", "delta", "regime"], f"regime header {rows[0]}")
        _close(float(rows[1][0]), ratio, PRINT_REL_TOL, "ratio")
        got = rows[1][2]
    else:
        got = text.strip()
    _require(got == want, f"regime {got}, want {want}")


def check_linearize(req, text: str, schemas: Schemas) -> None:
    """Exact declared slope e^2/(9 l^2), zero axial first derivative, pair ratio 2."""
    values = _key_values(req, text, schemas)
    l_value, step = req.params["l"], req.params["step"]
    e2 = E2[req.params["mode"]]
    exact = e2 / 9 / Fraction(l_value) ** 2
    tol = _printed_tol(req)
    if req.output_format == "json":
        _require(values["e2_mode"] == MODE_LABEL[req.params["mode"]], "e2_mode")
    _close(float(values["l"]), l_value, tol, "l")
    _close(float(values["displacement_step"]), step, tol, "displacement_step")
    _require(Fraction(values["declared_slope_exact"]) == exact,
             f"declared_slope_exact {values['declared_slope_exact']}, want {exact}")
    declared = float(exact)
    _close(float(values["declared_slope"]), declared, tol, "declared_slope")
    first = float(values["axial_first_derivative"])
    _require(abs(first) <= 1e-6 * declared, f"axial first derivative {first!r} is not zero")
    _require(float(values["axial_second_derivative"]) < 0.0, "axial curvature must be negative")
    ratio = float(values["pair_to_declared_ratio"])
    _require(abs(ratio - 2.0) <= 2.02 * step * step + 2e-9, f"pair_to_declared_ratio {ratio!r}, want 2")


def check_potential(req, text: str, schemas: Schemas) -> None:
    """Every row equals -alpha/r + sigma r on the requested grid."""
    p = req.params
    alpha, sigma = p["alpha"], p["sigma"]
    r_start, r_stop, points = p["r_start"], p["r_stop"], p["points"]
    step = (r_stop - r_start) / (points - 1)
    if req.output_format == "json":
        payload = json.loads(text)
        schemas.validate("potential", payload)
        _require(payload["alpha"] == alpha and payload["sigma"] == sigma, "alpha/sigma echo")
        rows = [(row["r"], row["V"]) for row in payload["rows"]]
        tol = 1e-12
    else:
        table = _csv_rows(text) if req.output_format == "csv" else _table_rows(text)
        _require(table[0] == ["r", "V"], f"potential header {table[0]}")
        rows = [(float(r), float(v)) for r, v in table[1:]]
        tol = PRINT_REL_TOL
    _require(len(rows) == points, f"{len(rows)} rows, want {points}")
    for i, (r, v) in enumerate(rows):
        _close(r, r_start + i * step, tol, f"r[{i}]")
        _close(v, -alpha / r + sigma * r, tol, f"V({r})", scale=alpha / r + sigma * r)


# ---------------------------------------------------------------------------
# cli-solve checks


def energy_tolerance(grid: int) -> float:
    return SPECTRUM_REL_TOL_4000 * 4000.0 / (grid - 1)


def airy_energy(sigma: float, mu: float, k: int) -> float:
    return (sigma * sigma / (2.0 * mu)) ** (1.0 / 3.0) * AIRY_ZEROS[k - 1]


def check_energy(p: dict, energy: float) -> None:
    """Closed form where one exists, comparison bounds otherwise."""
    alpha, sigma, mu, n, ell = p["alpha"], p["sigma"], p["mu"], p["n"], p["ell"]
    tol = energy_tolerance(p["grid"])
    coulomb = -mu * alpha * alpha / (2.0 * (n + ell) ** 2)
    if sigma == 0.0:
        _close(energy, coulomb, tol, "Coulomb energy")
        return
    if alpha == 0.0 and ell == 0:
        _close(energy, airy_energy(sigma, mu, n), AIRY_REL_TOL, "Airy energy")
        return
    lower = coulomb if alpha > 0.0 else airy_energy(sigma, mu, n)
    upper = airy_energy(sigma, mu, n + ell)
    _require(lower - tol * abs(lower) <= energy <= upper + tol * abs(upper),
             f"energy {energy!r} outside the comparison bounds [{lower!r}, {upper!r}]")


def _check_state_summary(p: dict, values: dict) -> None:
    _require(int(values["n"]) == p["n"], f"n {values['n']}")
    _require(int(values["nodes"]) == p["n"] - 1, f"node theorem: {values['nodes']} nodes for n={p['n']}")
    _require(int(values["grid_points"]) == p["grid"], f"grid_points {values['grid_points']}")
    _require(float(values["rms_radius"]) > 0.0, "rms radius must be positive")
    check_energy(p, float(values["E"]))


def check_spectrum(req, text: str, schemas: Schemas) -> None:
    p = req.params
    if req.output_format == "csv":
        _require(text == "", "an export must print nothing")
        check_spectrum_export(req, schemas)
        return
    values = _key_values(req, text, schemas)
    tol = _printed_tol(req)
    for key in ("alpha", "sigma", "mu"):
        _close(float(values[key]), p[key], tol, key)
    _require(int(values["ell"]) == p["ell"], "ell echo")
    _check_state_summary(p, values)


def _simpson(y: list[float], h: float) -> float:
    """Composite Simpson; an odd interval count ends with the 3/8 rule."""
    n = len(y) - 1
    tail = 0.0
    if n % 2:
        tail = 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[: n - 2]
    body = h / 3.0 * (y[0] + y[-1] + 4.0 * math.fsum(y[1:-1:2]) + 2.0 * math.fsum(y[2:-2:2]))
    return body + tail


def virial_residual(p: dict, r: list[float], u: list[float]) -> float:
    """|2<T> - <r dV/dr>| / <r dV/dr> from an exported wavefunction, <T> = E - <V>.

    The program's own residual divides by |E|, which nears zero when the
    Coulomb and linear terms cancel; <r dV/dr> = alpha <1/r> + sigma <r>
    equals 2<T> for an exact state and never vanishes.
    """
    h = (r[-1] - r[0]) / (len(r) - 1)
    u2 = [x * x for x in u]
    norm = _simpson(u2, h)
    alpha, sigma = p["alpha"], p["sigma"]
    mean_v = _simpson([w * (-alpha / x + sigma * x) for w, x in zip(u2, r)], h) / norm
    mean_rdv = _simpson([w * (alpha / x + sigma * x) for w, x in zip(u2, r)], h) / norm
    energy = p["_energy"]
    return abs(2.0 * (energy - mean_v) - mean_rdv) / mean_rdv


def check_spectrum_export(req, schemas: Schemas) -> None:
    """grid_points + 1 rows, a sidecar that agrees with them, and the virial residual."""
    p = req.params
    with open(req.output_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(req.output_path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    schemas.validate("spectrum", sidecar)
    _require(len(lines) == p["grid"] + 1, f"{len(lines)} CSV rows, want grid_points + 1 = {p['grid'] + 1}")
    _require(lines[0] == "r,u", f"CSV header {lines[0]!r}")
    _check_state_summary(p, sidecar)
    _require(sidecar["grid_points"] == len(lines) - 1, "sidecar grid_points disagrees with the rows")
    r, u = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        r.append(float(a))
        u.append(float(b))
    h = (r[-1] - r[0]) / (len(r) - 1)
    norm = _simpson([x * x for x in u], h)
    _close(norm, 1.0, RMS_REL_TOL, "normalization of the exported u")
    rms = math.sqrt(_simpson([(x * w) ** 2 for x, w in zip(r, u)], h))
    _close(sidecar["rms_radius"], rms, RMS_REL_TOL, "sidecar rms_radius vs the rows")
    peak = max(abs(x) for x in u)
    signs = [x for x in u[1:-1] if abs(x) > 1e-12 * peak]
    nodes = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0.0)
    _require(nodes == sidecar["nodes"], f"rows have {nodes} nodes, sidecar says {sidecar['nodes']}")
    residual = virial_residual(dict(p, _energy=sidecar["E"]), r, u)
    bound = max(VIRIAL_TOL_FLOOR, energy_tolerance(p["grid"]))
    _require(residual <= bound, f"virial residual {residual:.3g} > {bound:.3g}")


def check_confinement(req, text: str, schemas: Schemas) -> None:
    """Ratio in [0.1, 10], exact quark mass, and an energy inside the comparison bounds."""
    values = _key_values(req, text, schemas)
    mode = req.params["mode"]
    tol = _printed_tol(req)
    _require(values["e2_mode"] == MODE_LABEL[mode], f"e2_mode {values['e2_mode']}")
    m = float(9 / E2[mode])
    _close(float(values["m_quark"]), m, tol, "m_quark")
    _close(float(values["compton_wavelength"]), 1.0 / m, tol, "compton_wavelength")
    ratio = float(values["ratio"])
    lo, hi = CONFINEMENT_BAND
    _require(lo <= ratio <= hi, f"confinement ratio {ratio} outside [{lo}, {hi}]")
    _require(str(values["within_band"]) == "True", "within_band")
    _close(ratio, float(values["rms_radius"]) / float(values["compton_wavelength"]), max(tol, 1e-12), "ratio")
    problem = {"alpha": 1.0, "sigma": m, "mu": m / 2.0, "n": 1, "ell": 0, "grid": req.params["grid"]}
    coulomb = -problem["mu"] / 2.0
    upper = airy_energy(m, m / 2.0, 1)
    energy = float(values["energy"])
    t = energy_tolerance(problem["grid"])
    _require(coulomb - t * abs(coulomb) <= energy <= upper * (1 + t), f"confinement energy {energy}")


CLI_CHECKS = {
    "derive": check_derive,
    "charge": check_charge,
    "regime": check_regime,
    "linearize": check_linearize,
    "potential": check_potential,
    "spectrum": check_spectrum,
    "confinement": check_confinement,
}


def check_cli(req, exit_code: int, stdout: str, stderr: str, timed_out: bool, schemas: Schemas) -> str | None:
    """None when the request succeeded, else the reason it failed."""
    if timed_out:
        return "timed out"
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if exit_code != 0:
        return f"exit code {exit_code}: {stderr.strip()[:200]}"
    try:
        CLI_CHECKS[req.kind](req, stdout, schemas)
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# lib-field reference: exact moments


class Moments:
    """Exact moments M_k(0, r) = Int_0^r x^k eps(x) dx of a piecewise-linear density.

    The density is normalized like the program's tables: 4 pi M_2(0, R) = E.
    Below the first sample it extends flat; beyond the last it is zero.
    """

    def __init__(self, radii: list[float], eps: list[float], total_energy: float):
        pieces = []
        if radii[0] > 0.0:
            pieces.append((0.0, radii[0], eps[0], 0.0))
        for a, b, ea, eb in zip(radii, radii[1:], eps, eps[1:]):
            pieces.append((a, b, ea, (eb - ea) / (b - a)))
        self.pieces = pieces
        self.edges = [pc[0] for pc in pieces]
        self.support = radii[-1]
        self.prefix = {k: [0.0] for k in range(1, 5)}
        for a, b, ea, q in pieces:
            for k in range(1, 5):
                self.prefix[k].append(self.prefix[k][-1] + self._piece(a, b, ea, q, a, b, k))
        self.scale = 1.0
        self.scale = total_energy / (4.0 * math.pi * self.upto(self.support, 2))

    @staticmethod
    def _piece(a, b, ea, q, lo, hi, k):
        # Int_lo^hi x^k (ea + q (x - a)) dx
        c0 = ea - q * a
        return c0 * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) + q * (hi ** (k + 2) - lo ** (k + 2)) / (k + 2)

    def upto(self, r: float, k: int) -> float:
        r = min(r, self.support)
        j = bisect.bisect_right(self.edges, r) - 1
        if j < 0:
            return 0.0
        a, b, ea, q = self.pieces[j]
        return self.scale * (self.prefix[k][j] + self._piece(a, b, ea, q, a, min(r, b), k))

    def between(self, lo: float, hi: float, k: int) -> float:
        return self.upto(hi, k) - self.upto(lo, k)


def table_kernels(mom: Moments, r: float) -> tuple[float, float]:
    """Inverse and linear kernels of a table at r from its exact moments."""
    R = mom.support
    if r == 0.0:
        return 4.0 * math.pi * mom.upto(R, 1), 4.0 * math.pi * mom.upto(R, 3)
    inv = 4.0 * math.pi * (mom.upto(r, 2) / r + mom.between(r, R, 1))
    lin = (2.0 * math.pi / (3.0 * r)) * (
        6.0 * r * r * mom.upto(r, 2) + 2.0 * mom.upto(r, 4)
        + 2.0 * r ** 3 * mom.between(r, R, 1) + 6.0 * r * mom.between(r, R, 3)
    )
    return inv, lin


def ball_kernels(R: float, E: float, r: float) -> tuple[float, float]:
    """Closed forms for a uniform ball: shell theorem outside, polynomials inside."""
    if r >= R:
        return E / r, E * (r + R * R / (5.0 * r))
    rho = 3.0 * E / (4.0 * math.pi * R ** 3)
    inv = E * (3.0 * R * R - r * r) / (2.0 * R ** 3)
    lin = (2.0 * math.pi * rho / 3.0) * (1.5 * R ** 4 + R * R * r * r - 0.1 * r ** 4)
    return inv, lin


def near_field(inv: float, lin: float, m: float) -> float:
    return 4.0 * m * inv + 2.0 * m ** 3 * lin


_CLAMP_RE = re.compile(r"clamped to the grid spacing ([0-9.eE+-]+)")


def check_field(req, source: dict, moments: Moments | None, near: list, far: list,
                warnings_seen: list[str]) -> None:
    """Closed forms for the ball, exact moments for tables, the clamp allowance at r = 0."""
    p = req.params
    m, d = p["m"], p["d"]
    E, R = source["m"], source["support"]
    zeros = 0
    for r, got, got_far, want_far in zip(p["radii"], near, far, p["far"]):
        if moments is None:
            want = near_field(*ball_kernels(R, E, r), m)
            _close(got, want, FIELD_REL_TOL, f"ball near field at r={r!r}")
        elif r == 0.0:
            zeros += 1
            want = near_field(*table_kernels(moments, 0.0), m)
            clamp_errors = []
            for message in warnings_seen:
                match = _CLAMP_RE.search(message)
                _require(match is not None, f"unexpected warning {message!r}")
                rc = float(match.group(1))
                # the printed radius has four digits; take the larger error nearby
                clamp_errors.append(max(
                    abs(table_kernels(moments, x)[0] - table_kernels(moments, 0.0)[0])
                    for x in (rc * 0.999, rc, rc * 1.001)
                ))
            _require(clamp_errors, "r = 0 on a table must raise ClampWarning")
            allowance = 4.0 * m * max(clamp_errors) * 1.01 + FIELD_REL_TOL * abs(want)
            _require(abs(got - want) <= allowance,
                     f"table near field at r=0: got {got!r}, want {want!r} within clamp error {allowance:.3g}")
        else:
            want = near_field(*table_kernels(moments, r), m)
            _close(got, want, FIELD_REL_TOL, f"table near field at r={r!r}")
        if want_far:
            expected = float(Fraction(d, 3)) * float(E2["paper"]) * (E / m) / r
            _require(got_far is not None, f"missing far field at r={r!r}")
            _close(got_far, expected, FAR_REL_TOL, f"far field at r={r!r}")
        else:
            _require(got_far is None, f"far field computed inside the Compton wavelength at r={r!r}")
    _require(len(warnings_seen) == zeros, f"{len(warnings_seen)} ClampWarning(s) for {zeros} table r=0 point(s)")
