"""Seeded request streams and set-up for the three workloads.

No real user logs exist, so each mix takes its request shapes and its
weights from the README examples, the CLI defaults and the acceptance cases
in ``tests/test_acceptance.py``.  Where a share has no such source, the
comment at the constant says so and why.

``cli-exact``
    One ``python -m comptonqcd`` process per request.  The README command
    list names ``derive``, ``charge``, ``potential``, ``linearize`` and
    ``regime`` once each, so each gets the same share: one request per
    output format and e2 mode in every cycle.  The e2 mode is set in turn
    by flag, by ``COMPTONQCD_E2`` and by ``--config``.  ``potential`` tables
    have 50 points, as in the README example and the CLI default.  Time goes
    to interpreter start, imports, argument parsing, rendering and
    exact-rational arithmetic; ``spectrum`` and ``stressfield`` do no work.
    This is where a lazy numpy import shows, and where a solver or kernel
    change must not move anything.
``cli-solve``
    One process per request.  Each cycle holds the README examples on the
    CLI's default 20000-point grid (one ``spectrum`` request on stdout,
    ``confinement`` in both e2 modes), the solves of acceptance criterion 7
    (Coulomb-only on 40001 points, linear-only on 8001, mixed Cornell levels
    n = 1..5 on 4001) and one ``--format csv -o`` export of the 20000-row
    table with its sidecar.  The README's spectrum example is hydrogen; the
    default-grid requests here take the Coulomb-only, linear-only and mixed
    classes in turn, so each class meets the default grid.  The physical
    parameters are seeded (mu varied, l from 0 to 2); the radial range is
    the CLI default, as a user running the command gets it.  The solver
    dominates.
``lib-field``
    In-process library requests: one ``near_field_potential`` curve of
    POINTS_PER_CURVE radii (inside and outside the support, sometimes r = 0)
    plus ``far_field_coupling`` beyond the Compton wavelength.  Each cycle
    holds one request per source: a uniform ball (``default_source``, as the
    ``field`` command and the acceptance cases use) and one
    piecewise-linear table of each size in TABLE_SIZES, loaded with
    ``load_source_csv``.  ``stressfield`` and ``quadrature`` do the work;
    table size is the property an exact-moment kernel would change.

Requests come in cycles.  Every cycle of a workload holds the same multiset
of request shapes (subcommand, grid size or table size, output form); the
seed shuffles their order and draws the physical parameters.  Runs with
different seeds thus see the same cost mix while the inputs themselves
differ.  Request i depends only on the seed and i.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-exact", "cli-solve", "lib-field")
FORMATS = ("json", "csv", "table")
E2_MODES = ("paper", "precise")

# cli-exact: the README's five exact-arithmetic commands, each once per
# output format and e2 mode; 50-point tables as in the README and the default
EXACT_COMMANDS = ("derive", "charge", "potential", "linearize", "regime")
TABLE_POINTS = 50

# cli-solve: (slot, grid points, level) per cycle.  Acceptance criterion 7
# solves hydrogen at n = 1, 2 and 3 on 40001 points; here one of those
# levels appears per cycle, in turn.  Three one-second solves per cycle would
# raise the mean request past half a second, and a run must hold
# measure.MIN_REQUESTS requests within about a minute.  The CSV export has
# no source for its share: one per cycle, next to one stdout request on the
# same default grid.
DEFAULT_GRID = 20000
SOLVE_SLOTS = (
    ("readme", DEFAULT_GRID, None),
    ("export", DEFAULT_GRID, None),
    ("hydrogen", 40001, None),
    ("linear", 8001, None),
) + tuple(("cornell", 4001, n) for n in range(1, 6))
CLASSES = ("coulomb", "linear", "mixed")

# lib-field: one request per source in each cycle; the ball's mass changes
# from cycle to cycle among BALLS seeded values
TABLE_SIZES = (33, 65, 129, 257)
LIB_SLOTS = ("ball",) + tuple(f"t{size}" for size in TABLE_SIZES)
BALLS = 3
POINTS_PER_CURVE = 8

CYCLE = {
    "cli-exact": len(EXACT_COMMANDS) * len(FORMATS) * len(E2_MODES),
    "cli-solve": len(SOLVE_SLOTS) + len(E2_MODES),  # plus confinement in both modes
    "lib-field": len(LIB_SLOTS),
}


@dataclass
class Request:
    """One request: a CLI invocation or a library call, plus what its check needs."""

    index: int
    kind: str  # subcommand name, or "field" for a lib-field request
    argv: list[str] = field(default_factory=list)  # after ``python -m comptonqcd``
    env: dict[str, str] = field(default_factory=dict)
    output_format: str = ""
    output_path: str | None = None
    params: dict = field(default_factory=dict)


def _num(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class ConfigFiles:
    """Writes each distinct ``--config`` payload once and hands back its path."""

    def __init__(self, directory: str):
        self.directory = directory
        self._paths: dict[str, str] = {}

    def path_for(self, payload: dict) -> str:
        text = json.dumps(payload, sort_keys=True)
        if text not in self._paths:
            path = os.path.join(self.directory, f"config-{len(self._paths)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            self._paths[text] = path
        return self._paths[text]


def _e2_setting(mode: str, via: str, argv: list, env: dict, config: dict) -> None:
    """Select the coupling mode the way a user would: flag, environment or config."""
    if via == "flag":
        argv += ["--e2-mode", "paper-137" if mode == "paper" else "precise"]
    elif via == "env":
        env["COMPTONQCD_E2"] = mode
    else:
        config["e2_mode"] = "paper-137" if mode == "paper" else "precise"


def spectrum_request(problem: dict, grid: int, fmt: str) -> Request:
    """A ``spectrum`` invocation for one Cornell problem; the default grid is left implicit."""
    argv = ["spectrum", "--alpha", repr(problem["alpha"]), "--sigma", repr(problem["sigma"]),
            "--mu", repr(problem["mu"]), "--n", str(problem["n"]), "--ell", str(problem["ell"])]
    if grid != DEFAULT_GRID:
        argv += ["--grid-points", str(grid)]
    argv += ["--format", fmt]
    return Request(0, "spectrum", argv, {}, fmt, None, dict(problem, grid=grid))


class RequestStream:
    """Unbounded, deterministic request sequence of one workload."""

    def __init__(self, workload: str, seed: int, workdir: str, lib_sources: dict | None = None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.lib_sources = lib_sources
        self.configs = ConfigFiles(workdir)
        self.exports = os.path.join(workdir, "exports")
        os.makedirs(self.exports, exist_ok=True)
        self._cycles: dict[int, list[Request]] = {}

    def __getitem__(self, i: int) -> Request:
        size = CYCLE[self.workload]
        c, slot = divmod(i, size)
        if c not in self._cycles:
            rng = random.Random(f"{self.workload}:{self.seed}:{c}")
            make = {
                "cli-exact": self._cli_exact_cycle,
                "cli-solve": self._cli_solve_cycle,
                "lib-field": self._lib_field_cycle,
            }[self.workload]
            cycle = make(rng, c)
            for k, req in enumerate(cycle):
                req.index = c * size + k
                if req.kind == "spectrum" and req.output_format == "csv":
                    req.output_path = os.path.join(self.exports, f"spectrum-{req.index}.csv")
                    req.argv += ["-o", req.output_path]
            self._cycles[c] = cycle
        return self._cycles[c][slot]

    def prefetch(self, count: int) -> None:
        for i in range(count):
            self[i]

    # -- cli-exact ---------------------------------------------------------

    def _cli_exact_cycle(self, rng: random.Random, c: int) -> list[Request]:
        out = []
        shapes = [(kind, fmt, mode) for kind in EXACT_COMMANDS for fmt in FORMATS for mode in E2_MODES]
        for j, (kind, fmt, mode) in enumerate(shapes):
            via = ("flag", "env", "config")[(j + c) % 3]
            argv, env, config, params = [kind, "--format", fmt], {}, {}, {"mode": mode}
            _e2_setting(mode, via, argv, env, config)
            if kind == "linearize":
                l_text = _num(round(rng.uniform(0.5, 4.0), 2))
                step_text = _num(10 ** rng.uniform(-5, -3), 3)
                argv += ["--l", l_text, "--step", step_text]
                params.update(l=float(l_text), step=float(step_text))
            elif kind == "potential":
                variant = ("m_quark", "alpha_sigma")[(j + c) % 2]
                self._potential_args(rng, variant, via, argv, config, params)
            elif kind == "charge":
                d = rng.randint(1, 3)
                argv += ["--d", str(d)]
                params["d"] = d
            elif kind == "regime":
                target = ("Quark", "Pion", "Electron")[(j + c) % 3]
                delta = float(_num(rng.uniform(0.2, 0.8), 3))
                lo, hi = {"Quark": (0.05, 0.97 * (1 - delta)),
                          "Pion": (1.03 * (1 - delta), 0.97 * (1 + delta)),
                          "Electron": (1.03 * (1 + delta), 20.0)}[target]
                ratio = float(_num(_loguniform(rng, lo, hi), 5))
                argv += ["--ratio", repr(ratio), "--delta", repr(delta)]
                params.update(ratio=ratio, delta=delta)
            if config:
                argv += ["--config", self.configs.path_for(config)]
            out.append(Request(0, kind, argv, env, fmt, None, params))
        rng.shuffle(out)
        return out

    def _potential_args(self, rng, variant, via, argv, config, params) -> None:
        if variant == "m_quark":
            m = float(_num(_loguniform(rng, 0.5, 2000.0), 5))
            values = {"m_quark": m}
            alpha, sigma = 1.0, m
        else:
            alpha = float(_num(rng.uniform(0.2, 2.0), 4))
            sigma = float(_num(rng.uniform(0.1, 5.0), 4))
            values = {"alpha": alpha, "sigma": sigma}
        r0 = math.sqrt(alpha / sigma)
        values["r_start"] = float(_num(r0 * rng.uniform(0.01, 0.5), 4))
        values["r_stop"] = float(_num(r0 * rng.uniform(2.0, 20.0), 4))
        values["points"] = TABLE_POINTS
        # via config, the grid keys travel in the file and the rest as flags
        in_file = ("r_start", "points") if via == "config" else ()
        for key, value in values.items():
            if key in in_file:
                config[key] = value
            else:
                argv += ["--" + key.replace("_", "-"), repr(value)]
        params.update(values, alpha=alpha, sigma=sigma)

    # -- cli-solve ---------------------------------------------------------

    def _cornell(self, rng: random.Random, kind: str, n: int | None = None) -> dict:
        alpha = float(_num(rng.uniform(0.5, 2.0), 4)) if kind != "linear" else 0.0
        sigma = float(_num(rng.uniform(0.2, 2.0), 4)) if kind != "coulomb" else 0.0
        return {
            "class": kind,
            "alpha": alpha,
            "sigma": sigma,
            "mu": float(_num(_loguniform(rng, 0.5, 2.0), 4)),
            "n": n if n is not None else rng.randint(1, 5),
            "ell": rng.randint(0, 2),
        }

    def _cli_solve_cycle(self, rng: random.Random, c: int) -> list[Request]:
        out = []
        for j, (slot, grid, n) in enumerate(SOLVE_SLOTS):
            kind = {"readme": CLASSES[c % 3], "export": CLASSES[(c + 1) % 3], "hydrogen": "coulomb",
                    "linear": "linear", "cornell": "mixed"}[slot]
            if slot == "hydrogen":
                n = 1 + c % 3
            fmt = "csv" if slot == "export" else ("json", "table")[(j + c) % 2]
            out.append(spectrum_request(self._cornell(rng, kind, n), grid, fmt))
        for k, mode in enumerate(E2_MODES):
            via = ("flag", "env", "config")[(k + c) % 3]
            fmt = ("json", "table")[(k + c) % 2]
            argv, env, config = ["confinement", "--format", fmt], {}, {}
            _e2_setting(mode, via, argv, env, config)
            if config:
                argv += ["--config", self.configs.path_for(config)]
            out.append(Request(0, "confinement", argv, env, fmt, None, {"mode": mode, "grid": DEFAULT_GRID}))
        rng.shuffle(out)
        return out

    # -- lib-field ---------------------------------------------------------

    def _lib_field_cycle(self, rng: random.Random, c: int) -> list[Request]:
        out = []
        for j, slot in enumerate(LIB_SLOTS):
            key = f"ball{c % BALLS}" if slot == "ball" else slot
            source = self.lib_sources[key]
            m, support = source["m"], source["support"]
            lam = 1.0 / m
            with_zero = (j + c) % 3 == 0
            inside = [support * rng.uniform(0.02, 0.98) for _ in range(4 - with_zero)]
            outside = [rng.uniform(1.05 * support, 3.0 * lam) for _ in range(POINTS_PER_CURVE - 4)]
            radii = sorted(([0.0] if with_zero else []) + inside + outside)
            params = {"source": key, "m": m, "d": rng.randint(1, 3), "radii": radii,
                      "far": [r > lam * (1 + 1e-9) for r in radii]}
            out.append(Request(0, "field", params=params))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# warm-up requests: fixed, so set-up cost does not depend on the seed


def warmup_request(workload: str) -> Request:
    if workload == "cli-exact":
        return Request(-1, "derive", ["derive", "--format", "json"], {}, "json", None, {"mode": "paper"})
    if workload == "cli-solve":
        problem = {"class": "mixed", "alpha": 1.0, "sigma": 1.0, "mu": 1.0, "n": 1, "ell": 0}
        req = spectrum_request(problem, 4001, "json")
        req.index = -1
        return req
    radii = [0.0, 0.25, 0.5, 0.75, 1.5, 2.0, 2.5, 3.0]
    return Request(-1, "field", params={"source": "warmup", "m": 1.0, "d": 3, "radii": radii,
                                        "far": [r > 1.0 for r in radii]})


# ---------------------------------------------------------------------------
# lib-field sources


def lib_source_specs(seed: int) -> dict:
    """Seeded source descriptions: BALLS uniform balls and one table per size.

    A ball is ``default_source(m)`` (radius 1/m, energy m).  A table has
    irregular radii from 0 to its support radius (a share of 1/m) and a
    density (1 - x^2)^p (1 + a cos(k pi x)), zero at the edge.
    """
    rng = random.Random(f"lib-field:{seed}:sources")
    specs = {"warmup": {"type": "ball", "m": 1.0, "support": 1.0}}
    for b in range(BALLS):
        m = float(_num(_loguniform(rng, 0.5, 2.0), 4))
        specs[f"ball{b}"] = {"type": "ball", "m": m, "support": 1.0 / m}
    for size in TABLE_SIZES:
        m = float(_num(_loguniform(rng, 0.5, 2.0), 4))
        support = rng.uniform(0.5, 1.0) / m
        p, a, k = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3), rng.uniform(1.0, 6.0)
        radii = [0.0]
        for i in range(1, size - 1):
            radii.append(support * (i + rng.uniform(-0.3, 0.3)) / (size - 1))
        radii.append(support)
        eps = [(1.0 - (r / support) ** 2) ** p * (1.0 + a * math.cos(k * math.pi * r / support))
               for r in radii[:-1]] + [0.0]
        specs[f"t{size}"] = {"type": "table", "m": m, "support": support, "radii": radii, "eps": eps}
    return specs


def write_table_csv(path: str, spec: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,eps\n")
        for r, e in zip(spec["radii"], spec["eps"]):
            fh.write(f"{r!r},{e!r}\n")
