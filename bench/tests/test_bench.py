"""Tests of the benchmark itself: generators, checkers, self time and probes.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import checks, tracing, workloads  # noqa: E402
from bench.run import Checker, InProcessCli, import_package, load_sources  # noqa: E402
from bench.measure import LibRunner  # noqa: E402


def _shape(req, workdir):
    argv = [a.replace(workdir, "<work>") for a in req.argv]
    return req.index, req.kind, argv, req.env, req.output_format, req.params


@pytest.mark.parametrize("workload", ["cli-exact", "cli-solve"])
def test_cli_streams_are_deterministic(workload, tmp_path):
    a, b, c = (str(tmp_path / name) for name in "abc")
    first = workloads.RequestStream(workload, 7, a)
    again = workloads.RequestStream(workload, 7, b)
    other = workloads.RequestStream(workload, 8, c)
    n = 3 * workloads.CYCLE[workload]
    assert [_shape(first[i], a) for i in range(n)] == [_shape(again[i], b) for i in range(n)]
    assert [_shape(first[i], a) for i in range(n)] != [_shape(other[i], c) for i in range(n)]
    # config payloads are identical too
    for name in os.listdir(a):
        if name.endswith(".json"):
            assert open(os.path.join(a, name)).read() == open(os.path.join(b, name)).read()


def test_lib_stream_and_sources_are_deterministic(tmp_path):
    specs = workloads.lib_source_specs(3)
    assert specs == workloads.lib_source_specs(3)
    assert specs != workloads.lib_source_specs(4)
    first = workloads.RequestStream("lib-field", 3, str(tmp_path / "a"), specs)
    again = workloads.RequestStream("lib-field", 3, str(tmp_path / "b"), specs)
    assert [first[i].params for i in range(40)] == [again[i].params for i in range(40)]
    segments = {len(s["radii"]) - 1 for s in specs.values() if s["type"] == "table"}
    assert max(segments) >= 8 * min(segments)


def test_every_cycle_has_the_same_cost_mix(tmp_path):
    size = workloads.CYCLE["cli-solve"]
    stream = workloads.RequestStream("cli-solve", 5, str(tmp_path))
    want = sorted((grid, slot == "export") for slot, grid, _ in workloads.SOLVE_SLOTS)
    for c in range(3):
        cycle = [stream[c * size + k] for k in range(size)]
        shapes = sorted((r.params["grid"], r.output_format == "csv") for r in cycle if r.kind == "spectrum")
        assert shapes == want
        levels = sorted(r.params["n"] for r in cycle if r.params.get("grid") == 4001)
        assert levels == [1, 2, 3, 4, 5]
        assert sorted(r.params["mode"] for r in cycle if r.kind == "confinement") == ["paper", "precise"]


def test_cli_exact_cycle_covers_commands_formats_and_modes(tmp_path):
    size = workloads.CYCLE["cli-exact"]
    stream = workloads.RequestStream("cli-exact", 2, str(tmp_path))
    cycle = [stream[k] for k in range(size)]
    shapes = sorted((r.kind, r.output_format, r.params["mode"]) for r in cycle)
    assert shapes == sorted((k, f, m) for k in workloads.EXACT_COMMANDS for f in workloads.FORMATS
                            for m in workloads.E2_MODES)
    assert all(r.params["points"] == 50 for r in cycle if r.kind == "potential")
    vias = {("flag" if "--e2-mode" in r.argv else "env" if r.env else "config") for r in cycle}
    assert vias == {"flag", "env", "config"}


# ---------------------------------------------------------------------------
# checkers accept real outputs and reject perturbed ones


@pytest.fixture(scope="module")
def program():
    _, _, cli = import_package(ROOT)
    return InProcessCli(cli)


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT)


def _solve_request(tmp_path, problem, fmt, grid=4001):
    req = workloads.spectrum_request(dict(problem, **{"class": "test"}), grid, fmt)
    if fmt == "csv":
        req.output_path = str(tmp_path / "u.csv")
        req.argv += ["-o", req.output_path]
    return req


COULOMB = {"alpha": 1.0, "sigma": 0.0, "mu": 1.0, "n": 2, "ell": 1}


def test_spectrum_checker_rejects_a_wrong_energy(program, checker, tmp_path):
    req = _solve_request(tmp_path, COULOMB, "json")
    out = program.run(req)
    checker.check(out)
    assert out.failure is None
    payload = json.loads(out.stdout)
    payload["E"] *= 1.01
    with pytest.raises(checks.CheckError, match="Coulomb energy"):
        checks.check_spectrum(req, json.dumps(payload), checker.schemas)
    payload["E"] /= 1.01
    payload["nodes"] += 1
    with pytest.raises(checks.CheckError, match="node theorem"):
        checks.check_spectrum(req, json.dumps(payload), checker.schemas)


def test_schema_violation_is_rejected(program, checker):
    req = workloads.Request(0, "derive", ["derive", "--format", "json"], {}, "json", None, {"mode": "paper"})
    out = program.run(req)
    checker.check(out)
    assert out.failure is None
    payload = json.loads(out.stdout)
    payload["extra"] = 1
    with pytest.raises(checks.CheckError, match="schema"):
        checks.check_derive(req, json.dumps(payload), checker.schemas)
    payload = json.loads(out.stdout)
    payload["steps"][4]["value"] = "1234"
    with pytest.raises(checks.CheckError, match="quark mass"):
        checks.check_derive(req, json.dumps(payload), checker.schemas)


def test_export_with_a_missing_row_is_rejected(program, checker, tmp_path):
    req = _solve_request(tmp_path, {"alpha": 1.0, "sigma": 1.0, "mu": 1.0, "n": 1, "ell": 0}, "csv", 20000)
    out = program.run(req)
    checker.check(out)
    assert out.failure is None
    with open(req.output_path) as fh:
        lines = fh.read().splitlines()
    with open(req.output_path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="CSV rows"):
        checks.check_spectrum_export(req, checker.schemas)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_potential_checker_rejects_a_wrong_row(program, checker, fmt):
    params = {"alpha": 1.0, "sigma": 2.0, "r_start": 0.1, "r_stop": 2.0, "points": 20}
    argv = ["potential", "--alpha", "1.0", "--sigma", "2.0", "--r-start", "0.1", "--r-stop", "2.0",
            "--points", "20", "--format", fmt]
    req = workloads.Request(0, "potential", argv, {}, fmt, None, params)
    out = program.run(req)
    checker.check(out)
    assert out.failure is None
    lines = out.stdout.splitlines()
    value = lines[5].replace(",", " ").split()[-1]
    lines[5] = lines[5][: -len(value)] + f"{float(value) * 1.001:.10g}"
    bad = "\n".join(lines) + "\n"
    with pytest.raises(checks.CheckError, match=r"V\("):
        checks.check_potential(req, bad, checker.schemas)


def test_linearize_checker_accepts_all_forms(program, checker):
    for fmt in ("json", "csv", "table"):
        req = workloads.Request(0, "linearize", ["linearize", "--l", "1.37", "--step", "0.0002", "--format", fmt],
                                {"COMPTONQCD_E2": "precise"}, fmt, None,
                                {"mode": "precise", "l": 1.37, "step": 0.0002})
        out = program.run(req)
        checker.check(out)
        assert out.failure is None, out.failure


def test_field_checker_rejects_a_wrong_value_and_a_missing_warning(tmp_path):
    sf, quantity, _ = import_package(ROOT)
    specs = workloads.lib_source_specs(11)
    runner = LibRunner(sf, quantity, load_sources(sf, quantity, specs, str(tmp_path)))
    checker = Checker(ROOT, specs)
    radii = [0.0, 0.3 * specs["t65"]["support"], 2.5 / specs["t65"]["m"]]
    req = workloads.Request(0, "field", params={"source": "t65", "m": specs["t65"]["m"], "d": 2,
                                                "radii": radii, "far": [False, False, True]})
    out = runner.run(req)
    checker.check(out)
    assert out.failure is None, out.failure
    assert len(out.result["clamps"]) == 1
    res = out.result
    near = list(res["near"])
    near[1] *= 1 + 1e-8
    with pytest.raises(checks.CheckError, match="table near field"):
        checks.check_field(req, specs["t65"], checker.moments["t65"], near, res["far"], res["clamps"])
    with pytest.raises(checks.CheckError, match="ClampWarning"):
        checks.check_field(req, specs["t65"], checker.moments["t65"], res["near"], res["far"], [])


def test_table_moments_match_a_fine_numeric_integral():
    radii, eps = [0.0, 0.3, 0.55, 1.0], [2.0, 1.5, 0.7, 0.0]
    mom = checks.Moments(radii, eps, total_energy=3.0)
    assert 4 * math.pi * mom.upto(1.0, 2) == pytest.approx(3.0, rel=1e-14)

    def density(x):
        for a, b, ea, eb in zip(radii, radii[1:], eps, eps[1:]):
            if a <= x <= b:
                return mom.scale * (ea + (eb - ea) * (x - a) / (b - a))
        return 0.0

    def integral(f, lo, hi, n=20000):
        h = (hi - lo) / n
        return h * sum(f(lo + (i + 0.5) * h) for i in range(n))

    r = 0.4
    inv = (2 * math.pi / r) * integral(lambda x: x * density(x) * ((r + x) - abs(r - x)), 0.0, 1.0)
    lin = (2 * math.pi / (3 * r)) * integral(lambda x: x * density(x) * ((r + x) ** 3 - abs(r - x) ** 3), 0.0, 1.0)
    got_inv, got_lin = checks.table_kernels(mom, r)
    assert got_inv == pytest.approx(inv, rel=1e-6)
    assert got_lin == pytest.approx(lin, rel=1e-6)
    assert checks.table_kernels(mom, 2.0)[0] == pytest.approx(3.0 / 2.0, rel=1e-14)  # shell theorem


def test_airy_zeros():
    mpmath = pytest.importorskip("mpmath")
    zeros = [-float(mpmath.airyaizero(k)) for k in range(1, len(checks.AIRY_ZEROS) + 1)]
    assert list(checks.AIRY_ZEROS) == pytest.approx(zeros, rel=1e-15)


# ---------------------------------------------------------------------------
# tracing


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 100]; 1: [10, 30] with grandchild 3: [15, 20];
    # 2: [20, 50] overlaps 1; 4: [90, 120] runs past the root's end
    start = [0, 10, 20, 15, 90]
    end = [100, 30, 50, 20, 120]
    parent = [-1, 0, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [100 - 40 - 10, 15, 30, 5, 30]


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      1000 |       5000 |       numpy",
        "import time:       300 |       6000 |     comptonqcd.stressfield",
        "import time:       500 |       7000 |   comptonqcd",
        "import time:       800 |       8000 | comptonqcd.cli",
    ])
    assert tracing.parse_importtime(text) == {"numpy_ms": 5.0, "comptonqcd_ms": 3.0}


def test_tracer_records_and_restores(program):
    import comptonqcd.cli as cli
    import comptonqcd.spectrum as spectrum

    original = spectrum.composite_simpson
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectrum.composite_simpson is not original
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["charge", "--d", "2"])
    finally:
        tracer.uninstall()
    assert spectrum.composite_simpson is original
    names = [tracer.names[k] for k in tracer.span_name]
    assert names[0] == "cli.main" and "potential.charge_fraction" in names
    assert all(p < i for i, p in enumerate(tracer.parent))
