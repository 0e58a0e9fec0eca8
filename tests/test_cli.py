"""Subcommand behaviour: outputs, formats, schemas, precedence, exit codes."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

from comptonqcd import cli
from comptonqcd.cli import main, schema_path
from comptonqcd.spectrum import cover_extent

LIBRARY = ("comptonqcd", *(f"comptonqcd.{name}" for name in (
    "natunits", "potential", "estimator", "quadrature", "spectrum", "stressfield")))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(command):
    with open(schema_path(command), encoding="utf-8") as fh:
        return json.load(fh)


def validate(command, payload):
    Draft202012Validator(load_schema(command)).validate(payload)


@pytest.mark.parametrize("command", ["derive", "charge", "potential", "field", "linearize",
                                     "spectrum", "confinement", "regime"])
def test_schema_is_closed(command):
    # a missing or unexpected top-level key fails validation
    schema = load_schema(command)
    assert schema["additionalProperties"] is False
    assert sorted(schema["required"]) == sorted(schema["properties"])


# --- charge -------------------------------------------------------------------


def test_charge_fractions(capsys):
    for d, expected in ((1, "1/3"), (2, "2/3"), (3, "1")):
        code, out, _ = run_cli(capsys, "charge", "--d", str(d))
        assert code == 0
        assert out == expected + "\n"


def test_charge_json_schema(capsys):
    code, out, _ = run_cli(capsys, "charge", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("charge", payload)
    assert payload["fraction"] == "2/3"


def test_charge_invalid_dimension_is_computation_error(capsys):
    code, out, err = run_cli(capsys, "charge", "--d", "4")
    assert code == 1
    assert "error:" in err


# --- derive -------------------------------------------------------------------


def test_derive_table_contains_chain(capsys):
    code, out, _ = run_cli(capsys, "derive")
    assert code == 0
    for token in ("1233", "274", "137", "1/3", "2/3", "satisfied"):
        assert token in out


def test_derive_csv_header(capsys):
    code, out, _ = run_cli(capsys, "derive", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "step,quantity,value,units,paper_eq"


def test_derive_json_schema_and_exact_masses(capsys):
    code, out, _ = run_cli(capsys, "derive", "--format", "json")
    payload = json.loads(out)
    validate("derive", payload)
    values = {s["quantity"]: s["value"] for s in payload["steps"]}
    assert values["quark mass"] == "1233"
    assert values["pion mass (two fermions)"] == "274"


def test_derive_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "derive")
    _, second, _ = run_cli(capsys, "derive")
    assert first == second


def test_derive_precise_mode_flag(capsys):
    _, out, _ = run_cli(capsys, "derive", "--e2-mode", "precise")
    assert "1233.323991" in out
    assert "274.071998" in out


def test_env_var_selects_mode(capsys, monkeypatch):
    monkeypatch.setenv("COMPTONQCD_E2", "precise")
    _, out, _ = run_cli(capsys, "derive")
    assert "1233.323991" in out


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("COMPTONQCD_E2", "precise")
    _, out, _ = run_cli(capsys, "derive", "--e2-mode", "paper-137")
    assert "1233.323991" not in out


def test_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COMPTONQCD_E2", "exact")
    with pytest.raises(SystemExit) as exc:
        main(["derive"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spelling, label", [("paper", "paper-137"), ("Paper-137", "paper-137"),
                                             (" PRECISE ", "precise"), ("codata", None)])
def test_env_mode_spellings(capsys, monkeypatch, spelling, label):
    monkeypatch.setenv("COMPTONQCD_E2", spelling)
    if label is None:
        with pytest.raises(SystemExit) as exc:
            main(["derive"])
        assert exc.value.code == 2
        assert "COMPTONQCD_E2 must be 'paper' or 'precise'" in capsys.readouterr().err
    else:
        _, out, _ = run_cli(capsys, "confinement", "--format", "json")
        assert json.loads(out)["e2_mode"] == label


def test_only_the_cli_knows_mode_names():
    # the library chooses the coupling by e_squared= alone
    for name in LIBRARY:
        for attr, obj in vars(importlib.import_module(name)).items():
            if (not attr.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", "").startswith("comptonqcd")
                    and not (isinstance(obj, type) and issubclass(obj, Exception))):
                assert "e2_mode" not in inspect.signature(obj).parameters, f"{name}.{attr}"


# --- config file ----------------------------------------------------------------


def test_config_file_sets_mode(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"e2_mode": "precise"}), encoding="utf-8")
    _, out, _ = run_cli(capsys, "derive", "--config", str(cfg))
    assert "1233.323991" in out


def test_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"e2_mode": "precise"}), encoding="utf-8")
    _, out, _ = run_cli(capsys, "derive", "--config", str(cfg), "--e2-mode", "paper-137")
    assert "1233.323991" not in out


def test_env_beats_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"e2_mode": "precise"}), encoding="utf-8")
    monkeypatch.setenv("COMPTONQCD_E2", "paper")
    _, out, _ = run_cli(capsys, "derive", "--config", str(cfg))
    assert "1233.323991" not in out


def test_config_numeric_key_flows_to_subcommand(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 1}), encoding="utf-8")
    _, out, _ = run_cli(capsys, "charge", "--config", str(cfg))
    assert out == "1/3\n"


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"coupling": "precise"}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--config", str(cfg)])
    assert exc.value.code == 2


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, config", [
    ("potential", {"points": "abc"}),  # once a ValueError traceback
    ("potential", {"points": 2.7}),  # once truncated to 2
    ("potential", {"points": 50.0}),  # as --points 50.0 is
    ("charge", {"d": 2.9}),  # once truncated to 2
    ("charge", {"d": True}),  # once d = 1
    ("regime", {"ratio": "1.0"}),
    ("derive", {"e2_mode": 1}),
])
def test_mistyped_config_value_is_usage_error(capsys, tmp_path, command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert next(iter(config)) in err.splitlines()[-1]


def test_config_output_path_must_be_a_string(tmp_path):
    # once opened as file descriptor 7; a subprocess keeps a regression away
    # from this process's descriptors
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output_path": 7}), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "comptonqcd", "charge", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error:" in done.stderr and "output_path" in done.stderr
    assert "Traceback" not in done.stderr


def test_config_numbers_take_their_flags_types(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 1, "r_start": 0.0125, "points": 50}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "potential", "--sigma", "2", "--format", "json",
                           "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1.0 and '"alpha": 1.0,' in out
    assert len(payload["rows"]) == 50 and payload["rows"][0]["r"] == 0.0125


def test_undecodable_config_is_usage_error(capsys, tmp_path):
    # both once escaped as a UnicodeDecodeError or ValueError traceback
    cfg = tmp_path / "run.json"
    for data in ('{"e2_mode": "pr\xe9cise"}'.encode("latin-1"),
                 b'{"points": ' + b"9" * 5000 + b"}"):
        cfg.write_bytes(data)
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config file is not valid JSON" in capsys.readouterr().err


# --- usage errors -----------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--frobnicate"])
    assert exc.value.code == 2


# --- potential / field -------------------------------------------------------------


def test_potential_csv(capsys):
    code, out, _ = run_cli(
        capsys, "potential", "--alpha", "1", "--sigma", "0", "--r-start", "1",
        "--r-stop", "2", "--points", "3",
    )
    lines = out.splitlines()
    assert lines[0] == "r,V"
    assert lines[1] == "1,-1"
    assert lines[3] == "2,-0.5"


def test_potential_json_schema(capsys):
    _, out, _ = run_cli(capsys, "potential", "--m-quark", "2", "--format", "json")
    payload = json.loads(out)
    validate("potential", payload)
    assert payload["sigma"] == 2.0


def test_potential_bad_range_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "potential", "--r-start", "5", "--r-stop", "1")
    assert code == 1


@pytest.mark.parametrize("command", ["potential", "field"])
@pytest.mark.parametrize("bound", ["--r-start", "--r-stop"])
def test_non_finite_range_is_named(capsys, command, bound):
    # an infinite r_stop once made the step infinite and every sample NaN,
    # which surfaced as "value must be finite, got nan"
    code, out, err = run_cli(capsys, command, bound, "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error: r_start and r_stop must be finite, got ")
    assert err.count("\n") == 1 and "nan" not in err


def test_field_csv_blank_far_inside_compton(capsys):
    _, out, _ = run_cli(
        capsys, "field", "--points", "3", "--r-start", "0.5", "--r-stop", "2",
    )
    lines = out.splitlines()
    assert lines[0] == "r,near,far"
    assert lines[1].endswith(",")  # r = 0.5 is inside the unit Compton radius
    assert not lines[3].endswith(",")


def test_field_has_no_intervals_setting(capsys, tmp_path):
    # the ball is evaluated in closed form, so there is no quadrature to tune
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"intervals": 512}), encoding="utf-8")
    for argv in (["field", "--intervals", "512"], ["field", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "intervals" in err


def test_field_json_schema(capsys):
    _, out, _ = run_cli(
        capsys, "field", "--points", "3", "--r-start", "0.5", "--r-stop", "2",
        "--format", "json",
    )
    payload = json.loads(out)
    validate("field", payload)
    assert payload["rows"][0]["far"] is None
    assert payload["rows"][2]["far"] == pytest.approx((1 / 137) / 2.0, rel=1e-12)


@pytest.mark.parametrize("m_quark, code", [("1e300", 1)])
def test_field_extreme_quark_mass_ends_cleanly(capsys, m_quark, code):
    # the ball's R**3 once raised ZeroDivisionError here
    got, out, err = run_cli(capsys, "field", "--m-quark", m_quark, "--points", "2",
                            "--format", "json")
    assert got == code
    assert out == "" and err == "error: value must be finite, got inf\n"


@pytest.mark.parametrize("m_quark, r", [("1e-300", "1e+299"), ("1e-110", "1e+109"),
                                        ("1e-105", "1e+104")])
def test_field_near_field_underflow_is_computation_error(capsys, m_quark, r):
    # these once printed near = 0 on every row, or a subnormal 7.49e-315
    code, out, err = run_cli(capsys, "field", "--m-quark", m_quark, "--points", "2")
    assert code == 1
    assert out == ""
    assert err == f"error: the near field at m = {m_quark}, r = {r} underflows float64\n"


# --- linearize ---------------------------------------------------------------------


def test_linearize_json_schema_and_values(capsys):
    _, out, _ = run_cli(capsys, "linearize", "--format", "json")
    payload = json.loads(out)
    validate("linearize", payload)
    assert abs(payload["axial_first_derivative"]) <= 1e-9
    declared = payload["declared_slope"]
    assert payload["declared_slope_exact"] == "1/1233"
    assert abs(payload["single_pair_slope_magnitude"] - 2.0 * declared) <= 1e-6 * declared
    assert payload["pair_to_declared_ratio"] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("step", ["nan", "inf", "0", "0.5"])
def test_linearize_step_outside_range_is_computation_error(capsys, step):
    # a NaN step once slipped past the range test and ended in a traceback
    code, out, err = run_cli(capsys, "linearize", "--step", step)
    assert code == 1
    assert out == ""
    assert err == "error: finite-difference step must lie in (0, 0.5)\n"


@pytest.mark.parametrize("l_value", ["1e-300", "1e300", "1e-120", "1e150"])
@pytest.mark.parametrize("form", ["json", "table"])
def test_linearize_extreme_separation_is_computation_error(capsys, l_value, form):
    # l^2 once underflowed to 0 (ZeroDivisionError) or overflowed
    # (OverflowError), and each ended in a traceback; at l = 1e150 the
    # curvatures once printed as -0 and 0
    code, out, err = run_cli(capsys, "linearize", "--l", l_value, "--format", form)
    assert code == 1
    assert out == ""
    assert err.startswith("error: l = ") and "outside float64" in err
    assert err.count("\n") == 1


# --- spectrum ----------------------------------------------------------------------


def test_spectrum_hydrogen_summary(capsys):
    _, out, _ = run_cli(
        capsys, "spectrum", "--alpha", "1", "--sigma", "0", "--mu", "1", "--n", "1",
        "--r-max", "30", "--grid-points", "8001",
    )
    payload = json.loads(out)
    validate("spectrum", payload)
    assert payload["E"] == pytest.approx(-0.5, rel=1e-4)
    assert payload["nodes"] == 0


def test_spectrum_csv_with_sidecar(capsys, tmp_path):
    out_path = tmp_path / "wave.csv"
    code, _, _ = run_cli(
        capsys, "spectrum", "--sigma", "1", "--alpha", "0", "--mu", "0.5", "--n", "2",
        "--grid-points", "4001", "--format", "csv", "-o", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == 4002
    sidecar = json.loads((tmp_path / "wave.csv.json").read_text(encoding="utf-8"))
    validate("spectrum", sidecar)
    assert sidecar["nodes"] == 1


def test_spectrum_sidecar_is_the_json_form(capsys, tmp_path):
    argv = ["spectrum", "--sigma", "1", "--mu", "0.5", "--n", "3", "--grid-points", "2000"]
    _, json_text, _ = run_cli(capsys, *argv, "--format", "json")
    _, csv_text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert run_cli(capsys, *argv, "--format", "csv", "-o", str(tmp_path / "w.csv"))[0] == 0
    assert (tmp_path / "w.csv").read_bytes() == csv_text.encode("utf-8")
    assert (tmp_path / "w.csv.json").read_bytes() == json_text.encode("utf-8")


def test_spectrum_returns_the_requested_level(capsys):
    # a default r_max of 40 n Bohr radii once made this request return the
    # ground state (E = 2.126, 0 nodes) in place of level 5
    code, out, _ = run_cli(
        capsys, "spectrum", "--alpha", "0.5364", "--sigma", "1.49", "--mu", "0.8478",
        "--n", "5", "--ell", "1", "--grid-points", "4001",
    )
    assert code == 0
    payload = json.loads(out)
    validate("spectrum", payload)
    assert payload["nodes"] == 4
    assert abs(payload["E"] - 9.1053412580) <= 1e-9
    assert payload["r_max"] == cover_extent(0.5364, 1.49, 0.8478, 5, 1)


def test_spectrum_prints_the_sidecar_keys(capsys):
    keys = ["n", "E", "nodes", "rms_radius", "grid_points",
            "alpha", "sigma", "mu", "ell", "r_min", "r_max"]
    _, out, _ = run_cli(capsys, "spectrum", "--grid-points", "4001")
    assert list(json.loads(out)) == keys
    _, out, _ = run_cli(capsys, "spectrum", "--grid-points", "4001", "--format", "table")
    assert [line.split()[0] for line in out.splitlines()[1:]] == keys


def test_spectrum_out_of_range_input_is_computation_error(capsys):
    # mu <= 0 once ended in a traceback; a huge level must fail before any mesh is built
    for flag, value, word in (("--mu", "0", "mass"), ("--mu", "-1", "mass"),
                              ("--n", "1000000", "level")):
        code, out, err = run_cli(capsys, "spectrum", "--sigma", "1", flag, value)
        assert code == 1
        assert out == ""
        assert word in err


@pytest.mark.parametrize("argv, scale", [(("--alpha=1e-300", "--mu=1e-300"), "mu*alpha"),
                                         (("--sigma=1e-20", "--mu=1e-320"), "2*mu*sigma")])
def test_spectrum_decay_scale_underflow_is_computation_error(capsys, argv, scale):
    # each product underflows to 0 and once ended in a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, "spectrum", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {scale} = 0 is not a normal float64")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value, stage", [("--alpha", "1e300", "mesh Hamiltonian"),
                                                ("--mu", "1e-300", "output table")])
def test_spectrum_float_overflow_is_named(capsys, flag, value, stage):
    # this once printed numpy's RuntimeWarning, then "value must be finite, got nan"
    code, out, err = run_cli(capsys, "spectrum", flag, value, "--grid-points", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: level 1: the {stage} overflows float64")
    assert err.count("\n") == 1


def test_output_file_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "derive", "--format", "csv")
    out_path = tmp_path / "derive.csv"
    run_cli(capsys, "derive", "--format", "csv", "-o", str(out_path))
    assert out_path.read_text(encoding="utf-8") == stdout_text


def test_unwritable_output_path_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (["charge"], ["spectrum", "--grid-points", "1000", "--format", "csv"]):
        code, out, err = run_cli(capsys, *argv, "-o", str(missing / "out.txt"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1
    assert not missing.exists()


# --- confinement / regime -------------------------------------------------------------


def test_confinement_json_schema(capsys):
    _, out, _ = run_cli(capsys, "confinement", "--format", "json")
    payload = json.loads(out)
    validate("confinement", payload)
    assert 0.1 <= payload["ratio"] <= 10.0
    assert payload["within_band"] is True


def test_regime_outputs(capsys):
    for ratio, expected in (("10", "Electron"), ("1.0", "Pion"), ("0.1", "Quark")):
        _, out, _ = run_cli(capsys, "regime", "--ratio", ratio)
        assert out == expected + "\n"


def test_regime_json_schema_and_delta(capsys):
    _, out, _ = run_cli(capsys, "regime", "--ratio", "1.2", "--delta", "0.1", "--format", "json")
    payload = json.loads(out)
    validate("regime", payload)
    assert payload["regime"] == "Electron"


@pytest.mark.parametrize("ratio", ["inf", "nan"])
def test_regime_non_finite_ratio_is_computation_error(capsys, ratio):
    # an infinite ratio once printed "Infinity", which is not JSON
    code, out, err = run_cli(capsys, "regime", "--ratio", ratio, "--format", "json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: scale ratio must be") and err.count("\n") == 1


# --- end-to-end process checks ----------------------------------------------------------


def test_module_invocation_byte_identical():
    cmd = [sys.executable, "-m", "comptonqcd", "derive"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    assert b"\r" not in first.stdout


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("4", "4")])
def test_console_main_defaults_blas_to_one_thread(monkeypatch, capsys, preset, threads):
    # setenv before delenv, so that monkeypatch restores the variable either way
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(sys, "argv", ["comptonqcd", "charge"])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "1\n"
    assert os.environ["OPENBLAS_NUM_THREADS"] == threads


_IMPORT_PROBE = """
import contextlib, io, json, sys, types
import comptonqcd, comptonqcd.cli as cli
layers = ("cli", "potential", "estimator", "spectrum", "stressfield", "quadrature")
report = {"unloaded": [m for m in layers if f"comptonqcd.{m}" not in sys.modules], "codes": [],
          "numpy_after_import": "numpy" in sys.modules}
for command in ("derive", "charge", "potential", "linearize", "regime", "field"):
    if command == "field":
        # type() alone: any attribute access would load a lazy module
        report["loaded_after_exact"] = [
            m for m in ("spectrum", "stressfield", "quadrature")
            if type(sys.modules[f"comptonqcd.{m}"]) is types.ModuleType]
    for form in ("json", "csv", "table"):
        with contextlib.redirect_stdout(io.StringIO()):
            report["codes"].append(cli.main([command, "--format", form]))
report["numpy_after_exact"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"].append(cli.main(["spectrum", "--grid-points", "2000"]))
report["numpy_after_spectrum"] = "numpy" in sys.modules
report["dataclasses"] = "dataclasses" in sys.modules
print(json.dumps(report))
"""


def test_exact_subcommands_and_field_do_not_import_numpy():
    # a fresh interpreter, since this one has numpy loaded already; every layer
    # module must still be in sys.modules with the CLI, as the benchmark tracer
    # wraps them all, but the exact subcommands leave the solver and field
    # layers unloaded
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert report["unloaded"] == []
    # OpenBLAS reads its thread count once, when numpy loads: console_main's
    # one-thread default reaches the eigensolver only if importing the package
    # and the CLI leaves numpy unloaded
    assert report["numpy_after_import"] is False
    assert report["codes"] == [0] * 19
    assert report["loaded_after_exact"] == []
    assert report["numpy_after_exact"] is False
    assert report["dataclasses"] is False
    assert report["numpy_after_spectrum"] is True
