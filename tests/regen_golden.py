"""The CLI contract snapshot: requests, how to run them, and how to regenerate.

Each case runs one request through ``comptonqcd.cli.main`` inside a fresh
temporary directory, with ``COMPTONQCD_E2`` set or unset as the case says and
``COLUMNS=80`` so that argparse wraps its usage text the same way everywhere.
What it records, byte for byte, is the exit code, stdout, stderr and every
file the request writes into that directory.  ``tests/golden/<case>/`` holds
the recorded files, and ``test_contract_snapshot.py`` replays every case
against them.

A change that moves printed numbers on purpose regenerates only the cases it
affects, and names each of them in CHANGES.md:

    PYTHONPATH=src python tests/regen_golden.py            # every case
    PYTHONPATH=src python tests/regen_golden.py NAME ...   # only these cases
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from comptonqcd.cli import ENV_E2, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG_NAME = "run.json"


def case(name: str, *argv: str, env: str | None = None, config=None) -> dict:
    """A request; ``config`` (a JSON value, or raw text) goes to run.json."""
    if config is not None:
        argv += ("--config", CONFIG_NAME)
    return {"name": name, "argv": list(argv), "env": env, "config": config}


CASES = [
    # the README's command-line examples, in their default formats
    case("readme_derive", "derive"),
    case("readme_charge", "charge", "--d", "2"),
    case("readme_potential", "potential", "--m-quark", "1233", "--r-start", "1e-4",
         "--r-stop", "1e-2", "--points", "50"),
    case("readme_field", "field", "--points", "50"),
    case("readme_linearize", "linearize"),
    case("readme_spectrum", "spectrum", "--alpha", "1", "--sigma", "0", "--mu", "1", "--n", "1"),
    case("readme_confinement", "confinement"),
    case("readme_regime", "regime", "--ratio", "0.1"),
    # every subcommand in its other formats
    case("derive_csv", "derive", "--format", "csv"),
    case("derive_json", "derive", "--format", "json"),
    case("charge_csv", "charge", "--d", "1", "--format", "csv"),
    case("charge_json", "charge", "--format", "json", config={"d": 3}),
    case("potential_table", "potential", "--alpha", "0.5", "--sigma", "2", "--r-start", "0.2",
         "--r-stop", "3", "--points", "6", "--format", "table"),
    case("potential_json", "potential", "--sigma", "1.5", "--r-stop", "2", "--format", "json",
         config={"alpha": 1, "r_start": 0.25, "points": 5}),
    case("field_table", "field", "--d", "2", "--points", "4", "--r-start", "0.5",
         "--r-stop", "3", "--format", "table"),
    case("field_json", "field", "--points", "3", "--r-start", "0.5", "--r-stop", "2",
         "--format", "json", env="precise"),
    case("linearize_csv", "linearize", "--l", "2", "--step", "1e-3", "--format", "csv",
         config={"e2_mode": "precise"}),
    case("linearize_json", "linearize", "--e2-mode", "precise", "--format", "json"),
    case("spectrum_table", "spectrum", "--alpha", "0.5", "--sigma", "1", "--mu", "0.5",
         "--n", "2", "--ell", "1", "--grid-points", "1000", "--format", "table"),
    case("spectrum_csv", "spectrum", "--alpha", "0", "--sigma", "1", "--mu", "0.5", "--n", "2",
         "--grid-points", "1000", "--format", "csv"),
    case("spectrum_csv_export", "spectrum", "--alpha", "0", "--sigma", "1", "--mu", "0.5",
         "--n", "2", "--grid-points", "1000", "--format", "csv", "-o", "wave.csv"),
    case("confinement_json", "confinement", "--e2-mode", "precise", "--format", "json"),
    case("confinement_csv", "confinement", "--format", "csv", env="paper"),
    case("regime_csv", "regime", "--ratio", "1.2", "--delta", "0.1", "--format", "csv"),
    case("regime_json", "regime", "--format", "json", config={"ratio": 2, "delta": 0.25}),
    # the coupling mode by flag, environment and config, and their precedence
    case("e2_flag_precise", "derive", "--e2-mode", "precise"),
    case("e2_env_precise", "derive", "--format", "json", env=" Precise "),
    case("e2_config_precise", "derive", "--format", "csv", config={"e2_mode": "precise"}),
    case("e2_flag_beats_env", "derive", "--e2-mode", "paper-137", env="precise"),
    case("e2_env_beats_config", "derive", env="paper", config={"e2_mode": "precise"}),
    case("config_output_path", "charge", config={"d": 2, "output_path": "charge.txt"}),
    # usage errors: exit 2
    case("usage_unknown_subcommand", "nosuch"),
    case("usage_unknown_flag", "derive", "--frobnicate"),
    case("usage_bad_int_flag", "potential", "--points", "2.7"),
    case("usage_bad_env", "derive", env="exact"),
    case("usage_unknown_config_key", "derive", config={"coupling": "precise"}),
    case("usage_malformed_config", "derive", config="{"),
    case("usage_config_not_object", "derive", config=[1, 2]),
    case("usage_missing_config", "derive", "--config", "missing.json"),
    case("usage_config_bad_e2_mode", "derive", config={"e2_mode": "paper"}),
    case("usage_config_bad_format", "regime", config={"output_format": "xml"}),
    case("usage_field_intervals", "field", "--intervals", "512"),
    case("usage_confinement_grid_points", "confinement", "--grid-points", "8000"),
    # computation errors: exit 1
    case("error_charge_dimension", "charge", "--d", "4"),
    case("error_potential_range", "potential", "--r-start", "5", "--r-stop", "1"),
    case("error_spectrum_mass", "spectrum", "--sigma", "1", "--mu", "0"),
    case("error_linearize_step", "linearize", "--step", "0.5"),
]


@contextlib.contextmanager
def _isolated(env_e2: str | None):
    """A fresh working directory and a pinned environment, both restored after."""
    saved_cwd = os.getcwd()
    pinned = {ENV_E2: env_e2, "COLUMNS": "80"}
    saved_env = {key: os.environ.get(key) for key in pinned}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for key, value in pinned.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            yield Path(tmp)
        finally:
            os.chdir(saved_cwd)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def run_case(spec: dict) -> dict[str, bytes]:
    """Run one case; map each recorded stream or written file to its bytes."""
    with _isolated(spec["env"]) as workdir:
        config = spec["config"]
        if config is not None:
            text = config if isinstance(config, str) else json.dumps(config)
            (workdir / CONFIG_NAME).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(spec["argv"]))
            except SystemExit as exc:
                code = exc.code
        record = {
            "exit_code": f"{code}\n".encode(),
            "stdout": out.getvalue().encode("utf-8"),
            "stderr": err.getvalue().encode("utf-8"),
        }
        for path in sorted(workdir.iterdir()):
            if path.name != CONFIG_NAME:
                record[path.name] = path.read_bytes()
    return record


def load_golden(name: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}


def regenerate(names: list[str]) -> None:
    known = {spec["name"]: spec for spec in CASES}
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    for name in names or list(known):
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for filename, data in run_case(known[name]).items():
            (target / filename).write_bytes(data)
        print(f"wrote {target.relative_to(GOLDEN.parent.parent)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
