"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime bound is pinned here; nothing is deferred
to later calibration.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from comptonqcd.cli import main
from comptonqcd.estimator import (
    derivation_report,
    order_of_magnitude_ok,
    pion_mass_estimate,
    quark_mass_estimate,
)
from comptonqcd.natunits import E2_PAPER, Quantity
from comptonqcd.potential import (
    CornellPotential,
    QuarkConfiguration,
    central_displacement_energy,
    charge_fraction,
    configuration_energy,
    confinement_slope,
    proton_configuration,
)
from comptonqcd.spectrum import (
    RadialProblem,
    confinement_ratio,
    solve_bound_state,
    virial_check,
)
from comptonqcd.stressfield import (
    UniformBall,
    near_field_potential,
    radial_reduce_inverse,
    radial_reduce_linear,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


BALL = UniformBall(Quantity(1.0, -1), Quantity(1.0, 1))


def test_criterion_01_charge_fractions_exact(capsys):
    start = time.perf_counter()
    fracs = [charge_fraction(d) for d in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    exact = fracs == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]
    outs = []
    for d in (1, 2, 3):
        main(["charge", "--d", str(d)])
        outs.append(capsys.readouterr().out.strip())
    cli_ok = outs == ["1/3", "2/3", "1"]
    with capsys.disabled():
        report(1, exact and cli_ok and elapsed < 1e-3,
               f"charge fractions {outs} exact, computed in {elapsed*1e3:.3f} ms")


def test_criterion_02_quark_mass_chain(capsys):
    derivation_report()  # warm imports before timing
    start = time.perf_counter()
    est = quark_mass_estimate()
    flag = order_of_magnitude_ok(est)
    elapsed = time.perf_counter() - start
    exact = est.mass_fraction == 1233 and est.mass.value == 1233.0
    main(["derive", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    rows = {s["quantity"]: s["value"] for s in payload["steps"]}
    cli_ok = (
        rows["quark mass"] == "1233"
        and rows["quark mass order of magnitude (10^3 m_e)"] == "satisfied"
    )
    with capsys.disabled():
        report(2, exact and flag and cli_ok and elapsed < 1e-3,
               f"quark mass 1233 m_e exact, order-of-magnitude satisfied ({elapsed*1e3:.3f} ms)")


def test_criterion_03_pion_chain(capsys):
    start = time.perf_counter()
    single = pion_mass_estimate(fermions=1)
    doubled = pion_mass_estimate()
    elapsed = time.perf_counter() - start
    ok = single.mass_fraction == 137 and doubled.mass_fraction == 274
    with capsys.disabled():
        report(3, ok and elapsed < 1e-3,
               f"pion chain 137 and 274 m_e exact ({elapsed*1e3:.3f} ms)")


def test_criterion_04_shell_theorem(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1729)
    worst_ext = 0.0
    for r in rng.uniform(1.0, 10.0, size=50):
        got = radial_reduce_inverse(BALL, Quantity(float(r), -1)).value
        worst_ext = max(worst_ext, abs(got - 1.0 / r) * r)
    worst_int = 0.0
    for r in rng.uniform(1e-3, 1.0, size=50):
        got = radial_reduce_inverse(BALL, Quantity(float(r), -1)).value
        want = (3.0 - r * r) / 2.0
        worst_int = max(worst_int, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst_ext <= 1e-10 and worst_int <= 1e-8 and elapsed < 1.0
    with capsys.disabled():
        report(4, ok,
               f"shell theorem: exterior rel {worst_ext:.2e} <= 1e-10, "
               f"interior rel {worst_int:.2e} <= 1e-8 ({elapsed:.2f} s)")


def test_criterion_05_linear_kernel_closed_form(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst = 0.0
    for r in rng.uniform(1.0, 10.0, size=50):
        got = radial_reduce_linear(BALL, Quantity(float(r), -1)).value
        want = r + 1.0 / (5.0 * r)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    with capsys.disabled():
        report(5, ok, f"linear kernel vs E(r + R^2/5r): rel {worst:.2e} <= 1e-8 ({elapsed:.2f} s)")


def test_criterion_06_near_field_confining_slope(capsys):
    start = time.perf_counter()
    m = Quantity(1.0, 1)
    r, h = 300.0, 0.05
    hi = near_field_potential(BALL, m, Quantity(r + h, -1)).value
    lo = near_field_potential(BALL, m, Quantity(r - h, -1)).value
    slope = (hi - lo) / (2.0 * h)
    rel = abs(slope - 2.0) / 2.0
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-4 and elapsed < 1.0
    with capsys.disabled():
        report(6, ok, f"near-field slope {slope:.6f} -> 2 m^3 E_tot, rel {rel:.2e} ({elapsed:.2f} s)")


def test_criterion_07_eigensolver_oracles(capsys):
    start = time.perf_counter()
    failures = []
    coulomb = CornellPotential(Quantity(1.0, 0), Quantity(0.0, 2))
    for n in (1, 2, 3):
        prob = RadialProblem(coulomb, Quantity(1.0, 1), 0, 40001)
        state = solve_bound_state(prob, n)
        exact = -0.5 / n**2
        if abs(state.energy.value - exact) > 1e-6 * abs(exact):
            failures.append(f"hydrogen n={n}")
        if n == 1:
            if virial_check(state) > 1e-4:
                failures.append("virial hydrogen")
    linear = CornellPotential(Quantity(0.0, 0), Quantity(1.0, 2))
    prob_l = RadialProblem(linear, Quantity(0.5, 1), 0, 8001)
    state_l = solve_bound_state(prob_l, 1)
    airy = 2.338107 * (1.0 / (2.0 * 0.5)) ** (1.0 / 3.0)
    if abs(state_l.energy.value - 2.3381074104597670) > 1e-6 * airy:
        failures.append("linear ground state")
    if virial_check(state_l) > 1e-4:
        failures.append("virial linear")
    cornell = CornellPotential(Quantity(1.0, 0), Quantity(1.0, 2))
    prob_c = RadialProblem(cornell, Quantity(1.0, 1), 0, 4001)
    for n in range(1, 6):
        if solve_bound_state(prob_c, n).nodes != n - 1:
            failures.append(f"node theorem n={n}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    with capsys.disabled():
        report(7, ok,
               f"eigensolver oracles (hydrogenic 1e-6, linear 1e-6, virial 1e-4, "
               f"nodes n<=5) in {elapsed:.2f} s" + (f"; failed: {failures}" if failures else ""))


def test_criterion_08_confinement_ratio_band(capsys):
    start = time.perf_counter()
    ratio = confinement_ratio()
    elapsed = time.perf_counter() - start
    ok = 0.1 <= ratio <= 10.0 and elapsed < 5.0
    with capsys.disabled():
        report(8, ok, f"confinement ratio {ratio:.4f} within [0.1, 10] ({elapsed:.2f} s)")


def test_criterion_09_linearization_honesty(capsys):
    start = time.perf_counter()
    sep = Quantity(1.0, -1)
    proton = proton_configuration(sep)
    h = 1e-5
    plus = central_displacement_energy(proton, h, "axial").value
    minus = central_displacement_energy(proton, -h, "axial").value
    first = abs(plus - minus) / (2.0 * h)

    def pair_energy(x):
        cfg = QuarkConfiguration((Fraction(-1, 3), Fraction(2, 3)), (x, 1.0), sep)
        return configuration_energy(cfg).value

    pair_slope = abs(pair_energy(h) - pair_energy(-h)) / (2.0 * h)
    declared = confinement_slope(sep).value
    declared_ok = declared == float(E2_PAPER / 9)
    pair_ok = abs(pair_slope - 2.0 * declared) <= 1e-6 * (2.0 * declared)
    main(["linearize", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    reported = payload["declared_slope_exact"] == "1/1233"
    elapsed = time.perf_counter() - start
    ok = first <= 1e-9 and pair_ok and declared_ok and reported and elapsed < 1.0
    with capsys.disabled():
        report(9, ok,
               f"axial first derivative {first:.2e} <= 1e-9, single-pair slope = "
               f"2 x declared within 1e-6, declared slope reported ({elapsed:.2f} s)")


def test_criterion_10_determinism(capsys):
    cmd = [sys.executable, "-m", "comptonqcd", "derive"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and first.returncode == 0
    with capsys.disabled():
        report(10, ok, "two default derive runs are byte-identical")
