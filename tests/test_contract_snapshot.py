"""The CLI contract, byte for byte: exit codes, stdout, stderr and written files.

The requests and the runner live in ``regen_golden.py``; the recorded bytes
live in ``tests/golden/<case>/``.  A refactor must pass every case unchanged.
"""

import pytest

from regen_golden import CASES, GOLDEN, load_golden, run_case


def test_every_golden_directory_has_a_case():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(c["name"] for c in CASES)


@pytest.mark.parametrize("spec", CASES, ids=[c["name"] for c in CASES])
def test_contract_snapshot(spec):
    expected = load_golden(spec["name"])
    actual = run_case(spec)
    assert sorted(actual) == sorted(expected)
    for filename, data in expected.items():
        assert actual[filename] == data, f"{spec['name']}/{filename} differs from the golden"
