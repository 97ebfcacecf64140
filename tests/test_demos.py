import os
import subprocess
import sys

import pytest

import spin1wave
from test_golden import check_demo_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))


# demo 04 has its own test, test_dynamics.py::test_demo_04_runs
@pytest.mark.parametrize("demo", [
    "01_matrix_identities.py",
    "02_dispersion_branches.py",
    "03_potential_chains.py",
    "05_constraints_and_kgf.py",
    "06_external_field_identities.py",
    "07_landau_levels.py",
])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    check_demo_stdout(demo, proc.stdout)
