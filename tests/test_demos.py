"""Every demo runs in a fresh interpreter (make_golden.run_demo), exits 0 and
prints the stdout pinned in tests/golden.json."""
import pytest

import make_golden
from test_golden import check_demo_stdout


@pytest.mark.parametrize("demo", make_golden.DEMOS)
def test_demo_runs(demo):
    proc = make_golden.run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    check_demo_stdout(demo, proc.stdout)
