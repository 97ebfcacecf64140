"""The traced benchmark replaces package attributes by name
(perfbench/probe.py); a deleted or renamed one would break every traced run
with an AttributeError long after the change that made it."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import probe, tracing
tracer = tracing.Tracer("t")
probe.install(tracer)
from spin1wave import dynamics, fields
dynamics.FreePropagator(fields.Grid.cubic(4), 1.0)
assert [s["name"] for s in tracer.spans] == ["dynamics.propagator_build"], tracer.spans
"""


def test_probe_installs_its_wrappers_on_the_package():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
