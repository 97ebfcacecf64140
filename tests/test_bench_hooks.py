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


# A tiny traced coupled run: the run loop must call the wrapped RK4 step once
# per step, and every transform of a step must reach the wrapped
# fields.fftn/ifftn, which read the data from their first argument.
COUPLED_SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import probe, tracing
tracer = tracing.Tracer("t")
probe.install(tracer)
from spin1wave import em_coupling as em, fields
grid = fields.Grid.cubic(8)
ext = em.random_smooth_external(grid, 0.5, seed=11, amplitude=0.2, nmax=1)
psi = fields.random_wave_field(grid, 1.0, 1.0, seed=3, transverse=True)
dt = 0.5 * em.stability_bound(grid, 1.0, ext)
tracer.spans.clear()
em.evolve_em(psi, ext, 3 * dt, dt)
steps = [s for s in tracer.spans if s["name"] == "em_coupling.rk4_step"]
assert len(steps) == 3, steps
per_step = [sum(c["transforms"] for c in tracer.spans
                if c["name"] == "fields.fft" and c["parent"] == s["id"]) for s in steps]
assert per_step == [48, 48, 48], per_step
"""


# A tiny traced free evolve through the CLI, 8^3 and 3 records: every record
# must go through the wrapped dynamics.diagnostics and the initial state
# through the wrapped fields.random_wave_field.
FREE_SCRIPT = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import probe, tracing
tracer = tracing.Tracer("t")
probe.install(tracer)
from spin1wave import cli
cfg = {"grid": {"nx": 8, "ny": 8, "nz": 8, "lx": 6.0, "ly": 6.0, "lz": 6.0}, "mass": 1.0,
       "initial_condition": {"type": "random_band_limited", "k_cutoff": 1.0, "seed": 3,
                             "transverse": True},
       "evolution": {"t_final": 1.0, "dt": 0.5, "diag_stride": 1}}
with tempfile.TemporaryDirectory() as tmp:
    path, csv = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "diag.csv")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["evolve", "--config", path, "--diag", csv]) == 0
    with open(csv) as fh:
        rows = len(fh.readlines()) - 1
names = [s["name"] for s in tracer.spans]
assert rows == 3 and names.count("dynamics.diagnostics") == rows, (rows, names)
assert names.count("fields.random_wave_field") == 1, names
"""


def _run(script: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_probe_installs_its_wrappers_on_the_package():
    proc = _run(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_traced_coupled_run_counts_steps_and_transforms():
    proc = _run(COUPLED_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_traced_free_run_records_through_the_wrappers():
    proc = _run(FREE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
