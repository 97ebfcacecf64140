"""Write tests/golden.json, the pinned outputs of the command line.

Each entry is one `spin1wave` invocation: its argv, the config it reads
(written to config.json first, or none), the exit code, and the sha256 of
its stdout, of its stderr and of each file it writes.  Entries run in
order in one directory, so snapshot-info reads the snapshot an evolve
entry wrote.  The manifest also holds the sha256 of each demo's stdout,
and the numpy version and machine it was recorded on: FFT roundoff may
differ on another, and test_golden.py then fails and names this command.

    PYTHONPATH=src python tests/make_golden.py

A change that moves a digest reruns it and says which output moved and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

import spin1wave
from spin1wave import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden.json")
REGENERATE = "PYTHONPATH=src python tests/make_golden.py"
BOX = 2 * np.pi


def _grid(n: int) -> dict:
    return {"nx": n, "ny": n, "nz": n, "lx": BOX, "ly": BOX, "lz": BOX}


# the acceptance gate's coupling, as the benchmark's coupled workloads use it
_FIELD = {"random": {"seed": 7, "amplitude": 0.2, "nmax": 1}}
_STATE = {"type": "random_band_limited", "k_cutoff": 2.0, "seed": 7, "transverse": True}
_FREE = {"grid": _grid(16), "mass": 1.0, "charge": 0.0, "initial_condition": _STATE,
         "evolution": {"t_final": 5.0, "dt": 0.5, "diag_stride": 1}}
_COUPLED = {"grid": _grid(12), "mass": 1.0, "charge": 0.5, "initial_condition": _STATE,
            "evolution": {"t_final": 1.0, "dt": 0.02, "diag_stride": 10},
            "external_field": _FIELD}


def _em_check(n: int) -> dict:
    return {"grid": _grid(n), "mass": 1.0, "charge": 0.5, "seed": 7, "trials": 2,
            "external_field": _FIELD}


# a cell volume of 5e-324, a subnormal double
_SUBNORMAL_BOX = {**_FREE, "grid": {**_grid(8), "lx": 1.4e-107, "ly": 1.4e-107, "lz": 1.4e-107},
                  "initial_condition": {**_STATE, "k_cutoff": 1e108},
                  "evolution": {"t_final": 1e-108, "dt": 1e-108, "diag_stride": 1}}


# (name, argv, config, files written)
ENTRIES = [
    ("verify-algebra", ["verify-algebra"], None, []),
    ("verify-algebra-json", ["verify-algebra", "--json"], None, []),
    ("dispersion-json", ["dispersion", "--m", "1", "--k", "0.3,-1.2,2", "--json"], None, []),
    *((f"chain-check-{v}", ["chain-check", "--seed", "7", "--variant", v, "--controls",
                            "--json"], None, [])
      for v in "hea"),
    ("evolve-free-16", ["evolve", "--config", "config.json", "--diag", "free.csv",
                        "--out", "free.s1wf"], _FREE, ["free.csv", "free.s1wf"]),
    ("snapshot-info-free", ["snapshot-info", "free.s1wf"], None, []),
    ("evolve-coupled-12", ["evolve", "--config", "config.json", "--diag", "coupled.csv",
                           "--out", "coupled.s1wf", "--json"], _COUPLED,
     ["coupled.csv", "coupled.s1wf"]),
    ("snapshot-info-coupled", ["snapshot-info", "coupled.s1wf"], None, []),
    ("em-check-24", ["em-check", "--config", "config.json", "--json"], _em_check(24), []),
    ("em-check-16", ["em-check", "--config", "config.json", "--json"], _em_check(16), []),
    ("landau-8", ["landau", "--grid", "8", "--csv", "levels.csv"], None, ["levels.csv"]),
    # error exits: one `error:` line on stderr
    ("evolve-unknown-key", ["evolve", "--config", "config.json"], {**_FREE, "masss": 1.0}, []),
    ("snapshot-info-not-a-snapshot", ["snapshot-info", "config.json"], {}, []),
    ("em-check-8-charge-1e200", ["em-check", "--config", "config.json", "--json"],
     {**_em_check(8), "charge": 1e200}, []),
    ("evolve-subnormal-box", ["evolve", "--config", "config.json"], _SUBNORMAL_BOX, []),
]

DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform_id() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def run_entry(argv: list, config, files: list, directory: str) -> dict:
    """Run `spin1wave argv` in process, in directory, with config written
    to config.json there first if given; its exit code and digests."""
    with contextlib.chdir(directory):
        if config is not None:
            with open("config.json", "w") as fh:
                json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digests = {}
        for name in files:
            with open(name, "rb") as fh:
                digests[name] = sha256(fh.read())
    return {"exit": code, "stdout": sha256(out.getvalue().encode()),
            "stderr": sha256(err.getvalue().encode()), "files": digests}


def run_demo(name: str) -> subprocess.CompletedProcess:
    """Run demos/name in a fresh interpreter with the package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300)


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory() as directory:
        for name, argv, config, files in ENTRIES:
            entries.append({"name": name, "argv": argv, "config": config,
                            **run_entry(argv, config, files, directory)})
    demos = {}
    for name in DEMOS:
        proc = run_demo(name)
        if proc.returncode != 0:
            print(f"demo {name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
        demos[name] = sha256(proc.stdout.encode())
    manifest = {"platform": platform_id(), "regenerate": REGENERATE, "entries": entries,
                "demos": demos}
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} entries and {len(demos)} demos to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
