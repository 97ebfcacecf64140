"""The four benchmark workloads: configs made from the workload seed, the
CLI command each one runs, its set-up through the public API, and the
checks its outputs must pass.  Sizes and the reasons for them are in
NOTES.md."""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

BOX = 2.0 * math.pi


def _grid(n: int) -> dict:
    return {"nx": n, "ny": n, "nz": n, "lx": BOX, "ly": BOX, "lz": BOX}


def _csv_rows(path) -> tuple[list[str], list[list[float]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty CSV")
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # spin1wave subcommand
    records: int      # verified output rows per run (records_per_s)
    steps: int        # solver steps per run (steps_per_s)

    def config(self, seed: int, size: int | None = None) -> dict | None:
        return _CONFIGS[self.name](seed, size)

    def argv(self, config_path: str, out_dir: str, size: int | None = None) -> list[str]:
        """Arguments to `spin1wave`; outputs go to out_dir."""
        if self.command == "landau":
            return ["landau", "--grid", str(size or LANDAU_GRID), "--flux", "1",
                    "--mass", "1", "--charge", "1",
                    "--csv", os.path.join(out_dir, "levels.csv")]
        argv = [self.command, "--config", config_path, "--json"]
        if self.command == "evolve":
            argv += ["--diag", os.path.join(out_dir, "diag.csv")]
        if self.name == "free_evolve":
            argv += ["--out", os.path.join(out_dir, "state.s1wf")]
        return argv

    def output_digest(self, out_dir: str) -> str | None:
        """Digest of the byte-reproducible output, if the workload has one."""
        for name in ("diag.csv", "levels.csv"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                return _sha256(path)
        return None


LANDAU_GRID = 20
FREE = Workload("free_evolve", "evolve", records=11, steps=11)
COUPLED = Workload("coupled_evolve", "evolve", records=6, steps=50)
EM_CHECK = Workload("em_check", "em-check", records=5, steps=12)
LANDAU = Workload("landau", "landau", records=6 * LANDAU_GRID**2, steps=1)
WORKLOADS = {w.name: w for w in (FREE, COUPLED, EM_CHECK, LANDAU)}

# The coupling of the acceptance gate: e = 0.5, amplitude 0.2, nmax 1.
_COUPLING = {"charge": 0.5, "amplitude": 0.2, "nmax": 1}


def _free_config(seed, size):
    return {
        "grid": _grid(size or 48),
        "mass": 1.0,
        "charge": 0.0,
        "initial_condition": {"type": "random_band_limited", "k_cutoff": 2.0,
                              "seed": seed, "transverse": True},
        "evolution": {"t_final": 5.0, "dt": 0.5, "diag_stride": 1},
    }


def _coupled_config(seed, size):
    return {
        "grid": _grid(size or 24),
        "mass": 1.0,
        "charge": _COUPLING["charge"],
        "initial_condition": {"type": "random_band_limited", "k_cutoff": 2.0,
                              "seed": seed, "transverse": True},
        "evolution": {"t_final": 1.0, "dt": 0.02, "diag_stride": 10},
        "external_field": {"random": {"seed": seed, "amplitude": _COUPLING["amplitude"],
                                      "nmax": _COUPLING["nmax"]}},
    }


def _em_check_config(seed, size):
    return {
        "grid": _grid(size or 32),
        "mass": 1.0,
        "charge": _COUPLING["charge"],
        "seed": seed,
        "trials": 5,
        "external_field": {"random": {"seed": seed, "amplitude": _COUPLING["amplitude"],
                                      "nmax": _COUPLING["nmax"]}},
    }


_CONFIGS = {
    "free_evolve": _free_config,
    "coupled_evolve": _coupled_config,
    "em_check": _em_check_config,
    "landau": lambda seed, size: None,
}


# ----------------------------------------------------------------- set-up


def build_inputs(workload: Workload, cfg: dict | None) -> None:
    """Import the package and build the workload's inputs through the
    public API, as the CLI does before its first time step."""
    from spin1wave import algebra, cli, dynamics, em_coupling, fields, snapshots  # noqa: F401

    if cfg is None:  # landau: the 6x6 matrices are its only input
        algebra.matrix_set()
        return
    g = cfg["grid"]
    grid = fields.Grid(g["nx"], g["ny"], g["nz"], g["lx"], g["ly"], g["lz"])
    ic = cfg.get("initial_condition")
    if ic is not None:
        fields.random_wave_field(grid, cfg["mass"], ic["k_cutoff"], ic["seed"],
                                 transverse=ic["transverse"])
    ext = cfg.get("external_field")
    if ext is not None:
        r = ext["random"]
        em_coupling.random_smooth_external(grid, cfg["charge"], seed=r["seed"],
                                           amplitude=r["amplitude"], nmax=r["nmax"])
    if workload is FREE:
        dynamics.FreePropagator(grid, cfg["mass"])


# ----------------------------------------------------------------- checks


def check_outputs(workload: Workload, cfg: dict | None, out_dir: str, stdout: str,
                  size: int | None = None) -> list[str]:
    """Return the failed checks of one finished run (empty when correct)."""
    try:
        return _CHECKS[workload.name](cfg, out_dir, stdout, size)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def _diag_rows(cfg, out_dir) -> list[list[float]]:
    from spin1wave import dynamics

    header, rows = _csv_rows(os.path.join(out_dir, "diag.csv"))
    if header != dynamics.CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    evo = cfg["evolution"]
    n_steps = round(evo["t_final"] / evo["dt"])
    expected = len(range(0, n_steps + 1, evo["diag_stride"]))
    if len(rows) != expected:
        raise ValueError(f"{len(rows)} CSV rows, expected {expected}")
    return rows


def _check_free(cfg, out_dir, stdout, size):
    from spin1wave import snapshots

    failed = []
    report = json.loads(stdout)
    rows = _diag_rows(cfg, out_dir)
    p0 = rows[0][1]
    drift = max(abs(r[1] - p0) for r in rows) / p0
    if not drift <= 1e-12:  # exact propagator: round-off only
        failed.append(f"probability drift {drift:.3e} above round-off 1e-12")
    psi = snapshots.read_snapshot(os.path.join(out_dir, "state.s1wf"))
    # The data round-trips bit for bit, but read_snapshot returns arrays in
    # another memory order, so the norm's sum can differ in the last bit.
    if not math.isclose(psi.norm(), report["norm"], rel_tol=1e-14) \
            or psi.time != report["t_final"]:
        failed.append(f"snapshot norm {psi.norm()!r} at t={psi.time} != reported "
                      f"{report['norm']!r} at t={report['t_final']}")
    if report["records"] != len(rows):
        failed.append(f"reported {report['records']} records, CSV has {len(rows)}")
    return failed


def _check_coupled(cfg, out_dir, stdout, size):
    from spin1wave import em_coupling, fields

    failed = []
    report = json.loads(stdout)
    rows = _diag_rows(cfg, out_dir)
    g, r, evo = cfg["grid"], cfg["external_field"]["random"], cfg["evolution"]
    grid = fields.Grid(g["nx"], g["ny"], g["nz"], g["lx"], g["ly"], g["lz"])
    ext = em_coupling.random_smooth_external(grid, cfg["charge"], seed=r["seed"],
                                             amplitude=r["amplitude"], nmax=r["nmax"])
    # RK4 on a Hermitian generator loses at most x^6/72 of the norm squared
    # per step, x = spectral radius * dt; the stability bound is 0.5/radius.
    x = 0.5 / em_coupling.stability_bound(grid, cfg["mass"], ext) * evo["dt"]
    bound = round(evo["t_final"] / evo["dt"]) * x**6 / 72.0
    p0 = rows[0][1]
    drift = max(abs(row[1] - p0) for row in rows) / p0
    if not drift <= bound:
        failed.append(f"norm drift {drift:.3e} above the RK4 bound {bound:.3e}")
    if report["records"] != len(rows):
        failed.append(f"reported {report['records']} records, CSV has {len(rows)}")
    return failed


def _check_em(cfg, out_dir, stdout, size):
    report = json.loads(stdout)
    failed = []
    sections = report["sections"]
    if set(sections) != {"hermiticity", "squared_identity", "constrained_identity"}:
        failed.append(f"unexpected report sections {sorted(sections)}")
    rows = sum(len(sec.get("checks", [])) for sec in sections.values())
    if rows != EM_CHECK.records:
        failed.append(f"{rows} check rows, expected {EM_CHECK.records}")
    if report["all_passed"] is not True:
        bad = [c["name"] for sec in sections.values() for c in sec.get("checks", [])
               if not c["passed"]]
        failed.append(f"em-check failed: {bad}")
    return failed


def _check_landau(cfg, out_dir, stdout, size):
    failed = []
    report = json.loads(stdout)
    if report["all_passed"] is not True:
        failed.append("landau cluster analysis failed")
    header, rows = _csv_rows(os.path.join(out_dir, "levels.csv"))
    n = size or LANDAU_GRID
    if header != ["e_squared"] or len(rows) != 6 * n * n:
        failed.append(f"{len(rows)} level rows, expected 6n^2 = {6 * n * n}")
    levels = [r[0] for r in rows]
    if any(b < a for a, b in zip(levels, levels[1:])) or min(levels) < 0:
        failed.append("squared levels are not sorted and nonnegative")
    return failed


_CHECKS = {
    "free_evolve": _check_free,
    "coupled_evolve": _check_coupled,
    "em_check": _check_em,
    "landau": _check_landau,
}
