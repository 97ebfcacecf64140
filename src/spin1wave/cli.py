"""
Command-line front end: subcommand dispatch, JSON configs and reports, CSV
diagnostics, binary snapshots.

The evolve and em-check configs are each described once, as a table of
nodes (_EVOLVE, _EM_CHECK): a bounded number, a JSON type or value set, a
list, an object with exactly its keys (each required or with a default), and
a choice between nodes.  A config is parsed through its table before any
input is built.  A wrong type, a number out of bounds, a missing required key
or an unknown key is one ConfigError line naming the dotted key.  The numeric
flags' argparse types check with the same number node.

Exit codes: 0 all checks passed, 1 a verification failed (the report is
still emitted) or a typed numerical error stopped the run (printed as one
line, after the sections em-check finished), 2 usage or configuration
error, which includes the evolve runs' ScheduleError and StepTooLarge and
a MemoryError (an input too large to hold, such as a grid of 10^15
points).
The numerics thread pools are set by the standard variables
(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, ...) before the process starts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import algebra, chain, dynamics, em_coupling, fields, snapshots
from .errors import (CurrentMismatch, FormatError, NoConvergence, NonFiniteState, ScheduleError,
                     StepTooLarge)
from .reports import ResidualReport


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors(what: str):
    """Report the ValueErrors the library raises for inputs it refuses (an
    odd grid, a plane mode at k = 0, an underflowing k_cutoff) as
    ConfigError.  Wrap only the building of inputs in it: StepTooLarge, for
    one, is a ValueError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


# ------------------------------------------------------------ config table
# node.parse(value, key) returns the JSON value converted (numbers to int or
# float, objects with their defaults) or raises ConfigError naming the key.


class _Number:
    """A JSON number (a bool is none) that is finite, in [low, high] and,
    with integer=True, whole."""

    def __init__(self, low=-math.inf, high=math.inf, integer=False):
        self.low, self.high, self.integer = low, high, integer

    def __str__(self) -> str:
        kind = "an integer" if self.integer else "a finite number"
        if self.high < math.inf:
            return f"{kind} in [{self.low}, {self.high}]"
        return f"{kind} >= {self.low}" if self.low > -math.inf else kind

    def parse(self, value, key: str):
        try:  # math.isfinite overflows on an integer beyond the doubles
            ok = (type(value) in (int, float) and math.isfinite(value)
                  and self.low <= value <= self.high
                  and (not self.integer or value == int(value)))
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return int(value) if self.integer else float(value)


class _Type:
    """A value of one of the JSON types `kinds`, described by `name`; or one
    of `values`, type included (true is not 1, nor is 1.0)."""

    def __init__(self, name="", *kinds, values=()):
        self.kinds = kinds or tuple({type(v) for v in values})
        self.name = name or "one of " + ", ".join(json.dumps(v) for v in values)
        self.values = values

    def parse(self, value, key: str):
        if type(value) not in self.kinds or self.values and value not in self.values:
            raise ConfigError(f"{key} must be {self.name}, got {value!r}")
        return value


class _List:
    """A JSON array of item nodes, of `length` items or at least `least`."""

    def __init__(self, item, length=None, least=0):
        self.item, self.length, self.least = item, length, least

    def parse(self, value, key: str):
        size = len(value) if type(value) is list else -1
        if size < self.least or self.length not in (None, size):
            count = (f" of {self.length} items" if self.length is not None
                     else f" of at least {self.least} items" if self.least else "")
            raise ConfigError(f"{key} must be a list{count}, got {value!r}")
        return [self.item.parse(v, f"{key}[{i}]") for i, v in enumerate(value)]


class _Object:
    """A JSON object with exactly the given keys, each given as its node
    (required) or as (node, default).  A missing key takes its default,
    parsed like a given value; a default of None stays None."""

    def __init__(self, **keys):
        self.keys = {k: v if type(v) is tuple else (v, ...) for k, v in keys.items()}

    def parse(self, value, key: str):
        if type(value) is not dict:
            raise ConfigError(f"{key or 'a config'} must be a JSON object, "
                              f"got {type(value).__name__}")
        path = f"{key}." if key else ""
        for name in value:
            if name not in self.keys:
                raise ConfigError(f"unknown key {path}{name}; allowed: {', '.join(self.keys)}")
        out = {}
        for name, (node, default) in self.keys.items():
            if name in value:
                out[name] = node.parse(value[name], path + name)
            elif default is ...:
                raise ConfigError(f"missing required key {path}{name}")
            else:
                out[name] = None if default is None else node.parse(default, path + name)
        return out


class _Choice:
    """A value read by one of several nodes: the case pick(value) names."""

    def __init__(self, pick, **cases):
        self.pick, self.cases = pick, cases

    def parse(self, value, key: str):
        return self.cases[self.pick(value)].parse(value, key)


def _arg(node: _Number):
    """argparse type of a _Number node: text that is no such number is a
    usage error (exit 2)."""

    def parse(text: str):
        try:
            return node.parse((int if node.integer else float)(text), "")
        except (ValueError, ConfigError):
            raise argparse.ArgumentTypeError(f"expected {node}, got {text!r}") from None

    return parse


_REAL = _Number()
# Every mass input stays within 1e5 in magnitude: m**2 overflows from about
# 1.3e154, and the e- and a-chains' antiderivative pole test fires once
# k^2/2m < 1e-12 m, from about m = 7e5 at |k| = 1.  Each input keeps its
# sign rule.
_MASS_BOUND = 1e5
_MASS = _Number(0, _MASS_BOUND)
_SIGNED_MASS = _Number(-_MASS_BOUND, _MASS_BOUND)
_NATURAL = _Number(0, integer=True)  # seeds and term counts
_POSITIVE = _Number(1, integer=True)
# landau holds dense (2n^2, n^2) arrays: a run peaked at 49, 130 and 520 MB
# RSS at n = 20, 32 and 48 (0.4, 1.9 and 18 s on one thread), growing as n^4
_LANDAU_GRID_BOUND = 48
_INDEX = _List(_Number(integer=True), length=3)  # a mode index n
_GRID = _Object(nx=_NATURAL, ny=_NATURAL, nz=_NATURAL, lx=_REAL, ly=_REAL, lz=_REAL)
_TERM = {"n": _INDEX, "cos": (_REAL, 0.0), "sin": (_REAL, 0.0)}
_COMPONENT = _Type(values=("x", "y", "z", 0, 1, 2))
_RANDOM_FIELD = _Object(seed=_NATURAL, amplitude=(_REAL, 0.3), nmax=(_NATURAL, 2),
                        n_terms=(_NATURAL, 4))
_EXTERNAL = _Choice(
    lambda spec: "random" if type(spec) is dict and "random" in spec else "series",
    random=_Object(random=(_RANDOM_FIELD, None)),
    series=_Object(phi_terms=(_List(_Object(**_TERM)), []),
                   a_terms=(_List(_Object(component=_COMPONENT, **_TERM)), [])),
)
_IC_TYPE = _Type(values=("random_band_limited", "plane_modes"))
_MODE = _Object(
    n=_INDEX, branch=(_Type(values=("+", "-", 1, -1)), "+"),
    polarization=(_Type(values=("t1", "t2", "long")), "t1"),
    amplitude=(_Choice(lambda a: "pair" if type(a) is list else "real",
                       real=_REAL, pair=_List(_REAL, length=2)), 1.0),
)
_INITIAL = _Choice(
    lambda ic: "plane_modes" if type(ic) is dict and ic.get("type") == "plane_modes"
    else "random_band_limited",
    random_band_limited=_Object(type=_IC_TYPE, seed=_NATURAL, k_cutoff=(_REAL, 2.0),
                                transverse=(_Type("true or false", bool), True)),
    plane_modes=_Object(type=_IC_TYPE, modes=_List(_MODE, least=1)),
)
_PATH = _Type("a path string or null", str, type(None))
_EVOLVE = _Object(
    grid=_GRID, mass=(_MASS, 0.0), charge=(_REAL, 0.0), initial_condition=_INITIAL,
    evolution=_Object(t_final=_REAL, dt=_REAL, diag_stride=(_POSITIVE, 1)),
    external_field=(_EXTERNAL, None), output=(_Object(snapshot=(_PATH, None),
                                                      diagnostics=(_PATH, None)), {}),
)
_EM_CHECK = _Object(grid=_GRID, mass=(_MASS, 1.0), charge=(_REAL, 0.0), seed=_NATURAL,
                    trials=(_POSITIVE, 5), external_field=(_EXTERNAL, None))
_finite_real = _arg(_REAL)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json(path) -> dict:
    """The JSON value in the UTF-8 file at path; ConfigError if the file
    cannot be read or is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc


def _print_report(name: str, rep) -> None:
    print(f"[{name}]")
    d = rep.to_dict()
    for c in d.get("identities", []):
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"  {mark}  {c['identity_name']}: deviation {c['max_abs_deviation']:.3e}")
    for c in d.get("checks", []):
        mark = "PASS" if c["passed"] else "FAIL"
        thr = "" if c["threshold"] is None else f" (bound {c['threshold']:.3e})"
        print(f"  {mark}  {c['name']}: {c['value']:.3e}{thr}")
    for k, v in d.get("notes", {}).items():
        print(f"  note  {k}: {v}")


def _emit(sections: dict, as_json: bool, finished: bool = True) -> int:
    """Print the sections' reports; a run that did not finish fails."""
    ok = finished and all(rep.to_dict()["all_passed"] for rep in sections.values())
    if as_json:
        payload = {
            "sections": {k: rep.to_dict() for k, rep in sections.items()},
            "all_passed": ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, rep in sections.items():
            _print_report(name, rep)
        print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ----------------------------------------------------------------- algebra


def _cmd_verify_algebra(args) -> int:
    sections = {
        "anticommutation": algebra.check_anticommutation(),
        "spin_operator": algebra.check_spin_operator(),
        "square_identity_z": algebra.check_square_identity((0.0, 0.0, 1.0)),
        "swap_symmetry": algebra.check_swap_symmetry(),
        "sigma_commutators": algebra.check_sigma_commutators(),
    }
    return _emit(sections, args.json)


def _cmd_dispersion(args) -> int:
    k = args.k
    if len(k) != 3:
        raise ConfigError(f"--k expects three comma-separated reals, got {len(k)}")
    with np.errstate(all="ignore"):  # a deviation that is not finite fails below
        h = algebra.hamiltonian_symbol(k, args.m)
        ev = np.sort(np.linalg.eigvalsh(h))
        ref = algebra.analytic_eigenvalues(k, args.m)
        dev = float(np.max(np.abs(ev - ref)))
    ok = math.isfinite(dev) and dev <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    if args.json:
        report = {"k": k, "m": args.m, "eigenvalues": ev.tolist(), "analytic": ref.tolist(),
                  "max_deviation": dev, "all_passed": ok}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("eigenvalues:", " ".join(_fmt(x) for x in ev))
        print(f"analytic deviation: {dev:.3e}  ->", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ------------------------------------------------------------------- chain


def _cmd_chain_check(args) -> int:
    pw = chain.random_lorenz_potential(args.mass, args.modes, args.seed)
    uv = chain.derive_uv(pw, variant=args.variant, mass_sign=args.mass_sign)
    sections = {
        "proca": chain.proca_residual(pw),
        "system": chain.system_residual(uv),
        "first_order_readings": chain.first_order_readings(uv),
    }
    if args.mass == 0.0:
        sections["maxwell_limit"] = chain.maxwell_residual(uv)
    if args.controls:
        broken = chain.with_broken_lorenz(pw, 0.3)
        rep_broken = chain.proca_residual(broken)
        off = chain.with_off_shell(pw, 0.25)
        rep_off = chain.system_residual(chain.derive_uv(off, variant="h", mass_sign=args.mass_sign))
        controls = ResidualReport()
        controls.add_lower("broken_lorenz_gauss_residual", rep_broken.value("gauss_residual"),
                           1e-3)
        controls.add_lower("off_shell_system_residual", rep_off.value("matrix_form_satisfied"),
                           1e-3)
        sections["negative_controls"] = controls
    return _emit(sections, args.json)


# ------------------------------------------------------------------ evolve


def _build_external(spec, grid, charge: float):
    if spec is None:
        return None
    if "random" in spec:
        return em_coupling.random_smooth_external(grid, charge, **spec["random"])
    return em_coupling.ExternalField.from_fourier_series(grid, charge, spec["phi_terms"],
                                                         spec["a_terms"])


def _build_initial(ic: dict, grid, mass: float):
    if ic["type"] == "random_band_limited":
        return fields.random_wave_field(grid, mass, k_cutoff=ic["k_cutoff"], seed=ic["seed"],
                                        transverse=ic["transverse"])
    psi = None
    for m in ic["modes"]:
        amp = m["amplitude"]
        one = fields.plane_eigenmode_field(
            grid, mass, m["n"], {"+": 1, "-": -1}.get(m["branch"], m["branch"]),
            m["polarization"], amplitude=complex(*(amp if type(amp) is list else (amp, 0.0)))
        )
        if psi is None:
            psi = one
        else:
            psi.data += one.data
    return psi


def _write_csv(path, header, rows) -> None:
    """A CSV of the column names header and the rows, each number by _fmt."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@contextlib.contextmanager
def _outputs(*paths):
    """Open every given output path before the run, in append mode, so an
    existing file keeps its content until it is written; a path that cannot
    be opened raises its OSError (exit 2) before the run starts.  If that or
    anything in the block fails, the files this command created are
    removed."""
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.lexists(path)
            with open(path, "a"):
                pass
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _cmd_evolve(args) -> int:
    cfg = _EVOLVE.parse(_load_json(args.config), "")
    with _config_errors("evolve"):
        grid = fields.Grid(**cfg["grid"])
        psi = _build_initial(cfg["initial_condition"], grid, cfg["mass"])
        ext = _build_external(cfg["external_field"], grid, cfg["charge"])
    snap_path = args.out or cfg["output"]["snapshot"]
    diag_path = args.diag or cfg["output"]["diagnostics"]

    # a charge with no external_field evolves freely
    evo = cfg["evolution"]
    schedule = evo["t_final"], evo["dt"], evo["diag_stride"]
    with _outputs(diag_path, snap_path):
        run = (dynamics.evolve_free(psi, *schedule) if ext is None
               else em_coupling.evolve_em(psi, ext, *schedule))
        final = run.final
        if diag_path:
            _write_csv(diag_path, dynamics.CSV_COLUMNS, (rec.csv_row() for rec in run.records))
        if snap_path:
            snapshots.write_snapshot(final, snap_path)
    if args.json:
        report = {"t_final": final.time, "norm": final.norm(), "records": len(run.records),
                  "snapshot": snap_path, "diagnostics": diag_path}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"evolved to t={final.time:g}; norm={final.norm():.12g}; {len(run.records)} records")
    return 0


# ---------------------------------------------------------------- em-check


def _cmd_em_check(args) -> int:
    cfg = _EM_CHECK.parse(_load_json(args.config), "")
    mass, seed, trials = cfg["mass"], cfg["seed"], cfg["trials"]
    with _config_errors("em-check"):
        grid = fields.Grid(**cfg["grid"])
        ext = _build_external(cfg["external_field"], grid, cfg["charge"])
    if ext is None:
        ext = em_coupling.ExternalField.zero(grid, cfg["charge"])
    # an overflow reaches the report as a non-finite value, which fails its
    # check or stops the projection (NonFiniteState): numpy's warnings
    # would only repeat it.  If the projection stops, the sections finished
    # before it are still emitted, the report fails and the error goes on
    # to main.
    with np.errstate(over="ignore", invalid="ignore"):
        sections = {
            "hermiticity": em_coupling.hermiticity_check(ext, mass, trials=trials, seed=seed),
            "squared_identity": em_coupling.squared_hamiltonian_check(ext, mass, trials=trials,
                                                                      seed=seed),
        }
        try:
            sections["constrained_identity"] = em_coupling.constrained_square_check(
                ext, mass, trials=max(2, trials // 2), seed=seed)
        except (NonFiniteState, NoConvergence):
            _emit(sections, args.json, finished=False)
            raise
    return _emit(sections, args.json)


def _cmd_landau(args) -> int:
    with _outputs(args.csv):
        levels = em_coupling.landau_spectrum(args.grid, args.flux, args.mass, args.charge)
        if args.csv:
            _write_csv(args.csv, ["e_squared"], ([v] for v in levels.e_squared))
    if args.charge == 0.0:
        print(json.dumps({"eB": 0.0, "note": "free spectrum, no cluster analysis"}, indent=2))
        return 0
    analysis = em_coupling.landau_cluster_analysis(levels)
    print(json.dumps(analysis, indent=2, sort_keys=True))
    return 0 if analysis["all_passed"] else 1


def _cmd_snapshot_info(args) -> int:
    psi = snapshots.read_snapshot(args.path)
    info = {
        "grid": {
            "nx": psi.grid.nx, "ny": psi.grid.ny, "nz": psi.grid.nz,
            "lx": psi.grid.lx, "ly": psi.grid.ly, "lz": psi.grid.lz,
        },
        "mass": psi.mass,
        "time": psi.time,
        "norm": psi.norm(),
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin1wave",
        description="Verification toolkit for the first-order spin-1 wave system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="exact matrix identity suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("dispersion", help="eigenvalues of the momentum-space Hamiltonian")
    p.add_argument("--m", type=_arg(_SIGNED_MASS), required=True)
    p.add_argument("--k", type=lambda text: [_finite_real(s) for s in text.split(",")],
                   required=True, help="kx,ky,kz")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("chain-check", help="plane-wave chain residual checks")
    p.add_argument("--seed", type=_arg(_NATURAL), default=0)
    p.add_argument("--modes", type=_arg(_Number(1, chain.MAX_MODES, integer=True)), default=20)
    p.add_argument("--mass", type=_arg(_MASS), default=1.0)
    p.add_argument("--variant", choices=["h", "e", "a"], default="h")
    p.add_argument("--mass-sign", choices=["+", "-"], default="-")
    p.add_argument("--controls", action="store_true", help="include negative controls")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain_check)

    p = sub.add_parser("evolve", help="evolve a configured state, write CSV/snapshot")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="snapshot output path")
    p.add_argument("--diag", help="diagnostics CSV path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("em-check", help="external-field operator identity checks")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_em_check)

    p = sub.add_parser("landau", help="uniform-field lattice spectrum and clusters")
    p.add_argument("--grid", type=_arg(_Number(4, _LANDAU_GRID_BOUND, integer=True)), default=16)
    p.add_argument("--flux", type=_arg(_POSITIVE), default=1)
    p.add_argument("--mass", type=_arg(_SIGNED_MASS), default=1.0)
    p.add_argument("--charge", type=_finite_real, default=1.0)
    p.add_argument("--csv", help="write sorted squared eigenvalues here")
    p.set_defaults(func=_cmd_landau)

    p = sub.add_parser("snapshot-info", help="print snapshot header and norms")
    p.add_argument("path")
    p.set_defaults(func=_cmd_snapshot_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, FormatError, ScheduleError, StepTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    except (CurrentMismatch, NonFiniteState, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
