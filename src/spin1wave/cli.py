"""
Command-line front end: subcommand dispatch, JSON configs and reports, CSV
diagnostics, binary snapshots.

Exit codes: 0 all checks passed, 1 a verification failed (the report is
still emitted, or a typed numerical error is printed as one line), 2 usage
or configuration error, which includes the evolve runs' ScheduleError and
StepTooLarge.  SPIN1_THREADS caps the worker-thread pools of the
numerics libraries (0 or unset = automatic); heavy imports happen after the
cap is applied, so keep them inside main().
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .errors import (CurrentMismatch, FormatError, NoConvergence, NonFiniteState, ScheduleError,
                     StepTooLarge)


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors(what: str):
    """Report the lookup and conversion errors raised while a config is
    parsed and its inputs are built as ConfigError.  Wrap no numerics in it:
    StepTooLarge, for one, is a ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} config missing key: {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


def _require_object(value, what: str) -> dict:
    """A config entry that must be a JSON object; ConfigError otherwise."""
    return _require_type(value, dict, "a JSON object", what)


def _require_type(value, kind: type, name: str, what: str):
    """A config entry that must be of one JSON type; ConfigError otherwise."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _config_number(value, what: str, low=-math.inf, integer=False):
    """A config number that is finite, >= low and, with integer=True, whole;
    ConfigError otherwise, so NaN, Infinity, 1.5 or -1 never reach the
    numerics.  Unconvertible values raise inside _config_errors."""
    number = float(value)
    if not (math.isfinite(number) and number >= low and (not integer or number.is_integer())):
        kind = "an integer" if integer else "a finite number"
        bound = f" >= {low}" if low > -math.inf else ""
        raise ConfigError(f"{what} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else number


def _in_range(convert, what: str, low=-math.inf, high=math.inf):
    """argparse type: convert(text) if it is finite and in [low, high], else a
    usage error (exit 2)."""
    if high < math.inf:
        what = f"{what} in [{low}, {high}]"
    elif low > -math.inf:
        what = f"{what} >= {low}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_finite_real = _in_range(float, "a finite real")


def _mode_count(text: str) -> int:
    """argparse type of chain-check --modes; imports chain only when used."""
    from .chain import MAX_MODES

    return _in_range(int, "an integer", 1, MAX_MODES)(text)


def _apply_thread_cap() -> None:
    val = os.environ.get("SPIN1_THREADS", "").strip()
    if val and val != "0":
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, val)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


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


def _emit(sections: dict, as_json: bool) -> int:
    ok = all(rep.to_dict()["all_passed"] for rep in sections.values())
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
    from . import algebra

    sections = {
        "anticommutation": algebra.check_anticommutation(),
        "spin_operator": algebra.check_spin_operator(),
        "square_identity_z": algebra.check_square_identity((0.0, 0.0, 1.0)),
        "swap_symmetry": algebra.check_swap_symmetry(),
        "sigma_commutators": algebra.check_sigma_commutators(),
    }
    return _emit(sections, args.json)


def _cmd_dispersion(args) -> int:
    import numpy as np

    from . import algebra

    k = args.k
    if len(k) != 3:
        raise ConfigError(f"--k expects three comma-separated reals, got {len(k)}")
    h = algebra.hamiltonian_symbol(k, args.m)
    ev = np.sort(np.linalg.eigvalsh(h))
    ref = algebra.analytic_eigenvalues(k, args.m)
    dev = float(np.max(np.abs(ev - ref)))
    ok = dev <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    if args.json:
        print(
            json.dumps(
                {
                    "k": k,
                    "m": args.m,
                    "eigenvalues": ev.tolist(),
                    "analytic": ref.tolist(),
                    "max_deviation": dev,
                    "all_passed": ok,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("eigenvalues:", " ".join(_fmt(x) for x in ev))
        print(f"analytic deviation: {dev:.3e}  ->", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ------------------------------------------------------------------- chain


def _cmd_chain_check(args) -> int:
    from . import chain

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
        from .reports import ResidualReport

        broken = chain.with_broken_lorenz(pw, 0.3)
        rep_broken = chain.proca_residual(broken)
        off = chain.with_off_shell(pw, 0.25)
        rep_off = chain.system_residual(chain.derive_uv(off, variant="h", mass_sign=args.mass_sign))
        controls = ResidualReport()
        controls.add_lower(
            "broken_lorenz_gauss_residual", rep_broken.value("gauss_residual"), 1e-3
        )
        controls.add_lower(
            "off_shell_system_residual",
            rep_off.value("matrix_form_satisfied"),
            1e-3,
        )
        sections["negative_controls"] = controls
    return _emit(sections, args.json)


# ------------------------------------------------------------------ evolve


def _build_grid(cfg: dict):
    from . import fields

    with _config_errors("grid"):
        g = cfg["grid"]
        return fields.Grid(
            *(_config_number(g[n], f"grid {n}", integer=True) for n in ("nx", "ny", "nz")),
            *(_config_number(g[n], f"grid {n}") for n in ("lx", "ly", "lz")),
        )


def _mode_index(value, what: str) -> list[int]:
    """An integer mode index triple; ConfigError otherwise."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{what} must be three integers, got {value!r}")
    return [_config_number(n, what, integer=True) for n in value]


def _fourier_terms(terms, what: str) -> list[dict]:
    """Fourier-series terms with their mode index and coefficients checked."""
    out = []
    for term in terms:
        term = dict(_require_object(term, f"a {what} entry"))
        term["n"] = _mode_index(term["n"], f"{what} n")
        for part in ("cos", "sin"):
            if part in term:
                term[part] = _config_number(term[part], f"{what} {part}")
        out.append(term)
    return out


def _build_external(cfg: dict, grid, charge: float):
    from . import em_coupling

    spec = cfg.get("external_field")
    if spec is None:
        return None
    _require_object(spec, "external_field")
    if "random" in spec:
        r = _require_object(spec["random"], "external_field.random")
        if "seed" not in r:
            raise ConfigError("random external field requires a seed")
        return em_coupling.random_smooth_external(
            grid,
            charge,
            seed=_config_number(r["seed"], "random field seed", low=0, integer=True),
            amplitude=_config_number(r.get("amplitude", 0.3), "random field amplitude"),
            nmax=_config_number(r.get("nmax", 2), "random field nmax", low=0, integer=True),
            n_terms=_config_number(r.get("n_terms", 4), "random field n_terms", low=0,
                                   integer=True),
        )
    return em_coupling.ExternalField.from_fourier_series(
        grid, charge, _fourier_terms(spec.get("phi_terms", ()), "phi_terms"),
        _fourier_terms(spec.get("a_terms", ()), "a_terms"),
    )


def _build_initial(cfg: dict, grid, mass: float):
    from . import fields

    ic = cfg.get("initial_condition")
    if not ic or "type" not in _require_object(ic, "initial_condition"):
        raise ConfigError("initial_condition with a type is required")
    if ic["type"] == "random_band_limited":
        if "seed" not in ic:
            raise ConfigError("random initial data requires a seed (reproducibility)")
        return fields.random_wave_field(
            grid,
            mass,
            k_cutoff=_config_number(ic.get("k_cutoff", 2.0), "k_cutoff"),
            seed=_config_number(ic["seed"], "initial_condition seed", low=0, integer=True),
            transverse=_require_type(ic.get("transverse", True), bool, "true or false",
                                     "initial_condition transverse"),
        )
    if ic["type"] == "plane_modes":
        modes = ic.get("modes")
        if not modes:
            raise ConfigError("plane_modes initial condition needs a nonempty mode list")
        psi = None
        for m in modes:
            _require_object(m, "a plane_modes entry")
            branch = {"+": 1, "-": -1, 1: 1, -1: -1}.get(m.get("branch", "+"))
            if branch is None:
                raise ConfigError(f"bad branch {m.get('branch')!r}")
            amp = m.get("amplitude", 1.0)
            parts = amp if isinstance(amp, (list, tuple)) else [amp, 0.0]
            if len(parts) != 2:
                raise ConfigError(f"a plane_modes amplitude is a number or [re, im], got {amp!r}")
            amp = complex(*(_config_number(x, "plane_modes amplitude") for x in parts))
            one = fields.plane_eigenmode_field(
                grid, mass, _mode_index(m["n"], "plane_modes n"), branch,
                m.get("polarization", "t1"), amplitude=amp
            )
            if psi is None:
                psi = one
            else:
                psi.data += one.data
        return psi
    raise ConfigError(f"unknown initial condition type {ic['type']!r}")


def _write_csv(path, records) -> None:
    from . import dynamics

    with open(path, "w") as fh:
        fh.write(",".join(dynamics.CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.csv_row()) + "\n")


def _cmd_evolve(args) -> int:
    from . import dynamics, em_coupling, snapshots

    cfg = _load_json(args.config)
    grid = _build_grid(cfg)
    with _config_errors("evolve"):
        mass = _config_number(cfg.get("mass", 0.0), "mass", low=0)
        charge = _config_number(cfg.get("charge", 0.0), "charge")
        evo = cfg.get("evolution", {})
        t_final = _config_number(evo["t_final"], "t_final")
        dt = _config_number(evo["dt"], "dt")
        stride = _config_number(evo.get("diag_stride", 1), "diag_stride", low=1, integer=True)
        psi = _build_initial(cfg, grid, mass)
        ext = _build_external(cfg, grid, charge)

    out_cfg = _require_object(cfg.get("output", {}), "output")
    for key in ("snapshot", "diagnostics"):
        if out_cfg.get(key) is not None:
            _require_type(out_cfg[key], str, "a path string", f"output {key}")
    snap_path = args.out or out_cfg.get("snapshot")
    diag_path = args.diag or out_cfg.get("diagnostics")

    run = (dynamics.evolve_free(psi, t_final, dt, stride) if ext is None
           else em_coupling.evolve_em(psi, ext, t_final, dt, stride))
    final = run.final
    if diag_path:
        _write_csv(diag_path, run.records)
    if snap_path:
        snapshots.write_snapshot(final, snap_path)
    if args.json:
        print(
            json.dumps(
                {
                    "t_final": final.time,
                    "norm": final.norm(),
                    "records": len(run.records),
                    "snapshot": snap_path,
                    "diagnostics": diag_path,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"evolved to t={final.time:g}; norm={final.norm():.12g}; {len(run.records)} records")
    return 0


# ---------------------------------------------------------------- em-check


def _cmd_em_check(args) -> int:
    from . import em_coupling

    cfg = _load_json(args.config)
    grid = _build_grid(cfg)
    with _config_errors("em-check"):
        mass = _config_number(cfg.get("mass", 1.0), "mass", low=0)
        charge = _config_number(cfg.get("charge", 0.0), "charge")
        seed = cfg.get("seed")
        if seed is None:
            raise ConfigError("em-check config requires a seed")
        seed = _config_number(seed, "seed", low=0, integer=True)
        trials = _config_number(cfg.get("trials", 5), "trials", low=1, integer=True)
        ext = _build_external(cfg, grid, charge)
    if ext is None:
        ext = em_coupling.ExternalField.zero(grid, charge)
    sections = {
        "hermiticity": em_coupling.hermiticity_check(ext, mass, trials=trials, seed=seed),
        "squared_identity": em_coupling.squared_hamiltonian_check(ext, mass, trials=trials, seed=seed),
        "constrained_identity": em_coupling.constrained_square_check(
            ext, mass, trials=max(2, trials // 2), seed=seed
        ),
    }
    return _emit(sections, args.json)


def _cmd_landau(args) -> int:
    from . import em_coupling

    levels = em_coupling.landau_spectrum(args.grid, args.flux, args.mass, args.charge)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("e_squared\n")
            for v in levels.e_squared:
                fh.write(_fmt(float(v)) + "\n")
    if args.charge == 0.0:
        print(json.dumps({"eB": 0.0, "note": "free spectrum, no cluster analysis"}, indent=2))
        return 0
    analysis = em_coupling.landau_cluster_analysis(levels)
    print(json.dumps(analysis, indent=2, sort_keys=True))
    return 0 if analysis["all_passed"] else 1


def _cmd_snapshot_info(args) -> int:
    from . import snapshots

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
    p.add_argument("--m", type=_finite_real, required=True)
    p.add_argument("--k", type=lambda text: [_finite_real(s) for s in text.split(",")],
                   required=True, help="kx,ky,kz")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("chain-check", help="plane-wave chain residual checks")
    p.add_argument("--seed", type=_in_range(int, "an integer", 0), default=0)
    p.add_argument("--modes", type=_mode_count, default=20)
    p.add_argument("--mass", type=_in_range(float, "a finite real", 0), default=1.0)
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
    p.add_argument("--grid", type=_in_range(int, "an integer", 4), default=16)
    p.add_argument("--flux", type=_in_range(int, "an integer", 1), default=1)
    p.add_argument("--mass", type=_finite_real, default=1.0)
    p.add_argument("--charge", type=_finite_real, default=1.0)
    p.add_argument("--csv", help="write sorted squared eigenvalues here")
    p.set_defaults(func=_cmd_landau)

    p = sub.add_parser("snapshot-info", help="print snapshot header and norms")
    p.add_argument("path")
    p.set_defaults(func=_cmd_snapshot_info)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, FormatError, ScheduleError, StepTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurrentMismatch, NonFiniteState, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
