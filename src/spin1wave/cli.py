"""
Command-line front end: subcommand dispatch, JSON configs and reports, CSV
diagnostics, binary snapshots.

Exit codes: 0 all checks passed, 1 a verification failed (the report is
still emitted, or a typed numerical error is printed as one line), 2 usage
or configuration error.  SPIN1_THREADS caps the worker-thread pools of the
numerics libraries (0 or unset = automatic); heavy imports happen after the
cap is applied, so keep them inside main().
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import CurrentMismatch, NoConvergence, NonFiniteState


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
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


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


def _print_report(name: str, rep, as_json: bool) -> None:
    if as_json:
        return  # caller prints the merged JSON
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
            _print_report(name, rep, as_json=False)
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

    try:
        k = [float(s) for s in args.k.split(",")]
        if len(k) != 3:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--k expects three comma-separated reals, got {args.k!r}")
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
            int(g["nx"]), int(g["ny"]), int(g["nz"]),
            float(g["lx"]), float(g["ly"]), float(g["lz"]),
        )


def _build_external(cfg: dict, grid, charge: float):
    from . import em_coupling

    spec = cfg.get("external_field")
    if spec is None:
        return None
    if "random" in spec:
        r = spec["random"]
        if "seed" not in r:
            raise ConfigError("random external field requires a seed")
        return em_coupling.random_smooth_external(
            grid,
            charge,
            seed=int(r["seed"]),
            amplitude=float(r.get("amplitude", 0.3)),
            nmax=int(r.get("nmax", 2)),
            n_terms=int(r.get("n_terms", 4)),
        )
    return em_coupling.ExternalField.from_fourier_series(
        grid, charge, spec.get("phi_terms", ()), spec.get("a_terms", ())
    )


def _build_initial(cfg: dict, grid, mass: float):
    from . import fields

    ic = cfg.get("initial_condition")
    if not ic or "type" not in ic:
        raise ConfigError("initial_condition with a type is required")
    if ic["type"] == "random_band_limited":
        if "seed" not in ic:
            raise ConfigError("random initial data requires a seed (reproducibility)")
        return fields.random_wave_field(
            grid,
            mass,
            k_cutoff=float(ic.get("k_cutoff", 2.0)),
            seed=int(ic["seed"]),
            transverse=bool(ic.get("transverse", True)),
        )
    if ic["type"] == "plane_modes":
        modes = ic.get("modes")
        if not modes:
            raise ConfigError("plane_modes initial condition needs a nonempty mode list")
        psi = None
        for m in modes:
            branch = {"+": 1, "-": -1, 1: 1, -1: -1}.get(m.get("branch", "+"))
            if branch is None:
                raise ConfigError(f"bad branch {m.get('branch')!r}")
            amp = m.get("amplitude", 1.0)
            amp = complex(amp[0], amp[1]) if isinstance(amp, (list, tuple)) else complex(amp)
            one = fields.plane_eigenmode_field(
                grid, mass, m["n"], branch, m.get("polarization", "t1"), amplitude=amp
            )
            if psi is None:
                psi = one
            else:
                psi.u.data += one.u.data
                psi.v.data += one.v.data
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
        mass = float(cfg.get("mass", 0.0))
        if mass < 0:
            raise ConfigError("mass must be >= 0")
        charge = float(cfg.get("charge", 0.0))
        evo = cfg.get("evolution", {})
        t_final = float(evo["t_final"])
        dt = float(evo["dt"])
        stride = int(evo.get("diag_stride", 1))
        if t_final < 0 or dt <= 0 or stride <= 0:
            raise ConfigError("evolution needs t_final >= 0, dt > 0, diag_stride > 0")
        psi = _build_initial(cfg, grid, mass)
        ext = _build_external(cfg, grid, charge)
        if ext is not None:
            em_coupling.step_count(t_final, dt)

    out_cfg = cfg.get("output", {})
    snap_path = args.out or out_cfg.get("snapshot")
    diag_path = args.diag or out_cfg.get("diagnostics")

    if ext is not None:
        bound = em_coupling.stability_bound(grid, mass, ext)
        if dt > bound:
            raise ConfigError(
                f"dt={dt:.3e} exceeds the stability bound {bound:.3e} for this external field"
            )
        run = em_coupling.evolve_em(psi, ext, t_final, dt, diag_stride=stride)
        final, records = run.final, run.records
    else:
        prop = dynamics.FreePropagator(grid, mass)
        c_dt = 0.05 / dynamics.omega_max(grid, mass)
        n_steps = int(round(t_final / dt))
        times = [j * dt for j in range(0, n_steps + 1, stride)]
        if not times or times[-1] != t_final:
            times.append(t_final)  # the propagator is exact at any time
        records = []
        final = psi
        for t in times:
            state = prop.evolve(psi, t)
            records.append(dynamics.diagnostics(state, continuity_dt=c_dt, propagator=prop))
            final = state

    if diag_path:
        _write_csv(diag_path, records)
    if snap_path:
        snapshots.write_snapshot(final, snap_path)
    if args.json:
        print(
            json.dumps(
                {
                    "t_final": final.time,
                    "norm": final.norm(),
                    "records": len(records),
                    "snapshot": snap_path,
                    "diagnostics": diag_path,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"evolved to t={final.time:g}; norm={final.norm():.12g}; {len(records)} records")
    return 0


# ---------------------------------------------------------------- em-check


def _cmd_em_check(args) -> int:
    from . import em_coupling

    cfg = _load_json(args.config)
    grid = _build_grid(cfg)
    with _config_errors("em-check"):
        mass = float(cfg.get("mass", 1.0))
        charge = float(cfg.get("charge", 0.0))
        seed = cfg.get("seed")
        if seed is None:
            raise ConfigError("em-check config requires a seed")
        trials = int(cfg.get("trials", 5))
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
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--k", type=str, required=True, help="kx,ky,kz")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("chain-check", help="plane-wave chain residual checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modes", type=int, default=20)
    p.add_argument("--mass", type=float, default=1.0)
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
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--flux", type=int, default=1)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--charge", type=float, default=1.0)
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurrentMismatch, NonFiniteState, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
