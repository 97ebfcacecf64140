"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is fixed here, nothing is calibrated at
run time.
"""
import json
import time

import numpy as np

from spin1wave import algebra, chain, cli, dynamics, em_coupling as em, fields


def report(num: int, label: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status} ({time.time() - t0:.2f}s){extra}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_algebra_suite():
    t0 = time.time()
    reps = [
        algebra.check_anticommutation(),
        algebra.check_spin_operator(),
        algebra.check_square_identity((0.0, 0.0, 1.0)),
    ]
    ok = all(r.all_passed for r in reps)
    # exact-arithmetic checks must sit at deviation exactly zero
    for r in reps[:2]:
        for c in r.identities:
            if c.identity_name != "a3_squared_violates_clifford":
                ok = ok and (c.max_abs_deviation == 0.0)
    ms = algebra.matrix_set()
    ok = ok and np.array_equal(ms.a[2] @ ms.a[2], np.diag([1, 1, 0, 1, 1, 0.0]))
    report(1, "algebra identity suite", ok, t0)


def test_criterion_02_spectrum_property():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = 6.0 * rng.standard_normal(3)
        m = 2.0 * abs(rng.standard_normal())
        ev = np.sort(np.linalg.eigvalsh(algebra.hamiltonian_symbol(k, m)))
        ref = algebra.analytic_eigenvalues(k, m)
        worst = max(worst, float(np.max(np.abs(ev - ref))) / max(1.0, float(np.max(np.abs(ref)))))
    report(2, "H(k) spectrum vs eigensolver (100 draws)", worst <= 1e-12, t0, f"worst {worst:.2e}")


def test_criterion_03_chain_end_to_end():
    t0 = time.time()
    pw = chain.random_lorenz_potential(1.0, 20, seed=314)
    ok = chain.proca_residual(pw).all_passed

    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    rep = chain.system_residual(uv)
    ok = ok and rep.value("system_residual_plus_b") <= 1e-12
    ok = ok and max(rep.value("div_u"), rep.value("div_v")) <= 1e-13

    # negative controls
    broken = chain.with_broken_lorenz(pw, 0.3)
    ok = ok and chain.proca_residual(broken).value("gauss_residual") > 1e-3
    off = chain.with_off_shell(pw, 0.25)
    rep_off = chain.system_residual(chain.derive_uv(off, variant="h", mass_sign="-"))
    ok = ok and rep_off.value("matrix_form_satisfied") > 1e-3

    # alternative chains, both signs, variant recorded
    recorded = []
    for variant in ("e", "a"):
        for sign, form in (("-", "+b"), ("+", "-b")):
            r = chain.system_residual(chain.derive_uv(pw, variant=variant, mass_sign=sign))
            ok = ok and r.notes["satisfies_matrix_form"] == form
            ok = ok and min(
                r.value("system_residual_plus_b"), r.value("system_residual_minus_b")
            ) <= 1e-12
            ok = ok and max(r.value("div_u"), r.value("div_v")) <= 1e-13
            recorded.append(f"{variant}{sign}->{r.notes['satisfies_matrix_form']}")
    report(3, "plane-wave chains end to end", ok, t0, " ".join(recorded))


def test_criterion_04_conservation_suite():
    t0 = time.time()
    grid = fields.Grid.cubic(32)
    mass = 1.0
    psi = fields.random_wave_field(grid, mass, 2.0, seed=44, transverse=True)
    prop = dynamics.FreePropagator(grid, mass)

    n0, e0 = psi.norm(), dynamics.energy(psi)
    r0 = max(fields.divergence_residuals(psi))
    floor = 1e-15 * dynamics.omega_max(grid, mass)
    ok = True
    for t in (1.0, 10.0, 50.0, 100.0):
        out = prop.evolve(psi, t)
        ok = ok and abs(out.norm() - n0) <= 1e-13 * n0
        ok = ok and abs(dynamics.energy(out) - e0) <= 1e-13 * max(abs(e0), 1.0)
        ok = ok and max(fields.divergence_residuals(out)) <= 10.0 * max(r0, floor)
        ok = ok and dynamics.probability_density(out).min() >= 0.0

    r1 = dynamics.continuity_residual(psi, 2e-3)
    r2 = dynamics.continuity_residual(psi, 1e-3)
    ratio = r1 / r2
    ok = ok and 3.5 <= ratio <= 4.5
    report(4, "free-evolution conservation suite (32^3)", ok, t0, f"continuity ratio {ratio:.3f}")


def test_criterion_05_kgf_dichotomy():
    t0 = time.time()
    grid = fields.Grid.cubic(16)
    mass = 1.0
    psi = fields.random_wave_field(grid, mass, 2.0, seed=55, transverse=True)
    res = dynamics.kgf_residual(psi)
    ok = res.transverse_res <= 1e-12

    # longitudinal branch: phase-fitted frequency is +-m for three |k|
    prop = dynamics.FreePropagator(grid, mass)
    times = np.linspace(0.0, 2.0, 9)
    for branch, expected in ((+1, mass), (-1, -mass)):
        fitted = []
        for n in (1, 2, 3):
            mode = fields.plane_eigenmode_field(grid, mass, (0, 0, n), branch, "long")
            base = mode.data
            phases = [
                np.angle(np.vdot(base, prop.evolve(mode, float(t)).data)) for t in times
            ]
            fitted.append(-np.polyfit(times, np.unwrap(phases), 1)[0])
        ok = ok and all(abs(w - expected) <= 1e-10 for w in fitted)
        ok = ok and (max(fitted) - min(fitted)) <= 1e-10
    report(5, "KGF dichotomy and spurious-branch frequency", ok, t0,
           f"transverse {res.transverse_res:.2e}")


def test_criterion_06_swap_time_reversal():
    t0 = time.time()
    pre = algebra.check_swap_symmetry()
    ok = pre.all_passed and all(c.max_abs_deviation == 0.0 for c in pre.identities)
    grid = fields.Grid.cubic(24)
    psi = fields.random_wave_field(grid, 1.0, 2.0, seed=66)
    dev = dynamics.time_reversal_swap_check(psi, 1.7)
    ok = ok and dev <= 1e-12
    report(6, "u<->v, t->-t propagator symmetry", ok, t0, f"deviation {dev:.2e}")


def test_criterion_07_angular_momentum():
    t0 = time.time()
    ok = algebra.check_sigma_commutators().all_passed
    grid = fields.Grid.cubic(64)
    sigma = grid.lx / 16.0
    psi = fields.gaussian_wave_packet(grid, 1.0, sigma=sigma, k0=(0.0, 0.0, 2.0))
    res = dynamics.angular_momentum_commutator(psi)
    ok = ok and res <= 1e-8
    report(7, "total angular momentum commutes with H (64^3)", ok, t0, f"residual {res:.2e}")


def test_criterion_08_em_identities():
    t0 = time.time()
    grid = fields.Grid.cubic(24)
    mass = 1.0
    ext = em.random_smooth_external(grid, 0.5, seed=88, amplitude=0.2, nmax=1)

    r47 = em.squared_hamiltonian_check(ext, mass, trials=6, seed=8)
    ok = r47.value("squared_hamiltonian_identity") <= 1e-12

    r49 = em.constrained_square_check(ext, mass, trials=3, seed=9)
    ok = ok and r49.value("projected_identity_residual") <= 1e-8
    ok = ok and r49.value("unprojected_negative_control") >= 1e-2

    psi = fields.random_wave_field(grid, mass, 1.5, seed=10, transverse=True, kmax=2.0)
    x = fields.coordinates(grid)
    chi = 0.1 * np.cos(x[0]) + 0.07 * np.sin(x[1])
    dt = 0.02
    dev = em.gauge_covariance_deviation(psi, ext, chi, 0.2, dt)
    a = em.evolve_em(psi, ext, 0.2, dt).final.data
    b = em.evolve_em(psi, ext, 0.2, dt / 2).final.data
    self_err = float(np.linalg.norm(a - b) / np.linalg.norm(a))
    ok = ok and dev <= max(4.0 * self_err, 1e-9)
    report(
        8, "external-field operator identities (24^3)", ok, t0,
        f"squared {r47.value('squared_hamiltonian_identity'):.1e} "
        f"constrained {r49.value('projected_identity_residual'):.1e} gauge {dev:.1e}",
    )


def test_criterion_09_second_order_equation():
    t0 = time.time()
    grid = fields.Grid.cubic(16)
    mass = 1.0
    psi = fields.random_wave_field(grid, mass, 1.5, seed=99, transverse=True, kmax=2.0)

    ext_a = em.random_smooth_external(grid, 0.5, seed=12, amplitude=0.2, nmax=1)
    ext_a = em.ExternalField(grid, 0.5, np.zeros(grid.shape), ext_a.avec)
    proj_a = em.covariant_project(psi, ext_a).field
    ra1 = em.second_order_residual(proj_a, ext_a, 8e-3)
    ra2 = em.second_order_residual(proj_a, ext_a, 4e-3)
    ratio_a = ra1 / ra2

    phi = em.random_smooth_external(grid, 0.5, seed=13, amplitude=0.3, nmax=1).phi
    ext_p = em.ExternalField(grid, 0.5, phi, np.zeros((3, *grid.shape)))
    proj_p = em.covariant_project(psi, ext_p).field
    rp1 = em.second_order_residual(proj_p, ext_p, 8e-3)
    rp2 = em.second_order_residual(proj_p, ext_p, 4e-3)
    ratio_p = rp1 / rp2

    ok = 3.5 <= ratio_a <= 4.5 and 3.5 <= ratio_p <= 4.5
    report(9, "second-order equation O(dt^2) convergence", ok, t0,
           f"ratios A:{ratio_a:.2f} Phi:{ratio_p:.2f}")


def test_criterion_10_landau_magnetic_moment():
    t0 = time.time()
    levels = em.landau_spectrum(16, 1, 1.0, 1.0)
    analysis = em.landau_cluster_analysis(levels)
    ok = analysis["all_passed"]
    ok = ok and abs(analysis["sigma_splitting_over_eB"] - 1.0) <= 0.05
    report(10, "Landau clusters and Bohr-magneton splitting (n=16, N=1)", ok, t0,
           f"splitting/eB {analysis['sigma_splitting_over_eB']:.4f}")


def test_criterion_11_io_reproducibility(tmp_path):
    t0 = time.time()
    from spin1wave import snapshots

    grid = fields.Grid.cubic(8)
    psi = fields.random_wave_field(grid, 1.0, 1.5, seed=7)
    psi.time = 3.25
    p1, p2 = tmp_path / "a.s1wf", tmp_path / "b.s1wf"
    snapshots.write_snapshot(psi, p1)
    back = snapshots.read_snapshot(p1)
    snapshots.write_snapshot(back, p2)
    ok = np.array_equal(psi.data, back.data) and p1.read_bytes() == p2.read_bytes()

    cfg = {
        "grid": {"nx": 8, "ny": 8, "nz": 8,
                 "lx": 2 * np.pi, "ly": 2 * np.pi, "lz": 2 * np.pi},
        "mass": 1.0,
        "initial_condition": {"type": "random_band_limited", "k_cutoff": 1.0,
                              "seed": 5, "transverse": True},
        "evolution": {"t_final": 1.0, "dt": 0.1, "diag_stride": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    c1, c2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    rc1 = cli.main(["evolve", "--config", str(cfg_path), "--diag", str(c1)])
    rc2 = cli.main(["evolve", "--config", str(cfg_path), "--diag", str(c2)])
    ok = ok and rc1 == 0 and rc2 == 0 and c1.read_bytes() == c2.read_bytes()
    report(11, "snapshot round trip and seeded CSV reproducibility", ok, t0)
