#!/usr/bin/env python3
"""
Why the divergence constraints matter.

Squaring the dynamics gives H^2 = (a.p)^2 + m^2, and (a.p)^2 acts as
-Laplacian only on divergence-free fields; on longitudinal modes it acts as
zero.  So the second-order (Klein-Gordon-Fock) equation holds exactly on
the constraint manifold and fails off it, and the longitudinal branch
oscillates at frequency +-m no matter how large |k| is.
"""
import numpy as np

from spin1wave import dynamics, fields

grid = fields.Grid.cubic(16)
mass = 1.0
prop = dynamics.FreePropagator(grid, mass)

psi = fields.random_wave_field(grid, mass, k_cutoff=2.0, seed=55, transverse=True)
res = dynamics.kgf_residual(psi)
print("H^2 psi vs (-Laplacian + m^2) psi:")
print(f"  transverse field:        relative residual {res.transverse_res:.2e}")
print(f"  longitudinal test mode:  residual/|psi| = {res.longitudinal_demo:.6f} (= |k|^2)")

print("\nspurious-branch frequency from a phase fit (expect +-m, independent of |k|):")
times = np.linspace(0.0, 2.0, 9)
print(f"{'mode':>10} {'branch':>7} {'fitted omega':>14}")
for n in (1, 2, 3):
    for branch in (+1, -1):
        mode = fields.plane_eigenmode_field(grid, mass, (0, 0, n), branch, "long")
        base = mode.data
        phases = [np.angle(np.vdot(base, prop.evolve(mode, float(t)).data)) for t in times]
        omega = -np.polyfit(times, np.unwrap(phases), 1)[0]
        print(f"{f'(0,0,{n})':>10} {branch:+7d} {omega:+14.10f}")

print("\ntransverse modes by contrast disperse with |k|:")
for n in (1, 2, 3):
    mode = fields.plane_eigenmode_field(grid, mass, (0, 0, n), +1, "t1")
    base = mode.data
    phases = [np.angle(np.vdot(base, prop.evolve(mode, float(t)).data)) for t in times]
    omega = -np.polyfit(times, np.unwrap(phases), 1)[0]
    k = fields.mode_wavevector(grid, (0, 0, n))
    print(f"  |k| = {np.linalg.norm(k):.0f}: fitted omega = {omega:.10f}"
          f"  (sqrt(k^2+m^2) = {np.hypot(np.linalg.norm(k), mass):.10f})")

print("\nthe constraint subspace is invariant under evolution:")
r0 = max(fields.divergence_residuals(psi))
r1 = max(fields.divergence_residuals(prop.evolve(psi, 50.0)))
print(f"  max |div| at t=0: {r0:.2e}, at t=50: {r1:.2e}")
