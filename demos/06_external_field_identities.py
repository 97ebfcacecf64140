#!/usr/bin/env python3
"""
Minimal coupling to a static external electromagnetic potential.

Two operator identities carry all the physics.  H_A^2 = (a.pi)^2 + m^2
holds unconditionally (pure matrix algebra).  The decomposition
(a.pi)^2 = pi^2 - e Sigma.H holds only on the covariant constraint manifold
pi.u = pi.v = 0 -- that is where the magnetic-moment term comes from, and
unprojected fields miss the identity by order one.
"""
import numpy as np

from spin1wave import em_coupling as em, fields

grid = fields.Grid.cubic(24)
mass = 1.0
ext = em.random_smooth_external(grid, charge=0.5, seed=88, amplitude=0.2, nmax=1)
print(f"grid 24^3, m = {mass}, e = {ext.charge}")
hvec = fields.curl(grid, ext.avec).real  # H = curl A
print(f"max|A| = {np.max(np.abs(ext.avec)):.3f}, max|H| = {np.max(np.abs(hvec)):.3f}")

print("\ncoupled generator is Hermitian:")
rep = em.hermiticity_check(ext, mass, trials=3, seed=1)
print(f"  <phi|G psi> vs <G phi|psi>: {rep.value('generator_hermiticity'):.2e}")

print("\nsquared-Hamiltonian identity (holds with or without constraints):")
rep = em.squared_hamiltonian_check(ext, mass, trials=5, seed=8)
print(f"  residual:                    {rep.value('squared_hamiltonian_identity'):.2e}")
print(f"  b -> Sigma_3 control:        {rep.value('non_anticommuting_control'):.2e}  (must be large)")

print("\ncovariant projection (CG with spectral preconditioner):")
psi = fields.random_wave_field(grid, mass, k_cutoff=1.5, seed=10)
proj = em.covariant_project(psi, ext)
print(f"  iterations (u, v): {proj.iterations}, post-residuals {proj.residuals[0]:.1e}, {proj.residuals[1]:.1e}")

print("\nconstrained identity (a.pi)^2 = pi^2 - e Sigma.H:")
rep = em.constrained_square_check(ext, mass, trials=2, seed=9)
print(f"  on projected fields:   {rep.value('projected_identity_residual'):.2e}")
print(f"  on unprojected fields: {rep.value('unprojected_negative_control'):.2e}  (must be large)")

print("\ngauge covariance of the RK4 evolution (static gauge function):")
x = fields.coordinates(grid)
chi = 0.1 * np.cos(x[0]) + 0.07 * np.sin(x[1])
psi_t = fields.random_wave_field(grid, mass, 1.5, seed=12, transverse=True, kmax=2.0)
dev = em.gauge_covariance_deviation(psi_t, ext, chi, t_final=0.2, dt=0.02)
print(f"  relative deviation: {dev:.2e} (bounded by the integrator error)")

print("\nsecond-order equation, three-slice residual converges as O(dt^2):")
proj_t = em.covariant_project(psi_t, ext).field
for dt in (8e-3, 4e-3):
    print(f"  dt = {dt:.0e}: residual {em.second_order_residual(proj_t, ext, dt):.3e}")
