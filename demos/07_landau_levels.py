#!/usr/bin/env python3
"""
Landau-level clusters: the gap from the kernel sector to the lowest scalar level.

A uniform magnetic field on the periodic box (flux-quantized, realized by
link phases on a central-difference lattice) splits the squared spectrum
into clusters, compared with E^2 = m^2 + (2n+1) eB - eB sigma.  On the
lattice E^2 - m^2 runs over the scalar levels spec(px^2 + py^2), each four
times, plus a kernel sector of exactly 2n^2 levels at E^2 = m^2.  The
offset-0 cluster is that kernel sector; the spin splitting read off below
is the gap from it to the lowest scalar Landau level, eB.
"""
import numpy as np

from spin1wave import em_coupling as em

n, flux, mass, charge = 16, 1, 1.0, 1.0
levels = em.landau_spectrum(n, flux, mass, charge)
print(f"lattice {n}x{n}, flux quanta N = {flux}, m = {mass}, e = {charge}")
print(f"eB = 2 pi N / box^2 = {levels.eB:.6f}")

offsets = (levels.e_squared - mass**2) / levels.eB
print("\nlowest distinct cluster offsets (E^2 - m^2)/eB with multiplicities:")
shown = 0
i = 0
while shown < 5 and i < len(offsets):
    j = i
    while j < len(offsets) and offsets[j] - offsets[i] < 0.3:
        j += 1
    print(f"  offset {np.mean(offsets[i:j]):8.4f}   x{j - i}")
    i = j
    shown += 1

analysis = em.landau_cluster_analysis(levels)
print("\ncluster checks against E^2 = m^2 + (2n+1) eB - eB sigma:")
for c in analysis["level_checks"]:
    print(
        f"  predicted offset {c['predicted_offset']}: center {c['center']:.4f} "
        f"(dev {c['deviation']:.4f}, tol {c['tolerance']:.3f}) "
        f"{'PASS' if c['passed'] else 'FAIL'}"
    )
print(f"\nspin splitting / eB = {analysis['sigma_splitting_over_eB']:.4f}"
      f"  ->  {'PASS' if analysis['sigma_splitting_ok'] else 'FAIL'} (within 5% of 1)")
print(f"\nnotes: the offset-0 cluster is the kernel sector alone, "
      f"{analysis['kernel_sector_count']} levels (2n^2 = {analysis['kernel_sector_expected']});")
print("no scalar level falls below offset 0.5.  Each tower carries a factor-4")
print("valley degeneracy from the central-difference discretization.")

print("\nfree check (e = 0): lowest squared eigenvalue equals m^2:")
free = em.landau_spectrum(12, 1, mass, 0.0)
print(f"  min E^2 = {free.e_squared[0]:.12f}")
