#!/usr/bin/env python3
"""
Walk through the matrix algebra behind the six-component wave system.

The dynamical matrices are Kronecker products of Pauli and spin-1 blocks:
a_k = sigma_2 x S_k, b = sigma_3 x I.  They share the anticommutation
relations of the Dirac set (b^2 = I, {a_k, b} = 0) but deliberately violate
the Clifford square condition: (a.n)^2 is a transverse projector, not the
identity.  Every entry is 0, +-1 or +-i, so every product formed here is a
small Gaussian integer, which complex128 holds exactly: the identities are
checked at deviation 0, with no rounding.
"""
import numpy as np

from spin1wave import algebra

ms = algebra.matrix_set()

print("=" * 64)
print("spin-1 matrices S_k (entries 0, +-i):")
for k, s in enumerate(ms.spin_matrices, start=1):
    print(f"S_{k} =\n{s}")

print("\nb = sigma_3 x I:")
print(ms.b.real)

print("\n" + "=" * 64)
print("anticommutation relations (exact):")
for c in algebra.check_anticommutation().identities:
    print(f"  {'PASS' if c.passed else 'FAIL'}  {c.identity_name:40s} dev={c.max_abs_deviation:g}")

print("\nspin operator from commutators and its square (exact):")
for c in algebra.check_spin_operator().identities:
    print(f"  {'PASS' if c.passed else 'FAIL'}  {c.identity_name:40s} dev={c.max_abs_deviation:g}")

print("\n" + "=" * 64)
print("the contrast with the Dirac set: (alpha.n)^2 = I but (a.z)^2 is")
print("the transverse projector diag(1,1,0,1,1,0):")
a3_sq = (ms.a[2] @ ms.a[2]).real
print(np.diag(a3_sq))
rep = algebra.check_square_identity((0.0, 0.0, 1.0))
for c in rep.identities:
    print(f"  {'PASS' if c.passed else 'FAIL'}  {c.identity_name}")

print("\nswap symmetry matrices (behind the u<->v, t->-t invariance):")
for c in algebra.check_swap_symmetry().identities:
    print(f"  {'PASS' if c.passed else 'FAIL'}  {c.identity_name:40s} dev={c.max_abs_deviation:g}")
