"""
Matrix algebra of the six-component spin-1 wave system.

The dynamical form is i dPsi/dt = H Psi with H = (a . p) + m b acting on
Psi = (u_x, u_y, u_z, v_x, v_y, v_z) / sqrt(2).  The 6x6 matrices are
Kronecker products of Pauli and spin-1 blocks,

    a_k = sigma_2 (x) S_k,      b = sigma_3 (x) I_3,
    Sigma_k = I_2 (x) S_k,      swap = sigma_1 (x) I_3,

with the convention (P (x) Q)[i*n+k, j*n+l] = P[i,j] * Q[k,l], so the upper
three components of Psi are u and the lower three are v.  The comparison set
alpha_k = sigma_2 (x) sigma_k, beta = sigma_3 (x) I_2 is a representation of
the Dirac matrices.

Every entry of every constructed matrix lies in {0, +-1, +-i}, and each is
held as a read-only complex128 array.  The identity checks among them are
nevertheless exact: every sum and product they form is a Gaussian integer
far below 2^53 in magnitude, which complex128 represents exactly, so no
operation rounds, whatever the BLAS summation order or use of FMA.  Each
such identity is compared at tolerance 0, so a rounding would fail it
rather than pass silently.  Checks that involve real momenta run in
complex128 with a 1e-14 tolerance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .reports import IdentityReport, worst

FLOAT_TOL = 1e-14


def _exact(entries) -> np.ndarray:
    """A read-only complex128 array of Gaussian-integer entries.  Parts that
    are -0.0 become +0.0 (Python's -1j is -0-1j)."""
    m = np.asarray(entries, dtype=np.complex128) + 0.0
    parts = m.view(np.float64)
    if not np.all(np.isfinite(parts) & (parts == np.rint(parts))):
        raise ValueError("entries are not Gaussian integers")
    m.setflags(write=False)
    return m


def _deviation(x, y) -> float:
    """max |x - y| over the entries; exactly 0 when x equals y."""
    return float(np.max(np.abs(x - y)))


# The Pauli matrices (2x2) and the spin-1 matrices (3x3), stacked on axis 0.
PAULI = _exact([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
SPIN = _exact([
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    [[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
])


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """The full matrix family: spin-1 blocks, the 6x6 dynamical set, the spin
    operator, the block-swap, and the 4x4 Dirac comparison set.  Each field
    is a read-only complex128 array; triples are stacked on axis 0."""

    spin_matrices: np.ndarray  # (3, 3, 3)
    a: np.ndarray  # (3, 6, 6)
    b: np.ndarray
    sigma_big: np.ndarray  # (3, 6, 6)
    dirac_alpha: np.ndarray  # (3, 4, 4)
    dirac_beta: np.ndarray
    swap: np.ndarray


def build_matrix_set() -> MatrixSet:
    sigma1, sigma2, sigma3 = PAULI
    return MatrixSet(
        spin_matrices=SPIN,
        a=_exact([np.kron(sigma2, s) for s in SPIN]),
        b=_exact(np.kron(sigma3, np.eye(3))),
        sigma_big=_exact([np.kron(np.eye(2), s) for s in SPIN]),
        dirac_alpha=_exact([np.kron(sigma2, p) for p in PAULI]),
        dirac_beta=_exact(np.kron(sigma3, np.eye(2))),
        swap=_exact(np.kron(sigma1, np.eye(3))),
    )


@functools.cache
def matrix_set() -> MatrixSet:
    """Shared immutable instance; all operations on it are pure."""
    return build_matrix_set()


def check_anticommutation() -> IdentityReport:
    """Verify b^2 = I and {a_k, b} = 0 exactly, the same relations for the
    Dirac comparison set, and the one Dirac relation the spin-1 set must
    violate: {a_j, a_k} = 2 delta_jk I fails because (a_3)^2 is the
    transverse projector diag(1,1,0,1,1,0), not the identity."""
    ms = matrix_set()
    rep = IdentityReport()
    i6, i4 = np.eye(6), np.eye(4)
    rep.add("b_squared_is_identity", _deviation(ms.b @ ms.b, i6))
    for k, ak in enumerate(ms.a, start=1):
        rep.add(f"a{k}_b_anticommute", _deviation(ak @ ms.b + ms.b @ ak, 0))

    beta = ms.dirac_beta
    rep.add("beta_squared_is_identity", _deviation(beta @ beta, i4))
    for k, al in enumerate(ms.dirac_alpha, start=1):
        rep.add(f"alpha{k}_beta_anticommute", _deviation(al @ beta + beta @ al, 0))
    for j, aj in enumerate(ms.dirac_alpha):
        for k, ak in enumerate(ms.dirac_alpha):
            target = 2 * i4 if j == k else 0
            rep.add(f"alpha{j+1}_alpha{k+1}_clifford", _deviation(aj @ ak + ak @ aj, target))

    # The spin-1 set must NOT satisfy the Clifford square condition.
    a3_sq = ms.a[2] @ ms.a[2]
    dev_from_identity = _deviation(a3_sq, i6)
    rep.add_outcome(
        "a3_squared_violates_clifford",
        passed=(dev_from_identity > 0) and _deviation(a3_sq, np.diag([1, 1, 0, 1, 1, 0])) == 0,
        deviation=dev_from_identity,
    )
    return rep


def check_spin_operator() -> IdentityReport:
    """Verify the commutator construction of the spin operator, its square,
    and the angular-momentum algebra: Sigma_1 = -i(a_2 a_3 - a_3 a_2) and
    cyclic, Sigma^2 = 2 I (so S = 1), [Sigma_j, Sigma_k] = i eps_jkl Sigma_l."""
    ms = matrix_set()
    rep = IdentityReport()
    cyc = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for c, j, k in cyc:
        built = -1j * (ms.a[j] @ ms.a[k] - ms.a[k] @ ms.a[j])
        rep.add(f"sigma{c+1}_from_a_commutator", _deviation(built, ms.sigma_big[c]))

    sig_sq = sum(s @ s for s in ms.sigma_big)
    rep.add("sigma_squared_is_2I", _deviation(sig_sq, 2 * np.eye(6)))

    # S(S+1) = 2  =>  S = 1
    s_value = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * sig_sq[0, 0].real))
    rep.add("inferred_spin_is_one", abs(s_value - 1.0))

    sig = ms.sigma_big
    for c, j, k in cyc:
        comm = sig[j] @ sig[k] - sig[k] @ sig[j]
        rep.add(f"sigma{j+1}_sigma{k+1}_commutator", _deviation(comm, 1j * sig[c]))
    return rep


def check_swap_symmetry() -> IdentityReport:
    """The block swap sigma_1 (x) I anticommutes with every a_k and with b,
    and squares to the identity.  This is the matrix-level fact behind the
    u <-> v, t -> -t invariance of the free propagator."""
    ms = matrix_set()
    rep = IdentityReport()
    rep.add("swap_squared_is_identity", _deviation(ms.swap @ ms.swap, np.eye(6)))
    for k, ak in enumerate(ms.a, start=1):
        rep.add(f"swap_a{k}_swap_is_minus_a{k}", _deviation(ms.swap @ ak @ ms.swap, -ak))
    rep.add("swap_b_swap_is_minus_b", _deviation(ms.swap @ ms.b @ ms.swap, -ms.b))
    return rep


def check_sigma_commutators() -> IdentityReport:
    """[Sigma_c, a_j] = i eps_cjl a_l and [Sigma_c, b] = 0, exactly.

    These are the matrix ingredients that make the total angular momentum
    L + Sigma commute with the Hamiltonian."""
    ms = matrix_set()
    rep = IdentityReport()
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1
        eps[i, k, j] = -1
    for c, sc in enumerate(ms.sigma_big):
        for j, aj in enumerate(ms.a):
            target = 1j * np.tensordot(eps[c, j], ms.a, axes=1)
            rep.add(f"sigma{c+1}_a{j+1}_commutator", _deviation(sc @ aj - aj @ sc, target))
        rep.add(f"sigma{c+1}_b_commute", _deviation(sc @ ms.b - ms.b @ sc, 0))
    return rep


def hamiltonian_symbol(k, m: float) -> np.ndarray:
    """H(k) = sum_j a_j k_j + m b for real momenta k of shape (..., 3):
    one 6x6 matrix per momentum, shape (..., 6, 6).

    Hermitian by construction; natural units (hbar = c = 1)."""
    ms = matrix_set()
    k = np.asarray(k, dtype=float)
    return np.tensordot(k, ms.a, axes=(-1, 0)) + m * ms.b


def analytic_eigenvalues(k, m: float) -> np.ndarray:
    """Sorted spectrum of H(k): +-sqrt(k^2+m^2) twice each (transverse
    branch) and +-m once each (longitudinal branch).  |k| is math.hypot's,
    which does not overflow below the largest double."""
    kn = math.hypot(*np.asarray(k, dtype=float))
    om = np.hypot(kn, m)
    return np.sort(np.array([-om, -om, -m, m, om, om]))


def check_square_identity(n) -> IdentityReport:
    """For a unit vector n, (a.n)^2 is not the identity: it acts as the
    identity on the transverse subspace {(u,v): n.u = n.v = 0} and as zero
    on the longitudinal one."""
    ms = matrix_set()
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > FLOAT_TOL:
        raise ValueError("n must be a unit vector")
    rep = IdentityReport()
    an = np.tensordot(n, ms.a, axes=(0, 0))
    an_sq = an @ an
    # spectral norm of (a.n)^2 - I is exactly 1: the longitudinal directions
    # are annihilated instead of preserved
    dev_id = float(np.max(np.abs(np.linalg.eigvalsh(an_sq - np.eye(6)))))
    rep.add_outcome("an_squared_not_identity", passed=dev_id > 0.5, deviation=dev_id)

    # columns: each vector in the u block and in the v block
    transverse = np.kron(np.eye(2), np.transpose(_transverse_pair(n)))
    longitudinal = np.kron(np.eye(2), n[:, None])
    rep.add("an_squared_identity_on_transverse",
            worst(np.abs(an_sq @ transverse - transverse)), FLOAT_TOL)
    rep.add("an_squared_zero_on_longitudinal", worst(np.abs(an_sq @ longitudinal)), FLOAT_TOL)

    alpha_n = np.tensordot(n, ms.dirac_alpha, axes=(0, 0))
    dev = float(np.max(np.abs(alpha_n @ alpha_n - np.eye(4))))
    rep.add("dirac_alpha_n_squared_is_identity", dev, FLOAT_TOL)
    return rep


def _transverse_pair(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal real vectors perpendicular to unit n."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def eigenmode(k, m: float, branch: int, polarization: str) -> np.ndarray:
    """Normalized eigenvector of H(k) as a 6-component amplitude.

    polarization 't1'/'t2' picks the two transverse modes with eigenvalue
    branch * sqrt(k^2 + m^2); 'long' picks the longitudinal mode with
    eigenvalue branch * m (u-block for +, v-block for -).  Requires |k| > 0.
    """
    k = np.asarray(k, dtype=float)
    kn = float(np.linalg.norm(k))
    if kn <= 0.0:
        raise ValueError("eigenmode requires a nonzero wavevector")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    khat = k / kn
    psi = np.zeros(6, dtype=complex)
    if polarization in ("t1", "t2"):
        t1, t2 = _transverse_pair(khat)
        eps = t1 if polarization == "t1" else t2
        omega = branch * np.hypot(kn, m)
        psi[:3] = (omega + m) * np.cross(khat, eps)
        psi[3:] = kn * eps
    elif polarization == "long":
        block = 0 if branch > 0 else 1
        psi[3 * block : 3 * block + 3] = khat
    else:
        raise ValueError(f"unknown polarization {polarization!r}")
    return psi / np.linalg.norm(psi)
