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

Every entry of every constructed matrix lies in {0, +-1, +-i}; all identity
checks among the constructed matrices therefore run in exact Gaussian-integer
arithmetic (int64 real/imaginary parts, no floating point).  Checks that
involve real momenta run in complex128 with a 1e-14 tolerance.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .reports import IdentityReport, worst

FLOAT_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class ExactMat:
    """Square matrix over the Gaussian integers; arithmetic never rounds."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "re", np.asarray(self.re, dtype=np.int64))
        object.__setattr__(self, "im", np.asarray(self.im, dtype=np.int64))
        if self.re.shape != self.im.shape or self.re.ndim != 2:
            raise ValueError("real and imaginary parts must be square and congruent")

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    @staticmethod
    def identity(d: int) -> "ExactMat":
        return ExactMat(np.eye(d, dtype=np.int64), np.zeros((d, d), np.int64))

    @staticmethod
    def zeros(d: int) -> "ExactMat":
        z = np.zeros((d, d), np.int64)
        return ExactMat(z, z.copy())

    def __matmul__(self, other: "ExactMat") -> "ExactMat":
        return ExactMat(
            self.re @ other.re - self.im @ other.im,
            self.re @ other.im + self.im @ other.re,
        )

    def __add__(self, other: "ExactMat") -> "ExactMat":
        return ExactMat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactMat") -> "ExactMat":
        return ExactMat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactMat":
        return ExactMat(-self.re, -self.im)

    def scaled(self, re: int, im: int = 0) -> "ExactMat":
        """Multiply by the Gaussian integer re + i*im."""
        return ExactMat(re * self.re - im * self.im, re * self.im + im * self.re)

    def times_i(self) -> "ExactMat":
        return ExactMat(-self.im, self.re)

    def conj_t(self) -> "ExactMat":
        return ExactMat(self.re.T.copy(), -self.im.T)

    def kron(self, other: "ExactMat") -> "ExactMat":
        return ExactMat(
            np.kron(self.re, other.re) - np.kron(self.im, other.im),
            np.kron(self.re, other.im) + np.kron(self.im, other.re),
        )

    def equals(self, other: "ExactMat") -> bool:
        return bool(
            np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
        )

    def max_abs_deviation(self, other: "ExactMat") -> float:
        dre = self.re - other.re
        dim = self.im - other.im
        return float(np.sqrt(np.max(dre * dre + dim * dim)))

    def is_hermitian(self) -> bool:
        return self.equals(self.conj_t())

    def to_complex(self) -> np.ndarray:
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)


def _exact(entries) -> ExactMat:
    arr = np.asarray(entries, dtype=np.complex128)
    re = arr.real.astype(np.int64)
    im = arr.imag.astype(np.int64)
    if not (np.all(arr.real == re) and np.all(arr.imag == im)):
        raise ValueError("entries are not Gaussian integers")
    return ExactMat(re, im)


# Pauli matrices (2x2) and the spin-1 matrices (3x3), entries in {0, +-1, +-i}.
SIGMA1 = _exact([[0, 1], [1, 0]])
SIGMA2 = _exact([[0, -1j], [1j, 0]])
SIGMA3 = _exact([[1, 0], [0, -1]])

SPIN1 = _exact([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
SPIN2 = _exact([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
SPIN3 = _exact([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """The full matrix family: spin-1 blocks, the 6x6 dynamical set, the spin
    operator, the block-swap, and the 4x4 Dirac comparison set."""

    spin_matrices: tuple[ExactMat, ExactMat, ExactMat]
    a: tuple[ExactMat, ExactMat, ExactMat]
    b: ExactMat
    sigma_big: tuple[ExactMat, ExactMat, ExactMat]
    dirac_alpha: tuple[ExactMat, ExactMat, ExactMat]
    dirac_beta: ExactMat
    swap: ExactMat

    def a_stack(self) -> np.ndarray:
        """Complex view of (a_1, a_2, a_3), shape (3, 6, 6)."""
        return np.stack([m.to_complex() for m in self.a])

    def b_complex(self) -> np.ndarray:
        return self.b.to_complex()

    def sigma_stack(self) -> np.ndarray:
        return np.stack([m.to_complex() for m in self.sigma_big])

    def alpha_stack(self) -> np.ndarray:
        return np.stack([m.to_complex() for m in self.dirac_alpha])


def build_matrix_set() -> MatrixSet:
    spin = (SPIN1, SPIN2, SPIN3)
    i3 = ExactMat.identity(3)
    i2 = ExactMat.identity(2)
    paulis = (SIGMA1, SIGMA2, SIGMA3)
    return MatrixSet(
        spin_matrices=spin,
        a=tuple(SIGMA2.kron(s) for s in spin),
        b=SIGMA3.kron(i3),
        sigma_big=tuple(i2.kron(s) for s in spin),
        dirac_alpha=tuple(SIGMA2.kron(p) for p in paulis),
        dirac_beta=SIGMA3.kron(i2),
        swap=SIGMA1.kron(i3),
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
    i6 = ExactMat.identity(6)
    rep.add("b_squared_is_identity", (ms.b @ ms.b).max_abs_deviation(i6))
    for k, ak in enumerate(ms.a, start=1):
        anti = ak @ ms.b + ms.b @ ak
        rep.add(f"a{k}_b_anticommute", anti.max_abs_deviation(ExactMat.zeros(6)))

    i4 = ExactMat.identity(4)
    rep.add("beta_squared_is_identity", (ms.dirac_beta @ ms.dirac_beta).max_abs_deviation(i4))
    for k, al in enumerate(ms.dirac_alpha, start=1):
        anti = al @ ms.dirac_beta + ms.dirac_beta @ al
        rep.add(f"alpha{k}_beta_anticommute", anti.max_abs_deviation(ExactMat.zeros(4)))
    for j in range(3):
        for k in range(3):
            anti = ms.dirac_alpha[j] @ ms.dirac_alpha[k] + ms.dirac_alpha[k] @ ms.dirac_alpha[j]
            target = i4.scaled(2) if j == k else ExactMat.zeros(4)
            rep.add(f"alpha{j+1}_alpha{k+1}_clifford", anti.max_abs_deviation(target))

    # The spin-1 set must NOT satisfy the Clifford square condition.
    a3_sq = ms.a[2] @ ms.a[2]
    projector = _exact(np.diag([1, 1, 0, 1, 1, 0]))
    dev_from_identity = a3_sq.max_abs_deviation(i6)
    rep.add_outcome(
        "a3_squared_violates_clifford",
        passed=(dev_from_identity > 0) and a3_sq.equals(projector),
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
        comm = ms.a[j] @ ms.a[k] - ms.a[k] @ ms.a[j]
        built = comm.scaled(0, -1)  # -i * commutator
        rep.add(f"sigma{c+1}_from_a_commutator", built.max_abs_deviation(ms.sigma_big[c]))

    sig_sq = ExactMat.zeros(6)
    for s in ms.sigma_big:
        sig_sq = sig_sq + s @ s
    two_i = ExactMat.identity(6).scaled(2)
    rep.add("sigma_squared_is_2I", sig_sq.max_abs_deviation(two_i))

    # S(S+1) = 2  =>  S = 1
    s_value = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * sig_sq.re[0, 0]))
    rep.add("inferred_spin_is_one", abs(s_value - 1.0))

    for c, j, k in cyc:
        comm = ms.sigma_big[j] @ ms.sigma_big[k] - ms.sigma_big[k] @ ms.sigma_big[j]
        rep.add(
            f"sigma{j+1}_sigma{k+1}_commutator",
            comm.max_abs_deviation(ms.sigma_big[c].times_i()),
        )
    return rep


def check_swap_symmetry() -> IdentityReport:
    """The block swap sigma_1 (x) I anticommutes with every a_k and with b,
    and squares to the identity.  This is the matrix-level fact behind the
    u <-> v, t -> -t invariance of the free propagator."""
    ms = matrix_set()
    rep = IdentityReport()
    rep.add("swap_squared_is_identity", (ms.swap @ ms.swap).max_abs_deviation(ExactMat.identity(6)))
    for k, ak in enumerate(ms.a, start=1):
        conj = ms.swap @ ak @ ms.swap
        rep.add(f"swap_a{k}_swap_is_minus_a{k}", conj.max_abs_deviation(-ak))
    conj = ms.swap @ ms.b @ ms.swap
    rep.add("swap_b_swap_is_minus_b", conj.max_abs_deviation(-ms.b))
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
    for c in range(3):
        for j in range(3):
            comm = ms.sigma_big[c] @ ms.a[j] - ms.a[j] @ ms.sigma_big[c]
            target = ExactMat.zeros(6)
            for l in range(3):
                if eps[c, j, l]:
                    target = target + ms.a[l].scaled(0, int(eps[c, j, l]))
            rep.add(f"sigma{c+1}_a{j+1}_commutator", comm.max_abs_deviation(target))
        comm = ms.sigma_big[c] @ ms.b - ms.b @ ms.sigma_big[c]
        rep.add(f"sigma{c+1}_b_commute", comm.max_abs_deviation(ExactMat.zeros(6)))
    return rep


def hamiltonian_symbol(k, m: float) -> np.ndarray:
    """H(k) = sum_j a_j k_j + m b for real momenta k of shape (..., 3):
    one 6x6 matrix per momentum, shape (..., 6, 6).

    Hermitian by construction; natural units (hbar = c = 1)."""
    ms = matrix_set()
    k = np.asarray(k, dtype=float)
    return np.tensordot(k, ms.a_stack(), axes=(-1, 0)) + m * ms.b_complex()


def analytic_eigenvalues(k, m: float) -> np.ndarray:
    """Sorted spectrum of H(k): +-sqrt(k^2+m^2) twice each (transverse
    branch) and +-m once each (longitudinal branch)."""
    kn = float(np.linalg.norm(np.asarray(k, dtype=float)))
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
    an = np.tensordot(n, ms.a_stack(), axes=(0, 0))
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

    alpha_n = np.tensordot(n, ms.alpha_stack(), axes=(0, 0))
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
