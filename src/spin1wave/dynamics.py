"""
Exact free evolution of the six-component state and the conservation,
constraint, and symmetry diagnostics.

Evolution is per Fourier mode: Psi_hat(k, t) = exp(-i H(k) t) Psi_hat(k, 0)
with H(k) = a.k + m b.  The exponential has a closed form, because
(a.k)^2 = |k|^2 P_T and {a_k, b} = 0 give H(k)^2 = w^2 = |k|^2 + m^2 on the
transverse subspace P_T, while on the longitudinal one P_L = khat khat^T
(per block) H(k) reduces to m b:

    exp(-i H t) = P_T [cos wt - i (sin wt / w) H] + P_L exp(-i m t b).

There is no time-step error anywhere in this module; the only approximation
is the finite grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, fields
from .errors import CurrentMismatch, StepTooLarge
from .fields import WaveField, VectorField


def omega_max(grid: fields.Grid, mass: float) -> float:
    """Largest eigenfrequency resolvable on the grid: sqrt(|k|_max^2 + m^2)."""
    k2 = fields.k_squared(grid)
    return float(np.sqrt(np.max(k2) + mass**2))


def _hamiltonian_symbol(k: np.ndarray, mass: float, sh: np.ndarray) -> np.ndarray:
    """H(k) = a.k + m b applied per mode to a spectral (6, nx, ny, nz) stack:
    upper -> k x v + m u, lower -> -k x u - m v."""
    u, v = sh[:3], sh[3:]
    out = np.empty_like(sh)
    out[:3] = np.cross(k, v, axisa=0, axisb=0, axisc=0)
    out[3:] = np.cross(u, k, axisa=0, axisb=0, axisc=0)
    if mass:
        out[:3] += mass * u
        out[3:] -= mass * v
    return out


def apply_hamiltonian_stack(grid: fields.Grid, mass: float, stack: np.ndarray) -> np.ndarray:
    """(a.p + m b) applied spectrally to a (6, nx, ny, nz) stack:
    upper -> -i rot v + m u, lower -> i rot u - m v."""
    k = fields.wavevectors(grid)
    return fields.ifftn(_hamiltonian_symbol(k, mass, fields.fftn(stack)))


def apply_free_hamiltonian(psi: WaveField) -> WaveField:
    out = apply_hamiltonian_stack(psi.grid, psi.mass, psi.stack())
    return WaveField.from_stack(psi.grid, out, psi.mass, psi.time)


class FreePropagator:
    """Closed-form exp(-i H(k) t) per Fourier mode for one grid and mass.

    Building stores only the per-mode frequency w(k) = sqrt(|k|^2 + m^2) and
    the unit wavevector khat (zero at k = 0, where P_L = 0); evolving to any
    time is an FFT, the closed form above, and an inverse FFT.  The
    wavevectors are the Nyquist-zeroed ones of every first-derivative
    operator, so H(k) here is the symbol of apply_hamiltonian_stack.
    """

    def __init__(self, grid: fields.Grid, mass: float):
        self.grid = grid
        self.mass = float(mass)
        k = fields.wavevectors(grid)
        knorm = np.sqrt(np.sum(k * k, axis=0))
        # evals holds w(k) and evecs holds khat.  The names are those of the
        # per-mode eigendecomposition the closed form replaced; they stay
        # because perfbench/probe.py sizes the propagator from these arrays.
        self.evals = np.sqrt(knorm**2 + self.mass**2)
        self.evecs = k / np.where(knorm > 0.0, knorm, 1.0)

    def evolve_spectrum(self, sh: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H(k) t) applied to a spectral (6, nx, ny, nz) stack.

        With H = m b + a.k and (a.k) P_L = 0, the closed form expands to
        (c - i s m b) - i s a.k + P_L (exp(-i m t b) - c + i s m b), where
        c = cos wt and s = sin(wt)/w; b is +1 on u and -1 on v, so the v
        block takes the complex conjugates of the u block's coefficients.
        """
        m, khat = self.mass, self.evecs
        wt = self.evals * t
        c = np.cos(wt)
        s = t * np.sinc(wt / np.pi)  # sin(wt)/w, finite at w = 0
        alpha = c - 1j * m * s
        delta = np.exp(-1j * m * t) - alpha
        out = _hamiltonian_symbol(fields.wavevectors(self.grid), 0.0, sh)
        out *= -1j * s
        u, v = sh[:3], sh[3:]
        out[:3] += alpha * u + khat * (delta * np.sum(khat * u, axis=0))
        out[3:] += alpha.conj() * v + khat * (delta.conj() * np.sum(khat * v, axis=0))
        return out

    def evolve_stack(self, stack: np.ndarray, t: float) -> np.ndarray:
        return fields.ifftn(self.evolve_spectrum(fields.fftn(stack), t))

    def check_state(self, psi: WaveField) -> None:
        if psi.grid != self.grid or psi.mass != self.mass:
            raise ValueError("propagator was built for a different grid or mass")

    def evolve(self, psi: WaveField, t: float) -> WaveField:
        self.check_state(psi)
        out = self.evolve_stack(psi.stack(), t)
        return WaveField.from_stack(self.grid, out, self.mass, psi.time + t)


def evolve_free(psi: WaveField, t: float, propagator: FreePropagator | None = None) -> WaveField:
    prop = propagator or FreePropagator(psi.grid, psi.mass)
    return prop.evolve(psi, t)


def probability_density(psi: WaveField) -> np.ndarray:
    """rho = (|u|^2 + |v|^2)/2 pointwise; nonnegative by construction."""
    return 0.5 * (
        np.sum(np.abs(psi.u.data) ** 2, axis=0) + np.sum(np.abs(psi.v.data) ** 2, axis=0)
    )


def probability_current(psi: WaveField) -> np.ndarray:
    """j = (v* x u + v x u*)/2 = Re(v* x u) pointwise, shape (3, nx, ny, nz)."""
    return np.cross(psi.v.data.conj(), psi.u.data, axisa=0, axisb=0, axisc=0).real


def probability_current_matrix_form(psi: WaveField) -> np.ndarray:
    """j_k = Psi^dag a_k Psi evaluated with the actual 6x6 matrices (the
    independent route; must agree with the cross-product form)."""
    a_stack = algebra.matrix_set().a_stack()
    stack = psi.stack()
    return 0.5 * np.einsum("kij,i...,j...->k...", a_stack, stack.conj(), stack).real


def energy(psi: WaveField) -> float:
    """<Psi| H |Psi> under the grid inner product (with the 1/sqrt(2))."""
    return _spectral_energy(psi.grid, psi.mass, fields.fftn(psi.stack()))


def _spectral_energy(grid: fields.Grid, mass: float, sh: np.ndarray) -> float:
    """energy() from the spectrum sh of the stack, by Parseval: the grid sum
    of conj(f) g equals the mode sum of conj(f_hat) g_hat / npoints."""
    h = _hamiltonian_symbol(fields.wavevectors(grid), mass, sh)
    return float(0.5 * np.vdot(sh, h).real * grid.cell_volume / grid.npoints)


@dataclass
class DiagnosticsRecord:
    time: float
    total_probability: float
    total_current: np.ndarray
    energy: float
    div_u_res: float
    div_v_res: float
    continuity_res: float

    def csv_row(self) -> list[float]:
        return [
            self.time,
            self.total_probability,
            self.energy,
            float(self.total_current[0]),
            float(self.total_current[1]),
            float(self.total_current[2]),
            self.div_u_res,
            self.div_v_res,
            self.continuity_res,
        ]


CSV_COLUMNS = [
    "t",
    "total_probability",
    "energy",
    "jx",
    "jy",
    "jz",
    "div_u_res",
    "div_v_res",
    "continuity_res",
]


def diagnostics(
    psi: WaveField,
    continuity_dt: float | None = None,
    propagator: FreePropagator | None = None,
) -> DiagnosticsRecord:
    """Conserved-quantity totals and constraint residuals.

    The current is computed both from the cross-product form and from the
    matrix form Psi^dag a Psi; they must agree to 1e-12, which guards the
    equivalence of the two published definitions on every call (raises
    CurrentMismatch otherwise).  The energy and the divergence residuals
    come from one forward FFT of the state.
    """
    rho = probability_density(psi)
    j = probability_current(psi)
    j_mat = probability_current_matrix_form(psi)
    scale = max(float(np.max(rho)), 1e-300)
    dev = float(np.max(np.abs(j - j_mat)))
    if not dev <= 1e-12 * scale:
        raise CurrentMismatch(f"current formulas disagree: {dev:.3e} vs scale {scale:.3e}")

    grid = psi.grid
    dv = grid.cell_volume
    sh = fields.fftn(psi.stack())
    k = fields.wavevectors(grid)
    div = fields.ifftn(1j * np.sum(k[None] * sh.reshape(2, 3, *grid.shape), axis=1))
    div_u, div_v = (float(np.max(np.abs(d))) for d in div)
    cres = float("nan")
    if continuity_dt is not None:
        cres = continuity_residual(psi, continuity_dt, propagator=propagator)
    return DiagnosticsRecord(
        time=psi.time,
        total_probability=float(np.sum(rho) * dv),
        total_current=np.sum(j, axis=(1, 2, 3)) * dv,
        energy=_spectral_energy(grid, psi.mass, sh),
        div_u_res=div_u,
        div_v_res=div_v,
        continuity_res=cres,
    )


def continuity_residual(
    psi: WaveField, dt: float, propagator: FreePropagator | None = None
) -> float:
    """L2 norm of d_t rho + div j, with d_t rho estimated by a central
    difference of exactly evolved states, both evolved from one forward FFT
    of psi.  Converges as O(dt^2)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    bound = 0.1 / omega_max(psi.grid, psi.mass)
    if dt > bound:
        raise StepTooLarge(f"dt={dt:.3e} exceeds the resolution bound {bound:.3e}")
    prop = propagator or FreePropagator(psi.grid, psi.mass)
    prop.check_state(psi)
    sh = fields.fftn(psi.stack())

    def rho_at(t: float) -> np.ndarray:
        stack = fields.ifftn(prop.evolve_spectrum(sh, t))
        return probability_density(WaveField.from_stack(psi.grid, stack, psi.mass))

    drho = (rho_at(dt) - rho_at(-dt)) / (2.0 * dt)
    divj = fields.divergence(VectorField(psi.grid, probability_current(psi).astype(complex))).real
    res = drho + divj
    return float(np.sqrt(np.sum(res**2) * psi.grid.cell_volume))


@dataclass
class KgfResidual:
    transverse_res: float
    longitudinal_demo: float


def kgf_residual(psi: WaveField) -> KgfResidual:
    """Second-order consistency: H^2 Psi = (-Laplacian + m^2) Psi holds on
    the constraint subspace only.

    transverse_res: relative residual after projecting psi transverse.
    longitudinal_demo: residual of a purely longitudinal single mode on the
    same grid, which must come out at |k|^2 (the identity fails off the
    constraint manifold by exactly the longitudinal -k(k.psi) term).
    """
    grid, m = psi.grid, psi.mass
    k = fields.wavevectors(grid)
    k2 = np.sum(k * k, axis=0)

    def rel_residual(stack: np.ndarray) -> tuple[float, float]:
        h2 = apply_hamiltonian_stack(
            grid, m, apply_hamiltonian_stack(grid, m, stack)
        )
        target = fields.ifftn((k2 + m * m)[None] * fields.fftn(stack))
        num = float(np.sqrt(np.sum(np.abs(h2 - target) ** 2)))
        den = float(np.sqrt(np.sum(np.abs(stack) ** 2)))
        return num, den

    psi_t = fields.project_constraints(psi)
    num, den = rel_residual(psi_t.stack())
    ref = float(np.sqrt(np.max(k2)) + m) ** 2
    transverse = num / max(den * ref, 1e-300)

    k_long = fields.mode_wavevector(grid, (0, 0, 1))
    psi_l = fields.plane_wave(grid, k_long, (0.0, 0.0, 1.0))
    stack_l = np.concatenate([psi_l.data, np.zeros_like(psi_l.data)])
    num_l, den_l = rel_residual(stack_l)
    return KgfResidual(transverse_res=transverse, longitudinal_demo=num_l / max(den_l, 1e-300))


def time_reversal_swap_check(
    psi: WaveField, t: float, propagator: FreePropagator | None = None
) -> float:
    """Relative difference between swap(evolve(psi, t)) and
    evolve(swap(psi), -t).  Zero because sigma_1 (x) I anticommutes with
    H(k), so conjugating the propagator by the swap reverses time."""
    prop = propagator or FreePropagator(psi.grid, psi.mass)
    a = fields.swap_blocks(prop.evolve(psi, t))
    b = prop.evolve(fields.swap_blocks(psi), -t)
    diff = a.stack() - b.stack()
    na = float(np.sqrt(np.sum(np.abs(a.stack()) ** 2)))
    return float(np.sqrt(np.sum(np.abs(diff) ** 2))) / max(na, 1e-300)


def _momentum_apply(grid: fields.Grid, stack: np.ndarray) -> np.ndarray:
    """p_a f for a = x, y, z at once: returns shape (3, *stack.shape)."""
    k = fields.wavevectors(grid)
    sh = fields.fftn(stack)
    return fields.ifftn(k[:, None] * sh[None])


def angular_momentum_commutator(psi: WaveField) -> float:
    """Max over components c of the relative residual of [L_c + Sigma_c, H]
    applied to psi.

    The orbital part uses the periodic sawtooth coordinate centered at the
    box midpoint, so psi should be a band-limited packet supported away
    from the wrap seam; the residual is then dominated by the exponentially
    small seam leakage.
    """
    grid, m = psi.grid, psi.mass
    x = fields.coordinates(grid)
    sigma_stack = algebra.matrix_set().sigma_stack()
    stack = psi.stack()

    h_psi = apply_hamiltonian_stack(grid, m, stack)
    p_psi = _momentum_apply(grid, stack)  # (3, 6, nx, ny, nz)
    p_hpsi = _momentum_apply(grid, h_psi)

    def j_apply(c: int, base: np.ndarray, p_base: np.ndarray) -> np.ndarray:
        a, b = (c + 1) % 3, (c + 2) % 3
        orbital = x[a] * p_base[b] - x[b] * p_base[a]
        spin = np.einsum("ij,j...->i...", sigma_stack[c], base)
        return orbital + spin

    worst = 0.0
    for c in range(3):
        lhs = j_apply(c, h_psi, p_hpsi)
        rhs = apply_hamiltonian_stack(grid, m, j_apply(c, stack, p_psi))
        num = float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)))
        den = max(
            float(np.sqrt(np.sum(np.abs(lhs) ** 2))),
            float(np.sqrt(np.sum(np.abs(rhs) ** 2))),
            1e-300,
        )
        worst = max(worst, num / den)
    return worst
