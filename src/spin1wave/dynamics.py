"""
Exact free evolution of the six-component state and the conservation,
constraint, and symmetry diagnostics.

Evolution is per Fourier mode: Psi_hat(k, t) = exp(-i H(k) t) Psi_hat(k, 0)
with H(k) = a.k + m b.  The exponential has a closed form, because
(a.k)^2 = |k|^2 P_T and {a_k, b} = 0 give H(k)^2 = w^2 = |k|^2 + m^2 on the
transverse subspace P_T, while on the longitudinal one P_L = khat khat^T
(per block) H(k) reduces to m b:

    exp(-i H t) = P_T [cos wt - i (sin wt / w) H] + P_L exp(-i m t b).

Evolution has no time-step error; the only approximation is the finite grid.

run is the one run loop of free and coupled evolution (evolve_free, and
em_coupling.evolve_em with RK4); it holds the state as a spectrum between
record schedule entries.  record is the one diagnostics record of both: it
works from the spectrum the caller holds, given the two operators in which
the systems differ (generator, constraint divergence), and evolves nothing:
d_t rho comes from the generator it applies for the energy.

The kernels follow the rule of fields: each allocates its outputs once, at
full size, and builds them component by component or in place, with no
temporary the size of a whole six-component stack.  Each keeps the
operation order of the plain array expression it replaces.  The free
symbol and the free step write into a stack the caller passes as out=,
and run lends its one spare stack to the integrator, so a free step
allocates no whole stack.

The checks measure by em_coupling's rule: fields.relative, and
reports.worst over components, so a NaN anywhere reads NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, fields
from .errors import CurrentMismatch, NonFiniteState, ScheduleError, StepTooLarge
from .fields import WaveField
from .reports import worst


def omega_max(grid: fields.Grid, mass: float) -> float:
    """Largest eigenfrequency resolvable on the grid: sqrt(|k|_max^2 + m^2)."""
    k2 = fields.k_squared(grid)
    return float(np.sqrt(np.max(k2) + mass**2))


def _hamiltonian_symbol(k: np.ndarray, mass: float, sh: np.ndarray, *,
                        out: np.ndarray | None = None) -> np.ndarray:
    """H(k) = a.k + m b applied per mode to a spectral (6, nx, ny, nz) stack:
    upper -> k x v + m u, lower -> -k x u - m v = u x k - m v.  The cross
    products are written component by component, each as np.cross forms
    it (a_j b_k - a_k b_j), so the result is np.cross's bit for bit.  The
    result goes into out (a new stack if None), which must not overlap sh."""
    u, v = sh[:3], sh[3:]
    if out is None:
        out = np.empty_like(sh)
    tmp = np.empty_like(sh[0])
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        np.multiply(k[a], v[b], out=out[i])
        out[i] -= np.multiply(k[b], v[a], out=tmp)
        np.multiply(u[a], k[b], out=out[3 + i])
        out[3 + i] -= np.multiply(u[b], k[a], out=tmp)
        if mass:
            out[i] += np.multiply(u[i], mass, out=tmp)
            out[3 + i] -= np.multiply(v[i], mass, out=tmp)
    return out


def apply_hamiltonian_stack(grid: fields.Grid, mass: float, stack: np.ndarray) -> np.ndarray:
    """(a.p + m b) applied spectrally to a (6, nx, ny, nz) stack:
    upper -> -i rot v + m u, lower -> i rot u - m v."""
    k = fields.wavevectors(grid)
    return fields.ifftn(_hamiltonian_symbol(k, mass, fields.fftn(stack)))


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

    def evolve_spectrum(self, sh: np.ndarray, t: float, *,
                        out: np.ndarray | None = None) -> np.ndarray:
        """exp(-i H(k) t) applied to a spectral (6, nx, ny, nz) stack, into
        out (a new stack if None), which must not overlap sh.

        With H = m b + a.k and (a.k) P_L = 0, the closed form expands to
        (c - i s m b) - i s a.k + P_L (exp(-i m t b) - c + i s m b), where
        c = cos wt and s = sin(wt)/w (t where w = 0); b is +1 on u and -1 on
        v, so the v block takes the complex conjugates of the u block's
        coefficients.  c and s take one phase wt, so c^2 + (s w)^2 = 1 to
        roundoff at any t; a phase rounded again for s alone drifts from it
        as t grows (1e-4 at w = 1, t = 1e12).
        """
        m, w, khat = self.mass, self.evals, self.evecs
        wt = w * t
        c = np.cos(wt)
        s = np.divide(np.sin(wt), w, out=np.full_like(wt, t), where=w > 0)
        alpha = c - 1j * m * s
        delta = np.exp(-1j * m * t) - alpha
        out = _hamiltonian_symbol(fields.wavevectors(self.grid), 0.0, sh, out=out)
        out *= -1j * s
        tmp = np.empty_like(alpha)
        for block, a, d in ((slice(0, 3), alpha, delta), (slice(3, 6), alpha.conj(), delta.conj())):
            w, o = sh[block], out[block]
            proj = np.multiply(d, fields.vector_dot(khat, w))
            for i in range(3):
                # o_i += a w_i + khat_i (d khat.w), summed in that order
                part = np.multiply(a, w[i], out=tmp)
                part += khat[i] * proj
                o[i] += part
        return out

    def evolve_stack(self, stack: np.ndarray, t: float) -> np.ndarray:
        return fields.ifftn(self.evolve_spectrum(fields.fftn(stack), t))

    def evolve(self, psi: WaveField, t: float) -> WaveField:
        if psi.grid != self.grid or psi.mass != self.mass:
            raise ValueError("propagator was built for a different grid or mass")
        return WaveField(self.grid, self.evolve_stack(psi.data, t), self.mass, psi.time + t)


def _density(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sum(np.abs(u) ** 2, axis=0) + np.sum(np.abs(v) ** 2, axis=0))


def probability_density(psi: WaveField) -> np.ndarray:
    """rho = (|u|^2 + |v|^2)/2 pointwise; nonnegative by construction."""
    return _density(psi.data[:3], psi.data[3:])


def probability_current(psi: WaveField) -> np.ndarray:
    """j = (v* x u + v x u*)/2 = Re(v* x u) pointwise, shape (3, nx, ny, nz),
    one component at a time in np.cross's operation order."""
    u, v = psi.data[:3], psi.data[3:]
    j = np.empty((3, *psi.grid.shape))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        j[i] = (v[a].conj() * u[b] - v[b].conj() * u[a]).real
    return j


def probability_current_matrix_form(psi: WaveField) -> np.ndarray:
    """j_k = Psi^dag a_k Psi evaluated with the actual 6x6 matrices (the
    independent route; must agree with the cross-product form).  Sums
    a[k, i, j] conj(psi_i) psi_j over the 12 nonzero matrix entries only."""
    a = algebra.matrix_set().a
    j = np.zeros((3, *psi.grid.shape))
    for k, row, col in zip(*np.nonzero(a)):
        j[k] += (a[k, row, col] * psi.data[row].conj() * psi.data[col]).real
    return 0.5 * j


def _parseval_energy(grid: fields.Grid, sh: np.ndarray, gsh: np.ndarray) -> float:
    """<Psi|G|Psi> from the spectra sh of the stack and gsh of G Psi: the grid
    sum of conj(f) g is the mode sum of conj(f_hat) g_hat / npoints."""
    return 0.5 * fields.real_vdot(sh, gsh) * grid.cell_volume / grid.npoints


def energy(psi: WaveField) -> float:
    """<Psi| H |Psi> under the grid inner product (with the 1/sqrt(2))."""
    sh = fields.fftn(psi.data)
    k = fields.wavevectors(psi.grid)
    return _parseval_energy(psi.grid, sh, _hamiltonian_symbol(k, psi.mass, sh))


CSV_COLUMNS = ["t", "total_probability", "energy", "jx", "jy", "jz",
               "div_u_res", "div_v_res", "continuity_res"]


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
        """The values in CSV_COLUMNS order."""
        return [self.time, self.total_probability, self.energy, *map(float, self.total_current),
                self.div_u_res, self.div_v_res, self.continuity_res]


def record(psi: WaveField, sh: np.ndarray, generator, divergence) -> DiagnosticsRecord:
    """The diagnostics record of one state, free or coupled.  sh is the
    spectrum of psi's stack s = (u, v), and the two operators in which the
    systems differ act on spectra: generator(sh) gives G s, for the energy
    <Psi|G|Psi> and for d_t rho = Im(s^dag G s) in the continuity column
    (from i d_t s = G s and rho = s^dag s / 2); divergence(wh) gives the
    constraint divergence of a (2, 3, ...) block spectrum (columns
    max|div u|, max|div v|).

    The cross-product current must agree with the matrix form Psi^dag a Psi
    to 1e-12 on every record, a guard on the equivalence of the two
    published definitions (raises CurrentMismatch otherwise)."""
    rho = probability_density(psi)
    j = probability_current(psi)
    scale = max(float(np.max(rho)), 1e-300)
    dev = float(np.max(np.abs(j - probability_current_matrix_form(psi))))
    if not dev <= 1e-12 * scale:
        raise CurrentMismatch(f"current formulas disagree: {dev:.3e} vs scale {scale:.3e}")
    grid = psi.grid
    div = fields.ifftn(divergence(sh.reshape(2, 3, *grid.shape)))
    div_u, div_v = np.max(np.abs(div), axis=(1, 2, 3)).tolist()
    del div
    gsh = generator(sh)
    energy = _parseval_energy(grid, sh, gsh)
    # s^dag G s one block at a time, inverse FFT included, and G s freed
    # before the continuity norm: whole-stack temporaries set the peak
    # memory of a free run
    s_g = fields.vector_dot(psi.data[:3].conj(), fields.ifftn(gsh[:3]))
    s_g += fields.vector_dot(psi.data[3:].conj(), fields.ifftn(gsh[3:]))
    del gsh
    return DiagnosticsRecord(
        time=psi.time,
        total_probability=float(np.sum(rho) * grid.cell_volume),
        total_current=np.sum(j, axis=(1, 2, 3)) * grid.cell_volume,
        energy=energy,
        div_u_res=div_u,
        div_v_res=div_v,
        continuity_res=_continuity_norm(grid, s_g.imag, j),
    )


def _continuity_norm(grid: fields.Grid, drho: np.ndarray, j: np.ndarray) -> float:
    """L2 norm of d_t rho + div j over the grid."""
    divj = fields.divergence(grid, j).real
    return float(np.sqrt(np.sum((drho + divj) ** 2) * grid.cell_volume))


def diagnostics(psi: WaveField, sh: np.ndarray | None = None) -> DiagnosticsRecord:
    """The record of the free system: generator H(k), divergence residuals
    max|div u|, max|div v|.  sh is the spectrum of psi's stack; it is taken
    here if the caller does not hold it."""
    sh = fields.fftn(psi.data) if sh is None else sh
    k = fields.wavevectors(psi.grid)
    return record(psi, sh, lambda s: _hamiltonian_symbol(k, psi.mass, s),
                  lambda wh: 1j * fields.vector_dot(k, wh))


def step_count(t_final: float, dt: float, multiple: bool = False) -> int:
    """Steps of dt in a run to t_final.  Where t_final is a multiple of dt (to
    1e-9 relative), t_final/dt rounded; else rounded up, with a shorter last
    step, or for a whole-step integrator (multiple=True) ScheduleError.  Also
    ScheduleError unless t_final >= 0, dt > 0 and t_final/dt < 2^52: from 2^52
    steps on, consecutive step times s*dt can round to one double."""
    if not (dt > 0 and 0 <= t_final / dt < 2**52):
        raise ScheduleError(f"t_final={t_final!r}, dt={dt!r}: a run needs t_final >= 0, "
                            f"dt > 0 and fewer than 2^52 steps")
    n_steps = round(t_final / dt)
    if abs(n_steps * dt - t_final) <= 1e-9 * t_final:
        return n_steps
    if multiple:
        raise ScheduleError("t_final must be an integer multiple of dt")
    return max(math.ceil(t_final / dt), 1)  # t_final > 0 here, even where t_final/dt underflows


def record_schedule(t_final: float, dt: float, stride: int, n_steps: int):
    """The record schedule of a run of n_steps steps of dt, as lazy (step, t)
    pairs: step 0 and every stride-th step short of n_steps at t = step * dt
    (none if stride <= 0), then (n_steps, t_final)."""
    if stride > 0:
        for step in range(0, n_steps, stride):
            yield step, step * dt
    yield n_steps, t_final


@dataclass
class Evolution:
    """The state at the end of a run and the run's records."""

    final: WaveField
    records: list[DiagnosticsRecord]


def run(psi: WaveField, t_final: float, dt: float, diag_stride: int, n_steps: int,
        advance, record_state) -> Evolution:
    """The run loop of free and coupled evolution.  It holds two stacks: the
    spectrum sh and one spare.  advance(sh, steps, span, out) writes sh
    moved steps steps of dt (span in time) into out, the spare, leaves sh
    as it is and returns out; the two stacks then swap roles.  At each
    schedule entry the state returns to real space in the spare, checked
    finite, and with diag_stride > 0 record_state(state, sh) gives its
    record.  record_state must not keep the state's array (or sh): the
    next advance overwrites it.  The final state is the spare itself."""
    grid = psi.grid
    sh = fields.fftn(psi.data)
    spare = np.empty_like(sh)
    records: list[DiagnosticsRecord] = []
    step, t = 0, 0.0
    for next_step, next_t in record_schedule(t_final, dt, diag_stride, n_steps):
        if next_step > step:
            sh, spare = advance(sh, next_step - step, next_t - t, spare), sh
        step, t = next_step, next_t
        fields.ifftn(sh, out=spare)
        if not np.all(np.isfinite(spare.view(float))):
            raise NonFiniteState(f"non-finite field values at step {step}")
        state = WaveField(grid, spare, psi.mass, psi.time + t)  # wraps, no copy
        if diag_stride > 0:
            records.append(record_state(state, sh))
    return Evolution(state, records)


def evolve_free(psi: WaveField, t_final: float, dt: float, diag_stride: int = 0) -> Evolution:
    """Exact free evolution to t_final in the run loop; the propagator is
    exact over any span, so t_final need not be a multiple of dt."""
    prop = FreePropagator(psi.grid, psi.mass)
    return run(psi, t_final, dt, diag_stride, step_count(t_final, dt),
               lambda sh, steps, span, out: prop.evolve_spectrum(sh, span, out=out),
               diagnostics)


def continuity_residual(psi: WaveField, dt: float) -> float:
    """The record's continuity column with d_t rho from the exact evolutions
    to +-dt by central difference: an O(dt^2) cross-check."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    bound = 0.1 / omega_max(psi.grid, psi.mass)
    if dt > bound:
        raise StepTooLarge(f"dt={dt:.3e} exceeds the resolution bound {bound:.3e}")
    prop = FreePropagator(psi.grid, psi.mass)
    sh = fields.fftn(psi.data)

    def rho_at(t: float) -> np.ndarray:
        stack = fields.ifftn(prop.evolve_spectrum(sh, t))
        return _density(stack[:3], stack[3:])

    drho = (rho_at(dt) - rho_at(-dt)) / (2.0 * dt)
    return _continuity_norm(psi.grid, drho, probability_current(psi))


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

    def residual(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The spectra of (H^2 - (-Laplacian + m^2)) stack and of stack: the
        FFT scales both norms alike."""
        sh = fields.fftn(stack)
        return _hamiltonian_symbol(k, m, _hamiltonian_symbol(k, m, sh)) - (k2 + m * m) * sh, sh

    diff, sh = residual(fields.project_constraints(psi).data)
    ref = float(np.sqrt(np.max(k2)) + m) ** 2  # the spectral radius of H^2
    transverse = fields.norm(diff) / max(fields.norm(sh) * ref, 1e-300)

    k_long = fields.mode_wavevector(grid, (0, 0, 1))
    u_l = fields.plane_wave(grid, k_long, (0.0, 0.0, 1.0))
    longitudinal = fields.relative(*residual(np.concatenate([u_l, np.zeros_like(u_l)])))
    return KgfResidual(transverse_res=transverse, longitudinal_demo=longitudinal)


def time_reversal_swap_check(psi: WaveField, t: float) -> float:
    """Relative difference between swap(evolve(psi, t)) and
    evolve(swap(psi), -t).  Zero because sigma_1 (x) I anticommutes with
    H(k), so conjugating the propagator by the swap reverses time."""
    prop = FreePropagator(psi.grid, psi.mass)
    a = fields.swap_blocks(prop.evolve(psi, t)).data
    return fields.relative(a - prop.evolve(fields.swap_blocks(psi), -t).data, a)


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
    sigma = algebra.matrix_set().sigma_big
    stack = psi.data

    h_psi = apply_hamiltonian_stack(grid, m, stack)
    p_psi = _momentum_apply(grid, stack)  # (3, 6, nx, ny, nz)
    p_hpsi = _momentum_apply(grid, h_psi)

    def j_apply(c: int, base: np.ndarray, p_base: np.ndarray) -> np.ndarray:
        a, b = (c + 1) % 3, (c + 2) % 3
        orbital = x[a] * p_base[b] - x[b] * p_base[a]
        spin = np.einsum("ij,j...->i...", sigma[c], base)
        return orbital + spin

    def residual(c: int) -> float:
        lhs = j_apply(c, h_psi, p_hpsi)
        rhs = apply_hamiltonian_stack(grid, m, j_apply(c, stack, p_psi))
        return fields.relative(lhs - rhs, lhs, rhs)

    return worst([residual(c) for c in range(3)])
