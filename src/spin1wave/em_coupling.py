"""
Minimal coupling to a static external electromagnetic potential.

The coupled generator is i d_t Psi = (H_A + e Phi) Psi with
H_A = a.(p - e A) + m b.  Derivatives are spectral; multiplications by the
potential are sandwiched between sharp 2/3-rule spectral truncations,
T(f) = D(A_d * D(f)) with A_d the truncated potential, which keeps every
multiplication operator exactly Hermitian on the grid and keeps the operator
identities exact as long as fields stay inside the dealiased band.

Covariant constraints (p - eA).u = 0, (p - eA).v = 0 are enforced by a
preconditioned conjugate-gradient solve of pi.pi phi = pi.w followed by
w -> w - pi phi, with the free inverse Laplacian as the spectral
preconditioner.

The uniform-magnetic-field spectrum check lives in landau_spectrum: a
first-order central-difference discretization with magnetic link phases on
a flux-quantized torus, diagonalized densely.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import algebra, fields, dynamics
from .errors import GridMismatch, NoConvergence, NonFiniteState, StepTooLarge
from .fields import Grid, VectorField, WaveField
from .reports import ResidualReport


@functools.lru_cache(maxsize=32)
def dealias_mask(grid: Grid) -> np.ndarray:
    """Sharp 2/3-rule mask: keep integer mode indices with 3|n| < N."""
    masks = []
    for n in grid.shape:
        idx = np.rint(np.fft.fftfreq(n) * n).astype(int)
        masks.append(3 * np.abs(idx) < n)
    mx, my, mz = np.meshgrid(*masks, indexing="ij")
    m = mx & my & mz
    m.setflags(write=False)
    return m


def dealias(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Truncate the trailing three axes to the dealiased band."""
    return fields.ifftn(fields.fftn(arr) * dealias_mask(grid))


def _dealias_real(grid: Grid, arr: np.ndarray) -> np.ndarray:
    return dealias(grid, arr.astype(np.complex128)).real


@dataclass
class ExternalField:
    """Static external potential (Phi, A) with charge e; field strengths
    E = -grad Phi and H = curl A are derived spectrally.  Dealiased copies
    of everything are precomputed for the sandwiched multiplications."""

    grid: Grid
    charge: float
    phi: np.ndarray
    avec: np.ndarray
    evec: np.ndarray = field(init=False)
    hvec: np.ndarray = field(init=False)
    phi_d: np.ndarray = field(init=False)
    avec_d: np.ndarray = field(init=False)
    evec_d: np.ndarray = field(init=False)
    hvec_d: np.ndarray = field(init=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.avec = np.asarray(self.avec, dtype=float)
        if self.phi.shape != self.grid.shape:
            raise ValueError("phi shape does not match the grid")
        if self.avec.shape != (3, *self.grid.shape):
            raise ValueError("avec shape does not match the grid")
        self.evec = -fields.gradient(self.grid, self.phi).data.real
        self.hvec = fields.curl(VectorField(self.grid, self.avec.astype(complex))).data.real
        self.phi_d = _dealias_real(self.grid, self.phi)
        self.avec_d = _dealias_real(self.grid, self.avec)
        self.evec_d = _dealias_real(self.grid, self.evec)
        self.hvec_d = _dealias_real(self.grid, self.hvec)

    @staticmethod
    def zero(grid: Grid, charge: float = 0.0) -> "ExternalField":
        return ExternalField(grid, charge, np.zeros(grid.shape), np.zeros((3, *grid.shape)))

    @staticmethod
    def from_fourier_series(grid: Grid, charge: float, phi_terms=(), a_terms=()) -> "ExternalField":
        """Build real periodic potentials from cosine/sine coefficients.

        phi_terms: iterable of {"n": [ix,iy,iz], "cos": c, "sin": s}
        a_terms:   same plus "component": 0|1|2 or "x"|"y"|"z".
        """
        x = fields.coordinates(grid)
        phi = np.zeros(grid.shape)
        avec = np.zeros((3, *grid.shape))
        comp_map = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}

        def series(term):
            k = fields.mode_wavevector(grid, term["n"])
            arg = np.tensordot(k, x, axes=(0, 0))
            return term.get("cos", 0.0) * np.cos(arg) + term.get("sin", 0.0) * np.sin(arg)

        for term in phi_terms:
            phi += series(term)
        for term in a_terms:
            avec[comp_map[term["component"]]] += series(term)
        return ExternalField(grid, charge, phi, avec)


def random_smooth_external(
    grid: Grid, charge: float, seed, amplitude: float = 0.3, nmax: int = 2, n_terms: int = 4
) -> ExternalField:
    """Seeded low-bandwidth periodic potential for tests and demos."""
    rng = np.random.default_rng(seed)

    def terms(count):
        out = []
        for _ in range(count):
            n_ivec = rng.integers(-nmax, nmax + 1, size=3)
            if not np.any(n_ivec):
                n_ivec[2] = 1
            out.append(
                {
                    "n": n_ivec.tolist(),
                    "cos": amplitude * rng.standard_normal(),
                    "sin": amplitude * rng.standard_normal(),
                }
            )
        return out

    a_terms = []
    for comp in range(3):
        for t in terms(n_terms):
            a_terms.append({**t, "component": comp})
    return ExternalField.from_fourier_series(grid, charge, terms(n_terms), a_terms)


def _check_grids(psi: WaveField, ext: ExternalField):
    if psi.grid != ext.grid:
        raise GridMismatch("state and external field live on different grids")


def _sandwich_cross(ext: ExternalField, stack6_dealiased_hat: np.ndarray) -> np.ndarray:
    """(a.A) Psi = (A x v, -A x u) with both sandwich truncations applied.
    Input is the already-masked spectrum of the 6-stack."""
    grid = ext.grid
    din = fields.ifftn(stack6_dealiased_hat)
    out = np.empty_like(din)
    out[:3] = np.cross(ext.avec_d, din[3:], axisa=0, axisb=0, axisc=0)
    out[3:] = -np.cross(ext.avec_d, din[:3], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * dealias_mask(grid))


def apply_a_pi(psi_stack: np.ndarray, ext: ExternalField) -> np.ndarray:
    """a.(p - e A) applied to a 6-stack."""
    grid = ext.grid
    k = fields.wavevectors(grid)
    sh = fields.fftn(psi_stack)
    free = np.empty_like(sh)
    free[:3] = np.cross(k, sh[3:], axisa=0, axisb=0, axisc=0)
    free[3:] = -np.cross(k, sh[:3], axisa=0, axisb=0, axisc=0)
    out = fields.ifftn(free)
    if ext.charge != 0.0:
        out -= ext.charge * _sandwich_cross(ext, sh * dealias_mask(grid))
    return out


def _apply_h_a_stack(stack: np.ndarray, ext: ExternalField, mass: float) -> np.ndarray:
    out = apply_a_pi(stack, ext)
    out[:3] += mass * stack[:3]
    out[3:] -= mass * stack[3:]
    return out


def apply_hamiltonian_A(psi: WaveField, ext: ExternalField) -> WaveField:
    """H_A Psi = (a.(p - eA) + m b) Psi."""
    _check_grids(psi, ext)
    out = _apply_h_a_stack(psi.stack(), ext, psi.mass)
    return WaveField.from_stack(psi.grid, out, psi.mass, psi.time)


def _mul_scalar_sandwich(ext: ExternalField, scalar_d: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """D(scalar_d * D(arr)) over the trailing grid axes."""
    grid = ext.grid
    m = dealias_mask(grid)
    din = fields.ifftn(fields.fftn(arr) * m)
    return fields.ifftn(fields.fftn(scalar_d * din) * m)


def apply_total_generator(psi_stack: np.ndarray, ext: ExternalField, mass: float) -> np.ndarray:
    """(H_A + e Phi) applied to a 6-stack; the generator of i d_t."""
    out = _apply_h_a_stack(psi_stack, ext, mass)
    if ext.charge != 0.0:
        out += ext.charge * _mul_scalar_sandwich(ext, ext.phi_d, psi_stack)
    return out


def pi_vector(ext: ExternalField, f: np.ndarray) -> np.ndarray:
    """(p - eA) f for a scalar field f; returns shape (3, nx, ny, nz)."""
    grid = ext.grid
    k = fields.wavevectors(grid)
    fh = fields.fftn(np.asarray(f, dtype=complex))
    out = fields.ifftn(k * fh[None])
    if ext.charge != 0.0:
        out -= ext.charge * _mul_scalar_sandwich(ext, ext.avec_d, f[None])
    return out


def pi_dot(ext: ExternalField, w: np.ndarray) -> np.ndarray:
    """(p - eA) . w for a 3-vector field w; returns a scalar field."""
    grid = ext.grid
    k = fields.wavevectors(grid)
    wh = fields.fftn(np.asarray(w, dtype=complex))
    out = fields.ifftn(np.sum(k * wh, axis=0))
    if ext.charge != 0.0:
        prod = _mul_scalar_sandwich(ext, ext.avec_d, w)
        out -= ext.charge * np.sum(prod, axis=0)
    return out


def pi_squared(ext: ExternalField, f: np.ndarray) -> np.ndarray:
    """(p - eA)^2 on a scalar field."""
    return pi_dot(ext, pi_vector(ext, f))


def constraint_residuals(psi: WaveField, ext: ExternalField) -> tuple[float, float]:
    """max |pi.u| and max |pi.v| over the grid."""
    return (
        float(np.max(np.abs(pi_dot(ext, psi.u.data)))),
        float(np.max(np.abs(pi_dot(ext, psi.v.data)))),
    )


@functools.lru_cache(maxsize=32)
def _preconditioner_k2(grid: Grid) -> np.ndarray:
    """Free -Laplacian symbol with the zero mode given the smallest
    positive |k|^2 so the preconditioner stays positive definite."""
    k2 = fields.k_squared(grid).copy()
    kmin = np.min(k2[k2 > 0])
    k2.flat[0] = kmin
    k2.setflags(write=False)
    return k2


@dataclass
class ProjectionResult:
    field: WaveField
    iterations: tuple[int, int]
    residuals: tuple[float, float]


def covariant_project(
    psi: WaveField, ext: ExternalField, tol: float = 1e-10, maxiter: int = 500
) -> ProjectionResult:
    """Enforce (p - eA).u = 0 and (p - eA).v = 0.

    For each block w, solves pi.pi phi = pi.w by preconditioned conjugate
    gradients (free inverse Laplacian applied spectrally as the
    preconditioner) and subtracts pi phi.  Terminates when the actual
    constraint residual max|pi.w| drops below tol * max|w|; raises
    NoConvergence if the cap is hit first (a nearly singular pi.pi, e.g.
    flux-tuned potentials)."""
    _check_grids(psi, ext)
    k2 = _preconditioner_k2(psi.grid)

    def solve(w: np.ndarray) -> tuple[np.ndarray, int, float]:
        scale = max(float(np.max(np.abs(w))), 1e-300)
        rhs = pi_dot(ext, w)
        if float(np.max(np.abs(rhs))) <= tol * scale:
            return w, 0, float(np.max(np.abs(rhs)))
        phi = np.zeros(psi.grid.shape, dtype=complex)
        r = rhs.copy()
        z = fields.ifftn(fields.fftn(r) / k2)
        p = z.copy()
        rz = float(np.vdot(r, z).real)
        for it in range(1, maxiter + 1):
            lp = pi_dot(ext, pi_vector(ext, p))
            alpha = rz / float(np.vdot(p, lp).real)
            phi += alpha * p
            r -= alpha * lp
            if float(np.max(np.abs(r))) <= tol * scale:
                return w - pi_vector(ext, phi), it, float(np.max(np.abs(r)))
            z = fields.ifftn(fields.fftn(r) / k2)
            rz_new = float(np.vdot(r, z).real)
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise NoConvergence(
            f"covariant projection residual {float(np.max(np.abs(r))):.3e} above "
            f"{tol:.1e} * scale after {maxiter} iterations"
        )

    u_new, it_u, res_u = solve(psi.u.data)
    v_new, it_v, res_v = solve(psi.v.data)
    out = WaveField(
        psi.grid,
        VectorField(psi.grid, u_new),
        VectorField(psi.grid, v_new),
        psi.mass,
        psi.time,
    )
    return ProjectionResult(out, (it_u, it_v), (res_u, res_v))


def _stack_norm(stack: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(stack) ** 2)))


def squared_hamiltonian_check(
    ext: ExternalField,
    mass: float,
    trials: int = 10,
    seed=0,
    k_cutoff: float = 2.0,
    include_negative_control: bool = True,
) -> ResidualReport:
    """Operator identity H_A^2 = (a.pi)^2 + m^2 on unconstrained states.

    Holds unconditionally because b^2 = I and {a_k, b} = 0 with the same
    pi operator on both sides.  The negative control replaces b by the
    non-anticommuting Sigma_3 and must break the identity at O(m)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_control = 0.0
    sigma3 = algebra.matrix_set().sigma_stack()[2]
    for _ in range(trials):
        psi = fields.random_wave_field(ext.grid, mass, k_cutoff, rng)
        stack = psi.stack()
        lhs = _apply_h_a_stack(_apply_h_a_stack(stack, ext, mass), ext, mass)
        rhs = apply_a_pi(apply_a_pi(stack, ext), ext) + mass**2 * stack
        scale = max(_stack_norm(lhs), _stack_norm(rhs), 1e-300)
        worst = max(worst, _stack_norm(lhs - rhs) / scale)

        if include_negative_control and mass > 0:
            hp = apply_a_pi(stack, ext) + mass * np.einsum("ij,j...->i...", sigma3, stack)
            lhs_c = apply_a_pi(hp, ext) + mass * np.einsum("ij,j...->i...", sigma3, hp)
            worst_control = max(worst_control, _stack_norm(lhs_c - rhs) / scale)
    rep = ResidualReport()
    rep.add_upper("squared_hamiltonian_identity", worst, 1e-12)
    if include_negative_control and mass > 0:
        rep.add_lower("non_anticommuting_control", worst_control, 1e-3)
    rep.notes["trials"] = str(trials)
    return rep


def _sigma_dot_h(ext: ExternalField, stack: np.ndarray) -> np.ndarray:
    """(Sigma.H) Psi = (i H x u, i H x v) with sandwiched multiplication."""
    grid = ext.grid
    m = dealias_mask(grid)
    din = fields.ifftn(fields.fftn(stack) * m)
    out = np.empty_like(din)
    out[:3] = 1j * np.cross(ext.hvec_d, din[:3], axisa=0, axisb=0, axisc=0)
    out[3:] = 1j * np.cross(ext.hvec_d, din[3:], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * m)


def _a_dot_e(ext: ExternalField, stack: np.ndarray) -> np.ndarray:
    """(a.E) Psi = (E x v, -E x u) with sandwiched multiplication."""
    grid = ext.grid
    m = dealias_mask(grid)
    din = fields.ifftn(fields.fftn(stack) * m)
    out = np.empty_like(din)
    out[:3] = np.cross(ext.evec_d, din[3:], axisa=0, axisb=0, axisc=0)
    out[3:] = -np.cross(ext.evec_d, din[:3], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * m)


def _pi_squared_stack(ext: ExternalField, stack: np.ndarray) -> np.ndarray:
    out = np.empty_like(stack)
    for c in range(stack.shape[0]):
        out[c] = pi_squared(ext, stack[c])
    return out


def constrained_square_check(
    ext: ExternalField,
    mass: float,
    trials: int = 4,
    seed=0,
    k_cutoff: float = 2.0,
    projection_tol: float = 1e-10,
) -> ResidualReport:
    """(a.pi)^2 Psi = pi^2 Psi - e (Sigma.H) Psi, valid only on the
    covariant constraint manifold.

    Projected fields must satisfy it to 1e-8 (limited by the projection
    tolerance); the same expression on unprojected fields must miss by at
    least 1e-2 relative, which demonstrates that the constraints, not just
    the matrix algebra, carry the magnetic-moment term."""
    rng = np.random.default_rng(seed)
    worst_proj = 0.0
    worst_raw = np.inf
    for _ in range(trials):
        psi = fields.random_wave_field(ext.grid, mass, k_cutoff, rng)

        def residual(stack: np.ndarray) -> float:
            lhs = apply_a_pi(apply_a_pi(stack, ext), ext)
            rhs = _pi_squared_stack(ext, stack) - ext.charge * _sigma_dot_h(ext, stack)
            scale = max(_stack_norm(lhs), _stack_norm(rhs), 1e-300)
            return _stack_norm(lhs - rhs) / scale

        worst_raw = min(worst_raw, residual(psi.stack()))
        proj = covariant_project(psi, ext, tol=projection_tol)
        worst_proj = max(worst_proj, residual(proj.field.stack()))
    rep = ResidualReport()
    rep.add_upper("projected_identity_residual", worst_proj, 1e-8)
    rep.add_lower("unprojected_negative_control", worst_raw, 1e-2)
    rep.notes["trials"] = str(trials)
    return rep


def hermiticity_check(
    ext: ExternalField, mass: float, trials: int = 5, seed=0, k_cutoff: float = 2.0
) -> ResidualReport:
    """<phi | (H_A + e Phi) psi> = <(H_A + e Phi) phi | psi> on random fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = fields.random_wave_field(ext.grid, mass, k_cutoff, rng).stack()
        g = fields.random_wave_field(ext.grid, mass, k_cutoff, rng).stack()
        hg = apply_total_generator(g, ext, mass)
        hf = apply_total_generator(f, ext, mass)
        lhs = complex(np.vdot(f, hg))
        rhs = complex(np.vdot(hf, g))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    rep = ResidualReport()
    rep.add_upper("generator_hermiticity", worst, 1e-12)
    return rep


def stability_bound(grid: Grid, mass: float, ext: ExternalField) -> float:
    """Conservative RK4 step bound from the generator's spectral radius."""
    kmax = float(np.sqrt(np.max(fields.k_squared(grid))))
    e = abs(ext.charge)
    return 0.5 / (kmax + e * float(np.max(np.abs(ext.avec))) + e * float(np.max(np.abs(ext.phi))) + mass)


def _rk4_step(stack: np.ndarray, ext: ExternalField, mass: float, dt: float) -> np.ndarray:
    def rhs(s):
        return -1j * apply_total_generator(s, ext, mass)

    k1 = rhs(stack)
    k2 = rhs(stack + 0.5 * dt * k1)
    k3 = rhs(stack + 0.5 * dt * k2)
    k4 = rhs(stack + dt * k3)
    return stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class EmEvolution:
    final: WaveField
    records: list[dynamics.DiagnosticsRecord]


def _em_diagnostics(psi: WaveField, ext: ExternalField, dt: float) -> dynamics.DiagnosticsRecord:
    """Like the free diagnostics, but the energy is taken with the coupled
    generator, the constraint columns carry the covariant residuals
    max|pi.u|, max|pi.v|, and the continuity estimate uses RK4 side steps."""
    rho = dynamics.probability_density(psi)
    j = dynamics.probability_current(psi)
    dv = psi.grid.cell_volume
    stack = psi.stack()
    en = float(0.5 * np.vdot(stack, apply_total_generator(stack, ext, psi.mass)).real * dv)
    ru, rv = constraint_residuals(psi, ext)

    rho_p = dynamics.probability_density(
        WaveField.from_stack(psi.grid, _rk4_step(stack, ext, psi.mass, dt), psi.mass)
    )
    rho_m = dynamics.probability_density(
        WaveField.from_stack(psi.grid, _rk4_step(stack, ext, psi.mass, -dt), psi.mass)
    )
    drho = (rho_p - rho_m) / (2.0 * dt)
    divj = fields.divergence(VectorField(psi.grid, j.astype(complex))).real
    cres = float(np.sqrt(np.sum((drho + divj) ** 2) * dv))
    return dynamics.DiagnosticsRecord(
        time=psi.time,
        total_probability=float(np.sum(rho) * dv),
        total_current=np.sum(j, axis=(1, 2, 3)) * dv,
        energy=en,
        div_u_res=ru,
        div_v_res=rv,
        continuity_res=cres,
    )


def step_count(t_final: float, dt: float) -> int:
    """Number of RK4 steps of size dt to t_final; ValueError unless t_final
    is an integer multiple of dt."""
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be an integer multiple of dt")
    return n_steps


def evolve_em(
    psi: WaveField,
    ext: ExternalField,
    t_final: float,
    dt: float,
    diag_stride: int = 0,
) -> EmEvolution:
    """Integrate i d_t Psi = (H_A + e Phi) Psi with classical RK4.

    diag_stride > 0 records diagnostics every that many steps (plus the
    initial and final states).  Covariant constraint drift is monitored,
    never projected away.  Raises StepTooLarge if dt exceeds the stability
    bound and NonFiniteState if the field diverges."""
    _check_grids(psi, ext)
    bound = stability_bound(psi.grid, psi.mass, ext)
    if dt > bound:
        raise StepTooLarge(f"dt={dt:.3e} exceeds the RK4 stability bound {bound:.3e}")
    n_steps = step_count(t_final, dt)

    stack = psi.stack()
    t0 = psi.time
    records: list[dynamics.DiagnosticsRecord] = []

    def snapshot(step: int) -> WaveField:
        return WaveField.from_stack(psi.grid, stack, psi.mass, t0 + step * dt)

    if diag_stride > 0:
        records.append(_em_diagnostics(snapshot(0), ext, dt))
    for step in range(1, n_steps + 1):
        stack = _rk4_step(stack, ext, psi.mass, dt)
        if diag_stride > 0 and (step % diag_stride == 0 or step == n_steps):
            if not np.all(np.isfinite(stack.view(float))):
                raise NonFiniteState(f"non-finite field values at step {step}")
            records.append(_em_diagnostics(snapshot(step), ext, dt))
    if not np.all(np.isfinite(stack.view(float))):
        raise NonFiniteState("non-finite field values at the final step")
    return EmEvolution(final=snapshot(n_steps), records=records)


def second_order_residual(
    psi0: WaveField, ext: ExternalField, dt: float, substeps: int = 4
) -> float:
    """Three-slice check of the squared-out equation of motion:

        (i d_t - e Phi)^2 Psi = (pi^2 + m^2) Psi - e (Sigma.H) Psi + i e (a.E) Psi

    The time side is estimated from central differences of RK4-evolved
    slices at +-dt; the residual converges as O(dt^2).  psi0 should be
    covariantly projected (the magnetic term needs the constraints)."""
    _check_grids(psi0, ext)
    h = dt / substeps
    if h > stability_bound(psi0.grid, psi0.mass, ext):
        raise StepTooLarge("dt/substeps exceeds the RK4 stability bound")
    m = psi0.mass
    e = ext.charge
    stack0 = psi0.stack()
    plus = stack0.copy()
    minus = stack0.copy()
    for _ in range(substeps):
        plus = _rk4_step(plus, ext, m, h)
        minus = _rk4_step(minus, ext, m, -h)

    def mulphi(arr):
        return _mul_scalar_sandwich(ext, ext.phi_d, arr) if e != 0.0 else np.zeros_like(arr)

    ddt = (plus - minus) / (2.0 * dt)
    d2dt = (plus - 2.0 * stack0 + minus) / dt**2
    lhs = -d2dt - 2j * e * mulphi(ddt) + e**2 * mulphi(mulphi(stack0))
    rhs = (
        _pi_squared_stack(ext, stack0)
        + m**2 * stack0
        - e * _sigma_dot_h(ext, stack0)
        + 1j * e * _a_dot_e(ext, stack0)
    )
    return _stack_norm(lhs - rhs) / max(_stack_norm(rhs), 1e-300)


def gauge_covariance_deviation(
    psi0: WaveField, ext: ExternalField, chi: np.ndarray, t_final: float, dt: float
) -> float:
    """Static gauge transform check, with the sign pairing fixed by the
    minimal coupling p -> p - eA: the phase exp(+ie chi) accompanies the
    shift A -> A + grad chi, so

        evolve_A(psi0) = exp(-ie chi) * evolve_{A+grad chi}(exp(+ie chi) psi0)

    up to integrator error (and dealiasing of the non-band-limited phase)."""
    _check_grids(psi0, ext)
    e = ext.charge
    grad_chi = fields.gradient(psi0.grid, chi).data.real
    ext2 = ExternalField(psi0.grid, e, ext.phi, ext.avec + grad_chi)
    phase = np.exp(1j * e * chi)
    psi0_t = WaveField.from_stack(psi0.grid, psi0.stack() * phase[None], psi0.mass, psi0.time)

    r1 = evolve_em(psi0, ext, t_final, dt).final.stack()
    r2 = evolve_em(psi0_t, ext2, t_final, dt).final.stack()
    diff = r1 - r2 * np.exp(-1j * e * chi)[None]
    return _stack_norm(diff) / max(_stack_norm(r1), 1e-300)


@dataclass
class LandauLevels:
    """Sorted squared eigenvalues of the lattice H_A in a uniform field."""

    e_squared: np.ndarray
    eB: float
    n: int
    flux_quanta: int
    mass: float
    charge: float


def landau_spectrum(
    n: int, flux_quanta: int, m: float, e: float, box: float = 2.0 * np.pi
) -> LandauLevels:
    """Dense spectrum of the coupled Hamiltonian on an n x n x 1 grid with a
    uniform magnetic field B z-hat realized by link phases (Landau gauge,
    phase-twisted periodic wrap in x).

    Flux quantization fixes B = 2 pi N / (e * box^2), so e*B = 2 pi N / box^2
    regardless of the charge; for e = 0 the free finite-difference operator
    is returned.  The first derivative uses central differences, so each
    continuum level appears with an extra factor-of-4 valley degeneracy.
    """
    if flux_quanta < 1:
        raise ValueError("flux_quanta must be >= 1")
    h = box / n
    if e != 0.0:
        b_field = 2.0 * np.pi * flux_quanta / (e * box * box)
    else:
        b_field = 0.0
    eB = e * b_field

    ms = algebra.matrix_set()
    a1, a2 = ms.a_stack()[0], ms.a_stack()[1]
    b_mat = ms.b_complex()

    nn = n * n
    tx = np.zeros((nn, nn), dtype=complex)
    ty = np.zeros((nn, nn), dtype=complex)
    ys = np.arange(n) * h
    xs = np.arange(n) * h
    for i in range(n):
        for j in range(n):
            s = i * n + j
            # x-hop: A_x = 0, but crossing the x boundary picks up the
            # gauge-patch twist exp(-i e B Lx y)
            ph_x = np.exp(-1j * e * b_field * box * ys[j]) if i == n - 1 else 1.0
            tx[s, ((i + 1) % n) * n + j] += ph_x
            # y-hop: A_y = B x, link phase exp(i e B x h)
            ty[s, i * n + (j + 1) % n] += np.exp(1j * e * b_field * xs[i] * h)
    px = -1j * (tx - tx.conj().T) / (2.0 * h)
    py = -1j * (ty - ty.conj().T) / (2.0 * h)
    ham = np.kron(px, a1) + np.kron(py, a2) + m * np.kron(np.eye(nn), b_mat)
    ev = np.linalg.eigvalsh(ham)
    return LandauLevels(np.sort(ev * ev), eB, n, flux_quanta, m, e)


def landau_cluster_analysis(levels: LandauLevels, n_levels: int = 3, rel_tol: float = 0.05) -> dict:
    """Locate the eigenvalue clusters and compare with
    E^2 = m^2 + (2n+1) eB - eB sigma.

    The observed towers are the zero-offset cluster at m^2 (containing the
    sigma=+1 lowest level together with the unconstrained kernel sector)
    and clusters at m^2 + j*eB for odd j; the gap between the m^2 cluster
    and the first tower is the spin splitting eB.  Positions are checked
    to rel_tol relative to their predicted offset from m^2."""
    e2 = levels.e_squared
    eB = levels.eB
    m2 = levels.mass**2
    if eB <= 0:
        raise ValueError("cluster analysis needs a nonzero magnetic field")
    offsets = (e2 - m2) / eB

    predicted = [0] + [2 * l + 1 for l in range(n_levels)]
    upper = predicted[-1] + 1.0
    sel = offsets[(offsets > -0.5) & (offsets < upper)]
    clusters = []
    start = 0
    for i in range(1, len(sel) + 1):
        if i == len(sel) or sel[i] - sel[i - 1] > 0.3:
            chunk = sel[start:i]
            clusters.append({"center": float(np.mean(chunk)), "count": int(len(chunk))})
            start = i
    result = {
        "eB": eB,
        "m_squared": m2,
        "predicted_offsets": predicted,
        "clusters": clusters,
        "level_checks": [],
    }
    ok = len(clusters) >= len(predicted)
    for j, cl in zip(predicted, clusters):
        dev = abs(cl["center"] - j)
        tol = rel_tol * max(j, 1)
        passed = dev <= tol
        ok = ok and passed
        result["level_checks"].append(
            {"predicted_offset": j, "center": cl["center"], "count": cl["count"],
             "deviation": dev, "tolerance": tol, "passed": passed}
        )
    if len(clusters) >= 2:
        splitting = clusters[1]["center"] - clusters[0]["center"]
        result["sigma_splitting_over_eB"] = splitting
        result["sigma_splitting_ok"] = bool(abs(splitting - 1.0) <= rel_tol)
        ok = ok and result["sigma_splitting_ok"]
    else:
        result["sigma_splitting_ok"] = False
        ok = False
    result["all_passed"] = bool(ok)
    return result
