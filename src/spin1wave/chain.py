"""
Plane-wave constructions that manufacture solutions of the first-order
system from a four-potential, plus the Proca-form baseline checks.

Everything here is per-mode algebra on finite superpositions of plane waves
A_mu = (phi, A) e^{i(k.x - omega t)} with omega = branch * sqrt(|k|^2 + m^2)
and the Lorenz condition omega*phi = k.A.  Derived amplitudes:

    E = -i k phi + i omega A,      H = i k x A.

Three chains produce six-component mode amplitudes (u, v):

    h-chain:  u = d_t H + i*s*m H,  v = rot H
    e-chain:  u = d_t E + i*s*m E + m^2 * J_s grad(phi),  v = rot E
    a-chain:  u = rot A,  v = E + i*s*m (A + J_{-s} grad(phi))

where d_t -> -i omega per mode and J_sigma is the mode realization of the
conjugated antiderivative e^{i sigma m t} d_t^{-1} e^{-i sigma m t}, the
scalar i/(sigma*m + omega); it is singular when omega = -sigma*m.  The sign
s (selected by mass_sign) is uniform across chains: the output satisfies
d_t u = i*s*m u - rot v, d_t v = -i*s*m v + rot u, which is the matrix
dynamics i d_t Psi = (a.p + m*b) Psi for s = -1 and the b -> -b variant for
s = +1.  system_residual checks a mode list against both matrix forms and
records which one holds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, fields
from .errors import PoleError
from .reports import ResidualReport

MAX_MODES = 64


def _mass_sign(mass_sign) -> int:
    if mass_sign in (+1, -1):
        return int(mass_sign)
    if mass_sign in ("+", "plus"):
        return +1
    if mass_sign in ("-", "minus"):
        return -1
    raise ValueError(f"mass_sign must be '+' or '-', got {mass_sign!r}")


@dataclass(frozen=True)
class PotentialMode:
    """One plane-wave mode of the four-potential (phi, avec)."""

    k: tuple[float, float, float]
    omega: float
    phi: complex
    avec: tuple[complex, complex, complex]

    @property
    def k_arr(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)

    @property
    def a_arr(self) -> np.ndarray:
        return np.asarray(self.avec, dtype=complex)

    def amplitude_scale(self) -> float:
        return max(float(np.max(np.abs(self.a_arr))), abs(self.phi), 1e-300)

    def dispersion_residual(self, mass: float) -> float:
        """|omega^2 - |k|^2 - m^2|, zero for on-shell modes."""
        return abs(self.omega**2 - float(self.k_arr @ self.k_arr) - mass**2)

    def lorenz_residual(self) -> float:
        """|omega*phi - k.A|, zero when the Lorenz condition holds."""
        return abs(self.omega * self.phi - complex(self.k_arr @ self.a_arr))


@dataclass(frozen=True)
class PlaneWavePotential:
    mass: float
    modes: tuple[PotentialMode, ...]

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be >= 0")
        if len(self.modes) > MAX_MODES:
            raise ValueError(f"mode list capped at {MAX_MODES}")

    def max_dispersion_residual(self) -> float:
        return max((m.dispersion_residual(self.mass) for m in self.modes), default=0.0)

    def max_lorenz_residual(self) -> float:
        return max((m.lorenz_residual() for m in self.modes), default=0.0)


def random_lorenz_potential(
    mass: float,
    n_modes: int,
    seed,
    grid: fields.Grid | None = None,
    nmax: int = 3,
) -> PlaneWavePotential:
    """Seeded on-shell potential with the Lorenz condition enforced per mode
    (phi = k.A / omega).  Wavevectors are nonzero integer lattice modes
    2*pi*n/L, so the result is sampleable on the grid (default box 2*pi)."""
    rng = np.random.default_rng(seed)
    lengths = (
        np.array([grid.lx, grid.ly, grid.lz]) if grid is not None else np.full(3, 2.0 * np.pi)
    )
    lattice = [
        (ix, iy, iz)
        for ix in range(-nmax, nmax + 1)
        for iy in range(-nmax, nmax + 1)
        for iz in range(-nmax, nmax + 1)
        if (ix, iy, iz) != (0, 0, 0)
    ]
    if n_modes > len(lattice):
        raise ValueError("not enough distinct lattice modes; raise nmax")
    picks = rng.choice(len(lattice), size=n_modes, replace=False)
    modes = []
    scale = 1.0 / np.sqrt(n_modes)
    for p in picks:
        n_ivec = np.asarray(lattice[p], dtype=float)
        k = 2.0 * np.pi * n_ivec / lengths
        branch = int(rng.choice([-1, 1]))
        omega = branch * float(np.hypot(np.linalg.norm(k), mass))
        avec = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        phi = complex(k @ avec) / omega
        modes.append(PotentialMode(tuple(k), omega, phi, tuple(avec)))
    return PlaneWavePotential(mass, tuple(modes))


def with_broken_lorenz(pw: PlaneWavePotential, eps: float) -> PlaneWavePotential:
    """Negative control: shift every phi by eps, violating the Lorenz
    condition by |omega*eps| per mode."""
    modes = tuple(
        PotentialMode(m.k, m.omega, m.phi + eps, m.avec) for m in pw.modes
    )
    return PlaneWavePotential(pw.mass, modes)


def with_off_shell(pw: PlaneWavePotential, domega: float) -> PlaneWavePotential:
    """Negative control: shift every omega off the mass shell."""
    modes = tuple(
        PotentialMode(m.k, m.omega + domega, m.phi, m.avec) for m in pw.modes
    )
    return PlaneWavePotential(pw.mass, modes)


@dataclass(frozen=True)
class FieldMode:
    """Per-mode complex 3-vector amplitudes of the derived field strengths."""

    k: tuple[float, float, float]
    omega: float
    e_amp: tuple[complex, complex, complex]
    h_amp: tuple[complex, complex, complex]


@dataclass(frozen=True)
class DerivedFields:
    mass: float
    modes: tuple[FieldMode, ...]


def derive_EH(pw: PlaneWavePotential) -> DerivedFields:
    """Field strengths per mode: E = -i k phi + i omega A, H = i k x A.
    k.H vanishes identically (H is a curl)."""
    out = []
    for m in pw.modes:
        k = m.k_arr
        e_amp = -1j * k * m.phi + 1j * m.omega * m.a_arr
        h_amp = 1j * np.cross(k, m.a_arr)
        out.append(FieldMode(m.k, m.omega, tuple(e_amp), tuple(h_amp)))
    return DerivedFields(pw.mass, tuple(out))


def proca_residual(pw: PlaneWavePotential) -> ResidualReport:
    """Evaluate both Proca-form equations per mode:

        d_t E = rot H + m^2 A       (Ampere form)
        div E = -m^2 phi            (Gauss form)

    Reports the raw max-abs residuals; for on-shell Lorenz modes both must
    sit at round-off relative to the recorded amplitude scale."""
    df = derive_EH(pw)
    m2 = pw.mass**2
    r_ampere = 0.0
    r_gauss = 0.0
    scale = 1e-300
    for pm, fm in zip(pw.modes, df.modes):
        k = pm.k_arr
        e_amp = np.asarray(fm.e_amp)
        h_amp = np.asarray(fm.h_amp)
        lhs8 = -1j * fm.omega * e_amp
        rhs8 = 1j * np.cross(k, h_amp) + m2 * pm.a_arr
        r_ampere = max(r_ampere, float(np.max(np.abs(lhs8 - rhs8))))
        res9 = 1j * (k @ e_amp) + m2 * pm.phi
        r_gauss = max(r_gauss, abs(res9))
        scale = max(
            scale,
            pm.amplitude_scale() * (1.0 + abs(fm.omega) + float(np.linalg.norm(k)) + m2),
        )
    rep = ResidualReport()
    rep.add_upper("ampere_residual", r_ampere, 1e-12 * scale)
    rep.add_upper("gauss_residual", r_gauss, 1e-12 * scale)
    rep.notes["amplitude_scale"] = f"{scale:.6e}"
    return rep


@dataclass(frozen=True)
class UVMode:
    k: tuple[float, float, float]
    omega: float
    u: tuple[complex, complex, complex]
    v: tuple[complex, complex, complex]


@dataclass(frozen=True)
class UVModes:
    """Mode amplitudes of the six-component state produced by a chain."""

    mass: float
    variant: str
    mass_sign: int
    modes: tuple[UVMode, ...]

    def sample(self, grid: fields.Grid) -> fields.WaveField:
        """Superpose the modes on a grid.  Wavevectors must be commensurate
        with the box."""
        lengths = np.array([grid.lx, grid.ly, grid.lz])
        stack = np.zeros((6, *grid.shape), dtype=np.complex128)
        x = fields.coordinates(grid)
        for m in self.modes:
            k = np.asarray(m.k)
            n_ivec = k * lengths / (2.0 * np.pi)
            if np.max(np.abs(n_ivec - np.round(n_ivec))) > 1e-9:
                raise ValueError(f"mode k={m.k} is not commensurate with the grid box")
            phase = np.exp(1j * np.tensordot(k, x, axes=(0, 0)))
            stack[:3] += np.asarray(m.u)[:, None, None, None] * phase
            stack[3:] += np.asarray(m.v)[:, None, None, None] * phase
        return fields.WaveField(grid, stack, self.mass)


def _antiderivative_factor(sigma: int, m: float, omega: float) -> complex:
    """Per-mode value of e^{i sigma m t} d_t^{-1} e^{-i sigma m t} acting on
    e^{-i omega t}: the scalar i / (sigma*m + omega)."""
    den = sigma * m + omega
    if abs(den) < 1e-12 * max(1.0, m, abs(omega)):
        raise PoleError(
            f"antiderivative pole: omega = {omega:.6g} hits -sigma*m with sigma={sigma:+d}, m={m:.6g}"
        )
    return 1j / den


def derive_uv(
    pw: PlaneWavePotential, variant: str = "h", mass_sign="-"
) -> UVModes:
    """Build (u, v) mode amplitudes from the potential via the selected
    chain.  mass_sign picks the sign s in the mass terms; the output then
    satisfies the matrix dynamics with b sign -s (so '-' matches the
    canonical i d_t Psi = (a.p + m b) Psi).

    The e- and a-chains involve the conjugated antiderivative and raise
    PoleError when a mode sits at its singular frequency (for the printed
    sign s = -1 that is omega = +m, reachable only by a k = 0 mode).
    """
    s = _mass_sign(mass_sign)
    m = pw.mass
    variant = variant.lower()
    out = []
    if variant == "h":
        for pm, fm in zip(pw.modes, derive_EH(pw).modes):
            h_amp = np.asarray(fm.h_amp)
            u = 1j * (s * m - fm.omega) * h_amp
            v = 1j * np.cross(pm.k_arr, h_amp)
            out.append(UVMode(pm.k, pm.omega, tuple(u), tuple(v)))
    elif variant == "e":
        for pm, fm in zip(pw.modes, derive_EH(pw).modes):
            k = pm.k_arr
            e_amp = np.asarray(fm.e_amp)
            f = _antiderivative_factor(s, m, pm.omega)
            grad_phi = 1j * k * pm.phi
            u = 1j * (s * m - pm.omega) * e_amp + m**2 * f * grad_phi
            v = 1j * np.cross(k, e_amp)
            out.append(UVMode(pm.k, pm.omega, tuple(u), tuple(v)))
    elif variant == "a":
        for pm in pw.modes:
            k = pm.k_arr
            f = _antiderivative_factor(-s, m, pm.omega)
            grad_phi = 1j * k * pm.phi
            e_amp = -grad_phi + 1j * pm.omega * pm.a_arr
            u = 1j * np.cross(k, pm.a_arr)
            v = e_amp + 1j * s * m * (pm.a_arr + f * grad_phi)
            out.append(UVMode(pm.k, pm.omega, tuple(u), tuple(v)))
    else:
        raise ValueError(f"unknown chain variant {variant!r}; expected 'h', 'e' or 'a'")
    return UVModes(m, variant, s, tuple(out))


def system_residual(uv: UVModes) -> ResidualReport:
    """Check the mode list against the matrix dynamics.

    Per mode, with Psi = (u, v) and H_(+-)(k) = a.k +- m*b, computes the
    relative residuals |omega Psi - H Psi| / |Psi| for both b signs, plus
    the divergence constraints |k.u| and |k.v| normalized by |k||Psi|.
    Reports maxima over modes and records which matrix form (residual at
    most 1e-12) is satisfied; the divergences are bounded by 1e-13.
    """
    m = uv.mass
    system_tol, div_tol = 1e-12, 1e-13
    ms = algebra.matrix_set()
    a_stack = ms.a_stack()
    b = ms.b_complex()
    r_plus = 0.0
    r_minus = 0.0
    div_u = 0.0
    div_v = 0.0
    for md in uv.modes:
        k = np.asarray(md.k)
        psi = np.concatenate([np.asarray(md.u), np.asarray(md.v)])
        nrm = float(np.linalg.norm(psi))
        if nrm == 0.0:
            continue
        ak = np.tensordot(k, a_stack, axes=(0, 0))
        r_plus = max(
            r_plus, float(np.linalg.norm(md.omega * psi - (ak + m * b) @ psi)) / nrm
        )
        r_minus = max(
            r_minus, float(np.linalg.norm(md.omega * psi - (ak - m * b) @ psi)) / nrm
        )
        kn = float(np.linalg.norm(k))
        if kn > 0:
            div_u = max(div_u, abs(k @ np.asarray(md.u)) / (kn * nrm))
            div_v = max(div_v, abs(k @ np.asarray(md.v)) / (kn * nrm))
    rep = ResidualReport()
    plus_ok = r_plus <= system_tol
    minus_ok = r_minus <= system_tol
    rep.add_upper("system_residual_plus_b", r_plus, None)
    rep.add_upper("system_residual_minus_b", r_minus, None)
    rep.add_upper("matrix_form_satisfied", min(r_plus, r_minus), system_tol)
    rep.add_upper("div_u", div_u, div_tol)
    rep.add_upper("div_v", div_v, div_tol)
    if plus_ok and minus_ok:
        rep.notes["satisfies_matrix_form"] = "both (massless: the two forms coincide)"
    elif plus_ok:
        rep.notes["satisfies_matrix_form"] = "+b"
    elif minus_ok:
        rep.notes["satisfies_matrix_form"] = "-b"
    else:
        rep.notes["satisfies_matrix_form"] = "none"
    rep.notes["variant"] = uv.variant
    rep.notes["mass_sign"] = f"{uv.mass_sign:+d}"
    return rep


def maxwell_residual(uv: UVModes) -> ResidualReport:
    """Massless cross-check: map (u, v) -> (H, E) and test the source-free
    Maxwell pair per mode, omega H = k x E and omega E = -k x H.  Only
    meaningful for mass = 0 mode lists."""
    r = 0.0
    for md in uv.modes:
        k = np.asarray(md.k)
        h_amp = np.asarray(md.u)
        e_amp = np.asarray(md.v)
        nrm = max(float(np.linalg.norm(h_amp) + np.linalg.norm(e_amp)), 1e-300)
        r1 = np.linalg.norm(md.omega * h_amp - np.cross(k, e_amp))
        r2 = np.linalg.norm(md.omega * e_amp + np.cross(k, h_amp))
        r = max(r, float(max(r1, r2)) / nrm)
    rep = ResidualReport()
    rep.add_upper("maxwell_residual", r, 1e-13)
    return rep


def first_order_readings(uv: UVModes) -> ResidualReport:
    """Compare the two readings of the componentwise first-order system.

    'coupled': d_t u = i s m u - rot v, d_t v = -i s m v + rot u (the reading
    consistent with the matrix dynamics, s = mass_sign of the chain).
    'decoupled': d_t u = i m u - rot u, d_t v = -i m v + rot v (the printed
    self-referential form).  The report states which reading the chain
    output satisfies."""
    m = uv.mass
    s = uv.mass_sign
    r_coupled = 0.0
    r_decoupled = 0.0
    for md in uv.modes:
        k = np.asarray(md.k)
        u = np.asarray(md.u)
        v = np.asarray(md.v)
        nrm = max(float(np.linalg.norm(u) + np.linalg.norm(v)), 1e-300)
        # per mode: d_t -> -i omega, rot -> i k x
        lhs_u = -1j * md.omega * u
        lhs_v = -1j * md.omega * v
        rc_u = np.linalg.norm(lhs_u - (1j * s * m * u - 1j * np.cross(k, v)))
        rc_v = np.linalg.norm(lhs_v - (-1j * s * m * v + 1j * np.cross(k, u)))
        rd_u = np.linalg.norm(lhs_u - (1j * m * u - 1j * np.cross(k, u)))
        rd_v = np.linalg.norm(lhs_v - (-1j * m * v + 1j * np.cross(k, v)))
        r_coupled = max(r_coupled, float(max(rc_u, rc_v)) / nrm)
        r_decoupled = max(r_decoupled, float(max(rd_u, rd_v)) / nrm)
    rep = ResidualReport()
    rep.add_upper("coupled_reading_residual", r_coupled, None)
    rep.add_upper("decoupled_reading_residual", r_decoupled, None)
    tol = 1e-12
    if r_coupled <= tol and r_decoupled > tol:
        rep.notes["consistent_reading"] = "coupled"
    elif r_decoupled <= tol and r_coupled > tol:
        rep.notes["consistent_reading"] = "decoupled"
    elif r_coupled <= tol and r_decoupled <= tol:
        rep.notes["consistent_reading"] = "both"
    else:
        rep.notes["consistent_reading"] = "neither"
    return rep
