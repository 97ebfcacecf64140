"""
Plane-wave constructions that manufacture solutions of the first-order
system from a four-potential, plus the Proca-form baseline checks.

Everything here is per-mode algebra on finite superpositions of plane waves
A_mu = (phi, A) e^{i(k.x - omega t)} with omega = branch * sqrt(|k|^2 + m^2)
and the Lorenz condition omega*phi = k.A.  A mode list is held as arrays with
one row per mode (k and the 3-vector amplitudes (M, 3), omega and phi (M,)),
and every construction and residual below is one array expression over the
rows.  Derived amplitudes:

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

import dataclasses
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


def _rows(modes, **specs) -> None:
    """Store the named fields of a frozen mode list as read-only arrays, each
    given as (dtype, *row shape), one row per mode.  The mode count is
    omega's length."""
    count = np.size(modes.omega)
    for name, (dtype, *row) in specs.items():
        shape = (count, *row)
        a = np.array(getattr(modes, name), dtype=dtype)
        if a.shape != shape and not (a.size == 0 == count):
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        a = a.reshape(shape)
        a.setflags(write=False)
        object.__setattr__(modes, name, a)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("mi,mi->m", a, b)


def _worst(residual: np.ndarray, norm=1.0) -> float:
    """The largest per-mode residual relative to the mode's norm (arrays over
    the modes); 0 for an empty mode list."""
    return float(np.max(residual / norm, initial=0.0))


@dataclass(frozen=True, eq=False)
class PlaneWavePotential:
    """Plane-wave modes of the four-potential (phi, avec): k (M, 3),
    omega (M,), phi (M,), avec (M, 3)."""

    mass: float
    k: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    avec: np.ndarray

    def __post_init__(self):
        _rows(self, k=(float, 3), omega=(float,), phi=(complex,), avec=(complex, 3))
        if self.mass < 0:
            raise ValueError("mass must be >= 0")
        if len(self.omega) > MAX_MODES:
            raise ValueError(f"mode list capped at {MAX_MODES}")

    def max_dispersion_residual(self) -> float:
        """max |omega^2 - |k|^2 - m^2|, zero for on-shell modes."""
        return _worst(np.abs(self.omega**2 - _dot(self.k, self.k) - self.mass**2))

    def max_lorenz_residual(self) -> float:
        """max |omega*phi - k.A|, zero when the Lorenz condition holds."""
        return _worst(np.abs(self.omega * self.phi - _dot(self.k, self.avec)))


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
    n = np.arange(-nmax, nmax + 1)
    lattice = np.stack(np.meshgrid(n, n, n, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = lattice[lattice.any(axis=1)]
    if n_modes > len(lattice):
        raise ValueError("not enough distinct lattice modes; raise nmax")
    picks = rng.choice(len(lattice), size=n_modes, replace=False)
    k = 2.0 * np.pi * lattice[picks].astype(float) / lengths
    omega, phi, avec = [], [], []
    scale = 1.0 / np.sqrt(max(n_modes, 1))  # no modes: no draws, and no division by 0
    for kk in k:
        branch = int(rng.choice([-1, 1]))
        omega.append(branch * float(np.hypot(np.linalg.norm(kk), mass)))
        avec.append(scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        phi.append(complex(kk @ avec[-1]) / omega[-1])
    return PlaneWavePotential(mass, k, omega, phi, avec)


def with_broken_lorenz(pw: PlaneWavePotential, eps: float) -> PlaneWavePotential:
    """Negative control: shift every phi by eps, violating the Lorenz
    condition by |omega*eps| per mode."""
    return dataclasses.replace(pw, phi=pw.phi + eps)


def with_off_shell(pw: PlaneWavePotential, domega: float) -> PlaneWavePotential:
    """Negative control: shift every omega off the mass shell."""
    return dataclasses.replace(pw, omega=pw.omega + domega)


def derive_EH(pw: PlaneWavePotential) -> tuple[np.ndarray, np.ndarray]:
    """Field strengths (E, H), each (M, 3): E = -i k phi + i omega A,
    H = i k x A.  k.H vanishes identically (H is a curl)."""
    e = -1j * pw.k * pw.phi[:, None] + 1j * pw.omega[:, None] * pw.avec
    return e, 1j * np.cross(pw.k, pw.avec)


def proca_residual(pw: PlaneWavePotential) -> ResidualReport:
    """Evaluate both Proca-form equations per mode:

        d_t E = rot H + m^2 A       (Ampere form)
        div E = -m^2 phi            (Gauss form)

    Reports the raw max-abs residuals; for on-shell Lorenz modes both must
    sit at round-off relative to the recorded amplitude scale."""
    e, h = derive_EH(pw)
    m2 = pw.mass**2
    omega = pw.omega[:, None]
    ampere = -1j * omega * e - (1j * np.cross(pw.k, h) + m2 * pw.avec)
    gauss = 1j * _dot(pw.k, e) + m2 * pw.phi
    amplitude = np.maximum(np.maximum(np.abs(pw.avec).max(axis=1), np.abs(pw.phi)), 1e-300)
    scale = max(_worst(amplitude * (1.0 + np.abs(pw.omega) + _norm(pw.k) + m2)), 1e-300)
    rep = ResidualReport()
    rep.add_upper("ampere_residual", _worst(np.abs(ampere)), 1e-12 * scale)
    rep.add_upper("gauss_residual", _worst(np.abs(gauss)), 1e-12 * scale)
    rep.notes["amplitude_scale"] = f"{scale:.6e}"
    return rep


@dataclass(frozen=True, eq=False)
class UVModes:
    """Mode amplitudes of the six-component state produced by a chain:
    k, u and v (M, 3), omega (M,)."""

    mass: float
    variant: str
    mass_sign: int
    k: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _rows(self, k=(float, 3), omega=(float,), u=(complex, 3), v=(complex, 3))

    def sample(self, grid: fields.Grid) -> fields.WaveField:
        """Superpose the modes on a grid.  Wavevectors must be commensurate
        with the box."""
        n_ivec = self.k * np.array([grid.lx, grid.ly, grid.lz]) / (2.0 * np.pi)
        off = np.flatnonzero(np.abs(n_ivec - np.round(n_ivec)).max(axis=1) > 1e-9)
        if off.size:
            raise ValueError(f"mode k={self.k[off[0]].tolist()} is not commensurate with "
                             "the grid box")
        data = np.zeros((6, *grid.shape), dtype=np.complex128)
        for k, u, v in zip(self.k, self.u, self.v):
            data += fields.plane_wave(grid, k, np.concatenate([u, v]))
        return fields.WaveField(grid, data, self.mass)


def _antiderivative_factor(sigma: int, m: float, omega: np.ndarray) -> np.ndarray:
    """Per-mode value of e^{i sigma m t} d_t^{-1} e^{-i sigma m t} acting on
    e^{-i omega t}: the scalar i / (sigma*m + omega)."""
    den = sigma * m + omega
    pole = np.flatnonzero(np.abs(den) < 1e-12 * np.maximum(max(1.0, m), np.abs(omega)))
    if pole.size:
        raise PoleError(
            f"antiderivative pole: omega = {omega[pole[0]]:.6g} hits -sigma*m with "
            f"sigma={sigma:+d}, m={m:.6g}"
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
    m, k, omega = pw.mass, pw.k, pw.omega[:, None]
    variant = variant.lower()
    e, h = derive_EH(pw)
    grad_phi = 1j * k * pw.phi[:, None]
    if variant == "h":
        u, v = 1j * (s * m - omega) * h, 1j * np.cross(k, h)
    elif variant == "e":
        f = _antiderivative_factor(s, m, pw.omega)[:, None]
        u = 1j * (s * m - omega) * e + m**2 * f * grad_phi
        v = 1j * np.cross(k, e)
    elif variant == "a":
        f = _antiderivative_factor(-s, m, pw.omega)[:, None]
        u, v = h, e + 1j * s * m * (pw.avec + f * grad_phi)
    else:
        raise ValueError(f"unknown chain variant {variant!r}; expected 'h', 'e' or 'a'")
    return UVModes(m, variant, s, k, pw.omega, u, v)


def system_residual(uv: UVModes) -> ResidualReport:
    """Check the mode list against the matrix dynamics.

    Per mode, with Psi = (u, v) and H_(+-)(k) = a.k +- m*b, computes the
    relative residuals |omega Psi - H Psi| / |Psi| for both b signs, plus
    the divergence constraints |k.u| and |k.v| normalized by |k||Psi|.
    Modes with Psi = 0 are left out.  Reports maxima over modes and records
    which matrix form (residual at most 1e-12) is satisfied; the divergences
    are bounded by 1e-13.
    """
    system_tol, div_tol = 1e-12, 1e-13
    psi = np.concatenate([uv.u, uv.v], axis=1)
    nrm = _norm(psi)
    live = nrm > 0
    k, omega, psi, nrm = uv.k[live], uv.omega[live, None], psi[live], nrm[live]

    def residual(m: float) -> float:
        h_psi = np.einsum("mij,mj->mi", algebra.hamiltonian_symbol(k, m), psi)
        return _worst(_norm(omega * psi - h_psi), nrm)

    r_plus, r_minus = residual(uv.mass), residual(-uv.mass)
    kn = _norm(k)
    moving = kn > 0
    k, psi, knrm = k[moving], psi[moving], (kn * nrm)[moving]
    rep = ResidualReport()
    plus_ok = r_plus <= system_tol
    minus_ok = r_minus <= system_tol
    rep.add_upper("system_residual_plus_b", r_plus, None)
    rep.add_upper("system_residual_minus_b", r_minus, None)
    rep.add_upper("matrix_form_satisfied", min(r_plus, r_minus), system_tol)
    rep.add_upper("div_u", _worst(np.abs(_dot(k, psi[:, :3])), knrm), div_tol)
    rep.add_upper("div_v", _worst(np.abs(_dot(k, psi[:, 3:])), knrm), div_tol)
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


def _pair_residual(uv: UVModes, res_u: np.ndarray, res_v: np.ndarray) -> float:
    """The larger of |res_u| and |res_v| relative to |u| + |v|, worst mode."""
    nrm = np.maximum(_norm(uv.u) + _norm(uv.v), 1e-300)
    return _worst(np.maximum(_norm(res_u), _norm(res_v)), nrm)


def maxwell_residual(uv: UVModes) -> ResidualReport:
    """Massless cross-check: map (u, v) -> (H, E) and test the source-free
    Maxwell pair per mode, omega H = k x E and omega E = -k x H.  Only
    meaningful for mass = 0 mode lists."""
    k, omega, h, e = uv.k, uv.omega[:, None], uv.u, uv.v
    rep = ResidualReport()
    rep.add_upper("maxwell_residual", _pair_residual(
        uv, omega * h - np.cross(k, e), omega * e + np.cross(k, h)), 1e-13)
    return rep


def first_order_readings(uv: UVModes) -> ResidualReport:
    """Compare the two readings of the componentwise first-order system.

    'coupled': d_t u = i s m u - rot v, d_t v = -i s m v + rot u (the reading
    consistent with the matrix dynamics, s = mass_sign of the chain).
    'decoupled': d_t u = i m u - rot u, d_t v = -i m v + rot v (the printed
    self-referential form).  The report states which reading the chain
    output satisfies."""
    m, s, k, u, v = uv.mass, uv.mass_sign, uv.k, uv.u, uv.v
    # per mode: d_t -> -i omega, rot -> i k x
    lhs_u = -1j * uv.omega[:, None] * u
    lhs_v = -1j * uv.omega[:, None] * v
    r_coupled = _pair_residual(uv, lhs_u - (1j * s * m * u - 1j * np.cross(k, v)),
                               lhs_v - (-1j * s * m * v + 1j * np.cross(k, u)))
    r_decoupled = _pair_residual(uv, lhs_u - (1j * m * u - 1j * np.cross(k, u)),
                                 lhs_v - (-1j * m * v + 1j * np.cross(k, v)))
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
