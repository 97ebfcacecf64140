"""
Periodic-box grids, six-component wave fields and pseudospectral
differential operators.

One array rule: a vector field is a complex (..., 3, nx, ny, nz) array on
a Grid, the vector axis at -4 and any leading axes batched, and every
vector operator (curl, divergence, gradient, project_transverse) takes the
grid first and works over those leading axes.  A WaveField holds its state
as one (6, nx, ny, nz) stack in component order (u_x, u_y, u_z, v_x, v_y,
v_z), the layout every kernel works on; data[:3] and data[3:] are its two
blocks, and data.reshape(2, 3, nx, ny, nz) is both at once.

Conventions: wavenumbers per axis are 2*pi*n/L on the standard FFT integer
range; the Nyquist mode is zeroed in every first-derivative operator so that
i*k stays skew-Hermitian (second-derivative operators keep it).  The k = 0
mode carries no divergence constraint and is left untouched by the
transverse projector.

Kernel rule, here, in dynamics and in the coupled generator and RK4 step
of em_coupling: a spectral kernel allocates its outputs once, at full
size, and builds them component by component or in place; it holds no
temporary the size of a whole six-component stack.  A time-stepping
kernel takes its output (out=, allocated where the caller passes none)
and its whole-stack scratch (work=, required) from the caller, by keyword,
so a run loop that lends it buffers allocates no whole stack per step.
fftn and ifftn transform into their one output, which may be their input.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box; sample counts must be even and >= 4 per axis.
    The lengths must be positive and finite, with a cell volume that is a
    finite normal double (at least sys.float_info.min, 2.2e-308; a
    subnormal volume has lost its precision) and a finite largest |k|^2
    (Nyquist kept, as k_squared forms it); ValueError otherwise.  A cubic
    box of N points per axis thus needs about 2.8e-103 N < L < 5e102 N."""

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        for n in (self.nx, self.ny, self.nz):
            if n < 4 or n % 2 != 0:
                raise ValueError("grid sample counts must be even and >= 4")
        for l in (self.lx, self.ly, self.lz):
            if not 0 < l < np.inf:
                raise ValueError("box lengths must be positive and finite")
        # a few float operations: the grid is built before every run
        if not sys.float_info.min <= self.cell_volume < np.inf:
            raise ValueError(f"box lengths give a cell volume of {self.cell_volume!r}, "
                             f"not a finite normal double")
        k2 = 0.0
        for n, d in zip(self.shape, self.spacing):
            k = 2.0 * np.pi * ((n // 2) * (1.0 / (n * d)))  # as fftfreq forms it
            k2 += k * k
        if not k2 < np.inf:
            raise ValueError("box lengths give a largest |k|^2 that is not finite")

    @staticmethod
    def cubic(n: int) -> "Grid":
        """n points per axis on a cubic box of side 2 pi."""
        return Grid(n, n, n, 2.0 * np.pi, 2.0 * np.pi, 2.0 * np.pi)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def npoints(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.lx / self.nx, self.ly / self.ny, self.lz / self.nz)

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacing
        return dx * dy * dz


def _axis_wavenumbers(n: int, length: float, zero_nyquist: bool) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    if zero_nyquist:
        k[n // 2] = 0.0
    return k


@functools.lru_cache(maxsize=32)
def wavevectors(grid: Grid, zero_nyquist: bool = True) -> np.ndarray:
    """Meshed wavevector components, shape (3, nx, ny, nz), read-only."""
    kx = _axis_wavenumbers(grid.nx, grid.lx, zero_nyquist)
    ky = _axis_wavenumbers(grid.ny, grid.ly, zero_nyquist)
    kz = _axis_wavenumbers(grid.nz, grid.lz, zero_nyquist)
    mesh = np.stack(np.meshgrid(kx, ky, kz, indexing="ij"))
    mesh.setflags(write=False)
    return mesh


@functools.lru_cache(maxsize=32)
def k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 with the Nyquist modes kept (second-derivative convention)."""
    k = wavevectors(grid, zero_nyquist=False)
    k2 = np.sum(k * k, axis=0)
    k2.setflags(write=False)
    return k2


@functools.lru_cache(maxsize=32)
def coordinates(grid: Grid) -> np.ndarray:
    """Periodic sawtooth coordinates centered at the box midpoint: each axis
    runs over [-L/2, L/2) with the jump at the box boundary."""
    axes = [
        np.arange(n) * (l / n) - l / 2.0
        for n, l in ((grid.nx, grid.lx), (grid.ny, grid.ly), (grid.nz, grid.lz))
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    mesh.setflags(write=False)
    return mesh


def fftn(data: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform over the trailing three axes into out, a complex128
    array of data's shape that every axis pass writes (without it numpy
    allocates a fresh array per pass); a new one if out is None.  out may
    be data itself: the in-place transform gives the same bits."""
    if out is None:
        out = np.empty(np.shape(data), dtype=np.complex128)
    return np.fft.fftn(data, axes=(-3, -2, -1), out=out)


def ifftn(data: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform over the trailing three axes, into out as fftn."""
    if out is None:
        out = np.empty(np.shape(data), dtype=np.complex128)
    return np.fft.ifftn(data, axes=(-3, -2, -1), out=out)


def vector_dot(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i a[i] w[..., i, :, :, :] for a (3, nx, ny, nz) field a: the sum
    over w's vector axis -4, one component at a time.  Equal to
    np.sum(a * w, axis=-4) bit for bit, without its temporary of w's size."""
    out = a[0] * w[..., 0, :, :, :]
    out += a[1] * w[..., 1, :, :, :]
    out += a[2] * w[..., 2, :, :, :]
    return out


def vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """conj(x).y over two whole arrays of one size, summed by einsum.  Not
    np.vdot: above 10^4 elements that hands the sum to a multithreaded BLAS
    dot, which waits for a worker thread on every call (milliseconds when
    another process holds the other core), leaves it spinning afterwards
    and splits its partial sums by the thread count."""
    return complex(np.einsum("i,i->", np.conj(x).reshape(-1), np.reshape(y, -1)))


def real_vdot(x: np.ndarray, y: np.ndarray) -> float:
    """Re(conj(x).y) over two whole complex arrays of one size, as vdot but
    over their interleaved real and imaginary parts: no temporary for
    contiguous inputs."""
    xf = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1).view(np.float64)
    yf = np.ascontiguousarray(y, dtype=np.complex128).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", xf, yf))


def norm(x: np.ndarray) -> float:
    """The 2-norm of a complex array, sqrt(real_vdot(x, x)): no temporary."""
    return float(np.sqrt(real_vdot(x, x)))


def relative(diff: np.ndarray, *refs: np.ndarray) -> float:
    """The relative residual of every check: norm(diff) over the largest
    norm of refs, floored at 1e-300 so that zero states give 0.  A NaN in
    diff or in a reference gives NaN."""
    return float(norm(diff) / np.max([*map(norm, refs), 1e-300]))


def plane_wave(grid: Grid, k, eps) -> np.ndarray:
    """eps * exp(i k.x) sampled on the grid for a 1-D amplitude eps of any
    length n (3 for a vector field, 6 for a state), shape (n, nx, ny, nz); k
    need not be commensurate."""
    k = np.asarray(k, dtype=float)
    x = coordinates(grid)
    phase = np.exp(1j * np.tensordot(k, x, axes=(0, 0)))
    return np.asarray(eps, dtype=complex)[:, None, None, None] * phase


def mode_wavevector(grid: Grid, n_index) -> np.ndarray:
    """Wavevector 2*pi*n/L of an integer mode index triple."""
    n = np.asarray(n_index, dtype=float)
    return 2.0 * np.pi * n / np.array([grid.lx, grid.ly, grid.lz])


def curl(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Spectral curl of a (..., 3, nx, ny, nz) field: per mode,
    amplitude -> i k x amplitude."""
    k = wavevectors(grid)
    out = 1j * np.cross(k, fftn(w), axisa=0, axisb=-4, axisc=-4)
    return ifftn(out)


def divergence(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Spectral divergence of a (..., 3, nx, ny, nz) field: per mode,
    i k . amplitude.  Returns a complex (..., nx, ny, nz) scalar field."""
    k = wavevectors(grid)
    return ifftn(1j * vector_dot(k, fftn(w)))


def gradient(grid: Grid, scalar: np.ndarray) -> np.ndarray:
    """Spectral gradient of a (..., nx, ny, nz) scalar field; returns a
    (..., 3, nx, ny, nz) field."""
    k = wavevectors(grid)
    sh = fftn(np.asarray(scalar, dtype=np.complex128))
    return ifftn(1j * k * sh[..., None, :, :, :])


def project_transverse(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Remove the longitudinal part of each 3-vector block of a
    (..., 3, nx, ny, nz) field, into one new array: per mode k != 0,
    amplitude -> amplitude - k (k.amplitude)/|k|^2.  The k = 0 mode is
    unchanged.  Output divergence is at round-off."""
    k = wavevectors(grid)
    k2 = np.sum(k * k, axis=0)
    fh = fftn(w)
    kdotf = vector_dot(k, fh)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(k2 > 0.0, kdotf / np.where(k2 > 0.0, k2, 1.0), 0.0)
    fh -= k * coef[..., None, :, :, :]
    return ifftn(fh)


@dataclass
class WaveField:
    """Six-component state on a periodic grid: data is one complex128
    (6, nx, ny, nz) stack, u_x..u_z then v_x..v_z; its blocks u = data[:3]
    and v = data[3:] are vector fields by the array rule of this module.
    The constructor wraps data without a copy, so a caller that goes on
    using the array must pass a copy.

    The wave function is (u_x,u_y,u_z,v_x,v_y,v_z)/sqrt(2); the 1/sqrt(2)
    normalization is applied by the diagnostics, not stored here.
    """

    grid: Grid
    data: np.ndarray
    mass: float
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (6, *self.grid.shape):
            raise ValueError(f"expected data shape {(6, *self.grid.shape)}, got {self.data.shape}")
        if self.mass < 0:
            raise ValueError("mass must be >= 0")

    @staticmethod
    def zeros(grid: Grid, mass: float) -> "WaveField":
        return WaveField(grid, np.zeros((6, *grid.shape), dtype=np.complex128), mass)

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.data.copy(), self.mass, self.time)

    def norm(self) -> float:
        """sqrt(integral of psi^dagger psi) with the 1/sqrt(2) applied."""
        s = np.sum(np.abs(self.data[:3]) ** 2) + np.sum(np.abs(self.data[3:]) ** 2)
        return float(np.sqrt(0.5 * s * self.grid.cell_volume))


def swap_blocks(psi: WaveField) -> WaveField:
    """Exchange the u and v blocks (the sigma_1 (x) I operation)."""
    return WaveField(psi.grid, psi.data[[3, 4, 5, 0, 1, 2]], psi.mass, psi.time)


def project_constraints(psi: WaveField) -> WaveField:
    """Project both blocks onto the divergence-free subspace."""
    blocks = psi.data.reshape(2, 3, *psi.grid.shape)
    return WaveField(psi.grid, project_transverse(psi.grid, blocks).reshape(psi.data.shape),
                     psi.mass, psi.time)


def divergence_residuals(psi: WaveField) -> tuple[float, float]:
    """max |div u|, max |div v| over the grid."""
    div = divergence(psi.grid, psi.data.reshape(2, 3, *psi.grid.shape))
    div_u, div_v = np.max(np.abs(div), axis=(1, 2, 3)).tolist()
    return div_u, div_v


def nyquist_wavenumber(grid: Grid) -> float:
    """Smallest per-axis Nyquist wavenumber pi*n/L."""
    return min(
        np.pi * grid.nx / grid.lx, np.pi * grid.ny / grid.ly, np.pi * grid.nz / grid.lz
    )


def random_vector_field(
    grid: Grid,
    k_cutoff: float,
    rng,
    kmax: float | None = None,
) -> np.ndarray:
    """Band-limited random (3, nx, ny, nz) field: complex Gaussian spectral
    amplitudes with envelope exp(-|k|^2 / (2 k_cutoff^2)), hard-truncated at
    kmax; not normalized.

    The default kmax is a quarter of the smallest axis Nyquist wavenumber,
    so that quadratic quantities (densities, currents) of the field remain
    exactly resolved by the spectral derivative operators.  Raises
    ValueError unless k_cutoff is positive with a nonzero square.  Squares
    that overflow are inf, and the envelope keeps its exact limits: 1 for
    an infinite k_cutoff^2, 0 off k = 0 where the quotient overflows."""
    if not (k_cutoff > 0 and k_cutoff * k_cutoff > 0):  # the envelope divides by it
        raise ValueError(f"k_cutoff must be positive, got {k_cutoff!r}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    k2 = k_squared(grid)  # Nyquist kept, so the hard cutoff really cuts it
    if kmax is None:
        kmax = 0.25 * nyquist_wavenumber(grid)
    with np.errstate(over="ignore"):
        envelope = np.exp(-k2 / (2.0 * (k_cutoff * k_cutoff))) * (k2 <= kmax * kmax)
    shape = (3, *grid.shape)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ifftn(amps * envelope[None])


def random_wave_field(
    grid: Grid,
    mass: float,
    k_cutoff: float,
    seed,
    transverse: bool = False,
    kmax: float | None = None,
) -> WaveField:
    """Seeded band-limited random state, unit norm; optionally projected
    onto the constraint subspace before normalization."""
    rng = np.random.default_rng(seed)
    u = random_vector_field(grid, k_cutoff, rng, kmax=kmax)
    v = random_vector_field(grid, k_cutoff, rng, kmax=kmax)
    psi = WaveField(grid, np.concatenate([u, v]), mass)
    if transverse:
        # both blocks in one batch: glibc then puts the state in the heap
        # above the space its temporaries free, which a free run reuses
        # every step; a state below that space cost 2x the page faults
        psi = project_constraints(psi)
    n = psi.norm()
    if n > 0:
        psi.data /= n
    return psi


def gaussian_wave_packet(grid: Grid, mass: float, sigma: float, k0=(0.0, 0.0, 0.0)) -> WaveField:
    """Gaussian envelope exp(-|x|^2/(2 sigma^2)) e^{i k0.x} centered at the
    box midpoint, polarized along x on the u block and along y on the v
    block.  Unit norm.  Keep sigma well below L so the wrap seam is
    negligible."""
    x = coordinates(grid)
    r2 = np.sum(x * x, axis=0)
    envelope = np.exp(-r2 / (2.0 * sigma**2)) * np.exp(
        1j * np.tensordot(np.asarray(k0, float), x, axes=(0, 0))
    )
    pol = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], complex)
    psi = WaveField(grid, pol[:, None, None, None] * envelope, mass)
    psi.data /= psi.norm()
    return psi


def plane_eigenmode_field(
    grid: Grid, mass: float, n_index, branch: int, polarization: str, amplitude: complex = 1.0
) -> WaveField:
    """Sampled eigenmode of the free system at integer mode index n_index."""
    k = mode_wavevector(grid, n_index)
    psi6 = algebra.eigenmode(k, mass, branch, polarization)
    x = coordinates(grid)
    phase = amplitude * np.exp(1j * np.tensordot(k, x, axes=(0, 0)))
    return WaveField(grid, psi6[:, None, None, None] * phase, mass)
