"""
Minimal coupling to a static external electromagnetic potential.

The coupled generator is i d_t Psi = (H_A + e Phi) Psi with
H_A = a.(p - e A) + m b.  Derivatives are spectral; multiplications by the
potential are sandwiched between sharp 2/3-rule spectral truncations,
T(f) = D(A_d * D(f)) with A_d the truncated potential, which keeps every
multiplication operator exactly Hermitian on the grid and keeps the operator
identities exact as long as the products of fields and potentials stay
inside the dealiased band.

One core, _product, computes every such product on spectra: one inverse
FFT, a pointwise product, one forward FFT.  It forms the product on a
product grid, per axis
N' = min(N, smallest 2^a 3^b 5^c >= 2K + min(K_A, K) + 1), with K = (N - 1) // 3
the band and K_A the potential's Fourier bandwidth (the ExternalField's
bandwidth, measured from the potentials' spectra).  That is the
zero-padding argument of the 2/3 rule with the pad sized by the
potential: the band holds |n| <= K, the potential |n| <= min(K_A, K), so
on N' points no mode of their product aliases into the band, and the kept
band is the full grid's in exact arithmetic; only the potential's modes
beyond K_A, below 1e-12 of its largest, are left out.  The gain needs
K_A < K (the random fields of nmax 1: 16^3 for 24^3, 24^3 for 32^3); with
K_A >= K the product grid has 3K + 1 points rounded up, at most the grid.
The transform counts stay those of the full grid, the transforms are
smaller.  The potentials are sampled on the product grid once, when the
ExternalField is built.

Each operator has one spectral core, and every composite (RK4 stages, the
record, the identity checks, the projection CG) chains cores on spectra;
norm ratios and inner products are taken there too, since the FFT scales
both sides alike.  Real space is used at the public boundary
(ifftn o core o fftn), for max-norm residuals and for a record's state.
The generator is the free symbol H(k) of dynamics plus one sandwich of the
pointwise coupling e(Phi_d - a.A_d), 12 scalar FFTs per apply on a
6-stack.  The record is dynamics.record with this generator and the
covariant divergence pi.w: 32 scalar FFTs.  evolve_em advances in
dynamics.run, the run loop free evolution uses too.

D M D maps the band into itself and annihilates the rest, and H(k) acts
per mode, so band modes evolve under H(k) + D M D and the others under
H(k) alone, which the free closed form solves exactly.  RK4 runs on the
band alone, held as a band stack: a (6, *product_shape) spectrum in the
product grid's own layout whose non-band planes (K_i + 1 .. N'_i - K_i - 1
per axis, none where N'_i = 2K_i + 1) stay exactly zero.  _product
transforms a stage straight into its buffer, the product is added whole
with its non-band planes zeroed, and H(k) and the stage updates work on
N'^3 modes, not N^3; a step still takes 48 scalar FFTs.  Per record span
_advance restricts the spectrum to its band, steps it, moves the whole
spectrum by the closed form and writes the band back: the band is the
full-grid RK4's bit for bit, the rest (roundoff, 3.6e-16 of the norm at
24^3) moves exactly.  The step's five product-grid stacks are lent by
its caller, so a step allocates no stack.

Covariant constraints (p - eA).u = 0, (p - eA).v = 0 are enforced by a
preconditioned conjugate-gradient solve of pi.pi phi = pi.w followed by
w -> w - pi phi, with the free inverse Laplacian as the preconditioner; a CG
iteration costs 9 scalar FFTs.  Per trial at e != 0, hermiticity_check costs
48, squared_hamiltonian_check 72 and constrained_square_check 186 plus two
block solves (15 + 9 per iteration each).

The uniform-magnetic-field spectrum check lives in landau_spectrum: a
first-order central-difference discretization with magnetic link phases on
a flux-quantized torus.  Its 6n^2 levels come from the square of the
Hamiltonian, which reduces to the n^2 x n^2 scalar operator px^2 + py^2
plus a kernel sector at exactly m^2 (one SVD of the 2n^2 x n^2 stack
[px; py]; no 6n^2 matrix is formed).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, fields, dynamics
from .errors import GridMismatch, NoConvergence, StepTooLarge
from .fields import Grid, WaveField
from .reports import ResidualReport


def _band(grid: Grid) -> tuple[int, int, int]:
    """The 2/3-rule band per axis: the modes with |n_i| <= K_i = (N_i - 1) // 3,
    which are those with 3|n_i| < N_i."""
    return tuple((n - 1) // 3 for n in grid.shape)


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


def _smooth_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT factors into small
    radices."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _bandwidth(spec: np.ndarray) -> tuple[int, int, int]:
    """Per axis, the largest |n_i| of a mode of spec (over its trailing three
    axes) above 1e-12 of its largest coefficient; 0 where none is."""
    size = np.abs(spec).reshape(-1, *spec.shape[-3:]).max(axis=0)
    held = size > 1e-12 * np.max(size)
    bandwidth = []
    for axis, n in enumerate(spec.shape[-3:]):
        index = np.abs(np.rint(np.fft.fftfreq(n) * n)).astype(int)
        on_axis = held.any(axis=tuple(a for a in range(3) if a != axis))
        bandwidth.append(int(np.max(index, where=on_axis, initial=0)))
    return tuple(bandwidth)


def _product_shape(grid: Grid, bandwidth: tuple) -> tuple[int, int, int]:
    """The grid the sandwich forms its products on: per axis
    N' = min(N, smallest 2^a 3^b 5^c >= 2K + min(K_A, K) + 1) for the band K
    and the potential's bandwidth K_A."""
    return tuple(min(n, _smooth_size(2 * k + min(ka, k) + 1))
                 for n, k, ka in zip(grid.shape, _band(grid), bandwidth))


@functools.lru_cache(maxsize=32)
def _band_blocks(src: tuple, dst: tuple, bandwidth: tuple) -> tuple:
    """Index pairs (into a grid of shape src, into one of shape dst) over the
    trailing three axes, one per corner block of the modes |n_i| <=
    bandwidth_i; both grids hold those modes apart from their Nyquist
    modes."""
    axes = []
    for ns, nd, b in zip(src, dst, bandwidth):
        pairs = [(slice(0, b + 1), slice(0, b + 1))]
        if b:
            pairs.append((slice(ns - b, ns), slice(nd - b, nd)))
        axes.append(pairs)
    return tuple(((..., *(p[0] for p in corner)), (..., *(p[1] for p in corner)))
                 for corner in itertools.product(*axes))


def _restrict(spec: np.ndarray, bandwidth: tuple, out: np.ndarray) -> np.ndarray:
    """The modes |n_i| <= bandwidth_i of spec, written into out, a spectrum
    on a grid of its own trailing shape, which is zero elsewhere."""
    out.fill(0.0)
    for src, dst in _band_blocks(spec.shape[-3:], out.shape[-3:], bandwidth):
        out[dst] = spec[src]
    return out


@dataclass
class ExternalField:
    """Static external potential (Phi, A) with charge e; field strengths
    E = -grad Phi and H = curl A are derived spectrally.  The potentials
    and field strengths are precomputed for the sandwiched multiplications,
    dealiased and sampled on the product grid of shape product_shape
    (phi_p, avec_p, evec_p, hvec_p), where _sandwich forms its products;
    E and H are held only there.

    bandwidth is the potentials' Fourier bandwidth per axis, measured: the
    largest |n_i| of a mode where the spectrum of phi or of avec exceeds
    1e-12 of its largest coefficient (smaller modes count as roundoff and
    are left out of the products); 0 for a zero potential."""

    grid: Grid
    charge: float
    phi: np.ndarray
    avec: np.ndarray
    bandwidth: tuple[int, int, int] = field(init=False)
    product_shape: tuple[int, int, int] = field(init=False)
    phi_p: np.ndarray = field(init=False, repr=False)
    avec_p: np.ndarray = field(init=False, repr=False)
    evec_p: np.ndarray = field(init=False, repr=False)
    hvec_p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.avec = np.asarray(self.avec, dtype=float)
        if self.phi.shape != self.grid.shape:
            raise ValueError("phi shape does not match the grid")
        if self.avec.shape != (3, *self.grid.shape):
            raise ValueError("avec shape does not match the grid")
        phi_h = fields.fftn(self.phi.astype(np.complex128))
        avec_h = fields.fftn(self.avec.astype(np.complex128))
        self.bandwidth = tuple(map(max, _bandwidth(phi_h), _bandwidth(avec_h)))
        self.product_shape = _product_shape(self.grid, self.bandwidth)
        # E and H from the spectra of grad Phi and curl A, formed as
        # fields.gradient and fields.curl form them; one spectrum at a time
        k = fields.wavevectors(self.grid)
        self.evec_p = -self._on_product_grid(1j * k * phi_h)
        self.hvec_p = self._on_product_grid(1j * np.cross(k, avec_h, axisa=0, axisb=0, axisc=0))
        self.phi_p = self._on_product_grid(phi_h)
        self.avec_p = self._on_product_grid(avec_h)

    def _on_product_grid(self, spec: np.ndarray) -> np.ndarray:
        """The real field of spectrum spec, on the grid, truncated to the
        dealiased band and the bandwidth and sampled on the product grid."""
        kept = tuple(map(min, _band(self.grid), self.bandwidth))
        out = np.empty((*spec.shape[:-3], *self.product_shape), dtype=np.complex128)
        out = fields.ifftn(_restrict(spec, kept, out), out=out).real
        # the inverse transform divided by the product grid's points, the
        # values need the grid's
        out *= math.prod(self.product_shape) / self.grid.npoints
        return out

    @staticmethod
    def zero(grid: Grid, charge: float = 0.0) -> "ExternalField":
        return ExternalField(grid, charge, np.zeros(grid.shape), np.zeros((3, *grid.shape)))

    @staticmethod
    def from_fourier_series(grid: Grid, charge: float, phi_terms=(), a_terms=()) -> "ExternalField":
        """Build real periodic potentials from cosine/sine coefficients.

        phi_terms: iterable of {"n": [ix,iy,iz], "cos": c, "sin": s}, n three
                   integers
        a_terms:   same plus "component": "x"|"y"|"z" or an integer 0-2.

        ValueError for any other n or component.
        """
        x = fields.coordinates(grid)
        phi = np.zeros(grid.shape)
        avec = np.zeros((3, *grid.shape))

        def series(term):
            n = np.asarray(term["n"], dtype=float)
            if n.shape != (3,) or not np.all(np.isfinite(n) & (n == np.rint(n))):
                raise ValueError(f"mode index n must be three integers, got {term['n']!r}")
            arg = np.tensordot(fields.mode_wavevector(grid, n), x, axes=(0, 0))
            return term.get("cos", 0.0) * np.cos(arg) + term.get("sin", 0.0) * np.sin(arg)

        for term in phi_terms:
            phi += series(term)
        for term in a_terms:
            avec[_component(term["component"])] += series(term)
        return ExternalField(grid, charge, phi, avec)


def _component(name) -> int:
    """The axis of an a_terms component: "x", "y", "z" or an integer 0-2
    (not a bool or a float); ValueError otherwise."""
    if isinstance(name, str) and name in ("x", "y", "z"):
        return "xyz".index(name)
    if isinstance(name, (int, np.integer)) and not isinstance(name, bool) and 0 <= name <= 2:
        return int(name)
    raise ValueError(f"a_terms component must be \"x\", \"y\", \"z\" or an integer 0-2, "
                     f"got {name!r}")


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


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a complex array (fields.real_vdot, no temporary)."""
    return float(np.sqrt(fields.real_vdot(x, x)))


def _check_grids(psi: WaveField, ext: ExternalField):
    if psi.grid != ext.grid:
        raise GridMismatch("state and external field live on different grids")


def _product(s: np.ndarray, pointwise, scale: float, buf: np.ndarray) -> np.ndarray:
    """The sandwich core: returns scale * F[M(x) F^-1 s], whose band is
    scale * D[M D psi], for s the band of the spectrum of psi in the
    product-grid layout (the modes |n_i| <= K_i of the 2/3 rule, zero
    elsewhere).  The inverse FFT goes into buf, which may be s; pointwise
    applies M(x), made of the product-grid potentials ext.*_p, to it, may
    overwrite it and returns a complex128 array that is its own, which
    the forward FFT and the scale then overwrite.  M is linear in D psi,
    so the two transforms' differing normalizations (N'/N into the
    product grid, N/N' out of it) cancel and neither is applied.

    Exact: D psi has modes |n_i| <= K_i and M, restricted to the potential's
    bandwidth K_A, has |n_i| <= min(K_A, K_i), so on N' >= 2K + min(K_A, K) + 1
    points no mode of their product aliases into the band.  The kept band
    is the one the full grid gives; only the modes of the potential beyond
    K_A, below 1e-12 of its largest, are left out.  The gain needs K_A < K; the
    transform counts are those of the full grid."""
    product = pointwise(fields.ifftn(s, out=buf))
    fields.fftn(product, out=product)
    product *= scale
    return product


def _sandwich(ext: ExternalField, sh: np.ndarray, pointwise, out: np.ndarray,
              scale: float) -> np.ndarray:
    """The one dealiased multiplication on full-grid spectra: adds
    scale * D[M(x) D psi] into out, a spectrum on ext.grid, for the spectrum
    sh of psi, and returns out.  The band of sh goes into a new
    product-grid array, _product forms the product there, and its band is
    added into out."""
    kept = _band(ext.grid)
    d = _restrict(sh, kept, np.empty((*sh.shape[:-3], *ext.product_shape), dtype=np.complex128))
    product = _product(d, pointwise, scale, d)
    for dst, src in _band_blocks(ext.grid.shape, ext.product_shape, kept):
        out[dst] += product[src]
    return out


def _coupling(ext: ExternalField, phi_p, product: np.ndarray | None = None):
    """The pointwise coupling phi_p - a.A_p of H_A + e phi_p, for _product:
    it overwrites D psi with the result; a.A_p D psi goes into product (a
    new stack if None)."""
    def pointwise(d):
        a_d = dynamics._hamiltonian_symbol(ext.avec_p, 0.0, d, out=product)
        d *= phi_p
        d -= a_d
        return d

    return pointwise


def _h_a_spectrum(sh: np.ndarray, ext: ExternalField, mass: float, phi_p=0.0) -> np.ndarray:
    """H_A + e phi_p on the spectrum of a 6-stack, H_A = a.(p - eA) + m b:
    the free symbol H(k) plus one sandwich of the pointwise coupling
    e(phi_p - a.A_p), phi_p on the product grid.  phi_p = 0 gives H_A
    alone."""
    out = dynamics._hamiltonian_symbol(fields.wavevectors(ext.grid), mass, sh)
    if ext.charge != 0.0:
        _sandwich(ext, sh, _coupling(ext, phi_p), out, ext.charge)
    return out


def _generator_spectrum(sh: np.ndarray, ext: ExternalField, mass: float) -> np.ndarray:
    """(H_A + e Phi) on the spectrum of a 6-stack; 12 scalar FFTs at e != 0."""
    return _h_a_spectrum(sh, ext, mass, ext.phi_p)


def apply_total_generator(psi_stack: np.ndarray, ext: ExternalField, mass: float) -> np.ndarray:
    """(H_A + e Phi) applied to a 6-stack; the generator of i d_t."""
    return fields.ifftn(_generator_spectrum(fields.fftn(psi_stack), ext, mass))


def _pi_vector_spectrum(ext: ExternalField, fh: np.ndarray) -> np.ndarray:
    """(p - eA) f on the spectrum fh of a (..., nx, ny, nz) scalar field;
    returns the spectrum of the vector field, vector axis at -4."""
    fh = fh[..., None, :, :, :]
    out = fields.wavevectors(ext.grid) * fh
    if ext.charge != 0.0:
        _sandwich(ext, fh, lambda d: ext.avec_p * d, out, -ext.charge)
    return out


def pi_vector(ext: ExternalField, f: np.ndarray) -> np.ndarray:
    """(p - eA) f for a scalar field f; returns shape (3, nx, ny, nz)."""
    return fields.ifftn(_pi_vector_spectrum(ext, fields.fftn(np.asarray(f, dtype=complex))))


def _pi_dot_spectrum(ext: ExternalField, wh: np.ndarray) -> np.ndarray:
    """(p - eA) . w on the spectrum wh of a (..., 3, nx, ny, nz) vector field;
    returns the spectrum of the scalar field.  The three products A_p w_d
    are summed before the outer transform, which the linearity of the
    truncation makes exact."""
    out = fields.vector_dot(fields.wavevectors(ext.grid), wh)
    if ext.charge != 0.0:
        _sandwich(ext, wh, lambda d: fields.vector_dot(ext.avec_p, d), out, -ext.charge)
    return out


def pi_dot(ext: ExternalField, w: np.ndarray) -> np.ndarray:
    """(p - eA) . w for a 3-vector field w; returns a scalar field."""
    return fields.ifftn(_pi_dot_spectrum(ext, fields.fftn(np.asarray(w, dtype=complex))))


def _pi_squared_spectrum(ext: ExternalField, sh: np.ndarray) -> np.ndarray:
    """(p - eA)^2 on the spectrum of a 6-stack, one 3-component block at a
    time (a whole-stack batch would hold (6, 3, nx, ny, nz) temporaries)."""
    return np.concatenate(
        [_pi_dot_spectrum(ext, _pi_vector_spectrum(ext, block)) for block in (sh[:3], sh[3:])]
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
    gradients and subtracts pi phi.  The iterates are held as spectra, so
    the free inverse Laplacian preconditioner costs no transform; an
    iteration costs 9 scalar FFTs, one of them the inverse transform of the
    residual for the stopping test.  Terminates when the actual constraint
    residual max|pi.w| drops below tol * max|w|; raises NoConvergence if the
    cap is hit first (a nearly singular pi.pi, e.g. flux-tuned potentials)."""
    _check_grids(psi, ext)
    k2 = _preconditioner_k2(psi.grid)

    def solve(w: np.ndarray, out: np.ndarray) -> tuple[int, float]:
        """Project the block w into out."""
        scale = max(float(np.max(np.abs(w))), 1e-300)
        rh = _pi_dot_spectrum(ext, fields.fftn(w))
        res = float(np.max(np.abs(fields.ifftn(rh))))
        if res <= tol * scale:
            out[...] = w
            return 0, res
        phih = np.zeros(psi.grid.shape, dtype=complex)
        zh = rh / k2
        ph = zh.copy()
        rz = fields.real_vdot(rh, zh)
        for it in range(1, maxiter + 1):
            lph = _pi_dot_spectrum(ext, _pi_vector_spectrum(ext, ph))
            alpha = rz / fields.real_vdot(ph, lph)
            phih += alpha * ph
            rh -= alpha * lph
            res = float(np.max(np.abs(fields.ifftn(rh))))
            if res <= tol * scale:
                np.subtract(w, fields.ifftn(_pi_vector_spectrum(ext, phih)), out=out)
                return it, res
            zh = rh / k2
            rz_new = fields.real_vdot(rh, zh)
            ph = zh + (rz_new / rz) * ph
            rz = rz_new
        raise NoConvergence(
            f"covariant projection residual {res:.3e} above "
            f"{tol:.1e} * scale after {maxiter} iterations"
        )

    data = np.empty_like(psi.data)
    it_u, res_u = solve(psi.data[:3], data[:3])
    it_v, res_v = solve(psi.data[3:], data[3:])
    out = WaveField(psi.grid, data, psi.mass, psi.time)
    return ProjectionResult(out, (it_u, it_v), (res_u, res_v))


def squared_hamiltonian_check(
    ext: ExternalField,
    mass: float,
    trials: int = 10,
    seed=0,
    k_cutoff: float = 2.0,
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
        sh = fields.fftn(fields.random_wave_field(ext.grid, mass, k_cutoff, rng).data)
        a_pi = _h_a_spectrum(sh, ext, 0.0)
        lhs = _h_a_spectrum(_h_a_spectrum(sh, ext, mass), ext, mass)
        rhs = _h_a_spectrum(a_pi, ext, 0.0) + mass**2 * sh
        scale = max(_norm(lhs), _norm(rhs), 1e-300)
        worst = max(worst, _norm(lhs - rhs) / scale)

        if mass > 0:
            hp = a_pi + mass * np.einsum("ij,j...->i...", sigma3, sh)
            lhs_c = _h_a_spectrum(hp, ext, 0.0) + mass * np.einsum("ij,j...->i...", sigma3, hp)
            worst_control = max(worst_control, _norm(lhs_c - rhs) / scale)
    rep = ResidualReport()
    rep.add_upper("squared_hamiltonian_identity", worst, 1e-12)
    if mass > 0:
        rep.add_lower("non_anticommuting_control", worst_control, 1e-3)
    rep.notes["trials"] = str(trials)
    return rep


def _sigma_dot_h(ext: ExternalField, sh: np.ndarray) -> np.ndarray:
    """(Sigma.H) Psi = (i H x u, i H x v), sandwiched, on a 6-stack spectrum."""

    def pointwise(d):
        blocks = d.reshape(2, 3, *d.shape[1:])
        return 1j * np.cross(ext.hvec_p, blocks, axisa=0, axisb=1, axisc=1).reshape(d.shape)

    return _sandwich(ext, sh, pointwise, np.zeros_like(sh), 1.0)


def _a_dot_e(ext: ExternalField, sh: np.ndarray) -> np.ndarray:
    """(a.E) Psi = (E x v, -E x u), sandwiched, on a 6-stack spectrum."""
    return _sandwich(ext, sh, lambda d: dynamics._hamiltonian_symbol(ext.evec_p, 0.0, d),
                     np.zeros_like(sh), 1.0)


def constrained_square_check(
    ext: ExternalField,
    mass: float,
    trials: int = 4,
    seed=0,
    k_cutoff: float = 2.0,
) -> ResidualReport:
    """(a.pi)^2 Psi = pi^2 Psi - e (Sigma.H) Psi, valid only on the
    covariant constraint manifold.

    Projected fields must satisfy it to 1e-8 (limited by the projection
    tolerance); the same expression on unprojected fields must miss by at
    least 1e-2 relative, which demonstrates that the constraints, not just
    the matrix algebra, carry the magnetic-moment term.  The notes carry
    the largest CG iteration count of any block solve and the largest final
    CG residual max|pi.w|."""
    rng = np.random.default_rng(seed)
    worst_proj = 0.0
    worst_raw = np.inf
    cg_iterations = 0
    cg_residual = 0.0

    def residual(psi: WaveField) -> float:
        sh = fields.fftn(psi.data)
        lhs = _h_a_spectrum(_h_a_spectrum(sh, ext, 0.0), ext, 0.0)
        rhs = _pi_squared_spectrum(ext, sh) - ext.charge * _sigma_dot_h(ext, sh)
        scale = max(_norm(lhs), _norm(rhs), 1e-300)
        return _norm(lhs - rhs) / scale

    for _ in range(trials):
        psi = fields.random_wave_field(ext.grid, mass, k_cutoff, rng)
        worst_raw = min(worst_raw, residual(psi))
        proj = covariant_project(psi, ext)
        worst_proj = max(worst_proj, residual(proj.field))
        cg_iterations = max(cg_iterations, *proj.iterations)
        cg_residual = max(cg_residual, *proj.residuals)
    rep = ResidualReport()
    rep.add_upper("projected_identity_residual", worst_proj, 1e-8)
    rep.add_lower("unprojected_negative_control", worst_raw, 1e-2)
    rep.notes["trials"] = str(trials)
    rep.notes["cg_max_iterations"] = str(cg_iterations)
    rep.notes["cg_max_residual"] = f"{cg_residual:.3e}"
    return rep


def hermiticity_check(
    ext: ExternalField, mass: float, trials: int = 5, seed=0, k_cutoff: float = 2.0
) -> ResidualReport:
    """<phi | (H_A + e Phi) psi> = <(H_A + e Phi) phi | psi> on random fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = fields.fftn(fields.random_wave_field(ext.grid, mass, k_cutoff, rng).data)
        g = fields.fftn(fields.random_wave_field(ext.grid, mass, k_cutoff, rng).data)
        hg = _generator_spectrum(g, ext, mass)
        hf = _generator_spectrum(f, ext, mass)
        lhs = fields.vdot(f, hg)
        rhs = fields.vdot(hf, g)
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


def _product_stack(ext: ExternalField) -> np.ndarray:
    """An empty 6-stack on ext's product grid."""
    return np.empty((6, *ext.product_shape), dtype=np.complex128)


@functools.lru_cache(maxsize=32)
def _band_wavevectors(grid: Grid, product_shape: tuple) -> np.ndarray:
    """The wavevectors of grid's band in the product-grid layout of shape
    product_shape, zero off the band; read-only."""
    k = _restrict(fields.wavevectors(grid), _band(grid), np.empty((3, *product_shape)))
    k.setflags(write=False)
    return k


def _clear_off_band(ext: ExternalField, a: np.ndarray) -> np.ndarray:
    """Zero the non-band planes K_i + 1 .. N'_i - K_i - 1 of a product-grid
    array (none where N'_i = 2K_i + 1); returns a."""
    for axis, (k, n) in enumerate(zip(_band(ext.grid), ext.product_shape)):
        a[(..., *(slice(k + 1, n - k) if i == axis else slice(None) for i in range(3)))] = 0.0
    return a


def _band_generator(s: np.ndarray, ext: ExternalField, mass: float, out: np.ndarray,
                    work) -> np.ndarray:
    """(H_A + e Phi) on a band stack s, into out: H(k) with the band's
    wavevectors plus the coupling's product, off-band planes zeroed, added
    whole.  out must not overlap s or work, the two product-grid stacks of
    _product's inverse transform and the a.A_p product.  12 scalar FFTs at
    e != 0; the band of out is the band of _generator_spectrum bit for bit."""
    dynamics._hamiltonian_symbol(_band_wavevectors(ext.grid, ext.product_shape), mass, s,
                                 out=out)
    if ext.charge != 0.0:
        out += _clear_off_band(ext, _product(s, _coupling(ext, ext.phi_p, work[1]), ext.charge,
                                             work[0]))
    return out


def _rk4_step(sh: np.ndarray, ext: ExternalField, mass: float, dt: float, *,
              work=None) -> np.ndarray:
    """One classical RK4 step on a band stack sh, in place; returns sh.
    Every stage stays a band stack, so a step costs four generator applies
    and no other transform.  The update is sh + dt/6 (k1 + 2 k2 + 2 k3 + k4),
    summed in that order.  work is five product-grid stacks of scratch, none
    of them sh: the stage argument, the sum, the stage derivative, and the
    generator's two (allocated if None), so a step with a workspace
    allocates no whole stack."""
    if work is None:
        work = [_product_stack(ext) for _ in range(5)]
    arg, acc, k = work[:3]

    def rhs(s, out):
        g = _band_generator(s, ext, mass, out, work[3:])
        g *= -1j
        return g

    def stage(k, h):
        """The stage argument sh + h k, written into arg."""
        return np.add(np.multiply(k, h, out=arg), sh, out=arg)

    rhs(sh, acc)  # k1
    rhs(stage(acc, 0.5 * dt), k)  # k2
    stage(k, 0.5 * dt)
    k *= 2.0
    acc += k
    rhs(arg, k)  # k3
    stage(k, dt)
    k *= 2.0
    acc += k
    acc += rhs(arg, k)  # k4
    acc *= dt / 6.0
    sh += acc
    return sh


def _advance(sh: np.ndarray, ext: ExternalField, prop: dynamics.FreePropagator, dt: float,
             steps: int, spare: np.ndarray) -> None:
    """Move the spectrum sh of a 6-stack steps RK4 steps of dt, in place.
    Its band goes into a band stack and takes the steps; the rest, which
    H_A + e Phi leaves to H(k) alone, moves exactly: prop, the free closed
    form, advances all of sh over steps * dt into spare, the band is
    written over it, and spare is copied back.  The six product-grid
    stacks (the band stack and the steps' workspace) live only while
    advancing."""
    kept = _band(ext.grid)
    band = _restrict(sh, kept, _product_stack(ext))
    work = [_product_stack(ext) for _ in range(5)]
    for _ in range(steps):
        _rk4_step(band, ext, prop.mass, dt, work=work)
    prop.evolve_spectrum(sh, steps * dt, out=spare)
    for dst, src in _band_blocks(ext.grid.shape, ext.product_shape, kept):
        spare[dst] = band[src]
    np.copyto(sh, spare)


def _em_diagnostics(psi: WaveField, sh: np.ndarray, ext: ExternalField) -> dynamics.DiagnosticsRecord:
    """The coupled record: dynamics.record with the generator H_A + e Phi and
    the covariant residuals max|pi.u|, max|pi.v| as constraint columns.  sh
    is the spectrum of psi's stack."""
    return dynamics.record(psi, sh, lambda s: _generator_spectrum(s, ext, psi.mass),
                           lambda wh: _pi_dot_spectrum(ext, wh))


def evolve_em(
    psi: WaveField,
    ext: ExternalField,
    t_final: float,
    dt: float,
    diag_stride: int = 0,
) -> dynamics.Evolution:
    """Integrate i d_t Psi = (H_A + e Phi) Psi in dynamics.run: classical
    RK4 on the band, the free closed form off it, through _advance
    (NonFiniteState if the field diverges).  Constraint drift is
    monitored, never projected away.  Raises StepTooLarge if dt exceeds the
    stability bound, ScheduleError unless t_final is whole steps of dt."""
    _check_grids(psi, ext)
    bound = stability_bound(psi.grid, psi.mass, ext)
    if dt > bound:
        raise StepTooLarge(f"dt={dt:.3e} exceeds the RK4 stability bound {bound:.3e}")
    n_steps = dynamics.step_count(t_final, dt, multiple=True)
    prop = dynamics.FreePropagator(psi.grid, psi.mass)

    def advance(sh: np.ndarray, steps: int, span: float, spare: np.ndarray) -> None:
        _advance(sh, ext, prop, dt, steps, spare)

    return dynamics.run(psi, t_final, dt, diag_stride, n_steps, advance,
                        lambda state, sh: _em_diagnostics(state, sh, ext))


def second_order_residual(
    psi0: WaveField, ext: ExternalField, dt: float, substeps: int = 4
) -> float:
    """Three-slice check of the squared-out equation of motion:

        (i d_t - e Phi)^2 Psi = (pi^2 + m^2) Psi - e (Sigma.H) Psi + i e (a.E) Psi

    The time side is estimated from central differences of slices at +-dt
    that _advance evolves, as evolve_em does; the residual converges as O(dt^2).  psi0 should be
    covariantly projected (the magnetic term needs the constraints)."""
    _check_grids(psi0, ext)
    h = dt / substeps
    if h > stability_bound(psi0.grid, psi0.mass, ext):
        raise StepTooLarge("dt/substeps exceeds the RK4 stability bound")
    m = psi0.mass
    e = ext.charge
    sh0 = fields.fftn(psi0.data)
    prop, spare = dynamics.FreePropagator(psi0.grid, m), np.empty_like(sh0)
    plus, minus = sh0.copy(), sh0.copy()
    _advance(plus, ext, prop, h, substeps, spare)
    _advance(minus, ext, prop, -h, substeps, spare)

    def mulphi(s):
        out = np.zeros_like(s)
        return _sandwich(ext, s, lambda d: ext.phi_p * d, out, 1.0) if e != 0.0 else out

    ddt = (plus - minus) / (2.0 * dt)
    d2dt = (plus - 2.0 * sh0 + minus) / dt**2
    lhs = -d2dt - 2j * e * mulphi(ddt) + e**2 * mulphi(mulphi(sh0))
    rhs = (
        _pi_squared_spectrum(ext, sh0)
        + m**2 * sh0
        - e * _sigma_dot_h(ext, sh0)
        + 1j * e * _a_dot_e(ext, sh0)
    )
    return _norm(lhs - rhs) / max(_norm(rhs), 1e-300)


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
    grad_chi = fields.gradient(psi0.grid, chi).real
    ext2 = ExternalField(psi0.grid, e, ext.phi, ext.avec + grad_chi)
    phase = np.exp(1j * e * chi)
    psi0_t = WaveField(psi0.grid, psi0.data * phase[None], psi0.mass, psi0.time)

    r1 = evolve_em(psi0, ext, t_final, dt).final.data
    r2 = evolve_em(psi0_t, ext2, t_final, dt).final.data
    diff = r1 - r2 * np.exp(-1j * e * chi)[None]
    return _norm(diff) / max(_norm(r1), 1e-300)


@dataclass
class LandauLevels:
    """Sorted squared eigenvalues of the lattice H_A in a uniform field."""

    e_squared: np.ndarray
    eB: float
    n: int
    flux_quanta: int
    mass: float
    charge: float


def landau_spectrum(n: int, flux_quanta: int, m: float, e: float) -> LandauLevels:
    """Spectrum of the coupled Hamiltonian on an n x n x 1 grid of the square
    torus of side box = 2 pi with a uniform magnetic field B z-hat realized
    by link phases (Landau gauge, phase-twisted periodic wrap in x).

    Flux quantization fixes B = 2 pi N / (e * box^2), so e*B = 2 pi N / box^2
    regardless of the charge; for e = 0 the free finite-difference operator
    is returned.  The first derivative uses central differences, so each
    continuum level appears with an extra factor-of-4 valley degeneracy.

    The levels come from H^2, not from H.  With a_i = sigma_2 (x) S_i and
    b = sigma_3 (x) 1, the lattice Hamiltonian px (x) a1 + py (x) a2 + m b is
    H = [[m, -iK], [iK, -m]] with K = px (x) S1 + py (x) S2, and b^2 = 1,
    {a_i, b} = 0 give H^2 = (m^2 + K^2) (+) (m^2 + K^2).  The spin-1 blocks
    are Cartesian, (S_i)_jk = -i eps_ijk, so K couples only the z component
    to the (x, y) pair, through the 2n^2 x n^2 block B = i [py; -px]:
    K^2 = B B^dag (+) B^dag B with B^dag B = px^2 + py^2.  Hence E^2 - m^2
    runs over mu in spec(px^2 + py^2), each value 4 times, plus 0 another
    2n^2 times (the kernel sector: B B^dag has rank at most n^2).  The mu are the squared singular
    values of the stacked [px; py], nonnegative by construction; the largest
    matrix formed is that 2n^2 x n^2 stack, and the solve is one SVD of it.
    """
    if flux_quanta < 1:
        raise ValueError("flux_quanta must be >= 1")
    box = 2.0 * np.pi
    h = box / n
    eB = 2.0 * np.pi * flux_quanta / (box * box) if e != 0.0 else 0.0

    nn = n * n
    sites = np.arange(nn)
    i, j = np.divmod(sites, n)  # site i * n + j sits at (i h, j h)
    hops = np.zeros((2, nn, nn), dtype=complex)
    # x-hop: A_x = 0, but crossing the x boundary picks up the gauge-patch
    # twist exp(-i e B Lx y)
    hops[0, sites, ((i + 1) % n) * n + j] = np.where(
        i == n - 1, np.exp(-1j * eB * box * (j * h)), 1.0)
    # y-hop: A_y = B x, link phase exp(i e B x h)
    hops[1, sites, i * n + (j + 1) % n] = np.exp(1j * eB * (i * h) * h)
    p = -1j * (hops - hops.conj().transpose(0, 2, 1)) / (2.0 * h)
    mu = np.linalg.svd(p.reshape(2 * nn, nn), compute_uv=False) ** 2
    m2 = m**2
    e_squared = np.concatenate([np.full(2 * nn, m2), np.repeat(m2 + mu, 4)])
    return LandauLevels(np.sort(e_squared), eB, n, flux_quanta, m, e)


def landau_cluster_analysis(levels: LandauLevels, n_levels: int = 3, rel_tol: float = 0.05) -> dict:
    """Locate the eigenvalue clusters and compare with
    E^2 = m^2 + (2n+1) eB - eB sigma.

    The observed towers are the zero-offset cluster at m^2 and clusters at
    m^2 + j*eB for odd j.  The zero-offset cluster is exactly the 2n^2
    kernel-sector levels of landau_spectrum (E^2 = m^2 for any field): the
    odd towers are 4 copies of the scalar levels spec(px^2 + py^2), and
    none of those falls below offset 0.5 (min spec(px^2 + py^2)/eB is
    0.978, 0.988 and 0.992 at n = 12, 16 and 20).  So sigma_splitting_over_eB
    is the gap from the kernel sector to the lowest scalar Landau level.
    Positions are checked to rel_tol relative to their predicted offset
    from m^2.  kernel_sector_count (levels with |E^2 - m^2| <= 1e-12 max E^2)
    and its expected value 2n^2 are reported as a note; they do not enter
    all_passed."""
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
        "kernel_sector_count": int(np.count_nonzero(np.abs(e2 - m2) <= 1e-12 * e2[-1])),
        "kernel_sector_expected": 2 * levels.n**2,
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
