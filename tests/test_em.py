import math

import numpy as np
import pytest

from spin1wave import algebra, dynamics, em_coupling as em, fields, reports
from spin1wave.errors import GridMismatch, NoConvergence, NonFiniteState, StepTooLarge

GRID = fields.Grid.cubic(16)
MASS = 1.0


@pytest.fixture(scope="module")
def ext():
    return em.random_smooth_external(GRID, 0.5, seed=11, amplitude=0.2, nmax=1)


@pytest.fixture(scope="module")
def psi():
    return fields.random_wave_field(GRID, MASS, 1.5, seed=5, transverse=True, kmax=2.0)


def _h_a(stack, ext, mass):
    """H_A = a.(p - eA) + m b on a real-space 6-stack, through its spectral core."""
    return fields.ifftn(em._h_a_spectrum(fields.fftn(stack), ext, mass))


def test_external_field_shapes_validated():
    with pytest.raises(ValueError):
        em.ExternalField(GRID, 1.0, np.zeros((4, 4, 4)), np.zeros((3, *GRID.shape)))


@pytest.mark.parametrize("call", [
    lambda psi, ext: em.covariant_project(psi, ext),
    lambda psi, ext: em.evolve_em(psi, ext, 0.01, 0.01),
], ids=["covariant_project", "evolve_em"])
def test_state_on_another_grid_raises_grid_mismatch(ext, call):
    other = fields.random_wave_field(fields.Grid.cubic(8), MASS, 1.5, seed=5)
    with pytest.raises(GridMismatch):
        call(other, ext)


def test_derived_magnetic_field_divergence_free(ext):
    h = fields.curl(GRID, ext.avec).real
    assert np.max(np.abs(fields.divergence(GRID, h))) <= 1e-12


def test_zero_field_reduces_to_free_hamiltonian(psi):
    ext0 = em.ExternalField.zero(GRID, 0.0)
    a = _h_a(psi.data, ext0, psi.mass)
    b = dynamics.apply_hamiltonian_stack(GRID, psi.mass, psi.data)
    assert np.max(np.abs(a - b)) <= 1e-14


def test_constant_vector_potential_shifts_momentum():
    # plane wave at mode k with constant A = A0 z-hat: coupled application
    # equals the free matrix at momentum k - e*A0 z-hat
    a0, e = 0.7, 0.5
    ext_c = em.ExternalField(
        GRID, e, np.zeros(GRID.shape), np.broadcast_to(
            np.array([0.0, 0.0, a0])[:, None, None, None], (3, *GRID.shape)
        ).copy(),
    )
    k = fields.mode_wavevector(GRID, (0, 1, 1))
    amp = np.array([0.3, -0.1j, 0.2, 0.5, 0.4j, -0.2], complex)
    ph = fields.plane_wave(GRID, k, (1, 0, 0))[0]
    out = _h_a(amp[:, None, None, None] * ph, ext_c, MASS)
    h_shift = algebra.hamiltonian_symbol(k - e * np.array([0, 0, a0]), MASS)
    expected = (h_shift @ amp)[:, None, None, None] * ph
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_generator_hermitian(ext):
    rep = em.hermiticity_check(ext, MASS, trials=4, seed=2)
    assert rep.all_passed
    assert rep.value("generator_hermiticity") <= 1e-12


def test_covariant_projection_reduces_to_transverse_at_zero_charge(psi):
    ext0 = em.ExternalField.zero(GRID, 0.0)
    res = em.covariant_project(psi, ext0)
    ref = fields.project_constraints(psi)
    assert np.max(np.abs(res.field.data - ref.data)) <= 1e-13


def test_covariant_projection_fixed_point(psi, ext):
    first = em.covariant_project(psi, ext)
    again = em.covariant_project(first.field, ext)
    assert again.iterations == (0, 0)
    assert np.max(np.abs(again.field.data - first.field.data)) <= 1e-12


def test_covariant_projection_residual_and_idempotence(psi, ext):
    res = em.covariant_project(psi, ext)
    scale = np.max(np.abs(psi.data))
    wh = fields.fftn(res.field.data).reshape(2, 3, *GRID.shape)
    ru, rv = np.max(np.abs(fields.ifftn(em._pi_dot_spectrum(ext, wh))), axis=(1, 2, 3))
    assert max(ru, rv) <= 1e-10 * scale
    res2 = em.covariant_project(res.field, ext)
    diff = np.max(np.abs(res2.field.data - res.field.data))
    assert diff <= 1e-9 * scale


def test_squared_hamiltonian_identity(ext):
    rep = em.squared_hamiltonian_check(ext, MASS, trials=6, seed=3)
    assert rep.value("squared_hamiltonian_identity") <= 1e-12
    assert rep.value("non_anticommuting_control") >= 1e-3


def test_squared_hamiltonian_identity_massless(ext):
    rep = em.squared_hamiltonian_check(
        em.ExternalField(GRID, ext.charge, ext.phi, ext.avec), 0.0,
        trials=3, seed=4,
    )
    assert rep.value("squared_hamiltonian_identity") <= 1e-12


def test_constrained_square_identity_at_24():
    grid = fields.Grid.cubic(24)
    ext24 = em.random_smooth_external(grid, 0.5, seed=11, amplitude=0.2, nmax=1)
    rep = em.constrained_square_check(ext24, MASS, trials=2, seed=4)
    assert rep.value("projected_identity_residual") <= 1e-8
    assert rep.value("unprojected_negative_control") >= 1e-2


def test_constrained_square_identity_pure_scalar_potential():
    # A = 0: the covariant constraints are the plain transversality ones and
    # the identity becomes (a.p)^2 = p^2 on the transverse subspace
    phi = em.random_smooth_external(GRID, 0.5, seed=13, amplitude=0.3, nmax=1).phi
    ext_phi = em.ExternalField(GRID, 0.5, phi, np.zeros((3, *GRID.shape)))
    rep = em.constrained_square_check(ext_phi, MASS, trials=2, seed=5)
    assert rep.value("projected_identity_residual") <= 1e-12


def test_evolve_matches_exact_free_at_rk4_order(psi):
    ext0 = em.ExternalField.zero(GRID, 0.0)
    exact = dynamics.evolve_free(psi, 0.5, 0.005).final.data
    d1 = np.linalg.norm(em.evolve_em(psi, ext0, 0.5, 0.01).final.data - exact)
    d2 = np.linalg.norm(em.evolve_em(psi, ext0, 0.5, 0.005).final.data - exact)
    assert 12.0 <= d1 / d2 <= 20.0


def test_constant_scalar_potential_is_global_phase(psi):
    phi0 = 0.7
    e = 0.5
    ext_p = em.ExternalField(GRID, e, np.full(GRID.shape, phi0), np.zeros((3, *GRID.shape)))
    run = em.evolve_em(psi, ext_p, 0.5, 0.005)
    expected = np.exp(-1j * e * phi0 * 0.5) * dynamics.evolve_free(psi, 0.5, 0.005).final.data
    assert np.linalg.norm(run.final.data - expected) <= 1e-8


def test_norm_drift_over_1000_steps():
    grid = fields.Grid.cubic(12)
    psi12 = fields.random_wave_field(grid, MASS, 1.5, seed=5, transverse=True, kmax=1.5)
    ext12 = em.random_smooth_external(grid, 0.5, seed=11, amplitude=0.2, nmax=1)
    dt = 0.45 * em.stability_bound(grid, MASS, ext12)
    run = em.evolve_em(psi12, ext12, 1000 * dt, dt)
    assert abs(run.final.norm() - psi12.norm()) / psi12.norm() <= 1e-8


def test_constraint_drift_monitored_not_enforced(psi, ext):
    dt = 0.5 * em.stability_bound(GRID, MASS, ext)
    proj = em.covariant_project(psi, ext).field
    run = em.evolve_em(proj, ext, 40 * dt, dt, diag_stride=20)
    # drift is recorded in the records; no projection happens silently
    assert len(run.records) == 3
    assert run.records[-1].div_u_res >= run.records[0].div_u_res


def test_step_bound_enforced(psi, ext):
    with pytest.raises(StepTooLarge):
        em.evolve_em(psi, ext, 1.0, 1.0)


def test_step_bound_refuses_a_nan_bound(psi, ext):
    # a NaN charge makes the bound NaN, and dt > NaN is False: only
    # dt <= bound refuses the step
    ext_nan = em.ExternalField(GRID, math.nan, ext.phi, ext.avec)
    assert math.isnan(em.stability_bound(GRID, MASS, ext_nan))
    with pytest.raises(StepTooLarge):
        em.evolve_em(psi, ext_nan, 0.02, 0.01)
    with pytest.raises(StepTooLarge):
        em.second_order_residual(psi, ext_nan, 0.01)


def test_overflowing_potentials_are_refused():
    # finite potentials whose spectra overflow
    with pytest.raises(ValueError, match="not finite"):
        em.random_smooth_external(fields.Grid.cubic(8), 0.5, seed=1, amplitude=1e308, nmax=1)


def test_non_finite_state_detected(ext):
    stack = np.full((6, *GRID.shape), np.nan, dtype=complex)
    bad = fields.WaveField(GRID, stack, MASS)
    dt = 0.5 * em.stability_bound(GRID, MASS, ext)
    with pytest.raises(NonFiniteState):
        em.evolve_em(bad, ext, 4 * dt, dt, diag_stride=2)


def test_t_final_must_be_step_multiple(psi, ext):
    with pytest.raises(ValueError):
        em.evolve_em(psi, ext, 0.0105, 0.01)


def test_second_order_free_case_cross_checks_kgf():
    psi_low = fields.random_wave_field(GRID, MASS, 1.0, seed=9, transverse=True, kmax=1.0)
    ext0 = em.ExternalField.zero(GRID, 0.0)
    r = em.second_order_residual(psi_low, ext0, 1e-3)
    assert r <= 1e-6
    assert dynamics.kgf_residual(psi_low).transverse_res <= 1e-12


def test_second_order_ratio_vector_potential(psi, ext):
    proj = em.covariant_project(psi, ext).field
    r1 = em.second_order_residual(proj, ext, 8e-3)
    r2 = em.second_order_residual(proj, ext, 4e-3)
    assert 3.5 <= r1 / r2 <= 4.5


def test_second_order_ratio_scalar_potential(psi):
    phi = em.random_smooth_external(GRID, 0.5, seed=13, amplitude=0.3, nmax=1).phi
    ext_p = em.ExternalField(GRID, 0.5, phi, np.zeros((3, *GRID.shape)))
    proj = em.covariant_project(psi, ext_p).field
    r1 = em.second_order_residual(proj, ext_p, 8e-3)
    r2 = em.second_order_residual(proj, ext_p, 4e-3)
    assert 3.5 <= r1 / r2 <= 4.5


def test_second_order_zero_field(ext):
    assert em.second_order_residual(fields.WaveField.zeros(GRID, MASS), ext, 1e-3) == 0.0


def test_gauge_covariance(psi, ext):
    # chi small enough that the truncation tail of the non-band-limited
    # phase factor stays below the RK4 error at this grid size
    x = fields.coordinates(GRID)
    chi = 0.05 * np.cos(x[0]) + 0.035 * np.sin(x[1])
    dt = 0.02
    dev = em.gauge_covariance_deviation(psi, ext, chi, 0.2, dt)
    # integrator self-error of the same run bounds the acceptable deviation
    a = em.evolve_em(psi, ext, 0.2, dt).final.data
    b = em.evolve_em(psi, ext, 0.2, dt / 2).final.data
    self_err = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert dev <= max(4.0 * self_err, 1e-9)


def test_landau_free_case_lowest_is_mass_squared():
    lv = em.landau_spectrum(12, 1, MASS, 0.0)
    assert abs(lv.e_squared[0] - MASS**2) <= 1e-12
    assert lv.eB == 0.0


def test_landau_clusters_at_16():
    lv = em.landau_spectrum(16, 1, MASS, 1.0)
    assert abs(lv.eB - 1.0 / (2.0 * np.pi)) <= 1e-15
    analysis = em.landau_cluster_analysis(lv)
    assert analysis["all_passed"]
    assert abs(analysis["sigma_splitting_over_eB"] - 1.0) <= 0.05
    for check in analysis["level_checks"]:
        assert check["passed"]


def _dense_landau_e_squared(n, flux_quanta, m, e, box=2.0 * np.pi):
    """Reference: the 6n^2 x 6n^2 lattice Hamiltonian px (x) a1 + py (x) a2
    + m 1 (x) b, hops built site by site, diagonalized densely."""
    h = box / n
    b_field = 2.0 * np.pi * flux_quanta / (e * box * box) if e != 0.0 else 0.0
    ms = algebra.matrix_set()
    a1, a2 = ms.a[:2]
    nn = n * n
    tx = np.zeros((nn, nn), dtype=complex)
    ty = np.zeros((nn, nn), dtype=complex)
    for i in range(n):
        for j in range(n):
            s = i * n + j
            ph_x = np.exp(-1j * e * b_field * box * (j * h)) if i == n - 1 else 1.0
            tx[s, ((i + 1) % n) * n + j] += ph_x
            ty[s, i * n + (j + 1) % n] += np.exp(1j * e * b_field * (i * h) * h)
    px = -1j * (tx - tx.conj().T) / (2.0 * h)
    py = -1j * (ty - ty.conj().T) / (2.0 * h)
    ham = np.kron(px, a1) + np.kron(py, a2) + m * np.kron(np.eye(nn), ms.b)
    ev = np.linalg.eigvalsh(ham)
    return np.sort(ev * ev)


@pytest.mark.parametrize("n,flux", [(4, 1), (12, 1), (12, 2)])
@pytest.mark.parametrize("m,e", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.3, 2.0)])
def test_landau_matches_dense_oracle(n, flux, m, e):
    lv = em.landau_spectrum(n, flux, m, e)
    ref = _dense_landau_e_squared(n, flux, m, e)
    e2 = lv.e_squared
    assert e2.shape == (6 * n * n,)
    assert np.all(np.diff(e2) >= 0) and e2[0] >= 0
    assert np.max(np.abs(e2 - ref)) <= 1e-12 * np.max(ref)
    # the kernel sector of K sits at m^2: 2n^2 levels; at e = 0 every zero
    # mode of the free px^2 + py^2 (sin(k h) = 0 on both axes: k = 0 and,
    # for even n, the Nyquist mode) adds its 4 levels there too
    zero_modes = 0 if e != 0.0 else (2 if n % 2 == 0 else 1) ** 2
    expected = 2 * n * n + 4 * zero_modes
    assert np.count_nonzero(np.abs(e2 - m**2) <= 1e-12) == expected
    assert np.count_nonzero(np.abs(ref - m**2) <= 1e-12) == expected


def test_landau_flux_validation():
    with pytest.raises(ValueError):
        em.landau_spectrum(8, 0, MASS, 1.0)


def test_dealias_mask_cuts_upper_third():
    m = em.dealias_mask(GRID)
    idx = np.rint(np.fft.fftfreq(16) * 16).astype(int)
    assert m[np.abs(idx) == 5, 0, 0].all() == True  # 3*5 < 16
    assert not m[np.abs(idx) == 6, 0, 0].any()  # 3*6 >= 16


# Oracle: the unfused composition the sandwich kernel replaced.  Each
# multiplication truncates, multiplies and truncates in its own round trip
# through real space on the full grid, with potentials it truncates itself,
# and the free a.p part has its own k x kernel.


def _dealiased(ext, arr):
    return fields.ifftn(fields.fftn(arr.astype(complex)) * em.dealias_mask(ext.grid)).real


def _oracle_sandwich_cross(ext, stack6_dealiased_hat):
    din = fields.ifftn(stack6_dealiased_hat)
    avec_d = _dealiased(ext, ext.avec)
    out = np.empty_like(din)
    out[:3] = np.cross(avec_d, din[3:], axisa=0, axisb=0, axisc=0)
    out[3:] = -np.cross(avec_d, din[:3], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * em.dealias_mask(ext.grid))


def _oracle_a_pi(psi_stack, ext):
    k = fields.wavevectors(ext.grid)
    sh = fields.fftn(psi_stack)
    free = np.empty_like(sh)
    free[:3] = np.cross(k, sh[3:], axisa=0, axisb=0, axisc=0)
    free[3:] = -np.cross(k, sh[:3], axisa=0, axisb=0, axisc=0)
    out = fields.ifftn(free)
    if ext.charge != 0.0:
        out -= ext.charge * _oracle_sandwich_cross(ext, sh * em.dealias_mask(ext.grid))
    return out


def _oracle_mul_scalar_sandwich(ext, scalar_d, arr):
    m = em.dealias_mask(ext.grid)
    din = fields.ifftn(fields.fftn(arr) * m)
    return fields.ifftn(fields.fftn(scalar_d * din) * m)


def _oracle_generator(psi_stack, ext, mass):
    out = _oracle_a_pi(psi_stack, ext)
    out[:3] += mass * psi_stack[:3]
    out[3:] -= mass * psi_stack[3:]
    if ext.charge != 0.0:
        out += ext.charge * _oracle_mul_scalar_sandwich(ext, _dealiased(ext, ext.phi), psi_stack)
    return out


def _oracle_pi_vector(ext, f):
    k = fields.wavevectors(ext.grid)
    out = fields.ifftn(k * fields.fftn(f)[None])
    if ext.charge != 0.0:
        out -= ext.charge * _oracle_mul_scalar_sandwich(ext, _dealiased(ext, ext.avec), f[None])
    return out


def _oracle_pi_dot(ext, w):
    k = fields.wavevectors(ext.grid)
    out = fields.ifftn(np.sum(k * fields.fftn(w), axis=0))
    if ext.charge != 0.0:
        products = _oracle_mul_scalar_sandwich(ext, _dealiased(ext, ext.avec), w)
        out -= ext.charge * np.sum(products, axis=0)
    return out


def _oracle_sigma_dot_h(ext, stack):
    m = em.dealias_mask(ext.grid)
    din = fields.ifftn(fields.fftn(stack) * m)
    hvec_d = _dealiased(ext, fields.curl(ext.grid, ext.avec).real)
    out = np.empty_like(din)
    out[:3] = 1j * np.cross(hvec_d, din[:3], axisa=0, axisb=0, axisc=0)
    out[3:] = 1j * np.cross(hvec_d, din[3:], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * m)


def _oracle_a_dot_e(ext, stack):
    m = em.dealias_mask(ext.grid)
    din = fields.ifftn(fields.fftn(stack) * m)
    evec_d = _dealiased(ext, -fields.gradient(ext.grid, ext.phi).real)
    out = np.empty_like(din)
    out[:3] = np.cross(evec_d, din[3:], axisa=0, axisb=0, axisc=0)
    out[3:] = -np.cross(evec_d, din[:3], axisa=0, axisb=0, axisc=0)
    return fields.ifftn(fields.fftn(out) * m)


def _oracle_rk4_step(stack, ext, mass, dt):
    def rhs(s):
        return -1j * _oracle_generator(s, ext, mass)

    k1 = rhs(stack)
    k2 = rhs(stack + 0.5 * dt * k1)
    k3 = rhs(stack + 0.5 * dt * k2)
    k4 = rhs(stack + dt * k3)
    return stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


ANISO = fields.Grid(8, 10, 12, 5.0, 6.5, 8.0)


@pytest.fixture(scope="module")
def ext_aniso():
    ext_a = em.random_smooth_external(ANISO, 0.5, seed=21, amplitude=0.2, nmax=1)
    assert np.max(np.abs(ext_a.phi)) > 0 and np.max(np.abs(ext_a.avec)) > 0
    return ext_a


def _white_noise(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# Anisotropic bandwidth: terms along z only, (0, 0, 2).
ONE_AXIS = {"phi_terms": [{"n": [0, 0, 2], "cos": 0.2, "sin": -0.1}],
            "a_terms": [{"n": [0, 0, 1], "sin": 0.3, "component": "x"},
                        {"n": [0, 0, 2], "cos": 0.2, "component": 1}]}


def _beyond_band(grid):
    """Terms in the band, at its edge K and at K + 1 on every axis, so the
    bandwidth exceeds the band."""
    k = [(n - 1) // 3 for n in grid.shape]
    k1 = [b + 1 for b in k]
    return em.ExternalField.from_fourier_series(
        grid, 0.5,
        [{"n": [1, 1, 0], "cos": 0.2}, {"n": k, "sin": 0.15}, {"n": k1, "cos": 0.1}],
        [{"n": [0, k1[1], 1], "sin": 0.2, "component": "x"},
         {"n": [1, 0, 1], "cos": 0.15, "component": "y"},
         {"n": [k[0], 0, -k1[2]], "cos": 0.1, "component": "z"}])


UNIFORM_PHI, UNIFORM_A = 0.2, np.array([0.3, -0.2, 0.1])


def _uniform(grid, a0, charge=0.5):
    """Constant potentials Phi = UNIFORM_PHI and A = a0: bandwidth 0."""
    return em.ExternalField(grid, charge, np.full(grid.shape, UNIFORM_PHI),
                            np.broadcast_to(a0[:, None, None, None], (3, *grid.shape)).copy())


def _field(name, grid):
    """The fields the product grid is checked with: random of nmax 1 and 2,
    terms along one axis, the zero field at e != 0, the nmax 1 field built
    from its arrays, terms beyond the band, and uniform potentials."""
    def random(nmax):
        return em.random_smooth_external(grid, 0.5, seed=21, amplitude=0.2, nmax=nmax)

    return {
        "nmax1": lambda: random(1),
        "nmax2": lambda: random(2),
        "one-axis": lambda: em.ExternalField.from_fourier_series(grid, 0.5, **ONE_AXIS),
        "zero": lambda: em.ExternalField.zero(grid, 0.5),
        "from-arrays": lambda: em.ExternalField(grid, 0.5, random(1).phi, random(1).avec),
        "beyond-band": lambda: _beyond_band(grid),
        "uniform": lambda: _uniform(grid, UNIFORM_A),
    }[name]()


@pytest.mark.parametrize(
    "mass, field, grid",
    [(0.0, "nmax1", ANISO), (1.0, "nmax1", ANISO), (1.0, "nmax2", ANISO),
     (1.0, "one-axis", ANISO), (1.0, "zero", ANISO), (1.0, "from-arrays", ANISO),
     (1.0, "beyond-band", ANISO), (1.0, "nmax2", fields.Grid.cubic(8))],
    ids=["0.0", "1.0", "nmax2", "one-axis", "zero-charged", "from-arrays", "beyond-band",
         "nmax2-8"])
def test_fused_operators_match_unfused_oracle(mass, field, grid):
    # white noise carries the k = 0, Nyquist and above-band modes; the
    # oracle forms every product on the full grid, the operators on the
    # product grids of test_product_grid_shapes, and on 8^3 at nmax 2 on
    # the grid itself
    ext = _field(field, grid)
    if grid != ANISO:
        assert ext.product_shape == grid.shape
    stack = _white_noise((6, *grid.shape), 1)
    f = _white_noise(grid.shape, 2)
    w = _white_noise((3, *grid.shape), 3)
    pairs = [
        (em.apply_total_generator(stack, ext, mass), _oracle_generator(stack, ext, mass)),
        (_h_a(stack, ext, 0.0), _oracle_a_pi(stack, ext)),
        (em.pi_vector(ext, f), _oracle_pi_vector(ext, f)),
        (em.pi_dot(ext, w), _oracle_pi_dot(ext, w)),
        (fields.ifftn(em._sigma_dot_h(ext, fields.fftn(stack), 1.0)), _oracle_sigma_dot_h(ext, stack)),
        (fields.ifftn(em._a_dot_e(ext, fields.fftn(stack), 1.0)), _oracle_a_dot_e(ext, stack)),
    ]
    # one step of a run: the band against the oracle's RK4, the rest, which
    # the coupling leaves alone, against the free closed form
    dt = 0.5 * em.stability_bound(grid, mass, ext)
    prop = dynamics.FreePropagator(grid, mass)
    sh = fields.fftn(stack)
    sh = em._advance(sh, ext, prop, dt, 1, np.empty_like(sh))
    band = em.dealias_mask(grid)
    rk4 = fields.fftn(_oracle_rk4_step(stack, ext, mass, dt))
    exact = prop.evolve_spectrum(fields.fftn(stack), dt)
    pairs.append((fields.ifftn(sh * band), fields.ifftn(rk4 * band)))
    pairs.append((fields.ifftn(sh * ~band), fields.ifftn(exact * ~band)))
    for new, old in pairs:  # relative error <= 1e-13, or both zero (the zero field)
        assert np.linalg.norm(new - old) <= 1e-13 * np.linalg.norm(old)

    # the band cores on band stacks: their band modes are the full-grid
    # operators' bit for bit, and match the oracle's band
    sh, fh, wh = fields.fftn(stack), fields.fftn(f), fields.fftn(w)

    def band(x):
        return em._band_stack(ext.grid, x)

    cores = [
        (em._generator_spectrum(band(sh), ext, mass),
         em._generator_spectrum(sh, ext, mass), _oracle_generator(stack, ext, mass)),
        (em._h_a_spectrum(band(sh), ext, 0.0), em._h_a_spectrum(sh, ext, 0.0),
         _oracle_a_pi(stack, ext)),
        (em._pi_vector_spectrum(ext, band(fh)), em._pi_vector_spectrum(ext, fh),
         _oracle_pi_vector(ext, f)),
        (em._pi_dot_spectrum(ext, band(wh)), em._pi_dot_spectrum(ext, wh),
         _oracle_pi_dot(ext, w)),
        (em._sigma_dot_h(ext, band(sh), 1.0), em._sigma_dot_h(ext, sh, 1.0),
         _oracle_sigma_dot_h(ext, stack)),
    ]
    for core, full, oracle in cores:
        assert np.array_equal(core, band(full))
        want = band(fields.fftn(oracle))
        assert np.linalg.norm(core - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("grid, field", [
    (ANISO, "nmax1"), (fields.Grid(4, 10, 6, 5.0, 6.5, 8.0), "nmax1"),
    (fields.Grid.cubic(8), "nmax2"),  # the product grid is the grid
], ids=["aniso", "4-point-axis", "nmax2-8"])
def test_band_stack_holds_the_band(grid, field):
    # a band stack is the band's own modes, 2K_i + 1 per axis (odd, the grid
    # even), every one of them written; embedded into zeros it is the
    # dealiased spectrum exactly
    ext = _field(field, grid)
    x = fields.fftn(_white_noise((6, *grid.shape), 4))
    s = em._band_stack(ext.grid, x)
    assert s.shape == (6, *(2 * ((n - 1) // 3) + 1 for n in grid.shape))
    filled = em._copy_modes(x, np.full(s.shape, np.nan, complex), em._band(grid))
    assert not np.isnan(filled).any()
    assert np.array_equal(filled, s)
    assert np.array_equal(em._copy_modes(s, np.zeros_like(x), em._band(grid)),
                          x * em.dealias_mask(grid))


@pytest.mark.parametrize("grid, field, bandwidth, shape", [
    (fields.Grid.cubic(24), "nmax1", (1, 1, 1), (16, 16, 16)),
    (fields.Grid.cubic(32), "nmax1", (1, 1, 1), (24, 24, 24)),
    (ANISO, "nmax1", (1, 1, 1), (6, 8, 8)),
    (ANISO, "nmax2", (2, 2, 2), (8, 9, 9)),
    (ANISO, "one-axis", (0, 0, 2), (5, 8, 9)),
    (ANISO, "zero", (0, 0, 0), (5, 8, 8)),
    (ANISO, "from-arrays", (1, 1, 1), (6, 8, 8)),
    (ANISO, "beyond-band", (3, 4, 4), (8, 10, 10)),  # K_A > K: 3K + 1 points rounded up
    (fields.Grid.cubic(12), "beyond-band", (4, 4, 4), (10, 10, 10)),
], ids=["24-nmax1", "32-nmax1", "aniso-nmax1", "aniso-nmax2", "aniso-one-axis", "aniso-zero",
        "aniso-from-arrays", "aniso-beyond-band", "12-beyond-band"])
def test_product_grid_shapes(grid, field, bandwidth, shape):
    # per axis N' = min(N, smallest 2^a 3^b 5^c >= 2K + min(K_A, K) + 1),
    # K = (N - 1) // 3, with the bandwidth K_A measured from the potentials
    ext = _field(field, grid)
    assert ext.bandwidth == bandwidth
    assert ext.product_shape == shape
    for name, lead in (("phi", ()), ("avec", (3,)), ("evec", (3,)), ("hvec", (3,))):
        assert getattr(ext, name + "_p").shape == (*lead, *shape)


def test_bandwidth_counts_modes_above_roundoff():
    # per axis the largest |n_i| of a mode of phi or of avec above 1e-12 of
    # that potential's largest coefficient; smaller modes are roundoff
    def mode(n):
        return em.ExternalField.from_fourier_series(GRID, 0.5, [{"n": n, "cos": 0.3}]).phi

    zero = np.zeros(GRID.shape)
    for size, bandwidth in ((1e-14, (0, 0, 2)), (1e-10, (5, 0, 2))):
        f = mode([0, 0, 2]) + size * mode([5, 0, 0])
        assert em.ExternalField(GRID, 0.5, f, np.stack([zero] * 3)).bandwidth == bandwidth
        assert em.ExternalField(GRID, 0.5, zero, np.stack([f, zero, f])).bandwidth == bandwidth
    small_avec = 1e-6 * np.stack([mode([0, 3, 0]), zero, zero])
    assert em.ExternalField(GRID, 0.5, mode([0, 0, 2]), small_avec).bandwidth == (0, 3, 2)


@pytest.mark.parametrize("terms", [
    {"phi_terms": [{"n": [0.5, 0, 0], "cos": 0.1}]},
    {"a_terms": [{"n": [0, 1, 0], "sin": 0.1, "component": "x"},
                 {"n": [0, 0, 1e-3], "sin": 0.1, "component": 0}]},
    {"phi_terms": [{"n": [1, 0], "cos": 0.1}]},
    {"phi_terms": [{"n": [1, float("nan"), 0], "cos": 0.1}]},
    {"a_terms": [{"n": [0, 1, 0], "sin": 0.1, "component": True}]},
    {"a_terms": [{"n": [0, 1, 0], "sin": 0.1, "component": 1.0}]},
    {"a_terms": [{"n": [0, 1, 0], "sin": 0.1, "component": "w"}]},
    {"a_terms": [{"n": [0, 1, 0], "sin": 0.1, "component": 3}]},
], ids=["n-half-integer", "n-small-fraction", "n-short", "n-nan", "component-bool",
        "component-float", "component-unknown-name", "component-out-of-range"])
def test_fourier_series_rejects_bad_terms(terms):
    # a fractional mode is not periodic on the box (n = 0.5 jumps by 0.38 at
    # the seam here) and has no bandwidth
    with pytest.raises(ValueError):
        em.ExternalField.from_fourier_series(GRID, 0.5, **terms)


@pytest.mark.parametrize("grid, field", [
    (fields.Grid(16, 12, 10, 7.0, 5.5, 4.5), "nmax1"),
    (ANISO, "nmax1"), (ANISO, "nmax2"), (ANISO, "one-axis"), (ANISO, "zero"),
    (ANISO, "beyond-band"),  # N' = N
    (fields.Grid.cubic(14), "uniform"),  # N' = 9 = 2K + 1: no plane off the band
], ids=["16x12x10", "aniso-nmax1", "aniso-nmax2", "aniso-one-axis", "aniso-zero",
        "aniso-beyond-band", "14-uniform"])
def test_rk4_step_in_place_matches_formula_bit_for_bit(grid, field):
    # the step on a band stack is the band of the full-grid formula
    ext_a = _field(field, grid)
    sh = fields.fftn(_white_noise((6, *grid.shape), 6))
    dt = 0.5 * em.stability_bound(grid, MASS, ext_a)

    def rhs(s):
        return -1j * em._generator_spectrum(s, ext_a, MASS)

    k1 = rhs(sh)
    k2 = rhs(sh + 0.5 * dt * k1)
    k3 = rhs(sh + 0.5 * dt * k2)
    k4 = rhs(sh + dt * k3)
    want = sh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = em._band_stack(ext_a.grid, sh)
    assert em._rk4_step(got, ext_a, MASS, dt, work=em._rk4_work(ext_a)) is got
    assert np.array_equal(got, em._band_stack(ext_a.grid, want))


def test_evolve_em_matches_allocating_steps_bit_for_bit():
    # the run lends its spare stack to every advance and records its states
    # from the same stack; nothing an advance or record leaves in it may
    # reach the next.  Records at steps 0, 3, 6, 7: advances of 3, 3 and 1
    # steps, here each with a spare of its own.
    grid = fields.Grid(16, 12, 10, 7.0, 5.5, 4.5)
    ext_a = em.random_smooth_external(grid, 0.5, seed=21, amplitude=0.2, nmax=1)
    psi_a = fields.random_wave_field(grid, MASS, 2.0, seed=8, transverse=True)
    dt, n_steps, stride = 0.5 * em.stability_bound(grid, MASS, ext_a), 7, 3
    run = em.evolve_em(psi_a, ext_a, n_steps * dt, dt, diag_stride=stride)

    sh = fields.fftn(psi_a.data)
    prop = dynamics.FreePropagator(grid, MASS)
    want, step = [], 0
    for next_step in (0, 3, 6, 7):
        if next_step > step:
            sh = em._advance(sh, ext_a, prop, dt, next_step - step, np.empty_like(sh))
        step = next_step
        state = fields.WaveField(grid, fields.ifftn(sh), MASS, step * dt)
        want.append(em._em_diagnostics(state, sh, ext_a))
    assert np.array_equal(run.final.data, state.data)
    assert run.final.time == state.time
    assert [r.csv_row() for r in run.records] == [r.csv_row() for r in want]


def test_evolve_em_splits_band_and_complement(monkeypatch, ext_aniso):
    # white noise carries real content off the band.  Over one record span
    # the band takes the RK4 steps on its band stack, in place, bit for bit;
    # the rest moves by the free closed form over the span, bit for bit.
    psi_n = fields.WaveField(ANISO, _white_noise((6, *ANISO.shape), 9), MASS)
    dt, n_steps = 0.5 * em.stability_bound(ANISO, MASS, ext_aniso), 5
    steps, spectra = [], []
    rk4_step, diagnostics = em._rk4_step, em._em_diagnostics

    def checked_step(s, *args, **kwargs):
        steps.append(rk4_step(s, *args, **kwargs) is s and s.shape == (6, *em._band_shape(ANISO)))
        return s

    def captured(state, sh, ext):
        spectra.append(sh.copy())
        return diagnostics(state, sh, ext)

    monkeypatch.setattr(em, "_rk4_step", checked_step)
    monkeypatch.setattr(em, "_em_diagnostics", captured)
    em.evolve_em(psi_n, ext_aniso, n_steps * dt, dt, diag_stride=n_steps)
    monkeypatch.undo()
    assert steps == [True] * n_steps

    sh0 = fields.fftn(psi_n.data)
    band = em._band_stack(ext_aniso.grid, sh0)
    for _ in range(n_steps):
        em._rk4_step(band, ext_aniso, MASS, dt, work=em._rk4_work(ext_aniso))
    mask = em.dealias_mask(ANISO)
    assert np.array_equal(em._band_stack(ext_aniso.grid, spectra[-1]), band)
    exact = dynamics.FreePropagator(ANISO, MASS).evolve_spectrum(sh0, n_steps * dt)
    assert np.array_equal(spectra[-1][:, ~mask], exact[:, ~mask])
    assert np.linalg.norm(exact[:, ~mask]) > 0.5 * np.linalg.norm(exact)


# Exact coupled reference: constant Phi and A.  The sandwich of a constant is
# diagonal in k, so on the band H_A + e Phi is H(k - eA) + e Phi per mode;
# off the band it is H(k).  A uniform A is no pure gauge here (e A_i L_i is
# not a multiple of 2 pi), so the reference checks the coupling itself.
EXACT_GRID = fields.Grid.cubic(12)


@pytest.fixture(scope="module", params=[0.0, 1.0])
def exact_case(request):
    """The uniform potentials and a state of mass 0 or 1."""
    return (_uniform(EXACT_GRID, UNIFORM_A),
            fields.random_wave_field(EXACT_GRID, request.param, 2.0, seed=5))


def _shifted_hamiltonians(a0, mass, charge=0.5):
    """H(k - e a0) + e Phi per band mode of EXACT_GRID, shape (modes, 6, 6),
    from the algebra's matrices."""
    k = fields.wavevectors(EXACT_GRID)[:, em.dealias_mask(EXACT_GRID)] - charge * a0[:, None]
    return algebra.hamiltonian_symbol(k.T, mass) + charge * UNIFORM_PHI * np.eye(6)


def _exact_uniform(sh, a0, t, mass):
    """exp(-i (H_A + e Phi) t) on the spectrum sh for the uniform potentials
    with A = a0: per-mode eigh of H(k - eA) + e Phi on the band, the free
    closed form on the rest."""
    out = dynamics.FreePropagator(EXACT_GRID, mass).evolve_spectrum(sh, t)
    band = em.dealias_mask(EXACT_GRID)
    w, v = np.linalg.eigh(_shifted_hamiltonians(a0, mass))
    u = np.einsum("mab,mb,mcb->mac", v, np.exp(-1j * w * t), v.conj())
    out[:, band] = np.einsum("mab,bm->am", u, sh[:, band])
    return out


def test_uniform_generator_is_the_shifted_symbol(exact_case):
    # measured 1.2e-16 (m = 0) and 1.1e-16 (m = 1) relative; off the band the
    # generator is H(k) exactly
    ext_u, psi_u = exact_case
    sh = fields.fftn(psi_u.data)
    band = em.dealias_mask(EXACT_GRID)
    got = em._generator_spectrum(sh, ext_u, psi_u.mass)
    want = dynamics._hamiltonian_symbol(fields.wavevectors(EXACT_GRID), psi_u.mass, sh)
    assert np.array_equal(got[:, ~band], want[:, ~band])
    want[:, band] = np.einsum("mab,bm->am", _shifted_hamiltonians(UNIFORM_A, psi_u.mass),
                              sh[:, band])
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def _rk4_error(exact_case, dt, a0):
    ext_u, psi_u = exact_case
    got = em.evolve_em(psi_u, ext_u, 1.0, dt).final.data
    want = fields.ifftn(_exact_uniform(fields.fftn(psi_u.data), a0, 1.0, psi_u.mass))
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_rk4_global_error_against_exact_uniform_reference(exact_case):
    # measured at t = 1: 2.6e-7, 1.6e-8, 1.0e-9 at m = 1 (the stability bound
    # is 0.043) and 1.0e-7, 6.3e-9, 3.9e-10 at m = 0; each halving of dt
    # divides the error by 16
    errors = [_rk4_error(exact_case, dt, UNIFORM_A) for dt in (0.04, 0.02, 0.01)]
    for error, bound in zip(errors, (4e-7, 2.5e-8, 1.5e-9)):
        assert error <= bound
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 <= np.log2(coarse / fine) <= 4.1


def test_uniform_case_is_hermitian_and_projects(exact_case):
    # measured: hermiticity 4.7e-16 (m = 0) and 1.3e-15 (m = 1); the
    # projection, which the mass does not enter, takes 14 + 14 CG
    # iterations and leaves max|pi.w| at 7.7e-11 of max|w|
    ext_u, psi_u = exact_case
    assert em.hermiticity_check(ext_u, psi_u.mass, trials=2, seed=1).all_passed
    proj = em.covariant_project(psi_u, ext_u).field
    assert proj.mass == psi_u.mass
    for block in (slice(0, 3), slice(3, 6)):
        pi_w = em.pi_dot(ext_u, proj.data[block])
        assert np.max(np.abs(pi_w)) <= 1e-9 * np.max(np.abs(psi_u.data[block]))


def test_exact_uniform_reference_without_a_misses(exact_case):
    # negative control: the reference with A = 0 keeps Phi but drops the
    # momentum shift, and misses the run by 0.13, far above the RK4 error
    assert _rk4_error(exact_case, 0.01, 0.0 * UNIFORM_A) >= 1e-2


def test_pi_vector_adjoint_of_pi_dot(ext_aniso):
    f = _white_noise(ANISO.shape, 4)
    w = _white_noise((3, *ANISO.shape), 5)
    lhs = complex(np.vdot(w, em.pi_vector(ext_aniso, f)))
    rhs = complex(np.vdot(em.pi_dot(ext_aniso, w), f))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_zero_charge_record_equals_free_record(mass):
    # one record body serves both systems: with no field the coupled record
    # is the free one
    psi_a = fields.random_wave_field(ANISO, mass, 2.0, seed=7)  # not transverse
    sh = fields.fftn(psi_a.data)
    free = dynamics.diagnostics(psi_a, sh=sh)
    coupled = em._em_diagnostics(psi_a, sh, em.ExternalField.zero(ANISO))
    for name in ("total_probability", "energy", "div_u_res", "div_v_res", "continuity_res"):
        a, b = getattr(free, name), getattr(coupled, name)
        assert abs(a - b) <= 1e-13 * abs(a), name
    assert np.all(np.abs(coupled.total_current - free.total_current)
                  <= 1e-13 * np.abs(free.total_current))


def test_coupled_fft_counts(fft_transforms, monkeypatch, psi, ext):
    stack = psi.data
    sh = fields.fftn(stack)
    fft_transforms.clear()
    em.apply_total_generator(stack, ext, MASS)
    assert sum(fft_transforms) <= 24
    fft_transforms.clear()
    band = em._band_stack(ext.grid, sh)
    fft_transforms.clear()
    em._rk4_step(band, ext, MASS, 0.01, work=em._rk4_work(ext))
    assert sum(fft_transforms) <= 48
    fft_transforms.clear()
    em.pi_vector(ext, stack[0])
    assert sum(fft_transforms) <= 8
    fft_transforms.clear()
    em.pi_dot(ext, stack[:3])
    assert sum(fft_transforms) <= 8
    fft_transforms.clear()
    em.hermiticity_check(ext, MASS, trials=1, seed=1)
    assert sum(fft_transforms) <= 48
    fft_transforms.clear()
    em.squared_hamiltonian_check(ext, MASS, trials=1, seed=1)
    assert sum(fft_transforms) <= 84

    # a CG solve's set-up costs the same at any iteration cap, so the
    # difference between two capped solves is the cost of the iterations
    monkeypatch.setattr(em, "_PROJECTION_TOL", 1e-300)

    def transforms_until_cap(maxiter):
        monkeypatch.setattr(em, "_PROJECTION_MAXITER", maxiter)
        fft_transforms.clear()
        with pytest.raises(NoConvergence):
            em.covariant_project(psi, ext)
        return sum(fft_transforms)

    assert (transforms_until_cap(5) - transforms_until_cap(2)) / 3 <= 9



def test_zero_coupling_costs_no_product_transform(fft_transforms):
    """At e = 0 every coupled product is skipped in _sandwich: the checks
    make only the grid's transforms."""
    ext = em.random_smooth_external(GRID, 0.0, seed=11, amplitude=0.2, nmax=1)
    fft_transforms.clear()
    em.constrained_square_check(ext, 1.0, trials=2, seed=3)
    assert sum(fft_transforms) == 68  # 116 with the field-strength products
    psi = fields.random_wave_field(GRID, 1.0, 1.5, seed=5, transverse=True, kmax=2.0)
    psi = em.covariant_project(psi, ext).field
    fft_transforms.clear()
    em.second_order_residual(psi, ext, 0.02)
    assert sum(fft_transforms) == 6  # the transform of psi0; 30 with the products

def test_external_field_build(fft_transforms, ext):
    # E and H come from the spectra the build holds and exist only on the
    # product grid: 14 scalar transforms, 4 forward, 10 onto the product
    # grid; their values there are checked against fields.gradient and
    # fields.curl by the Sigma.H and a.E oracles of
    # test_fused_operators_match_unfused_oracle
    fft_transforms.clear()
    em.ExternalField(GRID, ext.charge, ext.phi, ext.avec)
    assert sum(fft_transforms) == 14


# At charge 1e200 the coupling overflows: every check that meets it must
# fail or raise, never report a residual it could not measure.
def _overflowing():
    return em.random_smooth_external(fields.Grid.cubic(8), 1e200, seed=1)


def test_worst_and_least_keep_nan():
    assert math.isnan(reports.worst([0.0, math.nan]))
    assert math.isnan(reports.least([math.inf, math.nan]))
    assert reports.worst([]) == 0.0 and reports.least([]) == math.inf
    rep = reports.ResidualReport()
    rep.add_upper("upper", math.nan, 1.0)
    rep.add_lower("control", math.nan, 1.0)
    assert [c.passed for c in rep.checks] == [False, False]


def test_squared_check_fails_on_overflow():
    # the parent's Python max dropped the NaN trials and reported 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rep = em.squared_hamiltonian_check(_overflowing(), 0.0, trials=2, seed=1)
    assert math.isnan(rep.value("squared_hamiltonian_identity"))
    assert not rep.all_passed


def test_projection_stops_at_a_non_finite_residual(fft_transforms, monkeypatch):
    # a NaN residual fails every stopping test, so the CG ran to its cap and
    # raised NoConvergence; it must stop within its first iteration
    grid = fields.Grid.cubic(8)
    psi8 = fields.random_wave_field(grid, MASS, 2.0, seed=3)
    ext_ok, ext_big = em.random_smooth_external(grid, 0.5, seed=1), _overflowing()
    fft_transforms.clear()
    with monkeypatch.context() as capped, pytest.raises(NoConvergence):
        capped.setattr(em, "_PROJECTION_TOL", 1e-300)
        capped.setattr(em, "_PROJECTION_MAXITER", 1)
        em.covariant_project(psi8, ext_ok)
    one_iteration = sum(fft_transforms)
    fft_transforms.clear()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
        em.covariant_project(psi8, ext_big)
    assert sum(fft_transforms) <= one_iteration


@pytest.mark.parametrize("grid", [GRID, ANISO], ids=["16", "aniso"])
def test_projection_off_the_band_is_exact(grid):
    # off the band pi.pi is |k|^2 of the Nyquist-zeroed wavevectors, so a
    # state with no band modes (Nyquist planes included) is solved by
    # division: no CG iteration, and the free transverse projection
    ext_g = em.random_smooth_external(grid, 0.5, seed=11, amplitude=0.2, nmax=1)
    off = ~em.dealias_mask(grid)
    psi_off = fields.WaveField(grid, fields.ifftn(fields.fftn(_white_noise((6, *grid.shape), 12))
                                                  * off), MASS)
    res = em.covariant_project(psi_off, ext_g)
    assert res.iterations == (0, 0)
    ref = fields.project_constraints(psi_off)
    assert np.max(np.abs(res.field.data - ref.data)) <= 1e-14 * np.max(np.abs(psi_off.data))


def test_draws_lie_in_the_band():
    # the checks keep only a draw's band.  random_wave_field cuts its modes
    # at a quarter of the smallest Nyquist wavenumber, inside the band edge
    # min_i 2 pi K_i / L_i on every box, so the band drops only roundoff,
    # also where an axis of 6 points brings the two closest (3/4); the
    # draws keep random_wave_field's bits
    cubic = fields.Grid.cubic(16)
    drawn = em._draw(em.ExternalField.zero(cubic, 0.5), MASS, np.random.default_rng(3))
    assert np.array_equal(drawn.data, fields.random_wave_field(cubic, MASS, 2.0, 3).data)
    for grid in (ANISO, fields.Grid(6, 32, 8, 1.0, 1.0, 1.0),
                 fields.Grid(4, 24, 64, 0.5, 3.0, 30.0)):
        edge = min(2 * np.pi * ((n - 1) // 3) / length
                   for n, length in zip(grid.shape, (grid.lx, grid.ly, grid.lz)))
        assert 0.25 * fields.nyquist_wavenumber(grid) <= edge
        sh = fields.fftn(em._draw(em.ExternalField.zero(grid, 0.5), MASS,
                                  np.random.default_rng(5)).data)
        assert np.linalg.norm(sh[:, ~em.dealias_mask(grid)]) <= 1e-15 * np.linalg.norm(sh)


def test_constrained_check_reports_cg_telemetry(ext):
    rep = em.constrained_square_check(ext, MASS, trials=2, seed=4)
    assert int(rep.notes["cg_max_iterations"]) >= 1
    assert 0.0 < float(rep.notes["cg_max_residual"]) <= 1e-10


@pytest.mark.parametrize("check", [em.hermiticity_check, em.squared_hamiltonian_check,
                                   em.constrained_square_check])
@pytest.mark.parametrize("trials", [0, -1])
def test_identity_checks_refuse_no_trials(ext, fft_transforms, check, trials):
    # with no trial worst([]) is 0 and least([]) is inf: every bound and
    # every control would pass without a state drawn
    with pytest.raises(ValueError, match="trials"):
        check(ext, MASS, trials=trials, seed=1)
    assert not fft_transforms
