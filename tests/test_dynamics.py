import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spin1wave
from spin1wave import algebra, dynamics, em_coupling, fields
from spin1wave.dynamics import FreePropagator
from spin1wave.errors import CurrentMismatch, NonFiniteState, ScheduleError, StepTooLarge

GRID = fields.Grid.cubic(16)
MASS = 1.0


@pytest.fixture(scope="module")
def prop():
    return FreePropagator(GRID, MASS)


@pytest.fixture(scope="module")
def psi_t():
    return fields.random_wave_field(GRID, MASS, 2.0, seed=3, transverse=True)


def test_eigenmode_evolves_by_pure_phase(prop):
    # independent oracle: analytic eigenvector and eigenvalue, no eigensolver
    k = fields.mode_wavevector(GRID, (1, 2, 0))
    lam = np.hypot(np.linalg.norm(k), MASS)
    psi = fields.plane_eigenmode_field(GRID, MASS, (1, 2, 0), +1, "t1")
    out = prop.evolve(psi, 0.83)
    expected = np.exp(-1j * lam * 0.83) * psi.data
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_superposition_evolves_linearly(prop):
    m1 = fields.plane_eigenmode_field(GRID, MASS, (0, 0, 1), +1, "t1")
    m2 = fields.plane_eigenmode_field(GRID, MASS, (0, 2, 1), -1, "long")
    k1 = fields.mode_wavevector(GRID, (0, 0, 1))
    lam1 = np.hypot(np.linalg.norm(k1), MASS)
    lam2 = -MASS
    both = fields.WaveField(GRID, m1.data + m2.data, MASS)
    out = prop.evolve(both, 1.9)
    expected = np.exp(-1j * lam1 * 1.9) * m1.data + np.exp(-1j * lam2 * 1.9) * m2.data
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_zero_momentum_u_block_phase(prop):
    stack = np.zeros((6, *GRID.shape), complex)
    stack[0] = 1.0
    psi = fields.WaveField(GRID, stack, MASS)
    out = prop.evolve(psi, 0.5)
    assert np.max(np.abs(out.data[0] - np.exp(-1j * MASS * 0.5))) <= 1e-14
    # v-block rotates the other way
    stack2 = np.zeros((6, *GRID.shape), complex)
    stack2[4] = 1.0
    out2 = prop.evolve(fields.WaveField(GRID, stack2, MASS), 0.5)
    assert np.max(np.abs(out2.data[4] - np.exp(+1j * MASS * 0.5))) <= 1e-14


def test_unitarity_and_energy_conservation(prop, psi_t):
    n0, e0 = psi_t.norm(), dynamics.energy(psi_t)
    for t in (0.3, 4.0, 31.0, 100.0):
        out = prop.evolve(psi_t, t)
        assert abs(out.norm() - n0) <= 1e-13 * n0
        assert abs(dynamics.energy(out) - e0) <= 1e-13 * max(abs(e0), 1.0)


def test_constraint_preservation(prop, psi_t):
    r0 = max(fields.divergence_residuals(psi_t))
    floor = 1e-15 * dynamics.omega_max(GRID, MASS)
    for t in (1.0, 50.0):
        rt = max(fields.divergence_residuals(prop.evolve(psi_t, t)))
        assert rt <= 10.0 * max(r0, floor)


def test_density_nonnegative(prop, psi_t):
    rho = dynamics.probability_density(prop.evolve(psi_t, 17.0))
    assert rho.min() >= 0.0


def test_diagnostics_zero_field():
    rec = dynamics.diagnostics(fields.WaveField.zeros(GRID, MASS))
    assert rec.total_probability == 0.0
    assert np.all(rec.total_current == 0.0)
    assert rec.energy == 0.0


def test_current_cross_product_example():
    # u = f x-hat, v = f y-hat with real f: j = (y-hat x x-hat) f^2 = -f^2 z-hat
    x = fields.coordinates(GRID)
    f = np.cos(x[0])
    stack = np.zeros((6, *GRID.shape), complex)
    stack[0] = f
    stack[4] = f
    psi = fields.WaveField(GRID, stack, MASS)
    j = dynamics.probability_current(psi)
    assert np.max(np.abs(j[0])) <= 1e-15
    assert np.max(np.abs(j[1])) <= 1e-15
    assert np.max(np.abs(j[2] + f * f)) <= 1e-14


def test_current_matrix_and_cross_forms_agree(psi_t):
    j1 = dynamics.probability_current(psi_t)
    j2 = dynamics.probability_current_matrix_form(psi_t)
    assert np.max(np.abs(j1 - j2)) <= 1e-12 * np.max(np.abs(j1))


def test_current_matrix_form_matches_dense_einsum():
    # oracle: the full 3x6x6 contraction, zero entries included
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((6, 6, 8, 10)) + 1j * rng.standard_normal((6, 6, 8, 10))
    psi = fields.WaveField(fields.Grid(6, 8, 10, 3.0, 4.5, 7.0), stack, MASS)
    a_stack = algebra.matrix_set().a_stack()
    dense = 0.5 * np.einsum("kij,i...,j...->k...", a_stack, stack.conj(), stack).real
    got = dynamics.probability_current_matrix_form(psi)
    assert np.max(np.abs(got - dense)) <= 1e-15 * np.max(np.abs(dense))


def test_continuity_richardson_ratio(prop, psi_t):
    r1 = dynamics.continuity_residual(psi_t, 2e-3, prop)
    r2 = dynamics.continuity_residual(psi_t, 1e-3, prop)
    assert 3.5 <= r1 / r2 <= 4.5


def test_continuity_eigenmode_is_static(prop):
    psi = fields.plane_eigenmode_field(GRID, MASS, (0, 0, 1), +1, "t1")
    assert dynamics.continuity_residual(psi, 1e-3, prop) <= 1e-10


def test_continuity_zero_field(prop):
    assert dynamics.continuity_residual(fields.WaveField.zeros(GRID, MASS), 1e-3, prop) == 0.0


def test_continuity_step_bound(prop, psi_t):
    with pytest.raises(StepTooLarge):
        dynamics.continuity_residual(psi_t, 1.0, prop)


ANISO = fields.Grid(16, 12, 10, 7.0, 5.5, 4.5)


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_record_continuity_holds_for_band_limited_state(mass):
    # d_t rho = Im(Psi^dag H Psi) and div j are exact products of band-limited
    # fields, so the law holds to round-off (1.5e-17 seen)
    psi = fields.random_wave_field(ANISO, mass, 2.0, seed=5)
    assert dynamics.diagnostics(psi).continuity_res <= 1e-14


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_record_continuity_fails_for_white_noise(mass):
    # negative control: products of unresolved fields alias (0.27 seen)
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((6, *ANISO.shape)) + 1j * rng.standard_normal((6, *ANISO.shape))
    stack /= np.sqrt(0.5 * np.sum(np.abs(stack) ** 2) * ANISO.cell_volume)  # unit norm
    psi = fields.WaveField(ANISO, stack, mass)
    assert dynamics.diagnostics(psi).continuity_res >= 1e-2


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_hamiltonian_symbol_matches_cross_form_bit_for_bit(mass):
    k = fields.wavevectors(ANISO)
    rng = np.random.default_rng(9)
    sh = rng.standard_normal((6, *ANISO.shape)) + 1j * rng.standard_normal((6, *ANISO.shape))
    want = np.empty_like(sh)
    want[:3] = np.cross(k, sh[3:], axisa=0, axisb=0, axisc=0) + mass * sh[:3]
    want[3:] = np.cross(sh[:3], k, axisa=0, axisb=0, axisc=0) - mass * sh[3:]
    assert np.array_equal(dynamics._hamiltonian_symbol(k, mass, sh), want)


def _peak_in_stacks(call) -> float:
    """Peak memory call allocates, its output included, in units of one
    complex (6, *ANISO.shape) stack; a warm-up call fills the caches."""
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return peak / (6 * 16 * ANISO.npoints)


@pytest.mark.parametrize("kernel, bound", [
    ("fftn", 1.1), ("ifftn", 1.1), ("evolve_spectrum", 3.0), ("diagnostics", 3.0),
    ("evolve_spectrum_out", 2.0), ("rk4_step_work", 1.0)])
def test_kernel_peak_memory(kernel, bound):
    # outputs preallocated, no whole-stack temporaries; with out= or work=
    # lent, no whole stack at all
    psi = fields.random_wave_field(ANISO, MASS, 2.0, seed=5, transverse=True)
    stack = psi.data
    sh = fields.fftn(stack)
    prop = FreePropagator(ANISO, MASS)
    ext = em_coupling.random_smooth_external(ANISO, 0.5, seed=21, amplitude=0.2, nmax=1)
    out = np.empty_like(sh)
    band = em_coupling._restrict(sh, em_coupling._band(ANISO), em_coupling._product_stack(ext))
    work = [em_coupling._product_stack(ext) for _ in range(5)]
    call = {
        "fftn": lambda: fields.fftn(stack),
        "ifftn": lambda: fields.ifftn(sh),
        "evolve_spectrum": lambda: prop.evolve_spectrum(sh, 0.7),
        "diagnostics": lambda: dynamics.diagnostics(psi, sh),
        "evolve_spectrum_out": lambda: prop.evolve_spectrum(sh, 0.7, out=out),
        "rk4_step_work": lambda: em_coupling._rk4_step(band, ext, MASS, 1e-3, work=work),
    }[kernel]
    assert _peak_in_stacks(call) <= bound


def test_kgf_dichotomy(psi_t):
    res = dynamics.kgf_residual(psi_t)
    assert res.transverse_res <= 1e-12
    k2 = fields.mode_wavevector(GRID, (0, 0, 1))[2] ** 2
    assert abs(res.longitudinal_demo - k2) <= 1e-10


def test_kgf_zero_field():
    res = dynamics.kgf_residual(fields.WaveField.zeros(GRID, MASS))
    assert res.transverse_res == 0.0


def test_longitudinal_branch_frequency_independent_of_k(prop):
    # spurious branch oscillates at +-m whatever |k| is
    times = np.linspace(0.0, 2.0, 9)
    for branch, expected in ((+1, MASS), (-1, -MASS)):
        fitted = []
        for n in (1, 2, 3):
            psi = fields.plane_eigenmode_field(GRID, MASS, (0, 0, n), branch, "long")
            base = psi.data
            phases = []
            for t in times:
                out = prop.evolve(psi, float(t)).data
                phases.append(np.angle(np.vdot(base, out)))
            slope = np.polyfit(times, np.unwrap(phases), 1)[0]
            fitted.append(-slope)
        for w in fitted:
            assert abs(w - expected) <= 1e-10
        assert max(fitted) - min(fitted) <= 1e-10


def test_swap_check_zero_time(prop, psi_t):
    assert dynamics.time_reversal_swap_check(psi_t, 0.0, prop) <= 1e-15


def test_swap_check_random_time(prop, psi_t):
    assert dynamics.time_reversal_swap_check(psi_t, 1.7, prop) <= 1e-12


def test_angular_momentum_zero_field():
    assert dynamics.angular_momentum_commutator(fields.WaveField.zeros(GRID, MASS)) == 0.0


def test_angular_momentum_packet_32():
    # 32^3 is spectral-tail limited around 5e-7; the acceptance suite runs
    # the 64^3 configuration at 1e-8
    grid = fields.Grid.cubic(32)
    psi = fields.gaussian_wave_packet(grid, MASS, sigma=2 * np.pi / 12, k0=(0, 0, 1.0))
    assert dynamics.angular_momentum_commutator(psi) <= 1e-5


def test_evolve_free_matches_propagator(psi_t, prop):
    a = dynamics.evolve_free(psi_t, 0.9, 0.1).final
    b = prop.evolve(psi_t, 0.9)
    assert np.max(np.abs(a.data - b.data)) == 0.0
    assert a.time == psi_t.time + 0.9


def test_evolve_free_detects_non_finite_state():
    bad = fields.WaveField(GRID, np.full((6, *GRID.shape), np.nan, dtype=complex), MASS)
    with pytest.raises(NonFiniteState):
        dynamics.evolve_free(bad, 1.0, 0.5)


@settings(deadline=None)
@given(dt=st.floats(1e-2, 10.0), n=st.integers(0, 10_000), stride=st.integers(1, 40),
       multiple=st.booleans(), other=st.floats(0.0, 100.0))
@example(dt=10.0, n=0, stride=1, multiple=False, other=5e-324)  # t_final/dt underflows to 0
def test_record_schedule(dt, n, stride, multiple, other):
    t_final = n * dt if multiple else other
    steps, times = zip(*dynamics.record_schedule(
        t_final, dt, stride, dynamics.step_count(t_final, dt)))
    assert times[0] == 0.0 and times[-1] == t_final
    assert all(a < b <= t_final for a, b in zip(times, times[1:]))
    assert all(s % stride == 0 and t == s * dt for s, t in zip(steps[:-1], times[:-1]))
    if multiple:
        assert dynamics.step_count(t_final, dt, multiple=True) == n
        # the free loop's row count before the shared schedule: the steps
        # range(0, n + 1, stride), then t_final where they miss it
        assert len(times) == len(range(0, n + 1, stride)) + (n % stride != 0)


@pytest.mark.parametrize("t_final, dt", [(1e300, 0.1), (2.0**52, 1.0), (math.inf, 0.1),
                                         (math.nan, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
def test_step_count_refuses(t_final, dt):
    with pytest.raises(ScheduleError):
        dynamics.step_count(t_final, dt)


def test_record_schedule_is_lazy():
    n = dynamics.step_count(2.0**52 - 1, 1.0)
    assert n == 2**52 - 1
    head = itertools.islice(dynamics.record_schedule(float(n), 1.0, 1, n), 3)
    assert list(head) == [(0, 0.0), (1, 1.0), (2, 2.0)]


def eigh_evolve_stack(grid, mass, stack, t):
    """Oracle for the closed form: exp(-i H(k) t) per mode from a batched 6x6
    Hermitian eigendecomposition of H(k) built from the actual matrices."""
    ms = algebra.matrix_set()
    k = fields.wavevectors(grid).reshape(3, -1)
    hmat = np.einsum("jm,jab->mab", k, ms.a_stack()) + mass * ms.b_complex()
    evals, evecs = np.linalg.eigh(hmat)
    sh = fields.fftn(stack).reshape(6, -1).T  # (M, 6)
    coef = np.einsum("mji,mj->mi", evecs.conj(), sh) * np.exp(-1j * evals * t)
    sh = np.einsum("mij,mj->mi", evecs, coef)
    return fields.ifftn(sh.T.reshape(6, *grid.shape))


# Both routes lose about eps * omega_max * |t| of phase to round-off, so the
# largest time keeps omega_max * |t| (about 240 here, 38 periods of the
# fastest mode) well inside the 1e-13 bound.
@pytest.mark.parametrize("t", [-3.7, 0.9, 25.0])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_closed_form_matches_eigh_oracle(mass, t):
    grid = fields.Grid(6, 8, 10, 3.0, 4.5, 7.0)
    rng = np.random.default_rng(17)
    shape = (6, *grid.shape)
    # white noise: every mode, k = 0 and Nyquist included, not transverse
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = FreePropagator(grid, mass).evolve_stack(stack, t)
    want = eigh_evolve_stack(grid, mass, stack, t)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@settings(deadline=None)
@given(shape=st.tuples(*[st.integers(2, 6).map(lambda n: 2 * n)] * 3),
       lengths=st.tuples(*[st.floats(1.0, 10.0)] * 3), mass=st.just(0.0) | st.floats(0.0, 5.0),
       t=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_eigh_oracle_on_random_grids(shape, lengths, mass, t, seed):
    grid = fields.Grid(*shape, *lengths)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((6, *shape)) + 1j * rng.standard_normal((6, *shape))
    got = FreePropagator(grid, mass).evolve_stack(stack, t)
    want = eigh_evolve_stack(grid, mass, stack, t)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_fft_counts(fft_transforms, prop, psi_t):
    prop.evolve(psi_t, 0.7)
    assert sum(fft_transforms) <= 12
    fft_transforms.clear()
    dynamics.diagnostics(psi_t)
    assert sum(fft_transforms) <= 18
    sh = fields.fftn(psi_t.data)
    fft_transforms.clear()
    dynamics.diagnostics(psi_t, sh)
    assert sum(fft_transforms) <= 12  # 18 when the record transformed the state again
    ext = em_coupling.random_smooth_external(GRID, 0.5, seed=11, amplitude=0.2, nmax=1)
    fft_transforms.clear()
    em_coupling._em_diagnostics(psi_t, sh, ext)
    assert sum(fft_transforms) <= 32  # 134 with two RK4 side steps for d_t rho


def _perturbed_matrix_current(psi):
    j = dynamics.probability_current(psi)
    return j + 1e-6 * np.max(np.abs(j))


def test_current_mismatch_raises(monkeypatch, psi_t):
    monkeypatch.setattr(dynamics, "probability_current_matrix_form", _perturbed_matrix_current)
    with pytest.raises(CurrentMismatch, match="current formulas disagree"):
        dynamics.diagnostics(psi_t)


def test_current_mismatch_raises_under_python_O():
    script = (
        "import sys\n"
        "from spin1wave import dynamics, fields\n"
        "from spin1wave.errors import CurrentMismatch\n"
        "assert False, 'asserts are live'\n"
        "psi = fields.random_wave_field(fields.Grid.cubic(8), 1.0, 1.0, seed=3)\n"
        "j = dynamics.probability_current(psi)\n"
        "dynamics.probability_current_matrix_form = lambda psi: j + 1e-6\n"
        "try:\n"
        "    dynamics.diagnostics(psi)\n"
        "except CurrentMismatch:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_demo_04_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    demo = os.path.join(root, "demos", "04_free_evolution_conservation.py")
    proc = subprocess.run(
        [sys.executable, demo], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
