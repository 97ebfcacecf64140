import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spin1wave
from spin1wave import algebra, dynamics, fields
from spin1wave.dynamics import FreePropagator
from spin1wave.errors import CurrentMismatch, StepTooLarge

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
    expected = np.exp(-1j * lam * 0.83) * psi.stack()
    assert np.max(np.abs(out.stack() - expected)) <= 1e-12


def test_superposition_evolves_linearly(prop):
    m1 = fields.plane_eigenmode_field(GRID, MASS, (0, 0, 1), +1, "t1")
    m2 = fields.plane_eigenmode_field(GRID, MASS, (0, 2, 1), -1, "long")
    k1 = fields.mode_wavevector(GRID, (0, 0, 1))
    lam1 = np.hypot(np.linalg.norm(k1), MASS)
    lam2 = -MASS
    both = fields.WaveField.from_stack(GRID, m1.stack() + m2.stack(), MASS)
    out = prop.evolve(both, 1.9)
    expected = np.exp(-1j * lam1 * 1.9) * m1.stack() + np.exp(-1j * lam2 * 1.9) * m2.stack()
    assert np.max(np.abs(out.stack() - expected)) <= 1e-12


def test_zero_momentum_u_block_phase(prop):
    stack = np.zeros((6, *GRID.shape), complex)
    stack[0] = 1.0
    psi = fields.WaveField.from_stack(GRID, stack, MASS)
    out = prop.evolve(psi, 0.5)
    assert np.max(np.abs(out.stack()[0] - np.exp(-1j * MASS * 0.5))) <= 1e-14
    # v-block rotates the other way
    stack2 = np.zeros((6, *GRID.shape), complex)
    stack2[4] = 1.0
    out2 = prop.evolve(fields.WaveField.from_stack(GRID, stack2, MASS), 0.5)
    assert np.max(np.abs(out2.stack()[4] - np.exp(+1j * MASS * 0.5))) <= 1e-14


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
    psi = fields.WaveField.from_stack(GRID, stack, MASS)
    j = dynamics.probability_current(psi)
    assert np.max(np.abs(j[0])) <= 1e-15
    assert np.max(np.abs(j[1])) <= 1e-15
    assert np.max(np.abs(j[2] + f * f)) <= 1e-14


def test_current_matrix_and_cross_forms_agree(psi_t):
    j1 = dynamics.probability_current(psi_t)
    j2 = dynamics.probability_current_matrix_form(psi_t)
    assert np.max(np.abs(j1 - j2)) <= 1e-12 * np.max(np.abs(j1))


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
            base = psi.stack()
            phases = []
            for t in times:
                out = prop.evolve(psi, float(t)).stack()
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
    a = dynamics.evolve_free(psi_t, 0.9)
    b = prop.evolve(psi_t, 0.9)
    assert np.max(np.abs(a.stack() - b.stack())) == 0.0
    assert a.time == psi_t.time + 0.9


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


def test_fft_counts(monkeypatch, prop, psi_t):
    transforms = []

    def counted(fft):
        def wrapper(data):
            transforms.append(math.prod(data.shape[:-3]))
            return fft(data)

        return wrapper

    monkeypatch.setattr(fields, "fftn", counted(fields.fftn))
    monkeypatch.setattr(fields, "ifftn", counted(fields.ifftn))
    prop.evolve(psi_t, 0.7)
    assert sum(transforms) <= 12
    transforms.clear()
    dynamics.diagnostics(psi_t, 1e-3, prop)
    assert sum(transforms) <= 30


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
