import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spin1wave import chain, fields
from spin1wave.chain import PlaneWavePotential
from spin1wave.errors import PoleError


def single_mode_potential(mass=1.0):
    # k = z-hat, A = x-hat, phi = 0: Lorenz holds since k.A = 0
    omega = np.hypot(1.0, mass)
    return PlaneWavePotential(mass, k=[(0.0, 0.0, 1.0)], omega=[omega], phi=[0j],
                              avec=[(1.0 + 0j, 0j, 0j)])


def test_random_potential_is_on_shell_and_lorenz():
    pw = chain.random_lorenz_potential(1.0, 20, seed=7)
    assert pw.max_dispersion_residual() <= 1e-12
    assert pw.max_lorenz_residual() <= 1e-12
    assert len(pw.omega) == 20


def test_mode_cap():
    with pytest.raises(ValueError):
        PlaneWavePotential(0.0, [(0, 0, 1.0)] * 65, [1.0] * 65, [0j] * 65, [(0j, 0j, 0j)] * 65)


@pytest.mark.parametrize("field, value", [("k", [(0.0, 0.0)]), ("omega", 1.0), ("phi", [0j, 0j]),
                                          ("avec", [(1.0, 0.0, 0.0)] * 2)])
def test_mode_list_shapes_checked(field, value):
    valid = {"k": [(0.0, 0.0, 1.0)], "omega": [1.0], "phi": [0j], "avec": [(1.0, 0j, 0j)]}
    with pytest.raises(ValueError):
        PlaneWavePotential(1.0, **{**valid, field: value})


def test_mode_list_is_read_only():
    pw = chain.random_lorenz_potential(1.0, 4, seed=3)
    with pytest.raises(ValueError):
        pw.phi[0] = 0.0


def test_derive_eh_single_mode_example():
    # H = i k x A = i y-hat, E = i omega A = i sqrt(2) x-hat
    e, h = chain.derive_EH(single_mode_potential(mass=1.0))
    assert np.allclose(h[0], (0, 1j, 0), atol=1e-15)
    assert np.allclose(e[0], (1j * np.sqrt(2.0), 0, 0), atol=1e-15)


def test_derived_h_is_divergence_free_per_mode():
    pw = chain.random_lorenz_potential(1.0, 20, seed=3)
    _, h = chain.derive_EH(pw)
    for k, h_amp in zip(pw.k, h):
        assert abs(k @ h_amp) <= 1e-14


@pytest.mark.parametrize("variant", ["h", "e", "a"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_chains_match_per_mode_reference(variant, sign):
    # the chain formulas of the module docstring, one mode at a time
    m = 1.7
    pw = chain.random_lorenz_potential(m, 12, seed=41)
    uv = chain.derive_uv(pw, variant=variant, mass_sign=sign)
    for i, (k, omega, phi, a) in enumerate(zip(pw.k, pw.omega, pw.phi, pw.avec)):
        e = -1j * k * phi + 1j * omega * a
        h = 1j * np.cross(k, a)
        grad_phi = 1j * k * phi
        if variant == "h":
            u, v = -1j * omega * h + 1j * sign * m * h, 1j * np.cross(k, h)
        elif variant == "e":
            u = -1j * omega * e + 1j * sign * m * e + m**2 * 1j / (sign * m + omega) * grad_phi
            v = 1j * np.cross(k, e)
        else:
            u, v = h, e + 1j * sign * m * (a + 1j / (-sign * m + omega) * grad_phi)
        want = np.concatenate([u, v])
        got = np.concatenate([uv.u[i], uv.v[i]])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_proca_residual_on_shell():
    pw = chain.random_lorenz_potential(1.0, 20, seed=5)
    rep = chain.proca_residual(pw)
    assert rep.all_passed


def test_proca_zero_potential():
    rep = chain.proca_residual(PlaneWavePotential(1.0, [], [], [], []))
    assert rep.value("ampere_residual") == 0.0
    assert rep.value("gauss_residual") == 0.0


def test_broken_lorenz_matches_per_mode_oracle():
    # Gauss-form residual per mode is |omega * (omega*phi - k.A)|
    pw = chain.random_lorenz_potential(1.0, 8, seed=11)
    eps = 0.3
    broken = chain.with_broken_lorenz(pw, eps)
    oracle = max(abs(omega * (omega * phi - k @ a))
                 for k, omega, phi, a in zip(broken.k, broken.omega, broken.phi, broken.avec))
    rep = chain.proca_residual(broken)
    assert abs(rep.value("gauss_residual") - oracle) <= 1e-10 * oracle
    assert rep.value("gauss_residual") > 1e-3


def test_h_chain_satisfies_canonical_matrix_form():
    pw = chain.random_lorenz_potential(1.0, 20, seed=7)
    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    rep = chain.system_residual(uv)
    assert rep.notes["satisfies_matrix_form"] == "+b"
    assert rep.value("system_residual_plus_b") <= 1e-12
    assert rep.value("div_u") <= 1e-13
    assert rep.value("div_v") <= 1e-13


def test_h_chain_plus_sign_satisfies_flipped_form():
    pw = chain.random_lorenz_potential(1.0, 20, seed=7)
    uv = chain.derive_uv(pw, variant="h", mass_sign="+")
    rep = chain.system_residual(uv)
    assert rep.notes["satisfies_matrix_form"] == "-b"
    assert rep.value("system_residual_minus_b") <= 1e-12


@pytest.mark.parametrize("variant", ["e", "a"])
@pytest.mark.parametrize("sign,form", [("-", "+b"), ("+", "-b")])
def test_alternative_chains_both_signs(variant, sign, form):
    pw = chain.random_lorenz_potential(1.0, 16, seed=13)
    uv = chain.derive_uv(pw, variant=variant, mass_sign=sign)
    rep = chain.system_residual(uv)
    assert rep.notes["satisfies_matrix_form"] == form
    assert min(rep.value("system_residual_plus_b"), rep.value("system_residual_minus_b")) <= 1e-12
    assert rep.value("div_u") <= 1e-13
    assert rep.value("div_v") <= 1e-13


def test_e_and_h_chains_span_same_mode_space():
    # same potential, same sign: both outputs are zero-residual solutions of
    # the same per-mode linear system (one per-mode linear map apart)
    pw = chain.random_lorenz_potential(1.0, 10, seed=17)
    uv_h = chain.derive_uv(pw, variant="h", mass_sign="-")
    uv_e = chain.derive_uv(pw, variant="e", mass_sign="-")
    assert chain.system_residual(uv_h).value("system_residual_plus_b") <= 1e-12
    assert chain.system_residual(uv_e).value("system_residual_plus_b") <= 1e-12
    for u, v in zip(uv_e.u, uv_e.v):
        assert np.linalg.norm(np.concatenate([u, v])) > 1e-12


def test_off_shell_negative_control():
    pw = chain.with_off_shell(chain.random_lorenz_potential(1.0, 10, seed=19), 0.25)
    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    rep = chain.system_residual(uv)
    assert rep.notes["satisfies_matrix_form"] == "none"
    assert rep.value("matrix_form_satisfied") > 1e-3


def test_broken_lorenz_breaks_e_chain():
    pw = chain.with_broken_lorenz(chain.random_lorenz_potential(1.0, 10, seed=23), 0.3)
    uv = chain.derive_uv(pw, variant="e", mass_sign="-")
    rep = chain.system_residual(uv)
    assert rep.value("matrix_form_satisfied") > 1e-3


@pytest.mark.parametrize("sign", ["plus", "minus", 0, "x"])
def test_derive_uv_refuses_other_mass_signs(sign):
    pw = chain.random_lorenz_potential(1.0, 4, seed=7)
    with pytest.raises(ValueError):
        chain.derive_uv(pw, variant="h", mass_sign=sign)


def test_pole_error_at_k0():
    pw = PlaneWavePotential(1.0, k=[(0.0, 0.0, 0.0)], omega=[1.0], phi=[0.5 + 0j],
                            avec=[(0j, 0j, 0j)])
    with pytest.raises(PoleError):
        chain.derive_uv(pw, variant="e", mass_sign="-")
    with pytest.raises(PoleError):
        chain.derive_uv(pw, variant="a", mass_sign="+")


def test_massless_limit_is_maxwell():
    pw = chain.random_lorenz_potential(0.0, 16, seed=29)
    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    rep = chain.maxwell_residual(uv)
    assert rep.value("maxwell_residual") <= 1e-13
    # massless: both matrix forms coincide
    srep = chain.system_residual(uv)
    assert srep.notes["satisfies_matrix_form"].startswith("both")


def test_first_order_readings_coupled_not_decoupled():
    pw = chain.random_lorenz_potential(1.0, 12, seed=31)
    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    rep = chain.first_order_readings(uv)
    assert rep.notes["consistent_reading"] == "coupled"
    assert rep.value("coupled_reading_residual") <= 1e-12
    assert rep.value("decoupled_reading_residual") > 1e-3


def test_eigenmode_zero_system_residual():
    from spin1wave import algebra

    k = np.array([0.4, -1.2, 0.7])
    m = 1.3
    psi = algebra.eigenmode(k, m, +1, "t2")
    om = np.hypot(np.linalg.norm(k), m)
    uv = chain.UVModes(m, "manual", -1, [k], [om], [psi[:3]], [psi[3:]])
    rep = chain.system_residual(uv)
    assert rep.value("system_residual_plus_b") <= 1e-14
    assert max(rep.value("div_u"), rep.value("div_v")) <= 1e-14


def test_sampling_matches_plane_wave_superposition():
    grid = fields.Grid.cubic(8)
    pw = chain.random_lorenz_potential(1.0, 4, seed=37, grid=grid, nmax=2)
    uv = chain.derive_uv(pw, variant="h", mass_sign="-")
    psi = uv.sample(grid)
    expected = np.zeros((6, *grid.shape), complex)
    for k, u, v in zip(uv.k, uv.u, uv.v):
        ph = fields.plane_wave(grid, k, (1, 0, 0))[0]
        expected[:3] += u[:, None, None, None] * ph
        expected[3:] += v[:, None, None, None] * ph
    assert np.max(np.abs(psi.data - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_sampling_rejects_incommensurate_modes():
    grid = fields.Grid.cubic(8)
    uv = chain.UVModes(1.0, "manual", -1, [(0.5, 0.0, 0.0)], [1.0], [(1, 0, 0)], [(0, 0, 0)])
    with pytest.raises(ValueError):
        uv.sample(grid)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 64),
       mass=st.just(0.0) | st.floats(0.0, 10.0))
def test_chain_properties(seed, n_modes, mass):
    # every chain and sign on a random on-shell Lorenz potential; below
    # m = 1e-12 the two matrix forms agree to the 1e-12 tolerance
    pw = chain.random_lorenz_potential(mass, n_modes, seed)
    assert chain.proca_residual(pw).all_passed
    for variant in "hea":
        for sign, form in (("-", "+b"), ("+", "-b")):
            uv = chain.derive_uv(pw, variant=variant, mass_sign=sign)
            rep = chain.system_residual(uv)
            assert rep.value("matrix_form_satisfied") <= 1e-12
            if mass == 0.0:
                assert rep.notes["satisfies_matrix_form"].startswith("both")
            elif mass > 1e-12:
                assert rep.notes["satisfies_matrix_form"] == form
            assert max(rep.value("div_u"), rep.value("div_v")) <= 1e-13
            assert chain.first_order_readings(uv).value("coupled_reading_residual") <= 1e-12
            if mass == 0.0:
                assert chain.maxwell_residual(uv).value("maxwell_residual") <= 1e-13
