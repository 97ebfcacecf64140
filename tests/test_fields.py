import math

import numpy as np
import pytest

from spin1wave import fields
from spin1wave.fields import Grid


GRID = Grid.cubic(16)


def _unit(f):
    """f divided by its grid L2 norm sqrt(sum |f|^2 dV)."""
    return f / float(np.sqrt(np.sum(np.abs(f) ** 2) * GRID.cell_volume))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(15, 16, 16, 1.0, 1.0, 1.0)  # odd
    with pytest.raises(ValueError):
        Grid(2, 16, 16, 1.0, 1.0, 1.0)  # too small
    with pytest.raises(ValueError):
        Grid(16, 16, 16, 0.0, 1.0, 1.0)  # empty box


@pytest.mark.parametrize("lengths", [(1e-300,) * 3, (1e200,) * 3, (1e-160, 1e100, 1e100),
                                     (1.4e-107,) * 3],
                         ids=["cell-underflows", "cell-overflows", "k-squared-overflows",
                              "cell-subnormal"])
def test_grid_refuses_lengths_beyond_the_doubles(lengths):
    with pytest.raises(ValueError, match="box lengths"):
        Grid(8, 8, 8, *lengths)


@pytest.mark.parametrize("lengths", [(2 * math.pi,) * 3, (7.0, 5.5, 4.5), (1e30,) * 3,
                                     (1e-30,) * 3])
def test_grid_builds_across_scales(lengths):
    grid = Grid(16, 12, 10, *lengths)
    assert 0 < grid.cell_volume < math.inf
    assert np.isfinite(fields.k_squared(grid)).all()

def test_curl_of_plane_wave():
    k = fields.mode_wavevector(GRID, (0, 0, 1))
    f = fields.plane_wave(GRID, k, (1, 0, 0))
    cf = fields.curl(GRID, f)
    expected = fields.plane_wave(GRID, k, (0, 1j * k[2], 0))
    assert np.max(np.abs(cf - expected)) <= 1e-13


def test_curl_of_constant_is_zero():
    f = np.ones((3, *GRID.shape), complex)
    assert np.max(np.abs(fields.curl(GRID, f))) <= 1e-14


def test_divergence_of_transverse_plane_wave_is_zero():
    k = fields.mode_wavevector(GRID, (0, 0, 2))
    f = fields.plane_wave(GRID, k, (1, 1j, 0))  # eps perpendicular to k
    assert np.max(np.abs(fields.divergence(GRID, f))) <= 1e-13


def test_divergence_of_longitudinal_plane_wave():
    k = fields.mode_wavevector(GRID, (0, 0, 2))
    f = fields.plane_wave(GRID, k, (0, 0, 1))
    div = fields.divergence(GRID, f)
    expected = 1j * k[2] * fields.plane_wave(GRID, k, (1, 0, 0))[0]
    assert np.max(np.abs(div - expected)) <= 1e-12


def test_div_curl_is_zero():
    rng = np.random.default_rng(1)
    f = _unit(fields.random_vector_field(GRID, 2.0, rng))
    r = np.max(np.abs(fields.divergence(GRID, fields.curl(GRID, f))))
    assert r <= 1e-13 * np.max(np.abs(f)) * 16.0


def test_curl_grad_is_zero():
    rng = np.random.default_rng(2)
    s = _unit(fields.random_vector_field(GRID, 2.0, rng))[0]
    g = fields.gradient(GRID, s)
    assert np.max(np.abs(fields.curl(GRID, g))) <= 1e-12


def test_parseval_and_roundtrip():
    rng = np.random.default_rng(3)
    f = _unit(fields.random_vector_field(GRID, 3.0, rng))
    fh = fields.fftn(f)
    grid_l2 = np.sum(np.abs(f) ** 2)
    spec_l2 = np.sum(np.abs(fh) ** 2) / GRID.npoints
    assert abs(grid_l2 - spec_l2) <= 1e-13 * grid_l2
    back = fields.ifftn(fh)
    assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))


def test_projector_idempotent():
    rng = np.random.default_rng(4)
    f = _unit(fields.random_vector_field(GRID, 2.0, rng))
    p1 = fields.project_transverse(GRID, f)
    p2 = fields.project_transverse(GRID, p1)
    assert np.max(np.abs(p2 - p1)) <= 1e-14 * np.max(np.abs(f))


def test_projector_self_adjoint():
    rng = np.random.default_rng(5)
    f = _unit(fields.random_vector_field(GRID, 2.0, rng))
    g = _unit(fields.random_vector_field(GRID, 2.0, rng))
    lhs = fields.vdot(fields.project_transverse(GRID, f), g) * GRID.cell_volume
    rhs = fields.vdot(f, fields.project_transverse(GRID, g)) * GRID.cell_volume
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_projector_output_divergence_free():
    rng = np.random.default_rng(6)
    f = _unit(fields.random_vector_field(GRID, 2.0, rng))
    p = fields.project_transverse(GRID, f)
    assert np.max(np.abs(fields.divergence(GRID, p))) <= 1e-12 * np.max(np.abs(f))


def test_projector_kills_longitudinal_keeps_transverse():
    k = fields.mode_wavevector(GRID, (0, 0, 2))
    lng = fields.plane_wave(GRID, k, (0, 0, 1))
    assert np.max(np.abs(fields.project_transverse(GRID, lng))) <= 1e-14
    trans = fields.plane_wave(GRID, k, (1, 0, 0))
    out = fields.project_transverse(GRID, trans)
    assert np.max(np.abs(out - trans)) <= 1e-14


def test_projector_leaves_k0_mode_unchanged():
    f = np.ones((3, *GRID.shape), complex)
    out = fields.project_transverse(GRID, f)
    assert np.max(np.abs(out - f)) <= 1e-14


def test_random_field_reproducible_and_band_limited():
    f1 = _unit(fields.random_vector_field(GRID, 2.0, 123))
    f2 = _unit(fields.random_vector_field(GRID, 2.0, 123))
    assert np.array_equal(f1, f2)
    fh = fields.fftn(f1)
    k2 = fields.k_squared(GRID)
    kmax = 0.25 * fields.nyquist_wavenumber(GRID)
    # transform round trip leaves only fp dust outside the band
    assert np.max(np.abs(fh[:, k2 > kmax**2])) <= 1e-13 * np.max(np.abs(fh))


@pytest.mark.parametrize("k_cutoff", [1e-200, 0.0, -1.0, float("nan")])
def test_random_field_rejects_bad_k_cutoff(k_cutoff):
    # the envelope divides by k_cutoff^2; 1e-200 squares to 0 and gave a NaN state
    with pytest.raises(ValueError, match="k_cutoff"):
        fields.random_wave_field(GRID, 1.0, k_cutoff, seed=0)


def test_random_wave_field_unit_norm_and_transverse():
    psi = fields.random_wave_field(GRID, 1.0, 2.0, seed=9, transverse=True)
    assert abs(psi.norm() - 1.0) <= 1e-13
    du, dv = fields.divergence_residuals(psi)
    assert max(du, dv) <= 1e-13


def test_coordinates_centered_sawtooth():
    x = fields.coordinates(GRID)
    assert x[0].min() == -GRID.lx / 2
    assert abs(x[0].max() - (GRID.lx / 2 - GRID.spacing[0])) <= 1e-14
    # midpoint sample sits at the origin
    assert abs(x[0][GRID.nx // 2, 0, 0]) <= 1e-14


def test_wavevectors_nyquist_zeroing():
    k = fields.wavevectors(GRID)
    assert k[0][GRID.nx // 2, 0, 0] == 0.0
    k_full = fields.k_squared(GRID)
    assert k_full[GRID.nx // 2, 0, 0] > 0.0


def test_wave_field_blocks_are_views_of_its_stack():
    psi = fields.random_wave_field(GRID, 1.0, 2.0, seed=3)
    assert psi.data.shape == (6, *GRID.shape) and psi.data.dtype == np.complex128
    # the (2, 3, ...) block view the batched vector operators take
    blocks = psi.data.reshape(2, 3, *GRID.shape)
    assert np.shares_memory(blocks, psi.data)
    blocks[0, 2] = 3.0
    blocks[1, 0] = -1.0
    assert np.all(psi.data[2] == 3.0) and np.all(psi.data[3] == -1.0)


def test_wave_field_wraps_its_array_without_a_copy():
    stack = np.zeros((6, *GRID.shape), complex)
    assert fields.WaveField(GRID, stack, 1.0).data is stack


@pytest.mark.parametrize("shape", [(3, *GRID.shape), (2, 3, *GRID.shape), (6, 8, 16, 16)])
def test_wave_field_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        fields.WaveField(GRID, np.zeros(shape, complex), 1.0)


def test_wave_field_rejects_negative_mass():
    with pytest.raises(ValueError, match="mass"):
        fields.WaveField.zeros(GRID, -1.0)


def test_wave_field_copy_does_not_alias():
    psi = fields.random_wave_field(GRID, 1.0, 2.0, seed=4)
    psi.time = 0.75
    c = psi.copy()
    assert not np.shares_memory(c.data, psi.data)
    assert (c.grid, c.mass, c.time) == (psi.grid, psi.mass, psi.time)
    assert np.array_equal(c.data, psi.data)
    c.data[...] = 0.0
    assert abs(psi.norm() - 1.0) <= 1e-13


def test_swap_blocks_exchanges_u_and_v():
    psi = fields.random_wave_field(GRID, 1.0, 2.0, seed=6)
    sw = fields.swap_blocks(psi)
    assert np.array_equal(sw.data[:3], psi.data[3:]) and np.array_equal(sw.data[3:], psi.data[:3])
    assert not np.shares_memory(sw.data, psi.data)


def test_plane_eigenmode_field_matches_matrix_eigenmode():
    from spin1wave import dynamics

    psi = fields.plane_eigenmode_field(GRID, 1.0, (0, 0, 1), +1, "t1")
    h = dynamics.apply_hamiltonian_stack(GRID, 1.0, psi.data)
    k = fields.mode_wavevector(GRID, (0, 0, 1))
    lam = np.hypot(np.linalg.norm(k), 1.0)
    assert np.max(np.abs(h - lam * psi.data)) <= 1e-12


ANISO = Grid(16, 12, 10, 7.0, 5.5, 4.5)


def _fft_inputs():
    rng = np.random.default_rng(23)
    for lead in ((), (1,), (3,), (2, 3), (6,)):
        shape = (*lead, *ANISO.shape)
        real = rng.standard_normal(shape)
        cplx = real + 1j * rng.standard_normal(shape)
        # Fortran order is what snapshots.read_snapshot returns
        yield from (real, cplx, np.asfortranarray(cplx))


@pytest.mark.parametrize("ours, numpys", [(fields.fftn, np.fft.fftn), (fields.ifftn, np.fft.ifftn)])
def test_fft_into_output_matches_numpy_bit_for_bit(ours, numpys):
    for data in _fft_inputs():
        got, want = ours(data), numpys(data, axes=(-3, -2, -1))
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape == data.shape
        assert np.array_equal(got, want)


def test_vector_dot_matches_sum_bit_for_bit():
    rng = np.random.default_rng(29)
    k = fields.wavevectors(ANISO)
    a = rng.standard_normal(k.shape) + 1j * rng.standard_normal(k.shape)
    for lead in ((3,), (2, 3)):
        shape = (*lead, *ANISO.shape)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for vec in (k, a):
            assert np.array_equal(fields.vector_dot(vec, w), np.sum(vec * w, axis=-4))


def test_vdot_and_real_vdot_match_exact_sums():
    rng = np.random.default_rng(31)
    for lead in ((), (6,)):
        shape = (*lead, *ANISO.shape)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        re = math.fsum((x.real * y.real).ravel()) + math.fsum((x.imag * y.imag).ravel())
        im = math.fsum((x.real * y.imag).ravel()) - math.fsum((x.imag * y.real).ravel())
        got_re = fields.real_vdot(x, y)
        got = fields.vdot(x, y)
        assert isinstance(got_re, float) and isinstance(got, complex)
        scale = math.sqrt(fields.real_vdot(x, x) * fields.real_vdot(y, y))
        assert abs(got_re - re) <= 1e-13 * scale
        assert abs(got - complex(re, im)) <= 1e-13 * scale
        assert abs(got - np.vdot(x, y)) <= 1e-13 * scale
        # a Fortran-ordered input is summed in C order, as its copy
        assert fields.real_vdot(np.asfortranarray(x), y) == got_re
        assert fields.vdot(np.asfortranarray(x), y) == got


def test_vector_operators_batch_over_leading_axes():
    # each operator on a (2, 3, ...) stack gives, block by block, the bits
    # it gives on that (3, ...) block alone
    rng = np.random.default_rng(37)
    w = rng.standard_normal((2, 3, *ANISO.shape)) + 1j * rng.standard_normal((2, 3, *ANISO.shape))
    s = rng.standard_normal((2, *ANISO.shape))
    for op in (fields.curl, fields.divergence, fields.project_transverse):
        batched = op(ANISO, w)
        for i in range(2):
            assert np.array_equal(batched[i], op(ANISO, w[i]))
    grad = fields.gradient(ANISO, s)
    assert grad.shape == (2, 3, *ANISO.shape)
    for i in range(2):
        assert np.array_equal(grad[i], fields.gradient(ANISO, s[i]))
