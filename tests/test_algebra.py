import numpy as np
import pytest

from spin1wave import algebra
from spin1wave.algebra import ExactMat, matrix_set


def test_all_entries_are_gaussian_units():
    ms = matrix_set()
    mats = [*ms.spin_matrices, *ms.a, ms.b, *ms.sigma_big, *ms.dirac_alpha, ms.dirac_beta, ms.swap]
    for m in mats:
        assert np.all(np.abs(m.re) <= 1) and np.all(np.abs(m.im) <= 1)
        # entries are 0, +-1 or +-i: never both parts nonzero
        assert not np.any((m.re != 0) & (m.im != 0))


def test_spin3_entries():
    s3 = matrix_set().spin_matrices[2].to_complex()
    expected = np.zeros((3, 3), complex)
    expected[0, 1] = -1j
    expected[1, 0] = 1j
    assert np.array_equal(s3, expected)


def test_b_is_block_sign_diagonal():
    b = matrix_set().b.to_complex()
    assert np.array_equal(b, np.diag([1, 1, 1, -1, -1, -1.0]))


def test_sigma3_is_block_diagonal_spin3():
    ms = matrix_set()
    s3 = ms.spin_matrices[2].to_complex()
    expected = np.block(
        [[s3, np.zeros((3, 3))], [np.zeros((3, 3)), s3]]
    )
    assert np.array_equal(ms.sigma_big[2].to_complex(), expected)


def test_kron_convention_coarse_blocks_left():
    # (P x Q)[i*n+k, j*n+l] = P[i,j] Q[k,l]: upper-right 3x3 block of
    # a_3 = sigma2 x S_3 must be -i * S_3
    ms = matrix_set()
    a3 = ms.a[2].to_complex()
    s3 = ms.spin_matrices[2].to_complex()
    assert np.array_equal(a3[:3, 3:], -1j * s3)
    assert np.array_equal(a3[3:, :3], 1j * s3)


def test_constructed_matrices_hermitian():
    ms = matrix_set()
    for m in [*ms.a, ms.b, *ms.sigma_big, *ms.dirac_alpha, ms.dirac_beta]:
        assert m.is_hermitian()


def test_anticommutation_report_exact():
    rep = algebra.check_anticommutation()
    assert rep.all_passed
    for c in rep.identities:
        if c.identity_name != "a3_squared_violates_clifford":
            assert c.max_abs_deviation == 0.0


def test_spin1_set_violates_clifford_square():
    ms = matrix_set()
    a3_sq = (ms.a[2] @ ms.a[2]).to_complex()
    assert np.array_equal(a3_sq, np.diag([1, 1, 0, 1, 1, 0.0]))


def test_spin_operator_report_exact():
    rep = algebra.check_spin_operator()
    assert rep.all_passed
    assert all(c.max_abs_deviation == 0.0 for c in rep.identities)


def test_sigma_squared_is_2i_and_spin_one():
    ms = matrix_set()
    total = sum((s @ s).to_complex() for s in ms.sigma_big)
    assert np.array_equal(total, 2.0 * np.eye(6))
    # S(S+1) = 2 => S = 1
    s = 0.5 * (-1 + np.sqrt(1 + 4 * 2))
    assert s == 1.0


def test_swap_symmetry_exact():
    rep = algebra.check_swap_symmetry()
    assert rep.all_passed
    assert all(c.max_abs_deviation == 0.0 for c in rep.identities)


def test_sigma_commutators_exact():
    rep = algebra.check_sigma_commutators()
    assert rep.all_passed
    assert all(c.max_abs_deviation == 0.0 for c in rep.identities)


def test_square_identity_z_axis():
    rep = algebra.check_square_identity((0.0, 0.0, 1.0))
    assert rep.all_passed
    names = [c.identity_name for c in rep.identities]
    assert "an_squared_not_identity" in names
    assert "dirac_alpha_n_squared_is_identity" in names


def test_square_identity_random_directions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert algebra.check_square_identity(n).all_passed


def test_square_identity_rejects_non_unit():
    with pytest.raises(ValueError):
        algebra.check_square_identity((0.0, 0.0, 2.0))


def test_hamiltonian_k0_is_mass_term():
    h = algebra.hamiltonian_symbol((0, 0, 0), 1.0)
    assert np.array_equal(h, np.diag([1, 1, 1, -1, -1, -1.0]))
    assert np.allclose(np.linalg.eigvalsh(h), [-1, -1, -1, 1, 1, 1])


def test_hamiltonian_symbol_takes_wavevector_arrays():
    # one matrix per row of a (..., 3) array, bit for bit the one-k result
    k = np.random.default_rng(5).standard_normal((2, 4, 3))
    h = algebra.hamiltonian_symbol(k, 1.3)
    assert h.shape == (2, 4, 6, 6)
    for idx in np.ndindex(2, 4):
        assert np.array_equal(h[idx], algebra.hamiltonian_symbol(k[idx], 1.3))


def test_massless_spectrum_has_zero_modes():
    ev = np.linalg.eigvalsh(algebra.hamiltonian_symbol((0, 0, 1), 0.0))
    assert np.allclose(np.sort(ev), [-1, -1, 0, 0, 1, 1], atol=1e-14)


def test_spectrum_against_eigensolver_100_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = 5.0 * rng.standard_normal(3)
        m = abs(rng.standard_normal()) * 3.0
        h = algebra.hamiltonian_symbol(k, m)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        ev = np.sort(np.linalg.eigvalsh(h))
        ref = algebra.analytic_eigenvalues(k, m)
        worst = max(worst, np.max(np.abs(ev - ref)) / max(1.0, np.max(np.abs(ref))))
    assert worst <= 1e-12


def test_eigenmode_is_eigenvector():
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = 3.0 * rng.standard_normal(3)
        m = abs(rng.standard_normal())
        h = algebra.hamiltonian_symbol(k, m)
        om = np.hypot(np.linalg.norm(k), m)
        for branch, pol, lam in [
            (+1, "t1", om), (+1, "t2", om), (-1, "t1", -om),
            (+1, "long", m), (-1, "long", -m),
        ]:
            psi = algebra.eigenmode(k, m, branch, pol)
            assert np.linalg.norm(h @ psi - lam * psi) <= 1e-13 * max(1.0, om)
            if pol in ("t1", "t2"):
                assert abs(np.asarray(k) @ psi[:3]) <= 1e-13
                assert abs(np.asarray(k) @ psi[3:]) <= 1e-13


def test_eigenmode_rejects_zero_k():
    with pytest.raises(ValueError):
        algebra.eigenmode((0, 0, 0), 1.0, +1, "t1")


def test_exactmat_arithmetic():
    i2 = ExactMat.identity(2)
    assert (i2 @ i2).equals(i2)
    assert i2.times_i().times_i().equals(-i2)
    assert i2.scaled(3).max_abs_deviation(i2) == 2.0
