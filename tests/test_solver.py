import numpy as np
import pytest
import scipy.sparse

from conftest import random_hamiltonian
from oracles import brute_force_matrix
from sqdci.errors import CapacityError, ConfigError, ConvergenceError
from sqdci.hamiltonian import Determinant
from sqdci.solver import (DENSE_THRESHOLD, DavidsonOptions, davidson_lowest,
                          dense_eigensolve, fci_ground_state, solve_subspace)


def random_sparse_symmetric(dim, seed, density=0.05, spread=2.0):
    gen = np.random.default_rng(seed)
    mat = scipy.sparse.random(dim, dim, density=density, random_state=gen,
                              data_rvs=gen.standard_normal).toarray()
    mat = 0.5 * (mat + mat.T)
    mat += np.diag(np.sort(gen.normal(size=dim)) * spread)
    return mat


def test_dense_identity():
    spec = dense_eigensolve(np.eye(3))
    assert spec.energies == [1.0, 1.0, 1.0]


def test_dense_two_by_two():
    spec = dense_eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.energies[0] == pytest.approx(-1.0, abs=1e-14)
    assert spec.energies[1] == pytest.approx(1.0, abs=1e-14)


def test_dense_rejects_asymmetric_and_oversized():
    with pytest.raises(ConfigError):
        dense_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(CapacityError):
        dense_eigensolve(np.zeros((4097, 4097)))


def test_davidson_diagonal_matrix():
    diag = np.array([1.0, 2.0, 3.0])
    spec = davidson_lowest(lambda v: diag * v, diag, DavidsonOptions())
    assert spec.energies[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(spec.vectors[0][0]) == pytest.approx(1.0, abs=1e-10)


def test_davidson_two_roots_on_diagonal():
    diag = np.array([5.0, -1.0, 0.0])
    spec = davidson_lowest(lambda v: diag * v, diag,
                           DavidsonOptions(n_roots=2))
    assert spec.energies[0] == pytest.approx(-1.0, abs=1e-12)
    assert spec.energies[1] == pytest.approx(0.0, abs=1e-12)


def test_davidson_matches_dense_on_random_sparse():
    for seed in range(5):
        mat = random_sparse_symmetric(200, seed)
        exact = np.linalg.eigvalsh(mat)[0]
        spec = davidson_lowest(lambda v: mat @ v, np.diag(mat),
                               DavidsonOptions())
        assert spec.converged
        assert spec.energies[0] == pytest.approx(exact, abs=1e-9)


def test_davidson_residuals_verified_post_hoc():
    mat = random_sparse_symmetric(120, seed=3)
    spec = davidson_lowest(lambda v: mat @ v, np.diag(mat), DavidsonOptions())
    v, e = spec.vectors[0], spec.energies[0]
    assert np.linalg.norm(mat @ v - e * v) < 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_davidson_deterministic():
    mat = random_sparse_symmetric(150, seed=4)
    runs = [davidson_lowest(lambda v: mat @ v, np.diag(mat),
                            DavidsonOptions(seed=9)) for _ in range(2)]
    assert runs[0].energies == runs[1].energies
    assert np.array_equal(runs[0].vectors[0], runs[1].vectors[0])


def test_davidson_dimension_smaller_than_roots():
    with pytest.raises(ConfigError):
        davidson_lowest(lambda v: v, np.ones(1), DavidsonOptions(n_roots=2))


def test_options_validation():
    with pytest.raises(ConfigError):
        DavidsonOptions(n_roots=0)
    with pytest.raises(ConfigError):
        DavidsonOptions(residual_tol=0.0)
    with pytest.raises(ConfigError):
        DavidsonOptions(n_roots=3, max_subspace=4)


def test_fci_one_orbital_single_determinant():
    ham = random_hamiltonian(1, 1, 1, seed=0)
    result = fci_ground_state(ham)
    assert result.dimension == 1
    assert result.energy == pytest.approx(
        brute_force_matrix(ham, [Determinant(1, 1)])[0, 0], abs=1e-12)


def test_fci_matches_brute_force_dense():
    ham = random_hamiltonian(2, 1, 1, seed=21)
    result = fci_ground_state(ham)
    oracle = np.linalg.eigvalsh(brute_force_matrix(ham, ham.sector_basis()))[0]
    assert result.energy == pytest.approx(oracle, abs=1e-10)


def test_fci_below_hartree_fock():
    ham = random_hamiltonian(4, 2, 2, seed=22)
    result = fci_ground_state(ham)
    e_hf = brute_force_matrix(ham, [ham.hf_determinant()])[0, 0]
    assert result.energy <= e_hf + 1e-12


def test_variational_monotonicity_under_nesting():
    ham = random_hamiltonian(4, 2, 2, seed=23)
    basis = ham.sector_basis()
    inner = solve_subspace(ham, basis[:10])
    outer = solve_subspace(ham, basis[:25])
    full = solve_subspace(ham, basis)
    assert outer.energy <= inner.energy + 1e-12
    assert full.energy <= outer.energy + 1e-12


def test_solve_subspace_davidson_path_matches_dense():
    # 600-determinant basis exceeds the dense threshold, forcing Davidson.
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    basis = ham.sector_basis()[:600]
    result = solve_subspace(ham, basis)
    assert result.diagnostics["method"] == "davidson"
    from sqdci.hamiltonian import build_sparse_matrix
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, basis).toarray())[0]
    assert result.energy == pytest.approx(exact, abs=1e-9)


def test_solve_subspace_raises_when_davidson_does_not_converge():
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    basis = ham.sector_basis()[:DENSE_THRESHOLD]
    with pytest.raises(ConvergenceError):
        solve_subspace(ham, basis, DavidsonOptions(max_iterations=1))


def test_empty_basis_rejected():
    ham = random_hamiltonian(2, 1, 1, seed=25)
    with pytest.raises(ConfigError):
        solve_subspace(ham, [])
