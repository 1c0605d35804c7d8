import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from conftest import packed, random_hamiltonian
from oracles import brute_force_matrix, hartree_fock_determinant
from sqdci.errors import CapacityError, ConfigError, ConvergenceError
from sqdci.hamiltonian import (build_sparse_matrix, product_operator_bytes,
                               sector_basis)
from sqdci import rng, solver
from sqdci.solver import (DENSE_THRESHOLD, davidson_lowest, dense_eigensolve,
                          fci_ground_state, solve_subspace, solver_bytes)


def random_sparse_symmetric(dim, seed, density=0.05, spread=2.0):
    gen = np.random.default_rng(seed)
    mat = scipy.sparse.random(dim, dim, density=density, random_state=gen,
                              data_rvs=gen.standard_normal).toarray()
    mat = 0.5 * (mat + mat.T)
    mat += np.diag(np.sort(gen.normal(size=dim)) * spread)
    return mat


def test_dense_identity():
    spec = dense_eigensolve(np.eye(3))
    assert spec.energy == 1.0
    assert np.linalg.norm(spec.vector) == pytest.approx(1.0, abs=1e-14)


def test_dense_two_by_two():
    spec = dense_eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.energy == pytest.approx(-1.0, abs=1e-14)
    assert np.abs(spec.vector) == pytest.approx([2 ** -0.5] * 2, abs=1e-14)
    assert spec.vector[0] * spec.vector[1] < 0


def test_dense_rejects_asymmetric_and_oversized():
    with pytest.raises(ConfigError):
        dense_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(CapacityError):
        dense_eigensolve(np.zeros((4097, 4097)))


def test_davidson_diagonal_matrix():
    diag = np.array([1.0, 2.0, 3.0])
    spec = davidson_lowest(lambda v: diag * v, diag)
    assert spec.energy == pytest.approx(1.0, abs=1e-12)
    assert abs(spec.vector[0]) == pytest.approx(1.0, abs=1e-10)


def test_davidson_matches_dense_on_random_sparse():
    for seed in range(5):
        mat = random_sparse_symmetric(200, seed)
        exact = np.linalg.eigvalsh(mat)[0]
        spec = davidson_lowest(lambda v: mat @ v, np.diag(mat))
        assert spec.converged
        assert spec.energy == pytest.approx(exact, abs=1e-9)


def test_davidson_residuals_verified_post_hoc():
    mat = random_sparse_symmetric(120, seed=3)
    spec = davidson_lowest(lambda v: mat @ v, np.diag(mat))
    v, e = spec.vector, spec.energy
    assert np.linalg.norm(mat @ v - e * v) < 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_davidson_deterministic():
    mat = random_sparse_symmetric(150, seed=4)
    runs = [davidson_lowest(lambda v: mat @ v, np.diag(mat)) for _ in range(2)]
    assert runs[0].energy == runs[1].energy
    assert np.array_equal(runs[0].vector, runs[1].vector)


@pytest.mark.parametrize("max_subspace", [1, 2, 4])
def test_davidson_forced_restarts_match_dense(max_subspace, monkeypatch):
    monkeypatch.setattr(solver, "MAX_SUBSPACE", max_subspace)
    mat = random_sparse_symmetric(200, seed=6)
    spec = davidson_lowest(lambda v: mat @ v, np.diag(mat))
    assert spec.converged
    assert spec.iterations_used > max_subspace  # so the basis restarted
    assert abs(spec.energy - np.linalg.eigvalsh(mat)[0]) < 1e-10


def test_davidson_collapsed_correction_takes_the_seeded_random_vector(
        monkeypatch):
    mat = random_sparse_symmetric(120, seed=9)
    real = solver._orthonormalised
    calls = []

    def collapse_first(vector, against):
        calls.append(len(against))
        return None if len(calls) == 1 else real(vector, against)

    monkeypatch.setattr(solver, "_orthonormalised", collapse_first)
    inputs = []

    def matvec(v):
        inputs.append(v.copy())
        return mat @ v

    spec = davidson_lowest(matvec, np.diag(mat))
    assert spec.converged
    assert abs(spec.energy - np.linalg.eigvalsh(mat)[0]) < 1e-10
    # The first correction collapsed; the second vector multiplied is the
    # first draw of the "davidson" stream, orthonormalised to the start.
    assert calls[:2] == [1, 1]
    start = inputs[0][None, :]
    expected = real(rng.stream(0, "davidson").standard_normal(120), start)
    assert np.array_equal(inputs[1], expected)


def test_davidson_restart_multiplies_nothing_again(monkeypatch):
    monkeypatch.setattr(solver, "MAX_SUBSPACE", 4)
    mat = random_sparse_symmetric(200, seed=7)
    inputs = []

    def matvec(v):
        inputs.append(v.copy())
        return mat @ v

    spec = davidson_lowest(matvec, np.diag(mat))
    assert spec.converged
    assert spec.iterations_used > 4  # so the 4-vector basis restarted
    # One start vector and one correction per further iteration are added,
    # each multiplied once; then one post-hoc check.
    assert len(inputs) == spec.iterations_used + 1
    assert np.array_equal(inputs[-1], spec.vector)


def test_davidson_rerun_with_restarts_is_bitwise_identical(monkeypatch):
    monkeypatch.setattr(solver, "MAX_SUBSPACE", 6)
    mat = random_sparse_symmetric(150, seed=8)
    runs = [davidson_lowest(lambda v: mat @ v, np.diag(mat))
            for _ in range(2)]
    assert runs[0].iterations_used == runs[1].iterations_used > 6
    assert runs[0].energy == runs[1].energy
    assert np.array_equal(runs[0].vector, runs[1].vector)


def test_fci_one_orbital_single_determinant():
    ham = random_hamiltonian(1, 1, 1, seed=0)
    result = fci_ground_state(ham)
    assert result.dimension == 1
    assert result.energy == pytest.approx(
        brute_force_matrix(ham, [(1, 1)])[0, 0], abs=1e-12)


def test_fci_matches_brute_force_dense():
    ham = random_hamiltonian(2, 1, 1, seed=21)
    result = fci_ground_state(ham)
    oracle = np.linalg.eigvalsh(brute_force_matrix(ham,
                                                   sector_basis(2, 1, 1)))[0]
    assert result.energy == pytest.approx(oracle, abs=1e-10)


def test_fci_below_hartree_fock():
    ham = random_hamiltonian(4, 2, 2, seed=22)
    result = fci_ground_state(ham)
    hf = hartree_fock_determinant(ham.n_alpha, ham.n_beta)
    e_hf = brute_force_matrix(ham, [hf])[0, 0]
    assert result.energy <= e_hf + 1e-12


def test_variational_monotonicity_under_nesting():
    ham = random_hamiltonian(4, 2, 2, seed=23)
    basis = sector_basis(4, 2, 2)
    inner = solve_subspace(ham, basis[:10])
    outer = solve_subspace(ham, basis[:25])
    full = solve_subspace(ham, basis)
    assert outer.energy <= inner.energy + 1e-12
    assert full.energy <= outer.energy + 1e-12


def test_solve_subspace_davidson_path_matches_dense():
    # 600 determinants, above the dense threshold, on 18 x 35 strings.
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    basis = sector_basis(7, 3, 3)[:600]
    result = solve_subspace(ham, basis)
    assert result.diagnostics["method"] == "davidson"
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, basis).toarray())[0]
    assert result.energy == pytest.approx(exact, abs=1e-9)


def test_solve_subspace_raises_when_davidson_does_not_converge(monkeypatch):
    # DENSE_THRESHOLD rows take Davidson; the dense path would not raise.
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    basis = sector_basis(7, 3, 3)[:DENSE_THRESHOLD]
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        solve_subspace(ham, basis)


def test_empty_basis_rejected():
    ham = random_hamiltonian(2, 1, 1, seed=25)
    with pytest.raises(ConfigError):
        solve_subspace(ham, [])


def _no_csr(*args):
    raise AssertionError("this basis must not build a CSR matrix")


def test_fci_takes_product_path_and_matches_dense(monkeypatch):
    # (7,3,3): dimension 1225, above the dense threshold.
    ham = random_hamiltonian(7, 3, 3, seed=26, diagonal_spread=1.0)
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, sector_basis(7, 3, 3))
                               .toarray())[0]
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    result = fci_ground_state(ham)
    assert result.diagnostics["operator"] == "product"
    assert result.diagnostics["method"] == "davidson"
    assert result.energy == pytest.approx(exact, abs=1e-10)


def test_product_closure_at_threshold_is_matrix_free(monkeypatch):
    # 10 x 20 strings of (7,3,3): exactly DENSE_THRESHOLD determinants.
    ham = random_hamiltonian(7, 3, 3, seed=27, diagonal_spread=1.0)
    strings = sorted(set(sector_basis(7, 3, 3)[:, 0].tolist()))
    basis = packed([(a, b) for a in strings[:10] for b in strings[:20]])
    assert len(basis) == DENSE_THRESHOLD
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, basis).toarray())[0]
    assert solve_subspace(ham, basis[:-1]).diagnostics["method"] == "dense"
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    result = solve_subspace(ham, basis)
    assert result.diagnostics["operator"] == "product"
    assert result.energy == pytest.approx(exact, abs=1e-10)


def test_product_closure_below_512_runs_davidson(monkeypatch):
    # 16 x 25 strings of (7,3,3): 400 determinants, a full eigh before the
    # dense threshold fell to its measured crossover.
    ham = random_hamiltonian(7, 3, 3, seed=35, diagonal_spread=1.0)
    strings = sorted(set(sector_basis(7, 3, 3)[:, 0].tolist()))
    basis = packed([(a, b) for a in strings[:16] for b in strings[:25]])
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, basis).toarray())[0]
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    result = solve_subspace(ham, basis)
    assert result.diagnostics["method"] == "davidson"
    assert result.diagnostics["operator"] == "product"
    assert result.energy == pytest.approx(exact, abs=1e-10)


def test_low_ratio_basis_runs_masked(monkeypatch):
    # Every other row of (7,3,3): 613 rows on the 35 x 35 grid, ratio 2.
    ham = random_hamiltonian(7, 3, 3, seed=36, diagonal_spread=1.0)
    basis = sector_basis(7, 3, 3)[::2]
    exact = np.linalg.eigvalsh(build_sparse_matrix(ham, basis).toarray())[0]
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    result = solve_subspace(ham, basis)
    assert result.diagnostics["method"] == "davidson"
    assert result.diagnostics["operator"] == "masked"
    assert result.energy == pytest.approx(exact, abs=1e-10)


def _high_ratio_basis():
    """Four rows per alpha string of (8,4,4): 280 rows on the 70 x 70 grid,
    a ratio of 17.5."""
    strings = sorted(set(sector_basis(8, 4, 4)[:, 0].tolist()))
    return packed(sorted((a, strings[(i + k) % 70])
                         for i, a in enumerate(strings) for k in range(4)))


def test_high_ratio_basis_runs_on_csr():
    ham = random_hamiltonian(8, 4, 4, seed=37, diagonal_spread=1.0)
    basis = _high_ratio_basis()
    result = solve_subspace(ham, basis)
    assert result.diagnostics["method"] == "davidson"
    assert result.diagnostics["operator"] == "csr"
    exact = np.linalg.eigvalsh(brute_force_matrix(ham, basis))[0]
    assert result.energy == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("size", [30, 600])  # the dense and Davidson paths
def test_unsorted_or_repeated_basis_rejected(size):
    # Bases must be distinct rows in (alpha, beta) order: a swapped pair
    # (in alpha or only in beta) or a repeated row is a ConfigError, on a
    # full product of strings (size 600) as well as on a part of one.
    ham = random_hamiltonian(7, 3, 3, seed=28, diagonal_spread=1.0)
    strings = sorted(set(sector_basis(7, 3, 3)[:, 0].tolist()))
    basis = packed([(a, b) for a in strings[:20] for b in strings[:30]])[:size]
    swapped_alpha, swapped_beta = basis.copy(), basis.copy()
    swapped_alpha[[0, -1]] = basis[[-1, 0]]
    swapped_beta[[0, 1]] = basis[[1, 0]]
    repeated = np.vstack([basis[:1], basis[:-1]])
    for bad in (swapped_alpha, swapped_beta, repeated):
        for solve in (solve_subspace, build_sparse_matrix):
            with pytest.raises(ConfigError, match="distinct"):
                solve(ham, bad)
    assert solve_subspace(ham, basis).dimension == size


def test_duplicate_basis_of_product_size_rejected():
    # 20 x 30 distinct strings, but one product determinant repeated in
    # place of another: the size still equals the product's.
    ham = random_hamiltonian(7, 3, 3, seed=29)
    strings = sorted(set(sector_basis(7, 3, 3)[:, 0].tolist()))
    basis = packed([(a, b) for a in strings[:20] for b in strings[:30]])
    basis[-1] = basis[0]
    basis[-2] = (strings[19], strings[29])
    with pytest.raises(ConfigError, match="distinct"):
        solve_subspace(ham, basis)


def product_solve_bytes(n_orb, n_alpha_strings, n_beta_strings, dim=None):
    """A product solve's estimate: the solver's share plus the operator's."""
    grid = n_alpha_strings * n_beta_strings
    return (solver_bytes(grid if dim is None else dim)
            + product_operator_bytes(n_orb, n_alpha_strings, n_beta_strings, dim))


def test_product_solve_bytes_bounds_traced_peak():
    # The estimate must cover what the solve allocates, without being so
    # loose that the budget turns away spaces that fit.
    ham = random_hamiltonian(8, 4, 4, seed=32, diagonal_spread=0.5)
    tracemalloc.start()
    try:
        fci_ground_state(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = product_solve_bytes(8, 70, 70)
    assert peak <= estimate <= 1.5 * peak


def test_masked_solve_bytes_bound_traced_peak():
    # Every third row of (8,4,4): 1634 rows on the 70 x 70 grid.
    ham = random_hamiltonian(8, 4, 4, seed=32, diagonal_spread=0.5)
    basis = sector_basis(8, 4, 4)[::3]
    tracemalloc.start()
    try:
        result = solve_subspace(ham, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.diagnostics["operator"] == "masked"
    estimate = product_solve_bytes(8, 70, 70, len(basis))
    assert peak <= estimate <= 1.5 * peak


def test_fci_over_memory_budget_is_capacity_error(monkeypatch):
    ham = random_hamiltonian(7, 3, 3, seed=30)
    need = product_solve_bytes(7, 35, 35)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need - 1)

    def no_basis(*args):
        raise AssertionError("the cap must hold before the basis is built")

    monkeypatch.setattr("sqdci.solver.sector_basis", no_basis)
    with pytest.raises(CapacityError, match="budget"):
        fci_ground_state(ham)
    # A wider Davidson subspace raises the estimate past the budget.
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need)
    monkeypatch.setattr("sqdci.solver.MAX_SUBSPACE", solver.MAX_SUBSPACE + 1)
    with pytest.raises(CapacityError):
        fci_ground_state(ham)


def test_product_basis_over_memory_budget_is_capacity_error(monkeypatch):
    ham = random_hamiltonian(7, 3, 3, seed=31)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", 1 << 20)
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    with pytest.raises(CapacityError):
        solve_subspace(ham, sector_basis(7, 3, 3))


def _not_built(*args):
    raise AssertionError("the cap must hold before the operator is built")


def test_masked_basis_over_memory_budget_is_capacity_error(monkeypatch):
    ham = random_hamiltonian(7, 3, 3, seed=38)
    basis = sector_basis(7, 3, 3)[::2]
    need = product_solve_bytes(7, 35, 35, len(basis))
    # The masked estimate is the one checked: below the full grid's.
    assert need < product_solve_bytes(7, 35, 35)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need)
    assert solve_subspace(ham, basis).diagnostics["operator"] == "masked"
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need - 1)
    monkeypatch.setattr("sqdci.solver.build_sparse_matrix", _no_csr)
    # The operator's first step after its own check.
    monkeypatch.setattr("sqdci.hamiltonian._spin_tables", _not_built)
    with pytest.raises(CapacityError, match="budget"):
        solve_subspace(ham, basis)


@pytest.mark.parametrize("step", [1, 3, None], ids=["product", "masked", "csr"])
def test_solve_refuses_its_own_share_first(step, monkeypatch):
    # A budget the solve's share alone passes is refused on the row count,
    # before the strings are split out; at the share, the operator gets a
    # remainder of 0, not less.
    ham = random_hamiltonian(8, 4, 4, seed=37, diagonal_spread=1.0)
    basis = _high_ratio_basis() if step is None else sector_basis(8, 4, 4)[::step]
    dim = len(basis)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", solver_bytes(dim))
    with pytest.raises(CapacityError, match="over the 0.0 GiB budget"):
        solve_subspace(ham, basis)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES",
                        solver_bytes(dim) - 1)
    monkeypatch.setattr("sqdci.solver.basis_strings", _not_built)
    monkeypatch.setattr("sqdci.hamiltonian._spin_tables", _not_built)
    with pytest.raises(CapacityError, match=f"subspace of {dim} rows") as refused:
        solve_subspace(ham, basis)
    assert "the -" not in str(refused.value)


def test_csr_over_memory_budget_is_capacity_error(monkeypatch):
    ham = random_hamiltonian(8, 4, 4, seed=39)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", 1 << 20)
    # _expand is the assembly's first step after the string tables.
    monkeypatch.setattr("sqdci.hamiltonian._expand", _not_built)
    with pytest.raises(CapacityError, match="budget"):
        solve_subspace(ham, _high_ratio_basis())
    with pytest.raises(CapacityError, match="budget"):
        build_sparse_matrix(ham, _high_ratio_basis(), max_bytes=1 << 20)
