import numpy as np
import pytest

from conftest import as_pairs, packed, random_hamiltonian
from oracles import (Determinant, brute_force_matrix,
                     hartree_fock_determinant, reference_connected)
from sqdci.baselines import ext_hci, hci_variational
from sqdci import baselines, hamiltonian, solver, sqd
from sqdci.errors import CapacityError, ConfigError
from sqdci.hamiltonian import merge_bases
from sqdci.solver import fci_ground_state, solve_subspace, solver_bytes
from sqdci.sqd import ExtensionThresholds, extend_subspace


def test_huge_epsilon_keeps_hf_only(ham_4e4o):
    result = hci_variational(ham_4e4o, 1e6)
    assert result.dimension == 1
    assert result.energy == pytest.approx(
        brute_force_matrix(ham_4e4o, [hartree_fock_determinant(2, 2)])[0, 0],
        abs=1e-12)


def test_zero_epsilon_reaches_fci(ham_2e2o, ham_4e4o):
    for ham in (ham_2e2o, ham_4e4o):
        result = hci_variational(ham, 0.0)
        exact = fci_ground_state(ham)
        assert result.energy == pytest.approx(exact.energy, abs=1e-10)


def test_energy_monotone_in_epsilon(ham_4e4o):
    energies = [hci_variational(ham_4e4o, eps).energy
                for eps in (1e-1, 1e-3, 1e-5, 0.0)]
    for tighter, looser in zip(energies[1:], energies):
        assert tighter <= looser + 1e-12


def test_hci_variational_above_fci(ham_4e4o):
    exact = fci_ground_state(ham_4e4o)
    result = hci_variational(ham_4e4o, 1e-2)
    assert result.energy >= exact.energy - 1e-12


def test_hci_diagnostics():
    ham = random_hamiltonian(4, 2, 2, seed=31)
    result = hci_variational(ham, 1e-3)
    assert result.diagnostics["hci_sweeps"] >= 1


def test_hci_stops_when_a_growing_sweep_barely_moves_the_energy(monkeypatch):
    # Weak couplings: sweep 3 grows the space 381 -> 383 rows but moves the
    # energy by about 3e-10 Ha, below ENERGY_TOL, so HCI stops there; with
    # no tolerance it runs a fourth sweep, which finds the space stable.
    ham = random_hamiltonian(6, 3, 3, seed=6, one_scale=0.1, two_scale=0.02,
                             diagonal_spread=1.0)
    solves = []
    monkeypatch.setattr(baselines, "solve_subspace",
                        lambda *a: solves.append(solve_subspace(*a))
                        or solves[-1])
    result = hci_variational(ham, 3e-5)
    assert result.diagnostics["hci_sweeps"] == 3
    assert [s.dimension for s in solves] == [1, 118, 381, 383]
    assert 0 < abs(solves[-1].energy - solves[-2].energy) < baselines.ENERGY_TOL
    monkeypatch.setattr(baselines, "ENERGY_TOL", 0.0)
    assert hci_variational(ham, 3e-5).diagnostics["hci_sweeps"] == 4


def test_hci_options_validation(ham_2e2o):
    for bad in (-1.0, float("nan")):
        with pytest.raises(ConfigError):
            hci_variational(ham_2e2o, bad)
    assert hci_variational(ham_2e2o, float("inf")).dimension == 1


def _reference_hci(ham, epsilon1, max_iterations=50, energy_tol=1e-9):
    """The HCI sweep one determinant at a time, on the reference
    generator and Python sets: (result, sweeps)."""
    hf = hartree_fock_determinant(ham.n_alpha, ham.n_beta)
    current = solve_subspace(ham, packed([hf]))
    sweeps = 0
    for sweeps in range(1, max_iterations + 1):
        in_basis = set(as_pairs(current.basis))
        new = set()
        for det, coeff in zip(as_pairs(current.basis), current.vector):
            amp = abs(coeff)
            if amp < 1e-14:
                continue
            new.update(target for target, _ in
                       reference_connected(ham, Determinant(*det), epsilon1 / amp))
        new -= in_basis
        if not new:
            break
        previous_energy = current.energy
        current = solve_subspace(ham, packed(sorted(in_basis | new)))
        if abs(previous_energy - current.energy) < energy_tol:
            break
    return current, sweeps


@pytest.mark.parametrize("n_beta", [3, 4])
@pytest.mark.parametrize("epsilon1", [0.3, 0.1, 1e-2])
def test_hci_basis_matches_reference_sweep(n_beta, epsilon1):
    # At 1e-2 the space passes 2000 determinants (the Davidson path).
    ham = random_hamiltonian(8, 4, n_beta, seed=40 + n_beta,
                             diagonal_spread=3.0)
    expected, sweeps = _reference_hci(ham, epsilon1)
    result = hci_variational(ham, epsilon1)
    assert np.array_equal(result.basis, expected.basis)
    assert result.diagnostics["hci_sweeps"] == sweeps
    assert abs(result.energy - expected.energy) <= 1e-12


def test_hci_in_small_blocks_is_bitwise_the_same(monkeypatch):
    # One source per screen, and a fold whenever the pending rows outnumber
    # the merged ones: the running merge gives the same space, so the same
    # solves.
    ham = random_hamiltonian(6, 3, 3, seed=7, diagonal_spread=1.0)
    expected = hci_variational(ham, 1e-2)
    merges = []
    monkeypatch.setattr(hamiltonian, "merge_bases",
                        lambda *b: merges.append(b) or merge_bases(*b))
    monkeypatch.setattr(baselines, "_BLOCK_CANDIDATES", 1)
    monkeypatch.setattr(hamiltonian, "_BLOCK_CANDIDATES", 1)
    got = hci_variational(ham, 1e-2)
    assert len(merges) > 2 * got.diagnostics["hci_sweeps"]
    assert np.array_equal(got.basis, expected.basis)
    assert np.array_equal(got.vector, expected.vector)
    assert got.energy == expected.energy
    assert got.diagnostics == expected.diagnostics
    # The folds of the first sweep reach 109 rows: a budget one byte below
    # a solve over them refuses that union, and at the budget the merge
    # passes and the 109-row dense solve's CSR estimate refuses next.
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(109) - 1)
    with pytest.raises(CapacityError, match="HCI space of 109 rows"):
        hci_variational(ham, 1e-2)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(109))
    with pytest.raises(CapacityError, match="sparse matrix over 109 "):
        hci_variational(ham, 1e-2)


def test_hci_union_refused_at_the_rows_a_solve_could_hold(monkeypatch):
    # The first sweep merges 109 rows from the one-row HF solve.
    ham = random_hamiltonian(6, 3, 3, seed=7, diagonal_spread=1.0)
    merges = []

    def recorded(*args):
        merges.append(hamiltonian.merge_blocks(*args))
        return merges[-1]

    monkeypatch.setattr(baselines, "merge_blocks", recorded)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(109) - 1)
    with pytest.raises(CapacityError, match="HCI space of 109 rows") as refused:
        hci_variational(ham, 1e-2)
    assert merges == [] and "the -" not in str(refused.value)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(109))
    with pytest.raises(CapacityError, match="sparse matrix over 109 "):
        hci_variational(ham, 1e-2)
    assert [len(m) for m in merges] == [109]


def test_ext_hci_reaches_fci_on_small_sector(ham_2e2o):
    prior = hci_variational(ham_2e2o, 1e-1)
    result = ext_hci(ham_2e2o, prior, ExtensionThresholds(0.0, 0.0))
    exact = fci_ground_state(ham_2e2o)
    assert result.energy == pytest.approx(exact.energy, abs=1e-9)


def test_ext_hci_noop_thresholds(ham_4e4o):
    prior = hci_variational(ham_4e4o, 1e-2)
    result = ext_hci(ham_4e4o, prior, ExtensionThresholds(1.0, 1.0))
    assert result.energy == pytest.approx(prior.energy, abs=1e-12)


def test_ext_hci_reuses_the_hci_solve_when_nothing_is_added(monkeypatch):
    # At 1e-3 HCI ends on the whole 1 225-row (7,3,3) sector, so the
    # extension is the HCI basis and a second solve would repeat the first.
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    prior, smaller = hci_variational(ham, 1e-3), hci_variational(ham, 1e-1)
    assert prior.dimension == 1225
    calls = []
    # ext_hci solves through sqd.solve_distinct, so count sqd's solves.
    monkeypatch.setattr(sqd, "solve_subspace",
                        lambda *a: calls.append(a) or solve_subspace(*a))
    result = ext_hci(ham, prior)
    assert calls == []
    assert result.energy == solve_subspace(ham, prior.basis).energy
    assert result.dimension == 1225
    # An extension that adds rows is solved, once.
    ext_hci(ham, smaller)
    assert len(calls) == 1


def test_ext_hci_never_above_hci(ham_4e4o):
    prior = hci_variational(ham_4e4o, 1e-2)
    result = ext_hci(ham_4e4o, prior)
    assert result.energy <= prior.energy + 1e-12
    hf_energy = brute_force_matrix(ham_4e4o,
                                   [hartree_fock_determinant(2, 2)])[0, 0]
    assert prior.energy <= hf_energy + 1e-12


def test_extension_code_path_shared(ham_4e4o):
    # Both extension consumers call the same function; identical inputs
    # must give identical extended spaces.
    prior = hci_variational(ham_4e4o, 1e-2)
    a = extend_subspace(prior.vector, prior.basis, ExtensionThresholds(),
                        ham_4e4o.n_orb)
    b = extend_subspace(prior.vector, prior.basis, ExtensionThresholds(),
                        ham_4e4o.n_orb)
    assert np.array_equal(a, b)


def test_ext_hci_cap_counts_the_hci_basis(ham_4e4o, monkeypatch):
    # No-op thresholds: the extended space is the HCI basis alone.
    prior = hci_variational(ham_4e4o, 1e-2)
    n = len(prior.basis)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(n))
    extended = ext_hci(ham_4e4o, prior, ExtensionThresholds(1.0, 1.0))
    assert extended.dimension == n
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(n) - 1)
    with pytest.raises(CapacityError, match=f"extended space of {n} rows"):
        ext_hci(ham_4e4o, prior, ExtensionThresholds(1.0, 1.0))


def test_extension_refused_in_the_merge_not_the_solve(monkeypatch):
    # 69 HCI rows extend to 727; a budget one byte below a solve over them
    # refuses the union before any solve is called.
    ham = random_hamiltonian(7, 3, 3, seed=24, diagonal_spread=1.0)
    prior = hci_variational(ham, 0.3)
    n = len(extend_subspace(prior.vector, prior.basis, ExtensionThresholds(),
                            ham.n_orb, prior.basis))
    assert (len(prior.basis), n) == (69, 727)

    def not_solved(*args):
        raise AssertionError("the union must be refused before its solve")

    monkeypatch.setattr(sqd, "solve_subspace", not_solved)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(n) - 1)
    with pytest.raises(CapacityError,
                       match=f"extended space of {n} rows") as refused:
        ext_hci(ham, prior)
    assert "the -" not in str(refused.value)
