"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints "criterion N: PASS — ..." after its assertions; pytest
itself reports FAIL otherwise. Criteria with runtime budgets assert the
elapsed wall time as well.
"""

import time

import numpy as np
import pytest

from conftest import ONE_ORBITAL_FCIDUMP, as_pairs, packed, random_hamiltonian
from oracles import (brute_force_matrix, determinant_to_bitstring,
                     excitation_degree, hartree_fock_determinant,
                     one_rdm_alpha, total_variation,
                     valid_probability_after_flips)
import scipy.linalg

from sqdci.activespace import DEFAULT_ETA, filter_contributions
from sqdci.baselines import ext_hci, hci_variational
from sqdci.cli import EV_PER_HARTREE, RunConfig, execute_run, reaction_report
from sqdci.hamiltonian import build_sparse_matrix, sector_basis
from sqdci.sampler import (LUCJParams, SectorState, apply_readout_noise,
                           lucj_state, sample_counts)
from sqdci.solver import davidson_lowest, dense_eigensolve, fci_ground_state
from sqdci.sqd import (ExtensionThresholds, RecoveryConfig, ext_sqd,
                       extend_subspace, partition_by_hamming,
                       recover_configurations, sqd_ground_state)
from test_solver import random_sparse_symmetric


def fci_counts(ham, shots, seed=0):
    reference = fci_ground_state(ham)
    state = SectorState(ham.n_orb, ham.n_alpha, ham.n_beta, reference.vector)
    return sample_counts(state, shots, seed=seed), reference.energy


def test_criterion_01_operator_matrix_oracle():
    started = time.perf_counter()
    gen = np.random.default_rng(100)
    for case in range(50):
        n = int(gen.integers(2, 5))
        na = int(gen.integers(1, n + 1))
        nb = int(gen.integers(1, n + 1))
        ham = random_hamiltonian(n, na, nb, seed=1000 + case)
        basis = sector_basis(n, na, nb)
        built = build_sparse_matrix(ham, basis).toarray()
        oracle = brute_force_matrix(ham, basis)
        assert np.max(np.abs(built - oracle)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 1: PASS — 50 Hamiltonians match the brute-force "
          f"second-quantized matrix within 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_eigensolver_oracle():
    started = time.perf_counter()
    for seed in range(20):
        mat = random_sparse_symmetric(200, seed=200 + seed)
        exact = np.linalg.eigvalsh(mat)[0]
        spec = davidson_lowest(lambda v: mat @ v, np.diag(mat))
        assert spec.energy == pytest.approx(exact, abs=1e-9)
    for n, na, nb, seed in [(4, 2, 2, 0), (5, 2, 2, 1), (6, 3, 3, 2),
                            (7, 3, 3, 3)]:
        ham = random_hamiltonian(n, na, nb, seed=300 + seed)
        basis = sector_basis(n, na, nb)
        assert len(basis) <= 4096
        sparse = build_sparse_matrix(ham, basis)
        spec = davidson_lowest(lambda v: sparse @ v, sparse.diagonal())
        exact = dense_eigensolve(sparse.toarray()).energy
        assert spec.energy == pytest.approx(exact, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 2: PASS — Davidson matches dense diagonalization "
          f"within 1e-9 Ha on 20 random operators and 4 CI sectors "
          f"({elapsed:.1f}s)")


def test_criterion_03_sqd_fci_convergence():
    started = time.perf_counter()
    for n, na, nb, seed in [(2, 1, 1, 400), (4, 2, 2, 401)]:
        ham = random_hamiltonian(n, na, nb, seed=seed, diagonal_spread=1.0)
        counts, e_fci = fci_counts(ham, shots=100_000, seed=seed)
        full = sqd_ground_state(ham, counts,
                                RecoveryConfig(iterations=2, batches=4,
                                               samples_per_batch=50,
                                               seed=seed))
        assert full.energy == pytest.approx(e_fci, abs=1e-8)
        # 1e3 shots: the raw sample covers only part of the sector; the
        # product closure must recover the rest of the relevant space.
        sparse_counts, _ = fci_counts(ham, shots=1000, seed=0)
        sector_size = len(sector_basis(n, na, nb))
        partial = sqd_ground_state(ham, sparse_counts,
                                   RecoveryConfig(iterations=3, batches=8,
                                                  samples_per_batch=50,
                                                  seed=seed))
        if n == 4:
            assert partial.raw_dimension < sector_size
        assert partial.energy == pytest.approx(e_fci, abs=1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 3: PASS — SQD reproduces FCI within 1e-8 at 1e5 "
          f"shots and within 1e-4 at 1e3 shots ({elapsed:.1f}s)")


def test_criterion_04_variational_chain():
    for seed in (500, 501, 502):
        ham = random_hamiltonian(4, 2, 2, seed=seed, diagonal_spread=1.0)
        e_fci = fci_ground_state(ham).energy
        hf = hartree_fock_determinant(ham.n_alpha, ham.n_beta)
        e_hf = brute_force_matrix(ham, [hf])[0, 0]
        counts, _ = fci_counts(ham, shots=400, seed=seed)
        sqd = sqd_ground_state(ham, counts,
                               RecoveryConfig(iterations=2, batches=4,
                                              samples_per_batch=8, seed=seed))
        ext = ext_sqd(ham, sqd)
        hci = hci_variational(ham, 5e-3)
        ext_h = ext_hci(ham, hci)
        slack = 1e-9
        assert e_fci <= ext.energy + slack <= sqd.energy + 2 * slack
        assert e_fci <= ext_h.energy + slack <= hci.energy + 2 * slack
        assert hci.energy <= e_hf + slack
    print("criterion 4: PASS — E_FCI <= E_ExtSQD <= E_SQD and "
          "E_FCI <= E_ExtHCI <= E_HCI <= E_HF with 1e-9 slack on 3 fixtures")


def test_criterion_05_recovery_efficacy():
    ham = random_hamiltonian(4, 2, 2, seed=600, diagonal_spread=1.0)
    shots, p = 100_000, 0.05
    counts, _ = fci_counts(ham, shots=shots, seed=600)
    noisy = apply_readout_noise(counts, p, seed=601)
    cfg = RecoveryConfig(iterations=4, batches=8, samples_per_batch=40,
                         seed=602)
    clean_energy = sqd_ground_state(ham, counts, cfg).energy
    noisy_energy = sqd_ground_state(ham, noisy, cfg).energy
    assert noisy_energy == pytest.approx(clean_energy, abs=1e-4)

    valid, invalid = partition_by_hamming(noisy, 2, 2)
    occupations = np.full(8, 0.5)
    repaired = recover_configurations(invalid, occupations, 2, 2, seed=603)
    for key in repaired.entries:  # 100% sector-valid, exact
        assert key[:4].count("1") == 2 and key[4:].count("1") == 2
    assert repaired.total_shots == invalid.total_shots

    expected_valid = valid_probability_after_flips(4, 2, 2, p)
    forbidden = invalid.total_shots / shots
    sigma = np.sqrt(expected_valid * (1 - expected_valid) / shots)
    assert abs(forbidden - (1 - expected_valid)) < 5 * sigma
    print("criterion 5: PASS — post-recovery energy within 1e-4 Ha of the "
          "noiseless baseline; recovered shots 100% sector-valid; forbidden "
          "fraction within 5 sigma of the convolution oracle")


def test_criterion_06_extension_thresholds():
    n = 4
    d1 = (0b0011, 0b0011)   # amplitude 0.2: singles + doubles
    d2 = (0b0101, 0b0011)   # amplitude 0.05: singles only
    d3 = (0b1100, 0b1100)   # amplitude 0.005: discarded
    vector = np.array([0.2, 0.05, 0.005])
    out = as_pairs(extend_subspace(vector, packed([d1, d2, d3]),
                                   ExtensionThresholds(), n))
    expected = {d1, d2}
    expected |= {d for d in as_pairs(sector_basis(n, 2, 2))
                 if 1 <= excitation_degree(d1, d) <= 2}
    expected |= {d for d in as_pairs(sector_basis(n, 2, 2))
                 if excitation_degree(d2, d) == 1}
    assert out == sorted(expected)
    assert d3 not in out
    print("criterion 6: PASS — amplitudes (0.2, 0.05, 0.005) yield "
          "singles+doubles / singles / dropped under thresholds 1e-2/1e-1")


def test_criterion_07_lucj_sampler():
    # Identity rotation: only the RHF bitstring is ever sampled.
    state = lucj_state(LUCJParams(layers=[(np.eye(4), None)]), 4, 2, 2)
    counts = sample_counts(state, shots=20_000, seed=700)
    rhf_key = determinant_to_bitstring(hartree_fock_determinant(2, 2), 4)
    assert counts.entries == {rhf_key: 20_000}

    # J=0 single layer: rotated-determinant one-body density matrix.
    gen = np.random.default_rng(701)
    a = gen.normal(size=(4, 4)) * 0.6
    U = scipy.linalg.expm(a - a.T)
    state = lucj_state(LUCJParams(layers=[(U, None)]), 4, 2, 2)
    dm = one_rdm_alpha(state.amplitudes, sector_basis(4, 2, 2), 4)
    P = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.max(np.abs(dm - U @ P @ U.T)) < 1e-9

    # Sampled distribution TV distance on a 100-dimensional sector.
    b = gen.normal(size=(5, 5)) * 0.4
    params = LUCJParams(layers=[(scipy.linalg.expm(b - b.T), 0.2 * np.eye(10))])
    state = lucj_state(params, 5, 2, 2)
    counts = sample_counts(state, shots=1_000_000, seed=702)
    keys = [determinant_to_bitstring(d, 5) for d in sector_basis(5, 2, 2)]
    tv = total_variation(counts, np.abs(state.amplitudes) ** 2, keys)
    assert tv < 0.01
    print(f"criterion 7: PASS — identity-rotation state samples only RHF; "
          f"1-RDM matches U P U^T within 1e-9; TV={tv:.4f} < 0.01 "
          f"at 1e6 shots")


def test_criterion_08_hci_limits():
    for n, na, nb, seed in [(4, 2, 2, 800), (6, 3, 3, 801)]:
        ham = random_hamiltonian(n, na, nb, seed=seed)
        exact = fci_ground_state(ham).energy
        zero_eps = hci_variational(ham, 0.0)
        assert zero_eps.energy == pytest.approx(exact, abs=1e-10)
        energies = [hci_variational(ham, eps).energy
                    for eps in (1e-2, 1e-3, 1e-4, 0.0)]
        for tighter, looser in zip(energies[1:], energies):
            assert tighter <= looser + 1e-12
    print("criterion 8: PASS — epsilon1=0 reproduces FCI within 1e-10; "
          "energy monotone non-increasing over {1e-2, 1e-3, 1e-4, 0}")


def test_criterion_09_protocol_defaults(tmp_path):
    config = RunConfig()
    assert config.iterations == 10
    assert config.batches == 16
    assert config.shots == 6_000_000
    assert config.discard_below == 1e-2
    assert config.doubles_above == 1e-1
    # The DDA contribution threshold, and the default that filters by it.
    assert DEFAULT_ETA == 1e-3
    assert filter_contributions([5e-4, 1e-3, 2e-3]) == [2, 1]
    assert RecoveryConfig().iterations == 10
    assert RecoveryConfig().batches == 16
    assert ExtensionThresholds().discard_below == 1e-2
    assert ExtensionThresholds().doubles_above == 1e-1

    # The run record echoes the same defaults.
    path = tmp_path / "one.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP)
    record = execute_run(RunConfig(hamiltonian_path=str(path), method="fci"))
    echo = record["config"]
    assert echo["iterations"] == 10 and echo["batches"] == 16
    assert echo["shots"] == 6_000_000
    assert echo["discard_below"] == 1e-2 and echo["doubles_above"] == 1e-1
    print("criterion 9: PASS — defaults serialize K=10, B=16, shots=6e6, "
          "thresholds 1e-2/1e-1; DDA eta=1e-3")


def test_criterion_10_reaction_arithmetic():
    product = {"method": "ext-sqd", "energy": -75.123456789012345}
    reactant = {"method": "ext-sqd", "energy": -75.100000000000001}
    report = reaction_report(product, reactant)
    delta = product["energy"] - reactant["energy"]
    assert report["delta_e_hartree"] == delta  # exact, bit for bit
    assert report["delta_e_ev"] == delta * EV_PER_HARTREE
    swapped = reaction_report(reactant, product)
    assert swapped["delta_e_hartree"] == -report["delta_e_hartree"]
    assert swapped["delta_e_ev"] == -report["delta_e_ev"]
    print("criterion 10: PASS — reaction energy exact to the last bit of "
          "the eV conversion; antisymmetric under record swap")
