import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_pairs, counts_of, packed, random_hamiltonian
from oracles import (brute_force_matrix, determinant_to_bitstring,
                     excitation_degree, excitations, hartree_fock_determinant)
from sqdci import hamiltonian, rng, solver, sqd
from sqdci.errors import CapacityError, ConfigError, EmptyValidSampleError
from sqdci.hamiltonian import merge_bases, sector_basis
from sqdci.sampler import BitstringCounts, SectorState, sample_counts
from sqdci.solver import fci_ground_state, solve_subspace, solver_bytes
from sqdci.sqd import (ExtensionThresholds, RecoveryConfig,
                       _eigenvector_occupations, build_subspace, ext_sqd,
                       extend_subspace, partition_by_hamming,
                       recover_configurations, sqd_ground_state)


def fci_counts(ham, shots, seed=0):
    reference = fci_ground_state(ham)
    state = SectorState(ham.n_orb, ham.n_alpha, ham.n_beta, reference.vector)
    return sample_counts(state, shots, seed=seed), reference.energy


def counted_solves(monkeypatch):
    """The bases :mod:`sqdci.sqd` passes to ``solve_subspace`` from now on."""
    calls = []
    monkeypatch.setattr(sqd, "solve_subspace",
                        lambda ham, basis: calls.append(basis)
                        or solve_subspace(ham, basis))
    return calls


def assert_fresh(ham, solution):
    """``solution`` is bitwise what a new solve of its basis gives."""
    fresh = solve_subspace(ham, solution.basis)
    assert solution.energy == fresh.energy
    assert np.array_equal(solution.vector, fresh.vector)


# ------------------------------------------------------------------ filtering

def test_partition_examples():
    counts = counts_of(4, {"0110": 3, "1110": 2, "0101": 1})
    valid, invalid = partition_by_hamming(counts, 1, 1)
    assert set(valid.entries) == {"0110", "0101"}
    assert set(invalid.entries) == {"1110"}
    assert valid.total_shots + invalid.total_shots == counts.total_shots


def test_partition_uniform_fraction():
    # Uniform over 4 bits: C(2,1)^2 / 16 = 25% valid.
    gen = np.random.default_rng(0)
    shots = 40_000
    draws = gen.integers(0, 16, size=shots)
    entries = {}
    for d in draws:
        key = format(d, "04b")
        entries[key] = entries.get(key, 0) + 1
    valid, _ = partition_by_hamming(counts_of(4, entries), 1, 1)
    frac = valid.total_shots / shots
    sigma = np.sqrt(0.25 * 0.75 / shots)
    assert abs(frac - 0.25) < 5 * sigma


# ------------------------------------------------------------------- recovery

def test_recovery_output_always_sector_valid():
    gen = np.random.default_rng(1)
    entries = {}
    for _ in range(300):
        key = "".join(gen.choice(["0", "1"], size=8))
        if key[:4].count("1") == 2 and key[4:].count("1") == 2:
            continue
        entries[key] = entries.get(key, 0) + 1
    invalid = counts_of(8, entries)
    occ = gen.random(8)
    repaired = recover_configurations(invalid, occ, 2, 2, seed=3)
    assert repaired.total_shots == invalid.total_shots
    for key in repaired.entries:
        assert key[:4].count("1") == 2 and key[4:].count("1") == 2


def test_recovery_forced_single_flip():
    # alpha half "11" must drop exactly one bit; occupations pin bit 0.
    invalid = counts_of(4, {"1110": 1})
    occ = np.array([1.0, 0.0, 1.0, 0.0])
    repaired = recover_configurations(invalid, occ, 1, 1, seed=0)
    assert repaired.entries == {"1010": 1}


def test_recovery_toward_hf_with_one_hot_occupations():
    hf = hartree_fock_determinant(2, 2)
    target = determinant_to_bitstring(hf, 4)
    occ = np.array([1.0 if c == "1" else 0.0 for c in target])
    invalid = counts_of(8, {"11100000": 5, "00001110": 5})
    repaired = recover_configurations(invalid, occ, 2, 2, seed=1)
    assert repaired.entries == {target: 10}


def test_recovery_deterministic_per_seed():
    invalid = counts_of(4, {"1111": 20, "0000": 20})
    occ = np.full(4, 0.5)
    a = recover_configurations(invalid, occ, 1, 1, seed=7)
    b = recover_configurations(invalid, occ, 1, 1, seed=7)
    assert a.entries == b.entries


def test_recovery_rejects_bad_occupations():
    with pytest.raises(ConfigError):
        recover_configurations(counts_of(4, {"1111": 1}),
                               np.array([0.0, 0.5, 1.2, 0.0]), 1, 1, seed=0)


# ------------------------------------------------------------------- subspace

def test_eigenvector_occupations_match_per_determinant_loop():
    n = 5
    basis = merge_bases(sector_basis(n, 2, 3)[::3], sector_basis(n, 1, 1)[::4])
    vector = np.random.default_rng(4).normal(size=len(basis))
    expected = np.zeros(2 * n)
    for (alpha, beta), c in zip(as_pairs(basis), vector):
        for p in range(n):
            expected[p] += c * c * (alpha >> p & 1)
            expected[n + p] += c * c * (beta >> p & 1)
    got = _eigenvector_occupations(basis, vector, n)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_build_subspace_closure_product():
    counts = counts_of(4, {"1001": 2, "0110": 1})
    basis = build_subspace(counts, 2)
    # 2 alpha strings x 2 beta strings, in (alpha, beta) order.
    assert basis.dtype == np.uint64
    assert as_pairs(basis) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_build_subspace_duplicates_collapse():
    counts = counts_of(4, {"1010": 5})
    assert as_pairs(build_subspace(counts, 2)) == [(1, 1)]


def test_build_subspace_empty_rejected():
    with pytest.raises(ConfigError):
        build_subspace(counts_of(4, {}), 2)


# ------------------------------------------------------------------- the loop

def test_single_hf_bitstring_gives_hf_energy(ham_4e4o):
    hf = hartree_fock_determinant(2, 2)
    counts = counts_of(8, {determinant_to_bitstring(hf, 4): 100})
    result = sqd_ground_state(ham_4e4o, counts,
                              RecoveryConfig(iterations=1, batches=1))
    assert result.energy == pytest.approx(
        brute_force_matrix(ham_4e4o, [hf])[0, 0], abs=1e-12)
    assert result.dimension == 1


def test_full_support_reproduces_fci(ham_2e2o):
    counts, e_fci = fci_counts(ham_2e2o, shots=100_000)
    result = sqd_ground_state(ham_2e2o, counts,
                              RecoveryConfig(iterations=2, batches=4,
                                             samples_per_batch=50))
    assert result.energy == pytest.approx(e_fci, abs=1e-8)


def test_energy_variational_against_fci(ham_4e4o):
    counts, e_fci = fci_counts(ham_4e4o, shots=300, seed=5)
    result = sqd_ground_state(ham_4e4o, counts,
                              RecoveryConfig(iterations=2, batches=4,
                                             samples_per_batch=10))
    assert result.energy >= e_fci - 1e-9


def test_no_valid_shots_distinct_error(ham_2e2o):
    counts = counts_of(4, {"1111": 10, "0000": 3})
    with pytest.raises(EmptyValidSampleError):
        sqd_ground_state(ham_2e2o, counts, RecoveryConfig())


def test_loop_deterministic(ham_4e4o):
    counts, _ = fci_counts(ham_4e4o, shots=2000, seed=9)
    cfg = RecoveryConfig(iterations=3, batches=4, samples_per_batch=15, seed=4)
    a = sqd_ground_state(ham_4e4o, counts, cfg)
    b = sqd_ground_state(ham_4e4o, counts, cfg)
    assert a.energy_history == b.energy_history
    assert np.array_equal(a.basis, b.basis)
    for x, y in zip(a.batches, b.batches, strict=True):
        assert np.array_equal(x.vector, y.vector)


def test_result_invariants(ham_4e4o):
    counts, _ = fci_counts(ham_4e4o, shots=5000, seed=2)
    result = sqd_ground_state(ham_4e4o, counts,
                              RecoveryConfig(iterations=2, batches=3,
                                             samples_per_batch=12))
    assert result.energy == min(b.energy for b in result.batches)
    assert result.dimension == len(result.basis)
    assert len(result.energy_history) == 2
    assert result.raw_dimension <= result.dimension


def test_occupations_only_for_iterations_that_recover(ham_4e4o, monkeypatch):
    # Each recovering iteration takes the occupations of the previous
    # iteration's batch eigenstates; with no invalid shots none are taken.
    calls = []
    real = sqd._eigenvector_occupations
    monkeypatch.setattr(sqd, "_eigenvector_occupations",
                        lambda *a: calls.append(a) or real(*a))
    cfg = RecoveryConfig(iterations=3, batches=2, samples_per_batch=8)
    counts, _ = fci_counts(ham_4e4o, shots=400, seed=11)
    sqd_ground_state(ham_4e4o, counts, cfg)
    assert calls == []
    noisy = counts_of(8, {**counts.entries, "11100000": 7})
    sqd_ground_state(ham_4e4o, noisy, cfg)
    assert len(calls) == 4  # iterations 2 and 3, two batches each


def test_batches_closing_to_one_space_solve_it_once(monkeypatch):
    # Each batch draws all but one of the 400 sector determinants; every
    # string is in 20 of them, so each batch closes to the whole sector.
    ham = random_hamiltonian(6, 3, 3, seed=1)
    sector = sector_basis(6, 3, 3)
    counts = BitstringCounts(12, sector[:, 0], sector[:, 1],
                             1000 + np.arange(len(sector)))
    cfg = RecoveryConfig(iterations=2, batches=2,
                         samples_per_batch=len(sector) - 1)
    calls = counted_solves(monkeypatch)
    result = sqd_ground_state(ham, counts, cfg)
    assert len(calls) == result.solves == 1
    # Reused solutions keep their own batch's shots.
    drawn = [sqd._draw_batch(counts, cfg.samples_per_batch,
                             rng.stream(cfg.seed, "batch", 2, b)).total_shots
             for b in range(2)]
    assert drawn[0] != drawn[1]
    assert [b.shot_weight for b in result.batches] == drawn
    for batch in result.batches:
        assert np.array_equal(batch.basis, sector)
        assert batch.raw_dimension == len(sector) - 1
        assert_fresh(ham, batch)


def test_closures_of_one_length_are_each_solved(ham_4e4o, monkeypatch):
    # Batches of one shot close to one of two 1-row spaces.
    counts = counts_of(8, {"11001100": 1, "00110011": 1})
    calls = counted_solves(monkeypatch)
    result = sqd_ground_state(ham_4e4o, counts,
                              RecoveryConfig(iterations=1, batches=4,
                                             samples_per_batch=1))
    spaces = {tuple(as_pairs(b.basis)) for b in result.batches}
    assert len(spaces) == 2
    assert len(calls) == result.solves == 2
    assert {tuple(as_pairs(basis)) for basis in calls} == spaces
    for batch in result.batches:
        assert_fresh(ham_4e4o, batch)



def test_an_iteration_solves_without_the_previous_ones_solutions(ham_4e4o,
                                                                 monkeypatch):
    # While iteration 2 solves, iteration 1's running best is the one of its
    # solutions still held; the other batches' bases and vectors are freed.
    counts, _ = fci_counts(ham_4e4o, shots=2000, seed=9)
    cfg = RecoveryConfig(iterations=2, batches=4, samples_per_batch=6, seed=4)
    draws, first, held = [], [], []
    real_draw = sqd._draw_batch
    monkeypatch.setattr(sqd, "_draw_batch",
                        lambda *a: draws.append(None) or real_draw(*a))

    def solve(ham, basis):
        iteration = (len(draws) - 1) // cfg.batches + 1
        if iteration == 2:
            held.append([e for e, vector in first if vector() is not None])
        solution = solve_subspace(ham, basis)
        if iteration == 1:
            first.append((solution.energy, weakref.ref(solution.vector)))
        return solution

    monkeypatch.setattr(sqd, "solve_subspace", solve)
    sqd_ground_state(ham_4e4o, counts, cfg)
    assert len(first) == cfg.batches
    assert held and all(h == [min(e for e, _ in first)] for h in held)

# ------------------------------------------------------------------ extension

def test_extension_threshold_example():
    n, na, nb = 4, 2, 2
    d1 = (0b0011, 0b0011)
    d2 = (0b0101, 0b0011)
    d3 = (0b1100, 0b1100)  # >2 moves from d1, >1 from d2
    basis = packed([d1, d2, d3])
    vector = np.array([0.2, 0.05, 0.005])
    out = as_pairs(extend_subspace(vector, basis, ExtensionThresholds(), n))
    sector = as_pairs(sector_basis(n, na, nb))
    expected = {d1, d2}
    expected |= {d for d in sector if 1 <= excitation_degree(d1, d) <= 2}
    expected |= {d for d in sector if excitation_degree(d2, d) == 1}
    assert out == sorted(expected)
    assert d3 not in out


def test_extension_zero_thresholds_give_cisd():
    n = 4
    hf = hartree_fock_determinant(2, 2)
    out = as_pairs(extend_subspace(np.array([1.0]), packed([hf]),
                                   ExtensionThresholds(0.0, 0.0), n))
    cisd = {d for d in as_pairs(sector_basis(n, 2, 2))
            if excitation_degree(hf, d) <= 2}
    assert out == sorted(cisd)


def test_extension_is_superset_of_retained(ham_4e4o):
    counts, _ = fci_counts(ham_4e4o, shots=3000, seed=3)
    result = sqd_ground_state(ham_4e4o, counts, RecoveryConfig(iterations=1))
    out = set(as_pairs(extend_subspace(result.batches[0].vector,
                                       result.batches[0].basis,
                                       ExtensionThresholds(), ham_4e4o.n_orb)))
    retained = {d for d, c in zip(as_pairs(result.batches[0].basis),
                                  result.batches[0].vector)
                if abs(c) >= 1e-2}
    assert retained <= out


def _reference_extension(vector, basis, thresholds, n_orb):
    """The extension one determinant at a time on Python sets, sorted."""
    out = set()
    for det, coeff in zip(as_pairs(basis), vector):
        if abs(coeff) >= thresholds.discard_below:
            out.add(det)
            out.update(excitations(det, n_orb,
                                   doubles=abs(coeff) > thresholds.doubles_above))
    return sorted(out)


@st.composite
def _extension_problem(draw):
    """A basis over up to 7 orbitals from one or two sectors (open-shell,
    asymmetric, or with 0 or n_orb electrons in a spin), amplitudes that
    may equal a threshold, thresholds at 0, at 1 or equal to each other,
    and a chunk size that may expand one mask at a time."""
    n = draw(st.integers(1, 7))
    sectors = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                            min_size=1, max_size=2))
    pool = sorted({d for na, nb in sectors
                   for d in as_pairs(sector_basis(n, na, nb))})
    basis = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, unique=True,
                                 max_size=draw(st.sampled_from([3, 30])))))
    level = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    discard = draw(level)
    doubles = draw(st.sampled_from([discard, 1.0]) | st.floats(discard, 1.0))
    thresholds = ExtensionThresholds(discard, doubles)
    amplitude = st.sampled_from([0.0, discard, doubles, 1.0]) | st.floats(0.0, 1.0)
    signs = st.sampled_from([1.0, -1.0])
    vector = np.array([draw(amplitude) * draw(signs) for _ in basis])
    return vector, packed(basis), thresholds, n, draw(st.sampled_from([1, 1 << 16]))


@settings(max_examples=80, deadline=None)
@given(_extension_problem())
# Two rows three moves apart in each spin: no row's doubles cover the
# other's alpha-beta doubles.
@example((np.ones(2), packed([(0b111, 0b111), (0b111000, 0b111000)]),
          ExtensionThresholds(0.0, 0.0), 7, 1 << 16))
def test_packed_extension_matches_reference(problem):
    vector, basis, thresholds, n, block = problem
    with mock.patch.object(hamiltonian, "_BLOCK_CANDIDATES", block):
        got = extend_subspace(vector, basis, thresholds, n)
    assert got.dtype == np.uint64 and got.shape == (len(got), 2)
    assert as_pairs(got) == _reference_extension(vector, basis, thresholds, n)


def test_extension_cap_holds_on_the_running_merge(monkeypatch):
    basis = sector_basis(6, 3, 3)[::7]
    vector = np.full(len(basis), 0.05)  # every row kept, no doubles
    full = extend_subspace(vector, basis, ExtensionThresholds(), 6)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(len(full)))
    assert np.array_equal(extend_subspace(vector, basis, ExtensionThresholds(),
                                          6), full)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES",
                        solver_bytes(len(full)) - 1)
    with pytest.raises(CapacityError,
                       match=f"extended space of {len(full)} rows"):
        extend_subspace(vector, basis, ExtensionThresholds(), 6)
    # With one-row folds, a budget below the kept rows fires at the first
    # merge, before the moves are expanded.
    merges = []
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES",
                        solver_bytes(len(basis)) - 1)
    monkeypatch.setattr(hamiltonian, "_BLOCK_CANDIDATES", 1)
    monkeypatch.setattr(hamiltonian, "merge_bases",
                        lambda *b: merges.append(b) or merge_bases(*b))
    with pytest.raises(CapacityError,
                       match=f"extended space of {len(basis)} rows"):
        extend_subspace(vector, basis, ExtensionThresholds(), 6)
    assert len(merges) == 1


def test_extension_includes_bases_under_one_cap(monkeypatch):
    # The included rows join the union, and the budget counts them too.
    basis = sector_basis(6, 3, 3)[::7]
    vector = np.full(len(basis), 0.05)
    thresholds = ExtensionThresholds(0.1, 0.1)  # only the included rows
    other = sector_basis(6, 3, 3)[1::5]
    got = extend_subspace(vector, basis, thresholds, 6, basis, other)
    assert np.array_equal(got, merge_bases(basis, other))
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(len(got)))
    assert np.array_equal(
        extend_subspace(vector, basis, thresholds, 6, basis, other), got)
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES",
                        solver_bytes(len(got)) - 1)
    with pytest.raises(CapacityError,
                       match=f"extended space of {len(got)} rows"):
        extend_subspace(vector, basis, thresholds, 6, basis, other)


def test_thresholds_validation():
    with pytest.raises(ConfigError):
        ExtensionThresholds(discard_below=0.5, doubles_above=0.1)
    with pytest.raises(ConfigError):
        ExtensionThresholds(discard_below=-0.1)


def test_ext_sqd_reaches_fci_on_small_sector(ham_2e2o):
    counts, e_fci = fci_counts(ham_2e2o, shots=5000)
    prior = sqd_ground_state(ham_2e2o, counts, RecoveryConfig(iterations=1))
    result = ext_sqd(ham_2e2o, prior, ExtensionThresholds(0.0, 0.0))
    assert result.energy == pytest.approx(e_fci, abs=1e-9)


def test_ext_sqd_never_above_prior(ham_4e4o):
    counts, _ = fci_counts(ham_4e4o, shots=500, seed=6)
    prior = sqd_ground_state(ham_4e4o, counts,
                             RecoveryConfig(iterations=1, batches=3,
                                            samples_per_batch=8))
    result = ext_sqd(ham_4e4o, prior)
    assert result.energy <= prior.energy + 1e-12


def test_ext_sqd_noop_thresholds_keep_energy(ham_4e4o):
    counts, _ = fci_counts(ham_4e4o, shots=500, seed=8)
    prior = sqd_ground_state(ham_4e4o, counts,
                             RecoveryConfig(iterations=1, batches=2,
                                            samples_per_batch=8))
    result = ext_sqd(ham_4e4o, prior, ExtensionThresholds(1.0, 1.0))
    assert result.energy == pytest.approx(prior.energy, abs=1e-12)


def test_ext_sqd_capacity_cap(ham_4e4o, monkeypatch):
    counts, _ = fci_counts(ham_4e4o, shots=500, seed=8)
    prior = sqd_ground_state(ham_4e4o, counts, RecoveryConfig(iterations=1))
    monkeypatch.setattr(solver, "MEMORY_BUDGET_BYTES", solver_bytes(3) - 1)
    with pytest.raises(CapacityError, match="extended space of "):
        ext_sqd(ham_4e4o, prior, ExtensionThresholds(0.0, 0.0))


def test_ext_sqd_solves_a_shared_extension_once(monkeypatch):
    # Both final batches (25 and 30 rows) extend to the whole 36-row sector.
    ham = random_hamiltonian(4, 2, 2, seed=26)
    counts, _ = fci_counts(ham, 2000,
                           seed=int(rng.stream(0, "shots").integers(2**63)))
    prior = sqd_ground_state(ham, counts,
                             RecoveryConfig(iterations=2, batches=2,
                                            samples_per_batch=20))
    assert [len(b.basis) for b in prior.batches] == [25, 30]
    calls = counted_solves(monkeypatch)
    result = ext_sqd(ham, prior)
    assert [len(basis) for basis in calls] == [36]
    assert result.solves == 1
    for batch, solution in zip(prior.batches, result.batches, strict=True):
        assert np.array_equal(solution.basis, calls[0])
        assert solution.shot_weight == batch.shot_weight
        assert solution.raw_dimension == batch.raw_dimension
        assert_fresh(ham, solution)
    # Of equal energies the first extension wins, and the result carries
    # its batch's sampled rows, not the extended dimension.
    assert result.raw_dimension == prior.batches[0].raw_dimension <= 20


def test_ext_sqd_reuses_the_batch_solution_it_extends(monkeypatch):
    # Counts over every determinant close each batch to the whole 36-row
    # sector, so every extension is the batch basis it extends, already
    # solved by the SQD loop.
    ham = random_hamiltonian(4, 2, 2, seed=26)
    sector = sector_basis(4, 2, 2)
    counts = BitstringCounts(8, sector[:, 0], sector[:, 1],
                             np.ones(len(sector), dtype=np.int64))
    prior = sqd_ground_state(ham, counts,
                             RecoveryConfig(iterations=1, batches=2,
                                            samples_per_batch=100))
    assert [len(b.basis) for b in prior.batches] == [36, 36]
    calls = counted_solves(monkeypatch)
    result = ext_sqd(ham, prior)
    assert calls == []
    assert result.solves == 0
    for batch, solution in zip(prior.batches, result.batches, strict=True):
        assert solution.vector is batch.vector
        assert solution.energy == batch.energy
