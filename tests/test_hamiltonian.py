import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_pairs, packed, random_hamiltonian
from oracles import (Determinant, brute_force_matrix, excitation_degree,
                     excitations, exhaustive_connected,
                     hartree_fock_determinant, reference_connected,
                     spin_string_tables)
from sqdci import hamiltonian
from sqdci.errors import ConfigError
from sqdci.hamiltonian import (ActiveSpaceHamiltonian, ProductHamiltonian,
                               _spin_tables, build_sparse_matrix,
                               connected_determinants, merge_bases,
                               occupation_rows, sector_basis,
                               sector_strings)


def test_one_orbital_closed_shell_diagonal():
    ham = ActiveSpaceHamiltonian(n_orb=1, n_alpha=1, n_beta=1,
                                 core_energy=0.25,
                                 one_body=np.array([[-1.0]]),
                                 two_body=np.full((1, 1, 1, 1), 0.5))
    # 2*h00 + (00|00) + E0 = 2*(-1.0) + 0.5 + 0.25
    built = build_sparse_matrix(ham, packed([(1, 1)])).toarray()
    assert built[0, 0] == pytest.approx(-1.25, abs=1e-14)


def test_empty_determinant_diagonal_is_core_energy():
    ham = random_hamiltonian(3, 1, 1, seed=0)
    built = build_sparse_matrix(ham, packed([(0, 0)])).toarray()
    assert built[0, 0] == ham.core_energy


def test_matrix_matches_brute_force_oracle():
    for seed, (n, na, nb) in enumerate([(2, 1, 1), (3, 2, 1), (4, 2, 2),
                                        (4, 3, 2), (4, 1, 1)]):
        ham = random_hamiltonian(n, na, nb, seed=seed)
        basis = sector_basis(n, na, nb)
        built = build_sparse_matrix(ham, basis).toarray()
        oracle = brute_force_matrix(ham, basis)
        assert np.max(np.abs(built - oracle)) < 1e-12


def test_built_matrix_is_symmetric():
    ham = random_hamiltonian(4, 2, 2, seed=3)
    built = build_sparse_matrix(ham, sector_basis(4, 2, 2)).toarray()
    assert np.max(np.abs(built - built.T)) < 1e-14


def test_cross_sector_elements_vanish():
    # Basis spanning the (2,1), (3,1), (2,2) and (1,2) sectors.
    ham = random_hamiltonian(3, 2, 1, seed=4)
    d1 = (0b011, 0b001)  # row 1 of the sorted basis
    basis = packed(sorted([d1, (0b111, 0b001), (0b011, 0b011), (0b001, 0b011)]))
    built = build_sparse_matrix(ham, basis).toarray()
    assert np.max(np.abs(built - brute_force_matrix(ham, basis))) < 1e-12
    others = [0, 2, 3]
    assert np.all(built[1, others] == 0.0) and np.all(built[others, 1] == 0.0)


def test_triple_excitation_vanishes():
    ham = random_hamiltonian(4, 2, 2, seed=8)
    d1 = (0b0011, 0b0011)
    d2 = (0b1100, 0b0101)  # 3 spin-orbital moves
    assert excitation_degree(d1, d2) == 3
    # A double of d1 keeps the basis from being block-diagonal by accident.
    basis = packed([d1, (0b0101, 0b0101), d2])
    built = build_sparse_matrix(ham, basis).toarray()
    assert np.max(np.abs(built - brute_force_matrix(ham, basis))) < 1e-12
    assert built[0, 2] == 0.0 and built[2, 0] == 0.0
    assert built[0, 1] != 0.0


def test_connected_determinants_matches_exhaustive_enumeration():
    ham = random_hamiltonian(4, 2, 1, seed=9)
    basis = as_pairs(sector_basis(4, 2, 1))
    det = hartree_fock_determinant(2, 1)
    got = dict(reference_connected(ham, det))
    expected = dict(exhaustive_connected(ham, det, basis))
    assert set(got) == set(expected)
    for d in expected:
        assert got[d] == pytest.approx(expected[d], abs=1e-12)


def test_connected_cutoff_screens_and_keeps_exact_singles():
    ham = random_hamiltonian(4, 2, 2, seed=10)
    det = hartree_fock_determinant(2, 2)
    cutoff = 0.05
    pairs = reference_connected(ham, det, cutoff)
    exact = dict(exhaustive_connected(ham, det,
                                      as_pairs(sector_basis(4, 2, 2))))
    for other, value in pairs:
        assert value == pytest.approx(exact[other], abs=1e-12)
        if excitation_degree(det, Determinant(*other)) == 1:
            assert abs(value) >= cutoff
    # Infinite cutoff: nothing survives.
    assert reference_connected(ham, det, float("inf")) == []


def test_negative_cutoff_rejected():
    ham = random_hamiltonian(2, 1, 1, seed=1)
    for cutoff in (-1.0, float("nan")):
        with pytest.raises(ConfigError):
            connected_determinants(ham, packed([1, 1, 1, 1]), [0.0, cutoff])


@st.composite
def _heat_bath_batch(draw):
    """Distinct sources over up to 6 orbitals from one or two sectors
    (open-shell, asymmetric, or with a one-string spin: 0 or n_orb
    electrons), each with a cutoff that may be 0 or inf. With integrals on
    a 1/64 grid every element is exact, so a cutoff may also equal one."""
    n = draw(st.integers(1, 6))
    ham = random_hamiltonian(n, 1, 1, seed=draw(st.integers(0, 2**16)))
    exact = draw(st.booleans())
    if exact:
        ham = ActiveSpaceHamiltonian(
            n_orb=n, n_alpha=1, n_beta=1, core_energy=0.0,
            one_body=np.round(ham.one_body * 64) / 64,
            two_body=np.round(ham.two_body * 64) / 64)
    sectors = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                            min_size=1, max_size=2))
    pool = sorted({Determinant(*d) for na, nb in sectors
                   for d in as_pairs(sector_basis(n, na, nb))})
    sources = draw(st.lists(st.sampled_from(pool), max_size=10, unique=True))
    cutoffs = []
    for det in sources:
        cutoff = st.sampled_from([0.0, float("inf")]) | st.floats(0.0, 0.6)
        levels = exact and sorted({abs(v) for _, v in reference_connected(ham, det)})
        if levels:
            cutoff |= st.sampled_from(levels)
        cutoffs.append(draw(cutoff))
    return ham, sources, cutoffs


# Excitation kinds as (alpha, beta) moves, in the order both generators
# list them: alpha and beta singles, alpha-alpha, beta-beta and alpha-beta
# doubles.
_KINDS = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]


def _kind(det, target) -> int:
    return _KINDS.index(tuple((int(s) ^ t).bit_count() // 2
                              for s, t in zip(det, target)))


@settings(max_examples=60, deadline=None)
@given(_heat_bath_batch())
def test_batched_generator_matches_reference(batch):
    """Called on one source, the generator returns its reference targets
    as packed rows: kind by kind, the singles in the reference's order. A
    batch returns the same rows."""
    ham, sources, cutoffs = batch
    alone = []
    for det, cutoff in zip(sources, cutoffs):
        rows = connected_determinants(ham, packed([det]), [cutoff])
        assert rows.dtype == np.uint64 and rows.shape == (len(rows), 2)
        got = as_pairs(rows)
        expected = [target for target, _ in reference_connected(ham, det, cutoff)]
        assert Counter(got) == Counter(expected)
        kinds = [_kind(det, row) for row in got]
        assert kinds == sorted(kinds)
        assert got[:kinds.count(0) + kinds.count(1)] == [
            row for row in expected if _kind(det, row) < 2]
        alone += got
    rows = connected_determinants(ham, packed(sources), cutoffs)
    assert rows.dtype == np.uint64 and rows.shape == (len(alone), 2)
    assert Counter(as_pairs(rows)) == Counter(alone)


@st.composite
def _off_grid_sector(draw):
    """One sector over 2 to 6 orbitals (closed-shell, open-shell, or with
    one spin empty or full), its basis, and up to 3 of its rows as
    sources. The integrals are left off any grid, so an element rounds
    differently under a second formula for it."""
    n = draw(st.integers(2, 6))
    na, nb = draw(st.integers(0, n)), draw(st.integers(0, n))
    ham = random_hamiltonian(n, max(na, 1), max(nb, 1),
                             seed=draw(st.integers(0, 2**16)))
    basis = sector_basis(n, na, nb)
    rows = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1,
                         max_size=3, unique=True))
    return ham, basis, rows


@settings(max_examples=40, deadline=None)
@given(_off_grid_sector())
def test_screen_judges_the_element_the_matrix_stores(problem):
    """For every off-diagonal entry v of a source's row of the matrix, the
    screen keeps the target at cutoff |v| and drops it one ulp above:
    both compute each kind's element by the same formula, bit for bit."""
    ham, basis, rows = problem
    matrix = build_sparse_matrix(ham, basis)
    for d in rows:
        source = basis[d:d + 1]
        for entry in range(matrix.indptr[d], matrix.indptr[d + 1]):
            column, cutoff = matrix.indices[entry], abs(matrix.data[entry])
            if column == d:
                continue
            target = as_pairs(basis[column:column + 1])[0]
            assert target in as_pairs(connected_determinants(ham, source,
                                                             [cutoff]))
            above = np.nextafter(cutoff, np.inf)
            assert target not in as_pairs(connected_determinants(ham, source,
                                                                 [above]))


def test_sparse_matvec_matches_oracle():
    ham = random_hamiltonian(4, 2, 2, seed=12)
    basis = sector_basis(4, 2, 2)
    mat = brute_force_matrix(ham, basis)
    built = build_sparse_matrix(ham, basis)
    gen = np.random.default_rng(0)
    v = gen.normal(size=len(basis))
    assert np.allclose(built @ v, mat @ v, atol=1e-10)
    # Unit vector picks out a column.
    e0 = np.zeros(len(basis))
    e0[3] = 1.0
    assert np.allclose(built @ e0, mat[:, 3], atol=1e-12)


def test_sparse_matvec_on_partial_basis():
    ham = random_hamiltonian(4, 2, 2, seed=13)
    basis = sector_basis(4, 2, 2)[::3]
    mat = brute_force_matrix(ham, basis)
    v = np.linspace(-1, 1, len(basis))
    built = build_sparse_matrix(ham, basis)
    assert np.max(np.abs(built.toarray() - mat)) < 1e-12
    assert np.allclose(built @ v, mat @ v, atol=1e-10)


def test_csr_matrix_operations_match_dense():
    # Mixed-sector basis with no core energy: the empty determinant's row
    # stores only its diagonal, which is exactly 0.0.
    ref = random_hamiltonian(4, 2, 1, seed=14)
    ham = ActiveSpaceHamiltonian(n_orb=4, n_alpha=2, n_beta=1, core_energy=0.0,
                                 one_body=ref.one_body, two_body=ref.two_body)
    basis = merge_bases(packed([(0, 0), (0b11, 0b11)]), sector_basis(4, 2, 1))
    built = build_sparse_matrix(ham, basis)
    dense = built.toarray()
    dim = len(basis)
    assert built.shape == dense.shape == (dim, dim)
    assert np.max(np.abs(dense - brute_force_matrix(ham, basis))) < 1e-12
    assert built.diagonal()[0] == 0.0
    assert np.array_equal(built.diagonal(), np.diag(dense))
    off_diagonal = dense - np.diag(np.diag(dense))
    assert built.nnz == dim + np.count_nonzero(off_diagonal)
    gen = np.random.default_rng(5)
    v = gen.normal(size=dim)
    assert np.allclose(built @ v, dense @ v, atol=1e-12)


@st.composite
def _subset_problem(draw):
    """Random basis over up to 5 orbitals: one open-shell or asymmetric
    sector, sometimes mixed with a second (possibly empty-spin) sector."""
    n = draw(st.integers(1, 5))
    na, nb = draw(st.integers(1, n)), draw(st.integers(1, n))
    pool = as_pairs(sector_basis(n, na, nb))
    if draw(st.booleans()):
        pool += as_pairs(sector_basis(n, draw(st.integers(0, n)),
                                      draw(st.integers(0, n))))
    pool = sorted(set(pool))
    basis = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24,
                          unique=True))
    return (random_hamiltonian(n, na, nb, seed=draw(st.integers(0, 2**16))),
            packed(sorted(basis)))


@settings(max_examples=30, deadline=None)
@given(_subset_problem())
def test_builder_matches_oracle_on_random_subsets(problem):
    ham, basis = problem
    built = build_sparse_matrix(ham, basis).toarray()
    assert np.max(np.abs(built - brute_force_matrix(ham, basis))) < 1e-12


def _slater_condon_diagonal(ham, det):
    """<d|H|d> by the Slater-Condon rules, one orbital pair at a time."""
    h, eri = ham.one_body, ham.two_body
    occ = [[p for p in range(ham.n_orb) if bits >> p & 1]
           for bits in (det.alpha, det.beta)]
    energy = ham.core_energy + sum(h[p, p] for spin in occ for p in spin)
    for spin in occ:
        for i, p in enumerate(spin):
            for q in spin[i + 1:]:
                energy += eri[p, p, q, q] - eri[p, q, q, p]
    return energy + sum(eri[p, p, q, q] for p in occ[0] for q in occ[1])


def _matrix_from_connected(ham, basis):
    basis = [Determinant(*d) for d in as_pairs(basis)]
    index = {d: i for i, d in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for j, det in enumerate(basis):
        mat[j, j] = _slater_condon_diagonal(ham, det)
        for other, value in reference_connected(ham, det):
            if other in index:
                mat[index[other], j] = value
    return mat


def test_builder_matches_connected_generator_at_eight_orbitals():
    # The HCI selection values and the builder must agree.
    gen = np.random.default_rng(5)
    ham = random_hamiltonian(8, 4, 4, seed=30)
    strings = _strings(8, 4)
    alphas = sorted(gen.choice(strings, 20, replace=False))
    betas = sorted(gen.choice(strings, 20, replace=False))
    product = packed([(a, b) for a in alphas for b in betas])
    open_shell = random_hamiltonian(8, 4, 3, seed=31)
    sector = sector_basis(8, 4, 3)
    picks = sorted(gen.choice(len(sector), 400, replace=False))
    for h, basis in ((ham, product), (open_shell, sector[picks])):
        built = build_sparse_matrix(h, basis).toarray()
        assert np.max(np.abs(built - _matrix_from_connected(h, basis))) < 1e-12


def test_builder_rejects_duplicate_basis():
    ham = random_hamiltonian(2, 1, 1, seed=15)
    basis = sector_basis(2, 1, 1)
    with pytest.raises(ConfigError):
        build_sparse_matrix(ham, np.vstack([basis, basis[:1]]))


def test_excitations_complete():
    n = 4
    for det, (na, nb) in (((0b0011, 0b0101), (2, 2)),
                          ((0b0111, 0b0001), (3, 1))):
        sector = as_pairs(sector_basis(n, na, nb))
        for doubles, top in ((True, 2), (False, 1)):
            got = excitations(det, n, doubles=doubles)
            assert len(got) == len(set(got))
            assert set(got) == {d for d in sector
                                if 1 <= excitation_degree(det, d) <= top}


def test_sector_basis_ordering_and_size():
    basis = sector_basis(4, 2, 2)
    assert basis.shape == (36, 2) and basis.dtype == np.uint64
    assert as_pairs(basis) == sorted(set(as_pairs(basis)))


def test_asymmetric_integrals_rejected():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        ActiveSpaceHamiltonian(n_orb=2, n_alpha=1, n_beta=1, core_energy=0.0,
                               one_body=h, two_body=np.zeros((2,) * 4))
    eri = np.zeros((2,) * 4)
    eri[0, 1, 0, 0] = 0.5  # missing its symmetry partners
    with pytest.raises(ConfigError):
        ActiveSpaceHamiltonian(n_orb=2, n_alpha=1, n_beta=1, core_energy=0.0,
                               one_body=np.zeros((2, 2)), two_body=eri)


def test_symmetry_check_holds_one_two_body_buffer():
    # The three permutation checks share one n^4 buffer; a temporary per
    # subtraction and per absolute value would take the peak to 2x.
    ham = random_hamiltonian(12, 2, 2, seed=3)
    tracemalloc.start()
    try:
        ActiveSpaceHamiltonian(n_orb=12, n_alpha=2, n_beta=2, core_energy=0.0,
                               one_body=ham.one_body, two_body=ham.two_body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ham.two_body.nbytes


def test_hamiltonian_arrays_are_read_only():
    ham = random_hamiltonian(2, 1, 1, seed=17)
    with pytest.raises(ValueError):
        ham.one_body[0, 0] = 1.0


def _strings(n, k):
    return sorted(set(sector_basis(n, k, 1)[:, 0].tolist()))


def _sigma_matrix(op):
    return np.column_stack([op @ e for e in np.eye(len(op.diagonal()))])


@st.composite
def _product_problem(draw):
    """Random subsets of alpha and beta strings over up to 5 orbitals, in
    one open-shell or asymmetric sector; a subset may hold one string."""
    n = draw(st.integers(1, 5))
    na, nb = draw(st.integers(1, n)), draw(st.integers(1, n))
    alphas = sorted(draw(st.sets(st.sampled_from(_strings(n, na)), min_size=1)))
    betas = sorted(draw(st.sets(st.sampled_from(_strings(n, nb)), min_size=1)))
    ham = random_hamiltonian(n, na, nb, seed=draw(st.integers(0, 2**16)))
    return ham, alphas, betas


@settings(max_examples=40, deadline=None)
@given(_product_problem())
def test_product_sigma_matches_oracle(problem):
    ham, alphas, betas = problem
    basis = [Determinant(a, b) for a in alphas for b in betas]
    oracle = brute_force_matrix(ham, basis)
    op = ProductHamiltonian(ham, alphas, betas)
    assert np.max(np.abs(_sigma_matrix(op) - oracle)) < 1e-12
    assert np.max(np.abs(op.diagonal() - np.diag(oracle))) < 1e-12


@st.composite
def _masked_problem(draw):
    """A :func:`_product_problem` grid and a random set of its rows: a
    single row, or any number of them."""
    ham, alphas, betas = draw(_product_problem())
    grid = len(alphas) * len(betas)
    rows = draw(st.sets(st.integers(0, grid - 1), min_size=1,
                        max_size=draw(st.sampled_from([1, grid]))))
    return ham, alphas, betas, np.array(sorted(rows))


@settings(max_examples=60, deadline=None)
@given(_masked_problem())
def test_masked_sigma_matches_oracle(problem):
    ham, alphas, betas, rows = problem
    basis = [Determinant(alphas[r // len(betas)], betas[r % len(betas)])
             for r in rows]
    oracle = brute_force_matrix(ham, basis)
    op = ProductHamiltonian(ham, alphas, betas, rows)
    assert len(op.diagonal()) == len(rows)
    assert np.max(np.abs(_sigma_matrix(op) - oracle)) < 1e-12
    assert np.max(np.abs(op.diagonal() - np.diag(oracle))) < 1e-12


def test_product_sigma_matches_csr_on_full_sector():
    ham = random_hamiltonian(8, 4, 4, seed=32)
    basis = sector_basis(8, 4, 4)
    strings = _strings(8, 4)
    op = ProductHamiltonian(ham, strings, strings)
    csr = build_sparse_matrix(ham, basis)
    vectors = np.random.default_rng(3).normal(size=(3, len(basis)))
    for v in vectors:
        assert np.max(np.abs(op @ v - csr @ v)) < 1e-12
    assert np.max(np.abs(op.diagonal() - csr.diagonal())) < 1e-12


def test_product_sigma_blocks_agree(monkeypatch):
    # (7,3,2): 35 x 21 strings, 28 orbital pairs. A budget of 4 alpha rows
    # gives 8 blocks of 4 rows and a last block of 3.
    ham = random_hamiltonian(7, 3, 2, seed=33)
    alphas, betas = _strings(7, 3), _strings(7, 2)
    v = np.random.default_rng(4).normal(size=len(alphas) * len(betas))
    single = ProductHamiltonian(ham, alphas, betas)
    assert len(single._blocks) == 1
    monkeypatch.setattr("sqdci.hamiltonian._SIGMA_BLOCK_FLOATS", 4 * 28 * 21)
    split = ProductHamiltonian(ham, alphas, betas)
    assert len(split._blocks) == 9
    for _ in range(2):  # the reused buffers must not carry state over
        assert np.max(np.abs(split @ v - single @ v)) < 1e-12


def test_occupation_rows():
    rows = occupation_rows([0, 0b1101, (1 << 63) | 1], 64)
    assert rows.shape == (3, 64) and rows.dtype == np.float64
    assert not rows[0].any()
    assert np.array_equal(np.flatnonzero(rows[1]), [0, 2, 3])
    assert np.array_equal(np.flatnonzero(rows[2]), [0, 63])
    assert ((rows == 0.0) | (rows == 1.0)).all()
    assert np.array_equal(occupation_rows(np.array([6], dtype=np.uint64), 3),
                          [[0.0, 1.0, 1.0]])
    assert occupation_rows([], 4).shape == (0, 4)


@st.composite
def _string_set(draw):
    """Sorted distinct strings over up to 7 orbitals, of mixed popcounts;
    sometimes with the empty and the full string, sometimes just one."""
    n = draw(st.integers(1, 7))
    strings = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                           max_size=draw(st.sampled_from([1, 40]))))
    if draw(st.booleans()):
        strings |= {0, (1 << n) - 1}
    ham = random_hamiltonian(n, 1, 1, seed=draw(st.integers(0, 2**16)))
    return ham, sorted(strings)


def _gumbel_strings(n_orb: int, draws: int, seed: int) -> list[int]:
    """Distinct half-filled strings, each the top n_orb / 2 orbitals by
    -p / 6 plus a Gumbel variate: the sampled sets of an SQD batch."""
    gen = np.random.default_rng(seed)
    score = -np.arange(n_orb) / 6.0 + gen.gumbel(size=(draws, n_orb))
    top = np.argsort(-score, axis=1)[:, :n_orb // 2]
    return sorted({sum(1 << int(p) for p in row) for row in top})


def _assert_tables_match_oracle(ham, strings):
    tables = _spin_tables(ham, strings)._asdict()
    assert np.array_equal(tables.pop("occ"), occupation_rows(strings, ham.n_orb))
    for name, expected in spin_string_tables(ham, strings).items():
        got = tables[name]
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        if name.endswith("_value"):
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13, name
        else:
            assert np.array_equal(got, expected), name
    return tables


@settings(max_examples=60, deadline=None)
@given(_string_set(), st.sampled_from([1, 7, hamiltonian._BLOCK_CANDIDATES]))
def test_spin_tables_match_loop_oracle(problem, block):
    # Chunks of 1 or 7 candidate pairs split the sources across chunks.
    with mock.patch.object(hamiltonian, "_BLOCK_CANDIDATES", block):
        _assert_tables_match_oracle(*problem)


@pytest.mark.parametrize("n_orb", [20, 24])
def test_spin_tables_on_sampled_strings_match_loop_oracle(n_orb):
    strings = _gumbel_strings(n_orb, draws=50, seed=n_orb)
    assert 40 <= len(strings) <= 60
    tables = _assert_tables_match_oracle(
        random_hamiltonian(n_orb, 1, 1, seed=n_orb), strings)
    assert len(tables["double_target"]) > 0
    assert tables["single_particle"].max() >= 16


def test_spin_tables_peak_follows_their_size():
    ham = random_hamiltonian(12, 6, 6, seed=0)
    strings = sector_strings(12, 6)
    tracemalloc.start()
    try:
        tables = _spin_tables(ham, strings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(field.nbytes for field in tables) + 4 * 2**20
