import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_pairs, counts_of
from oracles import (apply_operator_string, bitstring_to_determinant,
                     density_density_phases, det_to_state,
                     determinant_to_bitstring, hartree_fock_determinant,
                     lucj_amplitudes_per_determinant,
                     one_body_operator_matrix, one_rdm_alpha,
                     sector_determinants, total_variation,
                     valid_probability_after_flips)
from sqdci import rng
from sqdci.errors import CapacityError, ConfigError
from sqdci.hamiltonian import sector_basis, sector_strings
from sqdci.sampler import (LUCJParams, SectorState,
                           apply_orbital_rotation, apply_readout_noise,
                           lucj_params_from_ccsd, lucj_state, read_counts,
                           sample_counts, state_preparation_bytes,
                           write_counts)
from sqdci.sampler import _expm_antisymmetric, _givens_decompose


def random_antisymmetric(n, seed, scale=0.5):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, n)) * scale
    return a - a.T


def random_rotation(n, seed, scale=0.5):
    return scipy.linalg.expm(random_antisymmetric(n, seed, scale))


def identity_layer(n):
    return LUCJParams(layers=[(np.eye(n), None)])


def rhf_index(dets, n_alpha, n_beta):
    return as_pairs(dets).index(hartree_fock_determinant(n_alpha, n_beta))


# ---------------------------------------------------------------- bitstrings

@settings(max_examples=50, deadline=None)
@given(alpha=st.integers(0, 31), beta=st.integers(0, 31))
def test_bitstring_round_trip(alpha, beta):
    det = (alpha, beta)
    assert bitstring_to_determinant(determinant_to_bitstring(det, 5), 5) == det


def test_bitstring_layout_bit0_leftmost():
    assert determinant_to_bitstring((0b001, 0b100), 3) == "100001"


# ------------------------------------------------------------ state building

def test_zero_params_give_pure_rhf():
    state = lucj_state(identity_layer(4), 4, 2, 2)
    dets = sector_basis(4, 2, 2)
    amps = np.zeros(len(dets), dtype=complex)
    amps[rhf_index(dets, 2, 2)] = 1.0
    assert np.allclose(state.amplitudes, amps, atol=1e-12)


def test_orbital_rotation_matches_matrix_exponential_oracle():
    # exp(K-hat) acting on random sector vectors, checked against the
    # second-quantized generator's exact matrix exponential.
    for n, na, nb, seed in [(3, 2, 1, 0), (4, 2, 2, 1), (4, 3, 1, 2)]:
        K = random_antisymmetric(n, seed)
        alphas, betas = sector_strings(n, na), sector_strings(n, nb)
        dets = sector_determinants(n, na, nb)
        gen_mat = one_body_operator_matrix(K, dets, n)
        exact = scipy.linalg.expm(gen_mat)
        gen = np.random.default_rng(seed + 10)
        v = gen.normal(size=len(dets)) + 1j * gen.normal(size=len(dets))
        v /= np.linalg.norm(v)
        got = apply_orbital_rotation(v.reshape(len(alphas), len(betas)),
                                     alphas, betas, scipy.linalg.expm(K))
        assert np.max(np.abs(got.ravel() - exact @ v)) < 1e-9


def rotation_generator(angles, n, seed):
    """Antisymmetric K with rotation angles ``angles`` in random planes."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    K = np.zeros((n, n))
    for k, angle in enumerate(angles):
        K[2 * k + 1, 2 * k], K[2 * k, 2 * k + 1] = angle, -angle
    return q @ K @ q.T


@pytest.mark.parametrize("K", [
    np.zeros((1, 1)), np.zeros((4, 4)),
    random_antisymmetric(2, seed=30), random_antisymmetric(5, seed=31),
    random_antisymmetric(8, seed=32, scale=2.0),
    rotation_generator([0.7, 0.7], 5, seed=33),
    rotation_generator([1.3, 1.3, 1.3], 7, seed=34),
    rotation_generator([2.0, -2.0, 0.0], 6, seed=35),
], ids=["n1", "zero", "random2", "random5", "random8", "repeated2",
        "repeated3", "opposite"])
def test_antisymmetric_exponential_matches_expm(K):
    assert np.max(np.abs(_expm_antisymmetric(K) - scipy.linalg.expm(K))) < 1e-12


def half_turn(n, first, seed, scale=0.4):
    """exp(K): a half turn in the orbital plane (first, first + 1) and a
    random rotation of the other orbitals. With the plane at either end,
    the Givens elimination never mixes it with the others and leaves the
    half turn to the diagonal as two negative signs."""
    K = random_antisymmetric(n, seed, scale)
    plane = [first, first + 1]
    K[plane, :] = 0.0
    K[:, plane] = 0.0
    K[first + 1, first], K[first, first + 1] = np.pi, -np.pi
    return scipy.linalg.expm(K)


def reflection(n, seed):
    """A random orthogonal matrix with determinant -1."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    if np.linalg.det(q) > 0:
        q[:, 0] = -q[:, 0]
    return q


def random_symmetric(n, seed, scale=0.5):
    a = np.random.default_rng(seed).normal(size=(n, n)) * scale
    return a + a.T


@st.composite
def lucj_problems(draw):
    """LUCJ parameters over up to 7 orbitals and a sector that may be open
    shell, asymmetric, or hold 0 or n_orb electrons in one spin. A
    rotation may hold a half turn or have determinant -1, so its Givens
    factors have negative signs; a J layer is a random symmetric 2n x 2n matrix, so its
    alpha-beta and beta-alpha blocks differ."""
    n = draw(st.integers(1, 7))
    na, nb = draw(st.integers(0, n)), draw(st.integers(0, n))
    seeds = st.integers(0, 2**32 - 1)

    def rotation():
        kind = draw(st.sampled_from(["random", "half turn", "reflection"]))
        if kind == "reflection":
            return reflection(n, draw(seeds))
        if kind == "half turn" and n > 1:
            return half_turn(n, draw(st.sampled_from([0, n - 2])),
                             draw(seeds))
        return random_rotation(n, draw(seeds),
                               draw(st.sampled_from([0.3, 2.0])))

    layers = [(rotation(), draw(st.none() | seeds.map(
        lambda seed: random_symmetric(2 * n, seed))))
        for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        layers.append((rotation(), None))
    return LUCJParams(layers=layers), n, na, nb


HALF_TURN_PROBLEM = (LUCJParams(
    layers=[(half_turn(5, 0, seed=60), random_symmetric(10, seed=61)),
            (random_rotation(5, seed=62, scale=2.0), None),
            (half_turn(5, 3, seed=63), None)]), 5, 3, 1)


def test_half_turn_generators_have_negative_givens_signs():
    params = HALF_TURN_PROBLEM[0]
    for U in (params.layers[0][0], params.layers[-1][0]):
        _, signs = _givens_decompose(U)
        assert np.sum(signs < 0) == 2


@settings(max_examples=60, deadline=None)
@given(lucj_problems())
@example(HALF_TURN_PROBLEM)
@example((HALF_TURN_PROBLEM[0], 5, 0, 5))
def test_grid_lucj_matches_per_determinant_oracle(problem):
    params, n, na, nb = problem
    got = lucj_state(params, n, na, nb).amplitudes
    expected = lucj_amplitudes_per_determinant(params, n, na, nb)
    assert np.max(np.abs(got - expected)) < 1e-13


def ccsd_params(n_orb, seed, n_layers=2):
    nocc = n_orb // 2
    nvirt = n_orb - nocc
    gen = np.random.default_rng(seed)
    t2 = gen.normal(size=(nocc, nocc, nvirt, nvirt)) * 0.1
    t2 = 0.5 * (t2 + t2.transpose(1, 0, 3, 2))
    return lucj_params_from_ccsd(gen.normal(size=(nocc, nvirt)) * 0.05, t2,
                                 n_layers)


@pytest.mark.parametrize("n", [6, 8])
def test_grid_counts_equal_per_determinant_counts(n):
    # The multinomial over the oracle's amplitudes, hits read from its
    # determinant list, gives the same counts at a fixed seed.
    params = ccsd_params(n, seed=n)
    shots, seed = 300_000, 12
    got = sample_counts(lucj_state(params, n, n // 2, n // 2), shots, seed)
    amps = lucj_amplitudes_per_determinant(params, n, n // 2, n // 2)
    probs = np.abs(amps) ** 2
    draws = rng.stream(seed, "sample").multinomial(shots, probs / probs.sum())
    dets = sector_determinants(n, n // 2, n // 2)
    expected = {determinant_to_bitstring(dets[i], n): int(draws[i])
                for i in np.flatnonzero(draws)}
    assert got.entries == expected


def test_state_preparation_bytes_cover_the_peak():
    # The estimate must cover what preparation and sampling allocate,
    # without being so loose that the budget turns away sectors that fit.
    params = ccsd_params(10, seed=3, n_layers=1)
    tracemalloc.start()
    try:
        sample_counts(lucj_state(params, 10, 5, 5), 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state_preparation_bytes(10, 5, 5) <= 1.5 * peak


def test_state_preparation_over_memory_budget_is_capacity_error(monkeypatch):
    need = state_preparation_bytes(7, 4, 2)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need)
    assert lucj_state(identity_layer(7), 7, 4, 2).amplitudes[0] == 1.0
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need - 1)

    def no_strings(*args):
        raise AssertionError("the cap must hold before the grid is built")

    monkeypatch.setattr("sqdci.sampler.sector_strings", no_strings)
    with pytest.raises(CapacityError, match="budget"):
        lucj_state(identity_layer(7), 7, 4, 2)


def one_layer_one_rdm_error(U, n, na, nb):
    """max |gamma_alpha - U P U^T| of the one-layer state U|RHF>."""
    state = lucj_state(LUCJParams(layers=[(U, None)]), n, na, nb)
    dm = one_rdm_alpha(state.amplitudes, sector_basis(n, na, nb), n)
    P = np.diag([1.0] * na + [0.0] * (n - na))
    return np.max(np.abs(dm - U @ P @ U.T))


def test_rotated_determinant_one_rdm():
    assert one_layer_one_rdm_error(random_rotation(4, seed=5), 4, 2, 2) < 1e-9


@pytest.mark.parametrize("U", [half_turn(4, 0, seed=64),
                               half_turn(5, 3, seed=65),
                               reflection(4, seed=66)],
                         ids=["half-turn-first", "half-turn-last",
                              "reflection"])
def test_half_turn_and_reflection_one_rdm(U):
    # Rotations with no real logarithm, and det -1, are valid layers.
    assert one_layer_one_rdm_error(U, len(U), 2, 1) < 1e-9


def test_phase_layer_matches_oracle_and_preserves_marginals():
    n, na, nb = 3, 2, 1
    U = random_rotation(n, seed=6)
    gen = np.random.default_rng(7)
    J = gen.normal(size=(2 * n, 2 * n))
    J = 0.5 * (J + J.T)
    state = lucj_state(LUCJParams(layers=[(U, J)]), n, na, nb)
    dets = sector_basis(n, na, nb)
    plain = lucj_state(LUCJParams(layers=[(U, None)]), n, na, nb)
    phases = density_density_phases(J, dets, n)
    assert np.max(np.abs(state.amplitudes
                         - np.exp(1j * phases) * plain.amplitudes)) < 1e-10
    assert np.allclose(np.abs(state.amplitudes), np.abs(plain.amplitudes),
                       atol=1e-12)


def test_state_norm_and_sector_confinement():
    n, na, nb = 4, 2, 1
    params = LUCJParams(
        layers=[(random_rotation(n, 8), np.eye(2 * n) * 0.3),
                (random_rotation(n, 9), None),
                (random_rotation(n, 10), None)])
    state = lucj_state(params, n, na, nb)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.bitwise_count(sector_basis(n, na, nb)) == [na, nb])


def test_params_validation():
    with pytest.raises(ConfigError, match="orthogonal"):
        LUCJParams(layers=[(np.ones((2, 2)), None)])
    with pytest.raises(ConfigError, match="orthogonal"):
        LUCJParams(layers=[(np.eye(3)[:2], None)])
    U = np.eye(2)
    with pytest.raises(ConfigError):
        LUCJParams(layers=[(U, np.ones((4, 4)) + np.triu(np.ones((4, 4))))])
    # A nan fails each check, not only a number past its tolerance.
    with pytest.raises(ConfigError, match="orthogonal"):
        LUCJParams(layers=[(np.full((2, 2), np.nan), None)])
    with pytest.raises(ConfigError, match="symmetric"):
        LUCJParams(layers=[(U, np.full((4, 4), np.nan))])
    overflowing = LUCJParams(layers=[(U, np.full((4, 4), 1e308))])
    with np.errstate(all="ignore"):
        with pytest.raises(ArithmeticError, match="norm"):
            lucj_state(overflowing, 2, 1, 1)
    grid = np.ones((1, 1), dtype=complex)
    with pytest.raises(ConfigError, match="orthogonal"):
        apply_orbital_rotation(grid, sector_strings(2, 1)[:1],
                               sector_strings(2, 1)[:1], 1.01 * U)


# -------------------------------------------------------------------- sampling

def test_pure_rhf_samples_only_rhf():
    state = lucj_state(identity_layer(3), 3, 2, 1)
    counts = sample_counts(state, shots=5000, seed=1)
    expected = determinant_to_bitstring(hartree_fock_determinant(2, 1), 3)
    assert counts.entries == {expected: 5000}


def test_uniform_superposition_frequencies():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / np.sqrt(2)
    state = SectorState(2, 1, 1, vec)
    counts = sample_counts(state, shots=100_000, seed=2)
    for key, count in counts.entries.items():
        assert 0.494 <= count / 100_000 <= 0.506


def test_sampling_deterministic_and_rejects_zero_shots():
    state = lucj_state(identity_layer(2), 2, 1, 1)
    a = sample_counts(state, 1000, seed=3)
    b = sample_counts(state, 1000, seed=3)
    assert a.entries == b.entries
    with pytest.raises(ConfigError):
        sample_counts(state, 0, seed=3)


def test_sampling_rejects_amplitudes_of_another_sector():
    with pytest.raises(ConfigError, match="sector dimension"):
        sample_counts(SectorState(3, 1, 1, np.ones(4)), 10, seed=0)


def test_sampled_distribution_total_variation():
    n, na, nb = 5, 2, 2  # 100-determinant sector
    params = LUCJParams(
        layers=[(random_rotation(n, 11, scale=0.4), 0.2 * np.eye(2 * n)),
                (random_rotation(n, 12, scale=0.3), None)])
    state = lucj_state(params, n, na, nb)
    counts = sample_counts(state, shots=1_000_000, seed=0)
    keys = [determinant_to_bitstring(d, n) for d in sector_basis(n, na, nb)]
    probs = np.abs(state.amplitudes) ** 2
    assert total_variation(counts, probs, keys) < 0.01


# ---------------------------------------------------------------- readout noise

def test_noise_p0_identity_p1_complement():
    counts = counts_of(4, {"0011": 7, "1100": 2})
    same = apply_readout_noise(counts, 0.0, seed=0)
    assert same.entries == counts.entries
    flipped = apply_readout_noise(counts, 1.0, seed=0)
    assert flipped.entries == {"1100": 7, "0011": 2}


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_noise_rejects_probability_outside_unit_interval(p):
    with pytest.raises(ConfigError, match="flip probability"):
        apply_readout_noise(counts_of(4, {"0011": 7}), p, seed=0)


def test_noise_forbidden_fraction_matches_convolution_oracle():
    n, na, nb = 4, 2, 2
    state = lucj_state(LUCJParams(
        layers=[(random_rotation(n, 13, scale=0.3), None)]), n, na, nb)
    shots = 200_000
    p = 0.05
    counts = sample_counts(state, shots, seed=4)
    noisy = apply_readout_noise(counts, p, seed=5)
    assert noisy.total_shots == shots
    valid = sum(c for k, c in noisy.entries.items()
                if k[:n].count("1") == na and k[n:].count("1") == nb)
    expected = valid_probability_after_flips(n, na, nb, p)
    sigma = np.sqrt(expected * (1 - expected) / shots)
    assert abs(valid / shots - expected) < 5 * sigma


def test_noise_deterministic_per_seed():
    counts = counts_of(4, {"0110": 500})
    a = apply_readout_noise(counts, 0.1, seed=8)
    b = apply_readout_noise(counts, 0.1, seed=8)
    assert a.entries == b.entries


# -------------------------------------------------------------- CCSD-derived

def test_zero_amplitudes_reproduce_rhf():
    nocc, nvirt = 2, 2
    params = lucj_params_from_ccsd(np.zeros((nocc, nvirt)),
                                   np.zeros((nocc, nocc, nvirt, nvirt)), 1)
    state = lucj_state(params, 4, 2, 2)
    dets = sector_basis(4, 2, 2)
    assert abs(state.amplitudes[rhf_index(dets, 2, 2)]) == pytest.approx(
        1.0, abs=1e-12)


def random_t2(nocc, nvirt, seed, scale=0.05):
    t2 = np.random.default_rng(seed).normal(size=(nocc, nocc, nvirt, nvirt))
    return 0.5 * scale * (t2 + t2.transpose(1, 0, 3, 2))


def test_ccsd_rotations_are_orthogonal():
    params = lucj_params_from_ccsd(None, random_t2(2, 2, seed=20), 2)
    assert len(params.layers) == 4
    for U, _ in params.layers:
        assert np.max(np.abs(U @ U.T - np.eye(4))) < 1e-12
    # Each mode rotates in by V^T, applies its phase, and rotates back by V.
    for (into, coupling), (back, none) in zip(params.layers[::2],
                                              params.layers[1::2]):
        assert coupling is not None and none is None
        assert np.array_equal(into, back.T)


def test_excessive_layer_count_rejected():
    t2 = np.zeros((2, 2, 2, 2))
    t2[0, 0, 0, 0] = 0.1  # rank-1 doubles matrix
    with pytest.raises(ConfigError, match="rank"):
        lucj_params_from_ccsd(None, t2, 3)


@pytest.mark.parametrize("t2", [random_t2(2, 2, seed=21), np.zeros((2, 2, 2, 2))],
                         ids=["random", "zero"])
def test_negative_layer_count_rejected(t2):
    # A negative count would slice the mode order from the end.
    for n_layers in (-1, -3):
        with pytest.raises(ConfigError, match="nonnegative"):
            lucj_params_from_ccsd(None, t2, n_layers)
    assert lucj_params_from_ccsd(None, t2, 0).layers == []


@pytest.mark.parametrize("t1, t2", [
    (None, np.zeros((2, 2))),
    (None, np.zeros((2, 2, 2, 2, 1))),
    (None, np.full((2, 2, 2, 2), np.nan)),
    (np.array([[0.0, np.inf], [0.0, 0.0]]), random_t2(2, 2, seed=22)),
    (np.full((2, 2), np.nan), np.zeros((2, 2, 2, 2))),
    (None, np.full((2, 2, 2, 2), "0.1")),
    (None, np.full((2, 2, 2, 2), b"0.1")),
    (np.full((2, 2), "0.1"), random_t2(2, 2, seed=22)),
    (None, random_t2(2, 2, seed=22) * (1 + 1j)),
    (None, np.zeros((2, 2, 2, 2), dtype="datetime64[s]")),
    (None, np.full((1, 1, 1, 1), 1e308)),
    (None, np.array([0.0, 1e308, -1e308, 0.0]).reshape(2, 2, 1, 1)),
], ids=["t2-2d", "t2-5d", "t2-nan", "t1-inf", "t1-nan-zero-t2", "t2-str",
        "t2-bytes", "t1-str", "t2-complex", "t2-datetime", "t2-overflow",
        "t2-asymmetry-overflow"])
@pytest.mark.filterwarnings("error")
def test_malformed_amplitudes_rejected(t1, t2):
    with pytest.raises(ConfigError, match="t1|t2"):
        lucj_params_from_ccsd(t1, t2, 1)


def half_turn_t2(eps):
    """t2[0, 0, 0, 0] alone at 2 occupied and 2 virtual orbitals: its mode's
    eigenvector matrix holds a half turn, which has no real logarithm."""
    t2 = np.zeros((2, 2, 2, 2))
    t2[0, 0, 0, 0] = eps
    return t2


def test_half_turn_mode_matches_per_determinant_oracle():
    params = lucj_params_from_ccsd(None, half_turn_t2(0.1), 1)
    got = lucj_state(params, 4, 2, 2).amplitudes
    expected = lucj_amplitudes_per_determinant(params, 4, 2, 2)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got - expected)) < 1e-13


def first_order_overlap_error(t2):
    """| |<Psi | (1 + T2 - T2+) |RHF>| - 1 | for the one-layer LUCJ state of
    a (2, 2, 2, 2) doubles tensor, 4 orbitals with 2 alpha and 2 beta."""
    nocc = 2
    n, na, nb = 4, 2, 2
    params = lucj_params_from_ccsd(None, t2, n_layers=1)
    state = lucj_state(params, n, na, nb)
    dets = sector_basis(n, na, nb)

    # phi = (1 + T2 - T2+)|RHF> with T2 = sum t2[ijab] a+_aA a_iA a+_bB a_jB
    phi = np.zeros(len(dets))
    phi[rhf_index(dets, na, nb)] = 1.0
    rhf_state = det_to_state(hartree_fock_determinant(na, nb), n)
    index = {det_to_state(d, n): k for k, d in enumerate(dets)}
    for (io, jo, av, bv), amp in np.ndenumerate(t2):
        if amp == 0.0:
            continue
        for ops in ([("+", nocc + av), ("-", io),
                     ("+", n + nocc + bv), ("-", n + jo)],):
            res = apply_operator_string(rhf_state, ops)
            if res is not None:
                out, sign = res
                phi[index[out]] += sign * amp
            dagger = [(("-" if k == "+" else "+"), q) for k, q in reversed(ops)]
            res = apply_operator_string(rhf_state, dagger)
            if res is not None:
                out, sign = res
                phi[index[out]] -= sign * amp
    return abs(abs(np.vdot(state.amplitudes, phi)) - 1.0)


def test_single_double_amplitude_first_order_overlap():
    # |<Psi | (1 + T2 - T2+) |RHF>| deviates from 1 by O(eps^2).
    eps = 1e-3
    i, j, a, b = 0, 1, 0, 1
    t2 = np.zeros((2, 2, 2, 2))
    t2[i, j, a, b] = eps
    t2[j, i, b, a] = eps
    assert first_order_overlap_error(t2) <= 10 * eps ** 2


def test_half_turn_amplitude_first_order_overlap():
    eps = 1e-3
    assert first_order_overlap_error(half_turn_t2(eps)) <= 10 * eps ** 2


# ----------------------------------------------------------------- counts files

def test_counts_file_example(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("n_qubits=4\n0011 10\n1100 5\n")
    counts = read_counts(path)
    assert counts.entries == {"0011": 10, "1100": 5}
    assert counts.total_shots == 15


def test_counts_length_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n_qubits=4\n01 3\n")
    with pytest.raises(ConfigError, match="length") as info:
        read_counts(path)
    assert "other than 0 or 1" not in str(info.value)


def test_counts_character_other_than_0_or_1_rejected(tmp_path):
    # The right length: the message names the character, not the length.
    path = tmp_path / "bad.txt"
    path.write_text("n_qubits=4\n0120 5\n")
    with pytest.raises(ConfigError, match="other than 0 or 1") as info:
        read_counts(path)
    assert "length" not in str(info.value)


def test_counts_negative_and_malformed_rejected(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("n_qubits=2\n01 -3\n")
    with pytest.raises(ConfigError):
        read_counts(path)
    path.write_text("n_qubits=2\n01 x\n")
    with pytest.raises(ConfigError):
        read_counts(path)
    path.write_text("not-a-header\n01 1\n")
    with pytest.raises(ConfigError):
        read_counts(path)


@settings(max_examples=25, deadline=None)
@given(entries=st.dictionaries(
    st.text(alphabet="01", min_size=4, max_size=4), st.integers(0, 999),
    max_size=8))
def test_counts_round_trip(tmp_path_factory, entries):
    counts = counts_of(4, entries)
    path = tmp_path_factory.mktemp("counts") / "c.txt"
    write_counts(counts, path)
    assert read_counts(path).entries == {k: v for k, v in entries.items()}
