"""The packed shot layer: packing, readout noise and configuration recovery
against the per-key and per-shot reference loops in ``oracles.py``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import sqdci.sqd
from oracles import (bitstring_to_determinant, readout_noise_per_key,
                     recovery_per_shot)
from sqdci import rng
from sqdci.errors import CapacityError, ConfigError
from sqdci.sampler import (BitstringCounts, SectorState, apply_readout_noise,
                           merge_counts, pack_bits, read_counts, sample_counts,
                           shot_rows, unpack_bits)
from sqdci.sqd import recover_configurations


def random_entries(n_qubits, n_keys, seed, big=0):
    gen = np.random.default_rng(seed)
    entries = {}
    for _ in range(n_keys):
        key = "".join(gen.choice(["0", "1"], size=n_qubits))
        entries[key] = int(gen.integers(0, 400))
    if big:
        entries[next(iter(entries))] = big
    return entries


# ------------------------------------------------------------------- packing

def bitstring_dicts(n_orb):
    key = st.text(alphabet="01", min_size=2 * n_orb, max_size=2 * n_orb)
    return st.dictionaries(key, st.integers(0, 2**40), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), bitstring_dicts(n))))
@example((64, {"1" * 128: 3, "0" * 128: 0, "0" * 63 + "1" + "1" + "0" * 63: 5}))
@example((1, {}))
@example((3, {"000000": 2}))
def test_pack_unpack_round_trip(case):
    n_orb, entries = case
    counts = BitstringCounts(2 * n_orb, entries)
    assert counts.entries == entries
    assert list(counts.entries) == sorted(entries)
    assert counts.total_shots == sum(entries.values())
    for key, alpha, beta in zip(counts.entries, counts.alpha.tolist(),
                                counts.beta.tolist()):
        assert bitstring_to_determinant(key, n_orb) == (alpha, beta)


def test_packed_rows_merge_duplicates():
    counts = BitstringCounts.packed(4, [1, 2, 1], [2, 0, 2], [3, 4, 5])
    assert counts.entries == {"1001": 8, "0100": 4}


def test_more_than_64_orbitals_per_spin_is_capacity_error(tmp_path):
    with pytest.raises(CapacityError):
        BitstringCounts(130, {})
    with pytest.raises(CapacityError):
        BitstringCounts(130, {"1" * 130: 1})
    state = SectorState(65, 1, 1, np.ones(65 * 65))
    with pytest.raises(CapacityError):
        sample_counts(state, 10, seed=0)
    path = tmp_path / "wide.txt"
    path.write_text("n_qubits=130\n" + "0" * 130 + " 4\n")
    with pytest.raises(CapacityError):
        read_counts(path)


# ------------------------------------------------------------- readout noise

@pytest.mark.parametrize("n_orb", [6, 64])
@pytest.mark.parametrize("p", [0.01, 0.3, 1.0])
def test_noise_matches_per_key_oracle(n_orb, p):
    # One key holds more shots than a noise block, so blocks split a key.
    for seed, big in ((0, 2**14 + 300), (1, 0)):
        entries = random_entries(2 * n_orb, 6, seed, big=big)
        got = apply_readout_noise(BitstringCounts(2 * n_orb, entries), p,
                                  seed=seed + 10)
        expected = readout_noise_per_key(
            entries, 2 * n_orb, p, rng.stream(seed + 10, "readout-noise"))
        assert got.entries == expected


@pytest.mark.parametrize("p", [0.01, 0.5, 1.0])
def test_noise_keeps_no_row_without_shots(p):
    # Rows whose every shot flips away, and rows that came in with no
    # shots, must not survive as zero counts.
    entries = random_entries(8, 12, seed=3)
    entries.update({"00000000": 0, "11110000": 1})
    noisy = apply_readout_noise(BitstringCounts(8, entries), p, seed=4)
    assert np.all(noisy.count > 0)
    assert len(noisy) == len(noisy.entries)
    assert noisy.total_shots == sum(entries.values())


# ------------------------------------------------------------------ recovery

# Open shell, n_alpha != n_beta; each half of the keys has too many or too
# few set bits (or is already right).
RECOVERY_SECTOR = (5, 3, 1)
RECOVERY_OCCUPATIONS = np.array([0.9, 0.7, 0.5, 0.15, 0.0,
                                 0.6, 0.2, 0.1, 1.0, 0.35])
RECOVERY_ENTRIES = {"11111" "00000": 3000, "10000" "11100": 3000,
                    "01101" "11011": 3000, "00010" "00100": 3000}


def test_recovery_matches_per_shot_oracle_in_distribution():
    n, n_alpha, n_beta = RECOVERY_SECTOR
    got = recover_configurations(BitstringCounts(2 * n, RECOVERY_ENTRIES),
                                 RECOVERY_OCCUPATIONS, n_alpha, n_beta,
                                 seed=5).entries
    expected = recovery_per_shot(RECOVERY_ENTRIES, RECOVERY_OCCUPATIONS,
                                 n_alpha, n_beta, rng.stream(5, "oracle"))
    assert sum(got.values()) == sum(expected.values())
    for key in got:
        assert key[:n].count("1") == n_alpha and key[n:].count("1") == n_beta
    # Two-sample chi-squared over the output configurations; the sparse
    # ones are pooled into one bin so every bin holds at least 10 shots.
    keys = sorted(set(got) | set(expected))
    a = np.array([got.get(k, 0) for k in keys], dtype=float)
    b = np.array([expected.get(k, 0) for k in keys], dtype=float)
    sparse = a + b < 10
    a = np.append(a[~sparse], a[sparse].sum())
    b = np.append(b[~sparse], b[sparse].sum())
    a, b = a[a + b > 0], b[a + b > 0]
    dof = len(a) - 1
    assert dof >= 20
    assert np.sum((a - b) ** 2 / (a + b)) < chi2.ppf(0.999, dof)


def recovery_by_sort(invalid, occupations, n_alpha, n_beta, seed):
    """Gumbel-top-k recovery that ranks every shot's bits by a stable
    descending argsort, from the same Gumbel draws."""
    nq = invalid.n_qubits
    n = nq // 2
    clear_weight = np.log(1.0 - occupations + 1e-6)
    set_weight = np.log(occupations + 1e-6)
    gen = rng.stream(seed, "recovery")
    blocks = []
    for rows in shot_rows(invalid.count, sqdci.sqd._RECOVERY_BLOCK_SHOTS):
        bits = unpack_bits(invalid.alpha[rows], invalid.beta[rows], nq)
        gumbel = gen.gumbel(size=bits.shape)
        flips = np.zeros(bits.shape, dtype=bool)
        for half, target in ((slice(0, n), n_alpha), (slice(n, nq), n_beta)):
            occupied = bits[:, half].astype(bool)
            excess = occupied.sum(axis=1) - target
            candidate = occupied == (excess > 0)[:, None]
            score = np.where(candidate,
                             np.where(occupied, clear_weight[half],
                                      set_weight[half]) + gumbel[:, half],
                             -np.inf)
            ranked = np.argsort(-score, axis=1, kind="stable")
            chosen = np.arange(score.shape[1]) < np.abs(excess)[:, None]
            np.put_along_axis(flips[:, half], ranked, chosen, axis=1)
        flip_alpha, flip_beta = pack_bits(flips, nq)
        blocks.append(BitstringCounts.packed(
            nq, invalid.alpha[rows] ^ flip_alpha, invalid.beta[rows] ^ flip_beta,
            np.ones(len(rows), dtype=np.int64)))
    return merge_counts(nq, blocks)


@pytest.mark.parametrize("seed", [0, 5])
def test_recovery_matches_sorted_ranking_exactly(seed):
    # Every invalid key of the open-shell sector: |excess| takes each value
    # from 1 to the largest a half allows (3 for alpha, 4 for beta).
    n, n_alpha, n_beta = RECOVERY_SECTOR
    keys = (format(k, f"0{2 * n}b") for k in range(2 ** (2 * n)))
    invalid = BitstringCounts(2 * n, {key: 3 for key in keys
                                      if key[:n].count("1") != n_alpha
                                      or key[n:].count("1") != n_beta})
    got = recover_configurations(invalid, RECOVERY_OCCUPATIONS, n_alpha,
                                 n_beta, seed)
    expected = recovery_by_sort(invalid, RECOVERY_OCCUPATIONS, n_alpha,
                                n_beta, seed)
    assert got.entries == expected.entries
    assert np.array_equal(got.count, expected.count)


@pytest.mark.parametrize("block", [1, 7, 2**20])
def test_recovery_independent_of_block_size(block, monkeypatch):
    n, n_alpha, n_beta = RECOVERY_SECTOR
    entries = {key: 40 for key in RECOVERY_ENTRIES}
    invalid = BitstringCounts(2 * n, entries)
    reference = recover_configurations(invalid, RECOVERY_OCCUPATIONS,
                                       n_alpha, n_beta, seed=9)
    monkeypatch.setattr(sqdci.sqd, "_RECOVERY_BLOCK_SHOTS", block)
    got = recover_configurations(invalid, RECOVERY_OCCUPATIONS,
                                 n_alpha, n_beta, seed=9)
    assert got.entries == reference.entries


# ----------------------------------------------------------- counts parsing

def _parse_or_config_error(path):
    """read_counts gives counts or ConfigError; CapacityError only when the
    header asks for more than 64 orbitals per spin."""
    try:
        return read_counts(path)
    except ConfigError:
        return None
    except CapacityError:
        with path.open(encoding="utf-8") as fh:
            header = fh.readline()
        assert int(header.split("=", 1)[1]) > 128
        return None


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=300))
def test_read_counts_fuzz_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "counts.txt"
    path.write_bytes(data)
    _parse_or_config_error(path)


@settings(max_examples=150, deadline=None)
@given(header=st.one_of(st.builds("n_qubits={}".format, st.integers(-3, 200)),
                        st.text(max_size=20)),
       lines=st.lists(st.one_of(
           st.text(max_size=20),
           st.builds("{} {}".format, st.text(alphabet="01", max_size=6),
                     st.integers(-2**70, 2**70))), max_size=6))
def test_read_counts_fuzz_lines(tmp_path_factory, header, lines):
    path = tmp_path_factory.mktemp("fuzz") / "counts.txt"
    path.write_text("\n".join([header] + lines), encoding="utf-8")
    counts = _parse_or_config_error(path)
    if counts is not None:
        assert counts.total_shots >= 0
