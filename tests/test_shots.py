"""The packed shot layer: packing, readout noise and configuration recovery
against the per-key and per-shot reference loops in ``oracles.py``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import sqdci.sampler
import sqdci.sqd
from conftest import counts_of
from oracles import (bitstring_to_determinant, read_counts_dict_merge,
                     readout_noise_gap_walk, readout_noise_per_key,
                     recovery_per_row, recovery_per_shot)
from sqdci import rng
from sqdci.errors import CapacityError, ConfigError
from sqdci.sampler import (BitstringCounts, SectorState, apply_readout_noise,
                           read_counts, sample_counts)
from sqdci.sqd import recover_configurations


def random_entries(n_qubits, n_keys, seed, big=0, most=400):
    gen = np.random.default_rng(seed)
    entries = {}
    for _ in range(n_keys):
        key = "".join(gen.choice(["0", "1"], size=n_qubits))
        entries[key] = int(gen.integers(0, most))
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
    counts = counts_of(2 * n_orb, entries)
    assert counts.entries == entries
    assert list(counts.entries) == sorted(entries)
    assert counts.total_shots == sum(entries.values())
    for key, alpha, beta in zip(counts.entries, counts.alpha.tolist(),
                                counts.beta.tolist()):
        assert bitstring_to_determinant(key, n_orb) == (alpha, beta)


def test_packed_rows_merge_duplicates():
    counts = BitstringCounts(4, [1, 2, 1], [2, 0, 2], [3, 4, 5])
    assert counts.entries == {"1001": 8, "0100": 4}


def test_more_than_64_orbitals_per_spin_is_capacity_error(tmp_path):
    with pytest.raises(CapacityError):
        BitstringCounts(130, [], [], [])
    with pytest.raises(CapacityError):
        counts_of(130, {"1" * 130: 1})
    state = SectorState(65, 1, 1, np.ones(65 * 65))
    with pytest.raises(CapacityError):
        sample_counts(state, 10, seed=0)
    path = tmp_path / "wide.txt"
    path.write_text("n_qubits=130\n" + "0" * 130 + " 4\n")
    with pytest.raises(CapacityError):
        read_counts(path)


# ------------------------------------------------------------- readout noise

def two_sample_chi2_passes(got: dict, expected: dict, min_dof: int) -> bool:
    """Two-sample chi-squared over the output configurations at the 0.1%
    level; the sparse ones are pooled into one bin so every bin holds at
    least 10 shots."""
    keys = sorted(set(got) | set(expected))
    a = np.array([got.get(k, 0) for k in keys], dtype=float)
    b = np.array([expected.get(k, 0) for k in keys], dtype=float)
    sparse = a + b < 10
    a = np.append(a[~sparse], a[sparse].sum())
    b = np.append(b[~sparse], b[sparse].sum())
    a, b = a[a + b > 0], b[a + b > 0]
    dof = len(a) - 1
    assert dof >= min_dof
    return np.sum((a - b) ** 2 / (a + b)) < chi2.ppf(0.999, dof)


@pytest.mark.parametrize("n_orb", [6, 64])
@pytest.mark.parametrize("p", [0.01, 0.3, 1.0])
def test_noise_matches_per_key_oracle(n_orb, p, monkeypatch):
    # Seed 0 has one key with about three default chunks of flips. Seed 1
    # has about 1 500 flips, also walked in chunks of 1 and 7 gaps, which
    # split keys and shots.
    nq = 2 * n_orb
    default = sqdci.sampler._NOISE_GAP_CHUNK
    for seed, big, chunks in ((0, int(3 * default / (nq * p)), (default,)),
                              (1, 0, (1, 7, default))):
        entries = random_entries(nq, 6, seed, big=big,
                                 most=int(500 / (nq * p)) + 1)
        expected = readout_noise_gap_walk(
            entries, nq, p, rng.stream(seed + 10, "readout-noise"))
        for chunk in chunks:
            monkeypatch.setattr(sqdci.sampler, "_NOISE_GAP_CHUNK", chunk)
            got = apply_readout_noise(counts_of(nq, entries), p,
                                      seed=seed + 10)
            assert got.entries == expected


def test_noise_matches_bitwise_oracle_in_distribution():
    # The gap walk against one uniform per bit of every shot.
    entries = {"00001111": 3000, "10100101": 2000, "11111111": 1000}
    got = apply_readout_noise(counts_of(8, entries), 0.1, seed=6)
    expected = readout_noise_per_key(entries, 8, 0.1, rng.stream(6, "oracle"))
    assert got.total_shots == sum(expected.values())
    assert two_sample_chi2_passes(got.entries, expected, min_dof=40)


def test_noise_on_no_qubits_flips_nothing():
    # An empty bitstring has no cell for the walk to reach.
    noisy = apply_readout_noise(counts_of(0, {"": 5}), 0.5, seed=0)
    assert noisy.entries == {"": 5}


@pytest.mark.parametrize("shots", [2**62, 2**63 - 1])
@pytest.mark.parametrize("n_qubits", [2, 8, 128])
@pytest.mark.parametrize("p", [1e-300, 1e-18])
def test_noise_walk_does_not_wrap(shots, n_qubits, p):
    # Up to 2^70 cells; gaps saturate at 2^63 - 1 cells for tiny p, and on
    # 2 qubits the first gap past the end lands beyond shot 2^63.
    entries = {"01" * (n_qubits // 2): shots}
    noisy = apply_readout_noise(counts_of(n_qubits, entries), p, seed=2)
    assert noisy.total_shots == shots
    assert noisy.entries == readout_noise_gap_walk(
        entries, n_qubits, p, rng.stream(2, "readout-noise"))


@pytest.mark.parametrize("p", [0.01, 0.5, 1.0])
def test_noise_keeps_no_row_without_shots(p):
    # Rows whose every shot flips away, and rows that came in with no
    # shots, must not survive as zero counts.
    entries = random_entries(8, 12, seed=3)
    entries.update({"00000000": 0, "11110000": 1})
    noisy = apply_readout_noise(counts_of(8, entries), p, seed=4)
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
    got = recover_configurations(counts_of(2 * n, RECOVERY_ENTRIES),
                                 RECOVERY_OCCUPATIONS, n_alpha, n_beta,
                                 seed=5).entries
    expected = recovery_per_shot(RECOVERY_ENTRIES, RECOVERY_OCCUPATIONS,
                                 n_alpha, n_beta, rng.stream(5, "oracle"))
    assert sum(got.values()) == sum(expected.values())
    for key in got:
        assert key[:n].count("1") == n_alpha and key[n:].count("1") == n_beta
    assert two_sample_chi2_passes(got, expected, min_dof=20)


def every_invalid_key():
    """Every invalid key of the open-shell sector, with counts from 1 to 60:
    |excess| takes each value from 1 to the largest a half allows (3 for
    alpha, 4 for beta)."""
    n, n_alpha, n_beta = RECOVERY_SECTOR
    keys = (format(k, f"0{2 * n}b") for k in range(2 ** (2 * n)))
    return {key: 1 + i % 60 for i, key in enumerate(
        key for key in keys if key[:n].count("1") != n_alpha
        or key[n:].count("1") != n_beta)}


@pytest.mark.parametrize("seed", [0, 5])
def test_recovery_matches_per_row_oracle_exactly(seed):
    n, n_alpha, n_beta = RECOVERY_SECTOR
    entries = every_invalid_key()
    got = recover_configurations(counts_of(2 * n, entries),
                                 RECOVERY_OCCUPATIONS, n_alpha, n_beta, seed)
    expected = recovery_per_row(entries, RECOVERY_OCCUPATIONS, n_alpha,
                                n_beta, rng.stream(seed, "recovery"))
    assert got.entries == expected
    assert got.total_shots == sum(entries.values())


@pytest.mark.parametrize("block", [1, 7, 2**20])
def test_recovery_independent_of_block_size(block, monkeypatch):
    n, n_alpha, n_beta = RECOVERY_SECTOR
    invalid = counts_of(2 * n, every_invalid_key())
    reference = recover_configurations(invalid, RECOVERY_OCCUPATIONS,
                                       n_alpha, n_beta, seed=9)
    monkeypatch.setattr(sqdci.sqd, "_RECOVERY_BLOCK_ROWS", block)
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


@st.composite
def counts_files(draw):
    """Counts-file text whose lines come from a few bitstrings, so they
    repeat, with zero counts, blank lines, counts near 2^63, and now and
    then a refused line or header."""
    n_qubits = draw(st.sampled_from([0, 1, 4, 7, 128]) | st.integers(-1, 131))
    width = max(n_qubits, 0)
    keys = draw(st.lists(st.text("01", min_size=width, max_size=width),
                         min_size=1, max_size=3))
    count = st.sampled_from([0] * 4 + [1, 2, 3] * 6
                            + [2**62, 2**63 - 1, 2**64])
    pad = st.sampled_from(["", " ", "\t"])
    pair = st.builds("{}{} {}{}".format, pad, st.sampled_from(keys), count,
                     pad)
    refused = st.sampled_from([
        "0" * (width + 1) + " 1", "2" + "0" * (width - 1) + " 1",
        keys[0] + " -1", keys[0] + " x", keys[0] + " 1 1"])
    kind = st.sampled_from([pair] * 12 + [st.sampled_from(["", "  "])] * 3
                           + [refused])
    header = st.sampled_from([f"n_qubits={n_qubits}"] * 12
                             + ["n_qubits=x", "qubits=4", ""])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = draw(st.lists(kind.flatmap(lambda x: x), max_size=8))
    return end.join([draw(header), *lines]) + end


@settings(max_examples=200, deadline=None)
@given(counts_files())
@example("n_qubits=4\n0110 0\n\n1001 2\n 1001 3\n  \n0110 0\n")
@example("n_qubits=130\n" + ("0" * 130 + f" {2**62}\n") * 2)
def test_read_counts_matches_dict_merge_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = read_counts_dict_merge(path)
    except (ConfigError, CapacityError) as exc:
        with pytest.raises(type(exc)):
            read_counts(path)
        return
    n_qubits, alpha, beta, count = expected
    counts = read_counts(path)
    assert counts.n_qubits == n_qubits
    assert (counts.alpha.dtype, counts.beta.dtype, counts.count.dtype) == (
        np.uint64, np.uint64, np.int64)
    assert counts.alpha.tolist() == alpha
    assert counts.beta.tolist() == beta
    assert counts.count.tolist() == count
