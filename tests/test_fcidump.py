import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ONE_ORBITAL_FCIDUMP, random_hamiltonian
from oracles import fcidump_body_per_line
from sqdci.cli import main
from sqdci.errors import CapacityError, ConfigError
from sqdci.fcidump import (WRITE_THRESHOLD, parse_fcidump, read_fcidump,
                           write_fcidump, write_fcidump_path)
from sqdci.hamiltonian import ActiveSpaceHamiltonian


def test_one_orbital_field_mapping():
    ham = parse_fcidump(ONE_ORBITAL_FCIDUMP)
    assert ham.n_orb == 1
    assert ham.n_alpha == 1 and ham.n_beta == 1
    assert ham.one_body[0, 0] == -1.0
    assert ham.two_body[0, 0, 0, 0] == 0.5
    assert ham.core_energy == 0.25


def test_symmetry_images_populated():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.7 1 2 1 2\n"
    ham = parse_fcidump(text)
    for idx in ((0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)):
        assert ham.two_body[idx] == 0.7


def test_odd_electron_spin_combination_rejected():
    text = "&FCI NORB=2,NELEC=3,MS2=0,\n&END\n1.0 1 1 0 0\n"
    with pytest.raises(ConfigError, match="inconsistent electron/spin count"):
        parse_fcidump(text)


def test_open_shell_sector_assignment():
    text = "&FCI NORB=3,NELEC=3,MS2=1,\n&END\n-1.0 1 1 0 0\n"
    ham = parse_fcidump(text)
    assert (ham.n_alpha, ham.n_beta) == (2, 1)


def test_missing_terminator_rejected():
    with pytest.raises(ConfigError, match="header"):
        parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0,\n1.0 1 1 0 0\n")


@pytest.mark.parametrize("line", ["nan 1 1 0 0", "inf 1 1 1 1", "nan 0 0 0 0"])
def test_non_finite_value_rejected(line):
    text = f"&FCI NORB=1,NELEC=2,MS2=0,\n&END\n{line}\n"
    with pytest.raises(ConfigError, match="finite"):
        parse_fcidump(text)


def test_index_out_of_range_rejected():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n1.0 3 1 0 0\n"
    with pytest.raises(ConfigError, match="out of range"):
        parse_fcidump(text)


def test_inconsistent_duplicate_rejected():
    text = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            "0.5 1 2 1 2\n0.5000001 2 1 1 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_fcidump(text)


def test_consistent_duplicate_accepted():
    text = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            "0.5 1 2 1 2\n0.5 2 1 1 2\n")
    assert parse_fcidump(text).two_body[0, 1, 0, 1] == 0.5


def test_slash_terminator_and_multiline_header():
    text = "&FCI NORB=1,NELEC=2,\n MS2=0,\n /\n-1.0 1 1 0 0\n"
    ham = parse_fcidump(text)
    assert ham.n_orb == 1 and ham.one_body[0, 0] == -1.0


@pytest.mark.parametrize("header", [
    "&FCI NORB=2,NELEC=2,MS2=0\n&END\n",
    "&FCI NORB=2,NELEC=2,MS2=0\n/\n",
    "&FCI NORB=2,NELEC=2,MS2=0 &END\n",
    "&FCI NORB=2,NELEC=2,MS2=0/\n",
    "&FCI NORB=2,MS2=0,NELEC=2\n&end\n",
])
def test_last_header_field_without_comma(header):
    ham = parse_fcidump(header + "-1.0 1 1 0 0\n0.5 2 2 1 1\n")
    assert (ham.n_orb, ham.n_alpha, ham.n_beta) == (2, 1, 1)
    assert ham.two_body[0, 0, 1, 1] == 0.5


@pytest.mark.parametrize("norb", [65, 10_000_000_000])
def test_too_many_orbitals_is_capacity_error(norb):
    # NORB=10^10 used to end in numpy's "array is too big" ValueError.
    with pytest.raises(CapacityError, match="64 orbitals"):
        parse_fcidump(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n")


_FUZZ_TEXT = st.text(max_size=60)


def _parse_or_rejected(text):
    try:
        return parse_fcidump(text)
    except (ConfigError, CapacityError):
        return None


_FUZZ_HEADER = st.builds("&FCI NORB={},NELEC={},MS2={}{}\n{}\n".format,
                         st.integers(-1, 6), st.integers(-2, 13),
                         st.integers(-3, 3), st.sampled_from(["", ","]),
                         st.sampled_from(["&END", "/", " /", "&end"]))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(max_size=80),
                      st.builds(str.__add__, _FUZZ_HEADER, _FUZZ_TEXT)))
@example(text="&FCI NORB=65,NELEC=2,MS2=0\n&END\n")
@example(text="&FCI NORB=2 3,NELEC=2\n/\n")
def test_parse_fcidump_fuzz_text(text):
    ham = _parse_or_rejected(text)
    if ham is not None:
        assert ham.two_body.shape == (ham.n_orb,) * 4


_FUZZ_INDEX = st.integers(-1, 4)
_FUZZ_LINES = st.lists(st.one_of(
    st.text(max_size=24),
    st.builds("{} {} {} {} {}".format,
              st.one_of(st.floats(), st.text(max_size=4)),
              _FUZZ_INDEX, _FUZZ_INDEX, _FUZZ_INDEX, _FUZZ_INDEX)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(lines=_FUZZ_LINES)
def test_parse_fcidump_fuzz_body_lines(lines):
    ham = _parse_or_rejected("&FCI NORB=3,NELEC=3,MS2=1,\n&END\n"
                             + "\n".join(lines))
    if ham is not None:
        assert np.all(np.isfinite(ham.two_body))
        assert (ham.n_alpha, ham.n_beta) == (2, 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_is_identity(seed):
    ham = random_hamiltonian(3, 2, 1, seed=seed)
    buf = io.StringIO()
    write_fcidump(ham, buf)
    again = parse_fcidump(buf.getvalue())
    assert np.array_equal(again.one_body, ham.one_body)
    assert np.array_equal(again.two_body, ham.two_body)
    assert again.core_energy == ham.core_energy
    assert (again.n_alpha, again.n_beta) == (ham.n_alpha, ham.n_beta)


def _orbit(p, q, r, s):
    """The 8-fold permutation orbit of (pq|rs)."""
    return frozenset(perm for pair in ((p, q, r, s), (r, s, p, q))
                     for perm in (pair, (pair[1], pair[0], *pair[2:]),
                                  (*pair[:2], pair[3], pair[2]),
                                  (pair[1], pair[0], pair[3], pair[2])))


@pytest.mark.parametrize("n", range(1, 7))
def test_writer_emits_each_orbit_once(n):
    # The round trip would also pass if an orbit were written twice.
    ref = random_hamiltonian(n, 1, 1, seed=n)
    two = np.where(np.abs(ref.two_body) < 0.1, 0.0, ref.two_body)
    ham = ActiveSpaceHamiltonian(n_orb=n, n_alpha=1, n_beta=1, core_energy=0.0,
                                 one_body=ref.one_body, two_body=two)
    buf = io.StringIO()
    write_fcidump(ham, buf)
    body = buf.getvalue().split("&END\n")[1].splitlines()
    written = Counter(_orbit(*(int(i) - 1 for i in line.split()[1:]))
                      for line in body if line.split()[3] != "0")
    expected = {_orbit(*index) for index in np.ndindex(two.shape)
                if abs(two[index]) > WRITE_THRESHOLD}
    assert set(written) == expected and len(expected) > 0
    assert set(written.values()) == {1}


def test_read_write_path(tmp_path):
    ham = random_hamiltonian(2, 1, 1, seed=42)
    path = tmp_path / "dump.fcidump"
    write_fcidump_path(ham, path)
    again = read_fcidump(path)
    assert np.array_equal(again.two_body, ham.two_body)


def _header(n_orb, n_alpha, n_beta):
    return (f"&FCI NORB={n_orb},NELEC={n_alpha + n_beta},"
            f"MS2={n_alpha - n_beta},\n&END\n")


def _outcome(read):
    """The error class a reader raises, or the bytes of what it read."""
    try:
        ham = read()
    except (ConfigError, CapacityError) as exc:
        return type(exc).__name__
    return [np.float64(ham.core_energy).tobytes(), ham.one_body.tobytes(),
            ham.two_body.tobytes()]


def _same_as_per_line(body, n_orb=3, n_alpha=2, n_beta=1):
    """Read ``body`` with the package and with the per-line oracle; both
    must fail alike or give bitwise-equal integrals."""
    ours = _outcome(lambda: parse_fcidump(_header(n_orb, n_alpha, n_beta) + body))
    oracle = _outcome(lambda: ActiveSpaceHamiltonian(
        n_orb, n_alpha, n_beta, *fcidump_body_per_line(body.splitlines(), n_orb)))
    assert ours == oracle
    return ours


_IMAGES = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
           (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0))


@st.composite
def _symmetric_bodies(draw):
    """Body text over NORB=3 whose entries respect the 8-fold symmetry,
    with repeats that agree to 1e-10 or not, written as any member of
    their orbit, among blank lines, padding and CRLF line ends."""
    index = st.integers(1, 3)
    entries = draw(st.lists(st.one_of(
        st.tuples(index, index, index, index),
        st.tuples(index, index, st.just(0), st.just(0)),
        st.just((0, 0, 0, 0))), min_size=1, max_size=10))
    lines = []
    for entry in entries:
        value = draw(st.floats(-2, 2))
        # One-body images keep r and s (the zeros) in place.
        images = _IMAGES[:8 if entry[2] else 4]
        for offset in [0.0] + draw(st.lists(st.sampled_from(
                [0.0, 3e-11, -1e-10, 1e-10, 1.5e-10, -1e-3]), max_size=2)):
            image = draw(st.sampled_from(images))
            lines.append("{!r} {} {} {} {}".format(
                value + offset, *(entry[k] for k in image)))
    lines = draw(st.permutations(lines))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    body = []
    for line in lines:
        body += draw(st.lists(pad, max_size=1))  # a blank line
        body.append(draw(pad) + line + draw(pad))
    return draw(st.sampled_from(["\n", "\r\n"])).join(body) + "\n"


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(_FUZZ_TEXT, _FUZZ_LINES.map("\n".join),
                      _symmetric_bodies()))
@example(body="0.5 1 2 1 2\n0.50000000001 2 1 2 1\n")  # the last one is kept
@example(body="1.0 0 0 0 0\r\n\r\n1.00000000005 0 0 0 0 \r\n")
@example(body="0.5 1 2 1 2\n0.5000001 2 1 1 2\n")
@example(body="\n  \n\t\n")
@example(body="# a comment\n0.5 1 1 0 0 # and another\n")
@example(body="0.5 0 0 1 1\n")  # zeros stand only for r and s
def test_body_reader_matches_the_per_line_oracle(body):
    _same_as_per_line(body)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("sqdci_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@settings(max_examples=6, deadline=None)
@given(n_orb=st.sampled_from([12, 16]), seed=st.integers(0, 2**32 - 1))
def test_bench_inputs_read_as_the_per_line_oracle(n_orb, seed):
    bench = _bench_workloads()
    ints = bench.random_integrals(n_orb, np.random.default_rng([seed, 0]),
                                  np.random.default_rng([seed, 1]))
    text = bench.fcidump_text(ints, n_orb // 2, n_orb // 2)
    body = text.split("&END\n")[1]
    assert _same_as_per_line(body, n_orb, n_orb // 2, n_orb // 2) != "ConfigError"


@pytest.mark.parametrize("line", [
    "0.5 1.0 1 0 0",   # a float index
    "0.5 1 1 0 0 0",   # six fields
    "0.5D0 1 1 0 0",   # a Fortran exponent
])
def test_malformed_body_line_exits_2(tmp_path, line):
    text = _header(2, 1, 1) + line + "\n"
    with pytest.raises(ConfigError, match="malformed FCIDUMP line"):
        parse_fcidump(text)
    path = tmp_path / "bad.fcidump"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--hamiltonian", str(path), "--method", "fci"]) == 2


def test_underscore_numerals_rejected():
    # Python's float reads "1_0" as 10.0; an FCIDUMP number has no underscores.
    with pytest.raises(ConfigError, match="malformed FCIDUMP line"):
        parse_fcidump(_header(2, 1, 1) + "1_0 1 1 0 0\n")


def test_non_ascii_digits_rejected():
    # Python's int reads the Arabic-Indic digit one as 1; an index is ASCII.
    with pytest.raises(ConfigError, match="malformed FCIDUMP line"):
        parse_fcidump(_header(2, 1, 1) + "0.5 \u0661 1 0 0\n")


def test_header_only_file_has_zero_integrals():
    ham = parse_fcidump(_header(2, 1, 1))
    assert ham.core_energy == 0.0
    assert not ham.one_body.any() and not ham.two_body.any()


@pytest.mark.parametrize("bad, message", [
    ("x 1 1 0 0", "malformed FCIDUMP line"),        # a value that is no number
    ("0.5 1 1 0", "malformed FCIDUMP line"),        # four fields
    ("0.5 1 1 3 1", "out of range"),
    ("0.5 1 0 1 1", "malformed FCIDUMP line"),      # a zero among indices
    ("0.5 0 0 1 1", "malformed FCIDUMP line"),      # zeros in place of p q
    ("0.7 2 1 1 1", "inconsistent duplicate"),      # repeats the first line
])
def test_error_names_the_first_offending_line(bad, message):
    body = ("0.5 1 2 1 1\n\n  \n-1.0 1 1 0 0\n"
            + f"  {bad}\n" + "0.5 1 3 1 1\n1.0 0 1 0 0\n")
    with pytest.raises(ConfigError, match=message) as info:
        parse_fcidump(_header(2, 1, 1) + body)
    assert repr(f"  {bad}") in str(info.value)
