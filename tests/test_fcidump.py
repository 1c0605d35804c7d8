import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ONE_ORBITAL_FCIDUMP, random_hamiltonian
from sqdci.errors import CapacityError, ConfigError
from sqdci.fcidump import (parse_fcidump, read_fcidump, write_fcidump,
                           write_fcidump_path)


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
                      st.builds(str.__add__, _FUZZ_HEADER, st.text(max_size=60))))
@example(text="&FCI NORB=65,NELEC=2,MS2=0\n&END\n")
@example(text="&FCI NORB=2 3,NELEC=2\n/\n")
def test_parse_fcidump_fuzz_text(text):
    ham = _parse_or_rejected(text)
    if ham is not None:
        assert ham.two_body.shape == (ham.n_orb,) * 4


_FUZZ_INDEX = st.integers(-1, 4)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(
    st.text(max_size=24),
    st.builds("{} {} {} {} {}".format,
              st.one_of(st.floats(), st.text(max_size=4)),
              _FUZZ_INDEX, _FUZZ_INDEX, _FUZZ_INDEX, _FUZZ_INDEX)), max_size=8))
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


def test_read_write_path(tmp_path):
    ham = random_hamiltonian(2, 1, 1, seed=42)
    path = tmp_path / "dump.fcidump"
    write_fcidump_path(ham, path)
    again = read_fcidump(path)
    assert np.array_equal(again.two_body, ham.two_body)
