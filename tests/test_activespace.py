import numpy as np
import pytest

from sqdci.activespace import (OrbitalRanking, filter_contributions,
                               read_orbital_data, select_inside_out)
from sqdci.errors import ConfigError


def test_filter_example():
    assert filter_contributions([0.5, 2e-3, 1e-5], eta=1e-3) == [0, 1]


def test_filter_zero_eta_keeps_all():
    assert set(filter_contributions([0.3, 0.0, 0.1], eta=0.0)) == {0, 1, 2}


def test_filter_orders_by_score_then_index():
    assert filter_contributions([0.1, 0.5, 0.1, 0.2], eta=0.05) == [1, 3, 0, 2]


def test_filter_stable_between_thresholds():
    scores = [0.5, 0.2, 0.004]
    assert filter_contributions(scores, 1e-3) == filter_contributions(scores, 2e-3)


def test_filter_rejects_negative_scores():
    with pytest.raises(ConfigError):
        filter_contributions([-0.1, 0.2])


def test_ranking_hono_luno():
    ranking = OrbitalRanking(contributions=np.zeros(4),
                             occupations=[2.0, 1.9, 0.1, 0.0])
    assert ranking.hono_index == 1
    assert ranking.luno_index == 2
    assert ranking.hono_position + 1 == ranking.luno_position


def test_ranking_requires_both_sides():
    with pytest.raises(ConfigError):
        OrbitalRanking(contributions=np.zeros(2), occupations=[2.0, 2.0])
    with pytest.raises(ConfigError):
        OrbitalRanking(contributions=np.zeros(2), occupations=[0.1, 0.0])


def test_inside_out_growth():
    occ = [2, 2, 1.98, 0.02, 0, 0]
    assert select_inside_out(occ, 2) == [2, 3]
    assert select_inside_out(occ, 4) == [1, 2, 3, 4]
    assert select_inside_out(occ, 5) == [0, 1, 2, 3, 4]


def test_inside_out_nesting():
    occ = [2.0, 2.0, 2.0, 1.2, 0.9, 0.0, 0.0, 0.0]
    for k in (2, 4, 6):
        assert set(select_inside_out(occ, k)) < set(select_inside_out(occ, k + 2))


def test_inside_out_side_exhaustion():
    # Only one occupied orbital: extra picks fall to the virtual side.
    occ = [2.0, 0.01, 0.005, 0.002]
    assert select_inside_out(occ, 3) == [0, 1, 2]


def test_inside_out_even_electron_count():
    occ = [2.0, 2.0, 1.97, 0.03, 0.0]
    selected = select_inside_out(occ, 4)
    occupied = sum(1 for i in selected if occ[i] >= 1.0)
    assert (2 * occupied) % 2 == 0


def test_inside_out_size_validation():
    with pytest.raises(ConfigError):
        select_inside_out([2.0, 0.0], 1)
    with pytest.raises(ConfigError):
        select_inside_out([2.0, 0.0], 3)


def test_read_orbital_data(tmp_path):
    path = tmp_path / "orbitals.txt"
    path.write_text("# index contribution occupation\n"
                    "0 0.5 2.0\n1 0.002 1.9\n2 0.0005 0.1\n")
    ranking = read_orbital_data(path)
    assert ranking.hono_index == 1
    assert list(ranking.contributions) == [0.5, 0.002, 0.0005]


def test_read_orbital_data_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0.5\n")
    with pytest.raises(ConfigError):
        read_orbital_data(path)
    path.write_text("0 0.5 2.0\n2 0.1 0.0\n")  # gap in indices
    with pytest.raises(ConfigError):
        read_orbital_data(path)


def test_read_orbital_data_unreadable(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 0.5 2.0 # \xe9\n")
    with pytest.raises(ConfigError, match="cannot read"):
        read_orbital_data(path)
    with pytest.raises(ConfigError, match="cannot read"):
        read_orbital_data(tmp_path)
