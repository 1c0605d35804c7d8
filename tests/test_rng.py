"""The first draws of the streams a run uses are pinned: a change to how a
tag becomes entropy would move every sampled record."""

import numpy as np
import pytest

from sqdci import rng

GOLDEN = [
    ((7, "batch", 0, 0), [41669876045898695, 6904039693368054686, 7224721446115700280]),
    ((7, "batch", 2, 1), [8178602386754246390, 6184806021167542735, 5234526613949228257]),
    ((11, "readout-noise"), [1301515966440133750, 2353358834854608402, 2754480274546083553]),
    ((11, "recover-seed", 1), [1036066640367401378, 148269487641154469, 5583726835630573160]),
    ((3, "shots"), [4599018164681352597, 1715466498960329985, 7121295138147287549]),
    ((0, "davidson"), [3097794835338383545, 7780329943528419979, 3229750237034810427]),
    ((5, "noise"), [7394611295782294828, 928888359192850935, 2673913490561661516]),
    ((5, "sample"), [8285707461629099866, 463845021861053069, 7252156652146800293]),
    ((5, "recovery"), [1809754428482771620, 1600352046463925168, 9195323609985252760]),
    ((2**64 - 1, 3, 1, 4), [2422623433601800327, 6824822304991942090, 8326020044664523312]),
]


@pytest.mark.parametrize("key, draws", GOLDEN, ids=[str(k) for k, _ in GOLDEN])
def test_stream_first_draws_are_pinned(key, draws):
    assert rng.stream(*key).integers(2**63, size=3).tolist() == draws


def test_integer_tags_wrap_to_64_bits():
    expected = rng.stream(5, 2**64 - 1, 7).integers(2**63, size=3)
    for tags in ((-1, 7), (np.int64(-1), np.uint8(7)), (2**128 - 1, 2**64 + 7)):
        assert np.array_equal(rng.stream(5, *tags).integers(2**63, size=3),
                              expected)
