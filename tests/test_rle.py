import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from polymot.errors import InvalidInputError, ParseError
from polymot.rle import decode_rle, decode_runs, encode_rle

from oracles import reference_rle_string

# Strings produced once by the independently written reference encoder in
# oracles.py; the codec must agree byte for byte.
CANONICAL = [
    ("empty_3x2", (3, 2), "6"),
    ("full_2x2", (2, 2), "04"),
    ("corner_tl_4x4", (4, 4), "01?"),
    ("corner_br_4x4", (4, 4), "?1"),
    ("checker_6x5", (6, 5), "01100010O0010O0010O0010O000"),
    ("hband_8x8", (8, 8), "2260000000000000N"),
    ("vband_8x8", (8, 8), "X1`08"),
    ("disc_16x16", (16, 16), "V14:4M2O0O2O000001N101N3Ll0"),
    ("tall_1col_9x1", (9, 1), "09"),
    ("random_12x10", (12, 10),
     "21111O12ON22N0OO111OO2OM00051O0LO03000N10O10N030M0000075"),
]


def canonical_mask(name):
    if name == "empty_3x2":
        return np.zeros((3, 2), bool)
    if name == "full_2x2":
        return np.ones((2, 2), bool)
    if name == "corner_tl_4x4":
        m = np.zeros((4, 4), bool)
        m[0, 0] = True
        return m
    if name == "corner_br_4x4":
        m = np.zeros((4, 4), bool)
        m[3, 3] = True
        return m
    if name == "checker_6x5":
        yy, xx = np.mgrid[0:6, 0:5]
        return (yy + xx) % 2 == 0
    if name == "hband_8x8":
        m = np.zeros((8, 8), bool)
        m[2:4, :] = True
        return m
    if name == "vband_8x8":
        m = np.zeros((8, 8), bool)
        m[:, 5:7] = True
        return m
    if name == "disc_16x16":
        yy, xx = np.mgrid[0:16, 0:16]
        return (xx - 7.5) ** 2 + (yy - 7.5) ** 2 <= 36
    if name == "tall_1col_9x1":
        return np.ones((9, 1), bool)
    if name == "random_12x10":
        return np.random.default_rng(123).random((12, 10)) < 0.45
    raise KeyError(name)


@pytest.mark.parametrize("name,shape,expected", CANONICAL)
def test_canonical_fixtures_byte_exact(name, shape, expected):
    mask = canonical_mask(name)
    assert encode_rle(mask) == expected
    assert (decode_rle(expected, *shape) == mask).all()


@pytest.mark.parametrize("name,shape,expected", CANONICAL)
def test_fixtures_match_reference_encoder(name, shape, expected):
    assert reference_rle_string(canonical_mask(name)) == expected


def test_all_zeros_single_run():
    assert encode_rle(np.zeros((3, 2), bool)) == "6"


def test_round_trip_seeded_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = int(rng.integers(1, 64))
        w = int(rng.integers(1, 64))
        density = rng.uniform(0, 1)
        mask = rng.random((h, w)) < density
        assert (decode_rle(encode_rle(mask), h, w) == mask).all()


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                         min_side=1, max_side=24)))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(mask):
    assert (decode_rle(encode_rle(mask), *mask.shape) == mask).all()


def test_long_runs_multibyte_counts():
    mask = np.zeros((400, 300), bool)
    mask[100:140, 50:220] = True
    assert (decode_rle(encode_rle(mask), 400, 300) == mask).all()


def test_negative_delta_round_trip():
    # runs shaped so the delta of the fourth count is negative
    mask = np.zeros((10, 3), bool)
    mask[1:3, 0] = True   # run pattern with shrinking gaps
    mask[4:9, 0] = True
    mask[0:2, 1] = True
    assert (decode_rle(encode_rle(mask), 10, 3) == mask).all()


def test_zero_length_counts_decode_to_maximal_runs():
    # 0 background, 2 set, 0 background, 3 set, 1 background: one run of 5;
    # then 1 background, 0 set, 2 background, 2 set, 0 background, 1 set
    for s, want in (("02011", ([0], [5])), ("1022NO", ([3], [6]))):
        starts, stops = decode_runs(s, 6)
        assert starts.tolist() == want[0] and stops.tolist() == want[1]
        mask = np.zeros(6, bool)
        mask[want[0][0]:want[1][0]] = True
        assert encode_rle(mask.reshape(6, 1)) == reference_rle_string(mask.reshape(6, 1))


class TestDecodeErrors:
    def test_negative_run(self):
        # counts 1, 2, 1, -1: the fourth is stored as its delta -3 from the 2
        with pytest.raises(ParseError, match="negative"):
            decode_rle("121M", 1, 3)

    def test_pixel_count_mismatch(self):
        with pytest.raises(ParseError):
            decode_rle("6", 4, 4)

    def test_invalid_character(self):
        with pytest.raises(ParseError):
            decode_rle("\x1f", 2, 2)

    def test_truncated_continuation(self):
        s = encode_rle(np.ones((40, 40), bool))
        with pytest.raises(ParseError):
            decode_rle(s[:-1], 40, 40)

    def test_bad_dims(self):
        with pytest.raises(InvalidInputError):
            decode_rle("6", 0, 6)

    def test_encode_rejects_non_2d(self):
        with pytest.raises(InvalidInputError):
            encode_rle(np.zeros(5, bool))
