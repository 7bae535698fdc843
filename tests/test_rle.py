import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polymot import rle
from polymot.errors import InvalidInputError, ParseError
from polymot.metrics import Frame
from polymot.rle import (RunLengthError, decode_rle, decode_runs, decode_strings,
                         encode_rle, encode_strings)

from oracles import reference_counts_string, reference_rle_string, reference_runs

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

    def test_non_ascii_and_nul_characters_named(self):
        with pytest.raises(ParseError, match=r"^invalid run-length character 'é'$"):
            decode_runs("1é", 5)
        with pytest.raises(ParseError, match=r"^invalid run-length character '\\x00'$"):
            decode_runs("1\x00", 5)
        # an invalid character anywhere comes before a truncated end
        with pytest.raises(ParseError, match=r"character '~'"):
            decode_runs("~P", 5)

    def test_messages(self):
        for s, size, message in (
                ("P", 4, "truncated run-length string"),
                ("6P", 6, "truncated run-length string"),  # counts cover 6
                # counts that sum to 2**64 + 6: the check must not wrap
                (reference_counts_string([1 << 62] * 4 + [6]), 6,
                 f"run lengths cover {(1 << 64) + 6} pixels, expected 6"),
                ("121M", 4, "negative run length after delta decoding"),
                ("6", 16, "run lengths cover 6 pixels, expected 16"),
                ("", 3, "run lengths cover 0 pixels, expected 3")):
            with pytest.raises(ParseError, match=f"^{message}$"):
                decode_runs(s, size)

    def test_value_of_more_than_13_groups_rejected(self):
        # 13 groups hold every 64-bit value; a 14th group never encodes a count
        with pytest.raises(ParseError, match="out of range"):
            decode_runs("o" * 13 + "0", 6)
        # 13 groups whose bits 63 and 64 differ overflow 64 bits
        with pytest.raises(ParseError, match="out of range"):
            decode_runs("o" * 12 + "8", 6)
        # 14 groups of zero payload, which would otherwise read as a zero count
        with pytest.raises(ParseError, match="out of range"):
            decode_runs("P" * 13 + "06", 6)
        big = 1 << 62
        s = reference_counts_string([big - 3, 3])
        assert len(s) == 14  # a 13-group value, then a 1-group one
        starts, stops = decode_runs(s, big)
        assert starts.tolist() == [big - 3] and stops.tolist() == [big]

    def test_batch_names_the_first_bad_string(self):
        for batch, index, message in (
                (["6", "bad!", "6"], 1, "invalid run-length character '!'"),
                # a truncated string must not swallow the next one's characters
                (["6", "P", "6"], 1, "truncated run-length string"),
                (["6P", "6"], 0, "truncated run-length string"),
                (["6", "6", "5", "P"], 2, "run lengths cover 5 pixels, expected 6"),
                (["6", "121M"], 1, "negative run length")):
            with pytest.raises(RunLengthError, match=message) as info:
                decode_strings(batch, 6)
            assert info.value.index == index


# zero-length, small and huge counts, so deltas of every sign and of 1 to
# 13 groups occur (2**59 takes 13); twelve of them stay below 2**63 pixels
counts_lists = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40),
                                  st.integers(0, 1 << 59)), min_size=1, max_size=12)


def as_runs(batch):
    """Concatenated (starts, stops, bounds) of per-instance run lists."""
    runs = [r for item in batch for r in item]
    bounds = np.cumsum([0] + [len(item) for item in batch])
    starts = np.array([a for a, _ in runs], np.intp)
    stops = np.array([b for _, b in runs], np.intp)
    return starts, stops, bounds


def canonical_counts(runs, size):
    """The counts an encoder emits for maximal runs: the last one dropped if 0."""
    counts, pos = [], 0
    for a, b in runs:
        counts += [a - pos, b - a]
        pos = b
    counts.append(size - pos)
    return counts if counts[-1] or len(counts) == 1 else counts[:-1]


class TestFileCodec:
    @given(st.lists(counts_lists, min_size=1, max_size=8), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_decode_matches_oracle(self, batch, pad):
        # every list of a batch covers the same size: pad the short ones
        size = max(sum(c) for c in batch) + pad or 1
        batch = [c[:-1] + [c[-1] + size - sum(c)] for c in batch]
        strings = [reference_counts_string(c) for c in batch]
        starts, stops, bounds = decode_strings(strings, size)
        assert bounds[0] == 0 and bounds[-1] == starts.size
        for i, (counts, s) in enumerate(zip(batch, strings)):
            want = reference_runs(counts)
            got = list(zip(starts[bounds[i]:bounds[i + 1]].tolist(),
                           stops[bounds[i]:bounds[i + 1]].tolist()))
            assert got == want
            one = decode_runs(s, size)
            assert list(zip(one[0].tolist(), one[1].tolist())) == want

    @given(st.lists(counts_lists, min_size=1, max_size=8), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_encode_matches_oracle(self, batch, pad):
        size = max(sum(c) for c in batch) + pad or 1
        runs = [reference_runs(c[:-1] + [c[-1] + size - sum(c)]) for c in batch]
        strings = encode_strings(*as_runs(runs), size)
        assert strings == [reference_counts_string(canonical_counts(r, size))
                           for r in runs]
        assert [encode_strings(*as_runs([r]), size)[0] for r in runs] == strings
        back = decode_strings(strings, size)
        assert all(np.array_equal(x, y) for x, y in zip(back, as_runs(runs)))

    @given(st.lists(hnp.arrays(bool, st.integers(1, 60)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_masks_match_reference_encoder(self, columns):
        # mixed-length strings: masks of one size, runs reaching the last pixel
        size = max(c.size for c in columns)
        masks = [np.resize(c, size).reshape(size, 1) for c in columns]
        runs = [list(zip(*Frame.from_label(m, [1]).instance_runs()[0])) for m in masks]
        strings = encode_strings(*as_runs(runs), size)
        assert strings == [reference_rle_string(m) for m in masks]
        starts, stops, bounds = decode_strings(strings, size)
        for i, r in enumerate(runs):
            assert list(zip(starts[bounds[i]:bounds[i + 1]].tolist(),
                            stops[bounds[i]:bounds[i + 1]].tolist())) == r

    def test_blocks_of_any_size_give_the_same_runs(self, monkeypatch):
        rng = np.random.default_rng(4)
        masks = [rng.random((9, 7)) < p for p in np.linspace(0, 1, 12)]
        strings = [encode_rle(m) for m in masks]
        want = decode_strings(strings, 63)
        for block in (1, 5, 40):  # a block per string, and strings per block
            monkeypatch.setattr(rle, "DECODE_BLOCK_CHARS", block)
            got = decode_strings(strings, 63)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            with pytest.raises(RunLengthError, match="truncated") as info:
                decode_strings(strings[:7] + ["P"] + strings[7:], 63)
            assert info.value.index == 7

    def test_empty_batch(self):
        assert encode_strings(np.zeros(0, np.intp), np.zeros(0, np.intp), [0], 6) == []
        starts, stops, bounds = decode_strings([], 6)
        assert starts.size == stops.size == 0 and bounds.tolist() == [0]
