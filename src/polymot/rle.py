"""Compressed run-length strings for the masks of a frame.

The interchange format used by the MOTS result files: per instance, the
column-major run lengths of its mask, beginning with the count of zero
pixels, then delta-coded (each count from index 3 onward is stored minus
the count two positions back, mirroring the reference encoder's
convention) and emitted as little-endian groups of 5 payload bits plus a
continuation bit, each group offset by ASCII 48.  A set 0x10 bit in the
final group sign-extends the value, so negative deltas survive the trip.

The counts are the gaps and lengths of an instance's column-major runs
(see :class:`polymot.metrics.Frame`), so no pixel is touched on either
path.  The codec works on a batch of strings at once, such as every
record of a result file: :func:`encode_strings` and :func:`decode_strings`
make a fixed number of numpy passes over the batch's counts and
characters, whatever the number of strings.  :func:`encode_runs` and
:func:`decode_runs` are their one-string cases.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, ParseError
from .metrics import Frame, run_pixels

# g groups hold the signed integers of 5g bits, so a value x needs one group
# more than the number of these limits 2**(5j - 1) at or below x (~x if x < 0)
_GROUP_LIMITS = np.int64(1) << np.arange(4, 64, 5, dtype=np.int64)
# every count lies in [0, 2**63); its delta needs at most 13 groups
_MAX_GROUPS = 13
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
# characters decoded per pass: a few int64 arrays of this many characters
# are the decoder's working memory
DECODE_BLOCK_CHARS = 1 << 14


class RunLengthError(ParseError):
    """A bad string of a batch; ``index`` is its position in the batch."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _segment_any(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether any flag is set in each segment [bounds[i], bounds[i + 1])."""
    seen = np.concatenate(([0], np.cumsum(flags)))
    return seen[bounds[1:]] > seen[bounds[:-1]]


def encode_strings(starts: np.ndarray, stops: np.ndarray, bounds: np.ndarray,
                   size: int) -> list[str]:
    """Run-length strings of a batch of instances in size pixels each.

    Instance i has the sorted, maximal runs [starts[k], stops[k]) for k in
    [bounds[i], bounds[i + 1]); bounds starts at 0 and ends at len(starts).
    The working memory is a few int64 arrays of the batch's characters, so
    a caller with many instances encodes them in blocks.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    n = len(bounds) - 1
    if n < 1:
        return []
    # instance i's counts are the differences of 0, its run edges and size,
    # held at [2 * bounds[i] + i, 2 * bounds[i + 1] + i + 1)
    inst = np.arange(n)
    last = 2 * bounds[1:] + inst
    run_at = 2 * np.arange(bounds[-1]) + np.repeat(inst, np.diff(bounds))
    edges = np.empty(2 * bounds[-1] + n, dtype=np.int64)
    edges[run_at], edges[run_at + 1], edges[last] = starts, stops, size
    counts = np.diff(edges, prepend=0)
    first = last - 2 * np.diff(bounds)
    counts[first] = edges[first]
    # a zero last count means the last run reaches the final pixel: drop it
    keep = np.ones(counts.size, dtype=bool)
    keep[last] = counts[last] != 0
    counts = counts[keep]
    value_bounds = np.concatenate(([0], np.cumsum(2 * np.diff(bounds) + keep[last])))
    index = np.arange(counts.size) - np.repeat(value_bounds[:-1], np.diff(value_bounds))
    # each count from index 3 on is stored minus the count two back
    deltas = counts.copy()
    later = np.flatnonzero(index > 2)
    deltas[later] -= counts[later - 2]
    groups = np.searchsorted(_GROUP_LIMITS, np.where(deltas < 0, ~deltas, deltas),
                             side="right") + 1
    # group k of a value holds its bits 5k..5k+4; all but its last group
    # carry the continuation bit
    group_ends = np.cumsum(groups)
    value = np.repeat(np.arange(counts.size), groups)
    k = np.arange(value.size) - (group_ends - groups)[value]
    chars = (deltas[value] >> 5 * k) & 0x1F
    chars[k < groups[value] - 1] |= 0x20
    text = (chars + 48).astype(np.uint8).tobytes().decode("ascii")
    char_bounds = np.concatenate(([0], group_ends))[value_bounds].tolist()
    return [text[a:b] for a, b in zip(char_bounds[:-1], char_bounds[1:])]


def encode_runs(starts: np.ndarray, stops: np.ndarray, size: int) -> str:
    """Run-length string of one instance's sorted, maximal runs in size pixels."""
    return encode_strings(starts, stops, [0, len(starts)], size)[0]


def encode_rle(mask: np.ndarray) -> str:
    """Compress a 2-D boolean mask to its run-length string."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise InvalidInputError(f"mask must be 2-D, got shape {mask.shape}")
    if mask.size == 0:
        raise InvalidInputError("cannot encode an empty mask")
    return encode_runs(*Frame.from_label(mask, [1]).instance_runs()[0], mask.size)


def decode_strings(strings: Sequence[str], size: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of a batch of strings over size pixels each.

    Returns (starts, stops, bounds): string i's sorted, maximal runs are
    [starts[k], stops[k]) for k in [bounds[i], bounds[i + 1]).  Raises a
    :class:`RunLengthError` for the first bad string of the batch; a
    string is bad when it holds a character outside '0'..'o', ends inside
    a value, holds a value of more than 64 bits, or its counts are
    negative or do not cover size pixels exactly.  The strings are decoded
    ``DECODE_BLOCK_CHARS`` characters at a time, which bounds the working
    memory.
    """
    char_bounds = np.concatenate(
        ([0], np.cumsum(np.fromiter(map(len, strings), dtype=np.intp, count=len(strings)))))
    starts, stops = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    bounds = [np.zeros(1, dtype=np.intp)]
    lo = 0
    while lo < len(strings):
        # whole strings of about DECODE_BLOCK_CHARS characters, at least one
        hi = max(lo + 1, int(np.searchsorted(
            char_bounds, char_bounds[lo] + DECODE_BLOCK_CHARS, side="right")) - 1)
        try:
            block = _decode_block(strings[lo:hi], char_bounds[lo:hi + 1] - char_bounds[lo],
                                  size)
        except RunLengthError as exc:
            raise RunLengthError(str(exc), lo + exc.index) from None
        starts.append(block[0])
        stops.append(block[1])
        bounds.append(block[2][1:] + bounds[-1][-1])
        lo = hi
    return np.concatenate(starts), np.concatenate(stops), np.concatenate(bounds)


def _decode_block(strings: Sequence[str], char_bounds: np.ndarray, size: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(strings)
    text = "".join(strings)
    if not text.isascii():
        text = _NON_ASCII.sub("\x7f", text)  # any invalid character will do
    c = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - np.uint8(48)
    bad_char = _segment_any(c > 0x3F, char_bounds)
    ends = (c & 0x20) == 0
    value_bounds = np.concatenate(([0], np.cumsum(ends)))[char_bounds]
    # a non-empty string must end a value with its last character
    truncated = ((char_bounds[1:] > char_bounds[:-1])
                 & ~np.concatenate(([True], ends))[char_bounds[1:]])

    # each value is the sum of its groups' payloads, shifted into place
    last = np.flatnonzero(ends)
    first = np.concatenate(([0], last + 1))[:-1]
    groups = last - first + 1
    k = np.minimum(np.arange(groups.sum()) - np.repeat(first, groups), _MAX_GROUPS - 1)
    payload = (c[: k.size] & 0x1F).astype(np.int64) << 5 * k
    deltas = np.add.reduceat(payload, first)
    top = c[last]
    # a 13-group value fits in 64 bits when its bits 63 and 64 agree
    top_bits = top & 0x18
    too_long = _segment_any(
        (groups > _MAX_GROUPS)
        | ((groups == _MAX_GROUPS) & (top_bits != 0) & (top_bits != 0x18)),
        value_bounds)
    negative = ((top & 0x10) != 0) & (groups < _MAX_GROUPS)
    deltas[negative] |= np.int64(-1) << 5 * groups[negative]

    # undo the delta coding: counts from index 3 on are sums along the odd
    # and the even chain of their string, two cumsums over alternate values
    string = np.repeat(np.arange(n), np.diff(value_bounds))
    index = np.arange(deltas.size) - value_bounds[string]
    chain = np.where(index == 0, 0, np.where(index % 2 == 1, 1, 2)) + value_bounds[string]
    chained = np.empty_like(deltas)
    chained[0::2], chained[1::2] = np.cumsum(deltas[0::2]), np.cumsum(deltas[1::2])
    counts = chained - chained[chain] + deltas[chain]
    ends_at = np.concatenate(([0], np.cumsum(counts)))
    covered = ends_at[1:] - ends_at[value_bounds[string]]
    # int64 wraps: the first count or prefix out of [0, size] still reads
    # outside it, so these flags are exact whatever the later values
    out_of_range = (counts < 0) | (counts > size) | (covered < 0) | (covered > size)
    bad_counts = (_segment_any(out_of_range, value_bounds)
                  | (ends_at[value_bounds[1:]] - ends_at[value_bounds[:-1]] != size))

    bad = bad_char | truncated | too_long | bad_counts
    if bad.any():
        i = int(np.argmax(bad))
        if bad_char[i]:
            ch = next(ch for ch in strings[i] if not "0" <= ch <= "o")
            raise RunLengthError(f"invalid run-length character {ch!r}", i)
        if truncated[i]:
            raise RunLengthError("truncated run-length string", i)
        if too_long[i]:
            raise RunLengthError("run-length value out of range", i)
        exact = []  # in Python integers, for the message
        for j, d in enumerate(deltas[value_bounds[i]:value_bounds[i + 1]].tolist()):
            exact.append(d + exact[j - 2] if j > 2 else d)
        if any(x < 0 for x in exact):
            raise RunLengthError("negative run length after delta decoding", i)
        raise RunLengthError(f"run lengths cover {sum(exact)} pixels, expected {size}", i)

    # the odd-index counts are the runs; drop empty ones, join touching ones
    run = (index % 2 == 1) & (counts > 0)
    starts, stops, string = covered[run] - counts[run], covered[run], string[run]
    apart = np.ones(starts.size + 1, dtype=bool)  # run r begins after a gap
    apart[1:-1] = (starts[1:] != stops[:-1]) | (string[1:] != string[:-1])
    starts, stops, string = starts[apart[:-1]], stops[apart[1:]], string[apart[:-1]]
    return starts, stops, np.searchsorted(string, np.arange(n + 1))


def decode_runs(s: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted, maximal runs (starts, stops) of one string over size pixels.

    Raises ParseError when the string is malformed, a run is negative or
    the runs do not cover size pixels exactly.
    """
    starts, stops, _ = decode_strings([s], size)
    return starts, stops


def decode_rle(s: str, height: int, width: int) -> np.ndarray:
    """Exact inverse of :func:`encode_rle` for an height x width mask."""
    if height < 1 or width < 1:
        raise InvalidInputError("mask dimensions must be positive")
    flat = np.zeros(height * width, dtype=bool)
    flat[run_pixels(*decode_runs(s, flat.size))] = True
    return flat.reshape((height, width), order="F")
