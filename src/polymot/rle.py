"""Compressed run-length strings for the masks of a label image.

The interchange format used by the MOTS result files: per instance, the
column-major run lengths of its mask, beginning with the count of zero
pixels, then delta-coded (each count from index 3 onward is stored minus
the count two positions back, mirroring the reference encoder's
convention) and emitted as little-endian groups of 5 payload bits plus a
continuation bit, each group offset by ASCII 48.  A set 0x10 bit in the
final group sign-extends the value, so negative deltas survive the trip.

A frame is one int32 label image (0 = background, k >= 1 = its k-th
instance): :func:`encode_labels` encodes all its labels in one pass over
the run boundaries, and :func:`decode_rle_into` paints one string into a
frame's column-major buffer, rejecting a pixel claimed twice.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ParseError


def _counts_to_string(counts: list[int]) -> str:
    chars: list[str] = []
    for i, count in enumerate(counts):
        x = count - (counts[i - 2] if i > 2 else 0)
        more = True
        while more:
            group = x & 0x1F
            x >>= 5
            more = (x != -1) if (group & 0x10) else (x != 0)
            if more:
                group |= 0x20
            chars.append(chr(group + 48))
    return "".join(chars)


def encode_labels(label: np.ndarray, n_labels: int) -> list[str]:
    """Run-length strings of labels 1..n_labels of a 2-D label image."""
    if label.ndim != 2:
        raise InvalidInputError(f"mask must be 2-D, got shape {label.shape}")
    flat = label.ravel(order="F")
    if flat.size == 0:
        raise InvalidInputError("cannot encode an empty mask")
    bounds = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    stops = np.concatenate((bounds, [flat.size]))
    # runs grouped by label, each group in column-major order
    order = np.argsort(flat[starts], kind="stable")
    edges = np.searchsorted(flat[starts[order]], np.arange(1, n_labels + 2))
    strings = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        marks = np.column_stack((starts[order[lo:hi]], stops[order[lo:hi]]))
        counts = np.diff(marks.ravel(), prepend=0, append=flat.size).tolist()
        if counts[-1] == 0:
            counts.pop()  # the last run reaches the final pixel
        strings.append(_counts_to_string(counts))
    return strings


def encode_rle(mask: np.ndarray) -> str:
    """Compress a 2-D boolean mask to its run-length string."""
    return encode_labels(np.asarray(mask, dtype=bool).view(np.uint8), 1)[0]


def _string_to_counts(s: str) -> list[int]:
    counts: list[int] = []
    p = 0
    while p < len(s):
        x = 0
        k = 0
        more = True
        while more:
            if p >= len(s):
                raise ParseError("truncated run-length string")
            c = ord(s[p]) - 48
            if not (0 <= c <= 0x3F):
                raise ParseError(f"invalid run-length character {s[p]!r}")
            x |= (c & 0x1F) << (5 * k)
            more = bool(c & 0x20)
            p += 1
            k += 1
            if not more and (c & 0x10):
                x |= -1 << (5 * k)
        if len(counts) > 2:
            x += counts[-2]
        counts.append(x)
    return counts


def decode_rle_into(s: str, flat: np.ndarray, value: int) -> None:
    """Set the pixels of one string's runs to value in a column-major buffer.

    Raises ParseError when the runs do not cover the buffer exactly or
    claim a pixel that is already nonzero.
    """
    counts = _string_to_counts(s)
    if any(c < 0 for c in counts):
        raise ParseError("negative run length after delta decoding")
    if sum(counts) != flat.size:
        raise ParseError(
            f"run lengths cover {sum(counts)} pixels, expected {flat.size}")
    ends = np.cumsum(counts[: len(counts) // 2 * 2], dtype=np.int64)
    starts, lengths = ends[0::2], np.diff(ends)[0::2]
    # pixel indices of every run: each run's start plus its offset within the run
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pixels = np.arange(len(shift)) + shift
    if flat[pixels].any():
        raise ParseError("mask overlaps an earlier mask of the same frame")
    flat[pixels] = value


def decode_rle(s: str, height: int, width: int) -> np.ndarray:
    """Exact inverse of :func:`encode_rle` for an height x width mask."""
    if height < 1 or width < 1:
        raise InvalidInputError("mask dimensions must be positive")
    flat = np.zeros(height * width, dtype=bool)
    decode_rle_into(s, flat, True)
    return flat.reshape((height, width), order="F")
