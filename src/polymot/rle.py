"""Compressed run-length strings for the masks of a frame.

The interchange format used by the MOTS result files: per instance, the
column-major run lengths of its mask, beginning with the count of zero
pixels, then delta-coded (each count from index 3 onward is stored minus
the count two positions back, mirroring the reference encoder's
convention) and emitted as little-endian groups of 5 payload bits plus a
continuation bit, each group offset by ASCII 48.  A set 0x10 bit in the
final group sign-extends the value, so negative deltas survive the trip.

The counts are the gaps and lengths of an instance's column-major runs
(see :class:`polymot.metrics.Frame`), so :func:`encode_runs` forms them
from a frame's runs and :func:`decode_runs` turns them back into runs by
a cumulative sum; no pixel is touched on either path.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ParseError
from .metrics import Frame, run_pixels


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


def encode_runs(starts: np.ndarray, stops: np.ndarray, size: int) -> str:
    """Run-length string of one instance's sorted, maximal runs in size pixels."""
    counts = np.diff(np.column_stack((starts, stops)).ravel(),
                     prepend=0, append=size).tolist()
    if counts[-1] == 0:
        counts.pop()  # the last run reaches the final pixel
    return _counts_to_string(counts)


def encode_rle(mask: np.ndarray) -> str:
    """Compress a 2-D boolean mask to its run-length string."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise InvalidInputError(f"mask must be 2-D, got shape {mask.shape}")
    if mask.size == 0:
        raise InvalidInputError("cannot encode an empty mask")
    return encode_runs(*Frame.from_label(mask, [1]).instance_runs()[0], mask.size)


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


def decode_runs(s: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted, maximal runs (starts, stops) of one string over size pixels.

    Raises ParseError when a run is negative or the runs do not cover
    size pixels exactly.
    """
    counts = _string_to_counts(s)
    if any(c < 0 for c in counts):
        raise ParseError("negative run length after delta decoding")
    if sum(counts) != size:
        raise ParseError(f"run lengths cover {sum(counts)} pixels, expected {size}")
    ends = np.cumsum(counts[: len(counts) // 2 * 2], dtype=np.intp)
    starts, stops = ends[0::2], ends[1::2]
    # zero-length counts are legal: drop empty runs, join runs that touch
    keep = stops > starts
    starts, stops = starts[keep], stops[keep]
    joined = np.flatnonzero(starts[1:] == stops[:-1])
    if joined.size:
        starts, stops = np.delete(starts, joined + 1), np.delete(stops, joined)
    return starts, stops


def decode_rle(s: str, height: int, width: int) -> np.ndarray:
    """Exact inverse of :func:`encode_rle` for an height x width mask."""
    if height < 1 or width < 1:
        raise InvalidInputError("mask dimensions must be positive")
    flat = np.zeros(height * width, dtype=bool)
    flat[run_pixels(*decode_runs(s, flat.size))] = True
    return flat.reshape((height, width), order="F")
