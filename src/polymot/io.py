"""File formats: detection text files, mask result records, PGM images,
INI-style run configuration, and metric reports.

Detection files carry one record per line, space separated:

    frame class_id score cx cy depth off_x off_y x0 y0 ... x{V-1} y{V-1}

(8 + 2V numeric fields; the vertex count V >= 3 is inferred per file and
must not change between lines; '#' starts a comment).  Detections are
read and written as :class:`polymot.tracker.DetectionBlock` columns: a
reader checks each line's field and vertex counts, integer frame and class
and frame order, then converts the numbers of a block of lines in one pass
and checks its rows at once; a writer formats a block of rows with one
``%`` format per line and streams each block's text to the file.  Result
files use the MOTS submission layout, one line per instance:

    frame track_id class_id img_height img_width rle

with the compressed run-length string from :mod:`polymot.rle`.  Records
are written from a :class:`polymot.metrics.InstanceBlock`: ``polymot
simulate`` writes its ground truth's, and ``polymot track`` the one that
:func:`polymot.tracker.run_sequence` returns.  A frame is held as its
column-major runs (a :class:`polymot.metrics.Frame`) when written and when
read.  The strings go through the batch codec: a writer flattens each
frame, then encodes the instances of a block of frames in one call; a
reader checks each line's fields, dimensions and ids, then decodes every
string of the file in one call.  The first error in file order is
reported with its line: a malformed line, a bad string, or a record
claiming a pixel that an earlier record of its frame holds.  In both
formats the error reported is the first in file order, with the
message a line-by-line reader gives.  All writes go through a temp file
and an atomic rename, and the large ones stream in bounded chunks.  The
writers take a path, or a text file held open by :func:`atomic_writers`:
``polymot simulate`` holds its detection and ground-truth files open side
by side and appends each block of frames to both; the temp files are
renamed when the last block is written, or both removed if a block fails.
"""

from __future__ import annotations

import configparser
import os
import tempfile
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import InvalidInputError, ParseError
from .metrics import (Frame, InstanceBlock, InstanceRecord, MetricsReport, Runs,
                      flatten_frame, run_pixels)
from .rle import RunLengthError, decode_strings, encode_strings
from .simulator import SCENARIO_KINDS, NoiseParams
from .tracker import Detection, DetectionBlock, TrackerConfig
from .ukf import UkfParams


@contextmanager
def atomic_writers(*paths: str) -> Iterator[list[TextIO]]:
    """Text files written side by side: each goes to a temp file in its
    path's directory.  On a clean exit every temp file is renamed onto its
    path; if anything raises, every temp file is removed."""
    handles: list[TextIO] = []
    tmps: list[str] = []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", text=True)
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "w"))
        yield handles
        for fh in handles:
            fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write whole-file atomically: temp file in the same directory, then
    rename.  ``text`` is the file's text or an iterable of its chunks."""
    with atomic_writers(path) as (fh,):
        fh.writelines([text] if isinstance(text, str) else text)


def _write_chunks(out: Union[str, TextIO], chunks: Iterable[str]) -> None:
    """Stream text chunks to an open text file, or atomically to a path."""
    if hasattr(out, "write"):
        out.writelines(chunks)
    else:
        atomic_write_text(out, chunks)


def _strip_comment(line: str) -> str:
    hash_pos = line.find("#")
    return line if hash_pos < 0 else line[:hash_pos]


# detection lines whose numbers are converted and checked in one pass
PARSE_BLOCK_LINES = 1 << 7
# detection rows formatted into one chunk of text
FORMAT_BLOCK_ROWS = 1 << 8
_INT64 = range(-(1 << 63), 1 << 63)


def parse_detections(path: str) -> dict[int, DetectionBlock]:
    """Strict parse of a detection file into per-frame rows (keyed by frame).

    The line loop checks each line's field and vertex counts, its integer
    frame and class and the frame order.  The numbers of each block of
    ``PARSE_BLOCK_LINES`` lines are converted in one pass and the rows
    checked by :func:`polymot.tracker.first_invalid`.  The error reported is
    the first in file order, with the message of a line-by-line parse.  The
    frames' rows are views of one :class:`DetectionBlock`.
    """
    blocks: list[DetectionBlock] = []
    heads: list[tuple[int, int]] = []  # frame, class id of the pending lines
    numbers: list[list[str]] = []
    linenos: list[int] = []
    last_frame: Optional[int] = None
    vertex_count: Optional[int] = None
    error: Optional[ParseError] = None

    def flush():
        if heads:
            blocks.append(_detection_block(path, heads, numbers, linenos))
            for pending in (heads, numbers, linenos):
                pending.clear()

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = _strip_comment(raw).split()
            if not parts:
                continue
            try:
                frame, class_id, vertex_count = _line_head(
                    path, lineno, parts, vertex_count, last_frame)
            except ParseError as exc:
                error = exc  # the pending lines come before it
                break
            last_frame = frame
            heads.append((frame, class_id))
            numbers.append(parts[2:])
            linenos.append(lineno)
            if len(heads) == PARSE_BLOCK_LINES:
                flush()
    flush()
    if error is not None:
        raise error
    return DetectionBlock.concat(blocks).by_frame() if blocks else {}


def _line_head(path: str, lineno: int, parts: list[str], vertex_count: Optional[int],
               last_frame: Optional[int]) -> tuple[int, int, int]:
    """A detection line's frame, class id and vertex count, or a ParseError.

    As a line-by-line parse does, a line's bad number is reported before a
    frame smaller than the last line's.
    """
    n_vertices, odd = divmod(len(parts) - 8, 2)
    if odd or n_vertices < 3:
        raise ParseError(f"{path}:{lineno}: expected 8 + 2V fields with "
                         f"V >= 3 vertices, got {len(parts)}")
    if vertex_count is not None and n_vertices != vertex_count:
        raise ParseError(f"{path}:{lineno}: {n_vertices} vertices, "
                         f"earlier lines have {vertex_count}")
    try:
        frame = int(parts[0])
        class_id = int(parts[1])
        decreasing = last_frame is not None and frame < last_frame
        if decreasing:
            list(map(float, parts[2:]))
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if decreasing:
        raise ParseError(f"{path}:{lineno}: frame {frame} after frame {last_frame}")
    if frame not in _INT64 or class_id not in _INT64:
        raise ParseError(f"{path}:{lineno}: frame {frame} and class {class_id} "
                         f"must fit in 64 bits")
    return frame, class_id, n_vertices


def _detection_block(path: str, heads: list[tuple[int, int]], numbers: list[list[str]],
                     linenos: list[int]) -> DetectionBlock:
    """The checked rows of well-formed detection lines, or a ParseError
    naming the first line whose numbers do not convert or whose row is
    invalid."""
    n, width = len(numbers), len(numbers[0])
    try:
        values = np.fromiter(map(float, chain.from_iterable(numbers)), np.float64,
                             n * width).reshape(n, width)
    except ValueError:
        for k, fields_k in enumerate(numbers):
            try:
                list(map(float, fields_k))
            except ValueError as exc:
                if k:  # an invalid row before it comes first
                    _detection_block(path, heads[:k], numbers[:k], linenos[:k])
                raise ParseError(f"{path}:{linenos[k]}: {exc}") from exc
        raise
    ints = np.array(heads, dtype=np.int64)
    block = DetectionBlock(ints[:, 0], ints[:, 1], values[:, 0], values[:, 1:3],
                           values[:, 4:6], values[:, 3], values[:, 6:].reshape(n, -1, 2))
    bad = block.first_invalid()
    if bad is not None:
        raise ParseError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    return block


def write_detections(frames: Iterable[Union[DetectionBlock, Sequence[Detection]]],
                     out: Union[str, TextIO]) -> None:
    """Write per-frame detection rows, about ``FORMAT_BLOCK_ROWS`` rows per
    chunk of text, atomically to the path ``out``, or appended to the open
    text file ``out``."""
    _write_chunks(out, _detection_chunks(frames))


def _detection_chunks(frames: Iterable[Union[DetectionBlock, Sequence[Detection]]]
                      ) -> Iterator[str]:
    group: list[DetectionBlock] = []
    size = 0
    for rows in frames:
        block = DetectionBlock.of(rows)
        if len(block):
            group.append(block)
            size += len(block)
        if size >= FORMAT_BLOCK_ROWS:
            yield _format_rows(DetectionBlock.concat(group))
            group, size = [], 0
    if group:
        yield _format_rows(DetectionBlock.concat(group))


def _format_rows(block: DetectionBlock) -> str:
    """One line per row: integers as such, every other number with 4 decimals."""
    n, n_vertices = block.rings.shape[:2]
    line = "%d %d" + " %.4f" * (6 + 2 * n_vertices) + "\n"
    values = np.concatenate((block.score[:, None], block.center, block.depth[:, None],
                             block.offset, block.rings.reshape(n, -1)), axis=1)
    return "".join([line % (f, c, *v) for f, c, v in zip(
        block.frame.tolist(), block.class_id.tolist(), values.tolist())])


# runs a block of frames collects before its strings are encoded
ENCODE_BLOCK_RUNS = 1 << 12


def write_instance_records(
        instances: Union[InstanceBlock, Mapping[int, Sequence[InstanceRecord]]],
        width: int, height: int, out: Union[str, TextIO]) -> None:
    """Flatten each frame's instances to runs and write RLE lines,
    atomically to the path ``out``, or appended to the open text file
    ``out``.

    ``instances`` is an :class:`InstanceBlock`, or a mapping
    {frame: [(id, class id, polygon, depth)]} whose frames are made into
    blocks one at a time, so memory follows the frame.  The strings of a
    block of frames, about ``ENCODE_BLOCK_RUNS`` runs, are encoded in one
    :func:`polymot.rle.encode_strings` call and their lines written before
    the next block is flattened.
    """
    if isinstance(instances, InstanceBlock):
        frames = instances.by_frame().items()
    else:
        frames = ((f, InstanceBlock.of({f: instances[f]})) for f in sorted(instances))
    _write_chunks(out, _instance_chunks(frames, width, height))


def _instance_chunks(frames: Iterable[tuple[int, InstanceBlock]], width: int,
                     height: int) -> Iterator[str]:
    heads: list[str] = []
    starts, stops, counts = [], [], []
    for frame, rows in frames:
        classes = dict(zip(rows.id.tolist(), rows.class_id.tolist()))
        flat = flatten_frame(rows, width, height)
        frame_starts, frame_stops, bounds = flat.label_runs()
        starts.append(frame_starts)
        stops.append(frame_stops)
        counts.append(np.diff(bounds))
        heads.extend(f"{frame} {iid} {classes[iid]} {height} {width} " for iid in flat.ids)
        if sum(map(len, starts)) >= ENCODE_BLOCK_RUNS:
            yield _rle_lines(heads, starts, stops, counts, width * height)
            heads, starts, stops, counts = [], [], [], []
    if heads:
        yield _rle_lines(heads, starts, stops, counts, width * height)


def _rle_lines(heads: list[str], starts: list[np.ndarray], stops: list[np.ndarray],
               counts: list[np.ndarray], size: int) -> str:
    """The lines of a block of records: each head and its encoded runs."""
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    strings = encode_strings(np.concatenate(starts), np.concatenate(stops), bounds, size)
    return "".join(map("{}{}\n".format, heads, strings))


def parse_mask_records(path: str) -> tuple[dict[int, Frame], dict[int, int],
                                           tuple[int, int]]:
    """Read result-format lines: per-frame runs, id->class, (h, w).

    The line loop checks each line's fields, dimensions and ids; then every
    string is decoded in one :func:`polymot.rle.decode_strings` call.  The
    error reported is the first in file order: a malformed line, a bad
    string, or a record claiming a pixel that an earlier record of its
    frame holds.
    """
    # frame -> (ids, record indices), each in file order
    records: dict[int, tuple[list[int], list[int]]] = {}
    strings: list[str] = []
    lines: list[int] = []
    classes: dict[int, int] = {}
    dims: Optional[tuple[int, int]] = None
    error: Optional[ParseError] = None
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                parts = _strip_comment(raw).split()
                if not parts:
                    continue
                if len(parts) != 6:
                    raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
                try:
                    frame, tid, cls, h, w = (int(x) for x in parts[:5])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if dims is None:
                    if h < 1 or w < 1:
                        raise ParseError(f"{path}:{lineno}: dimensions {h}x{w} not positive")
                    if h * w > np.iinfo(np.intp).max:  # run indices are intp
                        raise ParseError(f"{path}:{lineno}: dimensions {h}x{w} too large")
                    dims = (h, w)
                elif dims != (h, w):
                    raise ParseError(f"{path}:{lineno}: dimensions {h}x{w} differ "
                                     f"from {dims[0]}x{dims[1]}")
                ids, recs = records.setdefault(frame, ([], []))
                if tid in ids:
                    raise ParseError(f"{path}:{lineno}: duplicate id {tid} in frame {frame}")
                ids.append(tid)
                recs.append(len(strings))
                strings.append(parts[5])
                lines.append(lineno)
                classes[tid] = cls
    except ParseError as exc:
        error = exc
    size = dims[0] * dims[1] if dims else 1
    try:
        runs = decode_strings(strings, size)
    except RunLengthError as exc:
        # a bad string comes before any malformed line: keep the records before it
        error = ParseError(f"{path}:{lines[exc.index]}: {exc}")
        runs = decode_strings(strings[:exc.index], size)
        records = {frame: (ids[:n], recs[:n]) for frame, (ids, recs) in records.items()
                   if (n := bisect_left(recs, exc.index))}
    frames = _frames(path, dims, records, lines, *runs)  # an earlier overlap comes first
    if error is not None:
        raise error
    return frames, classes, dims or (0, 0)


def _frames(path: str, dims: Optional[tuple[int, int]],
            records: dict[int, tuple[list[int], list[int]]], lines: list[int],
            starts: np.ndarray, stops: np.ndarray, bounds: np.ndarray) -> dict[int, Frame]:
    """The frames of the decoded records, or a ParseError naming the first
    line, in file order, whose record claims a pixel an earlier record of its
    frame holds.  Record i's runs are [bounds[i], bounds[i + 1])."""
    frames = {}
    overlaps = []
    bounds = bounds.tolist()
    for frame, (ids, recs) in records.items():
        runs = [(starts[bounds[r]:bounds[r + 1]], stops[bounds[r]:bounds[r + 1]])
                for r in recs]
        frames[frame] = Frame.from_instance_runs(dims, ids, runs)
        if not frames[frame].disjoint():
            overlaps.append(lines[recs[_first_overlap(runs, dims[0] * dims[1])]])
    if overlaps:
        raise ParseError(f"{path}:{min(overlaps)}: mask overlaps an earlier "
                         f"mask of the same frame")
    return frames


def _first_overlap(runs: Sequence[Runs], size: int) -> int:
    """Index of the first record that claims a pixel an earlier one holds."""
    claimed = np.zeros(size, dtype=bool)
    for k, (starts, stops) in enumerate(runs):
        pixels = run_pixels(starts, stops)
        if claimed[pixels].any():
            return k
        claimed[pixels] = True
    raise AssertionError("no record overlaps an earlier one")


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 (ascii) or P5 (binary) PGM image as a uint16 array.

    A ParseError naming the file rejects a bad header, dimensions that are
    not positive, a maxval outside 1..65535, missing samples (and in P2,
    extra ones) and a sample above maxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise ParseError(f"{path}: not a P2/P5 PGM file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"{path}: dimensions {width}x{height} not positive")
    if not 1 <= maxval <= 65535:
        raise ParseError(f"{path}: maxval {maxval} outside 1..65535")
    if tokens[0] == b"P2":
        try:
            values = np.array(data[pos:].split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: bad PGM samples: {exc}") from exc
        size = values.size
    else:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        size = min(max(0, len(data) - pos) // dtype.itemsize, width * height)
        if size == width * height:  # bytes past the samples are ignored
            values = np.frombuffer(data, dtype=dtype, count=size, offset=pos)
    if size != width * height:
        raise ParseError(f"{path}: expected {width * height} samples, got {size}")
    bad = np.flatnonzero((values < 0) | (values > maxval))
    if len(bad):
        raise ParseError(f"{path}: sample {int(values[bad[0]])} outside 0..{maxval}")
    return values.astype(np.uint16).reshape((height, width))


def write_pgm(values: np.ndarray, path: str) -> None:
    """Write a 2-D array as ascii PGM; floats in [0, 1] scale to 255."""
    arr = np.asarray(values)
    if arr.dtype == bool:
        arr = arr.astype(np.uint8) * 255
    elif np.issubdtype(arr.dtype, np.floating):
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    body = "\n".join(" ".join(str(v) for v in row) for row in arr)
    atomic_write_text(path, f"P2\n{arr.shape[1]} {arr.shape[0]}\n255\n{body}\n")


_REPORT_KEYS = ("tp", "fp", "fn", "idsw", "soft_tp", "gt_total",
                "smotsa", "motsa", "motsp", "modsa", "recall", "precision")
_PERCENT_KEYS = {"smotsa", "motsa", "motsp", "modsa", "recall", "precision"}


def format_report(report: MetricsReport) -> str:
    rows = []
    for key in _REPORT_KEYS:
        value = getattr(report, key)
        if key in _PERCENT_KEYS:
            rows.append((key.upper(), f"{value * 100.0:.2f}%"))
        elif key == "soft_tp":
            rows.append((key.upper(), f"{value:.2f}"))
        else:
            rows.append((key.upper(), str(value)))
    pad = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(pad)}  {v}" for k, v in rows) + "\n"


def format_report_kv(report: MetricsReport) -> str:
    lines = []
    for key in _REPORT_KEYS:
        value = getattr(report, key)
        if isinstance(value, float):
            lines.append(f"{key}={value:.6f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, path: str, kv_path: str) -> None:
    """The text report at ``path`` and its key=value form at ``kv_path``."""
    atomic_write_text(path, format_report(report))
    atomic_write_text(kv_path, format_report_kv(report))


def parse_report_kv(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key] = float(value)
    return out


@dataclass(frozen=True)
class ImageConfig:
    width: int = 256
    height: int = 160

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if value < 1:
                raise InvalidInputError(f"{name} must be at least 1 px, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "linear"
    n_objects: int = 2
    n_frames: int = 30
    width: int = 256
    height: int = 160
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InvalidInputError(
                f"kind must be one of {', '.join(SCENARIO_KINDS)}, got {self.kind!r}")
        ImageConfig(self.width, self.height)
        if self.n_objects < 1:
            raise InvalidInputError(f"n_objects must be at least 1, got {self.n_objects}")
        if self.n_frames < 2:
            raise InvalidInputError(f"n_frames must be at least 2, got {self.n_frames}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    tracker: TrackerConfig
    noise: NoiseParams
    scenario: Optional[ScenarioConfig]
    width: int
    height: int


def _coerce(value: str, target_type):
    if target_type is bool:
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    return target_type(value)


_SCALAR_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _fill_dataclass(cls, section, instance):
    """Override scalar dataclass fields from one config section; reject
    unknown keys, values that do not parse and values the class rejects,
    naming the section and the key."""
    known = {}
    for f in fields(cls):
        tname = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
        if tname in _SCALAR_TYPES:
            known[f.name] = _SCALAR_TYPES[tname]
    updates = {}
    for key, value in section.items():
        if key not in known:
            raise InvalidInputError(f"[{section.name}] unknown option {key!r}")
        try:
            updates[key] = _coerce(value, known[key])
        except ValueError as exc:
            raise InvalidInputError(f"[{section.name}] bad value for {key!r}: {exc}") from exc
    try:
        return replace(instance, **updates)
    except InvalidInputError as exc:
        raise InvalidInputError(f"[{section.name}] {exc}") from exc


def load_config(path: Optional[str]) -> RunConfig:
    """Load the INI run configuration; missing file or sections use defaults.

    Sections: [tracker], [ukf], [noise], [scenario], [image].  The image
    dimensions fall back to the scenario's when [image] is absent.  A key
    that is unknown, does not parse or is out of range is an
    InvalidInputError naming its section and key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise OSError(f"cannot read config file {path}")

    ukf_params = UkfParams()
    if parser.has_section("ukf"):
        ukf_params = _fill_dataclass(UkfParams, parser["ukf"], ukf_params)
    tracker = TrackerConfig(ukf=ukf_params)
    if parser.has_section("tracker"):
        tracker = _fill_dataclass(TrackerConfig, parser["tracker"], tracker)
    noise = NoiseParams()
    if parser.has_section("noise"):
        noise = _fill_dataclass(NoiseParams, parser["noise"], noise)
    scenario = None
    image = ImageConfig()
    if parser.has_section("scenario"):
        scenario = _fill_dataclass(ScenarioConfig, parser["scenario"], ScenarioConfig())
        image = ImageConfig(scenario.width, scenario.height)
    if parser.has_section("image"):
        image = _fill_dataclass(ImageConfig, parser["image"], image)
    return RunConfig(tracker=tracker, noise=noise, scenario=scenario,
                     width=image.width, height=image.height)
