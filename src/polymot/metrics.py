"""Mask-based tracking-and-segmentation evaluation.

A frame is its column-major runs, a :class:`Frame`: pixel (x, y) of an
h x w frame has index x * h + y, and each run [start, stop) of indices
carries a label k >= 1 that stands for instance ``ids[k - 1]``; ids
ascend.  Runs are sorted, disjoint and maximal per label (two runs of one
label never touch), so a frame costs its instances' outlines, not its
pixels.  Instances are flattened farthest-first (larger depth value =
farther), so nearer ones overwrite and the masks are pixel-disjoint by
construction; a result file whose records overlap is rejected when it is
read.  Matching requires IoU > 0.5, which with disjoint masks on both
sides admits at most one candidate per mask; identity switches follow the
CLEAR convention (a ground-truth track's matched hypothesis id differs
from its most recent previously matched id).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError
from .geometry import Polygon, run_pixels, scanline_spans

IOU_THRESHOLD = 0.5

# (instance id, polygon, depth); depth orders overlaps, smaller = nearer
InstanceTriple = tuple[int, Polygon, float]
# (starts, stops) of one instance's runs, in pixel order
Runs = tuple[np.ndarray, np.ndarray]


def _read_runs(values: np.ndarray, pixels=None) -> tuple[np.ndarray, ...]:
    """(starts, stops, labels) of the nonzero runs of values read at pixels.

    pixels ascend (default: every pixel, in order); a run ends where the
    value changes or the next pixel read is not the next index.
    """
    if values.size == 0:
        none = np.zeros(0, np.intp)
        return none, none, none
    change = values[1:] != values[:-1]
    if pixels is not None:
        change |= pixels[1:] != pixels[:-1] + 1
    bounds = np.flatnonzero(change) + 1
    first = np.concatenate(([0], bounds))
    last = np.concatenate((bounds, [values.size]))
    labels = values[first]
    keep = labels != 0
    first, last, labels = first[keep], last[keep], labels[keep].astype(np.intp)
    if pixels is None:
        return first, last, labels
    return pixels[first], pixels[last - 1] + 1, labels


class Frame(NamedTuple):
    """One frame's instance masks as column-major runs (see the module doc)."""

    shape: tuple[int, int]  # (height, width)
    starts: np.ndarray      # first pixel index of each run
    stops: np.ndarray       # one past its last pixel index
    labels: np.ndarray      # label k >= 1 of each run: instance ids[k - 1]
    ids: list[int]          # ascending

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "Frame":
        none = np.zeros(0, np.intp)
        return cls(tuple(shape), none, none, none, [])

    @classmethod
    def from_label(cls, label: np.ndarray, ids: Sequence[int]) -> "Frame":
        """Runs of a label image (0 = background, k = ids[k - 1]), all columns read."""
        return cls(label.shape, *_read_runs(label.ravel(order="F")), list(ids))

    @classmethod
    def from_instance_runs(cls, shape: tuple[int, int], ids: Sequence[int],
                           runs: Sequence[Runs]) -> "Frame":
        """Frame of instances given as runs per id, ids in any order.

        The instances must not overlap; :meth:`disjoint` tells.
        """
        if not ids:
            return cls.empty(shape)
        ranks = np.argsort(np.argsort(ids)) + 1
        starts = np.concatenate([s for s, _ in runs])
        order = np.argsort(starts, kind="stable")
        stops = np.concatenate([e for _, e in runs])
        labels = np.repeat(ranks, [len(s) for s, _ in runs])
        return cls(tuple(shape), starts[order], stops[order], labels[order],
                   sorted(ids))

    def disjoint(self) -> bool:
        """Whether no pixel belongs to two runs."""
        return not (self.starts[1:] < self.stops[:-1]).any()

    def label_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, stops, bounds): the runs grouped by label, label k's at
        [bounds[k - 1], bounds[k]), each group in pixel order."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(1, len(self.ids) + 2))
        return self.starts[order], self.stops[order], bounds

    def instance_runs(self) -> list[Runs]:
        """The runs of each label 1..len(ids), each in pixel order."""
        starts, stops, bounds = self.label_runs()
        return [(starts[lo:hi], stops[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def window(self, k: int) -> tuple[np.ndarray, tuple[int, int]]:
        """Mask of label k over its bounding window, and the window's top-left
        pixel (x0, y0) as ``polygonize`` takes it; empty for an empty label."""
        of_k = self.labels == k
        xs, ys = np.divmod(run_pixels(self.starts[of_k], self.stops[of_k]),
                           self.shape[0])
        if xs.size == 0:
            return np.zeros((0, 0), bool), (0, 0)
        x0, y0 = int(xs.min()), int(ys.min())
        mask = np.zeros((int(ys.max()) + 1 - y0, int(xs.max()) + 1 - x0), bool)
        mask[ys - y0, xs - x0] = True
        return mask, (x0, y0)


@dataclass(frozen=True)
class FrameMatch:
    pairs: list[tuple[int, int, float]]  # (gt id, hyp id, iou), iou > 0.5
    fp_ids: list[int]
    fn_ids: list[int]


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated counts and the scores derived from them (fractions)."""

    tp: int
    fp: int
    fn: int
    idsw: int
    soft_tp: float
    gt_total: int
    smotsa: float
    motsa: float
    motsp: float
    modsa: float
    recall: float
    precision: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, idsw: int,
                    soft_tp: float) -> "MetricsReport":
        g = tp + fn
        return cls(
            tp=tp, fp=fp, fn=fn, idsw=idsw, soft_tp=soft_tp, gt_total=g,
            smotsa=(soft_tp - fp - idsw) / g if g else 0.0,
            motsa=(tp - fp - idsw) / g if g else 0.0,
            motsp=soft_tp / tp if tp else 0.0,
            modsa=(tp - fp) / g if g else 0.0,
            recall=tp / (tp + fn) if tp + fn else 0.0,
            precision=tp / (tp + fp) if tp + fp else 0.0,
        )


def flatten_frame(instances: Iterable[InstanceTriple],
                  width: int, height: int) -> Frame:
    """Depth-ordered runs of one frame's instances.

    Every polygon's inside spans come from one :func:`scanline_spans` pass.
    They are painted farthest first, one assignment per polygon, into a
    column-major scratch label, so nearer instances overwrite farther ones;
    then only the painted pixels are read back, in index order.  Instances
    left with no visible pixels are omitted.
    """
    items = list(instances)
    for iid, _, depth in items:
        if depth is None or not np.isfinite(depth):
            raise InvalidInputError(f"instance {iid} lacks a finite depth")
    if width < 1 or height < 1:
        raise InvalidInputError("frame must be at least 1x1")
    ids = sorted({iid for iid, _, _ in items})
    if len(ids) < len(items):
        dup = next(iid for iid, n in Counter(it[0] for it in items).items() if n > 1)
        raise InvalidInputError(f"duplicate id {dup}")
    rank = {iid: k for k, iid in enumerate(ids, start=1)}
    # farthest first; ties broken by id for determinism
    items.sort(key=lambda it: (-it[2], it[0]))
    ring, rows, x0, x1 = scanline_spans([poly.vertices for _, poly, _ in items],
                                        width, height)
    if ring.size == 0:
        return Frame.empty((height, width))
    # column-major, so sorted pixel indices read the frame's runs in order
    flat = np.zeros(height * width, dtype=np.int32)
    lengths = x1 - x0
    pixels = run_pixels(x0, x1) * height + np.repeat(rows, lengths)
    bounds = np.concatenate(([0], np.cumsum(lengths)))[
        np.searchsorted(ring, np.arange(len(items) + 1))].tolist()
    for (iid, _, _), lo, hi in zip(items, bounds[:-1], bounds[1:]):
        if hi > lo:
            flat[pixels[lo:hi]] = rank[iid]
    # the painted pixels in column-major order, each once
    pixels.sort()
    pixels = pixels[np.diff(pixels, prepend=-1) != 0]
    starts, stops, labels = _read_runs(flat[pixels], pixels)
    visible = np.zeros(len(ids) + 1, dtype=bool)
    visible[labels] = True
    if not visible[1:].all():
        labels = np.cumsum(visible)[labels]
        ids = [iid for iid, seen in zip(ids, visible[1:]) if seen]
    return Frame((height, width), starts, stops, labels, ids)


def flatten(frames: Sequence[Iterable[InstanceTriple]],
            width: int, height: int) -> list[Frame]:
    return [flatten_frame(f, width, height) for f in frames]


def match_frame(gt: Frame, hyp: Frame) -> FrameMatch:
    """IoU > 0.5 matching of one frame by joining the two sides' runs.

    Pairs are ordered by descending IoU, ties by lower ids.
    """
    if gt.shape != hyp.shape:
        raise InvalidInputError(
            f"frame shape mismatch: {gt.shape} gt vs {hyp.shape} hyp")
    n_g, n_h = len(gt.ids), len(hyp.ids)
    # hyp runs [lo, hi) overlap each gt run: both sides are sorted and disjoint
    lo = np.searchsorted(hyp.stops, gt.starts, side="right")
    hi = np.searchsorted(hyp.starts, gt.stops, side="left")
    g_run = np.repeat(np.arange(len(lo)), hi - lo)
    h_run = run_pixels(lo, hi)
    shared = (np.minimum(gt.stops[g_run], hyp.stops[h_run])
              - np.maximum(gt.starts[g_run], hyp.starts[h_run]))
    inter = np.bincount((gt.labels[g_run] - 1) * n_h + (hyp.labels[h_run] - 1),
                        weights=shared, minlength=n_g * n_h).reshape(n_g, n_h)
    g_area = np.bincount(gt.labels, weights=gt.stops - gt.starts, minlength=n_g + 1)
    h_area = np.bincount(hyp.labels, weights=hyp.stops - hyp.starts, minlength=n_h + 1)
    union = g_area[1:, None] + h_area[1:] - inter
    iou = inter / np.maximum(union, 1)
    pairs = sorted(((gt.ids[g], hyp.ids[h], float(iou[g, h]))
                    for g, h in zip(*np.nonzero(iou > IOU_THRESHOLD))),
                   key=lambda p: (-p[2], p[0], p[1]))
    matched_g = {g for g, _, _ in pairs}
    matched_h = {h for _, h, _ in pairs}
    return FrameMatch(pairs=pairs,
                      fp_ids=[h for h in hyp.ids if h not in matched_h],
                      fn_ids=[g for g in gt.ids if g not in matched_g])


def evaluate(gt_frames: Sequence[Frame],
             hyp_frames: Sequence[Frame]) -> MetricsReport:
    """Aggregate frame matches over an aligned pair of frame sequences."""
    if len(gt_frames) != len(hyp_frames):
        raise InvalidInputError(
            f"frame count mismatch: {len(gt_frames)} gt vs {len(hyp_frames)} hyp")
    tp = fp = fn = idsw = 0
    soft_tp = 0.0
    last_match: dict[int, int] = {}
    for gt, hyp in zip(gt_frames, hyp_frames):
        fm = match_frame(gt, hyp)
        tp += len(fm.pairs)
        fp += len(fm.fp_ids)
        fn += len(fm.fn_ids)
        soft_tp += sum(iou for _, _, iou in fm.pairs)
        for gid, hid, _ in fm.pairs:
            prev = last_match.get(gid)
            if prev is not None and prev != hid:
                idsw += 1
            last_match[gid] = hid
    return MetricsReport.from_counts(tp, fp, fn, idsw, soft_tp)


def evaluate_polygons(gt_frames: Sequence[Iterable[InstanceTriple]],
                      hyp_frames: Sequence[Iterable[InstanceTriple]],
                      width: int, height: int) -> MetricsReport:
    """Flatten both polygon sequences to run frames, then evaluate."""
    return evaluate(flatten(gt_frames, width, height),
                    flatten(hyp_frames, width, height))
