"""Mask-based tracking-and-segmentation evaluation.

A frame is one label image ``(label, ids)``: ``label`` is an int32 array of
shape (height, width) where 0 is background and label k >= 1 stands for
instance ``ids[k - 1]``; ``ids`` ascend.  Instances are painted
farthest-first (larger depth value = farther), so nearer ones overwrite
and the masks are pixel-disjoint by construction; a result file whose
records overlap is rejected when it is decoded.  Matching requires
IoU > 0.5, which with disjoint masks on both sides admits at most one
candidate per mask; identity switches follow the CLEAR convention (a
ground-truth track's matched hypothesis id differs from its most recent
previously matched id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .geometry import Polygon, fill_polygon

IOU_THRESHOLD = 0.5

# (instance id, polygon, depth); depth orders overlaps, smaller = nearer
InstanceTriple = tuple[int, Polygon, float]
# (label image, ascending instance ids); label k >= 1 stands for ids[k - 1]
Frame = tuple[np.ndarray, list[int]]


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
    """Depth-ordered label image of one frame's instances.

    Paints farthest first so nearer instances overwrite farther ones;
    instances left with no visible pixels are omitted.
    """
    items = list(instances)
    for iid, _, depth in items:
        if depth is None or not np.isfinite(depth):
            raise InvalidInputError(f"instance {iid} lacks a finite depth")
    if width < 1 or height < 1:
        raise InvalidInputError("frame must be at least 1x1")
    ids = sorted({iid for iid, _, _ in items})
    rank = {iid: k for k, iid in enumerate(ids, start=1)}
    label = np.zeros((height, width), dtype=np.int32)
    # farthest first; ties broken by id for determinism
    for iid, poly, _ in sorted(items, key=lambda it: (-it[2], it[0])):
        fill_polygon(label, poly, rank[iid])
    visible = np.bincount(label.ravel(), minlength=len(ids) + 1)[1:] > 0
    if not visible.all():
        relabel = np.zeros(len(ids) + 1, dtype=np.int32)
        relabel[1:][visible] = np.arange(1, np.count_nonzero(visible) + 1)
        label = relabel[label]
        ids = [iid for iid, seen in zip(ids, visible) if seen]
    return label, ids


def flatten(frames: Sequence[Iterable[InstanceTriple]],
            width: int, height: int) -> list[Frame]:
    return [flatten_frame(f, width, height) for f in frames]


def match_frame(gt: Frame, hyp: Frame) -> FrameMatch:
    """IoU > 0.5 matching of one frame from its joint label histogram.

    Pairs are ordered by descending IoU, ties by lower ids.
    """
    (g_label, g_ids), (h_label, h_ids) = gt, hyp
    if g_label.shape != h_label.shape:
        raise InvalidInputError(
            f"frame shape mismatch: {g_label.shape} gt vs {h_label.shape} hyp")
    n_g, n_h = len(g_ids), len(h_ids)
    joint = np.bincount((g_label * (n_h + 1) + h_label).ravel(order="K"),
                        minlength=(n_g + 1) * (n_h + 1)).reshape(n_g + 1, n_h + 1)
    inter = joint[1:, 1:]
    union = joint[1:, :].sum(axis=1)[:, None] + joint[:, 1:].sum(axis=0) - inter
    iou = inter / np.maximum(union, 1)
    pairs = sorted(((g_ids[g], h_ids[h], float(iou[g, h]))
                    for g, h in zip(*np.nonzero(iou > IOU_THRESHOLD))),
                   key=lambda p: (-p[2], p[0], p[1]))
    matched_g = {g for g, _, _ in pairs}
    matched_h = {h for _, h, _ in pairs}
    return FrameMatch(pairs=pairs,
                      fp_ids=[h for h in h_ids if h not in matched_h],
                      fn_ids=[g for g in g_ids if g not in matched_g])


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
    """Flatten both polygon sequences to label images, then evaluate."""
    return evaluate(flatten(gt_frames, width, height),
                    flatten(hyp_frames, width, height))
