"""Track lifecycle and greedy center association.

Detections travel as a :class:`DetectionBlock`, one struct of arrays whose
rows are detections in frame order: frame, class, score, center, offset,
depth, vertex rings, the predicted previous center and the ring area.  A
block's rows are checked in one vectorized pass (:func:`first_invalid`);
``Detection`` is the per-row record of the public API, which a block yields
by index and by iteration, and a list of them becomes a block in one call.

Each detection's offset points from its current center back toward the
object's previous-frame position; association compares that predicted
previous position against each live track's reference center, over whole
arrays.  Matched tracks stay active on raw detected centers; unmatched
tracks freeze and, when the filter is enabled, coast along their estimated
trajectory until re-associated or aged out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import ukf
from .errors import InvalidInputError
from .geometry import Point2, Polygon, polygon_areas

CENTER_TOLERANCE_PX = 2.0
CENTER_TOLERANCE_FRAC = 0.05


class TrackState(enum.Enum):
    ACTIVE = "active"
    FROZEN = "frozen"
    TERMINATED = "terminated"


def first_invalid(score: np.ndarray, center: np.ndarray, offset: np.ndarray,
                  depth: np.ndarray, rings: np.ndarray) -> Optional[tuple[int, str]]:
    """The first row that is not a valid detection, with its message, or None.

    Rows are (n,) scores and depths, (n, 2) centers and offsets and (n, V, 2)
    rings.  A row's first failing check names it, in this order: finite
    vertices, a score in [0, 1], a finite center, depth and offset, and a
    center within max(CENTER_TOLERANCE_PX, CENTER_TOLERANCE_FRAC x the
    ring's bounding-box diagonal) of the vertex mean.
    """
    if not len(score):
        return None
    with np.errstate(invalid="ignore", over="ignore"):
        bad_ring = ~np.isfinite(rings).all(axis=(1, 2))
        bad_score = ~((score >= 0.0) & (score <= 1.0))
        bad_field = ~(np.isfinite(center).all(axis=1) & np.isfinite(offset).all(axis=1)
                      & np.isfinite(depth))
        span = rings.max(axis=1) - rings.min(axis=1)
        tol = np.maximum(CENTER_TOLERANCE_PX,
                         CENTER_TOLERANCE_FRAC * np.hypot(span[:, 0], span[:, 1]))
        miss = rings.mean(axis=1) - center
        far = np.hypot(miss[:, 0], miss[:, 1]) > tol
    bad = np.flatnonzero(bad_ring | bad_score | bad_field | far)
    if not len(bad):
        return None
    i = int(bad[0])
    if bad_ring[i]:
        return i, "polygon vertices must be finite"
    if bad_score[i]:
        return i, f"score {float(score[i])} outside [0, 1]"
    cx, cy = center[i].tolist()
    if bad_field[i]:
        return i, (f"center {(cx, cy)}, depth {float(depth[i])} and offset "
                   f"{tuple(offset[i].tolist())} must be finite")
    return i, (f"center {Point2(cx, cy)} is {float(tol[i]):.2f}+ px away from "
               f"the polygon centroid")


@dataclass(frozen=True)
class Detection:
    """One detector output for a single frame: a row of a DetectionBlock."""

    frame: int
    class_id: int
    score: float
    center: Point2
    polygon: Polygon
    depth: float
    offset: tuple[float, float]  # points from frame t toward frame t-1

    def __post_init__(self):
        bad = first_invalid(np.array([self.score], dtype=np.float64),
                            np.array([self.center], dtype=np.float64),
                            np.array([self.offset], dtype=np.float64),
                            np.array([self.depth], dtype=np.float64),
                            self.polygon.vertices[None])
        if bad is not None:
            raise InvalidInputError(bad[1])

    def predicted_previous(self) -> Point2:
        return Point2(self.center[0] + self.offset[0], self.center[1] + self.offset[1])


# the per-row columns of a DetectionBlock, besides its rings
_COLUMNS = ("frame", "class_id", "score", "center", "offset", "depth", "prev", "area")


class DetectionBlock:
    """Detections as columns; row i is one detection, rows in frame order.

    ``frame``, ``class_id`` (n,) int64; ``score``, ``depth`` (n,) float64;
    ``center``, ``offset`` (n, 2); ``rings`` (n, V, 2); ``prev`` = center +
    offset, the predicted previous center; ``area`` the rings' shoelace
    areas.  The constructor does not check rows: callers that take them
    from outside run :meth:`first_invalid`.  ``block[i]`` is row i's
    :class:`Detection` and ``block[a:b]`` a block of rows a..b-1 sharing
    this one's arrays.  A block made by :meth:`of` from Detections keeps
    them: it yields them as its rows and stacks their rings on first use.
    """

    __slots__ = (*_COLUMNS, "_rings", "_records")

    def __init__(self, frame: np.ndarray, class_id: np.ndarray, score: np.ndarray,
                 center: np.ndarray, offset: np.ndarray, depth: np.ndarray,
                 rings: np.ndarray):
        self.frame, self.class_id, self.score = frame, class_id, score
        self.center, self.offset, self.depth = center, offset, depth
        with np.errstate(invalid="ignore", over="ignore"):  # rows not yet checked
            self.prev = center + offset
            self.area = polygon_areas(rings)
        self._rings = rings
        self._records: Optional[list[Detection]] = None

    @classmethod
    def of(cls, rows: Union["DetectionBlock", Sequence[Detection]]) -> "DetectionBlock":
        """``rows`` if it is a block, else the block of its Detections."""
        if isinstance(rows, DetectionBlock):
            return rows
        records = list(rows)
        n = len(records)
        block = object.__new__(cls)
        block.frame = np.fromiter([d.frame for d in records], np.int64, n)
        block.class_id = np.fromiter([d.class_id for d in records], np.int64, n)
        block.score = np.fromiter([d.score for d in records], np.float64, n)
        block.center = np.fromiter(chain.from_iterable([d.center for d in records]),
                                   np.float64, 2 * n).reshape(n, 2)
        block.offset = np.fromiter(chain.from_iterable([d.offset for d in records]),
                                   np.float64, 2 * n).reshape(n, 2)
        block.depth = np.fromiter([d.depth for d in records], np.float64, n)
        block.prev = block.center + block.offset
        block.area = np.fromiter([d.polygon.area for d in records], np.float64, n)
        block._rings = None
        block._records = records
        return block

    @classmethod
    def concat(cls, blocks: Sequence["DetectionBlock"]) -> "DetectionBlock":
        """The rows of ``blocks``, one after another."""
        if len(blocks) == 1:
            return blocks[0]
        block = object.__new__(cls)
        for name in _COLUMNS:
            setattr(block, name, np.concatenate([getattr(b, name) for b in blocks]))
        block._rings = np.concatenate([b.rings for b in blocks])
        block._records = None
        return block

    @property
    def rings(self) -> np.ndarray:
        if self._rings is None:
            try:
                self._rings = np.array([d.polygon.vertices for d in self._records],
                                       dtype=np.float64)
            except ValueError:
                raise InvalidInputError("detections of one block must share a "
                                        "vertex count") from None
        return self._rings

    def first_invalid(self) -> Optional[tuple[int, str]]:
        """The first invalid row and its message, or None (see :func:`first_invalid`)."""
        return first_invalid(self.score, self.center, self.offset, self.depth, self.rings)

    def take(self, rows: Union[slice, np.ndarray]) -> "DetectionBlock":
        """The block of the given rows (a slice or an index array), in that order."""
        block = object.__new__(DetectionBlock)
        for name in _COLUMNS:
            setattr(block, name, getattr(self, name)[rows])
        block._rings = None if self._rings is None else self._rings[rows]
        if self._records is None or isinstance(rows, slice):
            block._records = self._records and self._records[rows]
        else:
            block._records = [self._records[i] for i in rows.tolist()]
        return block

    def by_frame(self) -> dict[int, "DetectionBlock"]:
        """Each frame's rows, keyed by frame in row order."""
        if not len(self):
            return {}
        cuts = (np.flatnonzero(self.frame[1:] != self.frame[:-1]) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, len(self)]
        return {f: self.take(slice(a, b))
                for f, a, b in zip(self.frame[starts].tolist(), starts, stops)}

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, key: Union[int, slice]):
        if isinstance(key, slice):
            return self.take(key)
        return self.detections([key])[0]

    def detections(self, index: list[int]) -> list[Detection]:
        """The Detections of the given rows, in that order."""
        if self._records is not None:
            return [self._records[i] for i in index]
        out = []
        for f, c, s, (cx, cy), ring, a, z, off in zip(
                self.frame[index].tolist(), self.class_id[index].tolist(),
                self.score[index].tolist(), self.center[index].tolist(),
                self._rings[index], self.area[index].tolist(), self.depth[index].tolist(),
                self.offset[index].tolist()):
            d = object.__new__(Detection)
            d.__dict__.update(frame=f, class_id=c, score=s, center=Point2(cx, cy),
                              polygon=Polygon.trusted(ring, a), depth=z, offset=tuple(off))
            out.append(d)
        return out

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections(list(range(len(self)))))


HistoryEntry = tuple[int, Union[Detection, Point2]]


@dataclass
class Track:
    """Identity-carrying object state; history holds the matched detection
    per active frame and the held/predicted center per frozen frame.
    filter_mean (2, 3) and filter_cov (3, 3) are the per-axis belief of
    ``ukf``'s batched kernels; ``filter`` is its six-dimensional view."""

    id: int
    class_id: int
    state: TrackState
    ref_center: Point2
    polygon: Polygon
    filter_mean: np.ndarray
    filter_cov: np.ndarray
    age: int = 0  # consecutive unmatched frames while frozen
    history: list[HistoryEntry] = field(default_factory=list)

    @property
    def filter(self) -> ukf.FilterState:
        return ukf.FilterState.from_axes(self.filter_mean, self.filter_cov)


@dataclass(frozen=True)
class TrackerConfig:
    max_age: int = 32          # frozen frames a track survives unmatched
    match_kappa: float = 1.0   # gate = kappa * sqrt(polygon area)
    use_ukf: bool = True
    score_min: float = 0.3
    ukf: ukf.UkfParams = field(default_factory=ukf.UkfParams)

    def __post_init__(self):
        if self.max_age < 1:
            raise InvalidInputError(f"max_age must be at least 1, got {self.max_age}")
        if not 0.0 < self.match_kappa < math.inf:
            raise InvalidInputError(
                f"match_kappa must be positive and finite, got {self.match_kappa}")
        if not 0.0 <= self.score_min <= 1.0:
            raise InvalidInputError(f"score_min must lie in [0, 1], got {self.score_min}")


@dataclass(frozen=True)
class Association:
    """A greedy matching as index arrays: detection ``det[k]`` took the
    track at position ``trk[k]`` of the tracks in id order, whose ids are
    ``ids``; ``det`` ascends.  ``free_det`` and ``free_trk`` are the
    unmatched detections and track positions, ascending."""

    det: np.ndarray
    trk: np.ndarray
    ids: np.ndarray
    free_det: np.ndarray
    free_trk: np.ndarray

    @property
    def matches(self) -> list[tuple[int, int]]:
        """(detection index, track id) pairs, by detection index."""
        return list(zip(self.det.tolist(), self.ids[self.trk].tolist()))

    @property
    def unmatched_detections(self) -> list[int]:
        return self.free_det.tolist()

    @property
    def unmatched_tracks(self) -> list[int]:
        """Ids of the unmatched tracks, ascending."""
        return self.ids[self.free_trk].tolist()


_NO_ROWS = np.empty(0, dtype=np.intp)


def associate(detections: Union[DetectionBlock, Sequence[Detection]],
              tracks: Sequence[Track], match_kappa: float = 1.0) -> Association:
    """Greedy same-class matching of detections to live tracks.

    Detections are taken in descending score order (ties: lower index
    first); each picks the unmatched track closest to its predicted
    previous position (ties: lower track id).  A pair is accepted iff its
    distance is at most match_kappa * sqrt(detection polygon area).
    """
    rows = DetectionBlock.of(detections)
    n_det, n_trk = len(rows), len(tracks)
    if n_det and (rows.frame != rows.frame[0]).any():
        raise InvalidInputError("detections passed to associate span multiple frames")
    ids = np.fromiter([t.id for t in tracks], np.int64, n_trk)
    if (ids[1:] <= ids[:-1]).any():
        tracks = sorted(tracks, key=lambda t: t.id)
        ids = np.sort(ids)
    if not n_det or not n_trk:
        return Association(_NO_ROWS, _NO_ROWS, ids, np.arange(n_det), np.arange(n_trk))

    trk_pos = np.fromiter(chain.from_iterable([t.ref_center for t in tracks]),
                          np.float64, 2 * n_trk).reshape(n_trk, 2)
    trk_cls = np.fromiter([t.class_id for t in tracks], np.int64, n_trk)
    gates = match_kappa * np.sqrt(rows.area)

    dx = rows.prev[:, 0, None] - trk_pos[None, :, 0]
    dy = rows.prev[:, 1, None] - trk_pos[None, :, 1]
    cost = np.sqrt(dx * dx + dy * dy)
    cost[rows.class_id[:, None] != trk_cls[None, :]] = np.inf

    best = np.argmin(cost, axis=1)
    ok = cost[np.arange(n_det), best] <= gates
    taken = np.zeros(n_trk, dtype=bool)
    if not (np.bincount(best[ok], minlength=n_trk) > 1).any():
        # every gate-passing detection wants a different track, so greedy
        # order cannot change the outcome
        det, trk = np.flatnonzero(ok), best[ok]
        free_det = np.flatnonzero(~ok)
    else:
        trk = np.full(n_det, -1)  # each detection's track position, -1 for none
        for di in np.lexsort((np.arange(n_det), -rows.score)).tolist():
            ti = best[di]
            if taken[ti]:
                ti = int(np.argmin(cost[di]))  # taken columns already set to inf
            if cost[di, ti] <= gates[di]:
                taken[ti] = True
                cost[:, ti] = np.inf
                trk[di] = ti
        det, free_det = np.flatnonzero(trk >= 0), np.flatnonzero(trk < 0)
        trk = trk[det]
    taken[trk] = True
    return Association(det, trk, ids, free_det, np.flatnonzero(~taken))


class Tracker:
    """Per-sequence tracker state; frames must be submitted in order.

    Filter means and covariances of live tracks live in contiguous arrays
    (one row per track, in birth order) so a whole frame advances in a few
    batched kernels; each Track's ``filter_mean``/``filter_cov`` are views
    into those rows and stay current because row updates happen in place.
    """

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []      # live, in birth (id) order
        self.finished: list[Track] = []    # terminated
        self._next_id = 1
        self._last_frame: Optional[int] = None
        self._means = np.empty((8, 2, 3))
        self._covs = np.empty((8, 3, 3))

    def _reserve(self, n: int) -> None:
        cap = self._means.shape[0]
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        means = np.empty((cap, 2, 3))
        covs = np.empty((cap, 3, 3))
        k = len(self.tracks)
        means[:k] = self._means[:k]
        covs[:k] = self._covs[:k]
        self._means, self._covs = means, covs
        self._rebind_views()

    def _rebind_views(self, start: int = 0) -> None:
        for i in range(start, len(self.tracks)):
            t = self.tracks[i]
            t.filter_mean = self._means[i]
            t.filter_cov = self._covs[i]

    def _drop(self, dead: list[int]) -> None:
        """Move the terminated tracks at positions ``dead`` (ascending) to
        ``finished`` and close their gaps in the arena."""
        keep = np.ones(len(self.tracks), dtype=bool)
        keep[dead] = False
        for i in dead:
            t = self.tracks[i]
            # detach terminated tracks from the arena rows
            t.filter_mean = t.filter_mean.copy()
            t.filter_cov = t.filter_cov.copy()
            self.finished.append(t)
        k = len(self.tracks) - len(dead)
        self._means[:k] = self._means[:len(self.tracks)][keep]
        self._covs[:k] = self._covs[:len(self.tracks)][keep]
        self.tracks = [t for t, live in zip(self.tracks, keep.tolist()) if live]
        self._rebind_views(dead[0])

    def step(self, detections: Union[DetectionBlock, Sequence[Detection]],
             frame: int) -> list[Optional[int]]:
        """Advance one frame; returns a track id per input detection
        (None for detections below the score threshold)."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise InvalidInputError(
                f"frame {frame} submitted after frame {self._last_frame}")
        rows = DetectionBlock.of(detections)
        n = len(rows)
        wrong = np.flatnonzero(rows.frame != frame)
        if len(wrong):
            raise InvalidInputError(f"detection for frame {int(rows.frame[wrong[0]])} "
                                    f"submitted in frame {frame}")
        self._last_frame = frame
        cfg = self.config

        kept = np.flatnonzero(rows.score >= cfg.score_min)
        dets = rows if len(kept) == n else rows.take(kept)

        tracks = self.tracks  # in id order, so association positions are arena rows
        n_live = len(tracks)
        if cfg.use_ukf and n_live:
            means, covs = ukf.batch_predict(self._means[:n_live],
                                            self._covs[:n_live], cfg.ukf)
            self._means[:n_live] = means
            self._covs[:n_live] = covs

        assoc = associate(dets, tracks, cfg.match_kappa)
        matched, slots = assoc.det, assoc.trk
        ids = np.empty(len(dets), dtype=np.int64)  # track id per kept detection
        ids[matched] = assoc.ids[slots]

        if len(matched) and cfg.use_ukf:
            means, covs = ukf.batch_update(self._means[slots], self._covs[slots],
                                           dets.center[matched], cfg.ukf)
            self._means[slots] = means
            self._covs[slots] = covs

        for d, ti in zip(dets.detections(matched.tolist()), slots.tolist()):
            t = tracks[ti]
            t.state = TrackState.ACTIVE
            t.age = 0
            t.ref_center = d.center
            t.polygon = d.polygon
            t.history.append((frame, d))

        dead = []  # positions of the tracks that terminate
        if len(assoc.free_trk):
            coast = self._means[assoc.free_trk, :, 0].tolist() if cfg.use_ukf else None
            for k, ti in enumerate(assoc.free_trk.tolist()):
                t = tracks[ti]
                t.state = TrackState.FROZEN
                t.age += 1
                if t.age > cfg.max_age:
                    t.state = TrackState.TERMINATED
                    dead.append(ti)
                    continue
                if coast is not None:
                    t.ref_center = Point2(*coast[k])
                t.history.append((frame, t.ref_center))

        born = assoc.free_det
        if len(born):
            means, covs = ukf.batch_birth(dets.center[born], cfg.ukf)
            self._reserve(n_live + len(born))
            ids[born] = np.arange(self._next_id, self._next_id + len(born))
            for i, d in enumerate(dets.detections(born.tolist())):
                slot = len(tracks)
                self._means[slot] = means[i]
                self._covs[slot] = covs[i]
                tracks.append(Track(id=self._next_id, class_id=d.class_id,
                                    state=TrackState.ACTIVE, ref_center=d.center,
                                    polygon=d.polygon, filter_mean=self._means[slot],
                                    filter_cov=self._covs[slot], history=[(frame, d)]))
                self._next_id += 1

        if dead:
            self._drop(dead)

        if len(kept) == n:
            return ids.tolist()
        out: list[Optional[int]] = [None] * n
        for i, tid in zip(kept.tolist(), ids.tolist()):
            out[i] = tid
        return out

    def all_tracks(self) -> list[Track]:
        return sorted(self.finished + self.tracks, key=lambda t: t.id)


Rows = Union[DetectionBlock, Sequence[Detection]]


def run_sequence(frames: Union[Sequence[Rows], Mapping[int, Rows]],
                 config: Optional[TrackerConfig] = None) -> list[Track]:
    """Drive a tracker over ordered per-frame detection rows.

    ``frames`` is either a list whose item k holds frame k's rows, or a map
    {frame: rows} in ascending frame order, as ``io.parse_detections``
    returns it.  A frame missing from the map is stepped with no rows while
    a track is live; once none is, stepping one changes nothing, so the
    rest of the gap is skipped.

    Returns every track ever created, in id order; only the active
    (detection) entries of a track's history carry output masks.
    """
    items = frames.items() if isinstance(frames, Mapping) else enumerate(frames)
    tracker = Tracker(config)
    gap = None  # the first frame not yet stepped
    for frame, rows in items:
        while gap is not None and gap < frame and tracker.tracks:
            tracker.step([], gap)
            gap += 1
        tracker.step(rows, frame)
        gap = frame + 1
    return tracker.all_tracks()


def emitted_instances(tracks: Sequence[Track]) -> dict[int, list[tuple[int, int, Polygon, float]]]:
    """Per-frame (track id, class id, polygon, depth) for active frames only."""
    frames: dict[int, list[tuple[int, int, Polygon, float]]] = {}
    for t in tracks:
        for frame, entry in t.history:
            if isinstance(entry, Detection):
                frames.setdefault(frame, []).append(
                    (t.id, t.class_id, entry.polygon, entry.depth))
    return frames
