"""Track lifecycle and greedy center association.

Each detection carries an offset vector pointing from its current center
back toward the object's previous-frame position; association compares that
predicted previous position against each live track's reference center.
Matched tracks stay active on raw detected centers; unmatched tracks freeze
and, when the filter is enabled, coast along their estimated trajectory
until re-associated or aged out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import ukf
from .errors import InvalidInputError
from .geometry import Point2, Polygon

CENTER_TOLERANCE_PX = 2.0
CENTER_TOLERANCE_FRAC = 0.05


class TrackState(enum.Enum):
    ACTIVE = "active"
    FROZEN = "frozen"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class Detection:
    """One detector output for a single frame."""

    frame: int
    class_id: int
    score: float
    center: Point2
    polygon: Polygon
    depth: float
    offset: tuple[float, float]  # points from frame t toward frame t-1

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise InvalidInputError(f"score {self.score} outside [0, 1]")
        if not all(map(math.isfinite, (*self.center, self.depth, *self.offset))):
            raise InvalidInputError(
                f"center {tuple(self.center)}, depth {self.depth} and offset "
                f"{tuple(self.offset)} must be finite")
        c = self.polygon.vertices.mean(axis=0)
        x0, y0, x1, y1 = self.polygon.bbox()
        tol = max(CENTER_TOLERANCE_PX,
                  CENTER_TOLERANCE_FRAC * math.hypot(x1 - x0, y1 - y0))
        if math.hypot(c[0] - self.center[0], c[1] - self.center[1]) > tol:
            raise InvalidInputError(
                f"center {self.center} is {tol:.2f}+ px away from the polygon centroid")
        # association features, precomputed once so stepping stays cheap:
        # (predicted previous x/y, score, class, sqrt(area))
        object.__setattr__(self, "_assoc", (
            self.center[0] + self.offset[0], self.center[1] + self.offset[1],
            self.score, float(self.class_id), math.sqrt(self.polygon.area)))

    def predicted_previous(self) -> Point2:
        return Point2(self.center[0] + self.offset[0], self.center[1] + self.offset[1])


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
    depth: float
    filter_mean: np.ndarray
    filter_cov: np.ndarray
    age: int = 0  # consecutive unmatched frames while frozen
    history: list[HistoryEntry] = field(default_factory=list)

    @property
    def filter(self) -> ukf.FilterState:
        return ukf.FilterState.from_axes(self.filter_mean, self.filter_cov)

    @property
    def live(self) -> bool:
        return self.state is not TrackState.TERMINATED


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
    matches: list[tuple[int, int]]   # (detection index, track id)
    unmatched_detections: list[int]  # detection indices
    unmatched_tracks: list[int]      # track ids


def associate(detections: Sequence[Detection], tracks: Sequence[Track],
              match_kappa: float = 1.0) -> Association:
    """Greedy same-class matching of detections to live tracks.

    Detections are taken in descending score order (ties: lower index
    first); each picks the unmatched track closest to its predicted
    previous position (ties: lower track id).  A pair is accepted iff its
    distance is at most match_kappa * sqrt(detection polygon area).
    """
    if detections:
        frame = detections[0].frame
        for d in detections:
            if d.frame != frame:
                raise InvalidInputError("detections passed to associate span multiple frames")
    if not detections or not tracks:
        return Association([], list(range(len(detections))),
                           [t.id for t in tracks])

    ids = [t.id for t in tracks]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        tracks = sorted(tracks, key=lambda t: t.id)

    n_det, n_trk = len(detections), len(tracks)
    feats = np.array([d._assoc for d in detections])  # type: ignore[attr-defined]
    scores = feats[:, 2]
    gates = match_kappa * feats[:, 4]

    trk_pos = np.array([t.ref_center for t in tracks])
    trk_cls = np.fromiter((t.class_id for t in tracks), np.float64, n_trk)

    dx = feats[:, 0, None] - trk_pos[None, :, 0]
    dy = feats[:, 1, None] - trk_pos[None, :, 1]
    cost = np.sqrt(dx * dx + dy * dy)
    cost[feats[:, 3, None] != trk_cls[None, :]] = np.inf

    best = np.argmin(cost, axis=1)
    ok = cost[np.arange(n_det), best] <= gates
    contested = np.bincount(best[ok], minlength=n_trk) > 1
    if not contested.any():
        # every gate-passing detection wants a different track, so greedy
        # order cannot change the outcome
        picked = best[ok]
        matches = [(di, tracks[ti].id)
                   for di, ti in zip(np.flatnonzero(ok).tolist(), picked.tolist())]
        unmatched_dets = np.flatnonzero(~ok).tolist()
        taken = np.zeros(n_trk, dtype=bool)
        taken[picked] = True
    else:
        order = np.lexsort((np.arange(n_det), -scores))
        taken = np.zeros(n_trk, dtype=bool)
        matches = []
        matched = np.zeros(n_det, dtype=bool)
        for di in order:
            ti = best[di]
            if taken[ti]:
                ti = int(np.argmin(cost[di]))  # taken columns already set to inf
            if cost[di, ti] <= gates[di]:
                taken[ti] = True
                cost[:, ti] = np.inf
                matches.append((int(di), tracks[ti].id))
                matched[di] = True
        matches.sort()
        unmatched_dets = [int(di) for di in np.flatnonzero(~matched)]
    unmatched_tracks = [t.id for t, used in zip(tracks, taken) if not used]
    return Association(matches, unmatched_dets, unmatched_tracks)


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

    def _rebind_views(self) -> None:
        for i, t in enumerate(self.tracks):
            t.filter_mean = self._means[i]
            t.filter_cov = self._covs[i]

    def step(self, detections: Sequence[Detection], frame: int) -> list[Optional[int]]:
        """Advance one frame; returns a track id per input detection
        (None for detections below the score threshold)."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise InvalidInputError(
                f"frame {frame} submitted after frame {self._last_frame}")
        for d in detections:
            if d.frame != frame:
                raise InvalidInputError(
                    f"detection for frame {d.frame} submitted in frame {frame}")
        self._last_frame = frame
        cfg = self.config

        kept = [i for i, d in enumerate(detections) if d.score >= cfg.score_min]
        dets = [detections[i] for i in kept]

        n_live = len(self.tracks)
        if cfg.use_ukf and n_live:
            means, covs = ukf.batch_predict(self._means[:n_live],
                                            self._covs[:n_live], cfg.ukf)
            self._means[:n_live] = means
            self._covs[:n_live] = covs

        assoc = associate(dets, self.tracks, cfg.match_kappa)
        index_of = {t.id: i for i, t in enumerate(self.tracks)}

        if assoc.matches and cfg.use_ukf:
            rows = np.array([index_of[tid] for _, tid in assoc.matches])
            zs = np.array([dets[di].center for di, _ in assoc.matches])
            means, covs = ukf.batch_update(self._means[rows], self._covs[rows],
                                           zs, cfg.ukf)
            self._means[rows] = means
            self._covs[rows] = covs

        ids = dict(assoc.matches)
        for di, tid in assoc.matches:
            t = self.tracks[index_of[tid]]
            d = dets[di]
            t.state = TrackState.ACTIVE
            t.age = 0
            t.ref_center = d.center
            t.polygon = d.polygon
            t.depth = d.depth
            t.history.append((frame, d))

        any_terminated = False
        for tid in assoc.unmatched_tracks:
            t = self.tracks[index_of[tid]]
            t.state = TrackState.FROZEN
            t.age += 1
            if t.age > cfg.max_age:
                t.state = TrackState.TERMINATED
                any_terminated = True
                continue
            if cfg.use_ukf:
                px, py = self._means[index_of[tid], :, 0]
                t.ref_center = Point2(float(px), float(py))
            t.history.append((frame, t.ref_center))

        if assoc.unmatched_detections:
            centers = np.array([dets[di].center for di in assoc.unmatched_detections])
            means, covs = ukf.batch_birth(centers, cfg.ukf)
            self._reserve(len(self.tracks) + len(assoc.unmatched_detections))
            for i, di in enumerate(assoc.unmatched_detections):
                d = dets[di]
                slot = len(self.tracks)
                self._means[slot] = means[i]
                self._covs[slot] = covs[i]
                t = Track(id=self._next_id, class_id=d.class_id,
                          state=TrackState.ACTIVE, ref_center=d.center,
                          polygon=d.polygon, depth=d.depth,
                          filter_mean=self._means[slot], filter_cov=self._covs[slot],
                          history=[(frame, d)])
                self._next_id += 1
                ids[di] = t.id
                self.tracks.append(t)

        if any_terminated:
            survivors = []
            for t in self.tracks:
                if t.live:
                    survivors.append(t)
                else:
                    # detach terminated tracks from the arena rows
                    t.filter_mean = t.filter_mean.copy()
                    t.filter_cov = t.filter_cov.copy()
                    self.finished.append(t)
            keep = np.array([t.live for t in self.tracks], dtype=bool)
            k = int(keep.sum())
            self._means[:k] = self._means[:len(self.tracks)][keep]
            self._covs[:k] = self._covs[:len(self.tracks)][keep]
            self.tracks = survivors
            self._rebind_views()

        out: list[Optional[int]] = [None] * len(detections)
        for local_i, orig_i in enumerate(kept):
            out[orig_i] = ids.get(local_i)
        return out

    def all_tracks(self) -> list[Track]:
        return sorted(self.finished + self.tracks, key=lambda t: t.id)


def run_sequence(frames: Sequence[Sequence[Detection]],
                 config: Optional[TrackerConfig] = None) -> list[Track]:
    """Drive a tracker over ordered per-frame detection lists.

    Returns every track ever created, in id order; only the active
    (detection) entries of a track's history carry output masks.
    """
    tracker = Tracker(config)
    for frame, dets in enumerate(frames):
        tracker.step(dets, frame)
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
