"""Seeded synthetic scenes and a detector noise model.

Stands in for a real detector: scenarios describe objects with analytic
shapes moving at constant velocity or along an explicit per-frame path;
``generate`` renders their masks and derives ground-truth polygons;
``perturb`` turns ground truth into noisy detections (omissions, center
jitter, false positives, offset noise).  Everything is a pure function of
the scenario and noise seeds.  Both work on the whole scene or on a block
of frames (``perturb`` with its Generator carried from block to block),
and a scene walked block by block equals the whole-scene result, so
``polymot simulate`` holds one block of frames in memory at a time.

Scenario kinds cover the association failure modes a frozen track can hit:
an occluded object reappearing far from where it froze (optionally with an
intruder passing by the stale position), two objects crossing paths, and an
object leaving the frame shortly before another enters at the same border.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .geometry import DEFAULT_VERTEX_COUNT, Point2, Polygon, polygonize_windows
from .losses import offset_target
from .tracker import DetectionBlock

SCENARIO_KINDS = ("linear", "crossing", "occlusion", "boundary_exit_enter", "random_walk")
SHAPES = ("rectangle", "ellipse")


@dataclass(frozen=True)
class ObjectSpec:
    """One simulated object: analytic shape plus a trajectory.

    The object moves from ``start`` at constant ``velocity`` (px/frame),
    or through the explicit per-frame centers of ``path`` (used by the
    random-walk kind).  It exists from ``enter_frame`` to the end of the
    scene minus the ``hidden`` window (full occlusion), and only while its
    mask intersects the image.
    """

    shape: str
    size: tuple[float, float]
    start: tuple[float, float]
    velocity: tuple[float, float]
    class_id: int = 0
    enter_frame: int = 0
    hidden: Optional[tuple[int, int]] = None
    path: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvalidInputError(f"unknown shape {self.shape!r}")
        for name in ("size", "start", "velocity", "path"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise InvalidInputError(f"object {name} must be finite")
        if not (self.size[0] > 0 and self.size[1] > 0):
            raise InvalidInputError("object size must be positive")

    def center_at(self, frame: int) -> tuple[float, float]:
        if self.path is not None:
            return float(self.path[frame][0]), float(self.path[frame][1])
        t = float(frame - self.enter_frame)
        return self.start[0] + self.velocity[0] * t, self.start[1] + self.velocity[1] * t

    def present_at(self, frame: int) -> bool:
        """Whether the object exists on ``frame`` of the scene."""
        if frame < self.enter_frame:
            return False
        return self.hidden is None or not self.hidden[0] <= frame < self.hidden[1]


# an object drops out of the ground truth while less than this fraction of
# its analytic area is inside the image (annotators and detectors both
# ignore slivers)
MIN_VISIBILITY = 0.25


@dataclass(frozen=True)
class Scenario:
    """Concrete scene description: a width x height image, ``n_frames``
    frames and the objects in id order (object k has id k + 1)."""

    width: int
    height: int
    n_frames: int
    objects: tuple[ObjectSpec, ...]

    def __post_init__(self):
        if self.n_frames < 2:
            raise InvalidInputError("scenarios need at least 2 frames")
        for oid, obj in enumerate(self.objects, start=1):
            if obj.path is not None and np.shape(obj.path) != (self.n_frames, 2):
                raise InvalidInputError(
                    f"object {oid} path has shape {np.shape(obj.path)}, expected "
                    f"({self.n_frames}, 2): one center per frame of the scene")


@dataclass(frozen=True)
class NoiseParams:
    """Detector error model.

    ``center_jitter_sigma`` is expressed in heatmap cells and scaled by
    ``downsample`` to image pixels; the jitter translates the polygon with
    its center so detections stay self-consistent.  Offsets are computed
    from true centers ``prev_frame_lookback`` frames back and then
    perturbed in image pixels.
    """

    drop_prob: float = 0.4
    fp_prob: float = 0.1
    center_jitter_sigma: float = 1.0
    offset_noise_sigma: float = 0.5
    prev_frame_lookback: int = 1
    downsample: int = 4

    def __post_init__(self):
        for name in ("drop_prob", "fp_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise InvalidInputError(f"{name} must be a probability, got {value}")
        for name in ("center_jitter_sigma", "offset_noise_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidInputError(f"{name} must be non-negative and finite, got {value}")
        if not (1 <= self.prev_frame_lookback <= 3):
            raise InvalidInputError(
                f"prev_frame_lookback must be in 1..3, got {self.prev_frame_lookback}")
        if self.downsample < 1:
            raise InvalidInputError(f"downsample must be at least 1, got {self.downsample}")


@dataclass(frozen=True)
class GroundTruthObject:
    id: int
    class_id: int
    center: Point2
    polygon: Polygon
    depth: float


IDENTITY_NOISE = NoiseParams(drop_prob=0.0, fp_prob=0.0,
                             center_jitter_sigma=0.0, offset_noise_sigma=0.0)


def shape_mask(shape: str, cx: float, cy: float, w: float, h: float,
               width: int, height: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Analytic occupancy of a rectangle or ellipse, sampled at pixel centers.

    Returns ``(mask, (x0, y0))``: the occupancy over the shape's bounding
    box widened by 1 px and clipped to the image, and the window's top-left
    pixel.  Every covered pixel of the image lies in the window, which is
    empty when the shape is wholly outside.
    """
    x0 = min(max(int(math.floor(cx - w / 2.0)) - 1, 0), width)
    y0 = min(max(int(math.floor(cy - h / 2.0)) - 1, 0), height)
    x1 = min(max(int(math.ceil(cx + w / 2.0)) + 1, x0), width)
    y1 = min(max(int(math.ceil(cy + h / 2.0)) + 1, y0), height)
    px = np.arange(x0, x1) + 0.5
    py = np.arange(y0, y1) + 0.5
    if shape == "rectangle":
        mask = ((np.abs(px[None, :] - cx) <= w / 2.0)
                & (np.abs(py[:, None] - cy) <= h / 2.0))
    else:
        mask = ((px[None, :] - cx) ** 2 / (w / 2.0) ** 2
                + (py[:, None] - cy) ** 2 / (h / 2.0) ** 2) <= 1.0
    return mask, (x0, y0)


def _analytic_area(obj: ObjectSpec) -> float:
    w, h = obj.size
    return w * h if obj.shape == "rectangle" else math.pi * w * h / 4.0


GT_BLOCK = 64  # object windows per polygonize_windows call; bounds generate's memory


def generate(sc: Scenario, frames: Optional[range] = None
             ) -> list[list[GroundTruthObject]]:
    """Ground truth per frame of ``frames`` (default: the whole scene);
    objects below the visibility floor are absent.

    Depth encodes vertical position (lower in the image reads as nearer,
    i.e. a smaller depth value).  Centers are the polygon centroids, so the
    detector invariant holds by construction.  Object windows are
    polygonized ``GT_BLOCK`` at a time, in frame and object order.  A
    frame's objects do not depend on the other frames asked for, so a
    scene generated one block of frames at a time equals the whole-scene
    result.
    """
    out: list[list[GroundTruthObject]] = []
    block: list[tuple[list[GroundTruthObject], int, int, np.ndarray, tuple[int, int]]] = []
    for frame in range(sc.n_frames) if frames is None else frames:
        entries: list[GroundTruthObject] = []
        out.append(entries)
        for oid, obj in enumerate(sc.objects, start=1):
            if not obj.present_at(frame):
                continue
            cx, cy = obj.center_at(frame)
            mask, origin = shape_mask(obj.shape, cx, cy, obj.size[0], obj.size[1],
                                      sc.width, sc.height)
            visible = int(mask.sum())
            if visible == 0:
                if frame == obj.enter_frame:
                    raise InvalidInputError(
                        f"object {oid} starts outside the {sc.width}x{sc.height} image")
                continue
            if visible < MIN_VISIBILITY * _analytic_area(obj):
                continue
            block.append((entries, oid, obj.class_id, mask, origin))
            if len(block) == GT_BLOCK:
                _append_ground_truth(block, sc)
    _append_ground_truth(block, sc)
    return out


def _append_ground_truth(block, sc: Scenario) -> None:
    """Polygonize a block of object windows, append each object to its
    frame's entries, and empty the block."""
    rings = polygonize_windows([b[3] for b in block], [b[4] for b in block],
                               DEFAULT_VERTEX_COUNT)
    centers = rings.mean(axis=1).tolist()  # each ring's centroid
    for (entries, oid, class_id, _, _), poly, (cx, cy) in zip(
            block, Polygon.stack(rings), centers):
        entries.append(GroundTruthObject(
            id=oid, class_id=class_id, center=Point2(cx, cy), polygon=poly,
            depth=float(sc.height) - cy))
    block.clear()


def _ellipse_ring(cx: float, cy: float, a: float, b: float, n: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([cx + a * np.cos(theta), cy + b * np.sin(theta)], axis=1)


def perturb(sc: Scenario, gt_frames: Sequence[Sequence[GroundTruthObject]],
            noise: NoiseParams, seed: Union[int, np.random.Generator],
            first_frame: int = 0) -> list[DetectionBlock]:
    """Detector emulation: drop, jitter, and pollute the ground truth.

    Per object-frame: omitted with ``drop_prob``; survivors get an
    isotropic Gaussian center jitter (polygon translated along with it), a
    score from U(0.7, 1.0), and an offset from the object's analytic
    center (``ObjectSpec.center_at``) toward its analytic center
    ``prev_frame_lookback`` frames back (0 when the object is absent there
    or that frame precedes the scene) plus Gaussian noise.  Per frame, one
    false positive appears with ``fp_prob``: a small ellipse at a uniform
    location with score U(0.3, 0.6).

    ``gt_frames`` holds frames ``first_frame``, ``first_frame + 1``, ...
    of the scene.  ``seed`` is an int, or a Generator carried from the
    previous block of frames: its draws follow frame order, so a scene
    perturbed one block at a time with one Generator equals the
    whole-scene result.  The detections of all frames are one
    DetectionBlock; the result holds its rows of each frame of
    ``gt_frames``, in order.
    """
    rng = np.random.default_rng(seed)
    jitter_px = noise.center_jitter_sigma * noise.downsample
    lb = noise.prev_frame_lookback

    heads: list[tuple[int, int]] = []     # frame, class id
    values: list[tuple[float, ...]] = []  # score, center, depth, offset
    rings: list[np.ndarray] = []          # untranslated rings
    shifts: list[tuple[float, float]] = []
    starts = [0]
    for frame, entries in enumerate(gt_frames, start=first_frame):
        for gt in entries:
            if rng.random() < noise.drop_prob:
                continue
            jx, jy = rng.normal(0.0, jitter_px, 2) if jitter_px > 0 else (0.0, 0.0)
            obj = sc.objects[gt.id - 1]
            if frame >= lb and obj.present_at(frame - lb):
                off = offset_target(Point2(*obj.center_at(frame)),
                                    Point2(*obj.center_at(frame - lb)))
            else:
                off = (0.0, 0.0)
            if noise.offset_noise_sigma > 0:
                ox, oy = rng.normal(0.0, noise.offset_noise_sigma, 2)
                off = (off[0] + ox, off[1] + oy)
            score = float(rng.uniform(0.7, 1.0))
            heads.append((frame, gt.class_id))
            values.append((score, gt.center.x + jx, gt.center.y + jy, gt.depth, *off))
            rings.append(gt.polygon.vertices)
            shifts.append((jx, jy))
        if rng.random() < noise.fp_prob:
            fx = float(rng.uniform(12.0, sc.width - 12.0))
            fy = float(rng.uniform(12.0, sc.height - 12.0))
            a = float(rng.uniform(4.0, 12.0))
            b = float(rng.uniform(4.0, 12.0))
            score = float(rng.uniform(0.3, 0.6))
            off = (0.0, 0.0)
            if noise.offset_noise_sigma > 0:
                ox, oy = rng.normal(0.0, noise.offset_noise_sigma, 2)
                off = (ox, oy)
            heads.append((frame, 0))
            values.append((score, fx, fy, float(sc.height) - fy, *off))
            rings.append(_ellipse_ring(fx, fy, a, b, DEFAULT_VERTEX_COUNT))
            shifts.append((0.0, 0.0))
        starts.append(len(heads))

    n = len(heads)
    ints = np.array(heads, dtype=np.int64).reshape(n, 2)
    cols = np.array(values, dtype=np.float64).reshape(n, 6)
    stack = np.array(rings) if n else np.empty((0, DEFAULT_VERTEX_COUNT, 2))
    stack += np.array(shifts).reshape(n, 1, 2)
    block = DetectionBlock(ints[:, 0], ints[:, 1], cols[:, 0], cols[:, 1:3], cols[:, 4:6],
                           cols[:, 3], stack)
    bad = block.first_invalid()
    if bad is not None:
        raise InvalidInputError(bad[1])
    return [block[a:b] for a, b in zip(starts, starts[1:])]


def _lane_ys(n: int, height: int, rng: np.random.Generator) -> list[float]:
    step = height / (n + 1)
    return [step * (i + 1) + float(rng.uniform(-step * 0.15, step * 0.15))
            for i in range(n)]


def build_scenario(kind: str, n_objects: int, n_frames: int, width: int,
                   height: int, seed: int) -> Scenario:
    """Sample a concrete scenario of the requested kind.

    The factories guarantee the geometric preconditions each kind is meant
    to exercise (crossing time inside the sequence, occlusion displacement
    beyond the association gate, boundary handoff inside the image), so a
    seed sweep yields a valid test suite rather than occasional duds.
    """
    if kind not in SCENARIO_KINDS:
        raise InvalidInputError(f"unknown scenario kind {kind!r}")
    if n_objects < 1:
        raise InvalidInputError("need at least one object")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    builder = {
        "linear": _build_linear,
        "crossing": _build_crossing,
        "occlusion": _build_occlusion,
        "boundary_exit_enter": _build_boundary,
        "random_walk": _build_random_walk,
    }[kind]
    objects, frames = builder(n_objects, n_frames, width, height, rng)
    return Scenario(width=width, height=height, n_frames=frames, objects=tuple(objects))


def _build_linear(n_objects, n_frames, width, height, rng):
    objects = []
    for i, y in enumerate(_lane_ys(n_objects, height, rng)):
        w = float(rng.uniform(16.0, 30.0))
        h = float(rng.uniform(12.0, 22.0))
        if width * 0.3 < w / 2 + 4.0:
            raise InvalidInputError(
                f"image width {width} too small for a linear course: an object "
                f"{w:.0f} px wide must start in its first 30%")
        x0 = float(rng.uniform(w / 2 + 4.0, width * 0.3))
        vmax = (width - w / 2 - 4.0 - x0) / n_frames
        v = float(min(rng.uniform(1.0, 3.0), vmax))
        objects.append(ObjectSpec(
            shape=SHAPES[i % 2], size=(w, h), start=(x0, y), velocity=(v, 0.0)))
    return objects, n_frames


def _build_crossing(n_objects, n_frames, width, height, rng):
    n_pairs = max(1, n_objects // 2)
    t_cross = n_frames // 2
    objects = []
    for y in _lane_ys(n_pairs, height, rng):
        w = float(rng.uniform(16.0, 26.0))
        h = float(rng.uniform(12.0, 20.0))
        v = float(rng.uniform(1.5, 3.0))
        margin = w / 2 + 4.0
        xa_max = width - margin - 2.0 * v * t_cross - v * (n_frames - t_cross)
        xa = float(rng.uniform(margin, max(margin + 1.0, xa_max)))
        xb = xa + 2.0 * v * t_cross
        if xb + v * t_cross > width - margin:  # clamp so B stays inside
            v = (width - margin - xa) / (3.0 * t_cross)
            xb = xa + 2.0 * v * t_cross
        objects.append(ObjectSpec(shape="rectangle", size=(w, h),
                                  start=(xa, y), velocity=(v, 0.0)))
        objects.append(ObjectSpec(shape="ellipse", size=(w, h),
                                  start=(xb, y), velocity=(-v, 0.0)))
    return objects, n_frames


def _build_occlusion(n_objects, n_frames, width, height, rng):
    """A mover hidden mid-sequence; reappears beyond the association gate.

    The hidden gap is sized so the reappearance displacement is at least
    twice the gate, guaranteeing a stale (unpredicted) frozen track cannot
    re-associate.  With probability 1/2 an intruder enters near the frozen
    position while the mover is hidden, far enough from the mover's true
    trajectory that only the stale track can capture it.
    """
    w = float(rng.uniform(16.0, 22.0))
    h = float(rng.uniform(14.0, 18.0))
    gate = math.sqrt(math.pi * (w / 2.0) * (h / 2.0))  # ellipse area
    v = max(float(rng.uniform(2.5, 4.0)), 2.0 * gate / 15.0)
    gap = int(min(15, max(8, math.ceil(2.0 * gate / v))))
    t0 = 12
    frames = t0 + gap + 10
    y = height / 2.0 + float(rng.uniform(-height * 0.1, height * 0.1))
    x0 = w / 2.0 + 6.0
    if x0 + v * frames > width - w / 2.0 - 6.0:
        raise InvalidInputError(
            f"image width {width} too small for an occlusion course of "
            f"{v * frames:.0f} px")
    mover = ObjectSpec(shape="ellipse", size=(w, h), start=(x0, y),
                       velocity=(v, 0.0), hidden=(t0, t0 + gap))
    objects = [mover]

    if rng.random() < 0.5:
        bw = float(rng.uniform(8.0, 12.0))
        bh = float(rng.uniform(8.0, 12.0))
        gate_b = math.sqrt(bw * bh)
        entry_lag = int(math.ceil(2.2 * gate_b / v)) + 1
        if entry_lag <= gap - 2:
            freeze_x = x0 + v * (t0 - 1)
            ex = freeze_x + float(rng.uniform(-0.3, 0.3)) * gate_b
            ey = y + float(rng.uniform(-0.3, 0.3)) * gate_b
            vy = 0.8 if ey < height / 2.0 else -0.8
            objects.append(ObjectSpec(
                shape="rectangle", size=(bw, bh), start=(ex, ey),
                velocity=(0.0, vy), enter_frame=t0 + entry_lag))
    return objects, frames


def _build_boundary(n_objects, n_frames, width, height, rng):
    """One object drives out the right edge; another enters there shortly after.

    The leaver moves fast so the clipped-centroid phase is too short to
    teach the filter a spurious deceleration; a predicted track therefore
    keeps heading out of frame while a stale one lingers at the border.
    """
    w = float(rng.uniform(16.0, 24.0))
    h = float(rng.uniform(12.0, 20.0))
    v_out = float(rng.uniform(5.0, 7.0))
    v_in = float(rng.uniform(2.0, 3.5))
    y = height / 2.0 + float(rng.uniform(-height * 0.15, height * 0.15))
    exit_travel = int(math.ceil((w + 4.0) / v_out)) + 10
    x_a = width - v_out * exit_travel
    leaver = ObjectSpec(shape="rectangle", size=(w, h), start=(x_a, y),
                        velocity=(v_out, 0.0))
    lag = int(rng.integers(2, 7))
    gone_at = exit_travel + int(math.ceil((w / 2.0) / v_out)) + 1
    entry = gone_at + lag
    enterer = ObjectSpec(shape="ellipse", size=(w, h),
                         start=(width + w / 2.0 - 1.0, y + float(rng.uniform(-2.0, 2.0))),
                         velocity=(-v_in, 0.0), enter_frame=entry)
    frames = max(n_frames, entry + 12)
    return [leaver, enterer], frames


def _build_random_walk(n_objects, n_frames, width, height, rng):
    objects = []
    for i, y in enumerate(_lane_ys(n_objects, height, rng)):
        w = float(rng.uniform(14.0, 26.0))
        h = float(rng.uniform(12.0, 20.0))
        margin_x = w / 2.0 + 2.0
        margin_y = h / 2.0 + 2.0
        if width < 2.0 * margin_x:
            raise InvalidInputError(
                f"image width {width} too small for a random walk of an object "
                f"{w:.0f} px wide")
        pos = np.array([float(rng.uniform(margin_x, width - margin_x)), y])
        vel = rng.uniform(-2.0, 2.0, 2)
        path = np.empty((n_frames, 2))
        for t in range(n_frames):
            path[t] = pos
            vel = np.clip(vel + rng.normal(0.0, 0.6, 2), -3.0, 3.0)
            nxt = pos + vel
            if not (margin_x <= nxt[0] <= width - margin_x):
                vel[0] = -vel[0]
            if not (margin_y <= nxt[1] <= height - margin_y):
                vel[1] = -vel[1]
            pos = pos + vel
        objects.append(ObjectSpec(shape=SHAPES[i % 2], size=(w, h),
                                  start=tuple(path[0]), velocity=(0.0, 0.0),
                                  path=path))
    return objects, n_frames
