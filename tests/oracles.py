"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles with a
different structure than the library code: plain loops instead of
vectorized kernels, textbook formulas instead of batched linear algebra.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from polymot.errors import InvalidInputError, ParseError
from polymot.geometry import DEFAULT_VERTEX_COUNT, Point2, Polygon
from polymot.losses import offset_target
from polymot.simulator import (MIN_VISIBILITY, SHAPES, GroundTruthObject, NoiseParams,
                               ObjectSpec, Scenario, shape_mask)
from polymot.tracker import CENTER_TOLERANCE_FRAC, CENTER_TOLERANCE_PX, Detection


def point_in_polygon(px: float, py: float, vertices: np.ndarray) -> bool:
    """Even-odd rule: count edge crossings strictly right of the point."""
    n = len(vertices)
    crossings = 0
    for k in range(n):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % n]
        if (y1 > py) != (y2 > py):
            cx = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if cx > px:
                crossings += 1
    return crossings % 2 == 1


def rasterize_by_ray_cast(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    """Brute-force: test every pixel center with point_in_polygon."""
    mask = np.zeros((height, width), dtype=bool)
    for j in range(height):
        for i in range(width):
            mask[j, i] = point_in_polygon(i + 0.5, j + 0.5, vertices)
    return mask


REFERENCE_RAY_STEP = 0.5


def reference_polygonize(mask: np.ndarray, n_vertices: int,
                         origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Full-length ray march: every ray samples every step up to the longest
    ray of its mask, then keeps its first sample whose pixel is set.

    Returns the (n_vertices, 2) ring; the fast path marches in chunks and
    stops each ray early, and must give exactly these floats.
    """
    mask = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(mask)
    h, w = mask.shape
    ox, oy = origin
    # Occupied cells span [x0, x1 + 1) x [y0, y1 + 1) in continuous coords.
    bx0, by0 = float(xs.min() + ox), float(ys.min() + oy)
    bx1, by1 = float(xs.max() + 1 + ox), float(ys.max() + 1 + oy)
    bw, bh = bx1 - bx0, by1 - by0
    center = np.array([bx0 + bw / 2.0, by0 + bh / 2.0])

    perimeter = 2.0 * (bw + bh)
    s = np.arange(n_vertices) * (perimeter / n_vertices)
    # clockwise from the top-left corner: top, right, bottom, else left edge
    top, right, bottom = s < bw, s < bw + bh, s < 2 * bw + bh
    x = np.where(top, bx0 + s, np.where(right, bx1, np.where(bottom, bx1 - (s - bw - bh), bx0)))
    y = np.where(top, by0, np.where(right, by0 + (s - bw),
                                    np.where(bottom, by1, by1 - (s - 2 * bw - bh))))
    origins = np.stack([x, y], axis=1)

    deltas = center - origins
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    n_steps = int(np.ceil(lengths.max() / REFERENCE_RAY_STEP)) + 1
    t = np.arange(n_steps) * REFERENCE_RAY_STEP
    # Clamp each ray's samples at its own length: past-the-end samples sit
    # exactly on the box center, matching the miss fallback.
    tc = np.minimum(t[None, :], lengths[:, None])
    safe_len = np.where(lengths > 0, lengths, 1.0)
    pts = origins[:, None, :] + (tc / safe_len[:, None])[:, :, None] * deltas[:, None, :]

    # samples are placed in frame coordinates; only the lookup is local
    ix = np.floor(pts[..., 0]).astype(np.int64) - ox
    iy = np.floor(pts[..., 1]).astype(np.int64) - oy
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    hit = np.zeros_like(inside)
    hit[inside] = mask[iy[inside], ix[inside]]

    first = np.argmax(hit, axis=1)
    any_hit = hit.any(axis=1)
    return np.where(any_hit[:, None], pts[np.arange(n_vertices), first], center[None, :])


class LinearKalman:
    """Plain linear Kalman filter over the same six-dimensional state."""

    def __init__(self, cx, cy, q_accel=1.0, r_pos=1.0, p_vel0=100.0, p_acc0=10.0):
        self.x = np.array([cx, 0.0, 0.0, cy, 0.0, 0.0])
        self.P = np.diag([r_pos, p_vel0, p_acc0, r_pos, p_vel0, p_acc0]).astype(float)
        block = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        self.F = np.zeros((6, 6))
        self.F[:3, :3] = block
        self.F[3:, 3:] = block
        g = np.array([0.5, 1.0, 1.0])
        qb = q_accel * np.outer(g, g)
        self.Q = np.zeros((6, 6))
        self.Q[:3, :3] = qb
        self.Q[3:, 3:] = qb
        self.H = np.zeros((2, 6))
        self.H[0, 0] = 1.0
        self.H[1, 3] = 1.0
        self.R = r_pos * np.eye(2)

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q
        self.P = 0.5 * (self.P + self.P.T)

    def update(self, zx, zy):
        z = np.array([zx, zy])
        S = self.H @ self.P @ self.H.T + self.R
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.x = self.x + K @ (z - self.H @ self.x)
        self.P = self.P - K @ S @ K.T
        self.P = 0.5 * (self.P + self.P.T)


def reference_rle_string(mask: np.ndarray) -> str:
    """Column-major run-length string built with pure-python loops."""
    h, w = mask.shape
    flat = []
    for x in range(w):
        for y in range(h):
            flat.append(bool(mask[y, x]))
    counts = []
    current, run = False, 0
    for bit in flat:
        if bit == current:
            run += 1
        else:
            counts.append(run)
            current = not current
            run = 1
    counts.append(run)
    chars = []
    for i, count in enumerate(counts):
        value = count if i <= 2 else count - counts[i - 2]
        while True:
            group = value & 0x1F
            value >>= 5
            sign_bit = bool(group & 0x10)
            done = (value == 0 and not sign_bit) or (value == -1 and sign_bit)
            chars.append(chr(48 + (group if done else group | 0x20)))
            if done:
                break
    return "".join(chars)


def reference_counts_string(counts) -> str:
    """The run-length string of a list of counts, zero background pixels
    first, built with pure-python loops (any counts, zero-length or huge)."""
    chars = []
    for i, count in enumerate(counts):
        value = count if i <= 2 else count - counts[i - 2]
        while True:
            group = value & 0x1F
            value >>= 5
            sign_bit = bool(group & 0x10)
            done = (value == 0 and not sign_bit) or (value == -1 and sign_bit)
            chars.append(chr(48 + (group if done else group | 0x20)))
            if done:
                break
    return "".join(chars)


def reference_runs(counts) -> list[tuple[int, int]]:
    """The maximal runs [start, stop) of set pixels that a list of counts
    describes: empty runs dropped, runs that touch joined."""
    runs = []
    pos = 0
    for i, count in enumerate(counts):
        if i % 2 == 1 and count > 0:
            if runs and runs[-1][1] == pos:
                runs[-1] = (runs[-1][0], pos + count)
            else:
                runs.append((pos, pos + count))
        pos += count
    return runs


def count_tracking_events(gt_frames, hyp_frames):
    """Exhaustive per-frame event counter over dicts of id -> mask.

    Matches every (gt, hyp) pair with IoU strictly above 0.5 (with disjoint
    masks per side that matching is unique), then walks frames counting
    TP/FP/FN, soft TP, and id switches against each ground-truth track's
    previous assignment.
    """
    tp = fp = fn = 0
    idsw = 0
    soft = 0.0
    previous = {}
    for gt, hyp in zip(gt_frames, hyp_frames):
        pairs = []
        for gid, gm in gt.items():
            for hid, hm in hyp.items():
                inter = int(np.logical_and(gm, hm).sum())
                union = int(np.logical_or(gm, hm).sum())
                if union and inter / union > 0.5:
                    pairs.append((gid, hid, inter / union))
        matched_g = {g for g, _, _ in pairs}
        matched_h = {h for _, h, _ in pairs}
        assert len(matched_g) == len(pairs) and len(matched_h) == len(pairs), \
            "disjoint masks admit at most one >0.5 candidate per instance"
        tp += len(pairs)
        fp += len(hyp) - len(matched_h)
        fn += len(gt) - len(matched_g)
        soft += sum(iou for _, _, iou in pairs)
        for gid, hid, _ in pairs:
            if gid in previous and previous[gid] != hid:
                idsw += 1
            previous[gid] = hid
    return {"tp": tp, "fp": fp, "fn": fn, "idsw": idsw, "soft_tp": soft}


def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of a scalar function of an array by central differences."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return grad


def reference_ellipse_ring(cx: float, cy: float, a: float, b: float, n: int) -> Polygon:
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return Polygon(np.stack([cx + a * np.cos(theta), cy + b * np.sin(theta)], axis=1))


def reference_generate(sc: Scenario, frames: Optional[range] = None
                       ) -> list[list[tuple[int, int, np.ndarray, float, np.ndarray]]]:
    """Ground truth one object-frame at a time: the per-object form of
    :func:`polymot.simulator.generate`, which must equal it exactly.

    Per frame, the (id, class id, center, depth, ring) of each object
    present there, in id order: its ``shape_mask`` window polygonized by
    :func:`reference_polygonize`, kept while at least ``MIN_VISIBILITY`` of
    its analytic area is inside the image.  An object with no pixel in the
    image on the frame it enters is an error.
    """
    out = []
    for frame in range(sc.n_frames) if frames is None else frames:
        rows = []
        for oid, obj in enumerate(sc.objects, start=1):
            if not obj.present_at(frame):
                continue
            cx, cy = obj.center_at(frame)
            w, h = obj.size
            mask, origin = shape_mask(obj.shape, cx, cy, w, h, sc.width, sc.height)
            visible = int(mask.sum())
            if visible == 0:
                if frame == obj.enter_frame:
                    raise InvalidInputError(
                        f"object {oid} starts outside the {sc.width}x{sc.height} image")
                continue
            analytic = w * h if obj.shape == "rectangle" else math.pi * w * h / 4.0
            if visible < MIN_VISIBILITY * analytic:
                continue
            ring = reference_polygonize(mask, DEFAULT_VERTEX_COUNT, origin)
            center = ring.mean(axis=0)
            rows.append((oid, obj.class_id, center, float(sc.height) - center[1], ring))
        out.append(rows)
    return out


def reference_random_walk(n_objects, n_frames, width, height, rng):
    """Random-walk objects drawn one step at a time: per frame, a Gaussian
    kick to each velocity axis, clipped to +-3 px/frame, and a bounce off
    each margin the next position would leave."""
    step = height / (n_objects + 1)
    lanes = [step * (i + 1) + float(rng.uniform(-step * 0.15, step * 0.15))
             for i in range(n_objects)]
    objects = []
    for i, y in enumerate(lanes):
        w = float(rng.uniform(14.0, 26.0))
        h = float(rng.uniform(12.0, 20.0))
        margin_x = w / 2.0 + 2.0
        margin_y = h / 2.0 + 2.0
        if width < 2.0 * margin_x:
            raise InvalidInputError(f"image width {width} too small")
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


def reference_perturb(sc: Scenario, gt_frames: Sequence[Sequence[GroundTruthObject]],
                      noise: NoiseParams, seed: int) -> list[list[Detection]]:
    """Detector emulation, one Detection at a time: the per-object form
    of :func:`polymot.simulator.perturb`, which must equal it exactly.

    Per object-frame: omitted with ``drop_prob``; survivors get an
    isotropic Gaussian center jitter (polygon translated along with it), a
    score from U(0.7, 1.0), and an offset toward their center
    ``prev_frame_lookback`` frames back (0 when absent there) plus Gaussian
    noise.  Per frame, one false positive appears with ``fp_prob``: a small
    ellipse at a uniform location with score U(0.3, 0.6).
    """
    rng = np.random.default_rng(seed)
    jitter_px = noise.center_jitter_sigma * noise.downsample
    lb = noise.prev_frame_lookback

    out: list[list[Detection]] = []
    for frame, entries in enumerate(gt_frames):
        dets: list[Detection] = []
        for gt in entries:
            if rng.random() < noise.drop_prob:
                continue
            jx, jy = rng.normal(0.0, jitter_px, 2) if jitter_px > 0 else (0.0, 0.0)
            center = Point2(gt.center.x + jx, gt.center.y + jy)
            obj = sc.objects[gt.id - 1]
            if frame - lb >= 0 and obj.present_at(frame - lb):
                off = offset_target(Point2(*obj.center_at(frame)),
                                    Point2(*obj.center_at(frame - lb)))
            else:
                off = (0.0, 0.0)
            if noise.offset_noise_sigma > 0:
                ox, oy = rng.normal(0.0, noise.offset_noise_sigma, 2)
                off = (off[0] + ox, off[1] + oy)
            dets.append(Detection(
                frame=frame, class_id=gt.class_id,
                score=float(rng.uniform(0.7, 1.0)), center=center,
                polygon=gt.polygon.translated(jx, jy), depth=gt.depth,
                offset=off))
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
            dets.append(Detection(
                frame=frame, class_id=0, score=score, center=Point2(fx, fy),
                polygon=reference_ellipse_ring(fx, fy, a, b, DEFAULT_VERTEX_COUNT),
                depth=float(sc.height) - fy, offset=off))
        out.append(dets)
    return out


def reference_check_detection(score, center, polygon, depth, offset) -> None:
    """A detection's invariants checked one at a time, in order, as
    ``Detection`` did per object: InvalidInputError on the first broken one."""
    if not (0.0 <= score <= 1.0):
        raise InvalidInputError(f"score {score} outside [0, 1]")
    if not all(map(math.isfinite, (*center, depth, *offset))):
        raise InvalidInputError(
            f"center {tuple(center)}, depth {depth} and offset "
            f"{tuple(offset)} must be finite")
    c = polygon.vertices.mean(axis=0)
    x0, y0, x1, y1 = polygon.bbox()
    tol = max(CENTER_TOLERANCE_PX,
              CENTER_TOLERANCE_FRAC * math.hypot(x1 - x0, y1 - y0))
    if math.hypot(c[0] - center[0], c[1] - center[1]) > tol:
        raise InvalidInputError(
            f"center {center} is {tol:.2f}+ px away from the polygon centroid")


def _strip_comment(line: str) -> str:
    hash_pos = line.find("#")
    return line if hash_pos < 0 else line[:hash_pos]


def reference_parse_detections(path: str) -> dict[int, list[Detection]]:
    """Strict line-by-line parse of a detection file into per-frame lists of
    Detections: the form :func:`polymot.io.parse_detections` must equal,
    values, errors and messages alike."""
    frames: dict[int, list[Detection]] = {}
    last_frame: Optional[int] = None
    vertex_count: Optional[int] = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = _strip_comment(raw).split()
            if not parts:
                continue
            n_vertices, odd = divmod(len(parts) - 8, 2)
            if odd or n_vertices < 3:
                raise ParseError(f"{path}:{lineno}: expected 8 + 2V fields with "
                                 f"V >= 3 vertices, got {len(parts)}")
            if vertex_count is None:
                vertex_count = n_vertices
            elif n_vertices != vertex_count:
                raise ParseError(f"{path}:{lineno}: {n_vertices} vertices, "
                                 f"earlier lines have {vertex_count}")
            try:
                frame = int(parts[0])
                class_id = int(parts[1])
                nums = [float(x) for x in parts[2:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if last_frame is not None and frame < last_frame:
                raise ParseError(
                    f"{path}:{lineno}: frame {frame} after frame {last_frame}")
            last_frame = frame
            score, cx, cy, depth, off_x, off_y = nums[:6]
            ring = np.array(nums[6:], dtype=np.float64).reshape(-1, 2)
            try:
                polygon = Polygon(ring)
                reference_check_detection(score, Point2(cx, cy), polygon, depth,
                                          (off_x, off_y))
            except InvalidInputError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            det = Detection(frame=frame, class_id=class_id, score=score,
                            center=Point2(cx, cy), polygon=polygon,
                            depth=depth, offset=(off_x, off_y))
            frames.setdefault(frame, []).append(det)
    return frames


def reference_format_detection(d: Detection) -> str:
    coords = " ".join(f"{v:.4f}" for v in d.polygon.vertices.ravel())
    return (f"{d.frame} {d.class_id} {d.score:.4f} {d.center.x:.4f} "
            f"{d.center.y:.4f} {d.depth:.4f} {d.offset[0]:.4f} "
            f"{d.offset[1]:.4f} {coords}")
