"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles with a
different structure than the library code: plain loops instead of
vectorized kernels, textbook formulas instead of batched linear algebra.
"""

from __future__ import annotations

import numpy as np


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
