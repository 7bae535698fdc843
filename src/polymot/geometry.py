"""Polygon primitives: centroid, area, rasterization, IoU, mask-to-polygon.

Conventions used throughout the package:
  - image pixel (i, j) covers the unit square [i, i+1) x [j, j+1) and is
    sampled at its center (i + 0.5, j + 0.5);
  - binary masks are boolean numpy arrays of shape (height, width), indexed
    mask[y, x];
  - a mask may be a window of a larger frame: a slice whose top-left pixel
    is the frame pixel ``origin`` = (x0, y0), so window[y - y0, x - x0] is
    frame pixel (x, y).  Work on a window costs the object's size, not the
    frame's; vertices and boxes stay in frame coordinates and only the
    pixel lookup is local;
  - polygons are ordered vertex rings, implicitly closed, with a fixed
    vertex count per run (32 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError

DEFAULT_VERTEX_COUNT = 32


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Polygon:
    """Ordered ring of 2-D vertices; the ring closes last-to-first.

    Self-intersection is permitted: ray-cast polygonization of concave masks
    can produce near-degenerate edges.  The shoelace area is precomputed so
    association gates come for free during tracking.
    """

    vertices: np.ndarray  # (n, 2) float64
    area: float = field(init=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise InvalidInputError(f"polygon vertices must be (n, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "area", float(polygon_areas(v[None])[0]))

    @classmethod
    def stack(cls, rings: np.ndarray) -> list["Polygon"]:
        """One Polygon per ring of an (m, n, 2) stack, each a view of it; the
        rings are checked and their areas computed for the stack at once."""
        rings = np.asarray(rings, dtype=np.float64)
        if rings.ndim != 3 or rings.shape[2] != 2 or rings.shape[1] < 1:
            raise InvalidInputError(f"polygon rings must be (m, n, 2), got {rings.shape}")
        if not np.all(np.isfinite(rings)):
            raise InvalidInputError("polygon vertices must be finite")
        return list(map(cls.trusted, rings, polygon_areas(rings).tolist()))

    @classmethod
    def trusted(cls, vertices: np.ndarray, area: float) -> "Polygon":
        """A Polygon of float64 (n, 2) vertices already checked finite and
        their shoelace area, without checking or computing either again."""
        p = object.__new__(cls)
        p.__dict__.update(vertices=vertices, area=area)
        return p

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def bbox(self) -> tuple[float, float, float, float]:
        """Tight axis-aligned bounds (x_min, y_min, x_max, y_max)."""
        mn = self.vertices.min(axis=0)
        mx = self.vertices.max(axis=0)
        return float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1])

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(self.vertices + np.array([dx, dy]))


def centroid(p: Polygon) -> Point2:
    """Arithmetic mean of the vertex coordinates (the object's reference center)."""
    if len(p) == 0:
        raise InvalidInputError("centroid of an empty polygon")
    m = p.vertices.mean(axis=0)
    return Point2(float(m[0]), float(m[1]))


def area(p: Polygon) -> float:
    """Absolute shoelace area of the ring."""
    return p.area


AREA_BLOCK = 512  # rings per pass of polygon_areas; bounds its temporaries


def polygon_areas(rings: np.ndarray) -> np.ndarray:
    """Shoelace areas for a batch of rings, shape (m, n, 2) -> (m,), summed
    ``AREA_BLOCK`` rings at a time (each ring's sum is the same either way)."""
    if len(rings) > AREA_BLOCK:
        return np.concatenate([polygon_areas(rings[i:i + AREA_BLOCK])
                               for i in range(0, len(rings), AREA_BLOCK)])
    x, y = rings[..., 0], rings[..., 1]
    nxt = np.concatenate((rings[..., 1:, :], rings[..., :1, :]), axis=-2)
    xn, yn = nxt[..., 0], nxt[..., 1]
    return np.abs(np.sum(x * yn - xn * y, axis=-1)) / 2.0


def run_pixels(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Every index of the runs [starts[i], stops[i]), concatenated in order."""
    lengths = stops - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def scanline_spans(rings: Sequence[np.ndarray], width: int, height: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Even-odd inside spans of a batch of rings on a (height, width) grid.

    Pixel (i, j) of ring r is inside iff the number of r's edge crossings
    strictly to the right of its center (i + 0.5, j + 0.5) along the +x ray
    is odd.  Each edge is tested only on the rows of its own y-range; an
    edge crosses row j iff ``(y1 > j + 0.5) != (y2 > j + 0.5)``, at column
    ``clip(ceil(xs - 0.5), 0, width)`` of its crossing point xs.  A closed
    ring crosses every row an even number of times, so the sorted crossings
    of each (ring, row) pair up into spans.  Rings may differ in vertex
    count; a ring of fewer than 3 vertices covers nothing.

    Returns (ring, row, x0, x1): the non-empty spans [x0, x1) of every ring
    inside the grid, sorted by ring, row and x0.
    """
    rings = [np.asarray(r, dtype=np.float64).reshape(-1, 2) for r in rings]
    n = np.array([len(r) for r in rings], dtype=np.intp)
    used = np.flatnonzero(n >= 3)
    v = np.concatenate([rings[k] for k in used] + [np.empty((0, 2))])
    ring = np.repeat(used, n[used])
    # each vertex's edge runs to the next vertex of its ring
    ends = np.cumsum(n[used])
    nxt = np.arange(1, len(v) + 1)
    nxt[ends - 1] = ends - n[used]
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = x1[nxt], y1[nxt]
    lo = np.clip(np.floor(np.minimum(y1, y2) - 0.5), 0, height).astype(np.intp)
    hi = np.clip(np.ceil(np.maximum(y1, y2) + 0.5), 0, height).astype(np.intp)
    edges = np.repeat(np.arange(len(v)), hi - lo)
    rows = run_pixels(lo, hi)
    py = rows + 0.5
    hit = (y1[edges] > py) != (y2[edges] > py)
    edges, rows, py = edges[hit], rows[hit], py[hit]
    ey1, ex1 = y1[edges], x1[edges]
    t = (py - ey1) / (y2[edges] - ey1)
    xs = ex1 + t * (x2[edges] - ex1)
    # centers with xs <= i + 0.5 lie right of the crossing
    cols = np.minimum(np.maximum(np.ceil(xs - 0.5), 0), width).astype(np.intp)
    key = np.sort((ring[edges] * height + rows) * (width + 1) + cols)
    line, start = np.divmod(key[0::2], width + 1)
    stop = key[1::2] % (width + 1)
    keep = stop > start
    ring, row = np.divmod(line[keep], height)
    return ring, row, start[keep], stop[keep]


def fill_polygon(target: np.ndarray, p: Polygon, value) -> None:
    """Scanline fill with the even-odd rule, sampled at pixel centers.

    Sets target[j, i] = value iff pixel (i, j) is inside p by the rule of
    :func:`scanline_spans`, of which this is the one-ring case.  Pixels
    outside the (height, width) target are clipped.
    """
    height, width = target.shape
    _, rows, x0, x1 = scanline_spans([p.vertices], width, height)
    target[np.repeat(rows, x1 - x0), run_pixels(x0, x1)] = value


def rasterize(p: Polygon, width: int, height: int) -> np.ndarray:
    """Boolean (height, width) mask of the :func:`fill_polygon` fill."""
    if width < 1 or height < 1:
        raise InvalidInputError("rasterize target must be at least 1x1")
    mask = np.zeros((height, width), dtype=bool)
    fill_polygon(mask, p, True)
    return mask


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two equal-shaped masks; 0 when both empty."""
    if a.shape != b.shape:
        raise InvalidInputError(f"mask shape mismatch: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


RAY_STEP = 0.5    # px between a ray's samples
RAY_CHUNK = 4     # samples a still-marching ray takes per pass


def polygonize(mask: np.ndarray, n_vertices: int = DEFAULT_VERTEX_COUNT,
               origin: tuple[int, int] = (0, 0)) -> Polygon:
    """Approximate a mask by an n-vertex ring of first ray/mask intersections.

    ``mask`` may be a window of a larger frame whose top-left pixel is
    ``origin`` = (x0, y0); the window must hold every set pixel of the
    object.  Vertices are in frame coordinates, so any window holding the
    object gives the same ring as the full frame.

    Ray origins are spaced at equal arc-length intervals along the perimeter
    of the mask's tight bounding box, starting at the top-left corner and
    proceeding clockwise (in image coordinates, y down).  Each ray marches
    from its origin toward the box center in 0.5 px steps, sample k at
    ``origin + (min(k * RAY_STEP, L) / L) * (center - origin)`` for a ray
    of length L, and keeps the first sample whose containing pixel is set;
    a ray that never hits the mask yields the box-center point.

    This is the one-window case of :func:`polygonize_windows`, which
    marches in chunks of ``RAY_CHUNK`` samples and drops a ray once it hits
    or once a chunk's last sample is clamped to L.  Every later sample of
    that ray is the same clamped point, so the first hit, and the ring, are
    exactly those of marching every ray to the end.
    """
    return Polygon(polygonize_windows([mask], [origin], n_vertices)[0])


def polygonize_windows(windows, origins, n_vertices: int = DEFAULT_VERTEX_COUNT
                       ) -> np.ndarray:
    """The :func:`polygonize` rings of a stack of windows, shape (m, n, 2).

    ``windows[i]`` is a boolean window whose top-left pixel is the frame
    pixel ``origins[i]`` = (x0, y0) and which holds every set pixel of its
    object.  The windows are read from one flat buffer with per-window
    offsets, so mixed sizes cost no padding.  Working memory is a few
    arrays the size of the stack's pixels plus a few of ``RAY_CHUNK``
    samples per ray, so a caller with many objects feeds them in blocks
    (``simulator.generate`` stacks ``GT_BLOCK`` windows at a time).
    """
    if n_vertices < 3:
        raise InvalidInputError("polygonize needs at least 3 vertices")
    masks = [np.asarray(w, dtype=bool) for w in windows]
    m = len(masks)
    if len(origins) != m:
        raise InvalidInputError(f"{len(origins)} origins for {m} windows")
    if m == 0:
        return np.empty((0, n_vertices, 2))
    if any(mk.ndim != 2 for mk in masks):
        raise InvalidInputError("polygonize windows must be 2-D")
    h, w = np.array([mk.shape for mk in masks], dtype=np.int64).T
    ox, oy = np.asarray(origins, dtype=np.int64).reshape(m, 2).T
    ends = np.cumsum(h * w)
    offsets = ends - h * w
    # a False sentinel past the last window answers every outside lookup
    flat = np.concatenate([mk.ravel() for mk in masks] + [np.zeros(1, bool)])
    outside = flat.size - 1

    set_px = np.flatnonzero(flat)
    first = np.searchsorted(set_px, offsets)
    counts = np.searchsorted(set_px, ends) - first
    if not counts.all():
        raise InvalidInputError(
            f"polygonize of an empty mask (window {int(np.argmin(counts))})")
    win = np.repeat(np.arange(m), counts)
    ys, xs = np.divmod(set_px - offsets[win], w[win])
    # Occupied cells span [x0, x1 + 1) x [y0, y1 + 1) in continuous coords.
    bx0 = (np.minimum.reduceat(xs, first) + ox).astype(np.float64)[:, None]
    by0 = (np.minimum.reduceat(ys, first) + oy).astype(np.float64)[:, None]
    bx1 = (np.maximum.reduceat(xs, first) + 1 + ox).astype(np.float64)[:, None]
    by1 = (np.maximum.reduceat(ys, first) + 1 + oy).astype(np.float64)[:, None]
    bw, bh = bx1 - bx0, by1 - by0
    cx, cy = bx0 + bw / 2.0, by0 + bh / 2.0

    perimeter = 2.0 * (bw + bh)
    s = np.arange(n_vertices) * (perimeter / n_vertices)
    # clockwise from the top-left corner: top, right, bottom, else left edge
    top, right, bottom = s < bw, s < bw + bh, s < 2 * bw + bh
    x = np.where(top, bx0 + s, np.where(right, bx1, np.where(bottom, bx1 - (s - bw - bh), bx0)))
    y = np.where(top, by0, np.where(right, by0 + (s - bw),
                                    np.where(bottom, by1, by1 - (s - 2 * bw - bh))))
    dx, dy = cx - x, cy - y
    length = np.hypot(dx, dy)
    # a miss keeps the box center
    verts = np.repeat(np.concatenate((cx, cy), axis=1), n_vertices, axis=0)

    # one row per ray still marching; per-window lookups repeated per ray
    rays = np.arange(m * n_vertices)
    x, y, dx, dy, length = (a.ravel() for a in (x, y, dx, dy, length))
    safe_len = np.where(length > 0, length, 1.0)
    ox, oy, w, h, base = (np.repeat(a, n_vertices) for a in (ox, oy, w, h, offsets))
    step = np.arange(RAY_CHUNK)
    while rays.size:
        t = step * RAY_STEP
        f = np.minimum(t, length[:, None]) / safe_len[:, None]
        px = x[:, None] + f * dx[:, None]
        py = y[:, None] + f * dy[:, None]
        # samples are placed in frame coordinates; only the lookup is local
        ix = np.floor(px).astype(np.int64) - ox[:, None]
        iy = np.floor(py).astype(np.int64) - oy[:, None]
        inside = (ix >= 0) & (ix < w[:, None]) & (iy >= 0) & (iy < h[:, None])
        hit = flat[np.where(inside, base[:, None] + iy * w[:, None] + ix, outside)]
        done = hit.any(axis=1)
        k = np.argmax(hit[done], axis=1)
        verts[rays[done]] = np.stack((px[done, k], py[done, k]), axis=1)
        # past its length a ray's samples all repeat the clamped point
        live = ~done & (t[-1] < length)
        rays, x, y, dx, dy, length, safe_len, ox, oy, w, h, base = (
            a[live] for a in (rays, x, y, dx, dy, length, safe_len, ox, oy, w, h, base))
        step += RAY_CHUNK
    return verts.reshape(m, n_vertices, 2)
