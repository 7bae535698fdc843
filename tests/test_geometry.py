import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymot.errors import InvalidInputError
from polymot.geometry import (Point2, Polygon, area, centroid, fill_polygon,
                              mask_iou, polygonize, polygonize_windows, rasterize)

from oracles import rasterize_by_ray_cast, reference_polygonize


def square(x0, y0, x1, y1):
    return Polygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], float))


def star_polygon(rng, n=12, cx=16.0, cy=16.0, r_lo=3.0, r_hi=12.0):
    """Random star-shaped (hence simple) polygon around a center."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    radii = rng.uniform(r_lo, r_hi, n)
    pts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
    return Polygon(pts)


@st.composite
def framed_masks(draw):
    """A blob, rectangle, ellipse or speckle anywhere in a frame, the border
    included; never empty."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["blob", "rectangle", "ellipse", "speckle"]))
    cx, cy = draw(st.floats(-3, w + 3)), draw(st.floats(-3, h + 3))
    a, b = draw(st.floats(0.2, 15)), draw(st.floats(0.2, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    yy, xx = np.mgrid[0:h, 0:w] + 0.5
    if kind == "rectangle":
        mask = (np.abs(xx - cx) <= a) & (np.abs(yy - cy) <= b)
    elif kind == "ellipse":
        mask = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1
    elif kind == "blob":  # union of a few discs around the center
        mask = np.zeros((h, w), bool)
        for dx, dy, r in zip(*rng.normal(0, a, (2, 4)), rng.uniform(0.5, 0.5 + b, 4)):
            mask |= (xx - cx - dx) ** 2 + (yy - cy - dy) ** 2 <= r * r
    else:
        mask = (rng.random((h, w)) < rng.uniform(0.02, 0.3)) \
            & (np.abs(xx - cx) <= 2 * a) & (np.abs(yy - cy) <= 2 * b)
    if not mask.any():
        mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    return mask


@st.composite
def framed_windows(draw):
    """A window of a framed mask, with 0-3 px margins clipped to the frame
    (so it may touch the frame border), moved to any origin."""
    mask = draw(framed_masks())
    ys, xs = np.nonzero(mask)
    h, w = mask.shape
    lo = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    hi = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    x0, y0 = max(0, xs.min() - lo[0]), max(0, ys.min() - lo[1])
    x1, y1 = min(w, xs.max() + 1 + hi[0]), min(h, ys.max() + 1 + hi[1])
    shift = draw(st.tuples(st.integers(0, 500), st.integers(0, 500)))
    return mask[y0:y1, x0:x1], (int(x0) + shift[0], int(y0) + shift[1])


@st.composite
def single_pixel_windows(draw):
    origin = draw(st.tuples(st.integers(0, 500), st.integers(0, 500)))
    return np.ones((1, 1), bool), origin


class TestCentroid:
    def test_square(self):
        assert centroid(square(0, 0, 2, 2)) == Point2(1.0, 1.0)

    def test_repeated_vertex(self):
        p = Polygon(np.tile([5.0, 7.0], (32, 1)))
        assert centroid(p) == Point2(5.0, 7.0)

    def test_uniform_circle_samples(self):
        theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        p = Polygon(np.stack([10 + 3 * np.cos(theta), 4 + 3 * np.sin(theta)], axis=1))
        c = centroid(p)
        assert abs(c.x - 10) < 1e-9 and abs(c.y - 4) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Polygon(np.empty((0, 2)))

    def test_inside_convex_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = star_polygon(rng)
            c = centroid(p)
            # support-function check: c is within the hull iff its projection
            # on every direction is within the vertex projections
            for ang in np.linspace(0, 2 * math.pi, 64, endpoint=False):
                d = np.array([math.cos(ang), math.sin(ang)])
                proj = p.vertices @ d
                assert proj.min() - 1e-9 <= np.dot([c.x, c.y], d) <= proj.max() + 1e-9


class TestArea:
    def test_unit_square(self):
        assert area(square(0, 0, 1, 1)) == 1.0

    def test_degenerate_collinear(self):
        p = Polygon(np.array([[0, 0], [1, 1], [2, 2], [3, 3]], float))
        assert area(p) == 0.0

    def test_regular_32gon_in_unit_circle(self):
        theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        p = Polygon(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        expected = 0.5 * 32 * math.sin(2 * math.pi / 32)
        assert area(p) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 31), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_rotation_and_translation(self, shift, dx, dy):
        rng = np.random.default_rng(11)
        p = star_polygon(rng, n=32)
        rolled = Polygon(np.roll(p.vertices, shift, axis=0) + [dx, dy])
        assert area(rolled) == pytest.approx(area(p), rel=1e-9, abs=1e-9)

    def test_stack_matches_one_ring_at_a_time(self):
        rings = np.random.default_rng(4).uniform(-50, 300, (20, 9, 2))
        for ring, poly in zip(rings, Polygon.stack(rings)):
            one = Polygon(ring)
            assert np.array_equal(poly.vertices, one.vertices)
            assert poly.area == one.area
            assert centroid(poly) == centroid(one)
        assert Polygon.stack(np.empty((0, 9, 2))) == []
        with pytest.raises(InvalidInputError):
            Polygon.stack(np.full((2, 3, 2), np.nan))
        with pytest.raises(InvalidInputError):
            Polygon.stack(rings[0])


class TestRasterize:
    def test_axis_aligned_square(self):
        mask = rasterize(square(0, 0, 4, 4), 8, 8)
        assert mask.sum() == 16
        assert mask[:4, :4].all()

    def test_fully_outside(self):
        mask = rasterize(square(20, 20, 30, 30), 8, 8)
        assert not mask.any()

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            p = star_polygon(rng)
            fast = rasterize(p, 32, 32)
            slow = rasterize_by_ray_cast(p.vertices, 32, 32)
            assert (fast == slow).all()

    def test_concave_matches_oracle(self):
        pts = np.array([[2, 2], [28, 2], [28, 28], [16, 10], [2, 28]], float)
        p = Polygon(pts)
        assert (rasterize(p, 32, 32) == rasterize_by_ray_cast(pts, 32, 32)).all()

    @pytest.mark.parametrize("pts", [
        [[-6, -4], [14, 3], [9, 40], [-3, 20]],           # over the top-left corner
        [[20, 10], [45, 12], [38, 30], [26, 25]],          # over the right border
        [[5, -9], [25, -2], [30, 36], [2, 29]],            # taller than the frame
        [[-20, 8], [-2, 8], [-2, 20]],                     # wholly left
        [[40, -5], [60, 5], [45, 40]],                     # wholly right, spanning rows
        [[3, -12], [20, -1], [9, -4]],                     # wholly above
        [[3, 35], [20, 50], [9, 60]],                      # wholly below
    ])
    def test_outside_frame_matches_oracle(self, pts):
        pts = np.array(pts, float)
        assert (rasterize(Polygon(pts), 32, 32) == rasterize_by_ray_cast(pts, 32, 32)).all()

    def test_self_intersecting_matches_oracle(self):
        theta = np.arange(5) * 4 * math.pi / 5  # pentagram {5/2}
        stars = [np.stack([16 + 13 * np.cos(theta), 16 + 13 * np.sin(theta)], axis=1)]
        rng = np.random.default_rng(13)
        stars += [rng.uniform(-4, 36, (n, 2)) for n in (6, 9, 14, 20)]  # random order
        for pts in stars:
            assert (rasterize(Polygon(pts), 32, 32) == rasterize_by_ray_cast(pts, 32, 32)).all()

    @pytest.mark.parametrize("pts", [
        [[3.2, 1.0], [3.4, 1.0], [3.3, 30.0]],            # narrower than a pixel
        [[10.6, 2.0], [10.9, 2.0], [10.9, 29.0], [10.6, 29.0]],  # misses every center
        [[1.0, 5.45], [30.0, 5.55], [1.0, 5.6]],          # flatter than a pixel
        [[2.0, 2.0], [29.0, 28.0], [2.1, 2.3]],           # diagonal needle
    ])
    def test_sliver_matches_oracle(self, pts):
        pts = np.array(pts, float)
        assert (rasterize(Polygon(pts), 32, 32) == rasterize_by_ray_cast(pts, 32, 32)).all()

    @pytest.mark.parametrize("pts", [
        [[2, 3.5], [11, 3.5], [11, 9.5], [2, 9.5]],
        [[2.5, 3.5], [10.5, 3.5], [10.5, 7.5], [2.5, 7.5]],
        # staircase: every horizontal edge on a row of centers
        [[1, 1.5], [8, 1.5], [8, 6.5], [15, 6.5], [15, 12.5], [22, 12.5],
         [22, 20.5], [1, 20.5]],
        [[4, 10.5], [28, 10.5], [16, 25.5]],              # triangle, flat top
        [[16, 4.5], [28, 18.5], [16, 18.5], [4, 18.5]],   # collinear base vertices
    ])
    def test_horizontal_edges_on_centers_match_oracle(self, pts):
        pts = np.array(pts, float)
        assert (rasterize(Polygon(pts), 32, 32) == rasterize_by_ray_cast(pts, 32, 32)).all()

    def test_overlapping_fills_paint_in_order(self):
        rng = np.random.default_rng(17)
        polys = [star_polygon(rng, cx=cx, cy=cy)
                 for cx, cy in ((10, 10), (18, 14), (14, 20), (2, 30), (28, 4))]
        label = np.zeros((32, 32), np.int32)
        expected = np.zeros((32, 32), np.int32)
        for k, p in enumerate(polys, start=1):
            fill_polygon(label, p, k)
            expected[rasterize_by_ray_cast(p.vertices, 32, 32)] = k
        assert np.array_equal(label, expected)
        assert len(np.unique(label)) == len(polys) + 1

    def test_bad_dims(self):
        with pytest.raises(InvalidInputError):
            rasterize(square(0, 0, 1, 1), 0, 4)


class TestMaskIou:
    def test_identical(self):
        m = np.zeros((4, 4), bool)
        m[1:3, 1:3] = True
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = True
        b[3, 3] = True
        assert mask_iou(a, b) == 0.0

    def test_one_third_overlap(self):
        a = np.zeros((1, 3), bool)
        b = np.zeros((1, 3), bool)
        a[0, :2] = True   # 2x1 bar
        b[0, 1:] = True   # 2x1 bar, overlapping in 1 of 3 union pixels
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_empty_union(self):
        z = np.zeros((2, 2), bool)
        assert mask_iou(z, z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            mask_iou(np.zeros((2, 2), bool), np.zeros((3, 2), bool))

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.random((9, 7)) < 0.4
            b = rng.random((9, 7)) < 0.4
            assert mask_iou(a, b) == mask_iou(b, a)
            if a.any():
                assert mask_iou(a, a) == 1.0
            if a.any() and b.any() and (a != b).any():
                assert mask_iou(a, b) < 1.0


class TestPolygonize:
    def test_box_filling_mask(self):
        mask = np.zeros((20, 24), bool)
        mask[4:16, 3:21] = True
        p = polygonize(mask, 32)
        x0, y0, x1, y1 = 3.0, 4.0, 21.0, 16.0
        for x, y in p.vertices:
            d = min(abs(x - x0), abs(x - x1), abs(y - y0), abs(y - y1))
            assert d <= 0.5 + 1e-9
            assert x0 - 1e-9 <= x <= x1 + 1e-9 and y0 - 1e-9 <= y <= y1 + 1e-9

    def test_disc_vertices_near_circle(self):
        yy, xx = np.mgrid[0:64, 0:64]
        disc = (xx + 0.5 - 32) ** 2 + (yy + 0.5 - 32) ** 2 <= 20 ** 2
        p = polygonize(disc, 32)
        radii = np.hypot(p.vertices[:, 0] - 32, p.vertices[:, 1] - 32)
        assert (np.abs(radii - 20) <= 1.0).all()

    def test_convex_reconstruction_iou(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = rng.uniform(60, 110)
            h = rng.uniform(50, 90)
            cx = rng.uniform(60, 70)
            cy = rng.uniform(55, 70)
            yy, xx = np.mgrid[0:128, 0:128]
            if rng.random() < 0.5:
                mask = (((xx + 0.5 - cx) / (w / 2)) ** 2
                        + ((yy + 0.5 - cy) / (h / 2)) ** 2) <= 1
            else:
                mask = ((np.abs(xx + 0.5 - cx) <= w / 2)
                        & (np.abs(yy + 0.5 - cy) <= h / 2))
            p = polygonize(mask, 32)
            assert mask_iou(mask, rasterize(p, 128, 128)) >= 0.9

    def test_vertices_inside_bbox(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mask = rng.random((40, 40)) < 0.2
            if not mask.any():
                continue
            ys, xs = np.nonzero(mask)
            p = polygonize(mask, 16)
            assert (p.vertices[:, 0] >= xs.min() - 1e-9).all()
            assert (p.vertices[:, 0] <= xs.max() + 1 + 1e-9).all()
            assert (p.vertices[:, 1] >= ys.min() - 1e-9).all()
            assert (p.vertices[:, 1] <= ys.max() + 1 + 1e-9).all()

    @given(framed_masks(), st.sampled_from([3, 16, 32]), st.tuples(*[st.integers(0, 3)] * 4))
    @settings(max_examples=150, deadline=None)
    def test_window_matches_full_frame(self, mask, n, margins):
        ys, xs = np.nonzero(mask)
        h, w = mask.shape
        x0, y0 = max(0, xs.min() - margins[0]), max(0, ys.min() - margins[1])
        x1, y1 = min(w, xs.max() + 1 + margins[2]), min(h, ys.max() + 1 + margins[3])
        window = polygonize(mask[y0:y1, x0:x1], n, (int(x0), int(y0)))
        assert np.array_equal(window.vertices, polygonize(mask, n).vertices)
        assert np.array_equal(window.vertices, reference_polygonize(mask, n))

    @given(st.lists(st.one_of(framed_windows(), single_pixel_windows()), max_size=6),
           st.sampled_from([3, 16, 32]))
    @settings(max_examples=150, deadline=None)
    def test_stack_matches_reference(self, stack, n):
        windows = [w for w, _ in stack]
        origins = [o for _, o in stack]
        rings = polygonize_windows(windows, origins, n)
        assert rings.shape == (len(stack), n, 2)
        for ring, window, origin in zip(rings, windows, origins):
            assert np.array_equal(ring, reference_polygonize(window, n, origin))

    def test_missed_rays_fall_back_to_center(self):
        window = np.zeros((5, 5), bool)
        window[0, 0] = window[4, 4] = True
        ring = polygonize_windows([window], [(7, 3)], 16)[0]
        assert np.array_equal(ring, reference_polygonize(window, 16, (7, 3)))
        # the rays from the middle of each edge pass no set pixel
        assert (ring == [9.5, 5.5]).all(axis=1).sum() >= 4

    def test_stack_errors(self):
        box = np.ones((3, 4), bool)
        with pytest.raises(InvalidInputError, match="window 2"):
            polygonize_windows([box, box, np.zeros((3, 3), bool), box], [(0, 0)] * 4, 8)
        with pytest.raises(InvalidInputError, match="window 0"):
            polygonize_windows([np.zeros((0, 4), bool)], [(0, 0)], 8)
        with pytest.raises(InvalidInputError):
            polygonize_windows([box], [(0, 0)], 2)
        with pytest.raises(InvalidInputError):
            polygonize_windows([box, box], [(0, 0)], 8)
        with pytest.raises(InvalidInputError, match="^polygonize windows must be 2-D$"):
            polygonize_windows([box, np.ones((2, 3, 4), bool)], [(0, 0)] * 2, 8)
        assert polygonize_windows([], [], 16).shape == (0, 16, 2)

    def test_vertex_count_and_errors(self):
        mask = np.zeros((8, 8), bool)
        mask[2:5, 2:5] = True
        assert len(polygonize(mask, 8)) == 8
        with pytest.raises(InvalidInputError):
            polygonize(np.zeros((8, 8), bool), 32)
        with pytest.raises(InvalidInputError):
            polygonize(mask, 2)
