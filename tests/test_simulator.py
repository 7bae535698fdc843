import itertools
import math

import numpy as np
import pytest

from polymot.errors import InvalidInputError
from polymot.geometry import centroid
from polymot.losses import offset_target
from polymot.metrics import evaluate_polygons
from polymot.simulator import (IDENTITY_NOISE, SCENARIO_KINDS, NoiseParams,
                               ObjectSpec, Scenario, build_scenario, generate,
                               perturb, shape_mask)
from polymot.tracker import TrackerConfig, run_sequence, emitted_instances

from oracles import reference_perturb


def gt_centers(frames, oid):
    out = {}
    for f, entries in enumerate(frames):
        for g in entries:
            if g.id == oid:
                out[f] = g.center
    return out


class TestGenerate:
    def test_linear_centers_form_arithmetic_sequence(self):
        sc = Scenario(width=256, height=128, n_frames=10,
                      objects=(ObjectSpec(shape="rectangle", size=(20, 14),
                                          start=(40, 60), velocity=(2.0, 0.0)),))
        frames = generate(sc)
        xs = [gt_centers(frames, 1)[f].x for f in range(10)]
        steps = np.diff(xs)
        assert np.allclose(steps, 2.0, atol=0.05)

    def test_crossing_objects_coincide_once(self):
        sc = build_scenario("crossing", 2, 24, 288, 160, 11)
        frames = generate(sc)
        a = gt_centers(frames, 1)
        b = gt_centers(frames, 2)
        close = [f for f in a if f in b
                 and math.hypot(a[f].x - b[f].x, a[f].y - b[f].y) < 1.0]
        assert len(close) == 1

    def test_same_seed_bitwise_identical(self):
        for kind in ("linear", "crossing", "occlusion", "random_walk"):
            sc1 = build_scenario(kind, 2, 20, 288, 160, 42)
            sc2 = build_scenario(kind, 2, 20, 288, 160, 42)
            f1, f2 = generate(sc1), generate(sc2)
            assert len(f1) == len(f2)
            for e1, e2 in zip(f1, f2):
                assert len(e1) == len(e2)
                for g1, g2 in zip(e1, e2):
                    assert g1.id == g2.id and g1.depth == g2.depth
                    assert np.array_equal(g1.polygon.vertices, g2.polygon.vertices)

    def test_center_is_polygon_centroid(self):
        sc = build_scenario("linear", 3, 8, 256, 160, 1)
        for entries in generate(sc):
            for g in entries:
                c = centroid(g.polygon)
                assert math.hypot(c.x - g.center.x, c.y - g.center.y) < 1e-12

    def test_depth_orders_by_vertical_position(self):
        sc = build_scenario("linear", 3, 4, 256, 160, 2)
        for entries in generate(sc):
            by_y = sorted(entries, key=lambda g: g.center.y)
            depths = [g.depth for g in by_y]
            assert depths == sorted(depths, reverse=True)  # lower y = farther

    def test_initially_outside_rejected(self):
        sc = Scenario(width=64, height=64, n_frames=4,
                      objects=(ObjectSpec(shape="ellipse", size=(10, 10),
                                          start=(200, 200), velocity=(0, 0)),))
        with pytest.raises(InvalidInputError):
            generate(sc)

    def test_shape_mask_geometry(self):
        rect, _ = shape_mask("rectangle", 8, 8, 6, 4, 16, 16)
        assert rect.sum() == 24
        ell, _ = shape_mask("ellipse", 8, 8, 8, 8, 16, 16)
        assert abs(ell.sum() - math.pi * 16) / (math.pi * 16) < 0.15


def full_frame_shape(shape, cx, cy, w, h, width, height):
    """Occupancy of every image pixel, evaluated at all of them."""
    px = np.arange(width) + 0.5
    py = np.arange(height) + 0.5
    if shape == "rectangle":
        return ((np.abs(px[None, :] - cx) <= w / 2.0)
                & (np.abs(py[:, None] - cy) <= h / 2.0))
    return ((px[None, :] - cx) ** 2 / (w / 2.0) ** 2
            + (py[:, None] - cy) ** 2 / (h / 2.0) ** 2) <= 1.0


class TestShapeMaskWindow:
    @pytest.mark.parametrize("shape", ["rectangle", "ellipse"])
    @pytest.mark.parametrize("cx, cy, w, h", [
        (20.3, 15.7, 9.0, 6.4),      # inside
        (8.0, 8.0, 0.4, 0.7),        # sub-pixel, between centers
        (8.5, 8.5, 0.4, 0.7),        # sub-pixel, on a center
        (1.2, 15.0, 11.0, 7.0),      # clipped at the left border
        (38.9, 15.0, 11.0, 7.0),     # clipped at the right border
        (20.0, 0.6, 11.0, 7.0),      # clipped at the top border
        (20.0, 29.5, 11.0, 7.0),     # clipped at the bottom border
        (-0.5, 31.0, 3.0, 3.0),      # clipped at a corner
        (20.0, 15.0, 90.0, 70.0),    # larger than the image
        (20.0, 15.0, 40.0, 30.0),    # exactly the image
    ])
    def test_window_equals_full_frame(self, shape, cx, cy, w, h):
        width, height = 40, 30
        mask, (x0, y0) = shape_mask(shape, cx, cy, w, h, width, height)
        assert 0 <= x0 and x0 + mask.shape[1] <= width
        assert 0 <= y0 and y0 + mask.shape[0] <= height
        frame = np.zeros((height, width), bool)
        frame[y0:y0 + mask.shape[0], x0:x0 + mask.shape[1]] = mask
        assert np.array_equal(frame, full_frame_shape(shape, cx, cy, w, h, width, height))
        assert mask.shape[0] <= h + 4 and mask.shape[1] <= w + 4  # bbox +- 1 px

    @pytest.mark.parametrize("shape", ["rectangle", "ellipse"])
    @pytest.mark.parametrize("cx, cy", [(-9.0, 15.0), (50.0, 15.0), (20.0, -7.0),
                                        (20.0, 38.0), (-30.0, -30.0)])
    def test_wholly_outside_gives_empty_window(self, shape, cx, cy):
        mask, _ = shape_mask(shape, cx, cy, 10.0, 8.0, 40, 30)
        assert mask.size == 0


class TestPerturb:
    def test_identity_noise_reproduces_ground_truth(self):
        sc = build_scenario("linear", 2, 12, 256, 160, 3)
        gt = generate(sc)
        dets = perturb(sc, gt, IDENTITY_NOISE, 0)
        for f, (entries, frame_dets) in enumerate(zip(gt, dets)):
            assert len(entries) == len(frame_dets)
            for g, d in zip(entries, frame_dets):
                assert d.center == g.center
                assert np.array_equal(d.polygon.vertices, g.polygon.vertices)
                assert d.frame == f and 0.7 <= d.score <= 1.0

    def test_identity_noise_offsets_are_exact(self):
        sc = Scenario(width=256, height=128, n_frames=8,
                      objects=(ObjectSpec(shape="rectangle", size=(20, 14),
                                          start=(40, 60), velocity=(3.0, 1.0)),))
        gt = generate(sc)
        dets = perturb(sc, gt, IDENTITY_NOISE, 0)
        for f in range(1, 8):
            d = dets[f][0]
            obj = sc.objects[0]
            expected = offset_target(
                type(d.center)(*obj.center_at(f)), type(d.center)(*obj.center_at(f - 1)))
            assert d.offset == pytest.approx(expected, abs=1e-12)
        assert dets[0][0].offset == (0.0, 0.0)

    def test_drop_everything(self):
        sc = build_scenario("linear", 3, 10, 256, 160, 4)
        gt = generate(sc)
        noise = NoiseParams(drop_prob=1.0, fp_prob=0.0,
                            center_jitter_sigma=0.0, offset_noise_sigma=0.0)
        dets = perturb(sc, gt, noise, 5)
        assert all(len(d) == 0 for d in dets)

    def test_drop_everything_keeps_false_positives(self):
        sc = build_scenario("linear", 1, 40, 256, 160, 4)
        gt = generate(sc)
        noise = NoiseParams(drop_prob=1.0, fp_prob=1.0,
                            center_jitter_sigma=0.0, offset_noise_sigma=0.0)
        dets = perturb(sc, gt, noise, 5)
        assert all(len(d) == 1 for d in dets)
        assert all(0.3 <= d[0].score <= 0.6 for d in dets)

    def test_same_seed_same_detections(self):
        sc = build_scenario("random_walk", 2, 15, 256, 160, 6)
        gt = generate(sc)
        a = perturb(sc, gt, NoiseParams(), 17)
        b = perturb(sc, gt, NoiseParams(), 17)
        for fa, fb in zip(a, b):
            assert len(fa) == len(fb)
            for da, db in zip(fa, fb):
                assert da.center == db.center and da.offset == db.offset
                assert da.score == db.score

    def test_jitter_translates_polygon_with_center(self):
        sc = build_scenario("linear", 1, 6, 256, 160, 8)
        gt = generate(sc)
        noise = NoiseParams(drop_prob=0.0, fp_prob=0.0,
                            center_jitter_sigma=1.0, offset_noise_sigma=0.0)
        dets = perturb(sc, gt, noise, 9)
        for entries, frame_dets in zip(gt, dets):
            for g, d in zip(entries, frame_dets):
                shift = np.array([d.center.x - g.center.x, d.center.y - g.center.y])
                assert np.allclose(d.polygon.vertices, g.polygon.vertices + shift)

    def test_empirical_rates(self):
        sc = Scenario(width=64, height=64, n_frames=2500,
                      objects=(ObjectSpec(shape="rectangle", size=(16, 12),
                                          start=(32, 32), velocity=(0, 0)),))
        gt = generate(sc)
        dets = perturb(sc, gt, NoiseParams(), 123)
        true_dets = sum(1 for frame in dets for d in frame if d.score >= 0.7)
        fps = sum(1 for frame in dets for d in frame if d.score < 0.7)
        drop_rate = 1 - true_dets / 2500
        fp_rate = fps / 2500
        assert abs(drop_rate - 0.4) < 0.025
        assert abs(fp_rate - 0.1) < 0.02

    def test_lookback_offsets_span_multiple_frames(self):
        sc = Scenario(width=256, height=128, n_frames=8,
                      objects=(ObjectSpec(shape="rectangle", size=(20, 14),
                                          start=(40, 60), velocity=(3.0, 1.0)),))
        gt = generate(sc)
        noise = NoiseParams(drop_prob=0.0, fp_prob=0.0, center_jitter_sigma=0.0,
                            offset_noise_sigma=0.0, prev_frame_lookback=2)
        dets = perturb(sc, gt, noise, 0)
        for f in range(2, 8):
            assert dets[f][0].offset == pytest.approx((-6.0, -2.0))
        assert dets[0][0].offset == (0.0, 0.0)
        assert dets[1][0].offset == (0.0, 0.0)  # no frame t-2 yet

    def test_probability_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseParams(drop_prob=1.2)
        with pytest.raises(InvalidInputError):
            NoiseParams(prev_frame_lookback=4)
        for key in ("center_jitter_sigma", "offset_noise_sigma"):
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(InvalidInputError, match=key):
                    NoiseParams(**{key: bad})


def assert_same_detections(got, want):
    """Row-for-row equality of two frames' detections, every float bit for bit."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.frame, a.class_id) == (b.frame, b.class_id)
        assert (np.array([a.score, *a.center, a.depth, *a.offset, a.polygon.area]).tobytes()
                == np.array([b.score, *b.center, b.depth, *b.offset, b.polygon.area]).tobytes())
        assert a.polygon.vertices.tobytes() == b.polygon.vertices.tobytes()


# each noise knob at a non-zero value; the oracle test also sets each to zero
NOISE_KNOBS = {"drop_prob": 0.4, "fp_prob": 0.5, "center_jitter_sigma": 1.0,
               "offset_noise_sigma": 0.5}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_perturb_equals_per_object_oracle(kind):
    sc = build_scenario(kind, 3, 16, 288, 160, 21)
    gt = generate(sc)
    for k, on in enumerate(itertools.product((False, True), repeat=len(NOISE_KNOBS))):
        noise = NoiseParams(prev_frame_lookback=1 + k % 3, **{
            key: value if o else 0.0 for (key, value), o in zip(NOISE_KNOBS.items(), on)})
        got = perturb(sc, gt, noise, 40 + k)
        want = reference_perturb(sc, gt, noise, 40 + k)
        assert len(got) == len(want) == len(gt)
        for frame_got, frame_want in zip(got, want):
            assert_same_detections(frame_got, frame_want)


def test_identity_noise_linear_tracking_is_perfect():
    sc = build_scenario("linear", 3, 20, 288, 160, 12)
    gt = generate(sc)
    dets = perturb(sc, gt, IDENTITY_NOISE, 13)
    tracks = run_sequence(dets, TrackerConfig())
    hyp = emitted_instances(tracks)
    hyp_frames = [[(tid, poly, depth) for tid, _, poly, depth in hyp.get(f, [])]
                  for f in range(sc.n_frames)]
    gt_frames = [[(g.id, g.polygon, g.depth) for g in fr] for fr in gt]
    report = evaluate_polygons(gt_frames, hyp_frames, sc.width, sc.height)
    assert report.idsw == 0
    assert report.motsa == 1.0
    assert report.smotsa == pytest.approx(1.0)


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        build_scenario("spiral", 1, 10, 128, 128, 0)
    with pytest.raises(InvalidInputError):
        Scenario(width=64, height=64, n_frames=1, objects=())


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("width,height", [(4, 4), (20, 48), (48, 6)])
def test_small_images_build_or_are_rejected(kind, width, height):
    for seed in range(3):
        try:
            scenario = build_scenario(kind, 3, 10, width, height, seed)
        except InvalidInputError as exc:
            assert f"image width {width}" in str(exc)
            continue
        assert isinstance(scenario, Scenario)
        try:
            generate(scenario)
        except InvalidInputError:
            pass


@pytest.mark.parametrize("kind,width,height", [
    ("random_walk", 20, 48), ("linear", 20, 48), ("linear", 4, 4)])
def test_narrow_image_names_its_width(kind, width, height):
    with pytest.raises(InvalidInputError, match=f"image width {width} too small"):
        build_scenario(kind, 3, 10, width, height, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["size", "start", "velocity", "path"])
def test_object_spec_rejects_non_finite_values(field, bad):
    values = dict(shape="ellipse", size=(10.0, 8.0), start=(30.0, 20.0),
                  velocity=(1.0, 0.5), path=np.full((4, 2), 20.0))
    if field == "path":
        values["path"][2, 1] = bad
    else:
        values[field] = (values[field][0], bad)
    with pytest.raises(InvalidInputError, match=f"^object {field} must be finite$"):
        ObjectSpec(**values)


def test_object_spec_checks_shape_and_size():
    with pytest.raises(InvalidInputError, match="^unknown shape 'hexagon'$"):
        ObjectSpec(shape="hexagon", size=(10, 8), start=(30, 20), velocity=(1, 0))
    for size in ((0.0, 8.0), (10.0, -1.0)):
        with pytest.raises(InvalidInputError, match="^object size must be positive$"):
            ObjectSpec(shape="rectangle", size=size, start=(30, 20), velocity=(1, 0))


def test_noise_and_builder_bounds():
    with pytest.raises(InvalidInputError, match="^downsample must be at least 1, got 0$"):
        NoiseParams(downsample=0)
    with pytest.raises(InvalidInputError, match="^need at least one object$"):
        build_scenario("linear", 0, 10, 128, 128, 0)


@pytest.mark.parametrize("rows,message", [
    (np.full((4, 2), 30.0), r"^object 2 path has shape \(4, 2\), expected \(10, 2\)"),
    (np.full((10, 3), 30.0), r"^object 2 path has shape \(10, 3\), expected \(10, 2\)")])
def test_path_must_hold_one_center_per_frame(rows, message):
    fine = ObjectSpec(shape="ellipse", size=(10.0, 8.0), start=(30.0, 20.0),
                      velocity=(0.0, 0.0), path=np.full((10, 2), 30.0))
    bad = ObjectSpec(shape="ellipse", size=(10.0, 8.0), start=(30.0, 20.0),
                     velocity=(0.0, 0.0), path=rows)
    with pytest.raises(InvalidInputError, match=message):
        Scenario(width=64, height=48, n_frames=10, objects=(fine, bad))


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("block_frames", [1, 5])
def test_blocks_of_frames_equal_the_whole_scene(kind, block_frames):
    sc = build_scenario(kind, 3, 23, 288, 160, 7)
    noise = NoiseParams(fp_prob=0.5, prev_frame_lookback=2)
    gt = generate(sc)
    dets = perturb(sc, gt, noise, 11)
    rng = np.random.default_rng(11)
    for start in range(0, sc.n_frames, block_frames):
        frames = range(start, min(start + block_frames, sc.n_frames))
        gt_block = generate(sc, frames)
        assert [[(g.id, g.center, g.depth, g.polygon.vertices.tobytes()) for g in e]
                for e in gt_block] == [
                    [(g.id, g.center, g.depth, g.polygon.vertices.tobytes()) for g in e]
                    for e in gt[start:frames.stop]]
        for got, want in zip(perturb(sc, gt_block, noise, rng, start), dets[start:frames.stop],
                             strict=True):
            assert_same_detections(got, want)
