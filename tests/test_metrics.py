import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymot.errors import InvalidInputError
from polymot.geometry import Polygon, rasterize
from polymot.metrics import (Frame, InstanceBlock, MetricsReport, evaluate,
                             evaluate_polygons, flatten_frame, match_frame, run_pixels)

from polymot.rle import decode_runs, encode_runs

from oracles import count_tracking_events, rasterize_by_ray_cast, reference_rle_string


def rect(x0, y0, x1, y1):
    return Polygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], float))


def rect_mask(x0, y0, x1, y1, w=32, h=32):
    return rasterize(rect(x0, y0, x1, y1), w, h)


def label_frame(masks, shape=(32, 32)):
    """Compose an id -> disjoint mask dict into a run frame."""
    ids = sorted(masks)
    label = np.zeros(shape, np.int32)
    for k, iid in enumerate(ids, start=1):
        label[masks[iid]] = k
    return Frame.from_label(label, ids)


def label_image(frame):
    """Paint a run frame into its label image (0 = background, k = ids[k - 1])."""
    flat = np.zeros(frame.shape[0] * frame.shape[1], np.int32)
    flat[run_pixels(frame.starts, frame.stops)] = np.repeat(
        frame.labels, frame.stops - frame.starts)
    return flat.reshape(frame.shape, order="F")


def instance_masks(frame):
    """The id -> mask dict of a run frame."""
    label = label_image(frame)
    return {iid: label == k for k, iid in enumerate(frame.ids, start=1)}


def assert_same_frame(got, want):
    assert got.shape == want.shape and got.ids == want.ids
    for field in ("starts", "stops", "labels"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def assert_valid_runs(frame):
    """Runs sorted, disjoint, non-empty and maximal per label; ids ascend."""
    starts, stops, labels = frame.starts, frame.stops, frame.labels
    assert (stops > starts).all()
    assert (starts[1:] >= stops[:-1]).all()
    assert not ((starts[1:] == stops[:-1]) & (labels[1:] == labels[:-1])).any()
    assert set(labels.tolist()) == set(range(1, len(frame.ids) + 1))
    assert frame.ids == sorted(set(frame.ids))


class TestFlatten:
    def test_disjoint_polygons_both_present(self):
        masks = instance_masks(flatten_frame([(1, rect(2, 2, 8, 8), 5.0),
                                              (2, rect(12, 12, 20, 20), 3.0)],
                                             32, 32))
        assert set(masks) == {1, 2}
        assert masks[1].sum() == 36 and masks[2].sum() == 64

    def test_full_overlap_near_hides_far(self):
        frame = flatten_frame([(1, rect(4, 4, 12, 12), 1.0),   # nearer
                               (2, rect(4, 4, 12, 12), 9.0)],  # farther
                              32, 32)
        assert frame.ids == [1]  # the hidden instance has no visible pixels
        assert set(np.unique(label_image(frame))) == {0, 1}

    def test_partial_overlap_subtracts_near_from_far(self):
        near = (1, rect(8, 4, 16, 12), 1.0)
        far = (2, rect(4, 4, 12, 12), 9.0)
        masks = instance_masks(flatten_frame([near, far], 32, 32))
        a = rect_mask(8, 4, 16, 12)
        b = rect_mask(4, 4, 12, 12)
        assert (masks[1] == a).all()
        assert (masks[2] == (b & ~a)).all()

    def test_disjointness(self):
        rng = np.random.default_rng(0)
        tris = []
        for i in range(6):
            x, y = rng.uniform(2, 20, 2)
            tris.append((i + 1, rect(x, y, x + 8, y + 8), float(rng.uniform(0, 9))))
        frame = flatten_frame(tris, 32, 32)
        assert_valid_runs(frame)
        label, ids = label_image(frame), frame.ids
        # every label is an id with visible pixels, and none is left over
        assert set(np.unique(label)) == set(range(len(ids) + 1))
        # the same frame painted mask by mask, farthest first
        expected = np.zeros((32, 32), int)
        for iid, poly, _ in sorted(tris, key=lambda t: -t[2]):
            expected[rasterize(poly, 32, 32)] = iid
        assert (np.array([0, *ids])[label] == expected).all()

    def test_id_zero_does_not_flood_the_frame(self):
        frame = flatten_frame([(0, rect(0, 0, 4, 4), 1.0)], 16, 16)
        label = label_image(frame)
        assert frame.ids == [0]
        assert np.count_nonzero(label == 1) == 16
        assert np.count_nonzero(label) == 16

    def test_negative_ids_ascend(self):
        frame = flatten_frame([(3, rect(0, 0, 4, 4), 1.0),
                               (-2, rect(8, 8, 12, 12), 1.0)], 16, 16)
        label = label_image(frame)
        assert frame.ids == [-2, 3]
        assert np.count_nonzero(label == 1) == np.count_nonzero(label == 2) == 16

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate id 7"):
            flatten_frame([(7, rect(0, 0, 4, 4), 1.0), (7, rect(8, 8, 12, 12), 2.0)],
                          16, 16)

    def test_missing_depth_rejected(self):
        with pytest.raises(InvalidInputError):
            flatten_frame([(1, rect(0, 0, 4, 4), float("nan"))], 16, 16)


@st.composite
def polygon_frames(draw):
    """A frame of polygons of 3 to 40 vertices, some partly or wholly outside
    it, some with horizontal edges on rows of pixel centers, self-crossing
    rings, tied depths and copies hidden behind their original."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    coord = st.floats(-6.0, 20.0, allow_nan=False)
    instances = []
    for iid in range(draw(st.integers(0, 5))):
        n = draw(st.integers(3, 40))
        ring = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
        if draw(st.booleans()):
            ring[:, 1] = np.floor(ring[:, 1]) + 0.5  # edges along center rows
        if draw(st.integers(0, 5)) == 0:
            ring[:, 0] += 30.0  # wholly outside
        depth = float(draw(st.integers(0, 2)))
        instances.append((iid, ring, depth))
        if draw(st.integers(0, 4)) == 0:
            instances.append((iid + 100, ring.copy(), depth + 1.0))  # hidden
    return h, w, instances


class TestFlattenAgainstOracle:
    @given(polygon_frames())
    @settings(max_examples=80, deadline=None)
    def test_frame_matches_painted_ray_cast(self, frame_spec):
        h, w, instances = frame_spec
        owner = np.full((h, w), -1)
        for iid, ring, _ in sorted(instances, key=lambda it: (-it[2], it[0])):
            owner[rasterize_by_ray_cast(ring, w, h)] = iid
        frame = flatten_frame([(iid, Polygon(ring), depth)
                               for iid, ring, depth in instances], w, h)
        assert frame.ids == sorted(set(owner[owner >= 0].tolist()))
        assert_valid_runs(frame)
        assert (np.array([-1, *frame.ids])[label_image(frame)] == owner).all()

    def test_rings_of_fewer_than_three_vertices_cover_nothing(self):
        segment = Polygon(np.array([[1.2, 0.3], [6.7, 7.9]]))
        frame = flatten_frame([(1, segment, 1.0), (2, rect(2, 2, 5, 5), 2.0)], 8, 8)
        assert frame.ids == [2]


class TestMatchFrame:
    def test_identical_sets(self):
        gt = label_frame({1: rect_mask(2, 2, 10, 10), 2: rect_mask(14, 14, 22, 22)})
        fm = match_frame(gt, gt)
        assert sorted((g, h) for g, h, _ in fm.pairs) == [(1, 1), (2, 2)]
        assert all(iou == 1.0 for _, _, iou in fm.pairs)
        assert fm.fp_ids == [] and fm.fn_ids == []

    def test_shift_to_exactly_point_four_iou_is_fp_plus_fn(self):
        # 7x8 box shifted by 3: inter 4*8 = 32, union 10*8 = 80, IoU = 0.4
        g, h = rect_mask(2, 2, 9, 10), rect_mask(5, 2, 12, 10)
        assert (g & h).sum() / (g | h).sum() == 0.4
        fm = match_frame(label_frame({1: g}), label_frame({7: h}))
        assert fm.pairs == [] and fm.fp_ids == [7] and fm.fn_ids == [1]

    def test_extra_hypothesis_is_fp(self):
        gt = label_frame({1: rect_mask(2, 2, 10, 10)})
        hyp = label_frame({1: rect_mask(2, 2, 10, 10), 2: rect_mask(20, 20, 28, 28)})
        fm = match_frame(gt, hyp)
        assert fm.pairs == [(1, 1, 1.0)] and fm.fp_ids == [2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            match_frame(label_frame({}), label_frame({}, shape=(16, 32)))

    def test_all_pairs_above_threshold(self):
        gt = label_frame({1: rect_mask(2, 2, 10, 10)})
        hyp = label_frame({9: rect_mask(3, 2, 11, 10)})  # IoU = 56/72 ~ 0.78
        fm = match_frame(gt, hyp)
        assert fm.pairs[0][2] > 0.5

    def test_pairs_sorted_by_iou_then_ids(self):
        gt = label_frame({1: rect_mask(2, 2, 10, 10), 2: rect_mask(14, 2, 22, 10),
                          3: rect_mask(2, 14, 10, 22)})
        hyp = label_frame({5: rect_mask(3, 2, 11, 10), 6: rect_mask(14, 2, 22, 10),
                           4: rect_mask(2, 14, 10, 22)})
        fm = match_frame(gt, hyp)
        assert [(g, h) for g, h, _ in fm.pairs] == [(2, 6), (3, 4), (1, 5)]


class TestEvaluate:
    def test_toy_id_swap_counts_two_switches(self):
        a0, b0 = rect_mask(2, 2, 10, 10), rect_mask(18, 2, 26, 10)
        gt = [label_frame({1: a0, 2: b0}), label_frame({1: a0, 2: b0})]
        # deliberate swap in frame 2
        hyp = [label_frame({5: a0, 6: b0}), label_frame({6: a0, 5: b0})]
        report = evaluate(gt, hyp)
        assert report.idsw == 2
        assert report.tp == 4 and report.fp == 0 and report.fn == 0

    def test_self_evaluation_is_perfect(self):
        rng = np.random.default_rng(1)
        frames = []
        for _ in range(4):
            fr = {}
            occupied = np.zeros((32, 32), bool)
            for i in range(3):
                x, y = rng.integers(2, 18, 2)
                m = rect_mask(x, y, x + 6, y + 6) & ~occupied
                occupied |= m
                if m.any():
                    fr[i + 1] = m
            frames.append(label_frame(fr))
        report = evaluate(frames, frames)
        assert report.tp == report.gt_total and report.fp == 0
        assert report.fn == 0 and report.idsw == 0
        assert report.motsa == 1.0 and report.motsp == 1.0
        assert report.smotsa == pytest.approx(1.0)

    def test_matches_event_counter_on_random_suite(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n_frames = int(rng.integers(1, 4))
            gt_frames, hyp_frames = [], []
            for _ in range(n_frames):
                gt, hyp = {}, {}
                for side, base in ((gt, 1), (hyp, 100)):
                    occupied = np.zeros((32, 32), bool)
                    for i in range(int(rng.integers(0, 4))):
                        x, y = rng.integers(0, 22, 2)
                        m = rect_mask(x, y, x + 7, y + 7) & ~occupied
                        occupied |= m
                        if m.any():
                            side[i + base] = m
                gt_frames.append(gt)
                hyp_frames.append(hyp)
            report = evaluate([label_frame(f) for f in gt_frames],
                              [label_frame(f) for f in hyp_frames])
            expected = count_tracking_events(gt_frames, hyp_frames)
            assert report.tp == expected["tp"]
            assert report.fp == expected["fp"]
            assert report.fn == expected["fn"]
            assert report.idsw == expected["idsw"]
            assert report.soft_tp == pytest.approx(expected["soft_tp"])

    def test_frame_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            evaluate([label_frame({})], [label_frame({}), label_frame({})])

    def test_smotsa_never_exceeds_motsa(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = label_frame({1: rect_mask(2, 2, 12, 12)})
            dx = int(rng.integers(0, 4))
            hyp = label_frame({1: rect_mask(2 + dx, 2, 12 + dx, 12)})
            r = evaluate([gt], [hyp])
            assert r.smotsa <= r.motsa + 1e-12


class TestReportArithmetic:
    def test_score_formulas(self):
        r = MetricsReport.from_counts(tp=8, fp=2, fn=2, idsw=1, soft_tp=6.5)
        assert r.gt_total == 10
        assert r.recall == pytest.approx(0.8)
        assert r.precision == pytest.approx(0.8)
        assert r.motsa == pytest.approx((8 - 2 - 1) / 10)
        assert r.smotsa == pytest.approx((6.5 - 2 - 1) / 10)
        assert r.modsa == pytest.approx(0.6)
        assert r.motsp == pytest.approx(6.5 / 8)

    def test_zero_denominators(self):
        r = MetricsReport.from_counts(tp=0, fp=0, fn=0, idsw=0, soft_tp=0.0)
        assert r.recall == 0.0 and r.precision == 0.0 and r.motsp == 0.0
        assert r.motsa == 0.0 and r.smotsa == 0.0


def oracle_masks(rects, h, w):
    """id -> visible mask of (id, box, depth) rectangles, painted farthest
    first (ties by id) with the brute-force rasterizer."""
    owner = np.full((h, w), -1)
    for iid, box, _ in sorted(rects, key=lambda r: (-r[2], r[0])):
        owner[rasterize_by_ray_cast(rect(*box).vertices, w, h)] = iid
    return {iid: owner == iid for iid, _, _ in rects if (owner == iid).any()}


def check_against_oracles(h, w, sequence):
    """Flatten each (gt rects, hyp rects) frame of a sequence to runs and
    check the runs, their strings and the scores against the oracles."""
    frames = {"gt": [], "hyp": []}
    masks = {"gt": [], "hyp": []}
    for gt_rects, hyp_rects in sequence:
        for side, rects in (("gt", gt_rects), ("hyp", hyp_rects)):
            frame = flatten_frame([(iid, rect(*box), depth) for iid, box, depth in rects],
                                  w, h)
            want = oracle_masks(rects, h, w)
            assert frame.ids == sorted(want)
            assert_valid_runs(frame)
            runs = frame.instance_runs()
            for iid, (starts, stops) in zip(frame.ids, runs):
                string = encode_runs(starts, stops, h * w)
                assert string == reference_rle_string(want[iid])
                back = decode_runs(string, h * w)
                assert np.array_equal(back[0], starts) and np.array_equal(back[1], stops)
            # the frame a reader rebuilds from the instances' runs, ids in any order
            again = Frame.from_instance_runs((h, w), frame.ids[::-1], runs[::-1])
            assert again.disjoint()
            assert_same_frame(again, frame)
            frames[side].append(frame)
            masks[side].append(want)
    report = evaluate(frames["gt"], frames["hyp"])
    expected = count_tracking_events(masks["gt"], masks["hyp"])
    assert (report.tp, report.fp, report.fn, report.idsw) == (
        expected["tp"], expected["fp"], expected["fn"], expected["idsw"])
    assert report.soft_tp == pytest.approx(expected["soft_tp"], abs=1e-12)


@st.composite
def rect_sets(draw, h, w, first_id):
    """Up to four axis-aligned rectangles on pixel edges, depths with ties."""
    rects = []
    for iid in range(first_id, first_id + draw(st.integers(0, 4))):
        x0 = draw(st.integers(0, w - 1))
        y0 = draw(st.integers(0, h - 1))
        box = (x0, y0, draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h)))
        rects.append((iid, box, float(draw(st.integers(0, 3)))))
    return rects


class TestRunFramesAgainstOracles:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_frames(self, data):
        h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        n_frames = data.draw(st.integers(1, 3))
        check_against_oracles(h, w, [(data.draw(rect_sets(h, w, 1)),
                                      data.draw(rect_sets(h, w, 101)))
                                     for _ in range(n_frames)])

    @pytest.mark.parametrize("h,w,sequence", [
        # whole columns: a run wraps from one column's bottom to the next's top
        (4, 5, [([(1, (1, 0, 3, 4), 1.0), (2, (3, 0, 4, 2), 1.0)],
                 [(7, (1, 0, 3, 4), 1.0)])]),
        # one instance owns pixel 0 and the last pixel, split by a nearer one
        (4, 5, [([(1, (0, 0, 5, 4), 5.0), (2, (1, 1, 3, 3), 1.0)],
                 [(7, (0, 0, 5, 4), 1.0)])]),
        # hidden instances: wholly behind a nearer one, on both sides
        (6, 6, [([(1, (0, 0, 4, 4), 1.0), (2, (1, 1, 3, 3), 2.0)],
                 [(8, (1, 1, 3, 3), 3.0), (7, (0, 0, 4, 4), 3.0)])]),
        # empty frames, alone and between full ones
        (3, 3, [([], [])]),
        (3, 3, [([(1, (0, 0, 2, 2), 1.0)], []), ([], []),
                ([(1, (0, 0, 2, 2), 1.0)], [(5, (0, 0, 2, 3), 1.0)])]),
        # 1 x N and N x 1 frames, with an identity switch
        (1, 7, [([(1, (0, 0, 3, 1), 1.0), (2, (4, 0, 7, 1), 1.0)],
                 [(5, (0, 0, 3, 1), 1.0), (6, (4, 0, 7, 1), 1.0)]),
                ([(1, (0, 0, 3, 1), 1.0), (2, (4, 0, 7, 1), 1.0)],
                 [(6, (0, 0, 3, 1), 1.0), (5, (4, 0, 7, 1), 1.0)])]),
        (7, 1, [([(1, (0, 0, 1, 3), 1.0), (2, (0, 3, 1, 7), 2.0)],
                 [(5, (0, 1, 1, 7), 1.0)])]),
    ], ids=["wrapping-columns", "pixel-0-and-last", "hidden", "empty",
            "empty-between", "1xN", "Nx1"])
    def test_named_cases(self, h, w, sequence):
        check_against_oracles(h, w, sequence)


def test_evaluate_polygons_roundtrip():
    gt = [[(1, rect(2, 2, 10, 10), 4.0)], [(1, rect(4, 2, 12, 10), 4.0)]]
    report = evaluate_polygons(gt, gt, 32, 32)
    assert report.motsa == 1.0 and report.tp == 2


class TestInstanceBlock:
    def records(self):
        return {7: [(2, 1, rect(4, 4, 12, 10), 3.0)],
                3: [(5, 0, rect(0, 0, 6, 6), 1.0), (1, 2, rect(2, 2, 9, 9), 2.0)]}

    def test_mapping_becomes_columns_in_frame_order(self):
        block = InstanceBlock.of(self.records())
        assert block.frame.tolist() == [3, 3, 7]
        assert block.id.tolist() == [5, 1, 2] and block.class_id.tolist() == [0, 2, 1]
        assert block.depth.tolist() == [1.0, 2.0, 3.0]
        assert block.center.tolist() == [[3.0, 3.0], [5.5, 5.5], [8.0, 7.0]]
        assert list(block.by_frame()) == [3, 7]
        rows = list(block.by_frame()[3])
        assert [(g.id, g.class_id, g.depth) for g in rows] == [(5, 0, 1.0), (1, 2, 2.0)]
        assert rows[1].polygon.vertices.tobytes() == rect(2, 2, 9, 9).vertices.tobytes()
        assert rows[1].polygon.area == 49.0

    def test_flatten_reads_a_block_as_its_triples(self):
        for frame, rows in InstanceBlock.of(self.records()).by_frame().items():
            triples = [(iid, poly, depth) for iid, _, poly, depth in self.records()[frame]]
            assert_same_frame(flatten_frame(rows, 16, 12), flatten_frame(triples, 16, 12))

    def test_empty_and_concat(self):
        empty = InstanceBlock.of({})
        assert len(empty) == 0 and empty.rings.shape == (0, 32, 2)
        assert empty.by_frame() == {} and list(empty) == []
        assert flatten_frame(empty, 4, 4).ids == []
        block = InstanceBlock.of(self.records())
        joined = InstanceBlock.concat([block.take(slice(2, 3)), block.take(slice(1, 1)),
                                       block.take(slice(0, 2))])
        assert joined.frame.tolist() == [7, 3, 3] and joined.id.tolist() == [2, 5, 1]
        assert len(InstanceBlock.concat([])) == 0

    def test_rings_must_share_a_vertex_count(self):
        triangle = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]))
        with pytest.raises(InvalidInputError, match="share a vertex count"):
            InstanceBlock.of({0: [(1, 0, triangle, 1.0), (2, 0, rect(0, 0, 2, 2), 2.0)]})

    def test_non_finite_depth_names_the_instance(self):
        block = InstanceBlock.of({0: [(4, 0, rect(0, 0, 2, 2), 1.0),
                                      (9, 0, rect(2, 2, 4, 4), None)]})
        with pytest.raises(InvalidInputError, match="^instance 9 lacks a finite depth$"):
            flatten_frame(block, 8, 8)

