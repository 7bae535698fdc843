import itertools
import math
import time

import numpy as np
import pytest

from polymot.errors import InvalidInputError
from polymot.geometry import Point2, Polygon
from polymot.simulator import (IDENTITY_NOISE, SCENARIO_KINDS, NoiseParams,
                               build_scenario, generate, perturb)
from polymot.tracker import (Detection, DetectionBlock, Track, TrackerConfig,
                             TrackState, Tracker, associate, run_sequence)
from polymot.ukf import UkfParams

from oracles import LinearKalman


def ring_at(cx, cy, half=8.0):
    return Polygon(np.array([[cx - half, cy - half], [cx + half, cy - half],
                             [cx + half, cy + half], [cx - half, cy + half]]))


def det(frame, cx, cy, offset=(0.0, 0.0), score=0.9, class_id=0, half=8.0):
    return Detection(frame=frame, class_id=class_id, score=score,
                     center=Point2(cx, cy), polygon=ring_at(cx, cy, half),
                     depth=1.0, offset=offset)


def track_at(tid, cx, cy, class_id=0):
    from polymot import ukf
    means, covs = ukf.batch_birth(np.array([[cx, cy]]), ukf.UkfParams())
    return Track(id=tid, class_id=class_id, state=TrackState.ACTIVE,
                 ref_center=Point2(cx, cy), polygon=ring_at(cx, cy),
                 filter_mean=means[0], filter_cov=covs[0])


class TestAssociate:
    def test_offset_predicts_previous_position(self):
        d = det(1, 10, 10, offset=(-2, -1))
        t = track_at(1, 8, 9)
        out = associate([d], [t])
        assert out.matches == [(0, 1)]
        assert out.unmatched_detections == [] and out.unmatched_tracks == []

    def test_no_tracks(self):
        out = associate([det(0, 5, 5)], [])
        assert out.matches == [] and out.unmatched_detections == [0]

    def test_no_detections(self):
        out = associate([], [track_at(3, 1, 1)])
        assert out.unmatched_tracks == [3]

    def test_greedy_equals_brute_force_on_unambiguous(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            # three well-separated cluster centers; each det lands near its
            # own track, so nearest neighbors are unambiguous
            centers = rng.uniform(40, 460, (3, 2))
            while np.min(
                    [np.linalg.norm(a - b) for a, b in itertools.combinations(centers, 2)]) < 80:
                centers = rng.uniform(40, 460, (3, 2))
            tracks = [track_at(i + 1, *centers[i]) for i in range(3)]
            dets = []
            for i in range(3):
                jitter = rng.uniform(-4, 4, 2)
                pos = centers[i] + jitter
                dets.append(det(5, pos[0], pos[1], offset=(-jitter[0], -jitter[1]),
                                score=float(rng.uniform(0.5, 1.0))))
            out = associate(dets, tracks)
            cost = np.array([[math.hypot(d.predicted_previous()[0] - t.ref_center[0],
                                         d.predicted_previous()[1] - t.ref_center[1])
                              for t in tracks] for d in dets])
            best_perm = min(itertools.permutations(range(3)),
                            key=lambda perm: sum(cost[i, perm[i]] for i in range(3)))
            expected = sorted((i, tracks[best_perm[i]].id) for i in range(3))
            assert sorted(out.matches) == expected

    def test_class_exclusive(self):
        d = det(0, 10, 10, class_id=1)
        t = track_at(1, 10, 10, class_id=2)
        out = associate([d], [t])
        assert out.matches == []

    def test_distance_gate(self):
        d = det(0, 10, 10, half=5.0)  # area 100 -> gate 10
        near = track_at(1, 18, 10)
        far = track_at(2, 30, 10)
        assert associate([d], [near]).matches == [(0, 1)]
        assert associate([d], [far]).matches == []

    def test_score_priority_on_contested_track(self):
        t = track_at(1, 0, 0)
        weak = det(0, 1.0, 0, score=0.5)
        strong = det(0, 2.0, 0, score=0.9)  # farther but higher score
        out = associate([weak, strong], [t])
        assert out.matches == [(1, 1)]

    def test_equal_scores_take_lower_detection_index_first(self):
        t = track_at(1, 0.0, 0.0)
        first = det(0, 1.0, 0, score=0.8)
        second = det(0, 0.5, 0, score=0.8)  # closer but later in the list
        out = associate([first, second], [t])
        assert out.matches == [(0, 1)]

    def test_equidistant_tracks_take_lower_id(self):
        d = det(0, 10.0, 10.0)
        left = track_at(4, 6.0, 10.0)
        right = track_at(2, 14.0, 10.0)
        out = associate([d], [left, right])
        assert out.matches == [(0, 2)]

    def test_mixed_frames_rejected(self):
        with pytest.raises(InvalidInputError):
            associate([det(0, 1, 1), det(1, 2, 2)], [])

    def test_matching_is_injective_and_gated(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dets = [det(2, *rng.uniform(20, 300, 2),
                        offset=tuple(rng.normal(0, 3, 2)),
                        score=float(rng.uniform(0.3, 1.0)),
                        class_id=int(rng.integers(0, 2)),
                        half=float(rng.uniform(3, 10)))
                    for _ in range(int(rng.integers(0, 8)))]
            tracks = [track_at(i + 1, *rng.uniform(20, 300, 2),
                               class_id=int(rng.integers(0, 2)))
                      for i in range(int(rng.integers(0, 8)))]
            out = associate(dets, tracks)
            det_ids = [d for d, _ in out.matches]
            trk_ids = [t for _, t in out.matches]
            assert len(set(det_ids)) == len(det_ids)
            assert len(set(trk_ids)) == len(trk_ids)
            assert set(det_ids) | set(out.unmatched_detections) == set(range(len(dets)))
            assert set(trk_ids) | set(out.unmatched_tracks) == {t.id for t in tracks}
            by_id = {t.id: t for t in tracks}
            for di, tid in out.matches:
                d, t = dets[di], by_id[tid]
                assert d.class_id == t.class_id
                dist = math.hypot(d.predicted_previous()[0] - t.ref_center[0],
                                  d.predicted_previous()[1] - t.ref_center[1])
                assert dist <= math.sqrt(d.polygon.area) + 1e-9


class TestStep:
    def test_empty_first_frame(self):
        tr = Tracker()
        assert tr.step([], 0) == []
        assert tr.tracks == []

    def test_score_threshold_returns_none(self):
        tr = Tracker(TrackerConfig(score_min=0.5))
        out = tr.step([det(0, 5, 5, score=0.2), det(0, 40, 40, score=0.9)], 0)
        assert out == [None, 1]

    def test_duplicate_frame_rejected(self):
        tr = Tracker()
        tr.step([det(0, 5, 5)], 0)
        with pytest.raises(InvalidInputError):
            tr.step([det(0, 6, 5)], 0)

    def test_wrong_frame_detection_rejected(self):
        tr = Tracker()
        with pytest.raises(InvalidInputError):
            tr.step([det(3, 5, 5)], 4)

    def test_occlusion_recovered_with_ukf(self):
        # constant velocity 4 px/frame, hidden for 3 frames, reappears on path
        tr = Tracker(TrackerConfig(use_ukf=True))
        v = 4.0
        for f in range(8):
            ids = tr.step([det(f, 10 + v * f, 20, offset=(-v, 0))], f)
        assert ids == [1]
        for f in range(8, 11):
            tr.step([], f)
        ids = tr.step([det(11, 10 + v * 11, 20, offset=(-v, 0))], 11)
        assert ids == [1]

    def test_occlusion_switches_id_without_ukf(self):
        # reappearance displacement (5 frames x 4 px = 20) exceeds the
        # 16 px gate of the 16x16 polygon
        tr = Tracker(TrackerConfig(use_ukf=False))
        v = 4.0
        for f in range(8):
            tr.step([det(f, 10 + v * f, 20, offset=(-v, 0))], f)
        for f in range(8, 13):
            tr.step([], f)
        ids = tr.step([det(13, 10 + v * 13, 20, offset=(-v, 0))], 13)
        assert ids == [2]

    def test_frozen_ref_constant_without_ukf(self):
        tr = Tracker(TrackerConfig(use_ukf=False))
        tr.step([det(0, 30, 40)], 0)
        ref0 = tr.tracks[0].ref_center
        for f in range(1, 6):
            tr.step([], f)
            assert tr.tracks[0].ref_center == ref0
            assert tr.tracks[0].state is TrackState.FROZEN

    def test_frozen_ref_moves_with_ukf(self):
        tr = Tracker(TrackerConfig(use_ukf=True))
        for f in range(6):
            tr.step([det(f, 10 + 3.0 * f, 20, offset=(-3.0, 0))], f)
        tr.step([], 6)
        x1 = tr.tracks[0].ref_center.x
        tr.step([], 7)
        x2 = tr.tracks[0].ref_center.x
        assert x2 > x1 > 10 + 3.0 * 5

    def test_termination_after_max_age_plus_one_misses(self):
        cfg = TrackerConfig(max_age=4, use_ukf=False)
        tr = Tracker(cfg)
        tr.step([det(0, 10, 10)], 0)
        for f in range(1, 5):  # misses 1..4 -> still frozen
            tr.step([], f)
            assert tr.tracks and tr.tracks[0].state is TrackState.FROZEN
            assert tr.tracks[0].age == f
        tr.step([], 5)  # miss 5 = max_age + 1 -> terminated
        assert tr.tracks == []
        assert tr.finished[0].state is TrackState.TERMINATED

    def test_frozen_track_rematchable_through_last_allowed_miss(self):
        cfg = TrackerConfig(max_age=3, use_ukf=False)
        tr = Tracker(cfg)
        tr.step([det(0, 10, 10)], 0)
        for f in range(1, 4):
            tr.step([], f)
        ids = tr.step([det(4, 11, 10)], 4)  # 4th consecutive miss frame
        assert ids == [1]
        assert tr.tracks[0].state is TrackState.ACTIVE

    def test_ids_strictly_increase_and_never_reused(self):
        tr = Tracker(TrackerConfig(max_age=1, use_ukf=False))
        seen = []
        rng = np.random.default_rng(4)
        for f in range(20):
            dets = [det(f, 50 + 200 * k + rng.uniform(-1, 1), 50)
                    for k in range(rng.integers(0, 3))]
            ids = tr.step(dets, f)
            seen.extend(i for i in ids if i is not None)
        all_ids = [t.id for t in tr.all_tracks()]
        assert all_ids == sorted(set(all_ids))
        assert set(seen) <= set(all_ids)


class TestRunSequence:
    def test_single_object_single_track(self):
        frames = [[det(f, 10 + 2.0 * f, 20, offset=(-2.0, 0))] for f in range(10)]
        tracks = run_sequence(frames)
        assert len(tracks) == 1
        active = [h for h in tracks[0].history if isinstance(h[1], Detection)]
        assert len(active) == 10

    def test_determinism(self):
        sc = build_scenario("random_walk", 3, 25, 256, 160, 5)
        dets = perturb(sc, generate(sc), NoiseParams(), 99)
        a = run_sequence(dets)
        b = run_sequence(dets)
        assert [t.id for t in a] == [t.id for t in b]
        for ta, tb in zip(a, b):
            assert len(ta.history) == len(tb.history)
            assert ta.ref_center == tb.ref_center
            assert np.array_equal(ta.filter_mean, tb.filter_mean)

    def test_filters_match_linear_kalman_replayed_on_history(self):
        # default noise drops and adds detections, so tracks are born on
        # different frames, coast while frozen and some terminate
        sc = build_scenario("random_walk", 5, 80, 320, 200, 13)
        dets = perturb(sc, generate(sc), NoiseParams(), 14)
        p = UkfParams(q_accel=0.3)
        tracks = run_sequence(dets, TrackerConfig(max_age=6, ukf=p))
        assert any(t.state is TrackState.TERMINATED for t in tracks)
        assert any(isinstance(e, Point2) for t in tracks for _, e in t.history)
        for t in tracks:
            (_, first), *rest = t.history
            kf = LinearKalman(*first.center, p.q_accel, p.r_pos, p.p_vel0, p.p_acc0)
            for _, entry in rest:
                kf.predict()
                if isinstance(entry, Detection):
                    kf.update(*entry.center)
            if t.state is TrackState.TERMINATED:
                kf.predict()  # the frame it aged out in predicted it once more
            assert np.abs(t.filter.mean - kf.x).max() < 1e-9
            assert np.abs(t.filter.cov - kf.P).max() < 1e-9

    def test_boundary_exit_new_id_with_ukf(self):
        sc = build_scenario("boundary_exit_enter", 2, 36, 288, 160, 0)
        dets = perturb(sc, generate(sc), IDENTITY_NOISE, 1)
        with_ukf = run_sequence(dets, TrackerConfig(use_ukf=True,
                                                    ukf=UkfParams(q_accel=0.01)))
        without = run_sequence(dets, TrackerConfig(use_ukf=False))
        # predicted out of frame -> the enterer gets a fresh id; a stale
        # frozen track at the border captures it instead
        assert len(with_ukf) == 2
        assert len(without) == 1

    def test_crossing_lifecycle_invariants(self):
        sc = build_scenario("crossing", 2, 30, 288, 160, 3)
        dets = perturb(sc, generate(sc), IDENTITY_NOISE, 7)
        tracks = run_sequence(dets)
        for t in tracks:
            frames_seen = [f for f, _ in t.history]
            assert frames_seen == sorted(frames_seen)
            assert t.state in (TrackState.ACTIVE, TrackState.FROZEN,
                               TrackState.TERMINATED)

    def test_map_gap_without_live_tracks_is_skipped(self):
        start = time.perf_counter()
        tracks = run_sequence({0: [det(0, 15, 15)], 10 ** 9: [det(10 ** 9, 15, 15)]},
                              TrackerConfig(max_age=3))
        assert time.perf_counter() - start < 1.0
        assert [t.id for t in tracks] == [1, 2]
        assert [[f for f, _ in t.history] for t in tracks] == [[0, 1, 2, 3], [10 ** 9]]

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_map_of_non_empty_frames_tracks_like_the_list(self, kind):
        sc = build_scenario(kind, 4, 40, 320, 200, 6)
        frames = perturb(sc, generate(sc), NoiseParams(drop_prob=0.7, fp_prob=0.05), 8)
        # the last frame stays in the map, so both end on the same frame
        last = len(frames) - 1
        present = {f: rows for f, rows in enumerate(frames) if len(rows) or f == last}
        assert len(present) < len(frames)  # the map leaves frames out
        cfg = TrackerConfig(max_age=2)
        a, b = run_sequence(frames, cfg), run_sequence(present, cfg)
        for ta, tb in zip(a, b, strict=True):
            assert (ta.id, ta.state) == (tb.id, tb.state)
            assert [f for f, _ in ta.history] == [f for f, _ in tb.history]
            assert np.array_equal(ta.filter_mean, tb.filter_mean)


class TestDetectionBlock:
    def test_list_of_detections_keeps_its_records(self):
        dets = [det(2, 10, 10, offset=(-1, 2), score=0.4), det(2, 40, 30, class_id=3)]
        block = DetectionBlock.of(dets)
        assert len(block) == 2 and list(block) == dets and block[1] is dets[1]
        assert block.frame.tolist() == [2, 2] and block.class_id.tolist() == [0, 3]
        assert block.prev.tolist() == [[9.0, 12.0], [40.0, 30.0]]
        assert block.area.tolist() == [256.0, 256.0]
        assert np.array_equal(block.rings, np.stack([d.polygon.vertices for d in dets]))
        assert block.take(np.array([1]))[0] is dets[1]
        assert DetectionBlock.of(block) is block

    def test_rows_of_columns_are_detections(self):
        dets = [det(0, 10, 10), det(0, 40, 30, score=0.5), det(3, 5, 6, offset=(1, 1))]
        rows = DetectionBlock.of(dets)
        block = DetectionBlock(rows.frame, rows.class_id, rows.score, rows.center,
                               rows.offset, rows.depth, rows.rings)
        assert list(block.by_frame()) == [0, 3]
        assert [len(v) for v in block.by_frame().values()] == [2, 1]
        for got, want in zip(block, dets):
            assert (got.frame, got.class_id, got.score, got.center, got.depth, got.offset) == (
                want.frame, want.class_id, want.score, want.center, want.depth, want.offset)
            assert np.array_equal(got.polygon.vertices, want.polygon.vertices)
            assert got.polygon.area == want.polygon.area
        assert block.first_invalid() is None
        bad = DetectionBlock(rows.frame, rows.class_id, np.array([0.5, 2.0, 0.5]),
                             rows.center, rows.offset, rows.depth, rows.rings)
        assert bad.first_invalid() == (1, "score 2.0 outside [0, 1]")

    def test_blocks_and_lists_track_alike(self):
        sc = build_scenario("random_walk", 6, 60, 320, 200, 3)
        blocks = perturb(sc, generate(sc), NoiseParams(), 4)
        lists = [list(frame) for frame in blocks]
        for cfg in (TrackerConfig(max_age=5), TrackerConfig(use_ukf=False, score_min=0.5)):
            a, b = Tracker(cfg), Tracker(cfg)
            for f, (rows, dets) in enumerate(zip(blocks, lists)):
                assert a.step(rows, f) == b.step(dets, f)
            for ta, tb in zip(a.all_tracks(), b.all_tracks(), strict=True):
                assert (ta.id, ta.state, ta.ref_center) == (tb.id, tb.state, tb.ref_center)
                assert [f for f, _ in ta.history] == [f for f, _ in tb.history]
                assert np.array_equal(ta.filter_mean, tb.filter_mean)

    def test_associate_takes_blocks(self):
        tracks = [track_at(1, 8, 9), track_at(4, 40, 40)]
        rows = DetectionBlock.of([det(1, 41, 40), det(1, 10, 10, offset=(-2, -1))])
        out = associate(rows, tracks)
        assert out.matches == [(0, 4), (1, 1)]
        assert out.unmatched_detections == [] and out.unmatched_tracks == []
        assert out.det.tolist() == [0, 1] and out.trk.tolist() == [1, 0]


def test_noisy_long_sequence_keeps_lifecycle_invariants():
    # default noise (40% drops, 10% false positives) over a long random
    # walk: ids stay unique, histories stay ordered, terminated tracks
    # never emit again
    sc = build_scenario("random_walk", 4, 200, 320, 200, 31)
    dets = perturb(sc, generate(sc), NoiseParams(), 32)
    for use_ukf in (True, False):
        tracks = run_sequence(dets, TrackerConfig(use_ukf=use_ukf, max_age=8))
        ids = [t.id for t in tracks]
        assert ids == sorted(set(ids))
        for t in tracks:
            frames = [f for f, _ in t.history]
            assert frames == sorted(frames)
            assert len(set(frames)) == len(frames)
            if t.state is TrackState.TERMINATED:
                misses = 0
                for _, entry in reversed(t.history):
                    if isinstance(entry, Detection):
                        break
                    misses += 1
                assert misses == 8  # frozen history entries before the cut


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TrackerConfig(max_age=0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="match_kappa"):
            TrackerConfig(match_kappa=bad)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(InvalidInputError, match="score_min"):
            TrackerConfig(score_min=bad)


def test_detection_validation():
    with pytest.raises(InvalidInputError):
        det(0, 5, 5, score=1.5)
    with pytest.raises(InvalidInputError):
        Detection(frame=0, class_id=0, score=0.5, center=Point2(50, 50),
                  polygon=ring_at(10, 10), depth=1.0, offset=(0, 0))
