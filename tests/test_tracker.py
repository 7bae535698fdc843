import gc
import itertools
import math
import time
import tracemalloc

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


@pytest.fixture
def stepped(monkeypatch):
    """The (tracker, frame) of every Tracker.step call, in call order."""
    calls = []
    step = Tracker.step

    def record(self, detections, frame):
        calls.append((self, frame))
        return step(self, detections, frame)

    monkeypatch.setattr(Tracker, "step", record)
    return calls


def live_state(tracker):
    """Each live track's id, state, age, reference center and filter."""
    return [(t.id, t.state, t.age, t.ref_center, t.filter_mean.tolist(),
             t.filter_cov.tolist()) for t in tracker.tracks]


def kept_rows(frames, config):
    """Each frame's kept detections with the ids step returned: (frame, id,
    class, depth, ring) per row, a fresh Tracker stepping every frame."""
    tracker, out = Tracker(config), []
    for f, rows in enumerate(frames):
        for d, tid in zip(rows, tracker.step(rows, f)):
            if tid is not None:
                out.append((f, tid, d.class_id, d.depth, d.polygon.vertices))
    return out


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
        seen, gone = set(), set()
        rng = np.random.default_rng(4)
        for f in range(20):
            dets = [det(f, 50 + 200 * k + rng.uniform(-1, 1), 50)
                    for k in range(rng.integers(0, 3))]
            before = {t.id for t in tr.tracks}
            ids = tr.step(dets, f)
            live = [t.id for t in tr.tracks]
            assert live == sorted(set(live))
            born = [i for i in ids if i not in before]
            assert born == sorted(set(born))
            assert all(i > max(seen, default=0) for i in born)
            assert set(ids) <= set(live)
            assert not set(ids) & gone
            seen.update(ids)
            gone |= before - set(live)
        assert gone  # tracks did age out


class TestRunSequence:
    def test_single_object_single_track(self):
        frames = [[det(f, 10 + 2.0 * f, 20, offset=(-2.0, 0))] for f in range(10)]
        rows = run_sequence(frames)
        assert rows.id.tolist() == [1] * 10
        assert rows.frame.tolist() == list(range(10))

    def test_determinism(self):
        sc = build_scenario("random_walk", 3, 25, 256, 160, 5)
        dets = perturb(sc, generate(sc), NoiseParams(), 99)
        a = run_sequence(dets)
        b = run_sequence(dets)
        for name in ("frame", "id", "class_id", "center", "depth", "rings"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        ta, tb = Tracker(), Tracker()
        for f, rows in enumerate(dets):
            assert ta.step(rows, f) == tb.step(rows, f)
            assert live_state(ta) == live_state(tb)

    def test_filters_match_linear_kalman_replayed_on_step_ids(self):
        # default noise drops and adds detections, so tracks are born on
        # different frames, coast while frozen and some terminate
        sc = build_scenario("random_walk", 5, 80, 320, 200, 13)
        dets = perturb(sc, generate(sc), NoiseParams(), 14)
        p = UkfParams(q_accel=0.3)
        tracker = Tracker(TrackerConfig(max_age=6, ukf=p))
        oracles: dict[int, LinearKalman] = {}
        coasted = terminated = 0
        for f, rows in enumerate(dets):
            for kf in oracles.values():
                kf.predict()
            matched = set()
            for d, tid in zip(rows, tracker.step(rows, f)):
                if tid is None:
                    continue
                if tid in oracles:
                    oracles[tid].update(*d.center)
                else:
                    oracles[tid] = LinearKalman(*d.center, p.q_accel, p.r_pos,
                                                p.p_vel0, p.p_acc0)
                matched.add(tid)
            live = {t.id: t for t in tracker.tracks}
            for tid in set(oracles) - set(live):
                del oracles[tid]
                terminated += 1
            coasted += len(set(live) - matched)
            assert set(oracles) == set(live)
            for tid, kf in oracles.items():
                assert np.abs(live[tid].filter.mean - kf.x).max() < 1e-9
                assert np.abs(live[tid].filter.cov - kf.P).max() < 1e-9
        assert terminated and coasted

    def test_boundary_exit_new_id_with_ukf(self):
        sc = build_scenario("boundary_exit_enter", 2, 36, 288, 160, 0)
        dets = perturb(sc, generate(sc), IDENTITY_NOISE, 1)
        with_ukf = run_sequence(dets, TrackerConfig(use_ukf=True,
                                                    ukf=UkfParams(q_accel=0.01)))
        without = run_sequence(dets, TrackerConfig(use_ukf=False))
        # predicted out of frame -> the enterer gets a fresh id; a stale
        # frozen track at the border captures it instead
        assert set(with_ukf.id.tolist()) == {1, 2}
        assert set(without.id.tolist()) == {1}

    def test_crossing_lifecycle_invariants(self):
        sc = build_scenario("crossing", 2, 30, 288, 160, 3)
        dets = perturb(sc, generate(sc), IDENTITY_NOISE, 7)
        rows = run_sequence(dets)
        assert (np.diff(rows.frame) >= 0).all()
        for tid in set(rows.id.tolist()):
            frames_seen = rows.frame[rows.id == tid]
            assert (np.diff(frames_seen) > 0).all()
        tracker = Tracker()
        for f, frame_rows in enumerate(dets):
            matched = set(tracker.step(frame_rows, f))
            for t in tracker.tracks:
                assert t.state is (TrackState.ACTIVE if t.id in matched
                                   else TrackState.FROZEN)
                assert (t.age == 0) == (t.id in matched)

    def test_map_gap_without_live_tracks_is_skipped(self, stepped):
        start = time.perf_counter()
        rows = run_sequence({0: [det(0, 15, 15)], 10 ** 9: [det(10 ** 9, 15, 15)]},
                            TrackerConfig(max_age=3))
        assert time.perf_counter() - start < 1.0
        assert rows.id.tolist() == [1, 2]
        assert rows.frame.tolist() == [0, 10 ** 9]
        # frozen through frame 3, the track ages out in frame 4
        assert [f for _, f in stepped] == [0, 1, 2, 3, 4, 10 ** 9]

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_map_of_non_empty_frames_tracks_like_the_list(self, kind, stepped):
        sc = build_scenario(kind, 4, 40, 320, 200, 6)
        frames = perturb(sc, generate(sc), NoiseParams(drop_prob=0.7, fp_prob=0.05), 8)
        # the last frame stays in the map, so both end on the same frame
        last = len(frames) - 1
        present = {f: rows for f, rows in enumerate(frames) if len(rows) or f == last}
        assert len(present) < len(frames)  # the map leaves frames out
        cfg = TrackerConfig(max_age=2)
        a = run_sequence(frames, cfg)
        tracker_a = stepped[-1][0]
        b = run_sequence(present, cfg)
        tracker_b = stepped[-1][0]
        for name in ("frame", "id", "class_id", "center", "depth", "rings"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert tracker_a is not tracker_b
        assert live_state(tracker_a) == live_state(tracker_b)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_rows_are_the_kept_detections_with_their_step_ids(self, kind):
        sc = build_scenario(kind, 4, 40, 320, 200, 9)
        frames = perturb(sc, generate(sc), NoiseParams(fp_prob=0.5), 10)
        cfg = TrackerConfig(max_age=3, score_min=0.5)
        want = kept_rows(frames, cfg)
        assert 0 < len(want) < sum(map(len, frames))  # some rows fall below score_min
        present = {f: rows for f, rows in enumerate(frames) if len(rows)}
        for got in (run_sequence(frames, cfg), run_sequence(present, cfg)):
            assert len(got) == len(want)
            assert got.frame.tolist() == [w[0] for w in want]
            assert got.id.tolist() == [w[1] for w in want]
            assert got.class_id.tolist() == [w[2] for w in want]
            assert got.depth.tolist() == [w[3] for w in want]
            assert np.array_equal(got.rings, np.stack([w[4] for w in want]))
            assert np.array_equal(got.center, got.rings.mean(axis=1))

    def test_rows_of_differing_vertex_counts_rejected(self):
        five = Polygon(np.array([[0, 0], [8, 0], [8, 8], [4, 10], [0, 8]], float))
        frames = [[det(0, 5, 5)], [Detection(frame=1, class_id=0, score=0.9,
                                             center=Point2(*five.vertices.mean(axis=0)),
                                             polygon=five, depth=1.0, offset=(0, 0))]]
        with pytest.raises(InvalidInputError, match="share a vertex count"):
            run_sequence(frames)

    def test_empty_run_is_an_empty_block(self):
        rows = run_sequence([[], []])
        assert len(rows) == 0 and rows.rings.ndim == 3


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
                assert live_state(a) == live_state(b)

    def test_associate_takes_blocks(self):
        tracks = [track_at(1, 8, 9), track_at(4, 40, 40)]
        rows = DetectionBlock.of([det(1, 41, 40), det(1, 10, 10, offset=(-2, -1))])
        out = associate(rows, tracks)
        assert out.matches == [(0, 4), (1, 1)]
        assert out.unmatched_detections == [] and out.unmatched_tracks == []
        assert out.det.tolist() == [0, 1] and out.trk.tolist() == [1, 0]


def test_noisy_long_sequence_keeps_lifecycle_invariants():
    # default noise (40% drops, 10% false positives) over a long random
    # walk: ids stay unique, a track leaves the tracker exactly max_age + 1
    # frames after its last match, and a track that left never emits again
    sc = build_scenario("random_walk", 4, 200, 320, 200, 31)
    dets = perturb(sc, generate(sc), NoiseParams(), 32)
    for use_ukf in (True, False):
        tracker = Tracker(TrackerConfig(use_ukf=use_ukf, max_age=8))
        last_match: dict[int, int] = {}
        gone = set()
        for f, rows in enumerate(dets):
            ids = [i for i in tracker.step(rows, f) if i is not None]
            assert len(set(ids)) == len(ids)
            assert not set(ids) & gone
            for tid in ids:
                assert tid in last_match or tid > max(last_match, default=0)
                last_match[tid] = f
            live = {t.id for t in tracker.tracks}
            for tid in set(last_match) - live - gone:
                assert f - last_match[tid] == 9  # 8 frozen frames before the cut
                gone.add(tid)
        assert gone


def test_tracker_memory_does_not_grow_with_the_run():
    # one object matched every frame: what the tracker keeps after 2000
    # frames is what it kept after 200
    config = TrackerConfig(use_ukf=True)
    tracker = Tracker(config)

    def run(frames):
        for f in frames:
            x = 10.0 + 0.01 * f
            assert tracker.step([det(f, x, 20.0, offset=(-0.01, 0.0))], f) == [1]

    gc.collect()
    tracemalloc.start()
    try:
        run(range(200))
        gc.collect()
        after_200 = tracemalloc.get_traced_memory()[0]
        run(range(200, 2000))
        gc.collect()
        after_2000 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_2000 <= after_200 + 16 * 1024


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
