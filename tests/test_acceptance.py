"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import gc
import math
import time

import numpy as np
import pytest

from polymot import metrics, ukf
from polymot.geometry import Point2, Polygon, mask_iou, polygonize, rasterize
from polymot.losses import LossWeights, focal_loss, l1_at_centers, total_loss
from polymot.rle import decode_rle, encode_rle
from polymot.simulator import (NoiseParams, Scenario, ObjectSpec,
                               build_scenario, generate, perturb)
from polymot.tracker import (Detection, Tracker, TrackerConfig, run_sequence,
                             emitted_instances)

from oracles import LinearKalman, central_difference, count_tracking_events
from test_metrics import label_frame
from test_rle import CANONICAL, canonical_mask


def ok(name):
    print(f"[acceptance] {name}: PASS")


# --- published per-row counts and scores the arithmetic must reproduce ----
VALIDATION_ROWS = [
    # name, tp, fp, fn, recall%, precision%
    ("maximum", 4531, 243, 243, 94.91, 94.91),
    ("dla34", 2083, 829, 2691, 43.63, 71.53),
    ("dla34_w", 2014, 341, 2760, 42.19, 85.52),
    ("hg_w", 3036, 720, 1738, 63.59, 80.83),
    ("hg_w_deep", 2882, 383, 1892, 60.37, 88.27),
]


def test_published_row_arithmetic():
    start = time.perf_counter()
    for name, tp, fp, fn, rcll, prcn in VALIDATION_ROWS:
        report = metrics.MetricsReport.from_counts(tp=tp, fp=fp, fn=fn,
                                                   idsw=0, soft_tp=float(tp))
        assert abs(report.recall * 100 - rcll) <= 0.01, name
        assert abs(report.precision * 100 - prcn) <= 0.01, name
    assert time.perf_counter() - start < 1.0
    ok("published-row Rcll/Prcn arithmetic (5 rows, ±0.01pp)")


def test_ukf_matches_linear_kalman_filter():
    start = time.perf_counter()
    params = ukf.UkfParams()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cx, cy = rng.uniform(0, 400, 2)
        vx, vy = rng.uniform(-4, 4, 2)
        state = ukf.birth(Point2(cx, cy), params)
        oracle = LinearKalman(cx, cy, params.q_accel, params.r_pos,
                              params.p_vel0, params.p_acc0)
        for t in range(1, 101):
            zx = cx + vx * t + rng.normal(0, 1.0)
            zy = cy + vy * t + rng.normal(0, 1.0)
            state = ukf.predict(state, params)
            oracle.predict()
            state = ukf.update(state, Point2(zx, zy), params)
            oracle.update(zx, zy)
            worst = max(worst, float(np.abs(state.mean - oracle.x).max()))
        assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"UKF = linear KF on linear dynamics (50 seeds x 100 steps, "
       f"worst {worst:.2e} <= 1e-6, {elapsed:.1f}s)")


SUITE_NOISE = NoiseParams(drop_prob=0.0, fp_prob=0.0,
                          center_jitter_sigma=0.05, offset_noise_sigma=0.2)
SUITE_UKF = ukf.UkfParams(q_accel=0.01)


def run_arm(scenario, dets, gt_masks, use_ukf):
    cfg = TrackerConfig(use_ukf=use_ukf, ukf=SUITE_UKF)
    tracks = run_sequence(dets, cfg)
    hyp = emitted_instances(tracks)
    hyp_frames = [[(tid, poly, depth) for tid, _, poly, depth in hyp.get(f, [])]
                  for f in range(scenario.n_frames)]
    hyp_masks = metrics.flatten(hyp_frames, scenario.width, scenario.height)
    return metrics.evaluate(gt_masks, hyp_masks)


def test_ukf_reduces_id_switches_across_scenario_suite():
    start = time.perf_counter()
    suite = ([("occlusion", s) for s in range(80)]
             + [("crossing", 100 + s) for s in range(60)]
             + [("boundary_exit_enter", 200 + s) for s in range(60)])
    totals = {True: dict(idsw=0, tp=0, fp=0, fn=0),
              False: dict(idsw=0, tp=0, fp=0, fn=0)}
    occl = {True: 0, False: 0}
    for kind, seed in suite:
        scenario = build_scenario(kind, 2, 36, 288, 160, seed)
        gt = generate(scenario)
        dets = perturb(scenario, gt, SUITE_NOISE, seed + 1)
        gt_frames = [[(g.id, g.polygon, g.depth) for g in fr] for fr in gt]
        gt_masks = metrics.flatten(gt_frames, scenario.width, scenario.height)
        for arm in (True, False):
            rep = run_arm(scenario, dets, gt_masks, arm)
            totals[arm]["idsw"] += rep.idsw
            totals[arm]["tp"] += rep.tp
            totals[arm]["fp"] += rep.fp
            totals[arm]["fn"] += rep.fn
            if kind == "occlusion":
                occl[arm] += rep.idsw
    assert totals[True]["idsw"] <= totals[False]["idsw"]
    assert occl[True] < occl[False]

    def agg_motsa(c):
        g = c["tp"] + c["fn"]
        return (c["tp"] - c["fp"] - c["idsw"]) / g

    assert agg_motsa(totals[True]) >= agg_motsa(totals[False])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok(f"scenario suite: IDSW {totals[True]['idsw']} (with filter) vs "
       f"{totals[False]['idsw']} (without), occlusion subset {occl[True]} vs "
       f"{occl[False]}, MOTSA {agg_motsa(totals[True]):.4f} >= "
       f"{agg_motsa(totals[False]):.4f} ({elapsed:.0f}s, 200 scenarios)")


def convex_mask_cases(n_cases=100, dim=128, seed=5):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:dim, 0:dim]
    px, py = xx + 0.5, yy + 0.5
    for _ in range(n_cases):
        w = rng.uniform(64, dim - 12)
        h = rng.uniform(64, dim - 12)
        cx = rng.uniform(w / 2 + 2, dim - w / 2 - 2)
        cy = rng.uniform(h / 2 + 2, dim - h / 2 - 2)
        if rng.random() < 0.5:
            yield ((px - cx) / (w / 2)) ** 2 + ((py - cy) / (h / 2)) ** 2 <= 1
        else:
            yield (np.abs(px - cx) <= w / 2) & (np.abs(py - cy) <= h / 2)


def test_polygonization_fidelity():
    start = time.perf_counter()
    worst32 = 1.0
    by_count = {8: [], 16: [], 32: [], 64: []}
    for mask in convex_mask_cases():
        ious = []
        for n in (8, 16, 32, 64):
            p = polygonize(mask, n)
            iou = mask_iou(mask, rasterize(p, *mask.shape[::-1]))
            ious.append(iou)
            by_count[n].append(iou)
        assert ious[2] >= 0.9
        worst32 = min(worst32, ious[2])
        for a, b in zip(ious, ious[1:]):
            # 0.002 absorbs knife-edge pixel flips when a ray lands exactly
            # on a pixel-center line; real trend differences are far larger
            assert b >= a - 2e-3, f"IoU fell from {a:.4f} to {b:.4f}"
    suite_means = [float(np.mean(by_count[n])) for n in (8, 16, 32, 64)]
    for a, b in zip(suite_means, suite_means[1:]):
        assert b >= a
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(f"polygonization fidelity: 100 convex masks, worst 32-vertex IoU "
       f"{worst32:.3f} >= 0.9, suite-mean IoU non-decreasing over 8/16/32/64 "
       f"({', '.join(f'{m:.3f}' for m in suite_means)}) ({elapsed:.0f}s)")


def test_loss_gradients_and_reference_total():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for case in range(20):
        shape = (int(rng.integers(1, 3)), int(rng.integers(3, 7)),
                 int(rng.integers(3, 7)))
        gt = np.zeros(shape)
        for _ in range(int(rng.integers(1, 4))):
            gt[rng.integers(shape[0]), rng.integers(shape[1]),
               rng.integers(shape[2])] = 1.0
        soft = rng.random(shape) * 0.85
        gt = np.where(gt == 1.0, 1.0, soft)
        pred = np.clip(rng.uniform(0.05, 0.95, shape), 1e-4, 1 - 1e-4)
        _, grad = focal_loss(pred, gt)
        fd = central_difference(lambda x: focal_loss(x, gt)[0], pred)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() <= 1e-4

        c = shape[0]
        targets = [((int(rng.integers(shape[2])), int(rng.integers(shape[1]))),
                    rng.normal(0, 3, c)) for _ in range(2)]
        pred2 = rng.normal(0, 3, shape)
        _, grad2 = l1_at_centers(pred2, targets)
        fd2 = central_difference(lambda x: l1_at_centers(x, targets)[0], pred2)
        rel2 = np.abs(grad2 - fd2) / np.maximum(np.abs(fd2), 1e-3)
        assert rel2.max() <= 1e-4

    assert total_loss(1, 1, 1, 1, 1, LossWeights()) == 4.1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"loss gradients vs finite differences (20 cases, <=1e-4 rel) and "
       f"reference-weight total 4.1 ({elapsed:.1f}s)")


def test_metrics_match_brute_force_counter():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(500):
        n_frames = int(rng.integers(1, 4))
        gt_frames, hyp_frames = [], []
        hyp_pool = list(rng.permutation([101, 102, 103]))
        for _ in range(n_frames):
            gt, hyp = {}, {}
            for side, id_pool in ((gt, [1, 2, 3]), (hyp, hyp_pool)):
                occupied = np.zeros((32, 32), bool)
                for iid in id_pool[: int(rng.integers(0, 4))]:
                    x, y = int(rng.integers(0, 24)), int(rng.integers(0, 24))
                    ring = Polygon(np.array(
                        [[x, y], [x + 7, y], [x + 7, y + 7], [x, y + 7]], float))
                    m = rasterize(ring, 32, 32) & ~occupied
                    occupied |= m
                    if m.any():
                        side[iid] = m
            gt_frames.append(gt)
            hyp_frames.append(hyp)
        report = metrics.evaluate([label_frame(f) for f in gt_frames],
                                  [label_frame(f) for f in hyp_frames])
        expected = count_tracking_events(gt_frames, hyp_frames)
        assert (report.tp, report.fp, report.fn, report.idsw) == (
            expected["tp"], expected["fp"], expected["fn"], expected["idsw"])
        assert report.soft_tp == pytest.approx(expected["soft_tp"], abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(f"metrics equal exhaustive event counter on 500 small sequences "
       f"({elapsed:.0f}s)")


def test_rle_codec():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        h = int(rng.integers(1, 129))
        w = int(rng.integers(1, 129))
        mask = rng.random((h, w)) < rng.uniform(0, 1)
        assert (decode_rle(encode_rle(mask), h, w) == mask).all()
    for name, shape, expected in CANONICAL:
        assert encode_rle(canonical_mask(name)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"run-length codec: 1000 round trips + 10 byte-exact reference "
       f"fixtures ({elapsed:.1f}s)")


def test_noise_model_calibration():
    start = time.perf_counter()
    scenario = Scenario(width=64, height=64, n_frames=10000,
                        objects=(ObjectSpec(
                            shape="rectangle", size=(16, 12),
                            start=(32, 32), velocity=(0, 0)),))
    gt = generate(scenario)
    assert sum(len(f) for f in gt) == 10000
    dets = perturb(scenario, gt, NoiseParams(), 4242)
    true_dets = sum(1 for frame in dets for d in frame if d.score >= 0.7)
    false_pos = sum(1 for frame in dets for d in frame if d.score < 0.7)
    drop_rate = 1.0 - true_dets / 10000
    fp_rate = false_pos / 10000
    assert abs(drop_rate - 0.40) <= 0.01
    assert abs(fp_rate - 0.10) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"noise calibration over 10^4 object-frames: omission {drop_rate:.3f} "
       f"(0.40 +- 0.01), false positives {fp_rate:.3f} (0.10 +- 0.01) "
       f"({elapsed:.1f}s)")


def test_tracker_throughput():
    theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    ring = np.stack([10 * np.cos(theta), 8 * np.sin(theta)], axis=1)
    rng = np.random.default_rng(7)
    n_obj, n_frames = 100, 150
    pos = rng.uniform(100, 3900, (n_obj, 2))
    vel = rng.uniform(-3, 3, (n_obj, 2))
    frames = []
    for f in range(n_frames):
        frames.append([
            Detection(frame=f, class_id=i % 3, score=0.9, center=Point2(cx, cy),
                      polygon=Polygon(ring + [cx, cy]), depth=float(cy),
                      offset=(-vel[i, 0], -vel[i, 1]))
            for i, (cx, cy) in enumerate(pos)])
        pos = pos + vel

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = 0.0
        for _ in range(5):
            tracker = Tracker(TrackerConfig())
            tracker.step(frames[0], 0)  # warm-up
            t0 = time.perf_counter()
            for f in range(1, n_frames):
                tracker.step(frames[f], f)
            best = max(best, (n_frames - 1) / (time.perf_counter() - t0))
    finally:
        if gc_was_enabled:
            gc.enable()
    assert best >= 1000.0
    ok(f"throughput: {best:.0f} frames/s with 100 tracked objects "
       f"(>= 1000 required)")
