import math
import re

import numpy as np
import pytest

from polymot.errors import InvalidInputError, NumericalDegeneracyError
from polymot.geometry import Point2
from polymot.ukf import (FilterState, UkfParams, batch_birth, batch_predict,
                         batch_update, birth, predict, update)

from oracles import LinearKalman


def drive(state, params, observations):
    for zx, zy in observations:
        state = predict(state, params)
        state = update(state, Point2(zx, zy), params)
    return state


class TestBirth:
    def test_mean_layout(self):
        s = birth(Point2(10, 20), UkfParams())
        assert np.array_equal(s.mean, [10, 0, 0, 20, 0, 0])

    def test_covariance_spd(self):
        s = birth(Point2(-3.5, 400.0), UkfParams())
        assert np.array_equal(s.cov, s.cov.T)
        np.linalg.cholesky(s.cov)  # raises if not positive-definite

    def test_deterministic(self):
        a = birth(Point2(1, 2), UkfParams())
        b = birth(Point2(1, 2), UkfParams())
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            birth(Point2(float("nan"), 0), UkfParams())


class TestStateBoundaries:
    @pytest.mark.parametrize("cov", [
        np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 4.0]),      # unequal blocks
        np.eye(6) + 0.5 * np.eye(6, k=3) + 0.5 * np.eye(6, k=-3),  # x-y coupling
        np.eye(6) + 0.1 * np.eye(6, k=4) + 0.1 * np.eye(6, k=-4),  # px-vy coupling
    ])
    def test_non_block_covariance_rejected(self, cov):
        s = FilterState(np.zeros(6), cov)
        with pytest.raises(InvalidInputError):
            predict(s, UkfParams())
        with pytest.raises(InvalidInputError):
            update(s, Point2(0, 0), UkfParams())

    @pytest.mark.parametrize("mean, cov, message", [
        (np.zeros(4), np.eye(6), "filter state must be a 6-vector and 6x6 matrix"),
        (np.zeros(6), np.eye(5), "filter state must be a 6-vector and 6x6 matrix"),
        (np.array([0.0, 0.0, math.nan, 0.0, 0.0, 0.0]), np.eye(6),
         "filter state must be finite"),
        (np.zeros(6), np.diag([1.0, 1.0, 1.0, 1.0, math.inf, 1.0]),
         "filter state must be finite"),
        (np.zeros(6), np.eye(6) + 1e-6 * np.eye(6, k=1),
         "covariance must be symmetric within 1e-9"),
    ])
    def test_malformed_state_rejected(self, mean, cov, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            FilterState(mean, cov)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_measurement_rejected(self, bad):
        means, covs = batch_birth(np.array([[1.0, 2.0], [3.0, 4.0]]), UkfParams())
        with pytest.raises(InvalidInputError, match="^measurements must be finite$"):
            batch_update(means, covs, np.array([[1.0, 2.0], [bad, 4.0]]), UkfParams())

    @pytest.mark.parametrize("p00", [-1.0, -3.0])
    def test_non_positive_innovation_variance_raises(self, p00):
        block = np.diag([p00, 1.0, 1.0])
        s = FilterState(np.zeros(6), np.kron(np.eye(2), block))
        with pytest.raises(NumericalDegeneracyError):
            update(s, Point2(0, 0), UkfParams(r_pos=1.0))


def test_batched_rows_match_their_own_linear_kalman():
    # rows born on different steps, each step updating a random subset
    # through fancy indexing as Tracker.step does
    p = UkfParams(q_accel=0.5, r_pos=2.0)
    rng = np.random.default_rng(11)
    means, covs = batch_birth(np.empty((0, 2)), p)
    oracles, starts, vels = [], [], []
    for step in range(60):
        if oracles:
            means, covs = batch_predict(means, covs, p)
            for kf in oracles:
                kf.predict()
            rows = np.flatnonzero(rng.random(len(oracles)) < 0.6)
            zs = np.array([starts[r] + vels[r] * step for r in rows]).reshape(-1, 2)
            zs += rng.normal(0, 1.5, zs.shape)
            new_means, new_covs = batch_update(means[rows], covs[rows], zs, p)
            means[rows] = new_means
            covs[rows] = new_covs
            for r, (zx, zy) in zip(rows, zs):
                oracles[r].update(zx, zy)
        if step < 40:
            centers = rng.uniform(0, 400, (int(rng.integers(0, 3)), 2))
            born_means, born_covs = batch_birth(centers, p)
            means = np.concatenate([means, born_means])
            covs = np.concatenate([covs, born_covs])
            for c in centers:
                oracles.append(LinearKalman(*c, p.q_accel, p.r_pos, p.p_vel0, p.p_acc0))
                vels.append(rng.uniform(-3, 3, 2))
                starts.append(c - vels[-1] * step)
        for r, kf in enumerate(oracles):
            view = FilterState.from_axes(means[r], covs[r])
            assert np.abs(view.mean - kf.x).max() < 1e-9
            assert np.abs(view.cov - kf.P).max() < 1e-9
    assert len(oracles) > 20


class TestPredict:
    def test_constant_velocity_step(self):
        p = UkfParams()
        s = FilterState(np.array([0, 1, 0, 0, 0, 0.0]), np.eye(6))
        out = predict(s, p)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-9)
        assert out.mean[3] == pytest.approx(0.0, abs=1e-9)

    def test_acceleration_step(self):
        p = UkfParams()
        s = FilterState(np.array([0, 0, 2, 0, 0, 0.0]), np.eye(6))
        out = predict(s, p)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-9)  # a dt^2 / 2
        assert out.mean[1] == pytest.approx(2.0, abs=1e-9)  # v + a dt

    def test_trace_strictly_grows(self):
        p = UkfParams()
        s = birth(Point2(4, 7), p)
        for _ in range(10):
            nxt = predict(s, p)
            assert np.trace(nxt.cov) > np.trace(s.cov)
            s = update(nxt, Point2(4, 7), p)

    def test_translation_equivariance(self):
        p = UkfParams()
        base = FilterState(np.array([3.0, 1.5, -0.2, 8.0, -1.0, 0.1]),
                           np.diag([1, 2, 3, 1, 2, 3.0]))
        shifted = FilterState(base.mean + np.array([10, 0, 0, -5, 0, 0]), base.cov)
        a = predict(base, p)
        b = predict(shifted, p)
        assert b.mean[0] - a.mean[0] == pytest.approx(10, abs=1e-9)
        assert b.mean[3] - a.mean[3] == pytest.approx(-5, abs=1e-9)
        assert np.allclose(a.cov, b.cov, atol=1e-9)


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        p = UkfParams()
        s = drive(birth(Point2(5, 5), p), p, [(7, 6), (9, 7), (11, 8)])
        pred = predict(s, p)
        upd = update(pred, pred.position, p)
        assert abs(upd.mean[0] - pred.mean[0]) < 1e-9
        assert abs(upd.mean[3] - pred.mean[3]) < 1e-9

    def test_repeated_updates_converge(self):
        p = UkfParams()
        s = birth(Point2(0, 0), p)
        for _ in range(50):
            s = predict(s, p)
            s = update(s, Point2(12.0, -4.0), p)
        assert math.hypot(s.mean[0] - 12.0, s.mean[3] + 4.0) < 0.01

    def test_matches_linear_kalman(self):
        p = UkfParams()
        rng = np.random.default_rng(42)
        s = birth(Point2(50, 80), p)
        kf = LinearKalman(50, 80, p.q_accel, p.r_pos, p.p_vel0, p.p_acc0)
        for t in range(1, 61):
            z = (50 + 2.0 * t + rng.normal(0, 1), 80 - 1.5 * t + rng.normal(0, 1))
            s = predict(s, p)
            kf.predict()
            s = update(s, Point2(*z), p)
            kf.update(*z)
            assert np.abs(s.mean - kf.x).max() < 1e-6
            assert np.abs(s.cov - kf.P).max() < 1e-6

    def test_covariance_stays_spd(self):
        p = UkfParams()
        rng = np.random.default_rng(1)
        s = birth(Point2(0, 0), p)
        for t in range(40):
            s = predict(s, p)
            if t % 3:
                s = update(s, Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)), p)
            assert np.abs(s.cov - s.cov.T).max() < 1e-9
            np.linalg.cholesky(s.cov)


def test_frozen_track_keeps_constant_velocity():
    # observed at constant velocity for k >= 5 frames, then coasting:
    # the prediction drifts less than a pixel per coasted frame
    p = UkfParams()
    for k in (5, 8, 12):
        vx, vy = 3.0, -2.0
        s = birth(Point2(0, 0), p)
        for t in range(1, k + 1):
            s = predict(s, p)
            s = update(s, Point2(vx * t, vy * t), p)
        coast = s
        for m in range(1, 11):
            coast = predict(coast, p)
            t = k + m
            err = math.hypot(coast.mean[0] - vx * t, coast.mean[3] - vy * t)
            assert err <= 1.0 * m


def test_params_validation():
    with pytest.raises(InvalidInputError):
        UkfParams(q_accel=-1.0)
    for key, bad in (("q_accel", math.nan), ("r_pos", math.inf), ("p_vel0", -5.0),
                     ("p_acc0", math.nan)):
        with pytest.raises(InvalidInputError, match=key):
            UkfParams(**{key: bad})
