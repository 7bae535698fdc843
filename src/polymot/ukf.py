"""Closed-form Kalman filter over per-axis constant-acceleration kinematics.

State vector: [px, vx, ax, py, vy, ay] (pixels, px/frame, px/frame^2).
The measurement is the raw position (px, py).  The dynamics are linear, so
the Kalman filter is exact; a plain six-dimensional linear Kalman filter
with the same noise model must agree, which the test suite exploits as an
oracle.

The x and y axes share the transition, the process noise and the
measurement noise, and are always measured together, so their covariance
blocks start equal, stay equal and never couple.  A belief is therefore
stored as a mean per axis, shape (2, 3), and one shared (3, 3) covariance,
and the update's innovation variance is the scalar P[0, 0] + r_pos: no
Cholesky factor and no solve.

All kernels operate on stacked beliefs (means (n, 2, 3), covariances
(n, 3, 3)) so a tracker can advance every live track in a handful of numpy
calls; ``birth``/``predict``/``update`` are the single-state views of the
same math on the six-dimensional ``FilterState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError
from .geometry import Point2

STATE_DIM = 6


@dataclass(frozen=True)
class UkfParams:
    """Noise intensities of the filter.

    q_accel is the process-noise intensity in (px/frame^2)^2, r_pos the
    measurement variance in px^2.  p_vel0/p_acc0 seed the velocity and
    acceleration variances of a newborn filter.
    """

    q_accel: float = 1.0
    r_pos: float = 1.0
    p_vel0: float = 100.0
    p_acc0: float = 10.0

    def __post_init__(self):
        for name in ("q_accel", "r_pos"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite, got {value}")
        for name in ("p_vel0", "p_acc0"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidInputError(f"{name} must be non-negative and finite, got {value}")


@dataclass(frozen=True)
class FilterState:
    """Gaussian belief over one object's kinematic state."""

    mean: np.ndarray  # (6,)
    cov: np.ndarray   # (6, 6)

    def __post_init__(self):
        # copy so the state stays a value even when built from live views
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.cov, dtype=np.float64)
        if mean.shape != (STATE_DIM,) or cov.shape != (STATE_DIM, STATE_DIM):
            raise InvalidInputError("filter state must be a 6-vector and 6x6 matrix")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidInputError("filter state must be finite")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise InvalidInputError("covariance must be symmetric within 1e-9")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def from_axes(cls, mean: np.ndarray, cov: np.ndarray) -> "FilterState":
        """The six-dimensional view of a per-axis mean (2, 3) and shared cov (3, 3)."""
        return cls(np.reshape(mean, STATE_DIM), np.kron(np.eye(2), cov))

    @property
    def position(self) -> Point2:
        return Point2(float(self.mean[0]), float(self.mean[3]))


def _axes(s: FilterState) -> tuple[np.ndarray, np.ndarray]:
    """A state as a one-row batch: means (1, 2, 3) and covariances (1, 3, 3)."""
    block = s.cov[:3, :3]
    if np.abs(s.cov - np.kron(np.eye(2), block)).max() > 1e-9:
        raise InvalidInputError(
            "covariance must be two equal, decoupled 3x3 blocks within 1e-9")
    return s.mean.reshape(1, 2, 3), block[None]


def batch_birth(centers: np.ndarray, p: UkfParams) -> tuple[np.ndarray, np.ndarray]:
    """Newborn beliefs for measured centers (n, 2): zero motion, diagonal cov."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = centers.shape[0]
    means = np.zeros((n, 2, 3))
    means[:, :, 0] = centers
    covs = np.broadcast_to(np.diag([p.r_pos, p.p_vel0, p.p_acc0]), (n, 3, 3)).copy()
    return means, covs


def _symmetrize(covs: np.ndarray) -> np.ndarray:
    return 0.5 * (covs + np.swapaxes(covs, -1, -2))


# the per-axis transition and process-noise shape g g^T of one frame
_TRANSITION = np.array([[1.0, 1.0, 0.5],
                        [0.0, 1.0, 1.0],
                        [0.0, 0.0, 1.0]])
_NOISE_SHAPE = np.outer([0.5, 1.0, 1.0], [0.5, 1.0, 1.0])


def batch_predict(means: np.ndarray, covs: np.ndarray,
                  p: UkfParams) -> tuple[np.ndarray, np.ndarray]:
    """Propagate stacked beliefs one frame of constant-acceleration dynamics.

    Per axis, the Newton step [p + v + a/2, v + a, a] and the process noise
    Q = q g g^T with g = (1/2, 1, 1); the frame is the unit of time.
    """
    f = _TRANSITION
    covs = f @ covs @ f.T + p.q_accel * _NOISE_SHAPE
    return means @ f.T, _symmetrize(covs)


def batch_update(means: np.ndarray, covs: np.ndarray, zs: np.ndarray,
                 p: UkfParams) -> tuple[np.ndarray, np.ndarray]:
    """Condition stacked beliefs on position measurements zs (n, 2)."""
    zs = np.asarray(zs, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.isfinite(zs)):
        raise InvalidInputError("measurements must be finite")
    s = covs[:, 0, 0] + p.r_pos
    if not np.all(s > 0):
        raise NumericalDegeneracyError("innovation variance is not positive")
    gain = covs[:, :, 0] / s[:, None]  # (n, 3), the same on both axes
    innov = zs - means[:, :, 0]        # (n, 2)
    new_means = means + innov[:, :, None] * gain[:, None, :]
    new_covs = covs - gain[:, :, None] * covs[:, None, 0, :]
    return new_means, _symmetrize(new_covs)


def birth(center: Point2, p: UkfParams) -> FilterState:
    """Start a filter at a detected center with zero velocity/acceleration."""
    if not (np.isfinite(center[0]) and np.isfinite(center[1])):
        raise InvalidInputError("birth center must be finite")
    means, covs = batch_birth(np.array([center], dtype=np.float64), p)
    return FilterState.from_axes(means[0], covs[0])


def predict(s: FilterState, p: UkfParams) -> FilterState:
    means, covs = batch_predict(*_axes(s), p)
    return FilterState.from_axes(means[0], covs[0])


def update(s: FilterState, z: Point2, p: UkfParams) -> FilterState:
    means, covs = batch_update(*_axes(s), np.array([z], dtype=np.float64), p)
    return FilterState.from_axes(means[0], covs[0])
