"""Polygon-based multi-object tracking and segmentation toolkit.

Submodules:
  geometry   polygon primitives, rasterization, mask IoU, polygonization
  heatmap    elliptical-Gaussian center heatmaps and the track prior map
  ukf        closed-form Kalman filtering over kinematic object state
  tracker    greedy center association and the track lifecycle
  losses     reference training objectives with analytic gradients
  simulator  seeded synthetic scenes and the detector noise model
  metrics    mask-based tracking-and-segmentation scores
  rle        compressed run-length mask strings
  io         file formats, PGM images, configuration, reports
  cli        the ``polymot`` command line
"""

from .errors import (InvalidInputError, NumericalDegeneracyError, ParseError,
                     PolymotError)
from .geometry import (Point2, Polygon, area, centroid, mask_iou, polygonize,
                       rasterize)
from .losses import LossWeights, focal_loss, l1_at_centers, offset_target, total_loss
from .metrics import FrameMatch, MetricsReport, evaluate, flatten, match_frame
from .rle import decode_rle, encode_rle
from .simulator import NoiseParams, Scenario, build_scenario, generate, perturb
from .tracker import (Detection, Track, TrackerConfig, TrackState, Tracker,
                      associate, run_sequence)
from .ukf import FilterState, UkfParams, birth, predict, update

__version__ = "0.1.0"

# no CLI stage uses the heatmaps, so their module loads on first access
_HEATMAP_NAMES = ("GaussianSpec", "Heatmap", "object_sigmas", "render_prior", "splat")


def __getattr__(name):
    if name in _HEATMAP_NAMES:
        from . import heatmap
        return getattr(heatmap, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
