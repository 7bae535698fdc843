"""The traced benchmark stages still run against the program.

``bench/tracing.py`` wraps the functions named in its ``TARGETS`` by name
and counts work from their arguments and results (``len()`` of frames and
of ``flatten_frame``'s first argument, among others).  A renamed target
or a changed call shape makes the traced stage exit non-zero, so this
runs all four CLI stages through it on a tiny scene.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCENE = """\
[scenario]
kind = random_walk
n_objects = 3
n_frames = 8
width = 64
height = 48
seed = 2
"""

STAGES = [
    ["simulate", "--scenario", "run.cfg", "--out", "dets.txt", "--gt", "gt.txt"],
    ["track", "--dets", "dets.txt", "--config", "run.cfg", "--out", "results.txt"],
    ["evaluate", "--gt", "gt.txt", "--results", "results.txt", "--report", "report.txt"],
    ["render", "--results", "results.txt", "--frame", "4", "--out", "frame.svg"],
]


def test_traced_stages_exit_zero(tmp_path):
    (tmp_path / "run.cfg").write_text(SCENE)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    traced = set()
    for argv in STAGES:
        spans = tmp_path / f"{argv[0]}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans), "t", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
        traced |= {name for name, *_ in json.loads(spans.read_text())["spans"]}
    assert {"metrics.flatten_frame", "metrics.match_frame", "io.parse_mask_records",
            "io.write_instance_records", "geometry.polygonize"} <= traced
