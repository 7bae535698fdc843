import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from polymot import cli
from polymot import io as pio
from polymot.cli import main
from polymot.geometry import Polygon
from polymot.metrics import GroundTruthObject, MetricsReport
from polymot.simulator import (NoiseParams, ObjectSpec, Scenario, build_scenario,
                               generate, perturb)

ROOT = Path(__file__).resolve().parents[1]

SCENARIO_CFG = """\
[scenario]
kind = linear
n_objects = 2
n_frames = 12
width = 256
height = 160
seed = 3

[noise]
drop_prob = 0.0
fp_prob = 0.0
center_jitter_sigma = 0.0
offset_noise_sigma = 0.0
"""

OCCLUSION_CFG = """\
[scenario]
kind = occlusion
n_objects = 1
n_frames = 40
width = 288
height = 160
seed = 5

[noise]
drop_prob = 0.0
fp_prob = 0.0
center_jitter_sigma = 0.05
offset_noise_sigma = 0.2

[ukf]
q_accel = 0.01
"""


def run_pipeline(tmp_path, cfg_text, seed=3, no_ukf=False):
    cfg = tmp_path / "run.cfg"
    if not cfg.exists():
        cfg.write_text(cfg_text)
    dets = tmp_path / "dets.txt"
    gt = tmp_path / "gt.txt"
    suffix = "noukf" if no_ukf else "ukf"
    results = tmp_path / f"results_{suffix}.txt"
    report = tmp_path / f"report_{suffix}.txt"
    assert main(["simulate", "--scenario", str(cfg), "--seed", str(seed),
                 "--out", str(dets), "--gt", str(gt)]) == 0
    track_args = ["track", "--dets", str(dets), "--config", str(cfg),
                  "--out", str(results)]
    if no_ukf:
        track_args.append("--no-ukf")
    assert main(track_args) == 0
    assert main(["evaluate", "--gt", str(gt), "--results", str(results),
                 "--report", str(report)]) == 0
    return pio.parse_report_kv(str(report) + ".kv")


def test_zero_noise_pipeline_is_perfect(tmp_path, capsys):
    kv = run_pipeline(tmp_path, SCENARIO_CFG)
    assert kv["motsa"] == pytest.approx(1.0, abs=1e-9)
    assert kv["idsw"] == 0
    out = capsys.readouterr().out
    assert "MOTSA" in out and "100.00%" in out


def test_ukf_reduces_id_switches_on_occlusion(tmp_path):
    with_ukf = run_pipeline(tmp_path, OCCLUSION_CFG, seed=5)
    without = run_pipeline(tmp_path, OCCLUSION_CFG, seed=5, no_ukf=True)
    assert without["idsw"] >= with_ukf["idsw"]
    assert without["idsw"] > 0 and with_ukf["idsw"] == 0


def test_pipeline_deterministic_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCENARIO_CFG)
    outputs = []
    for tag in ("a", "b"):
        dets = tmp_path / f"dets_{tag}.txt"
        gt = tmp_path / f"gt_{tag}.txt"
        res = tmp_path / f"res_{tag}.txt"
        assert main(["simulate", "--scenario", str(cfg), "--seed", "7",
                     "--out", str(dets), "--gt", str(gt)]) == 0
        assert main(["track", "--dets", str(dets), "--config", str(cfg),
                     "--out", str(res)]) == 0
        outputs.append((dets.read_bytes(), gt.read_bytes(), res.read_bytes()))
    assert outputs[0] == outputs[1]


RANDOM_WALK_CFG = """\
[scenario]
kind = random_walk
n_objects = 8
n_frames = 40
width = 160
height = 120
seed = 3
"""

# sha256 of each output of simulate -> track -> evaluate -> render on
# RANDOM_WALK_CFG (default noise: overlaps, false positives and identity
# switches all occur).  A change to any of them is a change of behaviour.
PIPELINE_SHA256 = {
    "gt.txt": "86f9d2d6b474c55f9c719de778d4434dd0de7feb9c4efc02feb7a8d458d2f910",
    "results.txt": "0c4629c7c676fc55f01d883763d014cc13d11b591050eb90d65244c6199423e3",
    "report.txt.kv": "7a596e1d952e3bb3e8f60a0ca9a9dd7e2e3375fe1fdaca46f78abed86cc4ad90",
    "frame.svg": "692effc381e25667cf8285118c21af5fd5880e3f3ceb4c84a6283083157025cc",
}


def test_pipeline_outputs_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RANDOM_WALK_CFG)
    out = {name: str(tmp_path / name) for name in
           ("dets.txt", "gt.txt", "results.txt", "report.txt", "frame.svg")}
    assert main(["simulate", "--scenario", str(cfg), "--out", out["dets.txt"],
                 "--gt", out["gt.txt"]]) == 0
    assert main(["track", "--dets", out["dets.txt"], "--config", str(cfg),
                 "--out", out["results.txt"]]) == 0
    assert main(["evaluate", "--gt", out["gt.txt"], "--results", out["results.txt"],
                 "--report", out["report.txt"]]) == 0
    assert main(["render", "--results", out["results.txt"], "--frame", "20",
                 "--out", out["frame.svg"]]) == 0
    kv = pio.parse_report_kv(out["report.txt"] + ".kv")
    assert kv["fp"] > 0 and kv["idsw"] > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PIPELINE_SHA256}
    assert digests == PIPELINE_SHA256


def test_track_skips_empty_frames_without_live_tracks(tmp_path):
    line = "{} 0 0.9 15 15 2 0 0 10 10 20 10 20 20 10 20\n"
    dets = tmp_path / "dets.txt"
    dets.write_text(line.format(0) + line.format(10 ** 9))
    results = tmp_path / "results.txt"
    start = time.perf_counter()
    assert main(["track", "--dets", str(dets), "--out", str(results)]) == 0
    assert time.perf_counter() - start < 10.0
    frames, _, _ = pio.parse_mask_records(str(results))
    assert sorted(frames) == [0, 10 ** 9]
    assert (frames[0].ids, frames[10 ** 9].ids) == ([1], [2])


def test_results_reparse_self_consistent(tmp_path):
    run_pipeline(tmp_path, SCENARIO_CFG)
    frames, classes, dims = pio.parse_mask_records(str(tmp_path / "results_ukf.txt"))
    assert frames and dims == (160, 256)


def test_render_svg_structure(tmp_path):
    run_pipeline(tmp_path, SCENARIO_CFG)
    svg = tmp_path / "frame.svg"
    assert main(["render", "--results", str(tmp_path / "results_ukf.txt"),
                 "--frame", "5", "--out", str(svg)]) == 0
    tree = ET.parse(str(svg))
    ns = "{http://www.w3.org/2000/svg}"
    polygons = tree.getroot().findall(f"{ns}polygon")
    frames, _, _ = pio.parse_mask_records(str(tmp_path / "results_ukf.txt"))
    assert len(polygons) == len(frames[5].ids)
    texts = tree.getroot().findall(f"{ns}text")
    assert len(texts) == len(polygons)


def test_render_validates_the_whole_file(tmp_path, capsys):
    run_pipeline(tmp_path, SCENARIO_CFG)
    results = tmp_path / "results_ukf.txt"
    lines = results.read_text().splitlines()
    lines.append("11 7 0 160 256")  # a record of another frame, one field short
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["render", "--results", str(results), "--frame", "5",
                 "--out", str(tmp_path / "x.svg")]) == 1
    assert f"{results}:{len(lines)}:" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_render_missing_frame_fails_validation(tmp_path):
    run_pipeline(tmp_path, SCENARIO_CFG)
    assert main(["render", "--results", str(tmp_path / "results_ukf.txt"),
                 "--frame", "999", "--out", str(tmp_path / "x.svg")]) == 1


def test_polygonize_command(tmp_path):
    masks = tmp_path / "masks"
    masks.mkdir()
    yy, xx = np.mgrid[0:64, 0:64]
    disc = (xx - 30) ** 2 + (yy - 32) ** 2 <= 15 ** 2
    pio.write_pgm(disc, str(masks / "disc.pgm"))
    box = np.zeros((64, 64), bool)
    box[10:40, 5:45] = True
    pio.write_pgm(box, str(masks / "box.pgm"))
    out = tmp_path / "polys.txt"
    assert main(["polygonize", "--mask-dir", str(masks), "--vertices", "16",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "box"
    assert len(lines[0].split()) == 1 + 2 * 16


def test_polygonize_of_an_empty_mask_names_the_file(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    pio.write_pgm(np.zeros((8, 8), bool), str(masks / "blank.pgm"))
    assert main(["polygonize", "--mask-dir", str(masks),
                 "--out", str(tmp_path / "polys.txt")]) == 1
    assert capsys.readouterr().err == (f"polymot: error: {masks / 'blank.pgm'}: "
                                       f"polygonize of an empty mask (window 0)\n")
    assert not (tmp_path / "polys.txt").exists()


def test_polygonize_of_a_truncated_pgm_names_the_file(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    (masks / "cut.pgm").write_bytes(b"P5\n30 20\n255\n\x00\x01")
    assert main(["polygonize", "--mask-dir", str(masks),
                 "--out", str(tmp_path / "polys.txt")]) == 1
    assert capsys.readouterr().err == (f"polymot: error: {masks / 'cut.pgm'}: "
                                       f"expected 600 samples, got 2\n")


def test_polygonize_without_masks_exits_1(tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    (masks / "notes.txt").write_text("not a mask\n")
    assert main(["polygonize", "--mask-dir", str(masks),
                 "--out", str(tmp_path / "polys.txt")]) == 1
    assert capsys.readouterr().err == f"polymot: error: no .pgm files in {masks}\n"
    assert not (tmp_path / "polys.txt").exists()


def test_simulate_without_scenario_section_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[noise]\ndrop_prob = 0.1\n")
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "d.txt"),
                 "--gt", str(tmp_path / "g.txt")]) == 1
    assert capsys.readouterr().err == f"polymot: error: {cfg} has no [scenario] section\n"


def test_evaluate_dimension_mismatch_exits_1(tmp_path, capsys):
    ring = Polygon(np.array([[4.0, 4.0], [12.0, 4.0], [12.0, 12.0], [4.0, 12.0]]))
    gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
    pio.write_instance_records({0: [(1, 0, ring, 1.0)]}, 32, 24, str(gt))
    pio.write_instance_records({0: [(1, 0, ring, 1.0)]}, 32, 16, str(results))
    assert main(["evaluate", "--gt", str(gt), "--results", str(results),
                 "--report", str(tmp_path / "report.txt")]) == 1
    assert capsys.readouterr().err == (
        "polymot: error: dimension mismatch: gt (24, 32) vs results (16, 32)\n")


def test_evaluate_matches_only_the_frames_present(tmp_path, capsys):
    square = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))
    records = tmp_path / "records.txt"
    pio.write_instance_records({0: [(1, 0, square, 1.0)], 10 ** 9: [(1, 0, square, 1.0)]},
                               4, 4, str(records))
    report = tmp_path / "report.txt"
    start = time.perf_counter()
    assert main(["evaluate", "--gt", str(records), "--results", str(records),
                 "--report", str(report)]) == 0
    assert time.perf_counter() - start < 10.0
    want = pio.format_report(MetricsReport.from_counts(tp=2, fp=0, fn=0, idsw=0, soft_tp=2.0))
    assert capsys.readouterr().out == want
    assert report.read_text() == want


def test_evaluate_two_empty_files_reports_zeros(tmp_path):
    gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
    gt.write_text("")
    results.write_text("")
    report = tmp_path / "report.txt"
    assert main(["evaluate", "--gt", str(gt), "--results", str(results),
                 "--report", str(report)]) == 0
    kv = pio.parse_report_kv(str(report) + ".kv")
    assert len(kv) == 12 and set(kv.values()) == {0.0}


def test_unknown_flag_exits_1(tmp_path):
    assert main(["track", "--dets", "x.txt", "--out", "y.txt", "--frobnicate"]) == 1


def test_missing_input_exits_2(tmp_path):
    assert main(["track", "--dets", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "r.txt")]) == 2


def test_help_exits_0_on_every_subcommand():
    assert main(["--help"]) == 0
    for sub in ("simulate", "track", "evaluate", "polygonize", "render"):
        assert main([sub, "--help"]) == 0


def test_bad_config_validation_exit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[tracker]\nbogus = 1\n")
    dets = tmp_path / "dets.txt"
    dets.write_text("")
    assert main(["track", "--dets", str(dets), "--config", str(cfg),
                 "--out", str(tmp_path / "r.txt")]) == 1


@pytest.mark.parametrize("text, named", [
    ("[tracker]\nbogus = 1\n", "[tracker] unknown option 'bogus'"),
    ("[image]\nwidth = abc\n", "[image] bad value for 'width'"),
    ("[scenario]\nwidth = 0\n", "[scenario] width"),
    ("[tracker]\nmatch_kappa = nan\n", "[tracker] match_kappa"),
    ("[ukf]\np_vel0 = -5\n", "[ukf] p_vel0"),
    ("[noise]\ncenter_jitter_sigma = nan\n", "[noise] center_jitter_sigma"),
])
def test_bad_config_error_names_section_and_key(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    dets = tmp_path / "dets.txt"
    dets.write_text("")
    assert main(["track", "--dets", str(dets), "--config", str(cfg),
                 "--out", str(tmp_path / "r.txt")]) == 1
    assert named in capsys.readouterr().err


def test_too_narrow_scenario_exits_1_without_traceback(tmp_path):
    (tmp_path / "run.cfg").write_text(
        "[scenario]\nkind = random_walk\nn_objects = 3\nn_frames = 10\n"
        "width = 20\nheight = 48\nseed = 2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "polymot.cli", "simulate", "--scenario", "run.cfg",
         "--out", "dets.txt", "--gt", "gt.txt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("polymot: error: image width 20 too small")
    assert "Traceback" not in proc.stderr


def test_negative_seed_fails_validation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCENARIO_CFG)
    assert main(["simulate", "--scenario", str(cfg), "--seed", "-1",
                 "--out", str(tmp_path / "d.txt"), "--gt", str(tmp_path / "g.txt")]) == 1


FOUR_STAGES = """\
import sys
from polymot.cli import main
for argv in (
    ["simulate", "--scenario", "run.cfg", "--out", "dets.txt", "--gt", "gt.txt"],
    ["track", "--dets", "dets.txt", "--config", "run.cfg", "--out", "results.txt"],
    ["evaluate", "--gt", "gt.txt", "--results", "results.txt", "--report", "report.txt"],
    ["render", "--results", "results.txt", "--frame", "4", "--out", "frame.svg"],
):
    assert main(argv) == 0, argv
"""
STAGES_WITHOUT_MASKED_ARRAYS = FOUR_STAGES + 'sys.exit(3 if "numpy.ma" in sys.modules else 0)\n'
STAGES_WITHOUT_HEATMAP = FOUR_STAGES + 'sys.exit(3 if "polymot.heatmap" in sys.modules else 0)\n'


def run_python(tmp_path, script):
    """Run ``script`` in a fresh interpreter on a tiny scene in ``tmp_path``."""
    (tmp_path / "run.cfg").write_text(
        "[scenario]\nkind = random_walk\nn_objects = 3\nn_frames = 8\n"
        "width = 64\nheight = 48\nseed = 2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_stages_do_not_import_numpy_ma(tmp_path):
    # numpy's set routines (np.unique, np.isin, ...) import numpy.ma on first
    # use, about 1.6 MB of resident memory for every stage process
    proc = run_python(tmp_path, STAGES_WITHOUT_MASKED_ARRAYS)
    assert proc.returncode == 0, proc.stderr


def test_cli_stages_do_not_import_heatmap(tmp_path):
    # the heatmap re-exports of the package load on first access only
    proc = run_python(tmp_path, STAGES_WITHOUT_HEATMAP)
    assert proc.returncode == 0, proc.stderr


HEATMAP_ON_FIRST_ACCESS = """\
import sys
import polymot
assert "polymot.heatmap" not in sys.modules
from polymot import Heatmap
import polymot.heatmap
assert Heatmap is polymot.heatmap.Heatmap
for name in ("GaussianSpec", "object_sigmas", "render_prior", "splat"):
    assert getattr(polymot, name) is getattr(polymot.heatmap, name), name
try:
    polymot.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    sys.exit(4)
"""


def test_heatmap_names_load_on_first_access(tmp_path):
    proc = run_python(tmp_path, HEATMAP_ON_FIRST_ACCESS)
    assert proc.returncode == 0, proc.stderr


def simulate(tmp_path, cfg_text, tag=""):
    """Run ``polymot simulate``; returns the exit code and the two paths."""
    cfg = tmp_path / f"run{tag}.cfg"
    cfg.write_text(cfg_text)
    dets, gt = tmp_path / f"dets{tag}.txt", tmp_path / f"gt{tag}.txt"
    code = main(["simulate", "--scenario", str(cfg), "--out", str(dets), "--gt", str(gt)])
    return code, dets, gt


def crosses_a_block_boundary(sc, block_frames):
    """Whether an object enters inside a block, or its hidden window spans
    the start of a block."""
    for obj in sc.objects:
        if obj.enter_frame % block_frames:
            return True
        if obj.hidden and any(f % block_frames == 0 for f in range(obj.hidden[0] + 1,
                                                                  obj.hidden[1])):
            return True
    return False


@pytest.mark.parametrize("kind,n_objects,n_frames,seed", [
    ("occlusion", 1, 40, 0), ("occlusion", 1, 40, 7),
    ("boundary_exit_enter", 2, 30, 0), ("random_walk", 3, 23, 2)])
@pytest.mark.parametrize("block_frames", [1, 5, 7])
def test_streamed_files_equal_whole_scene_write(tmp_path, monkeypatch, kind, n_objects,
                                                n_frames, seed, block_frames):
    width, height = 288, 160
    noise = NoiseParams(fp_prob=0.5, prev_frame_lookback=3)
    sc = build_scenario(kind, n_objects, n_frames, width, height, seed)
    if kind == "occlusion":
        assert any(obj.hidden for obj in sc.objects)
    if block_frames > 1:
        assert sc.n_frames % block_frames
        if kind != "random_walk":
            assert crosses_a_block_boundary(sc, block_frames)
    want_dets, want_gt = tmp_path / "want_dets.txt", tmp_path / "want_gt.txt"
    gt = generate(sc)
    pio.write_detections(perturb(sc, gt, noise, seed + 1), str(want_dets))
    pio.write_instance_records(
        {f: [(g.id, g.class_id, g.polygon, g.depth) for g in entries]
         for f, entries in enumerate(gt)}, width, height, str(want_gt))

    monkeypatch.setattr(pio, "FORMAT_BLOCK_ROWS", block_frames * len(sc.objects))
    writes = []
    write_detections = pio.write_detections
    monkeypatch.setattr(pio, "write_detections",
                        lambda *a: writes.append(1) or write_detections(*a))
    code, dets, gt_path = simulate(tmp_path, (
        f"[scenario]\nkind = {kind}\nn_objects = {n_objects}\nn_frames = {n_frames}\n"
        f"width = {width}\nheight = {height}\nseed = {seed}\n"
        f"[noise]\nfp_prob = 0.5\nprev_frame_lookback = 3\n"))
    assert code == 0
    assert len(writes) == -(-sc.n_frames // block_frames)
    assert dets.read_bytes() == want_dets.read_bytes()
    assert gt_path.read_bytes() == want_gt.read_bytes()


def test_simulate_memory_does_not_grow_with_the_scene(tmp_path):
    def peak(n_frames):
        tracemalloc.start()
        try:
            code, _, _ = simulate(tmp_path, (
                f"[scenario]\nkind = random_walk\nn_objects = 8\nn_frames = {n_frames}\n"
                f"width = 160\nheight = 120\nseed = 4\n"))
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate(tmp_path, RANDOM_WALK_CFG)  # first-call allocations are not the scene's
    assert peak(400) < 1.25 * peak(100)


def test_failure_in_a_late_block_leaves_no_file(tmp_path, monkeypatch, capsys):
    # object 2 enters wholly outside the image on frame 30, 7 blocks in
    late = ObjectSpec(shape="rectangle", size=(10.0, 8.0), start=(-50.0, 40.0),
                      velocity=(0.0, 0.0), enter_frame=30)
    sc = build_scenario("linear", 1, 40, 128, 96, 1)
    sc = Scenario(sc.width, sc.height, sc.n_frames, (*sc.objects, late))
    monkeypatch.setattr(cli, "build_scenario", lambda *args: sc)
    monkeypatch.setattr(pio, "FORMAT_BLOCK_ROWS", 8)  # 4 frames per block
    writes = []
    write_detections = pio.write_detections
    monkeypatch.setattr(pio, "write_detections",
                        lambda *a: writes.append(1) or write_detections(*a))
    code, dets, gt = simulate(tmp_path, SCENARIO_CFG)
    assert code == 1
    assert len(writes) == 7
    assert capsys.readouterr().err == (
        "polymot: error: object 2 starts outside the 128x96 image\n")
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_simulate_builds_no_per_object_ground_truth(tmp_path, monkeypatch):
    _, want_dets, want_gt = simulate(tmp_path, RANDOM_WALK_CFG, "want")

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a per-object record")

    monkeypatch.setattr(GroundTruthObject, "__init__", refuse)
    monkeypatch.setattr(Polygon, "__post_init__", refuse)
    monkeypatch.setattr(Polygon, "trusted", refuse)
    with pytest.raises(AssertionError, match="per-object record"):
        list(generate(build_scenario("linear", 1, 2, 64, 48, 0))[0])
    code, dets, gt = simulate(tmp_path, RANDOM_WALK_CFG)
    assert code == 0
    assert dets.read_bytes() == want_dets.read_bytes()
    assert gt.read_bytes() == want_gt.read_bytes()
