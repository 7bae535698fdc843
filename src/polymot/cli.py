"""Batch command line: simulate, track, evaluate, polygonize, render.

Exit codes: 0 on success, 1 on validation/parse errors (including bad
flags), 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import io as pio
from .errors import InvalidInputError, ParseError, PolymotError
from .geometry import centroid, polygonize
from .metrics import Frame, evaluate
from .simulator import build_scenario, generate, perturb
from .tracker import run_sequence


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._print_and_code(message))

    def _print_and_code(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polymot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "simulate", help="generate a synthetic sequence",
        description="Generate a synthetic sequence: its detections (--out) and "
                    "ground-truth masks (--gt).  The scene is generated and both "
                    "files written one block of frames at a time, through temp "
                    "files that are renamed at the end; on an error neither file "
                    "is written.")
    p.add_argument("--scenario", required=True, help="config file with a [scenario] section")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides the scenario file)")
    p.add_argument("--out", required=True, help="detection file to write")
    p.add_argument("--gt", required=True, help="ground-truth mask file to write")

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--dets", required=True)
    p.add_argument("--config", default=None, help="INI run configuration")
    p.add_argument("--out", required=True, help="result mask file to write")
    p.add_argument("--no-ukf", action="store_true",
                   help="freeze tracks at their last detected position")

    p = sub.add_parser("evaluate", help="score results against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--report", required=True, help="text report path")
    p.add_argument("--report-kv", default=None,
                   help="machine-readable report (default: <report>.kv)")

    p = sub.add_parser("polygonize", help="convert PGM masks to vertex rings")
    p.add_argument("--mask-dir", required=True)
    p.add_argument("--vertices", type=int, default=32)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "render", help="draw one frame of a result file as SVG",
        description="Draw one frame of a result file as SVG.  The whole result "
                    "file is parsed and validated first, so a malformed or "
                    "overlapping record in any frame, not only in --frame, is an "
                    "error (exit 1) naming its line.")
    p.add_argument("--results", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_simulate(args) -> int:
    """Generate, perturb and write the scene one block of frames at a time.

    Both files are written side by side through temp files that are renamed
    when the last block is written, or removed if any block fails.  One
    Generator is carried across the blocks, so the files equal those of the
    whole scene generated, perturbed and written at once.
    """
    cfg = pio.load_config(args.scenario)
    if cfg.scenario is None:
        raise InvalidInputError(f"{args.scenario} has no [scenario] section")
    sc_cfg = cfg.scenario
    seed = args.seed if args.seed is not None else sc_cfg.seed
    scenario = build_scenario(sc_cfg.kind, sc_cfg.n_objects, sc_cfg.n_frames,
                              sc_cfg.width, sc_cfg.height, seed)
    rng = np.random.default_rng(seed + 1)
    # about FORMAT_BLOCK_ROWS object-frames a block: memory follows the block
    step = max(1, pio.FORMAT_BLOCK_ROWS // max(1, len(scenario.objects)))
    with pio.atomic_writers(args.out, args.gt) as (dets_out, gt_out):
        for start in range(0, scenario.n_frames, step):
            frames = range(start, min(start + step, scenario.n_frames))
            gt = generate(scenario, frames)
            pio.write_detections(perturb(scenario, gt, cfg.noise, rng, start),
                                 dets_out)
            per_frame = {
                frame: [(g.id, g.class_id, g.polygon, g.depth) for g in entries]
                for frame, entries in zip(frames, gt)
            }
            pio.write_instance_records(per_frame, scenario.width, scenario.height, gt_out)
    return 0


def _cmd_track(args) -> int:
    cfg = pio.load_config(args.config)
    tracker_cfg = cfg.tracker
    if args.no_ukf:
        tracker_cfg = replace(tracker_cfg, use_ukf=False)
    tracks = run_sequence(pio.parse_detections(args.dets), tracker_cfg)
    pio.write_results(tracks, cfg.width, cfg.height, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    gt_frames, _, gt_dims = pio.parse_mask_records(args.gt)
    hyp_frames, _, hyp_dims = pio.parse_mask_records(args.results)
    if gt_frames and hyp_frames and gt_dims != hyp_dims:
        raise InvalidInputError(
            f"dimension mismatch: gt {gt_dims} vs results {hyp_dims}")
    all_frames = set(gt_frames) | set(hyp_frames)
    if all_frames:
        lo, hi = min(all_frames), max(all_frames)
        empty = Frame.empty(gt_dims if gt_frames else hyp_dims)
        gt_seq = [gt_frames.get(f, empty) for f in range(lo, hi + 1)]
        hyp_seq = [hyp_frames.get(f, empty) for f in range(lo, hi + 1)]
    else:
        gt_seq, hyp_seq = [], []
    report = evaluate(gt_seq, hyp_seq)
    kv_path = args.report_kv if args.report_kv else args.report + ".kv"
    pio.write_report(report, args.report, kv_path)
    print(pio.format_report(report), end="")
    return 0


def _cmd_polygonize(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.mask_dir, "*.pgm")))
    if not paths:
        raise InvalidInputError(f"no .pgm files in {args.mask_dir}")
    lines = []
    for path in paths:
        mask = pio.read_pgm(path) > 0
        poly = polygonize(mask, args.vertices)
        stem = os.path.splitext(os.path.basename(path))[0]
        coords = " ".join(f"{v:.4f}" for v in poly.vertices.ravel())
        lines.append(f"{stem} {coords}")
    pio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


_SVG_COLORS = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
               "#a65628", "#f781bf", "#999999")


def _cmd_render(args) -> int:
    frames, _, dims = pio.parse_mask_records(args.results)
    if args.frame not in frames:
        raise InvalidInputError(f"frame {args.frame} not present in {args.results}")
    h, w = dims
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="#202020"/>']
    frame = frames[args.frame]
    prev = frames.get(args.frame - 1, Frame.empty(dims))
    for k, tid in enumerate(frame.ids, start=1):
        mask, origin = frame.window(k)
        poly = polygonize(mask, 32, origin)
        color = _SVG_COLORS[tid % len(_SVG_COLORS)]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in poly.vertices)
        parts.append(f'<polygon points="{points}" fill="{color}" '
                     f'fill-opacity="0.45" stroke="{color}"/>')
        cx, cy = centroid(poly)
        if tid in prev.ids:
            prev_mask, prev_origin = prev.window(prev.ids.index(tid) + 1)
            px, py = centroid(polygonize(prev_mask, 32, prev_origin))
            parts.append(f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{cx:.2f}" '
                         f'y2="{cy:.2f}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(_arrow_head(px, py, cx, cy, color))
        parts.append(f'<text x="{cx:.2f}" y="{cy:.2f}" fill="white" '
                     f'font-size="10" text-anchor="middle">{tid}</text>')
    parts.append("</svg>")
    pio.atomic_write_text(args.out, "\n".join(parts) + "\n")
    return 0


def _arrow_head(x1: float, y1: float, x2: float, y2: float, color: str) -> str:
    dx, dy = x2 - x1, y2 - y1
    norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
    ux, uy = dx / norm, dy / norm
    size = 4.0
    left = (x2 - size * ux + size * 0.5 * uy, y2 - size * uy - size * 0.5 * ux)
    right = (x2 - size * ux - size * 0.5 * uy, y2 - size * uy + size * 0.5 * ux)
    return (f'<path d="M {x2:.2f} {y2:.2f} L {left[0]:.2f} {left[1]:.2f} '
            f'L {right[0]:.2f} {right[1]:.2f} Z" fill="{color}"/>')


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "track": _cmd_track,
        "evaluate": _cmd_evaluate,
        "polygonize": _cmd_polygonize,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except (InvalidInputError, ParseError, PolymotError) as exc:
        print(f"polymot: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"polymot: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
