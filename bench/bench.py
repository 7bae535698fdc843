#!/usr/bin/env python3
"""polymot benchmark: the four CLI stages on a sparse and a crowded scene.

One run of one workload:

    python3 bench/bench.py --workload cli_sparse --seed 0 --seconds 20 --trace 0

prints progress lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  ``--out FILE`` also appends the run, with machine info
and raw samples, to a JSON-lines result file.  Further modes:

    python3 bench/bench.py --compare A.jsonl B.jsonl   # medians, ratios, bounds
    python3 bench/bench.py --record-references         # rewrite references.json

See bench/README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every stage process.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCES_PATH = HERE / "references.json"
WORK_ROOT = ROOT / ".bench_work"
DEADLINE_MARGIN_S = 110   # beyond --seconds: the last pipeline and the traced pass
SETUPS = 5                # set-ups before each pipeline; the median is reported
REPLAY_MIN_STEPS = 1100   # >= 11 samples beyond p99 in the traced run's replay
CAL_REPS = 400            # kernel size: 0.5-0.8 s on the 2-vCPU Xeon VM it was sized on
CAL_REF_S = 0.5           # kernel CPU seconds that define the reference speed

# Each workload's scene seed is its reference seed plus --seed, so
# --seed 0 reproduces the scenes whose outputs references.json records.
WORKLOADS = {
    # ROADMAP fixed scene: frame pixels far outnumber object pixels, so
    # full-frame mask work dominates and the tracker is under 2%.
    "cli_sparse": dict(seed=5, frame=150, scene=dict(
        kind="random_walk", n_objects=12, n_frames=300, width=640, height=480)),
    # 5x the instances per frame on a quarter of the pixels: depth-order
    # overlap, contested gates, per-instance and per-detection overhead.
    "cli_crowded": dict(seed=11, frame=75, scene=dict(
        kind="random_walk", n_objects=40, n_frames=150, width=320, height=240)),
}
STAGES = ("simulate", "track", "evaluate", "render")
OUTPUT_FILES = {"simulate": ("dets.txt", "gt.txt"), "track": ("results.txt",),
                "evaluate": ("report.txt", "report.txt.kv"),
                "render": ("frame.svg",)}


class BenchError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


def _on_deadline(signum, frame):
    raise TimeoutError("run exceeded --seconds plus its margin")


@dataclass
class Run:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    observed: dict = field(default_factory=dict)  # what references.json records
    spans: list[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.notes.append(why)
        print(f"FAILED: {why}", flush=True)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_ENV, "cpu_affinity": sorted(os.sched_getaffinity(0))}


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def import_program() -> None:
    """Import polymot from this checkout's src/, never from elsewhere."""
    if not (SRC / "polymot" / "__init__.py").is_file():
        raise BenchError(f"no polymot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polymot

    if SRC.resolve() not in Path(polymot.__file__).resolve().parents:
        raise BenchError(f"polymot imported from {polymot.__file__}, not {SRC}")


# ------------------------------------------------------------ the pipeline


def stage_argv(stage: str, scene_seed: int, frame: int) -> list[str]:
    return {
        "simulate": ["simulate", "--scenario", "run.cfg", "--seed", str(scene_seed),
                     "--out", "dets.txt", "--gt", "gt.txt"],
        "track": ["track", "--dets", "dets.txt", "--config", "run.cfg",
                  "--out", "results.txt"],
        "evaluate": ["evaluate", "--gt", "gt.txt", "--results", "results.txt",
                     "--report", "report.txt"],
        "render": ["render", "--results", "results.txt", "--frame", str(frame),
                   "--out", "frame.svg"],
    }[stage]


@dataclass
class Stage:
    """One finished stage process: exit code, wall and CPU seconds, peak RSS."""

    code: int
    wall_s: float
    cpu_s: float    # user + system time of the process, steal and waits left out
    rss_mb: float
    ref_s: float = 0.0  # cpu_s at the reference speed, see calibrate()


def calibrate() -> float:
    """CPU seconds of a fixed kernel, which gauge the machine's current speed.

    On a shared VM the vCPU's speed drifts with the host's load, by 20% from
    one second to the next and by 2x over minutes, and CPU time drifts with
    it.  The kernel mixes the program's two kinds of work, frame-sized numpy
    mask passes and interpreted Python, and holds no polymot code, so no
    change to the program moves it.  A time t measured between calibrations
    c0 and c1 reads t * CAL_REF_S / mean(c0, c1) at the reference speed.
    """
    import numpy as np

    frame = np.arange(480 * 640, dtype=np.float64).reshape(480, 640) % 997
    t0 = time.process_time()
    for i in range(CAL_REPS):
        mask = frame > i
        np.flatnonzero(mask)
        np.where(mask, frame, 0.0).sum()
        counts: dict[int, int] = {}
        for j in range(4000):
            counts[j % 61] = counts.get(j % 61, 0) + j
    return time.process_time() - t0


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def run_stage(cmd: list[str], work: Path) -> Stage:
    """Run one stage in its own process and reap it with its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / "stage.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return Stage(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def run_pipeline(run: Run, name: str, scene_seed: int, work: Path,
                 traced: bool, cal: float) -> tuple[dict[str, Stage], float]:
    """The four CLI stages as a user runs them, one process each.

    ``cal`` is the calibration just before the first stage; each stage is
    followed by another.  Returns the stages and the last calibration.
    """
    stages = {}
    for i, stage in enumerate(STAGES):
        argv = stage_argv(stage, scene_seed, WORKLOADS[name]["frame"])
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), f"spans-{stage}.json",
                   f"{name}/{scene_seed}/{stage}", *argv]
        else:
            cmd = [sys.executable, "-m", "polymot.cli", *argv]
        stages[stage] = done = run_stage(cmd, work)
        after = calibrate()
        run.sample("calibration_s", after)
        done.ref_s = at_reference_speed(done.cpu_s, cal, after)
        cal = after
        run.attempted += 1
        if done.code != 0:
            err = (work / "stage.err").read_text(errors="replace").strip()
            run.fail(1, f"{stage} exited {done.code}: {err[-300:]}")
            rest = len(STAGES) - i - 1
            run.attempted += rest
            if rest:
                run.fail(rest, f"stages after {stage} not runnable")
            return {}, cal
    print(f"{name} scene seed {scene_seed}{' traced' if traced else ''}: "
          + ", ".join(f"{s} {d.wall_s:.3f} s ({d.cpu_s:.3f} s CPU)"
                      for s, d in stages.items()), flush=True)
    return stages, cal


def check_outputs(run: Run, ref, scene_seed: int, work: Path) -> None:
    """Seed-commit references on the reference seed, invariants elsewhere."""
    kv = dict(line.split("=", 1) for line in
              (work / "report.txt.kv").read_text().split())
    counts = {k: int(kv[k]) for k in ("tp", "fp", "fn", "idsw")}
    hashes = {f: sha256(work / f) for files in OUTPUT_FILES.values() for f in files}
    run.observed.update(scene_seed=scene_seed, report=counts, sha256=hashes)
    if ref is not None:
        for stage, files in OUTPUT_FILES.items():
            bad = [f for f in files if hashes[f] != ref["sha256"][f]]
            if bad:
                run.fail(1, f"{stage}: {', '.join(bad)} differ from the reference")
        if counts != ref["report"]:
            run.fail(1, f"evaluate: report {counts} != reference {ref['report']}")
        return
    gt_lines = _count_lines(work / "gt.txt")
    result_lines = _count_lines(work / "results.txt")
    if counts["tp"] + counts["fn"] != gt_lines:
        run.fail(1, f"evaluate: TP + FN = {counts['tp'] + counts['fn']}, "
                    f"GT lines = {gt_lines}")
    if counts["tp"] + counts["fp"] != result_lines:
        run.fail(1, f"evaluate: TP + FP = {counts['tp'] + counts['fp']}, "
                    f"result lines = {result_lines}")


def _count_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def replay(run: Run, ref, work: Path) -> None:
    """Step the simulated detections through Tracker.step in this process.

    The online tracker's per-frame latency on the workload's scene, timed
    untraced.  Every pass must return the same ids, and on the reference
    seed the ids recorded in references.json.
    """
    from polymot import Tracker
    from polymot import io as pio

    frames = pio.parse_detections(str(work / "dets.txt"))
    config = pio.load_config(str(work / "run.cfg")).tracker
    order = range(min(frames), max(frames) + 1)
    first, lat, total = None, [], 0.0
    gc.collect()
    for _ in range(math.ceil(REPLAY_MIN_STEPS / len(order))):
        tracker = Tracker(config)
        ids = []
        t_pass = time.perf_counter()
        for frame in order:
            dets = frames.get(frame, [])
            t0 = time.perf_counter()
            out = tracker.step(dets, frame)
            lat.append(time.perf_counter() - t0)
            ids.append(out)
        total += time.perf_counter() - t_pass
        run.attempted += len(order)
        if first is None:
            first = ids
            digest = hashlib.sha256(json.dumps(ids).encode()).hexdigest()
            run.observed["replay_ids_sha256"] = digest
            if ref is not None and digest != ref["replay_ids_sha256"]:
                run.fail(1, "replay: returned ids differ from the reference")
        else:
            differ = sum(a != b for a, b in zip(ids, first))
            if differ:
                run.fail(differ, f"replay: {differ} steps differ from the first pass")
    lat.sort()
    run.metrics.update({"tracker.Tracker.step.p50_us": percentile(lat, 50) * 1e6,
                        "tracker.Tracker.step.p99_us": percentile(lat, 99) * 1e6,
                        "tracker.Tracker.step.fps": len(lat) / total})


def set_up(run: Run, spec: dict, scene_seed: int, work: Path) -> float | None:
    """One set-up: write the scene config, then start the program in a fresh
    process that imports it and reads the config back, as each stage does.

    Returns its CPU seconds, this process's for the write and the child's
    for the rest, or None if it failed: a set-up whose program reads
    another scene fails.
    """
    scene = spec["scene"]
    text = "[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in scene.items())
    text += f"seed = {scene_seed}\n"
    t0 = time.process_time()
    (work / "run.cfg").write_text(text)
    write_s = time.process_time() - t0
    check = ("import sys, polymot.cli\n"
             "s = polymot.cli.pio.load_config('run.cfg').scenario\n"
             f"sys.exit(s is None or (s.n_objects, s.seed) != ({scene['n_objects']}, "
             f"{scene_seed}))\n")
    done = run_stage([sys.executable, "-c", check], work)
    run.attempted += 1
    if done.code != 0:
        err = (work / "stage.err").read_text(errors="replace").strip()
        run.fail(1, f"set-up exited {done.code}: {err[-300:]}")
        return None
    return write_s + done.cpu_s


def run_workload(run: Run, name: str, seed: int, seconds: float, traced: bool,
                 work: Path, refs: dict) -> None:
    spec = WORKLOADS[name]
    scene_seed = spec["seed"] + seed
    ref = refs.get(name)
    if ref is not None and ref["scene_seed"] != scene_seed:
        ref = None  # off the reference seed: check invariants instead
    start = time.perf_counter()
    cal = calibrate()
    run.sample("calibration_s", cal)
    while True:
        setups = []
        for _ in range(SETUPS):
            setups.append(set_up(run, spec, scene_seed, work))
            if setups[-1] is None:
                return
        before, cal = cal, calibrate()
        run.sample("calibration_s", cal)
        for cpu_s in setups:
            run.sample("setup_s", at_reference_speed(cpu_s, before, cal))
        stages, cal = run_pipeline(run, name, scene_seed, work, False, cal)
        if not stages:
            return
        for stage, done in stages.items():
            run.sample(f"cli.{stage}.wall_s", done.wall_s)
            run.sample(f"cli.{stage}.cpu_s", done.cpu_s)
            run.sample("peak_rss_mb", done.rss_mb)
        run.sample("cli.pipeline.wall_s", sum(d.wall_s for d in stages.values()))
        run.sample("cli.pipeline.cpu_s", sum(d.cpu_s for d in stages.values()))
        run.sample("pipeline_s", sum(d.ref_s for d in stages.values()))
        check_outputs(run, ref, scene_seed, work)
        # start another pipeline only if it should end within --seconds
        elapsed = time.perf_counter() - start
        if traced or elapsed * (1 + 1 / len(run.samples["pipeline_s"])) > seconds:
            break
    medians = {k: statistics.median(v) for k, v in run.samples.items()}
    medians["peak_rss_mb"] = max(run.samples["peak_rss_mb"])
    if not traced:
        run.metrics.update((k, medians[k]) for k in
                           ("setup_s", "pipeline_s", "peak_rss_mb"))
        return

    import tracing

    replay(run, ref, work)
    traced_stages, _ = run_pipeline(run, name, scene_seed, work, True, calibrate())
    if not traced_stages:
        return
    check_outputs(run, ref, scene_seed, work)
    dumps = [load_json(work / f"spans-{s}.json") for s in STAGES]
    run.metrics.update(tracing.summarize(dumps))
    for k in ("cli.pipeline.wall_s", "cli.pipeline.cpu_s", "calibration_s"):
        run.metrics[k] = medians[k]
    for stage, dump in zip(STAGES, dumps):
        for stat in ("wall_s", "cpu_s"):
            run.metrics[f"cli.{stage}.{stat}"] = medians[f"cli.{stage}.{stat}"]
        print(f"traced {stage}: self time covers "
              f"{tracing.self_seconds(dump) / traced_stages[stage].wall_s:.1%} "
              "of its wall time")
    traced_total = sum(d.wall_s for d in traced_stages.values())
    run.metrics["trace_overhead"] = (sum(d.ref_s for d in traced_stages.values())
                                     / medians["pipeline_s"])
    run.metrics["trace_coverage"] = sum(map(tracing.self_seconds, dumps)) / traced_total
    run.spans = [line for d in dumps for line in tracing.span_lines(d)]


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             refs: dict) -> Run:
    run = Run()
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_workload(run, workload, seed, seconds, traced, work, refs)
    except (BenchError, TimeoutError):
        raise
    except Exception:  # the program broke: report it as a failed operation
        run.attempted += 1
        run.fail(1, traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return run


def result_line(run: Run, units: dict[str, str]) -> dict:
    """The contract's last line; metrics a failed run lacks read 0."""
    metrics = dict(run.metrics)
    metrics["success_rate"] = 1.0 - run.failed / max(run.attempted, 1)
    if run.failed == 0:
        missing = [n for n in units if n not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    return {"correct": run.failed == 0,
            "attempted": max(run.attempted, 1), "failed": run.failed,
            "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": unit}
                        for n, unit in units.items()}}


def cmd_run(args) -> int:
    spec = load_json(SPEC_PATH)
    refs = load_json(REFERENCES_PATH)
    import_program()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(math.ceil(args.seconds) + DEADLINE_MARGIN_S)
    # One CPU for the harness and, by inheritance, every stage, so that the
    # calibration kernel gauges the CPU the stages run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    machine = machine_info()
    print("machine: " + json.dumps(machine), flush=True)
    run = run_once(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    signal.alarm(0)
    line = result_line(run, units)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "machine": machine,
                  "result": line, "samples": run.samples, "notes": run.notes}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    if args.spans and run.spans:
        Path(args.spans).write_text("\n".join(run.spans) + "\n")
    print(json.dumps(line), flush=True)
    return 0


# ------------------------------------------------------ compare / record


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def read_results(path: str) -> dict[tuple[str, str], list[float]]:
    groups: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for metric, m in rec["result"]["metrics"].items():
                    groups.setdefault((rec["workload"], metric), []).append(m["value"])
    return groups


def cmd_compare(base_path: str, new_path: str) -> int:
    """Per (workload, metric): both medians, their ratio and both spreads.

    For an end-to-end metric the verdict says whether the new median stays
    inside the bound of the base median; exits 1 if any does not.
    """
    e2e = {m["name"]: m for m in load_json(SPEC_PATH)["end_to_end"]}
    base, new = read_results(base_path), read_results(new_path)
    worse = 0
    print(f"{'workload':12} {'metric':40} {'base':>12} {'new':>12} {'ratio':>7} "
          f"{'spreads':>13} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = n / b if b else float("nan")
        verdict, bound_txt = "", ""
        if metric in e2e:
            m = e2e[metric]
            bound_txt = f"{m['bound']:.3f}"
            change = (n - b) / b if b else 0.0
            if m["better"] == "higher":
                change = -change
            verdict = "ok" if change <= m["bound"] else "WORSE"
            worse += verdict == "WORSE"
        print(f"{workload:12} {metric:40} {b:12.6g} {n:12.6g} {ratio:7.3f} "
              f"{spread(base[key]):6.3f}/{spread(new[key]):6.3f} {bound_txt:>6}  {verdict}")
    return 1 if worse else 0


def cmd_record() -> int:
    """Record the reference outputs of every workload on --seed 0."""
    import_program()
    refs = {}
    for workload in WORKLOADS:
        run = run_once(workload, 0, 0.0, True, {})
        if run.failed:
            raise BenchError(f"{workload} failed while recording: {run.notes}")
        refs[workload] = run.observed
    REFERENCES_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES_PATH}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run to this JSON-lines result file")
    p.add_argument("--spans", help="write the traced run's spans to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two result files written with --out")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.compare:
            return cmd_compare(*args.compare)
        if args.record_references:
            return cmd_record()
        if args.workload is None:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_json(SPEC_PATH)["run_seconds"]
        return cmd_run(args)
    except (BenchError, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
