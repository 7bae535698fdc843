"""Timing wrappers for the traced benchmark run.

The wrappers live in the benchmark, not in the program: ``install``
replaces each public function named in ``TARGETS`` on every polymot module
that holds it, so a caller resolves the wrapper whichever module it
imported the name from (``io.encode_rle`` as well as ``rle.encode_rle``).
Spans (name, start, end, parent, run id) stay in memory and are written
out when the traced process ends.

Run as a script, this file is the traced form of the ``polymot`` command
line; the benchmark starts each traced CLI stage this way:

    python3 bench/tracing.py SPANS.json RUN_ID simulate --scenario run.cfg ...
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter
_LAUNCHED = _perf()


def _px_arg(args, kwargs, result):
    return {"px": args[0].size}


def _px_result(args, kwargs, result):
    return {"px": result.size}


def _rows_result(args, kwargs, result):
    return {"rows": len(result[0])}


def _match_counts(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1]), "matched": len(result.pairs)}


def _associate_counts(args, kwargs, result):
    return {"dets": len(args[0]), "tracks": len(args[1]),
            "matches": len(result.matches),
            "births": len(result.unmatched_detections),
            "freezes": len(result.unmatched_tracks)}


# traced function -> work counter (args, kwargs, result) -> {stat: amount}
TARGETS = {
    "cli.main": None,
    "simulator.generate": None,
    "simulator.perturb": None,
    "simulator.shape_mask": None,
    "geometry.polygonize": _px_arg,
    "geometry.rasterize": _px_result,
    "metrics.flatten_frame": lambda a, k, r: {"instances": len(a[0])},
    "metrics.match_frame": _match_counts,
    "metrics.evaluate": None,
    "rle.encode_rle": _px_arg,
    "rle.decode_rle": _px_result,
    "io.parse_detections": lambda a, k, r: {"rows": sum(map(len, r.values()))},
    "io.parse_mask_records": lambda a, k, r: {"rows": sum(map(len, r[0].values()))},
    "io.write_detections": None,
    "io.write_instance_records": None,
    "tracker.Tracker.step": lambda a, k, r: {"dets": len(r)},
    "tracker.associate": _associate_counts,
    "ukf.batch_predict": _rows_result,
    "ukf.batch_update": _rows_result,
    "ukf.batch_birth": _rows_result,
}

# ratio stat -> (numerator, denominator), computed over the totals
RATIOS = {
    "metrics.match_frame.useful_ratio": ("metrics.match_frame.matched",
                                         "metrics.match_frame.pairs"),
    "tracker.associate.match_ratio": ("tracker.associate.matches",
                                      "tracker.associate.dets"),
}

TIME_STATS = ("calls", "s", "self_s", "errors")


def metric_names() -> list[str]:
    """Every per-function metric a traced run reports, in a fixed order."""
    counted = {
        "geometry.polygonize": ("px",), "geometry.rasterize": ("px",),
        "metrics.flatten_frame": ("instances",),
        "metrics.match_frame": ("pairs", "matched", "useful_ratio"),
        "rle.encode_rle": ("px",), "rle.decode_rle": ("px",),
        "io.parse_detections": ("rows",), "io.parse_mask_records": ("rows",),
        "tracker.Tracker.step": ("dets",),
        "tracker.associate": ("dets", "tracks", "matches", "match_ratio",
                              "births", "freezes"),
        "ukf.batch_predict": ("rows",), "ukf.batch_update": ("rows",),
        "ukf.batch_birth": ("rows",),
    }
    return [f"{fn}.{stat}" for fn in ("cli.startup", *TARGETS)
            for stat in TIME_STATS + counted.get(fn, ())]


class Recorder:
    """In-memory spans and work counts of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = _perf()
                stack.pop()
            if counter is not None:
                for stat, amount in counter(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Put a wrapper on every polymot module attribute holding a target."""
        import polymot.cli  # noqa: F401  (loads every module a stage uses)

        modules = [m for n, m in sys.modules.items()
                   if n == "polymot" or n.startswith("polymot.")]
        for name, counter in TARGETS.items():
            module_name, attr = name.split(".", 1)
            module = sys.modules["polymot." + module_name]
            if "." in attr:  # a method: the class attribute is the only holder
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], counter))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": dict(self.counts)}


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-function calls, inclusive and self seconds, errors and counts.

    Self time is a span's duration minus the durations of its direct
    children; with one thread the children never overlap.
    """
    out = dict.fromkeys(metric_names(), 0.0)
    for d in dumps:
        spans = d["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child):
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - covered
        for key, value in d["counts"].items():
            out[key] += value
    for key, (num, den) in RATIOS.items():
        out[key] = out[num] / out[den] if out[den] else 0.0
    return out


def self_seconds(dump: dict) -> float:
    """Total self time of one dump: the duration of its root spans."""
    return sum(end - start for _, start, end, parent in dump["spans"] if parent < 0)


def span_lines(dump: dict) -> list[str]:
    """One JSON line per span, for writing the trace out."""
    return [json.dumps({"run": dump["run_id"], "id": i, "name": name,
                        "start": start, "end": end, "parent": parent})
            for i, (name, start, end, parent) in enumerate(dump["spans"])]


def _main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(run_id)
    rec.install()
    # importing the program (numpy included) is part of every stage's wall time
    rec.spans.append(["cli.startup", _LAUNCHED, _perf(), -1])
    import polymot.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(rec.dump(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
