"""Layered benchmark for agmjoin: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload wcoj-large --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is imported from ./src.
The workload's inputs come from --seed (see workloads.py).  Set-up is
repeated SETUP_REPEATS times; then passes over the workload's fixed step
list run back to back until --seconds have elapsed, and every answer is
checked.  A step that raises, exits non-zero or answers wrongly counts
as failed and the run goes on.

Times are speed-normalised.  The CPU of a shared machine runs the same
code up to half again slower for seconds to minutes at a time, so before
every step (and every set-up) the benchmark times a fixed calibration
loop, and scales the step's wall time by CAL_REF_S over the median of the
five loop times around it (three before the step, two after).  A time
therefore reads as wall seconds on a machine where the loop takes
CAL_REF_S.  The loop runs with the garbage collector off, so the size of
the package's heap cannot change its speed.  The report also prints raw
wall times.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time untraced and half with spans around every layer's entry points
(tracing.py), and reports per-layer metrics as the median over traced
passes of each pass's total, plus the traced-minus-untraced batch time;
the spans go to .perfbench/trace-<workload>.json.

The report goes to stdout; its last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SETUP_REPEATS = 3
KINDS = ("join", "bound")
CAL_REF_S = 0.001


def _calibration_loop() -> float:
    """Seconds a fixed tuple-sort-and-dict loop, like the engines' work, takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for a, b in sorted((i * 7919 % 1009, i) for i in range(1500)):
            counts[a] = counts.get(a, 0) + b
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples, which turn wall seconds into normalised seconds."""

    def __init__(self) -> None:
        self.loops: list[float] = []

    def tick(self) -> int:
        """Take a calibration sample; return its index."""
        self.loops.append(_calibration_loop())
        return len(self.loops) - 1

    def factor(self, i: int) -> float:
        """Scale for an interval that began right after sample ``i``."""
        return CAL_REF_S / statistics.median(self.loops[max(0, i - 2): i + 3])


def _import_package():
    """Import agmjoin from ./src and the benchmark modules next to this file."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "agmjoin", "__init__.py")):
        sys.exit("error: no ./src/agmjoin here; run from the repository root")
    sys.path.insert(0, src)
    import tracing
    import workloads

    return tracing, workloads


def run_pass(steps, clock, tracer=None, failures=None) -> list[tuple]:
    """Run every step once.

    Returns (label, kind, calibration index, wall s, answer correct) per
    step; not the step itself, so a pass's inputs can be freed.
    """
    seen: dict = {}
    done = []
    for s in steps:
        ci = clock.tick()
        t0 = time.perf_counter()
        try:
            out = s.call() if tracer is None else tracer.step(s.label, s.qid, s.call, ci)
            wall = time.perf_counter() - t0
            ok = bool(s.check(out, seen))
            why = "wrong answer"
        except Exception:
            wall = time.perf_counter() - t0
            ok = False
            why = traceback.format_exc(limit=3)
        if not ok and failures is not None:
            failures.append(f"{s.label}: {why}")
        done.append((s.label, s.kind, ci, wall, ok))
    return done


def measure(batch, seconds: float, clock, tracer=None, failures=None):
    """Passes back to back until ``seconds`` elapse (at least one pass).

    ``batch(p)`` gives the steps of pass p.  Returns the passes, as lists
    of (label, kind, normalised s, wall s, answer correct), and, when
    traced, each pass's span index range.
    """
    raw, ranges = [], []
    end = time.perf_counter() + seconds
    while not raw or time.perf_counter() < end:
        steps = batch(len(raw))
        lo = len(tracer.spans) if tracer else 0
        raw.append(run_pass(steps, clock, tracer, failures))
        ranges.append((lo, len(tracer.spans) if tracer else 0))
    clock.tick()  # the sample after the last step
    passes = [[(label, kind, wall * clock.factor(ci), wall, ok)
               for label, kind, ci, wall, ok in p] for p in raw]
    return passes, ranges


def _step_times(passes, col: int = 2, kind: str | None = None) -> list[float]:
    """Each step position's median time over the passes.

    ``col`` 2 takes normalised times, 3 wall times.  Position k holds the
    same step every pass, or in many-small the same grid cell.
    """
    return [statistics.median(p[k][col] for p in passes)
            for k, (_, k_kind, *_) in enumerate(passes[0]) if kind in (None, k_kind)]


def _batch_s(passes, col: int = 2) -> float:
    """One pass of the batch: the step times summed."""
    return sum(_step_times(passes, col))


def end_to_end(passes, setup_s: float) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, sample count).

    Latency percentiles are taken over the step times, so noise within a
    step's samples does not move them; the sample count is every pass's
    steps of that kind.
    """
    out = {"batch_s": (_batch_s(passes), "s", len(passes))}
    for kind in KINDS:
        ms = [t * 1e3 for t in _step_times(passes, kind=kind)]
        n = len(ms) * len(passes)
        out[f"{kind}_ms_p50"] = (statistics.median(ms), "ms", n)
        out[f"{kind}_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms", n)
    out["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set.

    VmHWM belongs to the process's own address space; ru_maxrss would
    also carry the parent's peak from the fork that started it.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "ns_per_op" in name:
        return "ns"
    if "share" in name or "over" in name:
        return "ratio"
    return "count"


def cell_table(tracing, untraced, ranges, spans, factor) -> list[dict]:
    """Per step that recurs every pass: untraced time; traced trie build,
    LP and engine time; ops; engine ns per op."""
    per_pass = [tracing.step_breakdown(spans, lo, hi, factor) for lo, hi in ranges]
    rows = []
    for k, (label, *_) in enumerate(untraced[0]):
        if any(len(p) <= k or p[k][0] != label for p in untraced):
            continue
        row = {"step": label, "wall_s": statistics.median(p[k][2] for p in untraced)}
        for col in ("build_s", "lp_s", "engine_s"):
            row[col] = statistics.median(p[label][col] for p in per_pass)
        row["ops"] = ops = per_pass[-1][label]["ops"]
        row["ns_per_op"] = row["engine_s"] / ops * 1e9 if ops else None
        rows.append(row)
    return rows


def host_info() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path, encoding="utf-8") as f:
                info[key] = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith(field))
        except (OSError, StopIteration):
            pass
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["wcoj-large", "many-small", "cli-files"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    tracing, workloads = _import_package()
    import_s = time.perf_counter() - _T0
    base = os.path.join(os.getcwd(), ".perfbench")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    failures: list[str] = []
    try:
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            ci = clock.tick()
            t0 = time.perf_counter()
            batch = workloads.WORKLOADS[args.workload](args.seed, work)
            setups.append((ci, time.perf_counter() - t0))
        clock.tick()
        setup_s = import_s * clock.factor(0) + statistics.median(
            wall * clock.factor(ci) for ci, wall in setups)

        if not args.trace:
            untraced, _ = measure(batch, args.seconds, clock, failures=failures)
            metrics = end_to_end(untraced, setup_s)
            traced = []
        else:
            untraced, _ = measure(batch, args.seconds / 2, clock, failures=failures)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced, ranges = measure(batch, args.seconds / 2, clock, tracer, failures)
            finally:
                tracer.close()
            layers = tracing.median_metrics(
                [tracing.layer_metrics(tracer.spans, lo, hi, clock.factor) for lo, hi in ranges])
            layers["trace.overhead_s"] = _batch_s(traced) - _batch_s(untraced)
            metrics = {k: (v, layer_unit(k), len(traced)) for k, v in layers.items()}
            cells = cell_table(tracing, untraced, ranges, tracer.spans, clock.factor)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in untraced + traced)
    failed = sum(1 for p in untraced + traced for *_, ok in p if not ok)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(batch(0))} steps, setup repeated "
          f"{SETUP_REPEATS}x; untraced batch wall {_batch_s(untraced, 3):.4f} s, calibration loop "
          f"{statistics.median(clock.loops) * 1e3:.4f} ms (reference {CAL_REF_S * 1e3:g} ms)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    print("host " + json.dumps(host_info(), sort_keys=True))
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    if args.trace and cells:
        print(f"{'step':40s} {'wall_s':>8s} {'build_s':>8s} {'lp_s':>8s} {'engine_s':>8s} "
              f"{'ops':>9s} {'ns/op':>7s}")
        for c in cells:
            nspo = "" if c["ns_per_op"] is None else f"{c['ns_per_op']:7.0f}"
            print(f"{c['step']:40s} {c['wall_s']:8.4f} {c['build_s']:8.4f} {c['lp_s']:8.4f} "
                  f"{c['engine_s']:8.4f} {c['ops']:9d} {nspo:>7s}")
    if args.trace:
        os.makedirs(base, exist_ok=True)
        tracer.dump(os.path.join(base, f"trace-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed, "host": host_info(),
                     "pass_ranges": ranges, "metrics": layers, "cells": cells})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
