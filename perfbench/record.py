"""Run the benchmark over several seeds and record the numbers with provenance.

    python3 perfbench/record.py --seeds 1-10 --holdout 9001 --out perfbench/BENCH_baseline.json

Run it from the repository root.  For every workload in BENCHMARK.json it
makes one untraced run per seed and reports each end-to-end metric's
median, quartiles and spread, (q3 - q1) / median, next to the metric's
bound; one traced run on the first seed for the per-layer metrics and the
per-step table; and, with --holdout, one untraced run on a seed kept out
of development, each of whose metrics must lie within its bound of the
median.  Runs go one at a time, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

import run


def _seeds(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run: its result object and the sample count of each metric."""
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    counts = {}
    for ln in lines[:-1]:  # "  <name> <value> <unit> n=<samples>"
        parts = ln.split()
        if ln.startswith("  ") and parts[-1].startswith("n="):
            counts[parts[0]] = int(parts[-1][2:])
    return json.loads(lines[-1]), counts


def _git(*args: str) -> str | None:
    try:
        p = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--holdout", type=int, default=None, help="seed kept out of development")
    ap.add_argument("--out", default=None, help="JSON file to write")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_src_changes": bool(_git("status", "--porcelain", "src")),
        "host": run.host_info(),
        "run_seconds": seconds,
        "seeds": seeds,
        "calibration_ref_ms": run.CAL_REF_S * 1e3,
        "workloads": {},
    }
    ok = True
    for w in names:
        runs = [bench(w, s, seconds, 0) for s in seeds]
        rec: dict = {"attempted": sum(r["attempted"] for r, _ in runs),
                     "failed": sum(r["failed"] for r, _ in runs), "end_to_end": {}}
        rec["error_rate"] = rec["failed"] / rec["attempted"]
        ok &= rec["failed"] == 0
        print(f"{w}: {len(runs)} runs, error_rate {rec['error_rate']:g}", flush=True)
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            rec["end_to_end"][name] = {
                "unit": runs[0][0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": vals,
                "samples_per_run": [c.get(name) for _, c in runs]}
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:14s} median {med:12.6g}  spread {spread:.4f}  bound {bound}{flag}",
                  flush=True)
        if args.holdout is not None:
            res, counts = bench(w, args.holdout, seconds, 0)
            within = {k: res["metrics"][k]["value"] <= rec["end_to_end"][k]["median"] * (1 + b)
                      for k, b in bounds.items()}
            rec["holdout"] = {"seed": args.holdout, "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": res["metrics"],
                              "samples": counts, "within_bound": within}
            ok &= res["failed"] == 0 and all(within.values())
            print(f"  holdout seed {args.holdout}: failed {res['failed']}, "
                  f"within bounds: {all(within.values())}", flush=True)
        res, counts = bench(w, seeds[0], seconds, 1)
        with open(os.path.join(".perfbench", f"trace-{w}.json"), encoding="utf-8") as f:
            cells = json.load(f)["cells"]
        rec["traced"] = {"seed": seeds[0], "failed": res["failed"], "samples": counts,
                         "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
                         "per_step": cells}
        ok &= res["failed"] == 0
        record["workloads"][w] = rec
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
