"""Collect a result set: run the benchmark over workloads and seeds.

    python3 perfbench/collect.py --seeds 1-10 [--trace 0|1] --out FILE

Runs ``run.py`` once per (seed, workload) over every workload of
BENCHMARK.json for its run_seconds, seed by seed so that slow drift of the
machine spreads over every workload, and writes FILE with the git SHA (when
the checkout is a git repository), Python version, CPU count, the raw result
of every run with the figures it printed but BENCHMARK.json does not list
(``unlisted``), and per metric the median, quartiles and spread
((q3 - q1) / median).  Prints the spreads against BENCHMARK.json's bounds:
a spread above a third of its bound is flagged, as is a run whose output
was not correct.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and relative spread."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_one(spec, workload, seed, seconds, trace):
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unlisted "):
            result["unlisted"] = json.loads(line[len("unlisted "):])
    return result


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    runs = {w: [] for w in names}
    for seed in parse_seeds(args.seeds):
        for w in names:
            res = run_one(spec, w, seed, spec["run_seconds"], args.trace)
            res["seed"] = seed
            runs[w].append(res)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {w: {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in rs])
                   for m in listed} for w, rs in runs.items()}
    unlisted = {w: {k: summarize([r["unlisted"][k]["value"] for r in rs])
                    for k in rs[0].get("unlisted", {})} for w, rs in runs.items()}
    out = {"sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "date": datetime.date.today().isoformat(),
           "seconds": spec["run_seconds"], "trace": args.trace, "summary": summary,
           "unlisted_summary": unlisted, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, allow_nan=False)
        fh.write("\n")
    bounds = {m["name"]: m.get("bound") for m in listed}
    print("\n%-14s %-14s %12s %10s %8s %s" % ("workload", "metric", "median", "spread",
                                              "bound", "note"))
    for w, metrics in summary.items():
        bad = sum(1 for r in runs[w] if not r["correct"])
        for name, s in metrics.items():
            bound = bounds[name]
            spread = s["spread"]
            note = "SPREAD > bound/3" if bound and (spread is None or spread > bound / 3) else ""
            print("%-14s %-14s %12.6g %10s %8s %s" % (
                w, name, s["median"], "-" if spread is None else "%.4f" % spread,
                bound if bound else "-", note))
        if bad:
            print("%-14s %d of %d runs NOT CORRECT" % (w, bad, len(runs[w])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
