"""splithopf benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
The workloads and the listed end-to-end metrics are those of BENCHMARK.json;
workloads.py defines what each workload runs.  Each runs in a fresh
single-threaded worker process, closed loop.

With --trace 0 the result carries the end-to-end metrics: setup_s (set-up
time at the reference speed, median of SETUP_REPS fresh interpreters each
importing the library and building its static tables), wall_ref (median pass
cost in runs of a reference snippet timed alongside each pass, see
refclock.py) and peak_rss_mb.  It also prints figures BENCHMARK.json does not
list, and repeats them as one ``unlisted {...}`` JSON line before the
result: wall_s (median raw pass time), setup_raw_s (median raw set-up time),
ref_snippet_us, ops_failed_ratio, max_residual_ratio (verify) and nodes_per_s
(sample-field).  With --trace 1 it carries the per-layer metrics: calls and
self time per layer from a traced pass, op counts, the tracing overhead and
the probes of probes.py.  Every pass is gated (see workloads.py); a failed
gate counts in ``failed`` and makes ``correct`` false.

Exits 2, printing no result, when the checkout has no library to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPS = 8
DEADLINE_S = 170
# Seconds one reference-snippet run takes on the machine the benchmark was
# defined on (x86_64, 2 vCPUs, CPython 3.11) when its core runs fast.
# setup_s is set-up time in snippet runs times this constant: seconds of
# set-up on a core of that speed.
NOMINAL_SNIPPET_S = 250e-6

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class BenchError(Exception):
    pass


def _worker(args, timeout):
    """Run the worker to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, WORKER, "--src", SRC] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker %s timed out" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d: %s"
                         % (" ".join(args), proc.returncode, err.strip()[-2000:]))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def measure_setup(deadline, reps):
    """(seconds, snippet seconds) per repetition: the time from spawning a
    fresh interpreter to the end of its set-up, on the system-wide monotonic
    clock, and the harmonic mean reference-snippet time the worker measured
    during its set-up.  The median over repetitions absorbs the one repetition per
    checkout that also compiles bytecode."""
    samples = []
    for _ in range(reps):
        t0 = time.monotonic()
        res = _worker(["--setup-only"], deadline - time.monotonic())
        samples.append((res["ready"] - t0, res["ref"]))
    return samples


def end_to_end(workload, res, setup):
    """Metrics as {name: (value, unit, note)}; those BENCHMARK.json lists go
    into the result, the rest are printed only."""
    walls, refs = res["walls"], res["refs"]
    wall = statistics.median(walls)
    costs = [w / r for w, r in zip(walls, refs)]
    setup_raw = [s for s, _ in setup]
    setup_ref = [s / r * NOMINAL_SNIPPET_S for s, r in setup]
    m = {
        "setup_s": (statistics.median(setup_ref), "s",
                    "median of %d set-ups in snippet runs x %g s, range %.4f..%.4f"
                    % (len(setup), NOMINAL_SNIPPET_S, min(setup_ref), max(setup_ref))),
        "wall_ref": (statistics.median(costs), "ref",
                     "median of %d passes of pass time / harmonic mean snippet time, "
                     "range %.1f..%.1f" % (len(costs), min(costs), max(costs))),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB", "ru_maxrss of the worker"),
        "wall_s": (wall, "s", "median of %d timed passes, range %.4f..%.4f, warm-up %.4f"
                   % (len(walls), min(walls), max(walls), res["warm_s"])),
        "setup_raw_s": (statistics.median(setup_raw), "s",
                        "median of %d raw set-up times, range %.4f..%.4f"
                        % (len(setup), min(setup_raw), max(setup_raw))),
        "ref_snippet_us": (statistics.median(refs) * 1e6, "us",
                           "median over passes of the harmonic mean snippet time"),
        "ops_failed_ratio": (res["failed"] / res["attempted"], "ratio",
                             "%d of %d failed" % (res["failed"], res["attempted"])),
    }
    if workload == "sample-field":
        m["nodes_per_s"] = (res["rows"] / wall, "nodes/s",
                            "%d emitted rows per pass" % res["rows"])
    else:
        m["max_residual_ratio"] = (res["max_residual_ratio"], "ratio",
                                   "largest residual/tolerance of a pass")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "splithopf", "__init__.py")):
        sys.stderr.write("no library at %s: nothing to measure\n" % SRC)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            res = _worker(common, deadline - time.monotonic())
            metrics = {k: (v["value"], v["unit"], "") for k, v in res["per_layer"].items()}
        else:
            # set-ups before and after the workload, so that they sample the
            # machine over the whole run rather than over a few seconds
            setup = measure_setup(deadline, SETUP_REPS // 2)
            res = _worker(common, deadline - time.monotonic())
            setup += measure_setup(deadline, SETUP_REPS - SETUP_REPS // 2)
            metrics = end_to_end(args.workload, res, setup)
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 2
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for name, (value, unit, note) in metrics.items():
        print("  %-44s %-16.6g %-8s %s" % (name, value, unit, note))
    for detail in res["details"]:
        print("  gate: %s" % detail)
    if args.trace:
        listed = metrics
    else:
        names = [m["name"] for m in SPEC["end_to_end"]]
        listed = {k: metrics[k] for k in names}
        print("unlisted " + json.dumps({k: {"value": v, "unit": u}
                                        for k, (v, u, _) in metrics.items() if k not in names},
                                       allow_nan=False))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in listed.items()}}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
