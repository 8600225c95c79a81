"""One benchmark process: set up, then run a workload and print one JSON line.

Started by ``run.py``, which passes the checkout's ``src`` directory;
single-threaded, closed loop (each pass waits for the previous one).

    worker.py --setup-only
        import the library and build its static tables with the reference
        clock running (see refclock.py), then print {"ready": t, "ref": r}:
        t on the system-wide monotonic clock, r the harmonic mean snippet
        time during set-up.
    worker.py --workload NAME --seed N --seconds S --trace 0
        one warm-up pass, then timed passes until S seconds have passed
        (at least one), each with its reference-snippet time; every pass
        is gated.
    worker.py --workload NAME --seed N --seconds S --trace 1
        warm-up pass, two rounds of an untraced and a traced pass, then
        the per-layer probes within about S seconds.
"""

import argparse
import json
import os
import resource
import sys
import time


def _import_library(src):
    sys.path.insert(0, src)
    import splithopf
    where = os.path.dirname(os.path.dirname(os.path.abspath(splithopf.__file__)))
    if where != src:
        raise SystemExit("splithopf imported from %s, expected %s" % (where, src))
    import workloads
    workloads.build_static_tables()
    return workloads


class Tally:
    """Running totals of attempted and failed items over the gated passes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.details = []
        self.max_residual_ratio = None
        self.rows = None

    def add(self, result):
        self.attempted += result.attempted
        self.failed += result.failed
        if result.detail and len(self.details) < 10:
            self.details.append(result.detail)
        self.max_residual_ratio = result.max_residual_ratio
        self.rows = result.rows

    def add_check(self, checked, failed, detail):
        self.attempted += checked
        self.failed += failed
        if detail:
            self.details.append(detail)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "details": self.details, "max_residual_ratio": self.max_residual_ratio,
                "rows": self.rows}


def timed_pass(wl, tally):
    t = time.perf_counter()
    result = wl.run_pass()
    dt = time.perf_counter() - t
    tally.add(result)
    return dt


def run_timed(wl, seconds):
    """Warm-up pass, then timed passes for ``seconds``, each with the harmonic
    mean reference-snippet time measured during it (see refclock.py)."""
    from refclock import RefClock
    tally = Tally()
    warm_s = timed_pass(wl, tally)
    walls, refs = [], []
    with RefClock() as ref:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            n0 = len(ref.samples)
            walls.append(timed_pass(wl, tally))
            refs.append(ref.mean_since(n0))
    tally.add_check(*wl.final_check())
    out = tally.as_dict()
    out.update(walls=walls, refs=refs, warm_s=warm_s)
    return out


def run_traced(wl, seconds, seed):
    """Alternate untraced and traced passes; per-layer figures come from the
    last traced pass, the overhead ratio from all of them."""
    import layertrace
    import probes
    from splithopf import cli, gammarep, gaugegeom, hopfmaps, reporting, ringmat, \
        splitnum, superhopf
    modules = (splitnum, superhopf, ringmat, gammarep, hopfmaps, gaugegeom, reporting, cli)
    tally = Tally()
    timed_pass(wl, tally)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(timed_pass(wl, tally))
        tracer = layertrace.Tracer(modules)
        tracer.install()
        try:
            traced.append(timed_pass(wl, tally))
        finally:
            tracer.uninstall()
    tally.add_check(*wl.final_check())
    metrics = tracer.metrics(traced[-1], sum(traced) / sum(untraced))
    metrics.update(probes.run_probes(seed, seconds))
    out = tally.as_dict()
    out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.setup_only:
        from refclock import RefClock
        with RefClock() as ref:
            _import_library(args.src)
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "ref": ref.mean_since(0)}))
        return 0
    workloads = _import_library(args.src)
    wl = workloads.Workload(args.workload, args.seed)
    if args.trace:
        out = run_traced(wl, args.seconds, args.seed)
    else:
        out = run_timed(wl, args.seconds)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
