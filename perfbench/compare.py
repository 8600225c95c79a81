"""Compare two result sets written by collect.py.

    python3 perfbench/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric), with the base median, the new
median, their ratio and the quartile spreads of both sides.  The verdict:

  better      the new median is better than the base by more than both
              sides' quartile spreads;
  worse       the new median is worse by more than both spreads;
  unresolved  otherwise, or when a spread is wider than the metric's bound,
              unless every new run beats (or loses to) every base run.

A row is a regression when the new median is worse than the base by more
than the bound in BENCHMARK.json.  Exits 1 if any row is a regression or a
new run was not correct, and 2 if the two sets were not collected alike
(run seconds, trace setting or set of workloads differ).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(base, new, base_vals, new_vals, bound, lower_is_better):
    """Return (verdict, relative worsening, regression) for one metric."""
    sign = 1 if lower_is_better else -1
    worsening = sign * (new["median"] - base["median"]) / base["median"]
    noise = max(base["spread"], new["spread"])
    if lower_is_better:
        all_better = max(new_vals) < min(base_vals)
        all_worse = min(new_vals) > max(base_vals)
    else:
        all_better = min(new_vals) > max(base_vals)
        all_worse = max(new_vals) < min(base_vals)
    if noise > bound and not (all_better or all_worse):
        v = "unresolved"
    elif all_better or worsening < -noise:
        v = "better"
    elif all_worse or worsening > noise:
        v = "worse"
    else:
        v = "unresolved"
    return v, worsening, worsening > bound


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    for key in ("seconds", "trace"):
        if base[key] != new[key]:
            sys.stderr.write("%s differs: base %r, new %r\n" % (key, base[key], new[key]))
            return 2
    if set(base["summary"]) != set(new["summary"]):
        sys.stderr.write("workloads differ: base %s, new %s\n"
                         % (sorted(base["summary"]), sorted(new["summary"])))
        return 2
    print("base %s (%s, python %s, nproc %s)" % (args.base, base["sha"][:12], base["python"],
                                                base["nproc"]))
    print("new  %s (%s, python %s, nproc %s)" % (args.new, new["sha"][:12], new["python"],
                                                new["nproc"]))
    print("%-14s %-12s %12s %12s %8s %8s %8s %6s %-10s %s" % (
        "workload", "metric", "base", "new", "new/base", "sp.base", "sp.new", "bound",
        "verdict", "regression"))
    failed = False
    for w in sorted(base["summary"]):
        bad = sum(1 for r in new["runs"][w] if not r["correct"])
        for m in spec["end_to_end"]:
            name = m["name"]
            b, n = base["summary"][w][name], new["summary"][w][name]
            bv = [r["metrics"][name]["value"] for r in base["runs"][w]]
            nv = [r["metrics"][name]["value"] for r in new["runs"][w]]
            v, _, regression = verdict(b, n, bv, nv, m["bound"], m["better"] == "lower")
            failed |= regression
            print("%-14s %-12s %12.6g %12.6g %8.4f %8.4f %8.4f %6.2f %-10s %s" % (
                w, name, b["median"], n["median"], n["median"] / b["median"], b["spread"],
                n["spread"], m["bound"], v, "YES" if regression else "no"))
        if bad:
            failed = True
            print("%-14s %d of %d new runs NOT CORRECT" % (w, bad, len(new["runs"][w])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
