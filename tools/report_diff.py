"""Compare two ``hopfctl verify`` JSON reports.

    python tools/report_diff.py A.json B.json

Exits 1 when the (suite, check id, status) lists of the two reports differ,
and prints each difference.  Otherwise exits 0 and prints "byte-identical"
when the files are, or else one line per check whose residual moved (A's
residual, B's, the drift |B - A| and the drift as a fraction of the
tolerance), the largest drift first, and a count of the checks whose other
fields (details, timings) differ.  A performance change may move residuals
in the last bits; only a status change fails.  Exits 2 when a file cannot
be read as a report.  Standard library only.
"""

import json
import sys


def load(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        checks = [(s["suite"], c) for s in report["suites"] for c in s["checks"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write("report_diff: %s is not a verify report (%s)\n" % (path, e))
        raise SystemExit(2)
    return raw, checks


def statuses(checks):
    return [(suite, c["id"], c["status"]) for suite, c in checks]


def as_float(value):
    # a non-finite residual is written by name ("nan", "inf")
    return float(value) if value is not None else None


def drift(a, b):
    """(|b - a|, that as a fraction of the tolerance) for a check whose
    residual moved, None otherwise."""
    ra, rb = as_float(a.get("residual")), as_float(b.get("residual"))
    if ra is None or rb is None or ra == rb or (ra != ra and rb != rb):
        return None
    d = abs(rb - ra)
    tol = as_float(b.get("tolerance"))
    return d, (d / tol if tol else float("inf"))


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    (raw_a, checks_a), (raw_b, checks_b) = load(argv[0]), load(argv[1])
    sa, sb = statuses(checks_a), statuses(checks_b)
    if sa != sb:
        print("status lists differ:")
        only_a, only_b = set(sa) - set(sb), set(sb) - set(sa)
        for item in sa:
            if item in only_a:
                print("  - %s/%s %s" % item)
        for item in sb:
            if item in only_b:
                print("  + %s/%s %s" % item)
        if not only_a and not only_b:
            print("  the same checks in another order")
        return 1
    if raw_a == raw_b:
        print("byte-identical")
        return 0
    moved, other = [], 0
    for (suite, a), (_, b) in zip(checks_a, checks_b):
        d = drift(a, b)
        if d is not None:
            moved.append((d, suite, a, b))
        elif a != b:
            other += 1
    # largest drift first, a NaN drift (one residual NaN) before all
    moved.sort(key=lambda item: (item[0][0] != item[0][0], item[0][0]), reverse=True)
    for (d, frac), suite, a, b in moved:
        print("%s/%s: residual %r -> %r, drift %.3g (%.3g of tolerance)"
              % (suite, a["id"], a["residual"], b["residual"], d, frac))
    print("same statuses; %d residuals moved, %d checks differ otherwise" % (len(moved), other))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
