"""Compare two ``hopfctl sample-field`` outputs (CSV or JSON).

    python tools/field_diff.py A B

Exits 1 when the column lists, the row counts or the skipped counts of the
two outputs differ, or when a value of B drifts from the value of A at the
same place by more than 1e-12 * max(1, |a|), and prints each difference.
Otherwise exits 0 and prints "byte-identical" when the files are, or else
the largest drift and where it is (a CSV and a JSON output of one grid
compare value by value).  A performance change may move values in
the last bits; only a larger drift fails.  Exits 2 when a file cannot be
read as sample-field output.  Standard library only.
"""

import csv
import io
import json
import sys

REL_TOL = 1e-12


def load(path):
    """(raw bytes, columns, rows of floats, skipped) of one output file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode()
        if text.lstrip().startswith("{"):
            payload = json.loads(text)
            columns, rows, skipped = payload["columns"], payload["rows"], payload["skipped"]
            rows = [[float(v) for v in row] for row in rows]
        else:
            lines = list(csv.reader(io.StringIO(text)))
            footer = lines[-1][0]
            if not footer.startswith("# skipped="):
                raise ValueError("no '# skipped=' footer")
            columns, skipped = lines[0], int(footer.split("=", 1)[1])
            rows = [[float(v) for v in line] for line in lines[1:-1]]
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as e:
        sys.stderr.write("field_diff: %s is not sample-field output (%s)\n" % (path, e))
        raise SystemExit(2)
    return raw, columns, rows, skipped


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    (raw_a, cols_a, rows_a, skip_a), (raw_b, cols_b, rows_b, skip_b) = load(argv[0]), load(argv[1])
    problems = []
    if cols_a != cols_b:
        problems.append("columns differ (%d vs %d)" % (len(cols_a), len(cols_b)))
    if len(rows_a) != len(rows_b):
        problems.append("row counts differ (%d vs %d)" % (len(rows_a), len(rows_b)))
    if skip_a != skip_b:
        problems.append("skipped counts differ (%d vs %d)" % (skip_a, skip_b))
    if problems:
        for p in problems:
            print(p)
        return 1
    if raw_a == raw_b:
        print("byte-identical")
        return 0
    worst, where, bad = 0.0, None, 0
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            print("row %d: %d values vs %d" % (r, len(row_a), len(row_b)))
            bad += 1
            continue
        for col, a, b in zip(cols_a, row_a, row_b):
            d = abs(b - a)
            # a NaN drift is never within tolerance
            if not d <= REL_TOL * max(1.0, abs(a)):
                print("row %d %s: %r -> %r, drift %.3g" % (r, col, a, b, d))
                bad += 1
            if d > worst or d != d:
                worst, where = d, (r, col)
    if bad:
        print("%d values drift beyond %g * max(1, |a|)" % (bad, REL_TOL))
        return 1
    if where is None:
        print("same columns, rows, skips and values")
    else:
        print("same columns, rows and skips; largest drift %.3g (row %d, %s)" % ((worst,) + where))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
