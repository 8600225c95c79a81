"""hopfctl: verification suites, projections, tables and field sampling.

Exit codes: 0 all checks pass / operation succeeded, 1 check failure or
domain error, 2 usage error.  All structured output is JSON (CSV for grid
exports); floats round-trip losslessly (JSON writes each float's shortest
repr, CSV 17 significant digits: one "%.17g" line template per grid, in the
bytes of csv.writer's default dialect).  A non-finite value fails either
format, and nothing is written; so does an --out file that cannot be
written (exit 1).  A sample-field JSON grid is bulk data: one line with
the default separators, which CPython's C encoder writes; every other
document is indented by 2 spaces.  HOPFCTL_SEED provides the seed
when --seed is absent; a malformed one is a usage error.
"""

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

from .splitnum import SplitComplex, OrdinaryComplex, multiplication_table
from .ringmat import RING_REAL
from . import hopfmaps, gaugegeom, reporting

SCHEMA = 1
# Largest grid sample-field accepts, in nodes (the product of the steps).
MAX_GRID_NODES = 100_000
NON_FINITE = "the result holds a non-finite number; nothing written"


def _write(lines, out):
    """Write the lines to the file out, opened with newline="" so that no
    line ending is translated, or to stdout."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _emit(data, out, indent=2):
    """Write data as JSON to the file out, or to stdout.  indent=None gives
    one line with the default separators, which CPython's C encoder writes;
    any indent goes through its pure-Python encoder."""
    try:
        text = json.dumps(data, indent=indent, default=float, allow_nan=False)
    except ValueError:
        raise ValueError(NON_FINITE)
    _write([text, "\n"], out)


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HOPFCTL_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError("HOPFCTL_SEED: expected an integer, got %r" % env)


# ---------------------------------------------------------------------------
# spinor / point JSON codecs

def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise UsageError("non-finite number %s" % text)
    return x


def _load_json(text, what):
    """Parse a JSON argument whose numbers must all be finite."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise UsageError("%s: invalid JSON (%s)" % (what, e))
    except UsageError as e:
        raise UsageError("%s: %s" % (what, e))


def _is_number(v):
    """A JSON number: an int or a float, not a bool."""
    return type(v) in (int, float)


def _numbers(v, what, length):
    """v, when it is a JSON array of the given length of numbers; a bool,
    string, null, object or nested array in it is a usage error."""
    if not isinstance(v, list) or not all(map(_is_number, v)):
        raise UsageError("%s: expected a JSON array of numbers, got %s" % (what, json.dumps(v)))
    if len(v) != length:
        raise UsageError("%s: expected %d numbers, got %d" % (what, length, len(v)))
    return v


def _decode_scalar(v, ring, what):
    """A component of the ring: a number, or over the split-complex and
    complex rings also an [re, im] pair of numbers."""
    if isinstance(v, list) and ring is not RING_REAL:
        re, im = _numbers(v, what, 2)
        return type(ring.zero)(re, im)
    if not _is_number(v):
        raise UsageError("%s: expected a number%s, got %s"
                         % (what, "" if ring is RING_REAL else " or an [re, im] pair", json.dumps(v)))
    return v


def _decode_array(payload, ring, what, length):
    if not isinstance(payload, list):
        raise UsageError("%s: expected a JSON array, got %s" % (what, json.dumps(payload)))
    if len(payload) != length:
        raise UsageError("%s: expected %d components, got %d" % (what, length, len(payload)))
    return [_decode_scalar(v, ring, what) for v in payload]


def _encode_scalar(v):
    if isinstance(v, (SplitComplex, OrdinaryComplex)):
        return [float(v.re), float(v.im)]
    return float(v)


def decode_spinor(payload, level, realization):
    case = hopfmaps.case_info(level, realization)
    return hopfmaps.Spinor(level, realization,
                           _decode_array(payload, case.ring, "spinor", case.spinor_dim))


def encode_spinor(spinor):
    return {"schema": SCHEMA, "level": spinor.level, "realization": spinor.realization,
            "comps": [_encode_scalar(c) for c in spinor.comps]}


# ---------------------------------------------------------------------------
# subcommands

def cmd_tables(args):
    _emit(multiplication_table(args.algebra), args.out)
    return 0


def _parse_tolerances(specs):
    """{prefix: tolerance}; a tolerance that is not a finite number >= 0 is a
    usage error (a NaN or an infinite one would pass every residual)."""
    out = {}
    for spec in specs or ():
        try:
            prefix, value = spec.split("=")
            tol = float(value)
        except ValueError:
            raise UsageError("tolerance: expected CHECK_PREFIX=VALUE, got %r" % spec)
        if not (math.isfinite(tol) and tol >= 0):
            raise UsageError("tolerance: must be a finite number >= 0, got %r" % spec)
        out[prefix] = tol
    return out


def cmd_verify(args):
    seed = _seed(args)
    overrides = _parse_tolerances(args.tolerance)
    names = ["algebra", "gamma", "hopf", "gauge", "super"] if args.suite == "all" \
        else [args.suite]
    if args.inject_fault and not reporting.FAULT_SUITES & set(names):
        raise UsageError("--inject-fault: the %s suite has no fault hook" % args.suite)
    reports, matched = [], set()
    for name in names:
        rep = reporting.run_suite(name, seed=seed, corrupt=args.inject_fault)
        for check in rep.checks:
            for prefix, tol in overrides.items():
                if check.id.startswith(prefix) and check.residual is not None:
                    check.tolerance = tol
                    matched.add(prefix)
        reports.append(rep)
    unmatched = [prefix for prefix in overrides if prefix not in matched]
    if unmatched:  # else a mistyped prefix would change nothing, silently
        raise UsageError("tolerance: no residual-carrying check starts with %s"
                         % ", ".join(map(repr, unmatched)))
    payload = {
        "schema": SCHEMA,
        "seed": seed,
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "suites": [r.as_dict(timestamp=not args.no_timestamp) for r in reports],
    }
    _emit(payload, args.out)
    return 0 if payload["status"] == "pass" else 1


def _parse_point(args, length):
    return _numbers(_load_json(args.point, "point"), "point", length)


class UsageError(Exception):
    pass


def cmd_project(args):
    if args.level == 0:
        y = hopfmaps.level0_project(tuple(_numbers(_load_json(args.spinor, "spinor"),
                                                   "spinor", 2)))
        _emit({"schema": SCHEMA, "level": 0, "coords": [float(c) for c in y]},
              args.out)
        return 0
    payload = _load_json(args.spinor, "spinor")
    sp = decode_spinor(payload, args.level, args.realization)
    pt = hopfmaps.project(sp)
    _emit({"schema": SCHEMA, "level": pt.level, "realization": pt.realization,
           "coords": [float(c) for c in pt.coords], "patch": pt.patch}, args.out)
    return 0


def cmd_invert(args):
    if args.level == 0:
        coords = _parse_point(args, 2)
        x = hopfmaps.level0_invert(tuple(coords), args.patch)
        _emit({"schema": SCHEMA, "level": 0, "coords": [float(c) for c in x]},
              args.out)
        return 0
    case = hopfmaps.case_info(args.level, args.realization)
    pt = hopfmaps.BasePoint(args.level, args.realization, _parse_point(args, case.base_dim),
                            args.patch)
    fiber = None
    if args.fiber:
        # a fiber's components lie in the ring of the map's own spinors
        raw = _load_json(args.fiber, "fiber")
        if args.level == 1:
            fiber = _decode_scalar(raw, case.ring, "fiber")
        else:
            fiber = _decode_array(raw, case.ring, "fiber", case.fiber_dim)
    sp = hopfmaps.invert(pt, fiber=fiber, patch=args.patch)
    if isinstance(sp, hopfmaps.Section):
        mat = sp.matrix()
        _emit({"schema": SCHEMA, "level": args.level, "realization": args.realization,
               "section": [[_encode_scalar(e) for e in row] for row in mat.entries]},
              args.out)
    else:
        _emit(encode_spinor(sp), args.out)
    return 0


# one axis of a --grid: x and a positive decimal integer, two bounds, each a
# plain decimal or exponent literal, and a decimal integer step count
_BOUND = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_GRID_AXIS = re.compile(r"x([1-9][0-9]*)=(%s):(%s):([0-9]+)" % (_BOUND, _BOUND))


def _parse_grid(spec):
    axes = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m = _GRID_AXIS.fullmatch(part)
        if m is None:
            raise UsageError("grid: expected xI=min:max:steps[,...], got %r" % part)
        axis, lo, hi, steps = int(m[1]), float(m[2]), float(m[3]), int(m[4])
        if axis in axes:
            raise UsageError("grid: axis x%d given twice" % axis)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError("grid: bounds must be finite, got %r" % part)
        if steps < 1:
            raise UsageError("grid: steps must be at least 1, got %r" % part)
        axes[axis] = (lo, hi, steps)
    if not axes:
        raise UsageError("grid: empty specification")
    nodes = math.prod(steps for _, _, steps in axes.values())
    if nodes > MAX_GRID_NODES:
        raise UsageError("grid: %d nodes, more than the %d allowed" % (nodes, MAX_GRID_NODES))
    return axes


def cmd_sample_field(args):
    case = hopfmaps.case_info(args.level, args.realization)
    dim = case.base_dim
    ranges = [[0.0] for _ in range(1, dim)]
    for idx, (lo, hi, steps) in _parse_grid(args.grid).items():
        if not 1 <= idx <= dim - 1:
            raise UsageError("grid: axis x%d out of range (free axes are 1..%d)"
                             % (idx, dim - 1))
        ranges[idx - 1] = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)] \
            if steps > 1 else [lo]

    rows, names, skipped = [], (), 0
    sign = hopfmaps.patch_sign(args.patch)
    eta, target = case.base_metric.signature, case.constraint_target

    for partial in itertools.product(*ranges):
        # solve the last coordinate from the constraint on the chosen patch
        acc = sum(e * v * v for e, v in zip(eta[:-1], partial))
        last_sq = (target - acc) / eta[-1]
        if last_sq < 0:
            skipped += 1
            continue
        coords = list(partial) + [sign * math.sqrt(last_sq)]
        pt = hopfmaps.BasePoint(args.level, args.realization, coords, args.patch)
        if pt.patch_factor(args.patch) < 1e-6:
            skipped += 1
            continue
        try:
            names, values = gaugegeom.field_components(pt, args.patch)
        except hopfmaps.PatchError:
            skipped += 1
            continue
        rows.append(coords + values)  # coords are floats

    columns = ["x%d" % i for i in range(1, dim + 1)] + list(names)
    if args.format == "csv":
        template = ",".join(["%.17g"] * len(columns)) + "\r\n"
        body = [template % tuple(row) for row in rows]
        if any("n" in line for line in body):  # %.17g writes an n only in nan and inf
            raise ValueError(NON_FINITE)
        _write([",".join(columns) + "\r\n"] + body + ["# skipped=%d\r\n" % skipped], args.out)
    else:
        _emit({"schema": SCHEMA, "level": args.level, "realization": args.realization,
               "patch": args.patch, "columns": columns,
               "rows": rows, "skipped": skipped}, args.out, indent=None)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="hopfctl",
                                description="split-algebra Hopf map toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit a split-algebra multiplication table")
    t.add_argument("--algebra", required=True,
                   choices=["split-complex", "split-quaternion", "split-octonion"])
    t.add_argument("--out")
    t.set_defaults(fn=cmd_tables)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", required=True,
                   choices=["algebra", "gamma", "hopf", "gauge", "super", "all"])
    v.add_argument("--seed", type=int)
    v.add_argument("--out")
    v.add_argument("--no-timestamp", action="store_true",
                   help="zero wall times for byte-identical reports")
    v.add_argument("--inject-fault", action="store_true",
                   help="test hook: corrupt one fixture so the algebra or gamma suite fails")
    v.add_argument("--tolerance", action="append", metavar="CHECK_PREFIX=VALUE",
                   help="override the tolerance of residual-carrying checks")
    v.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("project", help="project a spinor to its base point")
    pr.add_argument("--level", type=int, required=True, choices=[0, 1, 2, 3])
    pr.add_argument("--realization", choices=["I", "II"], default="I")
    pr.add_argument("--spinor", required=True,
                    help="JSON components; split/complex entries as [re, im]")
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_project)

    iv = sub.add_parser("invert", help="inversion section at a base point")
    iv.add_argument("--level", type=int, required=True, choices=[0, 1, 2, 3])
    iv.add_argument("--realization", choices=["I", "II"], default="I")
    iv.add_argument("--patch", choices=["upper", "lower"], default="upper")
    iv.add_argument("--point", required=True, help="JSON coordinate array")
    iv.add_argument("--fiber", help="JSON fiber element (level-specific)")
    iv.add_argument("--out")
    iv.set_defaults(fn=cmd_invert)

    sf = sub.add_parser("sample-field", help="sample connection/curvature on a grid")
    sf.add_argument("--level", type=int, required=True, choices=[1, 2, 3])
    sf.add_argument("--realization", choices=["I", "II"], required=True)
    sf.add_argument("--patch", choices=["upper", "lower"], default="upper")
    sf.add_argument("--grid", required=True, help="xI=min:max:steps[,...]")
    sf.add_argument("--format", choices=["csv", "json"], default="csv")
    sf.add_argument("--out")
    sf.set_defaults(fn=cmd_sample_field)
    return p


_parser = functools.lru_cache(maxsize=1)(build_parser)  # main's, built once per process


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 2
    except (hopfmaps.NormalizationError, hopfmaps.PatchError, hopfmaps.ConstraintError,
            hopfmaps.SamplingError, ValueError, TypeError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
