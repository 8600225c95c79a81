"""Workload definitions: set-up, one pass per workload, and output gates.

Imported only inside a worker process whose ``sys.path`` starts with the
checkout's ``src`` directory (see ``worker.py``).  Every call goes through
the library's public functions; nothing here reaches into private names.
"""

import contextlib
import csv
import io
import json
import math
import os
import random

from splithopf import cli, gammarep, gaugegeom, hopfmaps, reporting

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected_checks.json")) as _fh:
    EXPECTED_CHECKS = json.load(_fh)

VERIFY_SUITES = {"verify-gauge": ("gauge",),
                 "verify-core": ("algebra", "gamma", "hopf", "super")}
# points=1 keeps one gauge pass near 5 s on a 2-CPU machine; the check ids
# (and so the code paths) are those of the default points=12 run.
GAUGE_POINTS = 1
CASES = ((1, "I"), (1, "II"), (2, "I"), (2, "II"), (3, "I"), (3, "II"))


def case_name(level, realization):
    return "L%d-%s" % (level, realization)


def build_static_tables():
    """Cold build of every static table the library caches or rebuilds:
    gamma families and generator sets, Weyl generators (both bars),
    't Hooft tables and the projection matrices of all six maps."""
    for name in gammarep.FAMILY_NAMES:
        gammarep.build_family(name)
        gammarep.build_generators(name)
    for real in ("I", "II"):
        for bar in (False, True):
            gammarep.build_weyl_generators(real, bar)
            gammarep.build_thooft(real, bar)
    for level, real in CASES:
        hopfmaps.case_info(level, real).projection_matrices()


def clear_static_caches():
    for fn in (gammarep.build_family, gammarep.build_generators,
               gammarep.build_weyl_generators, gammarep.charge_conjugation):
        fn.cache_clear()


class PassResult:
    """Outcome of one pass: items attempted and failed (a failed output gate
    counts), rows emitted (sample-field) and the largest residual/tolerance
    ratio seen (verify)."""

    def __init__(self, attempted, failed, detail="", max_residual_ratio=None, rows=0):
        self.attempted = attempted
        self.failed = failed
        self.detail = detail
        self.max_residual_ratio = max_residual_ratio
        self.rows = rows


# ---------------------------------------------------------------------------
# verify workloads

def verify_gate(suite, checks):
    """Compare (id, status) pairs with those of the seed commit.

    Returns (failed, detail): each expected check that is missing or not
    passing, and each unexpected check, counts once; a mere reordering
    counts once."""
    expected = EXPECTED_CHECKS[suite]
    got = [(c.id, "pass" if c.passed else "fail") for c in checks]
    if got == [(cid, "pass") for cid in expected]:
        return 0, ""
    status = dict(got)
    failed = sum(1 for cid in expected if status.get(cid) != "pass")
    failed += sum(1 for cid in status if cid not in set(expected))
    return max(failed, 1), "%s: (id, status) list differs from the seed commit" % suite


def run_verify(suites, seed, corrupt=False):
    attempted = failed = 0
    worst = 0.0
    details = []
    for suite in suites:
        kw = {"points": GAUGE_POINTS} if suite == "gauge" else {}
        attempted += len(EXPECTED_CHECKS[suite])
        try:
            report = reporting.run_suite(suite, seed=seed, corrupt=corrupt, **kw)
        except Exception as exc:  # a suite that raises fails all its checks
            failed += len(EXPECTED_CHECKS[suite])
            details.append("%s raised %s: %s" % (suite, type(exc).__name__, exc))
            continue
        n_bad, detail = verify_gate(suite, report.checks)
        failed += n_bad
        if detail:
            details.append(detail)
        for c in report.checks:
            if c.residual is not None and c.tolerance:
                ratio = float(c.residual) / float(c.tolerance)
                if not math.isfinite(ratio):
                    failed += 1
                    details.append("%s: non-finite residual" % c.id)
                else:
                    worst = max(worst, ratio)
    return PassResult(attempted, failed, "; ".join(details), max_residual_ratio=worst)


# ---------------------------------------------------------------------------
# sample-field workload

# (level, realization, output format, steps per axis); 16x16 level-2 nodes
# at ~4 ms and 2x2 level-3 nodes at ~0.3 s cost about the same per grid.
FIELD_GRIDS = ((2, "I", "csv", 16), (2, "II", "json", 16),
               (3, "I", "json", 2), (3, "II", "csv", 2))


def field_grid_specs(seed):
    """Seeded grid specifications over the free axes x1, x2 (upper patch).

    The level-2 split map skips the nodes with x2^2 > 1 + x1^2 near the top
    of its x2 range; the level-3 ranges stay inside the domain so that every
    level-3 node is computed."""
    rng = random.Random(seed)
    specs = []
    for level, real, fmt, steps in FIELD_GRIDS:
        lo1, hi1 = -rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
        lo2 = -rng.uniform(0.3, 0.6)
        hi2 = rng.uniform(1.05, 1.15) if (level, real) == (2, "I") else rng.uniform(0.3, 0.6)
        grid = "x1=%.3f:%.3f:%d,x2=%.3f:%.3f:%d" % (lo1, hi1, steps, lo2, hi2, steps)
        specs.append({"level": level, "realization": real, "format": fmt,
                      "grid": grid, "nodes": steps * steps})
    return specs


def expected_skipped(spec):
    """Nodes whose last coordinate has no real solution on the hyperboloid."""
    case = hopfmaps.case_info(spec["level"], spec["realization"])
    eta = case.base_metric.signature
    axes = []
    for part in spec["grid"].split(","):
        lo, hi, steps = part.split("=")[1].split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
        axes.append([lo + (hi - lo) * k / (steps - 1) for k in range(steps)])
    skipped = 0
    for x1 in axes[0]:
        for x2 in axes[1]:
            acc = eta[0] * x1 * x1 + eta[1] * x2 * x2
            if (case.constraint_target - acc) / eta[-1] < 0:
                skipped += 1
    return skipped


def parse_field_output(fmt, text):
    """Return (columns, rows, skipped) from sample-field output."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"], payload["skipped"]
    lines = list(csv.reader(io.StringIO(text)))
    footer = lines[-1][0]
    if not footer.startswith("# skipped="):
        raise ValueError("csv output lacks its skipped footer")
    rows = [[float(v) for v in line] for line in lines[1:-1]]
    return lines[0], rows, int(footer.split("=")[1])


def field_gate(spec, columns, rows, skipped):
    """Returns (failed_nodes, detail).  Each row must be finite and as wide as
    the header; rows + skipped must cover the grid, with the expected skips."""
    bad = sum(1 for r in rows
              if len(r) != len(columns) or not all(math.isfinite(v) for v in r))
    problems = []
    if bad:
        problems.append("%d rows non-finite or ragged" % bad)
    want_skip = expected_skipped(spec)
    if len(rows) + skipped != spec["nodes"] or skipped != want_skip:
        problems.append("rows=%d skipped=%d, expected %d nodes with %d skipped"
                        % (len(rows), skipped, spec["nodes"], want_skip))
        bad = spec["nodes"]
    return bad, "; ".join(problems)


def run_field(specs):
    """One pass over every grid through ``cli.main``; returns PassResult and
    the parsed rows of each grid (for the residual spot check)."""
    attempted = failed = rows_out = 0
    details = []
    outputs = []
    for spec in specs:
        argv = ["sample-field", "--level", str(spec["level"]),
                "--realization", spec["realization"], "--grid", spec["grid"],
                "--format", spec["format"]]
        buf = io.StringIO()
        attempted += spec["nodes"]
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError("hopfctl exited %d" % code)
            columns, rows, skipped = parse_field_output(spec["format"], buf.getvalue())
        except Exception as exc:  # a failing grid counts every node as failed
            failed += spec["nodes"]
            details.append("%s: %s" % (spec["grid"], exc))
            outputs.append([])
            continue
        bad, detail = field_gate(spec, columns, rows, skipped)
        failed += bad
        rows_out += len(rows)
        if detail:
            details.append("%s %s: %s" % (case_name(spec["level"], spec["realization"]),
                                          spec["grid"], detail))
        outputs.append(rows)
    return PassResult(attempted, failed, "; ".join(details), rows=rows_out), outputs


def field_residual_check(specs, outputs, seed, per_grid=1, tol=1e-6):
    """At seeded emitted nodes, the emitted components must equal those the
    library computes at the node's coordinates, and the closed connection
    must match the finite-difference oracle.  Returns (checked, failed,
    detail)."""
    rng = random.Random(seed + 1)
    checked = failed = 0
    details = []
    for spec, rows in zip(specs, outputs):
        if not rows:
            continue
        name = case_name(spec["level"], spec["realization"])
        dim = hopfmaps.case_info(spec["level"], spec["realization"]).base_dim
        for row in rng.sample(rows, min(per_grid, len(rows))):
            pt = hopfmaps.BasePoint(spec["level"], spec["realization"], row[:dim], "upper")
            _, values = gaugegeom.field_components(pt, "upper")
            r = gaugegeom.connection_residual(pt, "upper")
            checked += 1
            if len(values) != len(row) - dim or not all(
                    math.isclose(v, e, rel_tol=1e-12, abs_tol=1e-12)
                    for v, e in zip(values, row[dim:])):
                failed += 1
                details.append("%s: emitted components differ from field_components at %r"
                               % (name, row[:dim]))
            elif not r < tol:
                failed += 1
                details.append("%s: connection residual %r at %r" % (name, r, row[:dim]))
    return checked, failed, "; ".join(details)


# ---------------------------------------------------------------------------

class Workload:
    """A named workload bound to a seed: ``run_pass`` does one pass and
    gates its output; ``final_check`` runs gates kept out of the timed
    region.  ``corrupt`` passes the library's fault hook to the suites."""

    def __init__(self, name, seed, corrupt=False):
        if name not in VERIFY_SUITES and name != "sample-field":
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.seed = seed
        self.corrupt = corrupt
        self.specs = field_grid_specs(seed) if name == "sample-field" else None
        self.last_outputs = None

    def run_pass(self):
        if self.name in VERIFY_SUITES:
            return run_verify(VERIFY_SUITES[self.name], self.seed, corrupt=self.corrupt)
        result, self.last_outputs = run_field(self.specs)
        return result

    def final_check(self):
        """Spot check at seeded sample-field nodes (count, failed, detail);
        the verify workloads carry their own oracles."""
        if self.name != "sample-field" or self.last_outputs is None:
            return 0, 0, ""
        return field_residual_check(self.specs, self.last_outputs, self.seed)
