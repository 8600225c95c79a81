"""One-operator mutants of one module, run against ``hopfctl verify`` suites.

    python tools/mutate.py MODULE --suite SUITE [--suite SUITE ...] [--src DIR]

Makes one mutant per operator in DIR/splithopf/MODULE.py (DIR defaults to
the ``src`` of this checkout): each unary minus is deleted (``-x`` becomes
``x``), each unary plus is flipped (``+x`` becomes ``-x``), each binary plus
or minus, augmented assignments included, is swapped for the other (``a + b``
becomes ``a - b``, ``a -= b`` becomes ``a += b``), and each order comparison
is made loose or strict (``<`` becomes ``<=``, ``>=`` becomes ``>``; the
shifts ``<<`` and ``>>`` are not comparisons).
The source tree is copied once into a temporary directory; each mutant is
written there in turn and ``python -m splithopf.cli verify --suite SUITE
--seed 0 --no-timestamp`` runs on it for each suite given, in order, until
one kills it.  A mutant is killed when a check fails (exit 1), crashed
when the run exits with another nonzero code, timeout when it runs longer
than TIMEOUT_S seconds (a guard against mutants that loop forever), and
survived when every suite passes.

Prints one row per mutant (line and column of the operator, kind, outcome,
the suite that killed it, the source line) and a summary line.  Exits 0, or 2
when the unmutated tree already fails a suite.  DIR is never written.
Standard library only.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
SEED = 0
TIMEOUT_S = 300.0


def _operator_at(lines, line, col, chars):
    """(line, byte column) of the first of the bytes chars at or after the
    given place, past blanks, closing parentheses, line continuations and
    comments, or None when something else comes first."""
    while line <= len(lines):
        text = lines[line - 1]
        while col < len(text):
            ch = text[col:col + 1]
            if ch in chars:
                return line, col
            if ch == b"#":
                break
            if ch not in b" \t\r\n)\\":
                return None
            col += 1
        line, col = line + 1, 0
    return None


def find_signs(source):
    """(line, byte column, kind) of every unary minus ("del"), unary plus
    ("flip"), binary plus or minus ("swap", in an expression or an
    augmented assignment) and order comparison ("cmp": <, <=, > or >=) in
    the module, in source order."""
    unary = {ast.USub: ("del", b"-"), ast.UAdd: ("flip", b"+")}
    lines = source.splitlines(keepends=True)
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.UnaryOp) and type(node.op) in unary:
            kind, char = unary[type(node.op)]
            line, col = node.lineno, node.col_offset
            if lines[line - 1][col:col + 1] == char:
                out.append((line, col, kind))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, (ast.Add, ast.Sub)):
            left = node.left if isinstance(node, ast.BinOp) else node.target
            at = _operator_at(lines, left.end_lineno, left.end_col_offset, b"+-")
            if at is not None:
                out.append(at + ("swap",))
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left] + node.comparators[:-1], node.ops):
                if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                    at = _operator_at(lines, left.end_lineno, left.end_col_offset, b"<>")
                    if at is not None:
                        out.append(at + ("cmp",))
    return sorted(out)


def mutate(source, line, col, kind):
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    if kind == "cmp":
        # toggle the "=" after the < or >
        loose = text[col + 1:col + 2] == b"="
        lines[line - 1] = text[:col + 1] + (text[col + 2:] if loose else b"=" + text[col + 1:])
        return b"".join(lines)
    new = {"del": b"", "flip": b"-", "swap": b"-" if text[col:col + 1] == b"+" else b"+"}[kind]
    lines[line - 1] = text[:col] + new + text[col + 1:]
    return b"".join(lines)


def run_suites(src, suites):
    """(outcome, suite) for the first suite that fails, else ("survived", "")."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for suite in suites:
        cmd = [sys.executable, "-m", "splithopf.cli", "verify", "--suite", suite,
               "--seed", str(SEED), "--no-timestamp"]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", suite
        if proc.returncode == 1:
            return "killed", suite
        if proc.returncode != 0:
            return "crashed", suite
    return "survived", ""


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", help="module of the splithopf package, e.g. gammarep")
    p.add_argument("--suite", action="append", required=True,
                   help="verify suite to run (repeatable)")
    p.add_argument("--src", default=DEFAULT_SRC, help="source tree holding splithopf/")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, "splithopf", args.module + ".py")
        with open(target, "rb") as fh:
            original = fh.read()
        outcome, suite = run_suites(src, args.suite)
        if outcome != "survived":
            sys.stderr.write("mutate: the unmutated tree fails suite %s (%s)\n"
                             % (suite, outcome))
            return 2
        lines = original.splitlines()
        counts = {}
        print("%5s %4s %-4s %-8s %-8s %s" % ("line", "col", "kind", "outcome", "by", "source"))
        for line, col, kind in find_signs(original):
            with open(target, "wb") as fh:
                fh.write(mutate(original, line, col, kind))
            outcome, suite = run_suites(src, args.suite)
            counts[outcome] = counts.get(outcome, 0) + 1
            print("%5d %4d %-4s %-8s %-8s %s" % (
                line, col, kind, outcome, suite,
                lines[line - 1].decode().strip()), flush=True)
    total = sum(counts.values())
    print("%s: %d mutants, %s (suites %s, seed %d)" % (
        args.module, total,
        ", ".join("%d %s" % (n, k) for k, n in sorted(counts.items())) or "none",
        ", ".join(args.suite), SEED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
