"""The tools: the mutant finder of tools/mutate.py, pinned on a literal
source, the exit codes of the base-commit comparisons report_diff.py and
field_diff.py on small literal files, and the list of unreached functions
of unreached.py for one command."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutate, report_diff, field_diff = _load("mutate"), _load("report_diff"), _load("field_diff")

SOURCE = b"""a = -x + (y
     - z)
b = +x
b -= 1
c = 1 << k >> 2
if not (p <= q) and r > s >= t:
    d = u < v  # w > 0
e = x ** -1
"""


def test_find_signs():
    assert mutate.find_signs(SOURCE) == [
        (1, 4, "del"), (1, 7, "swap"), (2, 5, "swap"),
        (3, 4, "flip"), (4, 2, "swap"),
        (6, 10, "cmp"), (6, 22, "cmp"), (6, 26, "cmp"),
        (7, 10, "cmp"),
        (8, 9, "del"),
    ]


@pytest.mark.parametrize("line,col,kind,want", [
    (1, 4, "del", b"a = x + (y"),
    (1, 7, "swap", b"a = -x - (y"),
    (2, 5, "swap", b"     + z)"),
    (3, 4, "flip", b"b = -x"),
    (4, 2, "swap", b"b += 1"),
    (6, 10, "cmp", b"if not (p < q) and r > s >= t:"),
    (6, 22, "cmp", b"if not (p <= q) and r >= s >= t:"),
    (6, 26, "cmp", b"if not (p <= q) and r > s > t:"),
    (7, 10, "cmp", b"    d = u <= v  # w > 0"),
])
def test_mutate_changes_one_operator(line, col, kind, want):
    got = mutate.mutate(SOURCE, line, col, kind).splitlines()
    old = SOURCE.splitlines()
    assert got[line - 1] == want
    assert got[:line - 1] + got[line:] == old[:line - 1] + old[line:]


def test_shifts_are_not_comparisons():
    assert mutate.find_signs(b"m = (1 << k) >> j\nm <<= 2\n") == []


# ---------------------------------------------------------------------------
# report_diff.py and field_diff.py


def _exit_code(tool, tmp_path, a, b):
    """The tool's exit code on two files written with texts a and b (None
    leaves a file unwritten)."""
    paths = []
    for name, text in (("a", a), ("b", b)):
        path = tmp_path / name
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
        paths.append(str(path))
    try:
        return tool.main(paths)
    except SystemExit as e:
        return e.code


def _report(status="pass", residual=1e-12):
    check = {"id": "clifford-so32", "status": status, "identity": "{g_a, g_b} = 2 eta",
             "residual": residual, "tolerance": 1e-9}
    return json.dumps({"schema": 1, "suites": [{"suite": "gamma", "checks": [check]}]})


def test_report_diff_exit_codes(tmp_path):
    same = _report()
    assert _exit_code(report_diff, tmp_path, same, same) == 0
    # a residual that moves keeps the exit code, whatever the drift
    assert _exit_code(report_diff, tmp_path, same, _report(residual=3e-12)) == 0
    assert _exit_code(report_diff, tmp_path, same, _report(residual="nan")) == 0
    assert _exit_code(report_diff, tmp_path, same, _report(status="fail")) == 1
    assert _exit_code(report_diff, tmp_path, same, None) == 2
    assert _exit_code(report_diff, tmp_path, same, "{\"suites\": 1}") == 2


def _csv(values, skipped=0):
    rows = "".join(",".join(map(repr, row)) + "\n" for row in values)
    return "x1,A_1\n" + rows + "# skipped=%d\n" % skipped


def test_field_diff_exit_codes(tmp_path):
    base = [[0.5, 1.0], [-0.5, 250.0]]
    same = _csv(base)
    assert _exit_code(field_diff, tmp_path, same, same) == 0
    # within 1e-12 * max(1, |a|): 1e-12 at |a| <= 1, 2.5e-10 at 250
    assert _exit_code(field_diff, tmp_path, same, _csv([[0.5, 1.0 + 5e-13],
                                                         [-0.5, 250.0 + 2e-10]])) == 0
    json_text = json.dumps({"columns": ["x1", "A_1"], "rows": base, "skipped": 0})
    assert _exit_code(field_diff, tmp_path, same, json_text) == 0
    for drifted in ([[0.5, 1.0 + 4e-12], [-0.5, 250.0]], [[0.5, 1.0], [-0.5, 250.0 + 1e-9]],
                    [[0.5, float("nan")], [-0.5, 250.0]]):
        assert _exit_code(field_diff, tmp_path, same, _csv(drifted)) == 1
    assert _exit_code(field_diff, tmp_path, same, _csv(base, skipped=1)) == 1
    assert _exit_code(field_diff, tmp_path, same, _csv(base[:1])) == 1
    assert _exit_code(field_diff, tmp_path, same, None) == 2
    assert _exit_code(field_diff, tmp_path, same, "x1,A_1\n0.5,1.0\n") == 2


# ---------------------------------------------------------------------------
# unreached.py


def test_unreached_lists_what_a_command_does_not_enter():
    # in a fresh interpreter, so that the library is imported under the profiler
    run = subprocess.run([sys.executable, os.path.join(_TOOLS, "unreached.py")],
                         input="# the tables only\n\ntables --algebra split-complex\n",
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == ""
    names = run.stdout.splitlines()
    assert "splitnum.multiplication_table" not in names
    assert "cli.cmd_tables" not in names and "cli.main" not in names
    assert "gaugegeom.field_components" in names
    assert "cli.cmd_sample_field" in names and "hopfmaps.project" in names
