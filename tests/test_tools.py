"""The mutant finder of tools/mutate.py, pinned on a literal source."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "mutate.py")
_spec = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

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
