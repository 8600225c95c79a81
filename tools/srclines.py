"""Count the lines of the library's source, per module and in total.

    python tools/srclines.py [DIR]

DIR defaults to src/splithopf.  For each .py file directly under DIR, in
name order, prints its code lines and its `wc -l` line count, then the
totals.  A code line is a physical line holding a token outside comments
and docstrings: blank, comment-only and docstring lines do not count, and
a statement over several lines counts each of them.  Standard library only.
"""

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers taken by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """(code lines, wc -l lines) of one file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), text.count("\n")


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "splithopf")
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    rows = [(n,) + count(os.path.join(root, n)) for n in names]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print("%-*s %6s %6s" % (width, "module", "code", "wc -l"))
    for name, code, lines in rows:
        print("%-*s %6d %6d" % (width, name, code, lines))


if __name__ == "__main__":
    main(sys.argv)
