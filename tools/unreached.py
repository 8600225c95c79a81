"""List the library's functions that none of the given hopfctl commands enters.

    python tools/unreached.py < COMMANDS

COMMANDS holds one hopfctl argument line per line, as a shell would split
it (``verify --suite all --seed 0``); blank lines and lines starting with #
are skipped.  The library is imported from the ``src`` of this checkout
under ``sys.setprofile``, so code run at import counts as entered, and each
line runs in this process through ``cli.main`` with its stdout discarded; a
line that exits nonzero is named on stderr.  Prints, one a line in module
and source order, each module-level function and method (``module.name``
or ``module.Class.name``; properties, class methods and ``lru_cache``
wrappers included) of the modules of src/splithopf whose code no line
entered.  Standard library only.
"""

import contextlib
import importlib
import inspect
import io
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _functions(obj):
    """The plain functions behind a module or class attribute."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):  # lru_cache
        obj = obj.__wrapped__
    return [obj] if inspect.isfunction(obj) else []


def defined(module):
    """(code, name) of the functions the module defines and of the methods
    of the classes it defines, each code object once, in source order."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for obj in vars(module).values():
        attrs = vars(obj).values() if inspect.isclass(obj) else [obj]
        for fn in (fn for attr in attrs for fn in _functions(attr)):
            if fn.__module__ == module.__name__:
                found.setdefault(fn.__code__, "%s.%s" % (short, fn.__qualname__))
    return sorted(found.items(), key=lambda item: item[0].co_firstlineno)


def main(lines):
    sys.path.insert(0, SRC)
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        cli = importlib.import_module("splithopf.cli")
        names = sorted(n[:-3] for n in os.listdir(os.path.join(SRC, "splithopf"))
                       if n.endswith(".py"))
        modules = [importlib.import_module("splithopf." + n) for n in names]
        for line in lines:
            argv = shlex.split(line)
            if not argv or argv[0].startswith("#"):
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
            if code:
                sys.stderr.write("exit %s: %s\n" % (code, line.strip()))
    finally:
        sys.setprofile(None)
    for module in modules:
        for code, name in defined(module):
            if code not in entered:
                print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.stdin))
