"""Layer tracing from outside the library.

``Tracer.install()`` replaces the public functions and methods of every
layer module with wrappers, in every namespace that bound them (module
globals, module-level dicts such as ``reporting.SUITES``, and class dicts),
and ``uninstall()`` puts the originals back.  A span wrapper records one
span (parent id, layer, start, end); a count-only wrapper, used for the
scalar-level classes, only counts, so time spent in scalar arithmetic is
self time of the layer that called it.  ``lru_cache`` builders are wrapped
from outside, so a cache hit stays a hit.
"""

import array
import fnmatch
import functools
import inspect
import sys
import time

LAYERS = ("splitnum", "superhopf", "ringmat", "gammarep", "hopfmaps", "gaugegeom",
          "reporting", "cli")

# Classes whose methods are scalar operations: counted, never spanned.
COUNT_ONLY = {"splitnum": None, "superhopf": ("GrassmannElement",)}  # None: all classes

ARITH_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__matmul__"}

# Op counters reported on their own: metric name -> patterns of wrapped names.
OP_COUNTERS = {
    "ringmat.scale.calls": ("ringmat:RMatrix.scale",),
    "ringmat.add.calls": ("ringmat:RMatrix.__add__",),
    "ringmat.matmul.calls": ("ringmat:RMatrix.__matmul__",),
    "ringmat.commutator.calls": ("ringmat:commutator",),
    "splitnum.mul.calls": ("splitnum:*.__mul__", "splitnum:*.__rmul__"),
}


def self_times(parents, layers, starts, ends, n_layers):
    """Per-layer self time: each span's duration minus the time its direct
    children cover.  Spans nest (one thread), so children never overlap.
    Returns (self time per layer, summed duration of the root spans)."""
    child = [0.0] * len(starts)
    roots = 0.0
    for i in range(len(starts)):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p < 0:
            roots += dur
        else:
            child[p] += dur
    out = [0.0] * n_layers
    for i in range(len(starts)):
        out[layers[i]] += (ends[i] - starts[i]) - child[i]
    return out, roots


def _is_lru(obj):
    return callable(obj) and hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__")


def _targets(module):
    """Yield (container, key, original, qualified name, count_only) for the
    public functions of a layer module and the public or arithmetic methods
    of the classes it defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    count_classes = COUNT_ONLY.get(layer, ())
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__) or \
                (_is_lru(obj) and obj.__wrapped__.__module__ == module.__name__):
            yield module, name, obj, "%s:%s" % (layer, name), False
    for cname, cls in list(vars(module).items()):
        if not inspect.isclass(cls) or cls.__module__ != module.__name__ \
                or issubclass(cls, BaseException):
            continue
        count_only = layer in COUNT_ONLY and (count_classes is None or cname in count_classes)
        for mname, attr in list(vars(cls).items()):
            if mname.startswith("_") and mname not in ARITH_DUNDERS:
                continue
            if inspect.isfunction(attr) or isinstance(attr, classmethod):
                yield cls, mname, attr, "%s:%s.%s" % (layer, cname, mname), count_only


class Tracer:
    """Records spans and counts at the public boundary of each layer."""

    def __init__(self, modules):
        self.modules = modules
        self.parents = array.array("q")
        self.layers = array.array("b")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counts = {}
        self._restore = []

    def _span_wrapper(self, fn, layer_idx, cell):
        parents, layers, starts, ends = self.parents, self.layers, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            layers.append(layer_idx)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
        return wrapper

    @staticmethod
    def _count_wrapper(fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        self._stack = []
        replaced = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            layer_idx = LAYERS.index(layer)
            for container, key, orig, qname, count_only in _targets(module):
                cell = self.counts.setdefault(qname, [0])
                is_cm = isinstance(orig, classmethod)
                fn = orig.__func__ if is_cm else orig
                if count_only:
                    w = self._count_wrapper(fn, cell)
                else:
                    w = self._span_wrapper(fn, layer_idx, cell)
                if _is_lru(orig):
                    w.cache_clear, w.cache_info = orig.cache_clear, orig.cache_info
                new = classmethod(w) if is_cm else w
                self._set(container, key, new)
                replaced[id(orig)] = (orig, new)
        # every other namespace that bound one of the originals by name
        for modname, module in list(sys.modules.items()):
            if modname != "splithopf" and not modname.startswith("splithopf."):
                continue
            for key, val in list(vars(module).items()):
                hit = replaced.get(id(val))
                if hit and hit[0] is val:
                    self._set(module, key, hit[1])
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        hit = replaced.get(id(dval))
                        if hit and hit[0] is dval:
                            self._set(val, dkey, hit[1])

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._restore.append((container, key, container[key]))
            container[key] = value
        else:
            self._restore.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def uninstall(self):
        for container, key, orig in reversed(self._restore):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._restore = []

    def metrics(self, traced_wall, overhead_ratio):
        """Per-layer calls and self time, op counters and the benchmark's own
        remainder for a traced pass of ``traced_wall`` seconds, plus the
        given traced/untraced wall ratio."""
        out = {}
        selfs, roots = self_times(self.parents, self.layers, self.starts, self.ends,
                                  len(LAYERS))
        for idx, layer in enumerate(LAYERS):
            calls = sum(c[0] for q, c in self.counts.items() if q.split(":")[0] == layer)
            out["%s.calls" % layer] = (calls, "count")
            out["%s.self_s" % layer] = (selfs[idx], "s")
        for metric, patterns in OP_COUNTERS.items():
            out[metric] = (sum(c[0] for q, c in self.counts.items()
                               if any(fnmatch.fnmatchcase(q, p) for p in patterns)),
                           "count")
        out["trace.spans"] = (len(self.starts), "count")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.remainder_s"] = (traced_wall - roots, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

