"""Matrices over an involutive scalar ring.

The substrate for every gamma-matrix and spinor computation: small matrices
(at most 16x16) over the reals, ordinary complex numbers or split-complex
numbers.  Each matrix carries a ring descriptor that supplies the entry
involution, so adjoints never mix conjugation modes mid-expression.  Values
are immutable.  Grassmann values enter only as vector elements: ``matvec``,
``form`` and ``forms`` act on a vector of any elements the entries multiply
(the super spinors of superhopf) through the elements' own arithmetic.

Storage is by component grid.  A matrix over the reals keeps one grid, its
entries.  A matrix over the split-complex or complex ring keeps two, the
real and the imaginary parts of its entries, and builds its entries (one
SplitComplex or OrdinaryComplex per cell) only when code reads ``entries``
or ``entry()``; no kernel does.  Every matrix finds its nonzero cells on
first use and keeps them (there is nothing to switch on), and every kernel
walks those cells only: the products (``@``, ``matvec``, ``commutator``,
``anticommutator``), the Hermitian forms (``forms``), linear combinations
(``lincomb``), ``+``/``-`` (over the union of the operands' cells) and the
elementwise ops (``scale``, negation, ``conj``).  Every
zero cell of a result is the ring's zero.  Over the split-complex and
complex rings the kernels compute on the components, in the operation
order of the entries' own arithmetic, so float values are bit-identical to
it and Fraction entries stay exact; over the reals they use the entries'
own arithmetic.  ``lincomb`` walks a float copy of the cells (kept on the
matrix too) for a float coefficient, since a float times a Fraction is the
float times the Fraction's float.

Exact kernels run on integers.  A matrix whose nonzero cells hold only
ints and Fractions keeps on first exact use those cells cleared to ints
with one common denominator (``_exact``).  One rule, ``_cleared``, picks
the loop of ``@`` (so ``commutator`` and ``anticommutator``), forms and
``scale``:
when both operands are exact and a Fraction is a factor of every term
written (``_clear``), the loop runs on the cleared ints and divides each
written value once.  So types are those of the entries' own arithmetic:
a written value is a Fraction, also where its terms cancel, and a value
no term reached is the int 0.  Each written value comes from
``splitnum.rational``, a bounded memo of ``Fraction(n, d)``, so a value
written again is the Fraction already made.  Other operands keep the
loop above, bit for bit; a float is told by its first component, before
any scan.

``forms(mats, vec)`` gives the Hermitian form of each of several matrices
over one ring against one vector: it reads (and on exact input clears) the
vector once, and a row whose one cell is a unit (+-1, +-u) reads its term
from the product conj(v_i) v_j, made once for every matrix; ``RMatrix.form``
is ``forms`` of one matrix.  A spinor's norm and all its bilinears
(hopfmaps.project, superhopf.super_project) are one ``forms`` call.
"""

from fractions import Fraction
from itertools import islice
import operator

from .splitnum import SplitComplex, OrdinaryComplex, REAL_TYPES, cleared_ints, rational

__all__ = [
    "Ring", "RING_REAL", "RING_SPLIT", "RING_COMPLEX",
    "MetricForm", "RMatrix", "forms", "lincomb", "worst_of",
    "commutator", "anticommutator",
]


class Ring:
    """Descriptor of an involutive scalar ring; conj_fn implements the
    involution."""

    def __init__(self, name, zero, one, conj_fn, promote_fn):
        self.name = name
        self.zero = zero
        self.one = one
        self.conj = conj_fn
        self.promote = promote_fn

    def __repr__(self):
        return "Ring(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def _promote_real(x):
    if isinstance(x, REAL_TYPES):
        return x
    raise TypeError("not a real scalar: %r" % (x,))


def _promote_split(x):
    if isinstance(x, SplitComplex):
        return x
    if isinstance(x, REAL_TYPES):
        return SplitComplex(x, 0)
    raise TypeError("cannot place %r in the split-complex ring" % (x,))


def _promote_complex(x):
    if isinstance(x, OrdinaryComplex):
        return x
    if isinstance(x, complex):
        return OrdinaryComplex(x.real, x.imag)
    if isinstance(x, REAL_TYPES):
        return OrdinaryComplex(x, 0)
    raise TypeError("cannot place %r in the complex ring" % (x,))


RING_REAL = Ring("real", 0, 1, lambda x: x, _promote_real)
RING_SPLIT = Ring("split-complex", SplitComplex(0, 0), SplitComplex(1, 0),
                  lambda x: x.conj(), _promote_split)
RING_COMPLEX = Ring("complex", OrdinaryComplex(0, 0), OrdinaryComplex(1, 0),
                    lambda x: x.conj(), _promote_complex)


def _is_zero(x):
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return x == 0


class MetricForm:
    """Diagonal metric with entries +-1; 1-based index access."""

    def __init__(self, signature):
        signature = tuple(signature)
        if any(s not in (-1, 1) for s in signature):
            raise ValueError("signature entries must be +-1")
        self.signature = signature
        self.dim = len(signature)

    def eta(self, i, j=None):
        if j is not None and i != j:
            return 0
        return self.signature[i - 1]

    def matrix(self, ring=RING_REAL):
        return RMatrix.diagonal(self.signature, ring)

    def inner(self, x, y):
        """sum_i s_i x_i y_i."""
        return sum(s * a * b for s, a, b in zip(self.signature, x, y))

    def __eq__(self, other):
        return isinstance(other, MetricForm) and self.signature == other.signature

    def __repr__(self):
        return "MetricForm(%s)" % (self.signature,)


class RMatrix:
    """Immutable dense matrix over the real, complex or split-complex Ring.

    Stored as component grids (see the module docstring): ``components()``
    returns them and ``from_components`` builds from them; ``entries`` and
    ``entry()`` give ring elements.

    dagger() is conjugate-transpose under the ring involution; the rings are
    commutative, so it is an anti-homomorphism, dagger(MN) =
    dagger(N) dagger(M), and dagger(dagger(M)) = M.
    """

    __slots__ = ("rows", "cols", "ring", "_grids", "_entries", "_cells", "_fcells", "_icells",
                 "_units")

    def __init__(self, entries, ring):
        rows = [[ring.promote(x) for x in row] for row in entries]
        if _binarion(ring):
            grids = ([[a.re for a in row] for row in rows], [[a.im for a in row] for row in rows])
        else:
            grids = (rows,)
        self._fill(grids, ring)
        self._check_rectangular()

    @classmethod
    def from_components(cls, grids, ring):
        """Build from component grids, whose values are taken as they are:
        (entries,) over the reals, (re, im) over the split-complex and
        complex rings.  Binarion grids are kept, not copied, so nothing may
        change them afterwards."""
        n = 2 if _binarion(ring) else 1
        if len(grids) != n:
            raise ValueError("%s takes %d component grids" % (ring.name, n))
        m = cls._of(grids, ring)
        m._check_rectangular()
        return m

    @classmethod
    def _of(cls, grids, ring):
        """from_components for grids known to be rectangular and of one shape."""
        m = object.__new__(cls)
        m._fill(grids, ring)
        return m

    def _fill(self, grids, ring):
        first = grids[0]
        entries = None
        if len(grids) == 1:
            entries = tuple(map(tuple, first))
            grids = (entries,)
        object.__setattr__(self, "rows", len(first))
        object.__setattr__(self, "cols", len(first[0]) if len(first) else 0)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_grids", grids)
        object.__setattr__(self, "_entries", entries)
        for kept in ("_cells", "_fcells", "_icells", "_units"):
            object.__setattr__(self, kept, None)

    def _check_rectangular(self):
        if any(len(g) != self.rows or any(len(r) != self.cols for r in g)
               for g in self._grids):
            raise ValueError("ragged rows")

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n, ring):
        return cls([[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)], ring)

    @classmethod
    def zeros(cls, rows, cols, ring):
        return cls([[ring.zero] * cols for _ in range(rows)], ring)

    @classmethod
    def diagonal(cls, diag, ring):
        n = len(diag)
        return cls([[diag[i] if i == j else ring.zero for j in range(n)] for i in range(n)], ring)

    @classmethod
    def from_blocks(cls, blocks, ring):
        """Assemble from a 2D grid of equally sized blocks (RMatrix over
        ring, or 0)."""
        sizes_r = []
        sizes_c = None
        for brow in blocks:
            h = None
            widths = []
            for b in brow:
                if isinstance(b, RMatrix):
                    if b.ring != ring:
                        raise TypeError("ring mismatch: %s block in %s" % (b.ring, ring))
                    h = b.rows
                    widths.append(b.cols)
                else:
                    widths.append(None)
            sizes_r.append(h)
            if sizes_c is None:
                sizes_c = widths
            else:
                sizes_c = [w if w is not None else old for w, old in zip(widths, sizes_c)]
        if any(h is None for h in sizes_r) or any(w is None for w in sizes_c):
            raise ValueError("cannot infer block sizes")
        grids = tuple([] for _ in range(2 if _binarion(ring) else 1))
        for brow, h in zip(blocks, sizes_r):
            for r in range(h):
                for k, grid in enumerate(grids):
                    line = []
                    for b, w in zip(brow, sizes_c):
                        line.extend(b._grids[k][r] if isinstance(b, RMatrix) else [0] * w)
                    grid.append(line)
        return cls.from_components(grids, ring)

    # ---- basic algebra ----------------------------------------------------

    def __add__(self, other):
        return self._union(other, operator.add, operator.add)

    def __sub__(self, other):
        return self._union(other, operator.sub, _add_negated)

    def __neg__(self):
        if _binarion(self.ring):
            return self._cellwise(lambda ar, ai: (-ar, -ai))
        return self._cellwise(operator.neg)

    def scale(self, c):
        """c * M, the scalar on the left.  When _operands clears the
        components of c (promoted to the ring) and the cells, _cellwise runs
        on the cleared ints and divides by their common denominator."""
        c = self.ring.promote(c)
        cls = _binarion(self.ring)
        parts = [c.re, c.im] if cls else [c]
        cv = None if type(parts[0]) is float else _clear(parts, True)
        ops = cv and _operands(self, cv)
        if ops:
            cells, parts, dm, dc = ops
            ops = cells, dm * dc
        if cls:
            cr, ci = parts
            t = cls.UNIT_SQ * ci
            return self._cellwise(lambda ar, ai: (cr * ar + t * ai, cr * ai + ci * ar), ops)
        c, = parts
        return self._cellwise(lambda a: c * a, ops)

    def __matmul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return RMatrix._of(_product(self, other), self.ring)

    def matvec(self, vec):
        """Apply to a column vector given as a sequence; returns a list.

        The vector may hold binarions of the ring or any elements the entries
        multiply (Grassmann elements): those take entry * element and the
        elements' own sum, from the ring's zero.  A row without nonzero
        cells gives the ring's zero for a vector of ring elements or reals,
        and the ring's zero times the first element (a zero of the
        elements' own kind) otherwise."""
        cls = _binarion(self.ring)
        if cls and all(type(v) is cls for v in vec):
            parts = [v.re for v in vec], [v.im for v in vec], None
            return list(map(cls, *_matvec_components(self, parts, cls.UNIT_SQ)))
        return _matvec_values(self, vec, None)

    def form(self, vec):
        """sum_i conj(vec_i) (M vec)_i, the ring involution on the left
        (see forms)."""
        return forms((self,), vec)[0]

    # ---- involutions ------------------------------------------------------

    def transpose(self):
        return RMatrix._of(tuple(list(zip(*g)) for g in self._grids), self.ring)

    def conj(self):
        if _binarion(self.ring):
            return self._cellwise(lambda ar, ai: (ar, -ai))
        return self._cellwise(self.ring.conj)

    def dagger(self):
        return self.conj().transpose()

    # ---- queries ----------------------------------------------------------

    def components(self):
        """The component grids: (entries,) over the reals, (re, im) over the
        split-complex and complex rings.  Read-only."""
        return self._grids

    @property
    def entries(self):
        """Rows of ring elements; built from the grids on first read over
        the split-complex and complex rings, and kept."""
        entries = self._entries
        if entries is None:
            cls = _binarion(self.ring)
            re, im = self._grids
            entries = tuple([tuple(map(cls, r, i)) for r, i in zip(re, im)])
            object.__setattr__(self, "_entries", entries)
        return entries

    def entry(self, i, j):
        if self._entries is None:
            re, im = self._grids
            return _binarion(self.ring)(re[i][j], im[i][j])
        return self._entries[i][j]

    def __eq__(self, other):
        """Componentwise ==, so a NaN cell is unequal to every cell, itself
        included (a sequence compare would take a shared NaN as equal)."""
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols
                and all(all(map(operator.eq, a, b))
                        for g, h in zip(self._grids, other._grids) for a, b in zip(g, h)))

    def __hash__(self):
        return hash((self.ring.name,) + tuple(tuple(map(tuple, g)) for g in self._grids))

    def is_zero(self):
        return not any(_cells(self))

    def max_abs(self):
        """Largest absolute value over all real components of all entries
        (NaN if any component is NaN)."""
        return worst_of(abs(float(c)) for g in self._grids for row in g for c in row)

    def __repr__(self):
        return "RMatrix(%dx%d over %s)" % (self.rows, self.cols, self.ring.name)

    def _cellwise(self, fn, ops=None):
        """fn of each nonzero cell in place, zero elsewhere; fn maps (re, im)
        to (re, im) over a binarion ring and the entry to the entry
        otherwise.  ops = (cleared cells, den) from scale: fn
        runs on those cells and each value is divided by den once."""
        cells, den = ops or (_cells(self), None)
        start = 0 if den is None else False
        if _binarion(self.ring):
            re = [[start] * self.cols for _ in cells]
            im = [[start] * self.cols for _ in cells]
            for lr, li, row in zip(re, im, cells):
                for j, ar, ai in row:
                    lr[j], li[j] = fn(ar, ai)
            if den is not None:
                re, im = _finish(re, den), _finish(im, den)
            return RMatrix._of((re, im), self.ring)
        out = [[start] * self.cols for _ in cells]
        for line, row in zip(out, cells):
            for j, a in row:
                line[j] = fn(a)
        return RMatrix._of((out if den is None else _finish(out, den),), self.ring)

    def _union(self, other, op, comp_op):
        """op of the entries on the union of the operands' nonzero cells,
        zero elsewhere; over the binarion rings comp_op of their components,
        which gives the bits of op.  A cell only one operand holds meets the
        other's stored components.  A cell both hold may be computed twice
        (when its first value is the shared int 0), with the same value."""
        self._check(other)
        zero = 0
        cols = self.cols
        if _binarion(self.ring):
            (xre, xim), (yre, yim) = self._grids, other._grids
            res, ims = [], []
            for ca, cb, xr, xi, yr, yi in zip(_cells(self), _cells(other), xre, xim, yre, yim):
                lr, li = [zero] * cols, [zero] * cols
                for j, ar, ai in ca:
                    lr[j] = comp_op(ar, yr[j])
                    li[j] = comp_op(ai, yi[j])
                for j, br, bi in cb:
                    if lr[j] is zero:
                        lr[j] = comp_op(xr[j], br)
                        li[j] = comp_op(xi[j], bi)
                res.append(lr)
                ims.append(li)
            return RMatrix._of((res, ims), self.ring)
        (xs,), (ys,) = self._grids, other._grids
        out = []
        for ra, rb, ca, cb in zip(xs, ys, _cells(self), _cells(other)):
            line = [zero] * cols
            for j, _ in ca:
                line[j] = op(ra[j], rb[j])
            for j, _ in cb:
                if line[j] is zero:
                    line[j] = op(ra[j], rb[j])
            out.append(line)
        return RMatrix._of((out,), self.ring)

    def _check(self, other):
        if not isinstance(other, RMatrix):
            raise TypeError("expected RMatrix")
        if self.ring != other.ring:
            raise TypeError("ring mismatch: %s vs %s" % (self.ring, other.ring))
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _binarion(ring):
    """SplitComplex or OrdinaryComplex for the rings whose entries the kernels
    handle by components, None for the reals."""
    cls = type(ring.zero)
    return cls if cls in (SplitComplex, OrdinaryComplex) else None


def _cells(m):
    """Nonzero cells of each row, in column order: (j, re, im) over a
    binarion ring, (j, value) over the reals.  Found on first use and kept.
    A value is nonzero when it is truthy (NaN is; -0.0 is not)."""
    cells = m._cells
    if cells is None:
        if len(m._grids) == 2:
            cells = tuple([tuple([(j, r, i) for j, (r, i) in enumerate(zip(rr, ri)) if r or i])
                           for rr, ri in zip(*m._grids)])
        else:
            cells = tuple([tuple([(j, a) for j, a in enumerate(row) if a])
                           for row in m._grids[0]])
        object.__setattr__(m, "_cells", cells)
    return cells


def _add_negated(x, y):
    """x + (-y), the component op of a binarion difference: x - y would
    give -0.0 where x is -0.0 and y an exact zero."""
    return x + (-y)


def _float_cells(m):
    """_cells(m) with float components (the cells themselves when they
    hold floats only); found on first use
    and kept.  A float times a Fraction is the float times float(Fraction),
    so a float coefficient gives the same bits on either form."""
    cells = m._fcells
    if cells is None:
        cells = _cells(m)
        if any(type(cell[1]) is not float or type(cell[-1]) is not float
               for row in cells for cell in row):
            cells = tuple(tuple((cell[0],) + tuple(map(float, cell[1:])) for cell in row)
                          for row in cells)
        object.__setattr__(m, "_fcells", cells)
    return cells


_EXACT = {int, Fraction}


def _clear(values, broad=False):
    """(ints, den, kind) for a sequence of ints and Fractions: the values
    times den, the lcm of their denominators (splitnum.cleared_ints), and
    the kind of the operand.  Kind 0: no Fraction.  Kind 2: a Fraction is
    a factor of every term a kernel writes, because every value is one or
    because a broad operand (each of its values meets every written value)
    holds one.  Kind 1: anything else.  None when another type is among
    the values (a float is told by the first one, before any scan)."""
    if values and type(values[0]) is float:
        return None
    types = set(map(type, values))
    if not types <= _EXACT:
        return None
    if Fraction not in types:
        return values, 1, 0
    return cleared_ints(values) + (2 if broad or int not in types else 1,)


def _exact(m):
    """_clear of the components of m's nonzero cells, kept as cells:
    (cells, den, kind), the cells themselves for kind 0; None otherwise.
    Found on first exact use and kept; a float matrix is told by its first
    component, before any scan."""
    ex = m._icells
    if ex is None:
        cells = _cells(m)
        row = next(filter(None, cells), ())
        ex = not (row and type(row[0][1]) is float) and \
            _clear([c for row in cells for cell in row for c in cell[1:]])
        if ex and ex[2]:
            it, k = iter(ex[0]), len(m._grids)
            ex = (tuple([tuple([(cell[0], *islice(it, k)) for cell in row])
                         for row in cells]), ex[1], ex[2])
        elif ex:
            ex = (cells, 1, 0)
        object.__setattr__(m, "_icells", ex or False)
    return ex or None


def _cleared(a, b):
    """Whether a kernel walks its cleared loop on two operands classified
    by _clear or _exact: both exact and one of kind 2.  Every kernel with a
    cleared loop takes this one decision; otherwise it keeps the entries'
    own arithmetic."""
    return a is not None and b is not None and (a[2] == 2 or b[2] == 2)


def _operands(m, cv):
    """(cells, ints, dm, dv) when _cleared admits m and the values cv =
    (ints, dv, kind) from _clear: the cells of m cleared over dm (_exact)
    and cv's ints; None otherwise (also for cv None)."""
    em = cv and _exact(m)
    return (em[0], cv[0], em[1], cv[1]) if _cleared(em, cv) else None


def _finish(grid, den):
    """The grid of a cleared kernel, whose values are int sums over den:
    each becomes the Fraction sum / den (splitnum.rational, which hands
    back a value it made recently), and one still False, which no term
    reached, the int 0 (False + n is the int n).  So a reached cell is a
    Fraction even when its terms cancel."""
    return [tuple([0 if x is False else rational(x, den) for x in line]) for line in grid]


def _product(a, b):
    """Component grids of a @ b: (re, im) over a binarion ring, (entries,)
    over the reals.

    Row-sparse (Gustavson order): row i accumulates A[i, k] * B[k, :] over
    the nonzero A[i, k] in increasing k, so each cell sums its terms in the
    order of the dense triple loop.  The sums start at int 0, so over the
    binarion rings none of them is a negative zero.  When _cleared admits
    the operands (_exact), the loop runs on their cleared cells and each
    sum is divided once (_finish)."""
    ring = a.ring
    if ring != b.ring:
        raise TypeError("ring mismatch: %s vs %s" % (ring, b.ring))
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d @ %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    n = b.cols
    ea = _exact(a)
    eb = ea and _exact(b)
    if _cleared(ea, eb):
        a_cells, b_cells, den, start = ea[0], eb[0], ea[1] * eb[1], False
    else:
        a_cells, b_cells, den, start = _cells(a), _cells(b), None, 0
    cls = _binarion(ring)
    if cls:
        u2 = cls.UNIT_SQ
        res, ims = [], []
        for arow in a_cells:
            re, im = [start] * n, [start] * n
            for k, ar, ai in arow:
                t = u2 * ai
                for j, br, bi in b_cells[k]:
                    re[j] = re[j] + (ar * br + t * bi)
                    im[j] = im[j] + (ar * bi + ai * br)
            res.append(re)
            ims.append(im)
        if den is not None:
            return _finish(res, den), _finish(ims, den)
        return res, ims
    out = []
    for arow in a_cells:
        line = [start] * n
        for k, x in arow:
            for j, y in b_cells[k]:
                line[j] = line[j] + x * y
        out.append(line)
    return (out if den is None else _finish(out, den),)


def _vector_parts(vec):
    """(vr, vi, cv) for a form's vector of binarions: its re and im
    components and, when they are exact (_clear, both lists together,
    broad), cv = ((ints of vr, ints of vi), dv, kind) for _operands; else
    cv is None."""
    vr = [v.re for v in vec]
    vi = [v.im for v in vec]
    cv = None if not vr or type(vr[0]) is float else _clear(vr + vi, True)
    if cv:
        ints, dv, kind = cv
        cv = (ints[:len(vr)], ints[len(vr):]), dv, kind
    return vr, vi, cv


def _matvec_components(m, parts, u2):
    """(res, ims) for M vec over a binarion ring, parts = (vr, vi, cv) as
    _vector_parts gives them: the (re, im) of each row, summed over the
    row's cells in column order as the entries' product and sum would.
    When _operands clears m and the vector (cv), the row sums are ints over
    the den that forms divides by, False for a row without cells."""
    vr, vi, cv = parts
    ops = _operands(m, cv)
    if ops:
        cells, (vr, vi), _, _ = ops
        start = False
    else:
        cells, start = _cells(m), 0
    res, ims = [], []
    for row in cells:
        re = im = start
        for k, ar, ai in row:
            br, bi = vr[k], vi[k]
            re = re + (ar * br + u2 * ai * bi)
            im = im + (ar * bi + ai * br)
        res.append(re)
        ims.append(im)
    return res, ims


def _matvec_values(m, vec, cv):
    """The sum of each row of M vec in the entries' own arithmetic, as
    matvec describes.  cv is a form's _clear(vec) over the reals, else
    None.  When _operands clears m and the vector (cv), the row sums are
    ints over the den that forms divides by, False for a row without
    cells."""
    ring = m.ring
    cls = _binarion(ring)
    ops = _operands(m, cv)
    if ops:
        cells, vec, _, _ = ops
        start = False
    else:
        cells, start = _cells(m), ring.zero
    empty = start
    if vec and not isinstance(vec[0], REAL_TYPES + (type(empty),)):
        empty = empty * vec[0]
    out = []
    for row in cells:
        acc = start if row else empty
        for cell in row:
            a = cls(cell[1], cell[2]) if cls else cell[1]
            acc = acc + a * vec[cell[0]]
        out.append(acc)
    return out


def _units(m):
    """(places, general) for the rows of m, found on first use and kept;
    False unless m is square with int cells.  A row i whose one cell (at k)
    is a unit (+-1, or +-u over a binarion ring) places its term's parts in
    (p, -p), p = conj(v_lo) v_hi, lo <= hi the row and k: (lo * n + hi, re,
    im).  A unit swaps and negates, and conj(v_k) v_i = conj(conj(v_i) v_k)
    sums the same products, so a term keeps its bits but a zero's sign,
    which no form reads; any other row i is in general, placed at -1 - i."""
    units = m._units
    if units is None:
        ex = m.rows == m.cols and _exact(m)
        n, u2, units = m.cols, getattr(_binarion(m.ring), "UNIT_SQ", 1), []
        for i, row in enumerate(_cells(m) if ex and not ex[2] else ()):
            k, *a = row[0] if len(row) == 1 else (0, 0)
            ar, ai = (a + [0])[:2]
            c = -1 if i > k else 1
            # (sign, component of p) of the term's re and im
            terms = ((ar, 0), (ar * c, 1)) if ar else ((u2 * ai * c, 1), (ai, 0))
            units.append((min(i, k) * n + max(i, k),) + tuple(j + 1 - s for s, j in terms)
                         if sum(map(abs, a)) == 1 else (-1 - i, 0, 1))
        units = bool(units) and (tuple(units), tuple(-1 - u[0] for u in units if u[0] < 0))
        object.__setattr__(m, "_units", units)
    return units


def forms(mats, vec):
    """[m.form(vec) for m in mats], for matrices over one ring: each form is
    sum_i conj(vec_i) (M vec)_i, the ring involution on the left, its terms
    added in increasing i from the ring's zero.

    The vector is read once: its components, their conjugates and, on
    exact input, its cleared ints (_clear, one lcm, broad), which a matrix
    takes when _cleared admits it.  When they are all floats or all exact,
    a unit row (_units) reads its term from the pair products, made once in
    a call for all the matrices (of ints, so all see the vector cleared or
    none does); any other row sums its cells as matvec does, then takes the
    entries' own product."""
    ring = mats[0].ring
    if any(m.ring is not ring and m.ring != ring for m in mats):
        raise TypeError("forms takes matrices over one ring")
    cls, n = _binarion(ring), len(vec)
    binarions = cls and all(type(v) is cls for v in vec)
    if binarions:
        u2 = cls.UNIT_SQ
        parts = vr, vi, cv = _vector_parts(vec)
        kinds = set(map(type, vr + vi))
    else:
        cv, kinds = (None, {None}) if cls else (_clear(vec, True), set(map(type, vec)))
    one = kinds <= _EXACT or kinds == {float}
    if not binarions:  # cleared ints, floats, ints and Fractions are their own conjugates
        vr, vi = vec if one else [c.conj() if hasattr(c, "conj") else c for c in vec], None
    # the pair products, then at -1 - i the term of a general row i
    pairs, out = [None] * (n * n + n), []
    for m in mats:
        r = min(m.rows, n)
        units, general = one and m.cols == n and _units(m) or (
            tuple((-1 - i, 0, 1) for i in range(r)), range(r))
        ops = _operands(m, cv)
        xr, xi = (ops[1] if binarions else (ops[1], None)) if ops else (vr, vi)
        den = ops and ops[2] * ops[3] * ops[3]
        sums = general and (_matvec_components(m, parts, u2) if binarions
                            else (_matvec_values(m, vec, cv),))
        for i in general:
            cr, mr = xr[i], sums[0][i]
            ci, mi = (-xi[i], sums[1][i]) if binarions else (0, 0)
            pairs[-1 - i] = ((cr * mr + u2 * ci * mi, cr * mi + ci * mr) if binarions
                             else (cr * mr, 0))
        re = im = (0 if binarions else ring.zero) if den is None else False
        for idx, jr, ji in units:
            p = pairs[idx]
            if p is None:
                lo, hi = divmod(idx, n)
                if binarions:
                    cr, ci, br, bi = xr[lo], -xi[lo], xr[hi], xi[hi]
                    pr, pi = cr * br + u2 * ci * bi, cr * bi + ci * br
                else:
                    pr, pi = xr[lo] * xr[hi], 0
                p = pairs[idx] = (pr, pi, -pr, -pi)
            re, im = re + p[jr], im + p[ji]
        vals = (re, im) if den is None else _finish([[re, im]], den)[0]
        out.append(cls(*vals) if binarions else vals[0])
    return out


def lincomb(coeffs, basis):
    """sum_k coeffs[k] * basis[k] for real coefficients.

    Works over the nonzero cells of each basis matrix (their float copy for
    a float coefficient) and skips zero coefficients; rational coefficients
    and entries give an exact result.
    """
    coeffs, basis = tuple(coeffs), tuple(basis)
    if not basis or len(coeffs) != len(basis):
        raise ValueError("lincomb needs one coefficient per basis matrix, and a basis")
    first = basis[0]
    ring, rows, cols = first.ring, first.rows, first.cols
    for m in basis[1:]:  # _check rules on all but the same ring object and shape
        if type(m) is not RMatrix or m.ring is not ring or m.rows != rows or m.cols != cols:
            first._check(m)
    if _binarion(ring):
        re = [[0] * cols for _ in range(rows)]
        im = [[0] * cols for _ in range(rows)]
        for c, m in zip(coeffs, basis):
            if not c:
                continue
            cells = _float_cells(m) if type(c) is float else _cells(m)
            for r, s, row in zip(re, im, cells):
                for j, br, bi in row:
                    r[j] = r[j] + c * br
                    s[j] = s[j] + c * bi
        return RMatrix._of((re, im), ring)
    out = [[0] * cols for _ in range(rows)]
    for c, m in zip(coeffs, basis):
        if not c:
            continue
        cells = _float_cells(m) if type(c) is float else _cells(m)
        c = ring.promote(c)
        for line, row in zip(out, cells):
            for j, a in row:
                line[j] = line[j] + c * a
    return RMatrix._of((out,), ring)


def worst_of(values):
    """The largest of the values (0.0 if there are none), or NaN as soon as
    one of them is NaN; max() would keep whichever operand came first."""
    worst = 0.0
    for v in values:
        if v != v:
            return v
        if v > worst:
            worst = v
    return worst


def commutator(a, b):
    """a @ b - b @ a."""
    return _fused(a, b, operator.sub)


def anticommutator(a, b):
    """a @ b + b @ a."""
    return _fused(a, b, operator.add)


def _fused(a, b, op):
    """op(a @ b, b @ a).  Over the binarion rings both products stay as
    component grids and op is taken at every cell, with the bits of the
    entries' own op on the two products (no sum is -0.0, so x - y is
    x + (-y) there); the reals take the two product matrices and op."""
    if not _binarion(a.ring):
        return op(a @ b, b @ a)
    a._check(b)
    (pr, pi), (qr, qi) = _product(a, b), _product(b, a)
    return RMatrix._of(tuple([list(map(op, x, y)) for x, y in zip(p, q)]
                             for p, q in ((pr, qr), (pi, qi))), a.ring)
