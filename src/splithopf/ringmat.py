"""Matrices over an involutive scalar ring.

The substrate for every gamma-matrix and spinor computation: small matrices
(at most 16x16) over the reals, ordinary complex numbers or split-complex
numbers.  Each matrix carries a ring descriptor that supplies the entry
involution, so adjoints never mix conjugation modes mid-expression.  Values
are immutable.  Grassmann values enter only as vector elements: ``matvec``,
``form`` and ``forms`` act on a vector of any elements the entries multiply
(the super spinors of superhopf) through the elements' own arithmetic.

Storage is by cell, and no other module reads or writes a matrix's cells:
they use ``components()``, ``entries``, ``entry()``, the kernels and the
cell functions below (``AffineFamily``, ``leading_rows``, ``max_abs_diff``,
``to_complex``, ``by_unit``).  ``RMatrix(entries, ring)`` and ``from_blocks``
write the cells straight from the promoted entries and the blocks' cells,
and every kernel writes its result's cells itself.  Each row keeps its stored
cells in column order, (j, value) over the reals and (j, re, im) over the
split-complex and complex rings: every cell but those whose components are
all the int 0, so a written Fraction(0), 0.0, -0.0 or NaN is kept.
``components()``, ``entries`` and ``entry()`` build dense views from the
cells on demand, an absent cell reading as the int 0 (over a binarion ring,
the element of two int 0s); no kernel reads them.  The kernels walk the
truthy cells (``_cells``: a cell with a truthy component, so NaN is one and
-0.0 is not), which are the stored cells themselves when none is falsy, and
write the cells of their results directly: the products (``@``, ``matvec``,
``commutator``, ``anticommutator``), the Hermitian forms (``forms``),
linear combinations (``lincomb``), ``+``/``-`` (over the union of the
operands' truthy cells) and the elementwise ops (``scale``, negation,
``conj``).  A cell of a result that no term reaches is absent, and ``==``
reads the truthy cells, so a stored zero and an absent cell are alike;
matrices are not hashable.  Over the split-complex and complex rings the
kernels compute on the components, in the operation order of the entries'
own arithmetic, so float values are bit-identical to it and Fraction
entries stay exact; over the reals they use the entries' own arithmetic.
``lincomb`` and ``lincomb_dev`` share one accumulator (``_lines``), a flat
line per component that each term adds to over a flat list of its matrix's
truthy cells, in float form (kept on the matrix) for a float coefficient,
since a float times a Fraction is the float times the Fraction's float:
``lincomb`` writes its cells from the lines, and ``lincomb_dev`` reads
max |A - B| from two sets of lines, making no matrix.

Exact kernels run on integers.  A matrix whose nonzero cells hold only
ints and Fractions keeps on first exact use those cells cleared to ints
with one common denominator (``_exact``).  One rule, ``_cleared``, picks
the loop of ``@`` (so ``commutator`` and ``anticommutator``), ``scale``
and the forms of unit rows (below): when both operands are exact and a
Fraction is a factor of every term written (``_clear``), the loop runs on
the cleared ints and divides each written value once.  So types are
those of the entries' own arithmetic: a written value is a Fraction, also
where its terms cancel, and a cell no term reached is absent.  Each
written value comes from ``splitnum.rational``, a bounded memo of
``Fraction(n, d)``, so a value written again is the Fraction already
made.  Other operands keep the loop above, bit for bit; a float is told
by its first component, before any scan.

``forms(mats, vec)`` gives the Hermitian form of each of several n x n
matrices over one ring against one vector of length n: it reads (and on
exact input clears) the vector once.  A matrix all of whose rows are unit
rows, one cell that is a unit (+-1, +-u), reads each term from the product
conj(v_i) v_j, made once for every matrix; any other matrix sums its rows
as ``matvec`` does, in the entries' own arithmetic, and clears nothing.
``RMatrix.form`` is ``forms`` of one matrix.  A spinor's norm and all its
bilinears (hopfmaps.project, superhopf.super_project) are one ``forms``
call.
"""

from fractions import Fraction
from itertools import chain, islice, repeat, starmap
import operator

from .splitnum import SplitComplex, OrdinaryComplex, REAL_TYPES, cleared_ints, rational

__all__ = [
    "Ring", "RING_REAL", "RING_SPLIT", "RING_COMPLEX",
    "MetricForm", "RMatrix", "AffineFamily", "leading_rows", "forms", "lincomb", "lincomb_dev",
    "worst_of", "max_abs_diff", "commutator", "anticommutator", "to_complex", "by_unit",
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

    def inner(self, x, y):
        """sum_i s_i x_i y_i."""
        return sum(s * a * b for s, a, b in zip(self.signature, x, y))

    def __repr__(self):
        return "MetricForm(%s)" % (self.signature,)


class RMatrix:
    """Immutable matrix over the real, complex or split-complex Ring.

    Stored as the cells of each row (see the module docstring), built from
    rows of entries (promoted to the ring) or from equally sized blocks
    (``from_blocks``): ``components()`` builds the component grids from
    them, and ``entries`` and ``entry()`` give ring elements.

    dagger() is conjugate-transpose under the ring involution; the rings are
    commutative, so it is an anti-homomorphism, dagger(MN) =
    dagger(N) dagger(M), and dagger(dagger(M)) = M.
    """

    __slots__ = ("rows", "cols", "ring", "_stored", "_entries", "_cells", "_fcells", "_icells",
                 "_units")

    def __init__(self, entries, ring):
        rows = [[ring.promote(x) for x in row] for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        binarion = _binarion(ring)
        self._fill(tuple(_kept((j, a.re, a.im) if binarion else (j, a) for j, a in enumerate(r))
                         for r in rows), cols, ring)

    @classmethod
    def _of(cls, stored, cols, ring):
        """The matrix of these rows of stored cells, taken as they are."""
        m = object.__new__(cls)
        m._fill(stored, cols, ring)
        return m

    def _fill(self, stored, cols, ring):
        _set(self, "rows", len(stored))
        _set(self, "cols", cols)
        _set(self, "ring", ring)
        _set(self, "_stored", stored)
        for kept in ("_entries", "_cells", "_fcells", "_icells", "_units"):
            _set(self, kept, None)

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
        """Assemble from a 2D grid of equally sized blocks, each an RMatrix
        over ring or 0 (a zero block); the first RMatrix block gives the
        block shape."""
        first = next((b for brow in blocks for b in brow if isinstance(b, RMatrix)), None)
        if first is None:
            raise ValueError("cannot infer block sizes")
        h, w, width = first.rows, first.cols, len(blocks[0])
        stored = []
        for brow in blocks:
            mats = [(k * w, b) for k, b in enumerate(brow) if isinstance(b, RMatrix)]
            if any(b.ring != ring for _, b in mats):
                raise TypeError("ring mismatch: a block over another ring than %s" % ring)
            if len(brow) != width or any((b.rows, b.cols) != (h, w) for _, b in mats):
                raise ValueError("ragged rows")
            stored += [tuple((c[0] + off,) + c[1:] for off, b in mats for c in b._stored[r])
                       for r in range(h)]
        return cls._of(tuple(stored), width * w, ring)

    # ---- basic algebra ----------------------------------------------------

    def __add__(self, other):
        return self._union(other, operator.add, operator.add)

    def __sub__(self, other):
        return self._union(other, operator.sub, _add_negated)

    def __neg__(self):
        if _binarion(self.ring):
            return self._cellwise(lambda j, ar, ai: (j, -ar, -ai))
        return self._cellwise(lambda j, a: (j, -a))

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
            return self._cellwise(lambda j, ar, ai: (j, cr * ar + t * ai, cr * ai + ci * ar), ops)
        c, = parts
        return self._cellwise(lambda j, a: (j, c * a), ops)

    def __matmul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return RMatrix._of(_product(self, other), other.cols, self.ring)

    def matvec(self, vec):
        """Apply to a column vector given as a sequence of one element per
        column (else ValueError); returns a list.

        The vector may hold binarions of the ring or any elements the entries
        multiply (Grassmann elements): those take entry * element and the
        elements' own sum, from the ring's zero.  A row without nonzero
        cells gives the ring's zero for a vector of ring elements or reals,
        and the ring's zero times the first element (a zero of the
        elements' own kind) otherwise."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        cls = _binarion(self.ring)
        if cls and all(type(v) is cls for v in vec):
            vr, vi = [v.re for v in vec], [v.im for v in vec]
            return list(map(cls, *_matvec_components(self, vr, vi, cls.UNIT_SQ)))
        return _matvec_values(self, vec)

    def form(self, vec):
        """sum_i conj(vec_i) (M vec)_i for an n x n matrix and a vector of
        length n, the ring involution on the left (see forms)."""
        return forms((self,), vec)[0]

    # ---- involutions ------------------------------------------------------

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._stored):
            for cell in row:
                cols[cell[0]].append((i,) + cell[1:])
        return RMatrix._of(tuple(map(tuple, cols)), self.rows, self.ring)

    def conj(self):
        if _binarion(self.ring):
            return self._cellwise(lambda j, ar, ai: (j, ar, -ai))
        conj = self.ring.conj
        return self._cellwise(lambda j, a: (j, conj(a)))

    def dagger(self):
        return self.conj().transpose()

    # ---- queries ----------------------------------------------------------

    def components(self):
        """The component grids, built from the cells: (entries,) over the
        reals, (re, im) over the split-complex and complex rings, the int 0
        where no cell is stored."""
        grids = tuple([[0] * self.cols for _ in range(self.rows)]
                      for _ in range(2 if _binarion(self.ring) else 1))
        for i, row in enumerate(self._stored):
            for j, *parts in row:
                for grid, v in zip(grids, parts):
                    grid[i][j] = v
        return grids

    @property
    def entries(self):
        """Rows of ring elements, built from the cells on first read and
        kept."""
        entries = self._entries
        if entries is None:
            cls, grids = _binarion(self.ring), self.components()
            entries = tuple([tuple(map(cls, r, i)) for r, i in zip(*grids)] if cls
                            else map(tuple, grids[0]))
            _set(self, "_entries", entries)
        return entries

    def entry(self, i, j):
        """The ring element at (i, j), read from row i's cells."""
        cls, j = _binarion(self.ring), range(self.cols)[j]
        parts = next((cell[1:] for cell in self._stored[i] if cell[0] == j), (0, 0))
        return cls(*parts) if cls else parts[0]

    def __eq__(self, other):
        """Equal ring, shape and truthy cells, compared component by
        component with ==: a stored zero is alike an absent cell, and a NaN
        cell is unequal to every cell, itself included (a sequence compare
        would take a shared NaN as equal)."""
        if not isinstance(other, RMatrix):
            return NotImplemented
        a, b = _cells(self), _cells(other)
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and list(map(len, a)) == list(map(len, b))
                and all(map(operator.eq, _flat(_flat(a)), _flat(_flat(b)))))

    def is_zero(self):
        return not any(_cells(self))

    def max_abs(self):
        """Largest absolute value over all real components of all entries
        (NaN if any component is NaN)."""
        return worst_of(abs(float(c)) for row in self._stored for cell in row for c in cell[1:])

    def __repr__(self):
        return "RMatrix(%dx%d over %s)" % (self.rows, self.cols, self.ring.name)

    def _cellwise(self, fn, ops=None):
        """fn of each truthy cell, absent elsewhere; fn maps the cell
        (j, re, im) over a binarion ring, (j, value) otherwise, to the
        result's cell, left out if fn makes all its components the int 0.
        ops = (cleared cells, den) from scale: fn runs on those cells and
        each value is divided by den once."""
        cells, den = ops or (_cells(self), None)
        out = [starmap(fn, row) for row in cells]
        if den is not None:
            out = [[(c[0], *[rational(x, den) for x in c[1:]]) for c in row] for row in out]
        return RMatrix._of(tuple(map(_kept, out)), self.cols, self.ring)

    def _recast(self, fn, ring):
        """The matrix over ring whose cells are fn of the stored cells, as
        _cellwise makes them: for lifts and swaps done cell by cell."""
        return RMatrix._of(tuple(_kept(starmap(fn, row)) for row in self._stored), self.cols, ring)

    def _union(self, other, op, comp_op):
        """op of the entries on the union of the operands' truthy cells,
        absent elsewhere; over the binarion rings comp_op of their
        components, which gives the bits of op.  A cell only one operand
        holds meets the other's stored components, the int 0 where it
        stores none."""
        self._check(other)
        binarion = _binarion(self.ring)
        # with a stored falsy cell in a row, the columns of the truthy ones
        rows = ((sa, sb, range(self.cols) if ca is sa and cb is sb
                 else set(map(_column, ca)).union(map(_column, cb)))
                for sa, sb, ca, cb in zip(self._stored, other._stored,
                                          _cells(self), _cells(other)))
        return RMatrix._of(_merged(rows, self.cols, comp_op if binarion else op, binarion),
                           self.cols, self.ring)

    def _check(self, other):
        if not isinstance(other, RMatrix):
            raise TypeError("expected RMatrix")
        if self.ring != other.ring:
            raise TypeError("ring mismatch: %s vs %s" % (self.ring, other.ring))
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


_set = object.__setattr__
_column, _second = operator.itemgetter(0), operator.itemgetter(1)
_flat = chain.from_iterable


def _merged(rows, cols, fn, binarion):
    """Rows of cells of fn of two operands' components, from (a's cells,
    b's cells, columns) per row: at each of the columns where either row
    holds a cell, fn of a's and b's components there, the int 0 for a
    component a row lacks; cells all of whose components come out the int
    0 are left out."""
    zero = (None, 0, 0)
    out = []
    for sa, sb, on in rows:
        x, y = [zero] * cols, [zero] * cols
        for c in sa:
            x[c[0]] = c
        for c in sb:
            y[c[0]] = c
        out.append([(j, fn(p[1], q[1]), fn(p[2], q[2])) if binarion else (j, fn(p[1], q[1]))
                    for j, p, q in zip(range(cols), x, y)
                    if (p is not zero or q is not zero) and j in on])
    return tuple(map(_kept, out))


def _kept(row):
    """A row of cells, an iterable of cells in column order, as a tuple
    without the cells whose components are all the int 0 (c[1] and c[-1]
    are the components of both layouts)."""
    return tuple([c for c in row if c[1] or c[-1] or type(c[1]) is not int
                  or type(c[-1]) is not int])


def _binarion(ring):
    """SplitComplex or OrdinaryComplex for the rings whose entries the kernels
    handle by components, None for the reals."""
    cls = type(ring.zero)
    return cls if cls in (SplitComplex, OrdinaryComplex) else None


def _cells(m):
    """The truthy cells of each row, in column order: (j, re, im) over a
    binarion ring, (j, value) over the reals, a cell being truthy when a
    component is (NaN is; -0.0 and Fraction(0) are not).  The stored cells
    themselves when no stored cell is falsy, else a copy without those;
    found on first use and kept."""
    cells = m._cells
    if cells is None:
        cells = m._stored
        # a first component truthy in every cell settles it at C speed
        if not all(map(_second, _flat(cells))) and not all(
                c[1] or c[-1] for row in cells for c in row):
            cells = tuple([tuple([c for c in row if c[1] or c[-1]]) for row in cells])
        _set(m, "_cells", cells)
    return cells


def _add_negated(x, y):
    """x + (-y), the component op of a binarion difference: x - y would
    give -0.0 where x is -0.0 and y an exact zero."""
    return x + (-y)


def _flat_cells(m, floats):
    """The truthy cells of m (_cells) in one list, i * cols + j in place of
    j; with floats in float form, kept from the first such use.  A float
    times a Fraction is the float times float(Fraction), so a float
    coefficient gives the same bits on either form."""
    cells = m._fcells if floats else None
    if cells is None:
        cells = [(i * m.cols + c[0],) + c[1:] for i, row in enumerate(_cells(m)) for c in row]
        if floats:
            if any(type(c[1]) is not float or type(c[-1]) is not float for c in cells):
                cells = [(c[0],) + tuple(map(float, c[1:])) for c in cells]
            _set(m, "_fcells", cells)
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
            it, k = iter(ex[0]), 2 if _binarion(m.ring) else 1
            ex = (tuple([tuple([(cell[0], *islice(it, k)) for cell in row])
                         for row in cells]), ex[1], ex[2])
        elif ex:
            ex = (cells, 1, 0)
        _set(m, "_icells", ex or False)
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


def _product(a, b):
    """The rows of cells of a @ b, a cell no term reached being absent.

    Row-sparse (Gustavson order): row i accumulates A[i, k] * B[k, :] over
    the nonzero A[i, k] in increasing k, so each cell sums its terms in the
    order of the dense triple loop.  The sums start at False, which adds
    as the int 0 (so over the binarion rings none of them is a negative
    zero) and marks a cell no term reached.  When _cleared admits
    the operands (_exact), the loop runs on their cleared cells and each
    reached sum is divided once, to a Fraction even where its terms cancel
    (splitnum.rational)."""
    ring = a.ring
    if ring != b.ring:
        raise TypeError("ring mismatch: %s vs %s" % (ring, b.ring))
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d @ %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    n = b.cols
    ea = _exact(a)
    eb = ea and _exact(b)
    if _cleared(ea, eb):
        a_cells, b_cells, den = ea[0], eb[0], ea[1] * eb[1]
    else:
        a_cells, b_cells, den = _cells(a), _cells(b), None
    cls = _binarion(ring)
    out = []
    if cls:
        u2 = cls.UNIT_SQ
        for arow in a_cells:
            re, im = [False] * n, [False] * n
            for k, ar, ai in arow:
                t = u2 * ai
                for j, br, bi in b_cells[k]:
                    re[j] = re[j] + (ar * br + t * bi)
                    im[j] = im[j] + (ar * bi + ai * br)
            # a cell no term reached is still False: left out, and a reached
            # one kept unless both its sums are the int 0 (_kept's rule)
            out.append(tuple([c for c in zip(range(n), re, im) if c[1] is not False and (
                c[1] or c[2] or type(c[1]) is not int or type(c[2]) is not int)]) if den is None
                else tuple([(j, rational(r, den), rational(i, den))
                            for j, r, i in zip(range(n), re, im) if r is not False]))
    else:
        for arow in a_cells:
            line = [False] * n
            for k, x in arow:
                for j, y in b_cells[k]:
                    line[j] = line[j] + x * y
            out.append(tuple([c for c in enumerate(line) if c[1] is not False and (
                c[1] or type(c[1]) is not int)]) if den is None
                else tuple([(j, rational(x, den)) for j, x in enumerate(line) if x is not False]))
    return tuple(out)


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


def _matvec_components(m, vr, vi, u2):
    """(res, ims) for M vec over a binarion ring, the vector's components vr
    and vi: the (re, im) of each row, summed from the int 0 over the row's
    cells in column order as the entries' product and sum would."""
    res, ims = [], []
    for row in _cells(m):
        re = im = 0
        for k, ar, ai in row:
            br, bi = vr[k], vi[k]
            re = re + (ar * br + u2 * ai * bi)
            im = im + (ar * bi + ai * br)
        res.append(re)
        ims.append(im)
    return res, ims


def _matvec_values(m, vec):
    """The sum of each row of M vec in the entries' own arithmetic, as
    matvec describes."""
    ring = m.ring
    cls = _binarion(ring)
    empty = ring.zero
    if vec and not isinstance(vec[0], REAL_TYPES + (type(empty),)):
        empty = empty * vec[0]
    out = []
    for row in _cells(m):
        acc = ring.zero if row else empty
        for cell in row:
            a = cls(cell[1], cell[2]) if cls else cell[1]
            acc = acc + a * vec[cell[0]]
        out.append(acc)
    return out


def _units(m):
    """The places of the terms of m's rows, found on first use and kept;
    False unless m is square with int cells and every row is a unit row,
    whose one cell (at k) is a unit (+-1, or +-u over a binarion ring).  Row
    i places its term's parts in (p, -p), p = conj(v_lo) v_hi, lo <= hi the
    row and k: (lo * n + hi, re, im).  A unit swaps and negates, and
    conj(v_k) v_i = conj(conj(v_i) v_k) sums the same products, so a term
    keeps its bits but a zero's sign, which no form reads."""
    units = m._units
    if units is None:
        ex = m.rows == m.cols and _exact(m)
        rows = _cells(m) if ex and not ex[2] else ()
        n, u2, units = m.cols, getattr(_binarion(m.ring), "UNIT_SQ", 1), []
        for i, row in enumerate(rows):
            k, *a = row[0] if len(row) == 1 else (0, 0)
            if sum(map(abs, a)) != 1:
                break
            ar, ai = (a + [0])[:2]
            c = -1 if i > k else 1
            # (sign, component of p) of the term's re and im
            terms = ((ar, 0), (ar * c, 1)) if ar else ((u2 * ai * c, 1), (ai, 0))
            units.append((min(i, k) * n + max(i, k),) + tuple(j + 1 - s for s, j in terms))
        units = bool(rows) and len(units) == len(rows) and tuple(units)
        _set(m, "_units", units)
    return units


def forms(mats, vec):
    """[m.form(vec) for m in mats], for n x n matrices over one ring and a
    vector of length n: each form is sum_i conj(vec_i) (M vec)_i, the ring
    involution on the left, its terms added in increasing i from the ring's
    zero.

    The vector is read once: its components, their conjugates and, on
    exact input, its cleared ints (_clear, one lcm, broad).  A matrix takes
    one of two paths.  When the vector is all floats or all exact and every
    row of the matrix is a unit row (_units), the form reads its terms from
    the pair products, made once in a call for all the matrices; they are
    of the cleared ints when _cleared admits the vector (the matrices' cells
    are ints, so all see the vector cleared or none does).  Otherwise it
    sums each row as matvec does and takes the entries' own products.  No
    matrices give no forms: []."""
    if not mats:
        return []
    ring = mats[0].ring
    if any(m.ring is not ring and m.ring != ring for m in mats):
        raise TypeError("forms takes matrices over one ring")
    cls, n = _binarion(ring), len(vec)
    if any(m.rows != n or m.cols != n for m in mats):
        raise ValueError("shape mismatch")
    binarions = cls and all(type(v) is cls for v in vec)
    if binarions:
        u2 = cls.UNIT_SQ
        vr, vi, cv = _vector_parts(vec)
        kinds = set(map(type, vr + vi))
    else:
        cv, kinds = (None, {None}) if cls else (_clear(vec, True), set(map(type, vec)))
    one = kinds <= _EXACT or kinds == {float}
    if not binarions:  # cleared ints, floats, ints and Fractions are their own conjugates
        vr, vi = vec if one else [c.conj() if hasattr(c, "conj") else c for c in vec], None
    pairs, out = [None] * (n * n), []
    for m in mats:
        units = one and _units(m)
        if not units:  # each row summed in the entries' own arithmetic
            if binarions:
                re = im = 0
                for cr, ci, mr, mi in zip(vr, vi, *_matvec_components(m, vr, vi, u2)):
                    ci = -ci
                    re, im = re + (cr * mr + u2 * ci * mi), im + (cr * mi + ci * mr)
                out.append(cls(re, im))
            else:
                re = ring.zero
                for cr, mr in zip(vr, _matvec_values(m, vec)):
                    re = re + cr * mr
                out.append(re)
            continue
        ops = _operands(m, cv)
        xr, xi = (ops[1] if binarions else (ops[1], None)) if ops else (vr, vi)
        den = ops and ops[2] * ops[3] * ops[3]
        # the components of binarions, or reals: either way sums start at the int 0
        re = im = 0 if den is None else False
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
        # a value no term reached is still False: the int 0 (False + n is n)
        vals = (re, im) if den is None else [0 if x is False else rational(x, den)
                                             for x in (re, im)]
        out.append(cls(*vals) if binarions else vals[0])
    return out


def _lines(coeffs, basis):
    """(basis[0], lines) for sum_k coeffs[k] * basis[k], real coefficients:
    one flat line per component, index i * cols + j, from the int 0.  Each
    term but those of zero coefficient walks its matrix's _flat_cells (float
    ones for a float coefficient), so each cell sums its terms in increasing k."""
    coeffs, basis = tuple(coeffs), tuple(basis)
    if not basis or len(coeffs) != len(basis):
        raise ValueError("lincomb needs one coefficient per basis matrix, and a basis")
    first = basis[0]
    ring, rows, cols = first.ring, first.rows, first.cols
    for m in basis[1:]:  # _check rules on all but the same ring object and shape
        if type(m) is not RMatrix or m.ring is not ring or m.rows != rows or m.cols != cols:
            first._check(m)
    cls = _binarion(ring)
    lines = [[0] * (rows * cols) for _ in range(2 if cls else 1)]
    re, im = lines[0], lines[-1]
    for c, m in zip(coeffs, basis):
        if c and cls:
            for k, br, bi in _flat_cells(m, type(c) is float):
                re[k] = re[k] + c * br
                im[k] = im[k] + c * bi
        elif c:
            c = ring.promote(c)
            for k, a in _flat_cells(m, type(c) is float):
                re[k] = re[k] + c * a
    return first, lines


def lincomb(coeffs, basis):
    """sum_k coeffs[k] * basis[k] for real coefficients, its cells written
    from _lines; rational coefficients and entries give an exact result."""
    first, lines = _lines(coeffs, basis)
    cols, lines = first.cols, [iter(line) for line in lines]
    out = (zip(range(cols), *[islice(line, cols) for line in lines]) for _ in range(first.rows))
    return RMatrix._of(tuple(map(_kept, out)), cols, first.ring)


def lincomb_dev(a, b):
    """max |lincomb(*a) - lincomb(*b)| over the real components (NaN if any
    is NaN) for two (coeffs, basis) pairs, read from their _lines with the
    checks of that difference: no matrix is made."""
    (fa, xs), (fb, ys) = _lines(*a), _lines(*b)
    fa._check(fb)
    diffs = _flat(map(operator.sub, x, y) for x, y in zip(xs, ys))
    return worst_of(map(abs, map(float, diffs)))


class AffineFamily:
    """w(x) = C + sum_a x_a M_a for int-valued C and slopes M_1 ... M_d of
    one shape and ring (the section and transition numerators), compiled
    once to a template: per cell that can be nonzero, in row order, and per
    component, its constant and the (a, coefficient) of each M_a holding
    the cell.  Int constants and coefficients keep the backend of x."""

    __slots__ = ("template", "rows", "cols", "ring")

    def __init__(self, const, *slopes):
        consts, grids = const.components(), [m.components() for m in slopes]
        cells = [(i, j, [a for a, g in enumerate(grids) if any(c[i][j] != 0 for c in g)])
                 for i in range(const.rows) for j in range(const.cols)]
        self.template = tuple(
            (i, j, tuple((c[i][j], tuple((a, grids[a][k][i][j]) for a in lin))
                         for k, c in enumerate(consts)))
            for i, j, lin in cells if lin or any(c[i][j] != 0 for c in consts))
        self.rows, self.cols, self.ring = const.rows, const.cols, const.ring

    def at(self, coords):
        """w at the coordinates, each component summed from its constant in
        increasing a, as the ring elements' own arithmetic adds; int
        coordinates enter as Fractions, so exact input gives Fraction cells."""
        x = [Fraction(c) if type(c) is int else c for c in coords]
        stored = [[] for _ in range(self.rows)]
        for i, j, parts in self.template:
            cell = [j]
            for acc, lin in parts:
                for a, coef in lin:
                    acc = acc + coef * x[a]
                cell.append(acc)
            stored[i].append(tuple(cell))
        return RMatrix._of(tuple(map(tuple, stored)), self.cols, self.ring)


def leading_rows(k, family, slopes):
    """(family, slopes) cut to their leading k rows: an AffineFamily of the
    family's template entries of those rows and matrices of the slopes' row
    tuples, both shared, not copied."""
    cut = object.__new__(AffineFamily)
    cut.template = tuple(e for e in family.template if e[0] < k)
    cut.rows, cut.cols, cut.ring = k, family.cols, family.ring
    return cut, tuple(RMatrix._of(m._stored[:k], m.cols, m.ring) for m in slopes)


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


def max_abs_diff(a, b):
    """max |a - b| over the real components (NaN if any is NaN), read row by
    row from both operands' cells, with the checks of a - b: a line per
    component takes a's values, then less b's, the int 0 where a row holds
    no cell."""
    a._check(b)
    diffs = []
    for p, q in zip(a._stored, b._stored):
        x, y = [0] * a.cols, [0] * a.cols
        if a.ring == RING_REAL:  # y stays zeros
            for j, v in p:
                x[j] = v
            for j, v in q:
                x[j] = x[j] - v
        else:
            for j, r, i in p:
                x[j], y[j] = r, i
            for j, r, i in q:
                x[j], y[j] = x[j] - r, y[j] - i
        diffs += x + y
    return worst_of(map(abs, map(float, diffs)))


def to_complex(m):
    """Lift a real matrix into the complex ring, cell by cell (its entries
    become the real parts, int 0 the imaginary ones); a complex matrix is
    returned as it is."""
    if m.ring == RING_COMPLEX:
        return m
    if m.ring != RING_REAL:
        raise TypeError("cannot lift a %s matrix into the complex ring" % m.ring.name)
    return m._recast(lambda j, a: (j, a, 0), RING_COMPLEX)


def by_unit(m, inverse=False):
    """u m, or m / u with inverse, by components of the stored cells:
    u (re, im) = (u^2 im, re) and (re, im) / u = (im, u^2 re).  Over the
    split-complex ring (u = j, u^2 = 1) both swap the components; over the
    complex ring (u = i) one of them is negated.  A real m is lifted by
    to_complex first, and u = i."""
    if m.ring == RING_REAL:
        m = to_complex(m)
    if m.ring != RING_COMPLEX:
        return m._recast(lambda j, r, i: (j, i, r), m.ring)
    if inverse:
        return m._recast(lambda j, r, i: (j, i, -r), m.ring)
    return m._recast(lambda j, r, i: (j, -i, r), m.ring)


def commutator(a, b):
    """a @ b - b @ a."""
    return _fused(a, b, operator.sub)


def anticommutator(a, b):
    """a @ b + b @ a."""
    return _fused(a, b, operator.add)


def _fused(a, b, op):
    """op(a @ b, b @ a).  Over the binarion rings op is taken on the
    components of the two products' cells (_merged), with the bits of the
    entries' own op on the two products (no sum is -0.0, so x - y is
    x + (-y) there); the reals take the two product matrices and op."""
    if not _binarion(a.ring):
        return op(a @ b, b @ a)
    a._check(b)
    rows = ((p, q, range(a.cols)) for p, q in zip(_product(a, b), _product(b, a)))
    return RMatrix._of(_merged(rows, a.cols, op, True), a.cols, a.ring)
