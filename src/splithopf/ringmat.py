"""Matrices over an involutive scalar ring.

The substrate for every gamma-matrix and spinor computation: small matrices
(at most 16x16) over the reals, ordinary complex numbers or split-complex
numbers.  Each matrix carries a ring descriptor that supplies the entry
involution, so adjoints never mix conjugation modes mid-expression.  Values
are immutable.  Grassmann values enter only as vector elements: ``matvec``
and ``form`` act on a vector of any elements the entries multiply (the super
spinors of superhopf) through the elements' own arithmetic.

Storage is by component grid.  A matrix over the reals keeps one grid, its
entries.  A matrix over the split-complex or complex ring keeps two, the
real and the imaginary parts of its entries, and builds its entries (one
SplitComplex or OrdinaryComplex per cell) only when code reads ``entries``
or ``entry()``; no kernel does.  Every matrix finds its nonzero cells on
first use and keeps them (there is nothing to switch on), and every kernel
walks those cells only: the products (``@``, ``matvec``, ``commutator``,
``anticommutator``), the Hermitian form (``form``), linear combinations
(``lincomb``), ``+``/``-`` (over the union of the operands' cells) and the
elementwise ops (``scale``, ``scale_right``, negation, ``conj``).  Every
zero cell of a result is the ring's zero.  Over the split-complex and
complex rings the kernels compute on the components, in the operation
order of the entries' own arithmetic, so float values are bit-identical to
it and Fraction entries stay exact; over the reals they use the entries'
own arithmetic.  ``lincomb`` walks a float copy of the cells (kept on the
matrix too) for a float coefficient, since a float times a Fraction is the
float times the Fraction's float.
"""

import operator

from .splitnum import SplitComplex, OrdinaryComplex, REAL_TYPES

__all__ = [
    "Ring", "RING_REAL", "RING_SPLIT", "RING_COMPLEX",
    "MetricForm", "RMatrix", "lincomb", "worst_of",
    "commutator", "anticommutator", "kron",
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

    __slots__ = ("rows", "cols", "ring", "_grids", "_entries", "_cells", "_fcells")

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
        object.__setattr__(self, "_cells", None)
        object.__setattr__(self, "_fcells", None)

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
        """c * M, the scalar on the left."""
        c = self.ring.promote(c)
        cls = _binarion(self.ring)
        if cls:
            cr, ci = c.re, c.im
            t = cls.UNIT_SQ * ci
            return self._cellwise(lambda ar, ai: (cr * ar + t * ai, cr * ai + ci * ar))
        return self._cellwise(lambda a: c * a)

    def scale_right(self, c):
        """M * c, the scalar on the right."""
        c = self.ring.promote(c)
        cls = _binarion(self.ring)
        if cls:
            cr, ci = c.re, c.im
            u2 = cls.UNIT_SQ
            return self._cellwise(lambda ar, ai: (ar * cr + u2 * ai * ci, ar * ci + ai * cr))
        return self._cellwise(lambda a: a * c)

    def __mul__(self, c):
        return self.scale_right(c)

    def __rmul__(self, c):
        return self.scale(c)

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
        ring = self.ring
        cells = _cells(self)
        cls = _binarion(ring)
        if cls and all(type(v) is cls for v in vec):
            return [cls(re, im) for re, im in _matvec_components(cells, vec, cls.UNIT_SQ)]
        empty = ring.zero
        if vec and not isinstance(vec[0], REAL_TYPES + (type(empty),)):
            empty = empty * vec[0]
        out = []
        for row in cells:
            acc = ring.zero if row else empty
            for cell in row:
                a = cls(cell[1], cell[2]) if cls else cell[1]
                acc = acc + a * vec[cell[0]]
            out.append(acc)
        return out

    def form(self, vec):
        """sum_i conj(vec_i) (M vec)_i, the ring involution on the left.

        Adds the terms in increasing i from the ring's zero, with the
        operation order of matvec followed by the entries' own product and
        sum."""
        ring = self.ring
        cls = _binarion(ring)
        if cls and all(type(v) is cls for v in vec):
            u2 = cls.UNIT_SQ
            re = im = 0
            for v, (mr, mi) in zip(vec, _matvec_components(_cells(self), vec, u2)):
                cr, ci = v.re, -v.im
                re = re + (cr * mr + u2 * ci * mi)
                im = im + (cr * mi + ci * mr)
            return cls(re, im)
        acc = ring.zero
        for c, v in zip(vec, self.matvec(vec)):
            acc = acc + (c.conj() if hasattr(c, "conj") else c) * v
        return acc

    # ---- involutions ------------------------------------------------------

    def transpose(self):
        return RMatrix._of(tuple(list(zip(*g)) for g in self._grids), self.ring)

    def conj(self):
        if _binarion(self.ring):
            return self._cellwise(lambda ar, ai: (ar, -ai))
        return self._cellwise(self.ring.conj)

    def dagger(self):
        return self.conj().transpose()

    def weighted_adjoint(self, g):
        """G . dagger(M) . G for a metric weight G."""
        if isinstance(g, MetricForm):
            g = g.matrix(self.ring)
        return g @ self.dagger() @ g

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

    def _cellwise(self, fn):
        """fn of each nonzero cell in place, zero elsewhere; fn maps (re, im)
        to (re, im) over a binarion ring and the entry to the entry
        otherwise."""
        cells = _cells(self)
        if _binarion(self.ring):
            re = [[0] * self.cols for _ in cells]
            im = [[0] * self.cols for _ in cells]
            for lr, li, row in zip(re, im, cells):
                for j, ar, ai in row:
                    lr[j], li[j] = fn(ar, ai)
            return RMatrix._of((re, im), self.ring)
        out = [[0] * self.cols for _ in cells]
        for line, row in zip(out, cells):
            for j, a in row:
                line[j] = fn(a)
        return RMatrix._of((out,), self.ring)

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


def _product(a, b):
    """Component grids of a @ b: (re, im) over a binarion ring, (entries,)
    over the reals.

    Row-sparse (Gustavson order): row i accumulates A[i, k] * B[k, :] over
    the nonzero A[i, k] in increasing k, so each cell sums its terms in the
    order of the dense triple loop.  The sums start at int 0, so over the
    binarion rings none of them is a negative zero."""
    ring = a.ring
    if ring != b.ring:
        raise TypeError("ring mismatch: %s vs %s" % (ring, b.ring))
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d @ %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    n = b.cols
    b_cells = _cells(b)
    cls = _binarion(ring)
    if cls:
        u2 = cls.UNIT_SQ
        res, ims = [], []
        for arow in _cells(a):
            re, im = [0] * n, [0] * n
            for k, ar, ai in arow:
                t = u2 * ai
                for j, br, bi in b_cells[k]:
                    re[j] = re[j] + (ar * br + t * bi)
                    im[j] = im[j] + (ar * bi + ai * br)
            res.append(re)
            ims.append(im)
        return res, ims
    out = []
    for arow in _cells(a):
        line = [0] * n
        for k, x in arow:
            for j, y in b_cells[k]:
                line[j] = line[j] + x * y
        out.append(line)
    return (out,)


def _matvec_components(cells, vec, u2):
    """(re, im) of each row of M vec over a binarion ring, summed over the
    row's cells in column order as the entries' product and sum would."""
    vr = [v.re for v in vec]
    vi = [v.im for v in vec]
    out = []
    for row in cells:
        re = im = 0
        for k, ar, ai in row:
            br, bi = vr[k], vi[k]
            re = re + (ar * br + u2 * ai * bi)
            im = im + (ar * bi + ai * br)
        out.append((re, im))
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
    for m in basis[1:]:
        first._check(m)
    ring, rows, cols = first.ring, first.rows, first.cols
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
    return RMatrix._of(([list(map(op, x, y)) for x, y in zip(pr, qr)],
                        [list(map(op, x, y)) for x, y in zip(pi, qi)]), a.ring)


def kron(a, b):
    """Kronecker product in row-major block layout: blocks are a[i][j] * b."""
    if a.ring != b.ring:
        raise TypeError("ring mismatch")
    out = []
    for arow in a.entries:
        for brow in b.entries:
            line = []
            for av in arow:
                for bv in brow:
                    line.append(av * bv)
            out.append(line)
    return RMatrix(out, a.ring)
