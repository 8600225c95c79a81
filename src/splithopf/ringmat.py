"""Matrices over an involutive scalar ring.

The substrate for every gamma-matrix and spinor computation: small matrices
(at most 16x16) over the reals, ordinary complex numbers or split-complex
numbers.  Each matrix carries a ring descriptor that supplies the entry
involution, so adjoints never mix conjugation modes mid-expression.  Values
are immutable.  Grassmann values enter only as vector elements: ``matvec``
and ``form`` act on a vector of any elements the entries multiply (the super
spinors of superhopf) through the elements' own arithmetic.

Storage is dense.  Every matrix finds its nonzero cells on first use and
keeps them (there is nothing to switch on), and every kernel walks those
cells only: the products (``@``, ``matvec``, ``commutator``,
``anticommutator``), the Hermitian form (``form``), linear combinations
(``lincomb``), ``+``/``-`` (over the union of the operands' cells) and the
elementwise ops (``scale``, ``scale_right``, negation, ``conj``).  Every
zero cell of a result is the ring's zero.  Over the split-complex and
complex rings the kernels compute on the re/im components of the entries,
in the operation order of the entries' own arithmetic, so float values are
bit-identical to it and Fraction entries stay exact; over the reals they
use the entries' own arithmetic.  ``lincomb`` walks
a float copy of the cells (kept on the matrix too) for a float coefficient,
since a float times a Fraction is the float times the Fraction's float.
"""

import numbers
import operator

from .splitnum import SplitComplex, OrdinaryComplex

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
    if isinstance(x, numbers.Real):
        return x
    raise TypeError("not a real scalar: %r" % (x,))


def _promote_split(x):
    if isinstance(x, SplitComplex):
        return x
    if isinstance(x, numbers.Real):
        return SplitComplex(x, 0)
    raise TypeError("cannot place %r in the split-complex ring" % (x,))


def _promote_complex(x):
    if isinstance(x, OrdinaryComplex):
        return x
    if isinstance(x, complex):
        return OrdinaryComplex(x.real, x.imag)
    if isinstance(x, numbers.Real):
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

    dagger() is conjugate-transpose under the ring involution; the rings are
    commutative, so it is an anti-homomorphism, dagger(MN) =
    dagger(N) dagger(M), and dagger(dagger(M)) = M.
    """

    __slots__ = ("rows", "cols", "entries", "ring", "_cells", "_fcells")

    def __init__(self, entries, ring):
        self._fill(tuple(tuple(ring.promote(x) for x in row) for row in entries), ring)

    @classmethod
    def _of(cls, entries, ring):
        """Build from rows whose values are already elements of the ring."""
        m = object.__new__(cls)
        m._fill(tuple(map(tuple, entries)), ring)
        return m

    def _fill(self, entries, ring):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]) if entries else 0)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_cells", None)
        object.__setattr__(self, "_fcells", None)
        if any(len(r) != self.cols for r in entries):
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
        """Assemble from a 2D grid of equally sized blocks (RMatrix or 0)."""
        sizes_r = []
        sizes_c = None
        for brow in blocks:
            h = None
            widths = []
            for b in brow:
                if isinstance(b, RMatrix):
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
        out = []
        for brow, h in zip(blocks, sizes_r):
            for r in range(h):
                line = []
                for b, w in zip(brow, sizes_c):
                    if isinstance(b, RMatrix):
                        line.extend(b.entries[r])
                    else:
                        line.extend([ring.zero] * w)
                out.append(line)
        return cls(out, ring)

    # ---- basic algebra ----------------------------------------------------

    def __add__(self, other):
        return self._union(other, operator.add, operator.add)

    def __sub__(self, other):
        return self._union(other, operator.sub, _add_negated)

    def __neg__(self):
        cls = _binarion(self.ring)
        if cls:
            return self._cellwise(lambda ar, ai: cls(-ar, -ai))
        return self._cellwise(lambda a: -a)

    def scale(self, c):
        """c * M, the scalar on the left."""
        c = self.ring.promote(c)
        cls = _binarion(self.ring)
        if cls:
            cr, ci = c.re, c.im
            t = cls.UNIT_SQ * ci
            return self._cellwise(lambda ar, ai: cls(cr * ar + t * ai, cr * ai + ci * ar))
        return self._cellwise(lambda a: c * a)

    def scale_right(self, c):
        """M * c, the scalar on the right."""
        c = self.ring.promote(c)
        cls = _binarion(self.ring)
        if cls:
            cr, ci = c.re, c.im
            u2 = cls.UNIT_SQ
            return self._cellwise(lambda ar, ai: cls(ar * cr + u2 * ai * ci, ar * ci + ai * cr))
        return self._cellwise(lambda a: a * c)

    def __mul__(self, c):
        return self.scale_right(c)

    def __rmul__(self, c):
        return self.scale(c)

    def __matmul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        rows = _product_rows(self, other)
        cls = _binarion(self.ring)
        if cls:
            rows = [[cls(r, i) for r, i in zip(re, im)] for re, im in rows]
        return RMatrix._of(rows, self.ring)

    def matvec(self, vec):
        """Apply to a column vector given as a sequence; returns a list.

        The vector may hold binarions of the ring or any elements the entries
        multiply (Grassmann elements): those take entry * element and
        the elements' own sum, from the ring's zero."""
        ring = self.ring
        cells = _cells(self)
        cls = _binarion(ring)
        if cls and all(type(v) is cls for v in vec):
            return [cls(re, im) for re, im in _matvec_components(cells, vec, cls.UNIT_SQ)]
        out = []
        for row, ents in zip(cells, self.entries):
            acc = ring.zero
            for cell in row:
                k = cell[0]
                acc = acc + ents[k] * vec[k]
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
        return RMatrix._of(list(zip(*self.entries)), self.ring)

    def conj(self):
        cls = _binarion(self.ring)
        if cls:
            return self._cellwise(lambda ar, ai: cls(ar, -ai))
        return self._cellwise(self.ring.conj)

    def dagger(self):
        return self.conj().transpose()

    def weighted_adjoint(self, g):
        """G . dagger(M) . G for a metric weight G."""
        if isinstance(g, MetricForm):
            g = g.matrix(self.ring)
        return g @ self.dagger() @ g

    # ---- queries ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring.name, self.entries))

    def is_zero(self):
        return all(_is_zero(a) for row in self.entries for a in row)

    def max_abs(self):
        """Largest absolute value over all real components of all entries
        (NaN if any component is NaN)."""
        return worst_of(abs(float(c)) for row in self.entries for a in row
                        for c in _components(a))

    def entry(self, i, j):
        return self.entries[i][j]

    def __repr__(self):
        return "RMatrix(%dx%d over %s)" % (self.rows, self.cols, self.ring.name)

    def _cellwise(self, fn):
        """fn of each nonzero cell in place, the ring's zero elsewhere; fn
        takes (re, im) over a binarion ring and the entry otherwise."""
        ring = self.ring
        out = [[ring.zero] * self.cols for _ in range(self.rows)]
        if _binarion(ring):
            for line, row in zip(out, _cells(self)):
                for j, ar, ai in row:
                    line[j] = fn(ar, ai)
        else:
            for line, row in zip(out, _cells(self)):
                for j, a in row:
                    line[j] = fn(a)
        return RMatrix._of(out, ring)

    def _union(self, other, op, comp_op):
        """op of the entries on the union of the operands' nonzero cells,
        the ring's zero elsewhere; over the binarion rings comp_op of their
        components, which gives the bits of op.  A cell only one operand
        holds meets the other's stored entry."""
        self._check(other)
        zero = self.ring.zero
        cls = _binarion(self.ring)
        out = []
        for ra, rb, ca, cb in zip(self.entries, other.entries, _cells(self), _cells(other)):
            line = [zero] * self.cols
            if cls:
                for j, ar, ai in ca:
                    y = rb[j]
                    line[j] = cls(comp_op(ar, y.re), comp_op(ai, y.im))
                for j, br, bi in cb:
                    if line[j] is zero:
                        x = ra[j]
                        line[j] = cls(comp_op(x.re, br), comp_op(x.im, bi))
            else:
                # a cell both hold may be computed twice (when a real sum is
                # the shared int 0), with the same value
                for cell in ca:
                    j = cell[0]
                    line[j] = op(ra[j], rb[j])
                for cell in cb:
                    j = cell[0]
                    if line[j] is zero:
                        line[j] = op(ra[j], rb[j])
            out.append(line)
        return RMatrix._of(out, self.ring)

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
    binarion ring, (j, value) over the reals.  Found on first use and kept."""
    cells = m._cells
    if cells is None:
        if _binarion(m.ring):
            cells = tuple([tuple([(j, a.re, a.im) for j, a in enumerate(row)
                                  if not (a.re == 0 and a.im == 0)])
                           for row in m.entries])
        else:
            cells = tuple([tuple([(j, a) for j, a in enumerate(row) if a != 0])
                           for row in m.entries])
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
        if any(type(x) is not float for row in cells for cell in row for x in cell[1:]):
            cells = tuple(tuple((cell[0],) + tuple(map(float, cell[1:])) for cell in row)
                          for row in cells)
        object.__setattr__(m, "_fcells", cells)
    return cells


def _product_rows(a, b):
    """Rows of a @ b before they become matrix entries: (re, im) lists of
    component sums over a binarion ring, lists of reals otherwise.

    Row-sparse (Gustavson order): row i accumulates A[i, k] * B[k, :] over
    the nonzero A[i, k] in increasing k, so each cell sums its terms in the
    order of the dense triple loop.  The component sums start at int 0, so
    none of them is a negative zero."""
    ring = a.ring
    if ring != b.ring:
        raise TypeError("ring mismatch: %s vs %s" % (ring, b.ring))
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d @ %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    n = b.cols
    b_cells = _cells(b)
    cls = _binarion(ring)
    out = []
    if cls:
        u2 = cls.UNIT_SQ
        for arow in _cells(a):
            re, im = [0] * n, [0] * n
            for k, ar, ai in arow:
                t = u2 * ai
                for j, br, bi in b_cells[k]:
                    re[j] = re[j] + (ar * br + t * bi)
                    im[j] = im[j] + (ar * bi + ai * br)
            out.append((re, im))
    else:
        for arow in _cells(a):
            line = [ring.zero] * n
            for k, x in arow:
                for j, y in b_cells[k]:
                    line[j] = line[j] + x * y
            out.append(line)
    return out


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
    cls = _binarion(ring)
    if cls:
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
        return RMatrix._of([[cls(a, b) for a, b in zip(r, s)] for r, s in zip(re, im)],
                           ring)
    out = [[ring.zero] * cols for _ in range(rows)]
    for c, m in zip(coeffs, basis):
        if not c:
            continue
        cells = _float_cells(m) if type(c) is float else _cells(m)
        c = ring.promote(c)
        for line, row in zip(out, cells):
            for j, a in row:
                line[j] = line[j] + c * a
    return RMatrix._of(out, ring)


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


def _components(a):
    if isinstance(a, (SplitComplex, OrdinaryComplex)):
        return (a.re, a.im)
    return (a,)


def commutator(a, b):
    """a @ b - b @ a."""
    return _fused(a, b, operator.sub)


def anticommutator(a, b):
    """a @ b + b @ a."""
    return _fused(a, b, operator.add)


def _fused(a, b, op):
    """op(a @ b, b @ a).  Over the binarion rings both products stay as
    component sums and one matrix is built from op of them at every cell,
    with the bits of the entries' own op on the two products (no sum is
    -0.0, so x - y is x + (-y) there); the reals take the two product
    matrices and op."""
    cls = _binarion(a.ring)
    if not cls:
        return op(a @ b, b @ a)
    a._check(b)
    return RMatrix._of([[cls(op(pr, qr), op(pi, qi)) for pr, pi, qr, qi in zip(*p, *q)]
                        for p, q in zip(_product_rows(a, b), _product_rows(b, a))], a.ring)


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
