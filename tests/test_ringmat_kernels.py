"""The sparse ringmat kernels against a dense reference.

The reference visits every cell with ring-element arithmetic, skipping zero
factors, which is the definition the kernels implement: ``@`` and
``matvec`` sum each cell's products in increasing k, ``lincomb`` sums the
real multiples basis matrix by basis matrix, ``form`` sums conj(v_i) (M v)_i
in increasing i, the elementwise ops apply the entry operation to each
nonzero cell and ``+``/``-`` to each cell either operand holds (``-`` as
``x + (-y)``), leaving the ring's zero elsewhere, and ``commutator`` /
``anticommutator`` over the binarion rings take ``-``/``+`` at every cell of
the two products.  Float results must agree bit for bit (sign of zero
included), rational results exactly and with the same types.
"""

from fractions import Fraction as F
import math
import random

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf.ringmat import (
    RMatrix, RING_REAL, RING_SPLIT, RING_COMPLEX, lincomb,
    commutator, anticommutator,
)
from splithopf.superhopf import PSEUDO, STANDARD, GrassmannElement


def _nonzero(x):
    return not (x.is_zero() if hasattr(x, "is_zero") else x == 0)


def ref_matmul(a, b):
    out = []
    for i in range(a.rows):
        line = []
        for j in range(b.cols):
            acc = a.ring.zero
            for k in range(a.cols):
                x, y = a.entries[i][k], b.entries[k][j]
                if _nonzero(x) and _nonzero(y):
                    acc = acc + x * y
            line.append(acc)
        out.append(line)
    return out


def ref_matvec(a, vec):
    out = []
    for row in a.entries:
        acc = a.ring.zero
        for x, v in zip(row, vec):
            if _nonzero(x):
                acc = acc + x * v
        out.append(acc)
    return out


def ref_lincomb(coeffs, basis):
    ring = basis[0].ring
    out = [[ring.zero] * basis[0].cols for _ in range(basis[0].rows)]
    for c, m in zip(coeffs, basis):
        if not c:
            continue
        for i, row in enumerate(m.entries):
            for j, x in enumerate(row):
                if _nonzero(x):
                    if ring is RING_SPLIT or ring is RING_COMPLEX:
                        term = type(x)(c * x.re, c * x.im)
                    else:
                        term = ring.promote(c) * x
                    out[i][j] = out[i][j] + term
    return out


def ref_cellwise(m, fn):
    return [[fn(x) if _nonzero(x) else m.ring.zero for x in row] for row in m.entries]


def ref_form(m, vec):
    acc = m.ring.zero
    for c, v in zip(vec, ref_matvec(m, vec)):
        acc = acc + (c.conj() if hasattr(c, "conj") else c) * v
    return acc


def ref_add(a, b, sign):
    """a + b (sign 1) or a + (-b) (sign -1) on the cells either holds."""
    out = []
    for ra, rb in zip(a.entries, b.entries):
        out.append([(x + y if sign > 0 else x + (-y)) if _nonzero(x) or _nonzero(y)
                     else a.ring.zero for x, y in zip(ra, rb)])
    return out


def ref_fused(a, b, sign):
    """a @ b +- b @ a at every cell of the two dense products, as a binarion
    ring's commutator and anticommutator take it."""
    p, q = ref_matmul(a, b), ref_matmul(b, a)
    return [[x + y if sign > 0 else x + (-y) for x, y in zip(rp, rq)]
            for rp, rq in zip(p, q)]


def bits(x):
    """Value key that tells apart floats by bit pattern and numbers by type."""
    if isinstance(x, (SplitComplex, OrdinaryComplex)):
        return (type(x).__name__, bits(x.re), bits(x.im))
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def assert_same(got, want):
    rows = got.entries if isinstance(got, RMatrix) else [got]
    want = want if isinstance(got, RMatrix) else [want]
    assert [[bits(x) for x in r] for r in rows] == [[bits(x) for x in r] for r in want]


def _float(rng):
    r = rng.random()
    if r < 0.35:
        return 0.0
    if r < 0.45:
        return -0.0
    return rng.choice((-1, 1)) * rng.uniform(0.1, 3.0)


def _rational(rng):
    if rng.random() < 0.4:
        return 0
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def rand_matrix(rng, ring, rows, cols, draw):
    if ring is RING_REAL:
        return RMatrix([[draw(rng) for _ in range(cols)] for _ in range(rows)], ring)
    cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
    return RMatrix([[cls(draw(rng), draw(rng)) for _ in range(cols)] for _ in range(rows)],
                   ring)


CASES = [(ring, draw) for ring in (RING_REAL, RING_SPLIT, RING_COMPLEX)
         for draw in (_float, _rational)]
IDS = ["%s-%s" % (ring.name, draw.__name__.strip("_")) for ring, draw in CASES]


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_matmul_matches_dense_reference(ring, draw):
    rng = random.Random(11)
    for shape in ((1, 1, 1), (2, 3, 2), (4, 4, 4), (8, 8, 8), (3, 5, 1)):
        n, k, m = shape
        a = rand_matrix(rng, ring, n, k, draw)
        b = rand_matrix(rng, ring, k, m, draw)
        assert_same(a @ b, ref_matmul(a, b))
        # the cells kept from the first product give the same second one
        assert_same(a @ b, ref_matmul(a, b))


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_matvec_matches_dense_reference(ring, draw):
    rng = random.Random(12)
    for n, k in ((1, 1), (3, 2), (8, 8), (16, 16)):
        a = rand_matrix(rng, ring, n, k, draw)
        vec = list(rand_matrix(rng, ring, 1, k, draw).entries[0])
        assert_same(RMatrix([a.matvec(vec)], ring), [ref_matvec(a, vec)])
    if ring is RING_SPLIT:
        # real numbers in a split-complex vector take the ring-element path
        vec = [draw(rng) for _ in range(k)]
        assert_same(RMatrix([a.matvec(vec)], ring), [ref_matvec(a, vec)])


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_lincomb_matches_dense_reference(ring, draw):
    rng = random.Random(13)
    for n, count in ((2, 3), (8, 28), (16, 5)):
        basis = [rand_matrix(rng, ring, n, n, draw) for _ in range(count)]
        coeffs = [draw(rng) for _ in basis]
        assert_same(lincomb(coeffs, basis), ref_lincomb(coeffs, basis))


def test_lincomb_exact_and_linear():
    rng = random.Random(14)
    basis = [rand_matrix(rng, RING_SPLIT, 4, 4, _rational) for _ in range(6)]
    coeffs = [F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in basis]
    got = lincomb(coeffs, basis)
    want = basis[0].scale(coeffs[0])
    for c, m in zip(coeffs[1:], basis[1:]):
        want = want + m.scale(c)
    assert got == want
    assert all(not isinstance(c, float) for row in got.entries for x in row
               for c in (x.re, x.im))
    assert lincomb([0, 0], basis[:2]) == RMatrix.zeros(4, 4, RING_SPLIT)
    with pytest.raises(ValueError):
        lincomb([1, 1], [basis[0], RMatrix.zeros(2, 2, RING_SPLIT)])
    with pytest.raises(ValueError):
        lincomb([1], basis[:2])
    with pytest.raises(ValueError):
        lincomb([], [])
    with pytest.raises(TypeError):
        lincomb([1, 1], [basis[0], RMatrix.zeros(4, 4, RING_COMPLEX)])


@pytest.mark.parametrize("cfg", (PSEUDO, STANDARD), ids=lambda c: c.mode)
@pytest.mark.parametrize("ring", (RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_matvec_and_form_on_grassmann_vectors(ring, cfg):
    # the super map's path: numeric binarion matrices acting on vectors of
    # exact Grassmann elements take entry * element and the elements' sum
    rng = random.Random(15)
    cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex

    def elem():
        coeffs = {m: cls(_rational(rng), _rational(rng)) for m in range(16)
                  if rng.random() < 0.3}
        return GrassmannElement(coeffs, cfg)

    for n in (1, 2, 3, 3):
        a = rand_matrix(rng, ring, n, n, _rational)
        vec = [elem() for _ in range(n)]
        got = a.matvec(vec)
        assert got == ref_matvec(a, vec)
        q = a.form(vec)
        assert q == ref_form(a, vec)
        for x in got + [q]:
            # a row without nonzero cells gives the ring's zero
            coeffs = x.coeffs.values() if isinstance(x, GrassmannElement) else (x,)
            assert all(type(c) in (int, F) for v in coeffs for c in (v.re, v.im))


def test_max_abs_propagates_nan():
    nan = float("nan")
    assert math.isnan(RMatrix([[nan, 1.0]], RING_REAL).max_abs())
    assert math.isnan(RMatrix([[1.0, nan]], RING_REAL).max_abs())
    assert math.isnan(RMatrix([[SplitComplex(2.0, nan)]], RING_SPLIT).max_abs())
    assert RMatrix([[-3.0, 1.0]], RING_REAL).max_abs() == 3.0


def _coefficients(rng, ring, draw):
    """A real coefficient, and over a binarion ring also a ring element and
    a pure unit multiple."""
    cs = [draw(rng) or draw(rng) or 3]
    if ring is not RING_REAL:
        cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
        cs += [cls(draw(rng), draw(rng)), cls(0, draw(rng) or 2)]
    return cs


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_elementwise_ops_match_dense_reference(ring, draw):
    rng = random.Random(16)
    for n, m in ((1, 1), (3, 2), (8, 8), (16, 16)):
        a = rand_matrix(rng, ring, n, m, draw)
        for c in _coefficients(rng, ring, draw):
            p = ring.promote(c)
            assert_same(a.scale(c), ref_cellwise(a, lambda x: p * x))
            assert_same(a.scale_right(c), ref_cellwise(a, lambda x: x * p))
            assert_same(c * a, ref_cellwise(a, lambda x: p * x))
            assert_same(a * c, ref_cellwise(a, lambda x: x * p))
        assert_same(-a, ref_cellwise(a, lambda x: -x))
        assert_same(a.conj(), ref_cellwise(a, ring.conj))
        assert_same(a.dagger(), list(zip(*ref_cellwise(a, ring.conj))))
        # the cells kept from the first use give the same second use
        c = _coefficients(rng, ring, draw)[-1]
        p = ring.promote(c)
        assert_same(a.scale(c), ref_cellwise(a, lambda x: p * x))


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_form_matches_dense_reference(ring, draw):
    rng = random.Random(17)
    for n in (1, 2, 4, 8, 16):
        a = rand_matrix(rng, ring, n, n, draw)
        vec = list(rand_matrix(rng, ring, 1, n, draw).entries[0])
        assert_same(RMatrix([[a.form(vec)]], ring), [[ref_form(a, vec)]])
        assert_same(RMatrix([[a.form(tuple(vec))]], ring),
                    [[ref_form(a, vec)]])
    if ring is not RING_REAL:
        # real numbers in a binarion vector take the ring-element path
        vec = [draw(rng) for _ in range(n)]
        assert_same(RMatrix([[a.form(vec)]], ring), [[ref_form(a, vec)]])


def test_rational_elementwise_ops_stay_exact():
    rng = random.Random(18)
    a = rand_matrix(rng, RING_SPLIT, 6, 6, _rational)
    vec = list(rand_matrix(rng, RING_SPLIT, 1, 6, _rational).entries[0])
    c = SplitComplex(F(2, 3), F(-1, 5))
    for m in (a.scale(c), a.scale_right(c), -a, a.conj()):
        for x in (x for row in m.entries for x in row if _nonzero(x)):
            assert isinstance(x.re, F) or x.re == 0
            assert isinstance(x.im, F) or x.im == 0
            assert not isinstance(x.re, float) and not isinstance(x.im, float)
    n = a.form(vec)
    assert not isinstance(n.re, float) and not isinstance(n.im, float)
    assert a.scale(c).scale(SplitComplex(1, 0) / c) == a


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX),
                         ids=lambda r: r.name)
def test_nan_coefficient_propagates(ring):
    nan = float("nan")
    a = rand_matrix(random.Random(20), ring, 4, 4, _float)
    assert not a.is_zero()
    assert math.isnan(a.scale(nan).max_abs())
    assert math.isnan(a.scale_right(nan).max_abs())
    if ring is not RING_REAL:
        cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
        assert math.isnan(a.scale(cls(0, nan)).max_abs())
        assert math.isnan(a.scale_right(cls(0, nan)).max_abs())


def _masked(rng, ring, n, draw, keep):
    """A random n x n matrix with zero cells (negative zeros in the float
    case) wherever keep(i, j) is false."""
    m = rand_matrix(rng, ring, n, n, draw)
    zero = -0.0 if draw is _float else 0
    z = zero if ring is RING_REAL else type(ring.zero)(zero, zero)
    return RMatrix([[x if keep(i, j) else z for j, x in enumerate(row)]
                    for i, row in enumerate(m.entries)], ring)


def _operand_pairs(rng, ring, draw):
    for n in (1, 3, 8, 16):
        yield rand_matrix(rng, ring, n, n, draw), rand_matrix(rng, ring, n, n, draw)
        # disjoint cells: a on the even columns, b on the odd ones
        yield (_masked(rng, ring, n, draw, lambda i, j: j % 2 == 0),
               _masked(rng, ring, n, draw, lambda i, j: j % 2 == 1))
        # overlapping cells, and cells that cancel
        a = _masked(rng, ring, n, draw, lambda i, j: (i + j) % 3 != 0)
        yield a, _masked(rng, ring, n, draw, lambda i, j: (i * j) % 2 == 0)
        yield a, a


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_add_sub_match_dense_reference(ring, draw):
    rng = random.Random(21)
    for a, b in _operand_pairs(rng, ring, draw):
        assert_same(a + b, ref_add(a, b, 1))
        assert_same(a - b, ref_add(a, b, -1))
        assert_same(b - a, ref_add(b, a, -1))


def test_add_sub_signed_zero_components():
    # -0.0 next to a cell the other operand does not hold: -0.0 + -0.0 is
    # -0.0, -0.0 + (-(-0.0)) is 0.0, and a stored zero of +0.0 gives 0.0
    for cls, ring in ((SplitComplex, RING_SPLIT), (OrdinaryComplex, RING_COMPLEX)):
        a = RMatrix([[cls(-0.0, 1.5), cls(0.0, 0.0), cls(-0.0, -0.0)],
                     [cls(2.0, -0.0), cls(-0.0, 0.0), cls(0, 0)]], ring)
        b = RMatrix([[cls(-0.0, -0.0), cls(-0.0, 2.5), cls(1.0, 0.0)],
                     [cls(0.0, 0.0), cls(0.0, -0.0), cls(-0.0, -3.0)]], ring)
        for x, y in ((a, b), (b, a), (a, a)):
            assert_same(x + y, ref_add(x, y, 1))
            assert_same(x - y, ref_add(x, y, -1))
    a = RMatrix([[-0.0, 1.0, -0.0]], RING_REAL)
    b = RMatrix([[1.0, -0.0, -0.0]], RING_REAL)
    assert_same(a + b, ref_add(a, b, 1))
    assert_same(a - b, ref_add(a, b, -1))


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_commutators_match_dense_reference(ring, draw):
    rng = random.Random(22)
    for a, b in _operand_pairs(rng, ring, draw):
        if ring is RING_REAL:
            want_c = ref_add(RMatrix(ref_matmul(a, b), ring), RMatrix(ref_matmul(b, a), ring), -1)
            want_a = ref_add(RMatrix(ref_matmul(a, b), ring), RMatrix(ref_matmul(b, a), ring), 1)
        else:
            want_c, want_a = ref_fused(a, b, -1), ref_fused(a, b, 1)
        assert_same(commutator(a, b), want_c)
        assert_same(anticommutator(a, b), want_a)
    with pytest.raises(ValueError):
        commutator(rand_matrix(rng, ring, 2, 3, draw), rand_matrix(rng, ring, 2, 3, draw))
    with pytest.raises(TypeError):
        other = RING_COMPLEX if ring is not RING_COMPLEX else RING_SPLIT
        commutator(RMatrix.zeros(2, 2, ring), RMatrix.zeros(2, 2, other))


def test_rational_add_sub_commutators_stay_exact():
    rng = random.Random(24)
    for ring in (RING_REAL, RING_SPLIT, RING_COMPLEX):
        a = rand_matrix(rng, ring, 6, 6, _rational)
        b = rand_matrix(rng, ring, 6, 6, _rational)
        for m in (a + b, a - b, commutator(a, b), anticommutator(a, b)):
            for x in (x for row in m.entries for x in row):
                comps = (x.re, x.im) if ring is not RING_REAL else (x,)
                assert all(type(c) in (int, F) for c in comps)
        assert (a + b) - b == a
        assert commutator(a, b) == a @ b - b @ a
        assert anticommutator(a, b) == a @ b + b @ a


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX),
                         ids=lambda r: r.name)
def test_lincomb_float_coefficients_over_rational_cells(ring):
    # a float coefficient meets a Fraction cell as float * Fraction would
    rng = random.Random(25)
    basis = [rand_matrix(rng, ring, 8, 8, _rational) for _ in range(12)]
    coeffs = [_float(rng) or 1.25 for _ in basis]
    assert_same(lincomb(coeffs, basis), ref_lincomb(coeffs, basis))
    mixed = [c if k % 3 else F(k + 1, 7) for k, c in enumerate(coeffs)]
    assert_same(lincomb(mixed, basis), ref_lincomb(mixed, basis))
    exact = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in basis]
    got = lincomb(exact, basis)
    assert_same(got, ref_lincomb(exact, basis))
    comps = [c for row in got.entries for x in row
             for c in ((x.re, x.im) if ring is not RING_REAL else (x,))]
    assert all(type(c) in (int, F) for c in comps)


@pytest.mark.parametrize("ring,draw", CASES, ids=IDS)
def test_second_use_gives_the_same_bits(ring, draw):
    """Cells are kept on a matrix at its first use; the second use of the
    same matrices gives the same bits as the first."""
    rng = random.Random(26)
    a, b = rand_matrix(rng, ring, 8, 8, draw), rand_matrix(rng, ring, 8, 8, draw)
    vec = list(rand_matrix(rng, ring, 1, 8, draw).entries[0])
    c = _coefficients(rng, ring, draw)[-1]
    ops = [lambda: a @ b, lambda: a + b, lambda: a - b, lambda: commutator(a, b),
           lambda: anticommutator(a, b), lambda: a.scale(c), lambda: -a,
           lambda: lincomb([1.5, -0.25], [a, b]), lambda: lincomb([F(1, 3), 2], [a, b]),
           lambda: RMatrix([a.matvec(vec)], ring), lambda: RMatrix([[a.form(vec)]], ring)]
    assert a._cells is None and b._cells is None
    first = [op() for op in ops]
    assert a._cells is not None and b._cells is not None
    for op, want in zip(ops, first):
        assert_same(op(), want.entries)
