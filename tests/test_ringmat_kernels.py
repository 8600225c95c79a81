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
    RMatrix, Ring, RING_REAL, RING_SPLIT, RING_COMPLEX, forms, lincomb, lincomb_dev,
    max_abs_diff, commutator, anticommutator,
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


def _fraction(rng):
    # every value a Fraction, zeros included: the kernels clear such cells
    return F(_rational(rng))


def _integer(rng):
    return 0 if rng.random() < 0.4 else rng.randint(-5, 5)


def rand_matrix(rng, ring, rows, cols, draw):
    if ring is RING_REAL:
        return RMatrix([[draw(rng) for _ in range(cols)] for _ in range(rows)], ring)
    cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
    return RMatrix([[cls(draw(rng), draw(rng)) for _ in range(cols)] for _ in range(rows)],
                   ring)


DRAWS = (_float, _rational, _fraction, _integer)
CASES = [(ring, draw) for ring in (RING_REAL, RING_SPLIT, RING_COMPLEX) for draw in DRAWS]
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
    # a mismatch in the last place of a longer basis is found as well
    for rows, cols in ((4, 2), (2, 4)):
        with pytest.raises(ValueError):
            lincomb([1, 1, 1], basis[:2] + [RMatrix.zeros(rows, cols, RING_SPLIT)])
    with pytest.raises(TypeError):
        lincomb([1, 1, 1], basis[:2] + [RMatrix.zeros(4, 4, RING_COMPLEX)])
    with pytest.raises(TypeError):
        lincomb([1, 1, 1], basis[:2] + [[[0] * 4] * 4])
    # a ring equal by name is the same ring, though not the same object
    twin = Ring(RING_SPLIT.name, RING_SPLIT.zero, RING_SPLIT.one, RING_SPLIT.conj,
                RING_SPLIT.promote)
    assert twin is not RING_SPLIT and twin == RING_SPLIT
    last = RMatrix(basis[2].entries, twin)
    assert lincomb(coeffs[:3], basis[:2] + [last]) == lincomb(coeffs[:3], basis[:3])


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

    # the last matrix has a row without nonzero cells
    empty_row = RMatrix([[cls(F(1, 2), 0), cls(0, 3)], [cls(0, 0), cls(-0, 0)]], ring)
    for a in [rand_matrix(rng, ring, n, n, _rational) for n in (1, 2, 3, 3)] + [empty_row]:
        vec = [elem() for _ in range(a.cols)]
        got = a.matvec(vec)
        assert got == ref_matvec(a, vec)
        q = a.form(vec)
        assert q == ref_form(a, vec)
        for x in got + [q]:
            # every row gives a Grassmann element, an empty row its zero
            assert isinstance(x, GrassmannElement) and x.config is cfg
            assert all(type(c) in (int, F) for v in x.coeffs.values() for c in (v.re, v.im))
    assert a.matvec(vec)[1].is_zero()


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


def _form_vectors(rng, ring, n):
    """One vector per draw, and one mixing int and Fraction components."""
    vecs = [list(rand_matrix(rng, ring, 1, n, draw).entries[0]) for draw in DRAWS]
    mixed = [ring.promote(x) for x in [F(1, 2)] + [rng.randint(-3, 3) for _ in range(n - 1)]]
    return vecs + [mixed]


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_forms_match_dense_reference(ring):
    """forms reads a vector once for several matrices; each result has the
    bits and the type of the matrix's own dense reference form, whichever
    path (float, int, cleared Fraction, entries' arithmetic) the matrix and
    the vector take."""
    rng = random.Random(31)
    for n in (1, 2, 4, 8):
        mats = [rand_matrix(rng, ring, n, n, draw) for draw in DRAWS + DRAWS]
        # int cells beside Fraction cells
        mats.append(_cell_mixed(rng, ring, n))
        for vec in _form_vectors(rng, ring, n):
            want = [bits(ref_form(m, vec)) for m in mats]
            assert [bits(x) for x in forms(mats, vec)] == want
            assert [bits(x) for x in forms(mats, tuple(vec))] == want
            assert [bits(m.form(vec)) for m in mats] == want
    # terms that cancel on the cleared path give Fraction(0) in every
    # component, as they do in the reference; so does a matrix without cells
    cls = None if ring is RING_REAL else type(ring.zero)
    exact = (lambda x: F(x)) if cls is None else (lambda x: cls(F(x), F(0)))
    cancel = RMatrix.diagonal([exact(1), exact(-1)], ring)
    zero = RMatrix.zeros(2, 2, ring)
    vec = [exact(F(1, 2)), exact(F(1, 2))]
    got = forms([cancel, zero], vec)
    assert [bits(x) for x in got] == [bits(ref_form(m, vec)) for m in (cancel, zero)]
    assert bits(got[0]) == bits(got[1]) == bits(exact(0))


@pytest.mark.parametrize("cfg", (PSEUDO, STANDARD), ids=lambda c: c.mode)
@pytest.mark.parametrize("ring", (RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_forms_on_grassmann_vectors(ring, cfg):
    """Several numeric matrices against one vector of exact Grassmann
    elements: each form equals the dense reference and stays exact."""
    rng = random.Random(32)
    cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
    vec = [GrassmannElement({m: cls(_rational(rng), _rational(rng)) for m in range(16)
                             if rng.random() < 0.3}, cfg) for _ in range(3)]
    mats = [rand_matrix(rng, ring, 3, 3, draw) for draw in DRAWS]
    mats.append(RMatrix.zeros(3, 3, ring))
    got = forms(mats, vec)
    assert got == [ref_form(m, vec) for m in mats]
    for x in got[:-1]:
        assert isinstance(x, GrassmannElement) and x.config is cfg


def test_forms_refuses_mixed_rings():
    with pytest.raises(TypeError):
        forms([RMatrix.identity(2, RING_SPLIT), RMatrix.identity(2, RING_COMPLEX)],
              [SplitComplex(1, 0), SplitComplex(0, 0)])


def test_rational_elementwise_ops_stay_exact():
    rng = random.Random(18)
    a = rand_matrix(rng, RING_SPLIT, 6, 6, _rational)
    vec = list(rand_matrix(rng, RING_SPLIT, 1, 6, _rational).entries[0])
    c = SplitComplex(F(2, 3), F(-1, 5))
    for m in (a.scale(c), -a, a.conj()):
        for x in (x for row in m.entries for x in row if _nonzero(x)):
            assert isinstance(x.re, F) or x.re == 0
            assert isinstance(x.im, F) or x.im == 0
            assert not isinstance(x.re, float) and not isinstance(x.im, float)
    n = a.form(vec)
    assert not isinstance(n.re, float) and not isinstance(n.im, float)
    assert a.scale(c).scale(c.conj() * (1 / c.qform())) == a  # c^-1 = conj(c) / qform(c)


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX),
                         ids=lambda r: r.name)
def test_nan_coefficient_propagates(ring):
    nan = float("nan")
    a = rand_matrix(random.Random(20), ring, 4, 4, _float)
    assert not a.is_zero()
    assert math.isnan(a.scale(nan).max_abs())
    if ring is not RING_REAL:
        cls = SplitComplex if ring is RING_SPLIT else OrdinaryComplex
        assert math.isnan(a.scale(cls(0, nan)).max_abs())


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
        # the stored -0.0 of the operand that does not hold the cell, not an
        # exact zero, meets the other's component
        assert math.copysign(1, (a + b).entry(0, 0).re) == -1
        assert math.copysign(1, (b - a).entry(0, 1).re) == -1
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


def _mixed(rng):
    return _float(rng) if rng.random() < 0.5 else _rational(rng)


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_lincomb_dev_is_max_abs_diff_of_the_two_lincombs(ring):
    # float, exact and mixed coefficients (zeros among them) over float,
    # exact and mixed cells, and a NaN or infinite cell in either basis
    rng = random.Random(31)
    coeff_draws = (_float, _rational, _mixed)
    for cells in DRAWS + (_mixed,):
        for coeff_a in coeff_draws:
            for coeff_b in coeff_draws:
                pairs = [([draw(rng) for _ in range(4)],
                          [rand_matrix(rng, ring, 3, 4, cells) for _ in range(4)])
                         for draw in (coeff_a, coeff_b)]
                want = max_abs_diff(lincomb(*pairs[0]), lincomb(*pairs[1]))
                got = lincomb_dev(*pairs)
                assert type(got) is float and got.hex() == want.hex()
                assert lincomb_dev(pairs[0], pairs[0]) == 0.0
    for special in (float("nan"), float("inf"), float("-inf")):
        for side in (0, 1):
            pairs = [([_mixed(rng) or 0.5 for _ in range(3)],
                      [rand_matrix(rng, ring, 2, 3, _mixed) for _ in range(3)])
                     for _ in range(2)]
            grids = pairs[side][1][1].components()
            grids[-1][1][2] = special
            pairs[side][1][1] = RMatrix(grids[0], ring) if ring is RING_REAL else RMatrix(
                [list(map(type(ring.zero), re, im)) for re, im in zip(*grids)], ring)
            want = max_abs_diff(lincomb(*pairs[0]), lincomb(*pairs[1]))
            got = lincomb_dev(*pairs)
            assert got.hex() == want.hex() and (got != got) == (special != special)
            assert got != got or got == math.inf


@pytest.mark.parametrize("other", [
    ([1, 2], [RMatrix.identity(2, RING_COMPLEX)] * 2), ([1], [RMatrix.identity(3, RING_SPLIT)]),
    ([1], [RMatrix.zeros(2, 3, RING_SPLIT)]), ([1, 2], [RMatrix.identity(2, RING_SPLIT)]),
    ([1], [RMatrix.identity(2, RING_SPLIT), RMatrix.identity(2, RING_REAL)])])
def test_lincomb_dev_mismatch_raises_as_the_difference(other):
    one = ([0.5, 2], [RMatrix.identity(2, RING_SPLIT)] * 2)
    for a, b in ((one, other), (other, one)):
        with pytest.raises(Exception) as want:
            lincomb(*a) - lincomb(*b)
        with pytest.raises(want.type) as got:
            lincomb_dev(a, b)
        assert str(got.value) == str(want.value)


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
    if ring is not RING_REAL:
        # no kernel builds entries, of its operands or of its result
        assert a._entries is None and b._entries is None
        assert all(m._entries is None for m in first)
    for op, want in zip(ops, first):
        assert_same(op(), want.entries)


# ---------------------------------------------------------------------------
# component grids over the binarion rings

BINARION_CASES = [(ring, draw) for ring in (RING_SPLIT, RING_COMPLEX) for draw in DRAWS]
BINARION_IDS = ["%s-%s" % (ring.name, draw.__name__.strip("_")) for ring, draw in BINARION_CASES]


@pytest.mark.parametrize("ring,draw", BINARION_CASES, ids=BINARION_IDS)
def test_grids_entries_and_components_agree(ring, draw):
    """Every kernel's result, built from cells, materializes entries equal to
    its components cell by cell (bits and types), and entry(i, j) (read
    before and after entries) gives the same cell."""
    rng = random.Random(27)
    a, b = rand_matrix(rng, ring, 6, 6, draw), rand_matrix(rng, ring, 6, 6, draw)
    c = _coefficients(rng, ring, draw)[-1]
    results = [a @ b, a + b, a - b, commutator(a, b), anticommutator(a, b), a.scale(c),
               -a, a.conj(), a.dagger(), a.transpose(),
               lincomb([draw(rng) or 2, 0.75], [a, b]),
               RMatrix.from_blocks([[a, 0], [0, b]], ring)]
    for m in results:
        re, im = m.components()
        singles = [[bits(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
        assert_same(m, [[type(ring.zero)(x, y) for x, y in zip(r, i)] for r, i in zip(re, im)])
        assert [[bits(x) for x in row] for row in m.entries] == singles
        assert [[bits(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)] == singles
    assert_same(a.transpose(), list(zip(*a.entries)))
    assert_same(RMatrix.from_blocks([[a, b]], ring),
                [list(x) + list(y) for x, y in zip(a.entries, b.entries)])


@pytest.mark.parametrize("ring,draw", BINARION_CASES, ids=BINARION_IDS)
def test_grid_built_and_entry_built_are_equal_and_hash_equal(ring, draw):
    rng = random.Random(28)
    a, b = rand_matrix(rng, ring, 5, 5, draw), rand_matrix(rng, ring, 5, 5, draw)
    for got, want in ((a @ b, ref_matmul(a, b)), (a + b, ref_add(a, b, 1)),
                      (commutator(a, b), ref_fused(a, b, -1))):
        built = RMatrix(want, ring)
        assert got == built and built == got
    # int, Fraction and float components of one value are one matrix
    cls = type(ring.zero)
    ints = RMatrix([[cls(1, 0), cls(0, -2)]], ring)
    exact = ints.scale(F(1))
    floats = ints.scale(1.0)
    assert ints == exact == floats
    assert ints != ints.scale(F(1, 2))
    # stored zero cells (a written Fraction(0), 0.0 and -0.0) and absent ones
    stored = RMatrix([[cls(F(0), 0), cls(0.0, -0.0)], [cls(1, 0), cls(-0.0, 0)]], ring)
    absent = RMatrix([[cls(0, 0), cls(0, 0)], [cls(1, 0), cls(0, 0)]], ring)
    assert len(stored._stored[0]) == 2 and absent._stored[0] == ()
    assert stored == absent and absent == stored


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_equality_is_false_on_nan_cells(ring):
    # a list compare takes a NaN shared by both sides as equal; == compares
    # every component itself, as an entrywise comparison does
    nan = float("nan")
    x = nan if ring is RING_REAL else type(ring.zero)(nan, 0.0)
    a = RMatrix([[x, ring.one]], ring)
    b = RMatrix([[x, ring.one]], ring)
    assert a.components()[0][0][0] is b.components()[0][0][0]
    assert a != b and not (a == b)
    assert not (a == a)
    assert RMatrix([[ring.one]], ring) == RMatrix([[ring.one]], ring)


def test_is_scalar_pinned():
    from splithopf.splitnum import _is_scalar
    from splithopf.ringmat import _promote_real
    assert _is_scalar(3) and _is_scalar(-0.5) and _is_scalar(F(2, 3))
    assert not _is_scalar(True) and not _is_scalar(False)
    assert not _is_scalar(1 + 2j)
    assert not _is_scalar(SplitComplex(1, 0)) and not _is_scalar(OrdinaryComplex(1, 0))
    assert not _is_scalar("1") and not _is_scalar(None)
    # the ring promotions take bool as an int, as the numbers.Real check did
    assert _promote_real(True) is True
    assert RING_SPLIT.promote(True) == SplitComplex(1, 0)
    assert RING_COMPLEX.promote(2 + 3j) == OrdinaryComplex(2.0, 3.0)
    for ring in (RING_REAL, RING_SPLIT):
        with pytest.raises(TypeError):
            ring.promote(1j)


# ---------------------------------------------------------------------------
# exact kernels on cleared integers

def _cell_mixed(rng, ring, n=6):
    """An n x n matrix whose nonzero cells are int in some places and
    Fraction in others, which the kernels clear only beside an operand that
    puts a Fraction in every term they write."""
    m = rand_matrix(rng, ring, n, n, _integer)
    f = rand_matrix(rng, ring, n, n, _fraction)
    return RMatrix([[x if (i + j) % 2 else y for j, (x, y) in enumerate(zip(rx, ry))]
                    for i, (rx, ry) in enumerate(zip(m.entries, f.entries))], ring)


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_mixed_operands_match_dense_reference(ring):
    """A float meeting a Fraction, a matrix holding both, and int cells next
    to Fraction cells all keep the entries' own arithmetic: the same bits
    and types as the dense reference."""
    rng = random.Random(30)
    fr, fl = rand_matrix(rng, ring, 6, 6, _fraction), rand_matrix(rng, ring, 6, 6, _float)
    both = RMatrix([[x if j % 2 else y for j, (x, y) in enumerate(zip(rx, ry))]
                    for rx, ry in zip(fr.entries, fl.entries)], ring)
    mixed = _cell_mixed(rng, ring)
    ints = rand_matrix(rng, ring, 6, 6, _integer)
    vecs = [list(rand_matrix(rng, ring, 1, 6, draw).entries[0])
            for draw in (_fraction, _float, _rational, _integer)]
    # ints and Fractions in one vector: a row of ints that reaches only int
    # values is an int
    vecs[2][0] = ring.promote(F(1, 2))
    vecs[2][1:] = [ring.promote(x) for x in (1, -2, 0, 3, 0)]
    for a, b in ((fr, fl), (fl, fr), (both, fr), (fr, both), (mixed, fr), (fr, mixed),
                 (mixed, mixed)):
        assert_same(a @ b, ref_matmul(a, b))
        want = ref_fused(a, b, -1) if ring is not RING_REAL else ref_add(
            RMatrix(ref_matmul(a, b), ring), RMatrix(ref_matmul(b, a), ring), -1)
        assert_same(commutator(a, b), want)
        assert_same(lincomb([F(1, 3), 2], [a, b]), ref_lincomb([F(1, 3), 2], [a, b]))
        assert_same(lincomb([F(1, 3), 0.5], [a, b]), ref_lincomb([F(1, 3), 0.5], [a, b]))
    for m in (fr, fl, both, mixed, ints):
        for vec in vecs:
            assert_same(RMatrix([m.matvec(vec)], ring), [ref_matvec(m, vec)])
            assert_same(RMatrix([[m.form(vec)]], ring), [[ref_form(m, vec)]])
        for c in (0.75, F(2, 3)) + ((type(ring.zero)(F(1, 2), -1.5),) if ring is not RING_REAL
                                    else ()):
            p = ring.promote(c)
            assert_same(m.scale(c), ref_cellwise(m, lambda x: p * x))


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_cleared_results_keep_types(ring):
    """On cleared operands a reached cell is a Fraction, also where its terms
    cancel, and a cell no term reached is the int 0; int operands give ints."""
    cls = None if ring is RING_REAL else type(ring.zero)

    def mat(rows):
        # the imaginary part of a value's own type, so that Fraction
        # matrices hold Fractions only
        return RMatrix([[x if cls is None else cls(x, type(x)(0)) for x in row]
                        for row in rows], ring)

    def kinds(m):
        return [[type(c).__name__ + ("0" if c == 0 else "") for c in line]
                for grid in m.components() for line in grid]

    a = mat([[F(1, 2), F(1, 2)], [0, 0]])
    b = mat([[F(1), F(0)], [F(-1), F(0)]])
    # (0, 0) is reached by two terms that cancel; no term reaches the rest
    want = [["Fraction0", "int0"], ["int0", "int0"]]
    # the second product takes its values from the memo of the first
    for _ in range(2):
        assert kinds(a @ b) == want * (2 if cls else 1)
    ints = mat([[1, 2], [0, 3]])
    assert {k for row in kinds(ints @ ints) + kinds(ints.scale(2)) for k in row} <= {
        "int", "int0"}
    assert kinds(lincomb([F(1, 2), F(-1, 2)], [ints, ints])) == \
        [["Fraction0", "Fraction0"], ["int0", "Fraction0"]] * (2 if cls else 1)
    # a row without cells gives the int 0, the other row a Fraction
    vec = [F(0), F(1, 3)] if cls is None else [cls(F(0), F(0)), cls(F(1, 3), F(0))]
    assert kinds(RMatrix([mat([[1, 2], [0, 0]]).matvec(vec)], ring)) == \
        [["Fraction", "int0"], ["Fraction0", "int0"]][:2 if cls else 1]


@pytest.mark.parametrize("ring", (RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_int_products_match_dense_reference(ring):
    """Products of int matrices, of a matrix holding a -0.0 where neither
    component is nonzero, and of floats give the dense reference's values
    and types."""
    cls = type(ring.zero)
    real = RMatrix([[cls(1, 0), cls(2, 0)], [cls(0, 0), cls(-3, 0)]], ring)
    imag = RMatrix([[cls(0, 1), cls(0, 0)], [cls(0, 0), cls(0, -1)]], ring)
    # int cells, and a -0.0 where neither component is nonzero
    signed = RMatrix([[cls(1, 0), cls(0.0, -0.0)], [cls(2, 0), cls(0, 0)]], ring)
    assert math.copysign(1, signed.components()[1][0][1]) == -1
    floats = real.scale(1.0)
    for a, b in ((real, real), (imag, imag), (real, imag), (signed, real), (floats, floats),
                 (floats, real)):
        assert_same(a @ b, ref_matmul(a, b))
    assert_same(commutator(real, real), ref_fused(real, real, -1))


@pytest.mark.parametrize("ring", (RING_SPLIT, RING_COMPLEX), ids=lambda r: r.name)
def test_blocks_scale_and_negation_match_dense_reference(ring):
    """from_blocks, scale and negation of an int product matrix and of its
    imaginary multiple give the entries' own values."""
    cls = type(ring.zero)
    plain = RMatrix([[cls(1, 0), cls(2, 0)], [cls(0, 0), cls(-3, 0)]], ring)
    real = plain @ RMatrix.identity(2, ring)
    for c in (3, -1, 0, cls(0, 2), cls(2, -1), F(1, 2), 0.5):
        p = ring.promote(c)
        assert_same(real.scale(c), ref_cellwise(real, lambda x: p * x))
    assert_same(-real, ref_cellwise(real, lambda x: -x))
    imag = real.scale(cls(0, 1))
    assert_same(-imag, ref_cellwise(imag, lambda x: -x))
    big = RMatrix.from_blocks([[real, 0], [0, real]], ring)
    assert_same(big, RMatrix.from_blocks([[plain, 0], [0, plain]], ring).entries)
    mixed = RMatrix.from_blocks([[real, 0], [0, imag]], ring)
    assert_same(mixed, RMatrix.from_blocks([[plain, 0], [0, plain.scale(cls(0, 1))]],
                                           ring).entries)


def _count_fraction_products(monkeypatch):
    counts = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(F, name)

        def counting(a, b, real=real):
            counts.append(1)
            return real(a, b)

        monkeypatch.setattr(F, name, counting)
    return counts


def test_exact_paths_make_no_fraction_product(monkeypatch):
    """The exact kernels clear their operands and divide once: a commutator
    of two sigma generators, the bilinears of an exact level-3 spinor (the
    forms call of its projection) and the Grassmann engine's checks
    multiply no Fraction."""
    from splithopf import gammarep, hopfmaps, superhopf
    sigmas = gammarep.build_generators("so54_I")["sigmas"]
    spinors = [hopfmaps.sample_normalized(3, real, backend="exact", rng=random.Random(3))
               for real in ("I", "II")]
    mats = [hopfmaps._bilinear_matrices(sp.level, sp.realization) for sp in spinors]
    counts = _count_fraction_products(monkeypatch)
    assert F(1, 2) * 3 == F(3, 2) and len(counts) == 1
    del counts[:]
    c = commutator(sigmas[(1, 2)], sigmas[(2, 3)])
    assert not c.is_zero()
    values = [forms(m, sp.comps) for m, sp in zip(mats, spinors)]
    checks = superhopf.engine_checks(seed=0, samples=2)
    assert counts == []
    monkeypatch.undo()
    # the projection divides by the norm and takes the constraint's inner
    # product in the entries' own arithmetic
    points = [hopfmaps.project(sp) for sp in spinors]
    assert [[v.re if hasattr(v, "re") else v for v in vals[1:]] for vals in values] == \
        [list(pt.coords) for pt in points]
    assert all(ok for _, ok, _ in checks)
    assert all(type(x) is F for pt in points for x in pt.coords)
    assert all(type(x) in (int, F) for grid in c.components() for row in grid for x in row)


@pytest.mark.parametrize("ring", (RING_REAL, RING_SPLIT), ids=lambda r: r.name)
def test_mixed_exact_operands_clear(monkeypatch, ring):
    """Ints mixed with Fractions clear beside an operand that puts a
    Fraction in every written term: the forms of an int matrix on a mixed
    vector (a form's vector meets every written value), and @ and scale of
    a mixed-cell matrix beside a Fraction operand multiply no Fraction and
    give the dense reference's values and types.  The matvec of a Fraction
    matrix on that vector and lincomb keep the entries' own arithmetic and
    give the reference's values and types too."""
    rng = random.Random(40)
    ints, fr = (rand_matrix(rng, ring, 6, 6, draw) for draw in (_integer, _fraction))
    mixed = _cell_mixed(rng, ring)
    vec = [ring.promote(x) for x in (F(1, 2), 1, -2, F(-3, 4), 3, 0)]
    coeffs = [F(1, 3), F(-2, 5)]
    counts = _count_fraction_products(monkeypatch)
    got = [RMatrix([forms((ints, fr), vec)], ring), mixed @ fr, fr @ mixed,
           mixed.scale(F(2, 3))]
    assert counts == []
    monkeypatch.undo()
    got += [RMatrix([fr.matvec(vec)], ring), lincomb(coeffs, [mixed, ints])]
    p = ring.promote(F(2, 3))
    want = [[[ref_form(ints, vec), ref_form(fr, vec)]],
            ref_matmul(mixed, fr), ref_matmul(fr, mixed),
            ref_cellwise(mixed, lambda x: p * x),
            [ref_matvec(fr, vec)], ref_lincomb(coeffs, [mixed, ints])]
    for g, w in zip(got, want):
        assert_same(g, w)


def test_maps_take_their_bilinears_from_forms(monkeypatch):
    """project (one forms call per spinor), super_project and invert make
    no per-matrix form and no matrix product once their cached matrices
    exist: over all six maps, the second call, with RMatrix.form and
    RMatrix.__matmul__ made to raise, gives the first call's results."""
    from splithopf import hopfmaps, superhopf
    rng = random.Random(33)
    calls = []
    for level, real in hopfmaps.CASES:
        for backend in ("float", "exact"):
            sp = hopfmaps.sample_normalized(level, real, backend=backend, rng=rng)
            calls.append(lambda sp=sp: hopfmaps.project(sp).coords)
        point = hopfmaps.sample_base_point(level, real, rng=rng)
        fibers = [None]
        if level == 2:
            fibers.append(hopfmaps.sample_normalized(1, real, rng=rng))
        elif level == 3 and real == "I":
            psi = hopfmaps.sample_normalized(2, "I", rng=rng)
            half = 1 / math.sqrt(2.0)
            pc = hopfmaps.charge_conjugate_spinor(psi.comps)
            fibers.append([c * half for c in psi.comps + tuple(SplitComplex(0, 1) * c
                                                                for c in pc)])
        elif level == 3:
            fibers.append([1.0] + [0.0] * 7)
        for fiber in fibers:
            def inverted(point=point, fiber=fiber):
                out = hopfmaps.invert(point, fiber=fiber)
                return out.w if isinstance(out, hopfmaps.Section) else out.comps
            calls.append(inverted)
    for real in ("I", "II"):
        cfg = PSEUDO if real == "I" else STANDARD
        ths = (GrassmannElement.generator(0, cfg), GrassmannElement.generator(1, cfg))
        xs = superhopf.lift_base((F(0), F(15, 8), F(17, 8)) if real == "II"
                                 else (F(24, 25), F(0), F(7, 25)), ths, real)
        chi = superhopf.super_invert(xs, ths, "upper", real)
        calls.append(lambda chi=chi, real=real: superhopf.super_project(chi, real))
    first = [call() for call in calls]

    def refused(*args):
        raise AssertionError("a per-matrix form or a matrix product")

    monkeypatch.setattr(RMatrix, "form", refused)
    monkeypatch.setattr(RMatrix, "__matmul__", refused)
    assert [call() for call in calls] == first


def _unit_set_vectors(rng, ring, n):
    """Gaussian floats, ints and Fractions; two poles with a signed zero in
    every other part; and vectors that mix floats with an int, with a
    Fraction, and ints with Fractions."""
    cls = None if ring is RING_REAL else type(ring.zero)

    def vector(draw):
        return [draw() if cls is None else cls(draw(), draw()) for _ in range(n)]

    vecs = [vector(lambda: rng.gauss(0.0, 1.0)), vector(lambda: rng.randint(-3, 3)),
            vector(lambda: F(rng.randint(-5, 5), rng.randint(1, 4)))]
    for lead in (1.0, -1.0):
        vecs.append(vector(lambda: rng.choice((0.0, -0.0))))
        vecs[-1][0] = ring.promote(lead) if cls is None else cls(lead, rng.choice((0.0, -0.0)))
    for odd in (2, F(1, 3)):
        vecs.append(vector(lambda: rng.gauss(0.0, 1.0)))
        vecs[-1][n - 1] = ring.promote(odd)
    vecs.append(vector(lambda: rng.randint(-3, 3)))
    vecs[-1][0] = ring.promote(F(-2, 3))
    return vecs


def _partial_tables(m):
    """Copies of m whose first row holds a non-unit cell (twice its unit),
    a second cell, or no cell; and m with Fraction and with float cells."""
    one = m.ring.one
    rows = [[list(r) for r in m.entries] for _ in range(3)]
    j = next(j for j, x in enumerate(rows[0][0]) if _nonzero(x))
    rows[0][0][j] = rows[0][0][j] * 2
    rows[1][0][(j + 1) % m.cols] = one
    rows[2][0] = [m.ring.zero] * m.cols
    return [RMatrix(r, m.ring) for r in rows] + [m.scale(F(1, 2)), m.scale(0.5)]


def test_forms_unit_rows_match_dense_reference():
    """The bilinear sets of the six maps and the level-3 fiber weights hold
    unit rows only (one +-1 or +-u cell each), so forms reads every term of
    theirs from a pair product.  On every kind of vector, alone and beside
    matrices with a non-unit cell, a second cell, an empty row, Fraction or
    float cells, each form has the bits and the type of the dense
    reference; a NaN or an infinite component makes every form non-finite;
    the super map's Grassmann set keeps the reference too."""
    from splithopf import hopfmaps, superhopf
    from splithopf.ringmat import _units
    rng = random.Random(34)
    sets = [hopfmaps._bilinear_matrices(*case) for case in hopfmaps.CASES]
    sets += [(hopfmaps._fiber_weight(3, real),) for real in ("I", "II")]
    for mats in sets:
        assert all(_units(m) and not _units(m)[1] and _units(m) is _units(m) for m in mats)
        ring, n = mats[0].ring, mats[0].cols
        for extra in ([], _partial_tables(mats[-1])):
            group = list(mats) + extra
            for vec in _unit_set_vectors(rng, ring, n):
                want = [bits(ref_form(m, vec)) for m in group]
                assert [bits(x) for x in forms(group, vec)] == want
                assert [bits(x) for x in forms(group, tuple(vec))] == want
        for bad in (float("nan"), float("inf"), -float("inf")):
            for i in (0, n - 1):
                vec = _unit_set_vectors(rng, ring, n)[0]
                vec[i] = ring.promote(bad) if ring is RING_REAL else type(ring.zero)(
                    vec[i].re, bad)
                for x in forms(mats, vec):
                    parts = (x,) if ring is RING_REAL else (x.re, x.im)
                    assert not any(map(math.isfinite, parts))
    for real in ("I", "II"):
        cfg = PSEUDO if real == "I" else STANDARD
        ths = (GrassmannElement.generator(0, cfg), GrassmannElement.generator(1, cfg))
        xs = superhopf.lift_base((F(0), F(15, 8), F(17, 8)) if real == "II"
                                 else (F(24, 25), F(0), F(7, 25)), ths, real)
        chi = superhopf.super_invert(xs, ths, "upper", real)
        mats = superhopf._bilinear_matrices(real)
        assert forms(mats, chi) == [ref_form(m, chi) for m in mats]
