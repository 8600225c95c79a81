"""Exact split-algebra arithmetic."""

from fractions import Fraction as F
import itertools
import math
import random

import pytest

from splithopf.splitnum import (
    SplitComplex, OrdinaryComplex, SplitQuaternion, SplitOctonion,
    OCTONION_TABLE, AlgebraError, verify_structure_table, multiplication_table,
    random_element, _TABLE_CELLS, _parse_cell, _cleared, cleared_sample, _doubled,
    _random_rational, rational, root,
)
from splithopf.superhopf import GrassmannElement, PSEUDO
from splithopf import reporting

e = SplitOctonion.basis
q = SplitQuaternion.basis
j = SplitComplex(0, 1)


def test_split_imaginary_unit():
    assert j * j == SplitComplex(1, 0)
    assert j.conj() == -j


def test_unit_element():
    one = SplitOctonion.basis(0)
    for k in range(8):
        assert one * e(k) == e(k)
        assert e(k) * one == e(k)


def test_table_cells():
    assert q(1) * q(2) == q(3)
    assert q(2) * q(3) == q(1)
    assert q(3) * q(1) == -q(2)
    assert q(1) * q(2) * q(3) == SplitQuaternion(1)
    assert e(1) * e(3) == -e(2)
    # caption seeds: f_145 = f_167 = f_246 = f_527 = f_347 = f_356 = -1
    for (a, b, c) in ((1, 4, 5), (1, 6, 7), (2, 4, 6), (5, 2, 7), (3, 4, 7), (3, 5, 6)):
        assert OCTONION_TABLE.f_extended(a, b, c) == -1
    assert OCTONION_TABLE.f_extended(1, 2, 3) == 1


def test_quaternion_squares():
    # all 16 products from the relations of the SplitQuaternion docstring:
    # q1^2 = q3^2 = 1, q2^2 = -1, q1 q2 = q3, q2 q3 = q1, q3 q1 = -q2, and
    # distinct units anticommute
    one = SplitQuaternion(1)
    squares = {1: one, 2: -one, 3: one}
    cyclic = {(1, 2): q(3), (2, 3): q(1), (3, 1): -q(2)}
    for a in range(4):
        for b in range(4):
            if a == 0 or b == 0:
                want = q(a + b)
            elif a == b:
                want = squares[a]
            elif (a, b) in cyclic:
                want = cyclic[a, b]
            else:
                want = -cyclic[b, a]
            assert q(a) * q(b) == want, (a, b)
            if a != b and a and b:
                assert q(a) * q(b) == -(q(b) * q(a))


def test_conj_anti_automorphism():
    # conj(e4 e5) = conj(e1) = -e1 = conj(e5) conj(e4)
    assert e(4) * e(5) == e(1)
    assert (e(4) * e(5)).conj() == -e(1)
    assert e(5).conj() * e(4).conj() == -e(1)
    rng = random.Random(3)
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        for _ in range(50):
            a = random_element(cls, rng)
            b = random_element(cls, rng)
            assert (a * b).conj() == b.conj() * a.conj()


def test_qform_values():
    assert SplitComplex(1, 1).qform() == 0  # null direction
    h = SplitQuaternion(F(1, 2), F(1, 3), F(2, 5), F(3, 7))
    r0, r1, r2, r3 = h.coeffs
    assert h.qform() == r0 * r0 - r1 * r1 + r2 * r2 - r3 * r3
    assert h.conj() * h == SplitQuaternion(h.qform())
    # (e2 + 2 e5): +1 from the e2 slot, -4 from the e5 slot
    o = e(2) + 2 * e(5)
    assert o.qform() == -3
    assert o.conj() * o == SplitOctonion([-3] + [0] * 7)


def test_composition_property_exact():
    rng = random.Random(11)
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        for _ in range(200):
            a = random_element(cls, rng)
            b = random_element(cls, rng)
            assert (a * b).qform() == a.qform() * b.qform()


def test_quaternions_associative():
    for a, b, c in itertools.product(range(4), repeat=3):
        assert (q(a) * q(b)) * q(c) == q(a) * (q(b) * q(c))


def test_octonions_not_associative():
    assert (e(1) * e(2)) * e(4) != e(1) * (e(2) * e(4))


def test_mixed_algebra_rejected():
    # every pair of algebras, in both orders
    elements = (SplitComplex(1, 1), OrdinaryComplex(1, 1), q(1), e(1))
    for x, y in itertools.permutations(elements, 2):
        with pytest.raises(AlgebraError):
            x * y


def test_explicit_promotion():
    z = SplitComplex(F(2, 3), F(1, 5))
    h = SplitQuaternion.from_split_complex(z)
    assert h.coeffs == (F(2, 3), F(1, 5), 0, 0)
    # the promotions are the doubled inclusions: the split-complex numbers
    # are the reals doubled with j^2 = +1, and their image span(1, q1)
    # multiplies by that table, as the image span(1, e4, e2, e6) of the
    # split-quaternions multiplies by theirs
    basis = (SplitComplex(1, 0), j)
    split_complex = _doubled((((1, 0),),), 1)
    for a in range(2):
        for b in range(2):
            sign, k = split_complex[a][b]
            assert basis[a] * basis[b] == sign * basis[k]
            assert SplitQuaternion.PRODUCTS[a][b] == (sign, k)
    assert [SplitQuaternion.from_split_complex(x) for x in basis] == [q(0), q(1)]
    image = (0, 4, 2, 6)
    for a in range(4):
        assert SplitOctonion.from_split_quaternion(q(a)) == e(image[a])
        for b in range(4):
            sign, k = SplitQuaternion.PRODUCTS[a][b]
            assert SplitOctonion.PRODUCTS[image[a]][image[b]] == (sign, image[k])
    # both are multiplicative
    rng = random.Random(8)
    for _ in range(50):
        z, w = (random_element(SplitComplex, rng) for _ in range(2))
        assert SplitQuaternion.from_split_complex(z * w) == \
            SplitQuaternion.from_split_complex(z) * SplitQuaternion.from_split_complex(w)
        x, y = (random_element(SplitQuaternion, rng) for _ in range(2))
        assert SplitOctonion.from_split_quaternion(x * y) == \
            SplitOctonion.from_split_quaternion(x) * SplitOctonion.from_split_quaternion(y)


def test_verify_structure_table_report():
    results = verify_structure_table(samples=100, seed=0)
    assert all(ok for (_, ok, _) in results)
    ids = [r[0] for r in results]
    assert "octonion-table-64" in ids
    assert "f-lower-antisymmetric" in ids


def test_cleared_is_an_integer_multiple():
    def comps(z):
        return (z.re, z.im) if isinstance(z, (SplitComplex, OrdinaryComplex)) else z.coeffs

    rng = random.Random(5)
    for cls in (SplitComplex, OrdinaryComplex, SplitQuaternion, SplitOctonion):
        for _ in range(50):
            x = random_element(cls, rng)
            c = _cleared(x)
            xs, cs = comps(x), comps(c)
            assert type(c) is cls and all(type(v) is int for v in cs)
            nonzero = [(a, b) for a, b in zip(xs, cs) if a != 0]
            if not nonzero:
                assert not any(cs)
                continue
            k = F(nonzero[0][1]) / nonzero[0][0]
            assert k.denominator == 1 and k > 0
            assert all(b == k * a for a, b in zip(xs, cs))


def test_cleared_sample_keeps_the_rng_stream():
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        r1, r2 = random.Random(9), random.Random(9)
        for _ in range(20):
            assert cleared_sample(cls, r1) == _cleared(random_element(cls, r2))
        assert r1.random() == r2.random()


def test_random_rational_keeps_the_rng_stream():
    """A table draw has the value and type of the randint draw it stands for
    and leaves the rng in the state that draw leaves."""
    r1, r2 = random.Random(23), random.Random(23)
    for _ in range(1200):
        got = _random_rational(r1)
        want = F(r2.randint(-6, 6), r2.randint(1, 6))
        assert type(got) is type(want) and got == want
    assert r1.getstate() == r2.getstate()


def test_rational_is_a_bounded_memo_of_fraction():
    """rational(n, d) is Fraction(n, d), a Fraction, for negative, zero and
    large numerators and over more keys than the memo holds; a key still
    held gives the same object."""
    maxsize = rational.cache_info().maxsize
    assert maxsize is not None
    keys = [(n, d) for n in (0, -1, 7, -10 ** 30, 3 ** 80) for d in (1, 2, -6, 10 ** 20 + 1)]
    keys += [(n, 7) for n in range(-maxsize, maxsize)]
    for _ in range(2):
        for n, d in keys:
            got = rational(n, d)
            assert type(got) is F and got == F(n, d)
    assert rational(-3, 4) is rational(-3, 4)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_random_element_reaches_negative_coefficients():
    def comps(z):
        return (z.re, z.im) if isinstance(z, (SplitComplex, OrdinaryComplex)) else z.coeffs

    rng = random.Random(0)
    for cls in (SplitComplex, OrdinaryComplex, SplitQuaternion, SplitOctonion):
        draws = [c for _ in range(20) for c in comps(random_element(cls, rng))]
        assert min(draws) < 0 < max(draws)


@pytest.mark.parametrize("cell", [(1, 2), (3, 5), (6, 4)])
def test_octonion_sign_flip_fails_composition_and_anti_automorphism(monkeypatch, cell):
    i, k = cell
    rows = [list(r) for r in SplitOctonion.PRODUCTS]
    sign, idx = rows[i][k]
    rows[i][k] = (-sign, idx)
    monkeypatch.setattr(SplitOctonion, "PRODUCTS", tuple(map(tuple, rows)))
    status = {c.id: c.passed for c in reporting.algebra_suite(seed=0)}
    assert not status["composition-SplitOctonion"]
    assert not status["conj-anti-automorphism"]
    assert status["composition-SplitQuaternion"] and status["octonion-table-64"]


def test_f_lower_total_antisymmetry():
    f = OCTONION_TABLE.f_lower
    for i in range(1, 8):
        for k in range(1, 8):
            for m in range(1, 8):
                assert f(i, k, m) == -f(k, i, m) == f(k, m, i)


def test_multiplication_table_json():
    t = multiplication_table("split-octonion")
    assert t["schema"] == 1
    assert len(t["basis"]) == 8
    assert t["table"][1][3] == [{"coeff": -1, "basis_index": 2}]
    t2 = multiplication_table("split-complex")
    assert t2["table"][1][1] == [{"coeff": 1, "basis_index": 0}]
    with pytest.raises(ValueError):
        multiplication_table("sedenion")


def test_ordinary_complex():
    i = OrdinaryComplex(0, 1)
    assert i * i == OrdinaryComplex(-1, 0)
    assert OrdinaryComplex(3, 4).qform() == 25


def test_octonion_products_match_transcribed_table():
    for a in range(8):
        for b in range(8):
            sign, k = _parse_cell(_TABLE_CELLS[a][b])
            assert e(a) * e(b) == sign * e(k), (a, b)


@pytest.mark.parametrize("x", [SplitQuaternion(F(1, 2), 3, F(-2, 7), 0),
                               SplitOctonion([F(1, 3), 0, 2, F(5, 4), 0, 0, -1, F(1, 9)])])
@pytest.mark.parametrize("s", [3, F(2, 5)])
def test_scalar_operations_stay_exact(x, s):
    cls = type(x)
    for got, want in ((x * s, [c * s for c in x.coeffs]), (s * x, [s * c for c in x.coeffs]),
                      (x + s, [x.coeffs[0] + s] + list(x.coeffs[1:]))):
        assert type(got) is cls
        assert got.coeffs == tuple(want)
        assert all(type(c) in (int, F) for c in got.coeffs)
    assert s + x == x + s
    assert (x - s).coeffs == (x.coeffs[0] - s,) + x.coeffs[1:]
    assert s - x == -(x - s)
    assert all(type(c) is F for c in (x * F(1, 2)).coeffs)


def test_hash_and_equality():
    rng = random.Random(5)
    for cls in (SplitQuaternion, SplitOctonion):
        a = random_element(cls, rng)
        b = cls.basis(0) * a  # equal value, separately built
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert SplitQuaternion(1, 2, 3, 4) != SplitOctonion([1, 2, 3, 4, 0, 0, 0, 0])
    assert SplitQuaternion(1, 0, 0, 0) != SplitOctonion([1] + [0] * 7)


@pytest.mark.parametrize("v", [2, F(2), 2.0, F(-3, 4), -0.75, 0, 0.0])
def test_a_value_equal_to_a_scalar_hashes_as_it(v):
    # equal to the real scalar v, so one set member with it
    for x in (SplitComplex(v, 0), OrdinaryComplex(v, -0.0), SplitQuaternion(v),
              SplitOctonion([v] + [0] * 7), GrassmannElement.scalar(v, PSEUDO),
              GrassmannElement.scalar(SplitComplex(v, 0), PSEUDO)):
        assert x == v and hash(x) == hash(v)
        assert len({x, v}) == 1 and v in {x} and x in {v}
    # an imaginary part or a soul keeps the value apart from every scalar,
    # and equal values of it still hash alike
    for x, y in ((SplitComplex(v, 1), SplitComplex(F(v), 1.0)),
                 (SplitQuaternion(v, 0, 2, 0), SplitQuaternion(F(v), 0, 2.0, 0)),
                 (GrassmannElement({0: v, 3: 1}, PSEUDO), GrassmannElement({0: F(v), 3: 1.0}, PSEUDO))):
        assert x == y and hash(x) == hash(y) and x != v


def test_root_is_exact_on_rational_squares_only():
    for q, r in ((0, F(0)), (4, F(2)), (F(9, 4), F(3, 2)), (F(64, 25), F(8, 5))):
        assert root(q) == r and type(root(q)) is F
    # a rational that is not a square, and every float, take math.sqrt
    for q in (2, F(18, 5), 0.25, 2.0, 1e-300, 0.0):
        assert type(root(q)) is float and root(q) == math.sqrt(float(q))
    for q in (-1, F(-1, 4), -0.25):
        with pytest.raises(ValueError):
            root(q)
