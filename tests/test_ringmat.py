"""Matrix substrate over involutive rings."""

import ast
from fractions import Fraction as F
import os
import random

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf.ringmat import (
    RMatrix, MetricForm, RING_REAL, RING_SPLIT, RING_COMPLEX,
    commutator, anticommutator,
)
import splithopf
from splithopf import gammarep

j = SplitComplex(0, 1)


def kron(a, b):
    """Kronecker product in row-major block layout, blocks a[i][j] * b, from
    the entries' own products: the independent reference of the block
    doubling in gammarep."""
    if a.ring != b.ring:
        raise TypeError("ring mismatch")
    return RMatrix([[av * bv for av in arow for bv in brow]
                    for arow in a.entries for brow in b.entries], a.ring)


def rand_split_matrix(rng, n, m):
    return RMatrix([[SplitComplex(F(rng.randint(-4, 4), rng.randint(1, 3)),
                                  F(rng.randint(-4, 4), rng.randint(1, 3)))
                     for _ in range(m)] for _ in range(n)], RING_SPLIT)


def test_identity_and_shapes():
    one = RMatrix.identity(3, RING_REAL)
    m = RMatrix([[1, 2, 3], [4, 5, 6]], RING_REAL)
    assert m @ one == m
    with pytest.raises(ValueError):
        one @ m
    with pytest.raises(TypeError):
        m @ RMatrix.identity(3, RING_SPLIT)


def test_split_pauli_products():
    s = gammarep.split_pauli
    one = RMatrix.identity(2, RING_SPLIT)
    assert s(1) @ s(1) == one
    assert anticommutator(s(1), s(2)).is_zero()
    assert anticommutator(s(2), s(2)) == one.scale(-2)
    assert commutator(s(1), s(1)).is_zero()


def test_dagger_properties():
    s = gammarep.split_pauli
    assert s(2).dagger() == s(2)  # hermitian despite the j entries
    assert RMatrix.identity(2, RING_SPLIT).dagger() == RMatrix.identity(2, RING_SPLIT)
    fam = gammarep.build_family("tau")
    for a in (1, 2, 3):
        assert fam.gamma(a).dagger() == -fam.gamma_lower(a)
    rng = random.Random(5)
    for _ in range(25):
        a = rand_split_matrix(rng, 3, 2)
        b = rand_split_matrix(rng, 2, 4)
        assert (a @ b).dagger() == b.dagger() @ a.dagger()


def test_matmul_bilinear_associative():
    rng = random.Random(9)
    for _ in range(10):
        a = rand_split_matrix(rng, 2, 3)
        b = rand_split_matrix(rng, 3, 3)
        c = rand_split_matrix(rng, 3, 2)
        assert (a @ b) @ c == a @ (b @ c)
        d = rand_split_matrix(rng, 3, 3)
        assert a @ (b + d) == a @ b + a @ d


def test_so32_gamma_product_matches_conjugation_matrix():
    fam = gammarep.build_family("so32_I")
    b = gammarep.charge_conjugation("so32_I").matrix
    assert fam.gamma(1) @ fam.gamma(3) == b.scale(j)


def test_kron():
    s = gammarep.split_pauli
    one2 = RMatrix.identity(2, RING_SPLIT)
    assert kron(one2, one2) == RMatrix.identity(4, RING_SPLIT)
    # mixed-product property
    rng = random.Random(2)
    a = rand_split_matrix(rng, 2, 2)
    b = rand_split_matrix(rng, 2, 2)
    c = rand_split_matrix(rng, 2, 2)
    d = rand_split_matrix(rng, 2, 2)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
    # the block-doubled gammas are kron products in row-major layout: eps x g
    # for each inner gamma g, then sigma1 x 1 and sigma3 x 1
    minus_i = OrdinaryComplex(0, -1)
    doubled = {
        "so32_I": [gammarep.split_pauli(i).scale(j) for i in (1, 2, 3)],
        "so32_II": [gammarep.tau(i).scale(minus_i) for i in (1, 2, 3)],
        "so54_I": [g.scale(j) for g in gammarep.build_family("so43_I").gammas],
        "so54_II": [gammarep.build_family("lambda_so43_II").gamma(8 - a) for a in range(1, 8)],
    }
    for name, inner in doubled.items():
        fam = gammarep.build_family(name)
        eps, p1, p3 = (RMatrix(rows, fam.ring)
                       for rows in ([[0, 1], [-1, 0]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]))
        one = RMatrix.identity(inner[0].rows, fam.ring)
        want = [kron(eps, g) for g in inner] + [kron(p1, one), kron(p3, one)]
        assert fam.gammas == tuple(want), name
    fam = gammarep.build_family("so32_II")
    for i in (1, 2, 3):
        assert fam.gamma(i) == kron(gammarep.pauli(2), gammarep.tau(i))


_ONE2, _ONE3 = RMatrix.identity(2, RING_SPLIT), RMatrix.identity(3, RING_SPLIT)


@pytest.mark.parametrize("blocks,error,match", [
    ([[_ONE2, 0], [0, _ONE3]], ValueError, "ragged rows"),
    ([[_ONE2, 0], [_ONE2]], ValueError, "ragged rows"),
    ([], ValueError, "cannot infer block sizes"),
    ([[0, 0], [0, 0]], ValueError, "cannot infer block sizes"),
    ([[_ONE2, 0], [0, RMatrix.identity(2, RING_COMPLEX)]], TypeError, "ring mismatch"),
], ids=["other-shape", "short-row", "empty", "no-matrix-block", "other-ring"])
def test_from_blocks_refuses_what_it_cannot_assemble(blocks, error, match):
    with pytest.raises(error, match=match):
        RMatrix.from_blocks(blocks, RING_SPLIT)


def test_metric_form():
    eta = MetricForm((1, -1, 1))
    assert eta.eta(2) == -1
    assert eta.eta(1, 2) == 0
    assert eta.inner((1, 2, 3), (1, 2, 3)) == 1 - 4 + 9
    with pytest.raises(ValueError):
        MetricForm((1, 2))


# the names of a matrix's cells, its cell copies and its cell constructors
_CELL_NAMES = {"_stored", "_cells", "_fcells", "_icells", "_of", "_recast"}


def test_only_ringmat_touches_cells():
    # every other module reaches a matrix through ringmat's public API: no
    # attribute named for the cells and no private name imported from it
    pkg = os.path.dirname(splithopf.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "ringmat.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _CELL_NAMES:
                found.append("%s:%d .%s" % (name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "ringmat" and node.level:
                found += ["%s:%d import %s" % (name, node.lineno, a.name)
                          for a in node.names if a.name.startswith("_")]
    assert found == []
