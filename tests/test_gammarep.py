"""Gamma families: Clifford relations, conjugations, generators, symbols."""

from fractions import Fraction as F
import itertools

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf.ringmat import RMatrix, RING_REAL, RING_SPLIT, RING_COMPLEX
from splithopf import gammarep
from splithopf.gammarep import (
    FAMILY_NAMES, build_family, clifford_check, conjugation_check,
    hermiticity_check, build_generators, build_weyl_generators, build_thooft,
    generator_closure_check, lambda_table_check, charge_conjugation, levi_civita,
)

j = SplitComplex(0, 1)
i = OrdinaryComplex(0, 1)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_clifford(name):
    for (cid, ok, detail) in clifford_check(name):
        assert ok, "%s: %s" % (cid, detail)


def test_metrics_and_signs():
    assert build_family("split_pauli").metric.signature == (1, -1, 1)
    assert build_family("split_pauli").sign == 1
    assert build_family("tau").metric.signature == (1, 1, -1)
    assert build_family("tau").sign == -1
    assert build_family("so32_I").metric.signature == (1, -1, 1, -1, -1)
    assert build_family("so32_II").metric.signature == (1, 1, -1, -1, -1)
    assert build_family("so43_I").metric.signature == (-1, 1, 1, -1, -1, 1, 1)
    f = build_family("so54_I")
    assert f.metric.signature == (1, -1, -1, 1, 1, -1, -1, 1, 1) and f.sign == 1
    assert build_family("lambda_so43_II").metric.signature == (1, 1, 1, -1, -1, -1, -1)
    assert build_family("so54_II").metric.signature == (-1, -1, -1, -1, 1, 1, 1, 1, 1)


def test_tau_third_is_plain_pauli():
    assert build_family("tau").gamma(3) == gammarep.pauli(3)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_hermiticity(name):
    for (cid, ok, detail) in hermiticity_check(name):
        assert ok, "%s: %s" % (cid, detail)


@pytest.mark.parametrize("name", ["split_pauli", "tau", "so32_I", "so32_II",
                                  "so43_I", "so54_I", "so54_II"])
def test_conjugation(name):
    for (cid, ok, detail) in conjugation_check(name):
        assert ok, "%s: %s" % (cid, detail)


@pytest.mark.parametrize("name", ["split_pauli", "so32_I", "so43_I", "so54_I"])
def test_gamma_checks_count_the_gammas_of_the_metric(monkeypatch, name):
    # a family short of its last gamma passes every comparison it makes, so
    # each check fails on its count of compared gammas or pairs, which it
    # takes from the metric; the generators and C are built (and cached)
    # from the full family first
    conjugation_check(name)
    full = build_family(name)
    short = gammarep.GammaFamily(name, full.gammas[:-1], full.metric, full.sign, full.ring,
                                 full.unit, weight=full.weight)
    monkeypatch.setattr(gammarep, "build_family", lambda n: short)
    results = clifford_check(name) + hermiticity_check(name) + conjugation_check(name)
    assert {cid for cid, ok, _ in results if not ok} == {
        "clifford-%s" % name, "hermitian-%s" % name, "conj-%s-vector" % name}


def test_printed_conjugation_matrices():
    sp = gammarep.split_pauli
    b = charge_conjugation("so32_I").matrix
    assert b == RMatrix.from_blocks([[-sp(2), 0], [0, -sp(2)]], RING_SPLIT)
    d = charge_conjugation("so43_I").matrix
    assert d == RMatrix.from_blocks([[0, -b], [b, 0]], RING_SPLIT).scale(j)
    B = charge_conjugation("so54_I").matrix
    assert B == RMatrix.from_blocks([[-d, 0], [0, -d]], RING_SPLIT)
    r = charge_conjugation("so32_II").matrix
    assert r == RMatrix.from_blocks([[gammarep.pauli(1), 0],
                                     [0, gammarep.pauli(1)]], RING_COMPLEX)


def test_majorana_representation_identity_conjugation():
    # all generators purely imaginary: conj(Sigma_AB) = -Sigma_AB
    gens = build_generators("so54_II")["sigmas"]
    for s in gens.values():
        assert s.conj() == -s


def test_corrupted_family_detected():
    fam = build_family("so32_I")
    rows = [list(r) for r in fam.gamma(1).entries]
    rows[0][1] = rows[0][1] + SplitComplex(1, 0)
    bad = RMatrix(rows, RING_SPLIT)
    one = RMatrix.identity(4, RING_SPLIT)
    from splithopf.ringmat import anticommutator
    got = anticommutator(bad, fam.gamma(2))
    want = one.scale(fam.sign * 2 * fam.metric.eta(1, 2))
    assert got != want  # the corruption is visible to the check


def test_printed_generator_blocks_so32_II():
    gens = build_generators("so32_II")["sigmas"]
    one2 = RMatrix.identity(2, RING_COMPLEX)
    z2 = RMatrix.zeros(2, 2, RING_COMPLEX)
    half_i = OrdinaryComplex(0, F(1, 2))
    assert gens[(4, 5)] == RMatrix.from_blocks([[z2, one2], [-one2, z2]],
                                               RING_COMPLEX).scale(half_i)
    for k in (1, 2, 3):
        tk = gammarep.tau(k)
        assert gens[(k, 5)] == RMatrix.from_blocks([[z2, tk], [tk, z2]],
                                                   RING_COMPLEX).scale(F(1, 2))
    # non-hermitian pattern: (sigma^ab)^dag = sigma_ab
    fam = build_family("so32_II")
    for (a, b), s in gens.items():
        assert s.dagger() == s.scale(fam.metric.eta(a) * fam.metric.eta(b))


def test_weyl_sector_so54_I():
    gens = build_weyl_generators("I")["sigmas"]
    so43 = build_family("so43_I")
    for a in range(1, 8):
        assert gens[(a, 8)] == so43.gamma_lower(a).scale(F(-1, 2))
    bars = build_weyl_generators("I", bar=True)["sigmas"]
    for a in range(1, 8):
        assert bars[(a, 8)] == -gens[(a, 8)]
        for b in range(a + 1, 8):
            assert bars[(a, b)] == gens[(a, b)]


def test_weyl_sector_so54_II_imaginary():
    # Sigma3-weighted generators must be purely imaginary and antisymmetric
    sig3 = gammarep.to_complex(gammarep.sigma3_block(4))
    gens = build_weyl_generators("II")["sigmas"]
    for s in gens.values():
        w = sig3 @ s
        assert w.conj() == -w
        assert w.transpose() == -w


def test_to_complex_keeps_values_and_types():
    # the real grid keeps its values and bits, every imaginary part is the
    # int 0, and a complex matrix is returned as it is
    rows = [[1, F(1, 3), -0.0], [0.0, F(0), -2.5], [0, 7, F(-2, 7)]]
    for real in (RMatrix(rows, RING_REAL), RMatrix([[1, 0], [0, -3]], RING_REAL),
                 RMatrix([[F(1, 2), F(0)], [F(-1), F(3, 4)]], RING_REAL),
                 RMatrix([[0.5, -0.0], [0.0, -1.25]], RING_REAL)):
        lifted = gammarep.to_complex(real)
        assert lifted.ring == RING_COMPLEX and (lifted.rows, lifted.cols) == (real.rows, real.cols)
        got, imag = lifted.components()
        (want,) = real.components()
        assert [[(type(x), repr(x)) for x in row] for row in got] == \
            [[(type(x), repr(x)) for x in row] for row in want]
        assert all(type(x) is int and x == 0 for row in imag for x in row)
        assert gammarep.to_complex(lifted) is lifted
    assert lifted == RMatrix([[OrdinaryComplex(0.5, 0), OrdinaryComplex(-0.0, 0)],
                              [OrdinaryComplex(0.0, 0), OrdinaryComplex(-1.25, 0)]],
                             RING_COMPLEX)


def test_lambda_cross_check():
    for (cid, ok, detail) in lambda_table_check():
        assert ok, detail


@pytest.mark.parametrize("name", ["so32_I", "so32_II"])
def test_generator_closure(name):
    for (cid, ok, detail) in generator_closure_check(name):
        assert ok, detail


@pytest.mark.parametrize("name", ["so32_I", "so32_II"])
@pytest.mark.parametrize("flip", [(1, 2), (2, 4), (4, 5)])
def test_generator_closure_fails_on_one_flipped_sign(monkeypatch, name, flip):
    real = build_generators(name)
    sigmas = dict(real["sigmas"])
    sigmas[flip] = -sigmas[flip]
    fake = dict(real, sigmas=sigmas)
    monkeypatch.setattr(gammarep, "build_generators", lambda n: fake if n == name else real)
    ((cid, ok, detail),) = generator_closure_check(name)
    assert not ok and detail.startswith("; fails [")


GENERATOR_CONJ_FAMILIES = ["so32_I", "so32_II", "so43_I", "so54_I", "so54_II"]


@pytest.mark.parametrize("name", GENERATOR_CONJ_FAMILIES)
def test_conjugation_generator_rule_is_checked(monkeypatch, name):
    real = charge_conjugation(name)
    wrong = gammarep.ChargeConjugation(name, real.label, real.matrix, real.matrix_inv,
                                       real.vector_rule, -real.generator_rule, real.lowered)
    monkeypatch.setattr(gammarep, "charge_conjugation", lambda n: wrong)
    status = {cid: ok for (cid, ok, _) in conjugation_check(name)}
    assert status["conj-%s-vector" % name]
    assert not status["conj-%s-generator" % name]


@pytest.mark.parametrize("name", GENERATOR_CONJ_FAMILIES)
def test_conjugation_generator_rule_holds_lowered(name):
    # the check uses the stored sigma^{ab}; the rule holds on sigma_{ab} too,
    # since eta_a eta_b is a real sign
    fam, cc, gens = build_family(name), charge_conjugation(name), build_generators(name)
    c, cinv = cc.matrix, cc.matrix_inv
    if c.ring != gens["ring"]:
        c, cinv = gammarep.to_complex(c), gammarep.to_complex(cinv)
    for (a, b), s in gens["sigmas"].items():
        low = s.scale(fam.metric.eta(a) * fam.metric.eta(b))
        assert c @ low @ cinv == low.conj().scale(cc.generator_rule)


@pytest.mark.parametrize("name", ["split_pauli", "tau"])
def test_conjugation_generator_rule_of_the_triples(name):
    # conjugation_check skips the generator identity for the two triples, so
    # their stored rule is pinned here: C sigma C^-1 = -conj(sigma)
    cc = charge_conjugation(name)
    assert cc.generator_rule == -1
    for s in build_generators(name)["sigmas"].values():
        assert cc.matrix @ s @ cc.matrix_inv == s.conj().scale(cc.generator_rule)


def test_thooft_tables():
    for variant in ("I", "II"):
        for bar in (False, True):
            tab = build_thooft(variant, bar)
            for m in range(1, 5):
                for n in range(1, 5):
                    for k in range(1, 4):
                        assert tab.get((m, n, k), 0) == -tab.get((n, m, k), 0)
    plain = build_thooft("I")
    bar = build_thooft("I", bar=True)
    # the pure 3-index part is shared; the eta-eta parts flip
    assert plain[(1, 2, 3)] == bar[(1, 2, 3)]
    assert plain[(1, 4, 1)] == -bar[(1, 4, 1)]


def _eps3_reference(i, j, k):
    perm = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    return perm.get((i, j, k), 0)


def _eps4_reference(*idx):
    # bubble sort back to (1, 2, 3, 4), one sign flip per swap
    if len(set(idx)) != 4:
        return 0
    perm = list(idx)
    sign = 1
    for a in range(4):
        for b in range(3, a, -1):
            if perm[b - 1] > perm[b]:
                perm[b - 1], perm[b] = perm[b], perm[b - 1]
                sign = -sign
    return sign


def test_levi_civita():
    for idx in itertools.product(range(0, 5), repeat=3):
        assert levi_civita(*idx) == _eps3_reference(*idx), idx
    for idx in itertools.product(range(1, 5), repeat=4):
        assert levi_civita(*idx) == _eps4_reference(*idx), idx
    assert levi_civita(1, 2, 4) == 0  # index outside 1..3
    assert levi_civita(1, 1, 2) == 0  # repeated index
    assert levi_civita(2, 1, 3, 5) == 0
    assert levi_civita() == 1 and levi_civita(1) == 1 and levi_civita(2, 1) == -1
