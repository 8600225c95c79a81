"""Grassmann engine, OSp(1|2) sets, and the graded first map."""

from fractions import Fraction as F
import math
import random

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf import superhopf as sh
from splithopf import gaugegeom as gg
from splithopf.hopfmaps import BasePoint

G = sh.GrassmannElement


def gens(cfg):
    return [G.generator(k, cfg) for k in range(4)]


# ---------------------------------------------------------------------------
# engine

def test_anticommuting_generators():
    g0, g1, g2, g3 = gens(sh.PSEUDO)
    assert g0 * g1 == -(g1 * g0)
    assert (g0 * g0).is_zero()
    assert g0 * g1 * g2 * g3 == -(g1 * g0 * g2 * g3)


def test_left_derivative():
    g0, g1, _, _ = gens(sh.PSEUDO)
    assert sh.odd_derivative(g0 * g1, 0) == g1
    assert sh.odd_derivative(g0 * g1, 1) == -g0
    assert sh.odd_derivative_right(g0 * g1, 1) == g0


def test_pseudo_conjugation_images():
    g0, g1, _, _ = gens(sh.PSEUDO)
    assert g0.conj() == g1
    assert g1.conj() == -g0
    assert g0.conj().conj() == -g0
    s = g0 * g1 - g1 * g0  # theta eps theta is real
    assert s.conj() == s


def test_standard_conjugation_images():
    h0, h1, _, _ = gens(sh.STANDARD)
    assert h0.conj() == h1 and h1.conj() == h0
    assert (h0 * h1).conj() == h1.conj() * h0.conj()


def test_engine_check_battery():
    for (cid, ok, detail) in sh.engine_checks(seed=2, samples=30):
        assert ok, "%s: %s" % (cid, detail)


def test_even_inverse_and_invsqrt():
    g0, g1, _, _ = gens(sh.PSEUDO)
    s = g0 * g1
    e = G.scalar(F(9, 4), sh.PSEUDO) + s * F(1, 3)
    assert e * e.inverse() == G.scalar(1, sh.PSEUDO)
    r = e.invsqrt()
    assert r * r * e == G.scalar(1, sh.PSEUDO)
    # a body with an imaginary part has no real inverse square root
    with pytest.raises(ValueError):
        G({0: SplitComplex(2, 1)}, sh.PSEUDO).invsqrt()
    # a binarion body with a rational square real part keeps the root exact
    r = G({0: SplitComplex(F(9, 4), 0)}, sh.PSEUDO).invsqrt()
    assert type(r.body()) is F and r.body() == F(2, 3)
    e = G({0: SplitComplex(F(9, 4), 0)}, sh.PSEUDO) + s * F(1, 3)
    r = e.invsqrt()
    assert r * r * e == G.scalar(1, sh.PSEUDO)
    assert all(not isinstance(c, float) for v in r.coeffs.values()
               for c in ((v.re, v.im) if hasattr(v, "re") else (v,)))


def test_overlapping_masks_give_zero():
    g0, g1, _, _ = gens(sh.PSEUDO)
    a = g0 * g1
    assert (a * a).is_zero()
    assert (a * g0).is_zero()


# ---------------------------------------------------------------------------
# OSp(1|2)

@pytest.mark.parametrize("real", ["I", "II"])
def test_osp_algebra(real):
    for (cid, ok, detail) in sh.osp_algebra_check(real):
        assert ok, "%s: %s" % (cid, detail)


def test_odd_odd_seed_example():
    # {l^theta1, l^theta1} = (1/2)(eps sigma^i)^{11} l_i, expanded entrywise
    gen = sh.build_osp_generators("I")
    from splithopf.ringmat import anticommutator, RMatrix, RING_SPLIT
    la = gen["lalpha"][0]
    lhs = anticommutator(la, la)
    want = RMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]], RING_SPLIT).scale(F(1, 2))
    assert lhs == want


def test_kappa_weights_printed():
    gen = sh.build_osp_generators("II")
    from splithopf.ringmat import RMatrix, RING_COMPLEX
    from splithopf.gammarep import pauli
    k1 = gen["kappa_i"][0]
    want = RMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]], RING_COMPLEX)
    # kappa^1 = -sigma^2 in the even block
    p2 = pauli(2)
    for a in range(2):
        for b in range(2):
            assert k1.entry(a, b) == -p2.entry(a, b)
    assert gen["kappa"] == RMatrix.diagonal([1, -1, -1], RING_COMPLEX)


# ---------------------------------------------------------------------------
# the super map

def theta_pair(real):
    cfg = sh.PSEUDO if real == "I" else sh.STANDARD
    return (G.generator(0, cfg), G.generator(1, cfg))


def test_bosonic_reduction_of_projection():
    # body-only spinor reduces to the bosonic first map, exactly
    cfg = sh.PSEUDO
    u = G.scalar(SplitComplex(F(3, 5), 0), cfg)
    v = G.scalar(SplitComplex(F(4, 5), 0), cfg)
    eta = G({}, cfg)
    xs, ths = sh.super_project((u, v, eta), "I")
    assert xs[0] == G.scalar(SplitComplex(F(24, 25), 0), cfg)
    assert xs[1] == G.scalar(SplitComplex(0, 0), cfg)
    assert xs[2] == G.scalar(SplitComplex(F(-7, 25), 0), cfg)
    assert ths[0].is_zero() and ths[1].is_zero()


def test_projected_theta_component_formula():
    # theta^1 = u* eta - eta* v for the split realization
    cfg = sh.PSEUDO
    rng = random.Random(6)
    u = G.scalar(SplitComplex(F(2, 3), F(1, 7)), cfg) + \
        G.generator(0, cfg) * G.generator(1, cfg) * F(1, 5)
    v = G.scalar(SplitComplex(F(1, 2), F(-2, 5)), cfg)
    eta = G.generator(2, cfg) * SplitComplex(F(1, 3), F(1, 4)) + \
        G.generator(3, cfg) * F(1, 2)
    chi = (u, v, eta)
    gen = sh.build_osp_generators("I")
    w = sh._weight("I")
    got = (w @ gen["lalpha"][0]).form(chi) * 2
    want = u.conj() * eta - eta.conj() * v
    assert got == want
    got2 = (w @ gen["lalpha"][1]).form(chi) * 2
    want2 = v.conj() * eta + eta.conj() * u
    assert got2 == want2


@pytest.mark.parametrize("real,xb,patches", [
    ("I", (F(24, 25), F(0), F(7, 25)), ("upper", "lower")),
    ("I", (F(0), F(0), F(1)), ("upper",)),
    ("II", (F(0), F(15, 8), F(17, 8)), ("upper",)),
])
def test_exact_roundtrip(real, xb, patches):
    ths = theta_pair(real)
    cfg = ths[0].config
    xs = sh.lift_base(xb, ths, real)
    assert sh.constraint_residual(xs, ths, real).is_zero()
    for patch in patches:
        chi = sh.super_invert(xs, ths, patch, real)
        assert sh.super_norm(chi, real) == G.scalar(1, cfg)
        x2, t2 = sh.super_project(chi, real)
        assert all(a == b for a, b in zip(x2, xs))
        assert all(a == b for a, b in zip(t2, ths))


def test_projection_constraint_generic_spinor():
    # a normalized spinor with a generic odd component satisfies the super
    # constraint exactly in the algebra
    cfg = sh.PSEUDO
    ths = theta_pair("I")
    xs = sh.lift_base((F(24, 25), F(0), F(7, 25)), ths, "I")
    chi = sh.super_invert(xs, ths, "upper", "I")
    x2, t2 = sh.super_project(chi, "I")
    assert sh.constraint_residual(x2, t2, "I").is_zero()


def test_two_leaf_super_map_upper_only():
    ths = theta_pair("II")
    xs = sh.lift_base((F(0), F(15, 8), F(17, 8)), ths, "II")
    with pytest.raises(ValueError):
        sh.super_invert(xs, ths, "lower", "II")


# ---------------------------------------------------------------------------
# connections and curvatures

@pytest.mark.parametrize("real,xb,patch", [
    ("I", (F(24, 25), F(0), F(7, 25)), "upper"),
    ("I", (F(24, 25), F(0), F(-7, 25)), "lower"),
    ("II", (F(0), F(15, 8), F(17, 8)), "upper"),
])
def test_connection_defining_formula(real, xb, patch):
    res = sh.super_connection_check(xb, patch, real)
    assert res["odd"] == 0.0
    assert res["even"] < 1e-6


def test_connection_defining_formula_float():
    x3 = math.sqrt(1 - 0.36 + 0.09)
    res = sh.super_connection_check((0.6, 0.3, x3), "upper", "I")
    assert res["odd"] < 1e-12 and res["even"] < 1e-6


def test_odd_connection_at_pole():
    # A_alpha at the pole is (u/2) (sigma^3 eps theta)_alpha
    ths = theta_pair("I")
    cfg = sh.PSEUDO
    xs = sh.lift_base((F(0), F(0), F(1)), ths, "I")
    _, A_a = sh.super_connection(xs, ths, "upper", "I")
    j = SplitComplex(0, 1)
    half_j = j * F(1, 2)
    assert A_a[1] == ths[1] * half_j
    assert A_a[2] == ths[0] * half_j


def test_even_connection_body_reduces_to_bosonic():
    ths = theta_pair("I")
    for patch, xb in (("upper", (F(24, 25), F(0), F(7, 25))),
                      ("lower", (F(24, 25), F(0), F(-7, 25)))):
        xs = sh.lift_base(xb, ths, "I")
        A_i, _ = sh.super_connection(xs, ths, patch, "I")
        pt = BasePoint(1, "I", xb, patch)
        bos = gg.connection_closed(pt, patch)
        for i in (1, 2, 3):
            body = A_i[i].body()
            val = body.re if hasattr(body, "re") else body
            assert val == bos[i]
            assert not hasattr(body, "im") or body.im == 0


def test_super_curvature_reduction_and_structure():
    for real in ("I", "II"):
        ths = theta_pair(real)
        xb = (F(24, 25), F(0), F(7, 25)) if real == "I" else (F(0), F(15, 8), F(17, 8))
        patches = ("upper", "lower") if real == "I" else ("upper",)
        for patch in patches:
            xbp = xb if patch == "upper" else (xb[0], xb[1], -xb[2])
            xs = sh.lift_base(xbp, ths, real)
            F_ij, F_ia, F_ab = sh.super_curvature(xs, ths, patch, real)
            pt = BasePoint(1, real, xbp, patch)
            bos = gg.curvature_closed(pt, patch)
            for key, val in F_ij.items():
                body = val.body()
                v = body.re if hasattr(body, "re") else body
                assert v == bos[key]
            # F_ab symmetric in its odd indices, theta-linear part absent
            assert F_ab[(1, 2)] == F_ab[(2, 1)]
            for val in F_ia.values():
                assert val.parity() == 1


def test_super_curvature_split_patch_independent():
    ths = theta_pair("I")
    xs = sh.lift_base((F(24, 25), F(0), F(7, 25)), ths, "I")
    up = sh.super_curvature(xs, ths, "upper", "I")
    lo = sh.super_curvature(xs, ths, "lower", "I")
    for a, b in zip(up, lo):
        for k in a:
            assert a[k] == b[k]


def test_odd_curvature_at_pole():
    # F_alpha_beta = u x^i (sigma_i eps)_ab (1 + 3/2 theta eps theta)
    ths = theta_pair("I")
    cfg = sh.PSEUDO
    xs = sh.lift_base((F(0), F(0), F(1)), ths, "I")
    _, _, F_ab = sh.super_curvature(xs, ths, "upper", "I")
    s = sh.theta_bilinear(ths)
    j = SplitComplex(0, 1)
    # the lifted x3 carries soul: x3 (1 + 3/2 s) = (1 - s/2)(1 + 3/2 s) = 1 + s
    want = (xs[2] * (G.scalar(1, cfg) + s * F(3, 2))) * j
    assert want == (G.scalar(1, cfg) + s) * j
    # sigma_3 eps = [[0, 1], [1, 0]]: the off-diagonal components carry it
    assert F_ab[(1, 2)] == want
    assert F_ab[(2, 1)] == want
    assert F_ab[(1, 1)].is_zero() and F_ab[(2, 2)].is_zero()


# ---------------------------------------------------------------------------
# transition and gluing

def test_super_transition_unitary_exact():
    ths = theta_pair("I")
    xs = sh.lift_base((F(24, 25), F(0), F(7, 25)), ths, "I")
    num, rho2 = sh.super_transition(xs, ths)
    assert num.conj() * num == rho2
    g = num * rho2.invsqrt()
    assert (g.conj() * g - G.scalar(1, sh.PSEUDO)).max_abs() < 1e-15


def test_super_gluing_exact_theta():
    res = sh.super_gluing_check((F(24, 25), F(0), F(7, 25)))
    assert res["unitarity_exact"]
    assert res["section"] == 0.0
    assert res["odd"] == 0.0
    assert res["even"] < 1e-6


def test_super_gluing_float_body():
    x3 = math.sqrt(1 - 0.36 + 0.09)
    res = sh.super_gluing_check((0.6, 0.3, x3))
    assert res["unitarity"] < 1e-12
    assert res["section"] < 1e-12
    assert res["odd"] < 1e-12
    assert res["even"] < 1e-6


def test_theta_zero_reduction_bit_identical():
    # closed super forms with theta = 0 equal the bosonic closed forms on
    # exact rational input
    cfg = sh.PSEUDO
    zero = G({}, cfg)
    xb = (F(24, 25), F(0), F(7, 25))
    A_i, A_a = sh.super_connection(xb, (zero, zero), "upper", "I")
    pt = BasePoint(1, "I", xb, "upper")
    bos = gg.connection_closed(pt, "upper")
    for i in (1, 2, 3):
        assert A_i[i] == G.scalar(SplitComplex(bos[i], 0), cfg)
    assert A_a[1].is_zero() and A_a[2].is_zero()
    F_ij, F_ia, F_ab = sh.super_curvature(xb, (zero, zero), "upper", "I")
    bosf = gg.curvature_closed(pt, "upper")
    for k in F_ij:
        assert F_ij[k] == G.scalar(SplitComplex(bosf[k], 0), cfg)
    assert all(v.is_zero() for v in F_ia.values())


def test_grassmann_max_abs_propagates_nan():
    nan = float("nan")
    assert math.isnan(sh.GrassmannElement({0: nan, 1: 1.0}, sh.PSEUDO).max_abs())
    assert math.isnan(sh.GrassmannElement({0: 1.0, 1: SplitComplex(2.0, nan)},
                                          sh.PSEUDO).max_abs())
    assert sh.GrassmannElement({0: -3.0, 1: 1.0}, sh.PSEUDO).max_abs() == 3.0


def test_super_checks_fail_on_nan_deviation(monkeypatch):
    monkeypatch.setattr(sh.GrassmannElement, "max_abs", lambda self: float("nan"))
    res = sh.super_connection_check((F(24, 25), F(0), F(7, 25)), "upper", "I")
    assert math.isnan(res["odd"]) and math.isnan(res["even"])
    res = sh.super_gluing_check((F(24, 25), F(0), F(7, 25)))
    assert all(math.isnan(res[k]) for k in ("unitarity", "section", "odd", "even"))


def test_super_project_rejects_nan_spinor():
    nan = float("nan")
    cfg = sh.PSEUDO
    chi = (G.scalar(SplitComplex(nan, 0.0), cfg), G.scalar(SplitComplex(0.0, 0.0), cfg),
           G({}, cfg))
    with pytest.raises(ValueError, match="not normalized"):
        sh.super_project(chi, "I")
