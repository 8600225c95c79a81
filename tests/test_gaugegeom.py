"""Connections, curvatures, transitions, gluing, and the light cone."""

from fractions import Fraction as F
import math
import random

import pytest

from splithopf.splitnum import SplitComplex
from splithopf.hopfmaps import BasePoint, sample_base_point
from splithopf import gaugegeom as gg
from splithopf import hopfmaps as hm
from splithopf import gammarep
from tests.test_hopfmaps import random_fiber, ALL_CASES

PANELS = [(l, r, p) for (l, r) in ALL_CASES for p in ("upper", "lower")]
OVERLAP_CASES = [(1, "I"), (2, "I"), (2, "II"), (3, "I"), (3, "II")]


# ---------------------------------------------------------------------------
# closed forms at distinguished points (values fixed by the section oracle)

def test_first_map_connection_values():
    # at the pole every component vanishes; on the equator the derivative of
    # the section gives A(e2) = +1/2 at (1, 0, 0)
    pole = BasePoint(1, "I", (0.0, 0.0, 1.0))
    a = gg.connection_closed(pole)
    assert a == {1: 0.0, 2: 0.0, 3: 0.0}
    eq = BasePoint(1, "I", (1.0, 0.0, 0.0), "upper")
    a = gg.connection_closed(eq, "upper")
    assert a[1] == 0.0 and a[3] == 0.0
    assert abs(a[2] - 0.5) < 1e-15
    num = gg.connection_numeric(eq, "upper", mode="analytic",
                                tangents=[(0.0, 1.0, 0.0)])
    assert abs(float(num[0].re) - 0.5) < 1e-12


def test_first_map_curvature_at_pole():
    pole = BasePoint(1, "I", (0.0, 0.0, 1.0))
    f = gg.curvature_closed(pole)
    assert abs(f[(1, 2)] - 0.5) < 1e-15
    assert f[(1, 3)] == 0.0 and f[(2, 3)] == 0.0


def test_second_map_pole_connection():
    pole = BasePoint(2, "I", (0.0, 0.0, 0.0, 0.0, 1.0))
    a = gg.connection_closed(pole)
    for m in range(1, 6):
        assert a[m].is_zero()


def test_last_component_vanishes():
    rng = random.Random(4)
    for (lvl, real) in ALL_CASES:
        pt = sample_base_point(lvl, real, rng=rng)
        a = gg.connection_closed(pt)
        last = a[pt.metric.dim]
        assert last == 0.0 or last.is_zero()


# ---------------------------------------------------------------------------
# oracles

@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_connection_closed_vs_finite_difference(lvl, real, patch):
    rng = random.Random(99)
    worst = 0.0
    for _ in range(8):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        worst = max(worst, gg.connection_residual(pt, patch, mode="fd"))
    assert worst < 1e-6


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_connection_closed_vs_analytic(lvl, real, patch):
    rng = random.Random(98)
    worst = 0.0
    for _ in range(8):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        worst = max(worst, gg.connection_residual(pt, patch, mode="analytic"))
    assert worst < 1e-12


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_curvature_closed_vs_numeric(lvl, real, patch):
    rng = random.Random(5)
    worst = 0.0
    for _ in range(5):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        worst = max(worst, gg.curvature_residual(pt, patch, pairs=3, rng=rng))
    assert worst < 1e-5


def _dev(x):
    return abs(float(x)) if not hasattr(x, "max_abs") else x.max_abs()


@pytest.mark.parametrize("real,xb", [("I", (F(24, 25), F(0), F(7, 25))),
                                     ("II", (F(0), F(15, 8), F(17, 8)))])
def test_level1_curvature_contraction_stays_exact(real, xb):
    pt = BasePoint(1, real, xb)
    t, v = (F(1), F(2), F(3)), (F(-1), F(1, 2), F(1))
    got = gg.curvature_contraction(pt, t, v)
    f = gg.curvature_closed(pt)
    assert type(got) is F
    assert got == sum(m * (t[a - 1] * v[b - 1] - t[b - 1] * v[a - 1]) for (a, b), m in f.items())


def test_curvature_antisymmetry():
    rng = random.Random(17)
    for (lvl, real) in ALL_CASES:
        pt = sample_base_point(lvl, real, rng=rng)
        f = gg.curvature_closed(pt)
        tangents = gg.tangent_basis(pt)
        t, v = tangents[0], tangents[-1]
        a = gg.curvature_contraction(pt, t, v, closed=f)
        b = gg.curvature_contraction(pt, v, t, closed=f)
        assert _dev(a + b) < 1e-12
        assert a == gg.curvature_contraction(pt, t, v)
        # the connection contraction is linear in the direction
        conn = gg.connection_closed(pt)
        at = gg.connection_contraction(pt, t, closed=conn)
        av = gg.connection_contraction(pt, v, closed=conn)
        tv = [x - 2 * y for x, y in zip(t, v)]
        assert _dev(gg.connection_contraction(pt, tv, closed=conn) - (at - 2 * av)) < 1e-12
        assert at == gg.connection_contraction(pt, t)


# rational points on each hyperboloid of levels 2 and 3, with a rational
# tangent direction that moves the last coordinate
RATIONAL_POINTS = [
    (2, "I", (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1)), (1, 0, 0, 0, F(1, 2))),
    (2, "II", (F(1, 2), F(1, 3), F(1, 2), F(1, 3), F(1)), (0, 2, 0, 0, F(2, 3))),
    (3, "I", (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1, 5), F(1, 5), F(1, 7), F(1, 7), F(1)),
     (1, 0, 0, 0, 0, 0, 0, 0, F(-1, 2))),
    (3, "II", (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1)),
     (0, 0, 0, 0, 1, 0, 0, 0, F(-1, 2))),
]


def _components(m):
    return [c for row in m.entries for x in row for c in (x.re, x.im)]


@pytest.mark.parametrize("lvl,real,coords,t", RATIONAL_POINTS)
def test_connection_exact_on_rational_input(lvl, real, coords, t):
    pt = BasePoint(lvl, real, coords, "upper")
    assert pt.constraint_residual() == 0
    assert pt.metric.inner(coords, t) == 0
    closed = gg.connection_closed(pt)
    for m in closed.values():
        assert all(isinstance(c, (int, F)) for c in _components(m))
    num = gg.connection_numeric(pt, mode="analytic", tangents=[t])[0]
    assert all(isinstance(c, (int, F)) for c in _components(num))
    assert not num.is_zero()
    cl = gg.connection_contraction(pt, t, closed=closed)
    assert num == (cl if lvl == 2 or real == "I" else gammarep.to_complex(cl))


# ---------------------------------------------------------------------------
# non-finite input never passes a check

def _nan_point(monkeypatch, lvl, real, overlap=False):
    """A sampled point with x1 = NaN.  BasePoint refuses a non-finite
    coordinate (test_hopfmaps.py::test_base_point_rejects_non_finite), so the
    NaN is fed in past that check to reach the NaN folds of the residuals."""
    monkeypatch.setattr(hm, "_check_finite", lambda values, what: None)
    pt = sample_base_point(lvl, real, rng=random.Random(3), overlap=overlap)
    coords = list(pt.coords)
    coords[0] = float("nan")
    return BasePoint(lvl, real, coords, pt.patch)


def test_value_dev_propagates_nan():
    nan = float("nan")
    assert math.isnan(gg._value_dev(SplitComplex(1.0, nan), 0))
    assert math.isnan(gg._value_dev(SplitComplex(nan, 1.0), 0))


def test_connection_residual_nan_point(monkeypatch):
    assert math.isnan(gg.connection_residual(_nan_point(monkeypatch, 2, "I")))


def test_curvature_residual_nan_point(monkeypatch):
    assert math.isnan(gg.curvature_residual(_nan_point(monkeypatch, 2, "I"), pairs=2))


def test_gluing_check_nan_point(monkeypatch):
    res = gg.gluing_check(_nan_point(monkeypatch, 2, "II", overlap=True))
    assert math.isnan(res["connection"]) and math.isnan(res["curvature"])


def test_majorana_vanishing_spinor_section():
    rng = random.Random(3)
    for real in ("I", "II"):
        worst = 0.0
        for _ in range(5):
            pt = sample_base_point(3, real, rng=rng)
            fib = random_fiber(3, real, rng)
            vals = gg.connection_numeric(pt, mode="analytic", section="spinor", fiber=fib)
            for v in vals:
                worst = max(worst, abs(float(v.re)), abs(float(v.im)))
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# transitions, gluing

@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_transition_unitarity(lvl, real):
    rng = random.Random(8)
    worst = 0.0
    for _ in range(20):
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        worst = max(worst, gg.transition(pt).unitarity_residual())
    assert worst < 1e-12


def test_transition_exact_on_rational_equator():
    # (24/25, 0, -7/25): rho^2 = 1 - 49/625 = 576/625 = (24/25)^2 rational
    pt = BasePoint(1, "I", (F(24, 25), 0, F(-7, 25)))
    x = pt.coords
    rho2 = 1 - x[2] * x[2]
    num = SplitComplex(x[0], x[1])
    assert num.conj() * num == SplitComplex(rho2, 0)
    # equator coordinates represent the one-dimensional hyperbola
    g = gg.transition(pt)
    xh1, xh2 = x[0] / math.sqrt(float(rho2)), x[1] / math.sqrt(float(rho2))
    assert abs((xh1 * xh1 - xh2 * xh2) - 1.0) < 1e-12


def test_no_transition_for_two_leaf_map():
    pt = BasePoint(1, "II", (0.0, 0.0, 1.5))
    with pytest.raises(ValueError):
        gg.transition(pt)


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_gluing(lvl, real):
    rng = random.Random(13)
    wc = wf = 0.0
    for _ in range(6):
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        res = gg.gluing_check(pt, rng=rng)
        wc = max(wc, res["connection"])
        wf = max(wf, res["curvature"])
    assert wc < 1e-6
    assert wf < 1e-6


def test_first_map_field_strength_patch_independent():
    # closed F of the split first map does not reference the patch at all
    rng = random.Random(21)
    for _ in range(10):
        pt = sample_base_point(1, "I", rng=rng, overlap=True)
        fu = gg.curvature_closed(pt, "upper")
        fl = gg.curvature_closed(pt, "lower")
        assert fu == fl


def test_section_transition_consistency():
    # section_lower = section_upper @ g at overlap points
    from splithopf.hopfmaps import Section
    rng = random.Random(31)
    for (lvl, real) in OVERLAP_CASES:
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        up = Section(pt, "upper").matrix()
        lo = Section(pt, "lower").matrix()
        g = gg.transition(pt).value
        if lvl == 1:
            prod = up.scale_right(g)
        else:
            prod = up @ g
        assert (lo - prod).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# light cone, radial form, spans

def test_lightcone_probe():
    assert gg.lightcone_probe((1, 1, 0))["kind"] == "null"
    probe = gg.lightcone_probe((0, 0, 1))
    assert probe["kind"] == "spacelike" and probe["r_squared"] == 1
    # a direction scaled toward the cone tip classifies as null within eps
    s = 1e-5
    assert gg.lightcone_probe((3 * s, math.sqrt(8) * s, 0))["kind"] == "null"
    assert gg.lightcone_probe((3, math.sqrt(8), 0))["kind"] == "spacelike"
    assert gg.lightcone_probe((0, 2, 1))["kind"] == "timelike"


def test_radial_curvature():
    # at unit radius the radial form matches the on-sheet field strength
    pole = BasePoint(1, "I", (0.0, 0.0, 1.0))
    f = gg.curvature_closed(pole)
    fr = gg.curvature_radial((0.0, 0.0, 1.0))
    assert abs(fr[(1, 2)] - f[(1, 2)]) < 1e-15
    # scaling the point rescales by 1/r^3
    fr2 = gg.curvature_radial((0.0, 0.0, 2.0))
    assert abs(fr2[(1, 2)] - f[(1, 2)] * 2 / 8) < 1e-15
    with pytest.raises(ValueError):
        gg.curvature_radial((1.0, 1.0, 0.0))


def test_curvature_refuses_near_cone():
    pt = BasePoint(1, "I", (1.0, 1.0, 1e-12))  # r^2 within eps of zero
    with pytest.raises(ValueError):
        gg.curvature_closed(pt)


@pytest.mark.parametrize("lvl,real", [(2, "I"), (2, "II"), (3, "I"), (3, "II")])
def test_span_residual(lvl, real):
    rng = random.Random(21)
    for _ in range(3):
        pt = sample_base_point(lvl, real, rng=rng)
        assert gg.span_residual(pt) < 1e-10


def test_field_components_export():
    pt = BasePoint(1, "I", (0.0, 0.0, 1.0))
    names, values = gg.field_components(pt)
    assert names[0] == "A_1" and "F_12" in names
    assert all(isinstance(v, float) for v in values)
    assert not any(math.isnan(v) for v in values)


def test_gauge_suite_fails_on_nan_residual(monkeypatch):
    from splithopf import reporting
    monkeypatch.setattr(gg, "connection_residual", lambda pt, patch=None: float("nan"))
    checks = {c.id: c for c in reporting.gauge_suite(points=1)}
    check = checks["connection-oracle-2-I-upper"]
    assert not check.passed and math.isnan(check.residual)
    assert check.as_dict()["residual"] == "nan"
    assert checks["curvature-oracle-2-I-upper"].passed
