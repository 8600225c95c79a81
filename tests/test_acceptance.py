"""Acceptance gate: nine criteria, each with its stated tolerance.

Every test prints one PASS line so `pytest -s tests/test_acceptance.py`
reads as a checklist.  Tolerances are pinned here, not configurable.
"""

from fractions import Fraction as F
import itertools
import math
import random
import subprocess
import sys
import time

import pytest

from splithopf import splitnum, gammarep, hopfmaps, gaugegeom, superhopf
from splithopf.splitnum import (
    SplitComplex, OrdinaryComplex, SplitQuaternion, SplitOctonion, random_element,
)
from tests.test_hopfmaps import ALL_CASES

OVERLAP_CASES = [(1, "I"), (2, "I"), (2, "II"), (3, "I"), (3, "II")]


def _report(name, detail):
    print("PASS %s: %s" % (name, detail))


def test_criterion_1_algebra_exactness():
    """All table products, quaternion relations and the conj anti-automorphism
    exact; composition property on 1000 random rational pairs per algebra."""
    t0 = time.monotonic()
    results = splitnum.verify_structure_table(samples=0, seed=0)
    assert all(ok for (_, ok, _) in results[:2])

    q = SplitQuaternion.basis
    assert q(1) * q(2) == q(3) and q(2) * q(3) == q(1) and q(3) * q(1) == -q(2)
    assert q(1) * q(1) == SplitQuaternion(1) and q(2) * q(2) == -SplitQuaternion(1)
    assert q(3) * q(3) == SplitQuaternion(1)
    assert q(1) * q(2) * q(3) == SplitQuaternion(1)
    for a, b, c in itertools.product(range(4), repeat=3):
        assert (q(a) * q(b)) * q(c) == q(a) * (q(b) * q(c))

    rng = random.Random(2024)
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        for _ in range(200):
            a, b = random_element(cls, rng), random_element(cls, rng)
            assert (a * b).conj() == b.conj() * a.conj()
        for _ in range(1000):
            a, b = random_element(cls, rng), random_element(cls, rng)
            assert (a * b).qform() == a.qform() * b.qform()
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, "runtime %.2fs exceeds 2s" % elapsed
    _report("criterion 1 (algebra exactness)",
            "64/64 products, relations, conj, 3x1000 composition pairs exact; %.2fs" % elapsed)


def test_criterion_2_clifford_suites():
    """All 8 gamma families, all conjugation matrices, lambda cross-check."""
    t0 = time.monotonic()
    for name in gammarep.FAMILY_NAMES:
        for (cid, ok, detail) in gammarep.clifford_check(name):
            assert ok, "%s: %s" % (cid, detail)
    conj_names = ("split_pauli", "tau", "so32_I", "so32_II", "so43_I", "so54_I",
                  "so54_II")
    for name in conj_names:
        for (cid, ok, detail) in gammarep.conjugation_check(name):
            assert ok, "%s: %s" % (cid, detail)
    for (cid, ok, detail) in gammarep.lambda_table_check():
        assert ok, detail
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, "runtime %.2fs exceeds 2s" % elapsed
    _report("criterion 2 (Clifford suites)",
            "8 families exact, %d conjugation matrices exact, lambda-from-table exact; %.2fs"
            % (len(conj_names), elapsed))


def test_criterion_3_hopf_constraints():
    """1000 random normalized spinors per case land on the hyperboloid within
    1e-12 (float) and exactly (rational); level-0 antipodes identified."""
    t0 = time.monotonic()
    for (lvl, real) in ALL_CASES:
        rng = random.Random(lvl * 10 + (1 if real == "I" else 2))
        worst = 0.0
        for _ in range(1000):
            pt = hopfmaps.project(hopfmaps.sample_normalized(lvl, real, rng=rng))
            worst = max(worst, abs(pt.constraint_residual()))
        assert worst < 1e-12, "(%d, %s): %g" % (lvl, real, worst)
        for _ in range(50):
            sp = hopfmaps.sample_normalized(lvl, real, backend="exact", rng=rng)
            assert hopfmaps.project(sp).constraint_residual() == 0

    rng = random.Random(5)
    for _ in range(200):
        x = _rational_hyperbola_point(rng)
        y = hopfmaps.level0_project(x)
        assert y[0] * y[0] - y[1] * y[1] == -1
        assert hopfmaps.level0_project((-x[0], -x[1])) == y
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "runtime %.2fs exceeds 5s" % elapsed
    _report("criterion 3 (Hopf constraints)",
            "6 cases x 1000 float < 1e-12 and 6 x 50 exact; level-0 antipodal exact; %.2fs"
            % elapsed)


def _rational_hyperbola_point(rng):
    # rational point on x1^2 - x2^2 = -1 via a chord through (0, 1)
    while True:
        v1, v2 = rng.randint(-9, 9), rng.randint(-9, 9)
        if v1 * v1 != v2 * v2:
            t = F(2 * v2, v1 * v1 - v2 * v2)
            return (t * v1, 1 + t * v2)


def test_criterion_4_round_trips():
    """project(invert(x)) = x on both patches, all maps, 200 points each."""
    t0 = time.monotonic()
    for (lvl, real) in ALL_CASES:
        for patch in ("upper", "lower"):
            rng = random.Random(hash((lvl, real, patch)) & 0xFFFF)
            worst = 0.0
            for _ in range(200):
                pt = hopfmaps.sample_base_point(lvl, real, patch=patch, rng=rng)
                sp = hopfmaps.invert(pt, fiber=hopfmaps.sample_fiber(lvl, real, rng), patch=patch)
                back = hopfmaps.project(sp)
                worst = max(worst,
                            max(abs(a - b) for a, b in zip(back.coords, pt.coords)))
            assert worst < 1e-12, "(%d, %s, %s): %g" % (lvl, real, patch, worst)
    _report("criterion 4 (round trips)",
            "12 panels x 200 points, residual < 1e-12; %.1fs" % (time.monotonic() - t0))


def test_criterion_5_connection_oracle():
    """Closed connection vs finite differences of -u s^dag W ds at h = 1e-5,
    within 1e-6, at 100 in-patch points per case; the reality-constrained
    level-3 spinor-section connection vanishes below 1e-12."""
    t0 = time.monotonic()
    for (lvl, real) in ALL_CASES:
        for patch in ("upper", "lower"):
            rng = random.Random(lvl * 7 + (0 if real == "I" else 1)
                                + (0 if patch == "upper" else 100))
            worst = 0.0
            for _ in range(100):
                pt = hopfmaps.sample_base_point(lvl, real, patch=patch, rng=rng)
                worst = max(worst,
                            gaugegeom.connection_residual(pt, patch, h=1e-5, mode="fd"))
            assert worst < 1e-6, "(%d, %s, %s): %g" % (lvl, real, patch, worst)

    rng = random.Random(77)
    worst = 0.0
    for real in ("I", "II"):
        for _ in range(20):
            pt = hopfmaps.sample_base_point(3, real, rng=rng)
            vals = gaugegeom.connection_numeric(pt, mode="analytic",
                                                section="spinor",
                                                fiber=hopfmaps.sample_fiber(3, real, rng))
            for v in vals:
                worst = max(worst, abs(float(v.re)), abs(float(v.im)))
    assert worst < 1e-12, "spinor-section connection %g" % worst
    _report("criterion 5 (connection oracle)",
            "12 panels x 100 points FD h=1e-5 < 1e-6; level-3 spinor-section "
            "connection < 1e-12; %.1fs" % (time.monotonic() - t0))


def test_criterion_6_curvature_and_gluing():
    """Closed F vs numeric dA - u^-1[A,A] within 1e-5; gluing identities and
    gauge covariance within 1e-6 at 100 overlap points per case; the split
    first map has patch-independent field strength exactly."""
    t0 = time.monotonic()
    for (lvl, real) in ALL_CASES:
        for patch in ("upper", "lower"):
            rng = random.Random(lvl * 3 + (0 if real == "I" else 7))
            worst = 0.0
            for _ in range(30):
                pt = hopfmaps.sample_base_point(lvl, real, patch=patch, rng=rng)
                worst = max(worst,
                            gaugegeom.curvature_residual(pt, patch, pairs=2, rng=rng))
            assert worst < 1e-5, "(%d, %s, %s): %g" % (lvl, real, patch, worst)

    for (lvl, real) in OVERLAP_CASES:
        rng = random.Random(lvl * 13 + (0 if real == "I" else 1))
        wc = wf = 0.0
        for _ in range(100):
            pt = hopfmaps.sample_base_point(lvl, real, rng=rng, overlap=True)
            res = gaugegeom.gluing_check(pt, pairs=2, rng=rng)
            wc = max(wc, res["connection"])
            wf = max(wf, res["curvature"])
        assert wc < 1e-6, "(%d, %s) gluing: %g" % (lvl, real, wc)
        assert wf < 1e-6, "(%d, %s) covariance: %g" % (lvl, real, wf)

    rng = random.Random(9)
    for _ in range(50):
        pt = hopfmaps.sample_base_point(1, "I", rng=rng, overlap=True)
        assert gaugegeom.curvature_closed(pt, "upper") == \
            gaugegeom.curvature_closed(pt, "lower")
    _report("criterion 6 (curvature and gluing)",
            "12 panels closed-vs-numeric F < 1e-5; 5 cases x 100 overlap points "
            "gluing and covariance < 1e-6; first-map F patch-independent exactly; "
            "%.1fs" % (time.monotonic() - t0))


def test_criterion_7_transition_unitarity():
    """Unitarity contracts of all five transition functions within 1e-12 at
    100 overlap points per case."""
    t0 = time.monotonic()
    for (lvl, real) in OVERLAP_CASES:
        rng = random.Random(lvl * 5 + (0 if real == "I" else 1))
        worst = 0.0
        for _ in range(100):
            pt = hopfmaps.sample_base_point(lvl, real, rng=rng, overlap=True)
            worst = max(worst, gaugegeom.transition(pt).unitarity_residual())
        assert worst < 1e-12, "(%d, %s): %g" % (lvl, real, worst)
    _report("criterion 7 (transition unitarity)",
            "5 contracts x 100 overlap points < 1e-12; %.1fs" % (time.monotonic() - t0))


def test_criterion_8_super_suite():
    """Grassmann engine laws exact; graded algebra exact; super constraint
    exact; super gluing < 1e-6 with exact theta-derivatives; theta -> 0
    reduction equals the bosonic forms exactly."""
    t0 = time.monotonic()
    for (cid, ok, detail) in superhopf.engine_checks(seed=1, samples=60):
        assert ok, "%s: %s" % (cid, detail)
    for real in ("I", "II"):
        for (cid, ok, detail) in superhopf.osp_algebra_check(real):
            assert ok, "%s: %s" % (cid, detail)

    G = superhopf.GrassmannElement
    for real, xb, patches in (
        ("I", (F(24, 25), F(0), F(7, 25)), ("upper", "lower")),
        ("II", (F(0), F(15, 8), F(17, 8)), ("upper",)),
    ):
        cfg = superhopf.PSEUDO if real == "I" else superhopf.STANDARD
        ths = (G.generator(0, cfg), G.generator(1, cfg))
        xs = superhopf.lift_base(xb, ths, real)
        assert superhopf.constraint_residual(xs, ths, real).is_zero()
        for patch in patches:
            chi = superhopf.super_invert(xs, ths, patch, real)
            assert superhopf.super_norm(chi, real) == G.scalar(1, cfg)
            x2, t2 = superhopf.super_project(chi, real)
            assert all(a == b for a, b in zip(x2, xs))
            assert all(a == b for a, b in zip(t2, ths))

    res = superhopf.super_gluing_check((F(24, 25), F(0), F(7, 25)))
    assert res["unitarity_exact"] and res["section"] == 0.0 and res["odd"] == 0.0
    assert res["even"] < 1e-6

    # theta -> 0 reduction, exact rational equality with the bosonic forms
    from splithopf.hopfmaps import BasePoint
    cfg = superhopf.PSEUDO
    zero = G({}, cfg)
    xb = (F(24, 25), F(0), F(7, 25))
    A_i, A_a = superhopf.super_connection(xb, (zero, zero), "upper", "I")
    bos = gaugegeom.connection_closed(BasePoint(1, "I", xb, "upper"), "upper")
    for i in (1, 2, 3):
        assert A_i[i] == G.scalar(SplitComplex(bos[i], 0), cfg)
    assert A_a[1].is_zero() and A_a[2].is_zero()
    F_ij, F_ia, _ = superhopf.super_curvature(xb, (zero, zero), "upper", "I")
    bosf = gaugegeom.curvature_closed(BasePoint(1, "I", xb, "upper"), "upper")
    for k in F_ij:
        assert F_ij[k] == G.scalar(SplitComplex(bosf[k], 0), cfg)
    assert all(v.is_zero() for v in F_ia.values())
    _report("criterion 8 (super suite)",
            "engine, graded algebra, constraint and round trip exact; gluing "
            "exact-theta with FD body < 1e-6; theta->0 reduction exact; %.1fs"
            % (time.monotonic() - t0))


def test_criterion_9_full_verify_cli():
    """hopfctl verify --suite all exits 0 within 60 s."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "splithopf.cli", "verify", "--suite", "all",
         "--seed", "0", "--no-timestamp"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-800:]
    assert elapsed < 60.0, "runtime %.1fs exceeds 60s" % elapsed
    import json
    data = json.loads(proc.stdout)
    assert data["status"] == "pass"
    assert {s["suite"] for s in data["suites"]} == \
        {"algebra", "gamma", "hopf", "gauge", "super"}
    _report("criterion 9 (full verify)",
            "exit 0, all five suites pass in %.1fs (< 60s)" % elapsed)
