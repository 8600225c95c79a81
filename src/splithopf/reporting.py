"""Check reports and verification suites.

Each suite runs a battery of identity checks from one module family and
returns CheckReport rows; the CLI serializes them as JSON.  Identical seeds
give identical reports (wall time excluded via the no_timestamp flag).
"""

import math
import random
import time

from . import splitnum, gammarep, hopfmaps, gaugegeom, superhopf
from .ringmat import RING_SPLIT, RMatrix, lincomb, worst_of

__all__ = ["CheckReport", "VerifyReport", "run_suite", "SUITES", "FAULT_SUITES"]


class CheckReport:
    """One check: conditions holds its exact conditions; a check with a
    residual also needs residual < tolerance, so a new tolerance never
    drops the conditions."""

    __slots__ = ("id", "description", "identity", "conditions", "residual", "tolerance")

    def __init__(self, id, conditions=True, identity="", description="", residual=None,
                 tolerance=None):
        self.id = id
        self.conditions = bool(conditions)
        self.identity = identity
        self.description = description
        self.residual = residual
        self.tolerance = tolerance

    @property
    def passed(self):
        return self.conditions and (self.residual is None or self.residual < self.tolerance)

    def as_dict(self):
        out = {"id": self.id, "status": "pass" if self.passed else "fail",
               "identity": self.identity}
        if self.description:
            out["detail"] = self.description
        if self.residual is not None:
            r = float(self.residual)
            # JSON has no NaN or infinity; a non-finite residual is written by name
            out["residual"] = r if math.isfinite(r) else repr(r)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        return out


class VerifyReport:
    def __init__(self, suite, checks, seed, wall_time):
        self.suite = suite
        self.checks = checks
        self.seed = seed
        self.wall_time = wall_time

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self, timestamp=True):
        return {
            "schema": 1,
            "suite": self.suite,
            "seed": self.seed,
            "status": "pass" if self.passed else "fail",
            "wall_time": round(self.wall_time, 6) if timestamp else 0.0,
            "checks": [c.as_dict() for c in self.checks],
        }


def _from_triples(triples, identity=""):
    return [CheckReport(i, ok, identity=identity, description=detail)
            for (i, ok, detail) in triples]


def algebra_suite(seed=0, samples=300, corrupt=False):
    checks = _from_triples(splitnum.verify_structure_table(samples=samples, seed=seed))
    q = splitnum.SplitQuaternion.basis
    rel = (q(1) * q(2) == q(3) and q(2) * q(3) == q(1) and q(3) * q(1) == -q(2)
           and q(1) * q(1) == splitnum.SplitQuaternion(1)
           and q(2) * q(2) == -splitnum.SplitQuaternion(1)
           and q(1) * q(2) * q(3) == splitnum.SplitQuaternion(1))
    checks.append(CheckReport("quaternion-relations", rel,
                              identity="q1q2=q3, q2q3=q1, q3q1=-q2, q1q2q3=1"))
    rng = random.Random(seed)
    ok = True
    for cls in (splitnum.SplitComplex, splitnum.SplitQuaternion, splitnum.SplitOctonion):
        for _ in range(samples // 3):
            a = splitnum.cleared_sample(cls, rng)
            b = splitnum.cleared_sample(cls, rng)
            if (a * b).conj() != b.conj() * a.conj():
                ok = False
    checks.append(CheckReport("conj-anti-automorphism", ok,
                              identity="conj(ab) = conj(b) conj(a)"))
    j = splitnum.SplitComplex(0, 1)
    # q_0 -> 1 and q_i -> j sigma^i, extended linearly
    basis = (RMatrix.identity(2, RING_SPLIT),) + tuple(
        gammarep.split_pauli(i).scale(j) for i in (1, 2, 3))
    emb = all(basis[i] @ basis[k] == lincomb((q(i) * q(k)).coeffs, basis)
              for i in (1, 2, 3) for k in (1, 2, 3))
    checks.append(CheckReport("pauli-embedding", emb,
                              identity="q_i -> j sigma^i is a homomorphism"))
    if corrupt:
        checks.append(CheckReport("octonion-table-64-corrupted", False,
                                  identity="injected fault", description="test hook"))
    return checks


def gamma_suite(seed=0, corrupt=False):
    checks = []
    for name in gammarep.FAMILY_NAMES:
        triples = gammarep.clifford_check(name)
        if corrupt and name == "so32_I":
            triples = [(i, False, "injected fault") for (i, _, _) in triples]
        checks += _from_triples(triples, identity="{gamma^a, gamma^b} = sign 2 eta^ab")
        checks += _from_triples(gammarep.hermiticity_check(name))
    for name in ("split_pauli", "tau", "so32_I", "so32_II", "so43_I", "so54_I", "so54_II"):
        checks += _from_triples(gammarep.conjugation_check(name))
    checks += _from_triples(gammarep.lambda_table_check(),
                            identity="(lambda^I)_AB = -f_IAB")
    checks += _from_triples(gammarep.generator_closure_check("so32_II"))
    checks += _from_triples(gammarep.generator_closure_check("so32_I"))
    for variant in ("I", "II"):
        for bar in (False, True):
            tab = gammarep.build_thooft(variant, bar)
            ok = all(tab.get((m, n, i), 0) == -tab.get((n, m, i), 0)
                     for m in range(1, 5) for n in range(1, 5) for i in range(1, 4))
            checks.append(CheckReport("thooft-%s-%s-antisymmetric" % (variant, "bar" if bar else "plain"),
                                      ok, identity="eta_mni = -eta_nmi"))
    return checks


def hopf_suite(seed=0, samples=120):
    checks = []
    rng = random.Random(seed)
    for (lvl, real) in ((1, "I"), (1, "II"), (2, "I"), (2, "II"), (3, "I"), (3, "II")):
        devs, error = [], ""
        for _ in range(samples):
            sp = hopfmaps.sample_normalized(lvl, real, rng=rng)
            try:
                devs.append(abs(hopfmaps.project(sp).constraint_residual()))
            except hopfmaps.ConstraintError as exc:
                error = error or str(exc)
        worst = worst_of(devs)
        checks.append(CheckReport("constraint-%d-%s-float" % (lvl, real), not error,
                                  identity="eta_ab x^a x^b = target", description=error,
                                  residual=worst, tolerance=1e-12))
        exact_ok, error = True, ""
        for _ in range(max(5, samples // 20)):
            sp = hopfmaps.sample_normalized(lvl, real, backend="exact", rng=rng)
            try:
                exact_ok = hopfmaps.project(sp).constraint_residual() == 0 and exact_ok
            except hopfmaps.ConstraintError as exc:
                exact_ok, error = False, error or str(exc)
        checks.append(CheckReport("constraint-%d-%s-exact" % (lvl, real), exact_ok,
                                  identity="exact rational constraint", description=error))
        for patch in ("upper", "lower"):
            devs, error = [], ""
            for _ in range(max(10, samples // 6)):
                try:
                    pt = hopfmaps.sample_base_point(lvl, real, patch=patch, rng=rng)
                    fib = hopfmaps.sample_fiber(lvl, real, rng)
                    back = hopfmaps.project(hopfmaps.invert(pt, fiber=fib, patch=patch))
                except hopfmaps.ConstraintError as exc:
                    error = error or str(exc)
                    continue
                devs += [abs(a - b) for a, b in zip(back.coords, pt.coords)]
            worst = worst_of(devs)
            checks.append(CheckReport("roundtrip-%d-%s-%s" % (lvl, real, patch), not error,
                                      identity="project(invert(x)) = x", description=error,
                                      residual=worst, tolerance=1e-12))
    for _ in range(samples):
        t = rng.uniform(-1.5, 1.5)
        x = (math.sinh(t), math.cosh(t))
        y = hopfmaps.level0_project(x)
        ok = abs(y[0] * y[0] - y[1] * y[1] + 1) < 1e-9
        ok = ok and hopfmaps.level0_project((-x[0], -x[1])) == y
        if not ok:
            break
    checks.append(CheckReport("level0-antipodal", ok,
                              identity="(x) and (-x) project equally onto the hyperbola"))
    for lvl, real in ((2, "I"), (2, "II"), (3, "I"), (3, "II")):
        checks += _from_triples(hopfmaps.hierarchical_fiber_check(lvl, real, seed=seed,
                                                                  samples=8))
    return checks


def gauge_suite(seed=0, points=12):
    checks = []
    rng = random.Random(seed)
    for (lvl, real) in ((1, "I"), (1, "II"), (2, "I"), (2, "II"), (3, "I"), (3, "II")):
        for patch in ("upper", "lower"):
            conn, curv = [], []
            for _ in range(points):
                pt = hopfmaps.sample_base_point(lvl, real, patch=patch, rng=rng)
                conn.append(gaugegeom.connection_residual(pt, patch))
                curv.append(gaugegeom.curvature_residual(pt, patch, pairs=2, rng=rng))
            worst_c, worst_f = worst_of(conn), worst_of(curv)
            checks.append(CheckReport("connection-oracle-%d-%s-%s" % (lvl, real, patch),
                                      residual=worst_c, tolerance=1e-6,
                                      identity="closed A = -u s^dag W ds (finite differences)"))
            checks.append(CheckReport("curvature-oracle-%d-%s-%s" % (lvl, real, patch),
                                      residual=worst_f, tolerance=1e-5,
                                      identity="closed F = dA - u^-1 [A, A]"))
    for (lvl, real) in ((1, "I"), (2, "I"), (2, "II"), (3, "I"), (3, "II")):
        unit, glue, cov = [], [], []
        for _ in range(points):
            pt = hopfmaps.sample_base_point(lvl, real, rng=rng, overlap=True)
            unit.append(gaugegeom.transition(pt).unitarity_residual())
            res = gaugegeom.gluing_check(pt, rng=rng)
            glue.append(res["connection"])
            cov.append(res["curvature"])
        worst_u, worst_g, worst_cov = worst_of(unit), worst_of(glue), worst_of(cov)
        checks.append(CheckReport("transition-unitarity-%d-%s" % (lvl, real),
                                  residual=worst_u, tolerance=1e-12,
                                  identity="conj-contract of g"))
        checks.append(CheckReport("gluing-connection-%d-%s" % (lvl, real),
                                  residual=worst_g, tolerance=1e-6,
                                  identity="A' = g^dag A g - u g^dag dg"))
        checks.append(CheckReport("gluing-curvature-%d-%s" % (lvl, real),
                                  residual=worst_cov, tolerance=1e-6,
                                  identity="F' = g^dag F g"))
    devs = []
    for _ in range(points):
        pt = hopfmaps.sample_base_point(3, "I", rng=rng)
        fib = hopfmaps.sample_fiber(3, "I", rng)
        vals = gaugegeom.connection_numeric(pt, mode="analytic", section="spinor",
                                            fiber=fib)
        devs += [abs(float(c)) for v in vals for c in (v.re, v.im)]
    worst = worst_of(devs)
    checks.append(CheckReport("majorana-vanishing-3-I", residual=worst, tolerance=1e-12,
                              identity="-u Psi^dag d Psi = 0 on the reality-constrained section"))
    for (lvl, real) in ((2, "I"), (2, "II"), (3, "I"), (3, "II")):
        pt = hopfmaps.sample_base_point(lvl, real, rng=rng)
        r = gaugegeom.connection_residual(pt, mode="analytic")
        checks.append(CheckReport("span-%d-%s" % (lvl, real), residual=r, tolerance=1e-10,
                                  identity="A components in the generator span"))
    return checks


def super_suite(seed=0):
    from fractions import Fraction as F
    checks = _from_triples(superhopf.engine_checks(seed=seed, samples=40))
    for real in ("I", "II"):
        checks += _from_triples(superhopf.osp_algebra_check(real))
    # exact constraint + round trip at rational points with square patch factors
    cases = [
        ("I", (F(24, 25), F(0), F(7, 25)), ("upper", "lower")),
        ("I", (F(0), F(0), F(1)), ("upper",)),
        ("II", (F(0), F(15, 8), F(17, 8)), ("upper",)),
    ]
    for real, xb, patches in cases:
        cfg = superhopf.PSEUDO if real == "I" else superhopf.STANDARD
        ths = (superhopf.GrassmannElement.generator(0, cfg),
               superhopf.GrassmannElement.generator(1, cfg))
        xs = superhopf.lift_base(xb, ths, real)
        ok = superhopf.constraint_residual(xs, ths, real).is_zero()
        checks.append(CheckReport("super-constraint-%s" % real, ok,
                                  identity="eta x x +- eps theta theta = +-1 exactly"))
        for patch in patches:
            chi = superhopf.super_invert(xs, ths, patch, real)
            n_ok = superhopf.super_norm(chi, real) == \
                superhopf.GrassmannElement.scalar(1, cfg)
            x2, t2 = superhopf.super_project(chi, real)
            rt = all(a == b for a, b in zip(x2, xs)) and all(a == b for a, b in zip(t2, ths))
            checks.append(CheckReport("super-roundtrip-%s-%s" % (real, patch),
                                      n_ok and rt,
                                      identity="project(invert(x, theta)) = (x, theta) exactly"))
    # exact derivatives at rational points with square patch factors: residuals are 0
    res = superhopf.super_connection_check((F(24, 25), F(0), F(7, 25)), "upper", "I")
    checks.append(CheckReport("super-connection-I", res["odd"] == 0 and res["even"] == 0,
                              residual=res["even"], tolerance=1e-6,
                              identity="closed super A = -u chi^row d chi"))
    res = superhopf.super_connection_check((F(0), F(15, 8), F(17, 8)), "upper", "II")
    checks.append(CheckReport("super-connection-II", res["odd"] == 0 and res["even"] == 0,
                              residual=res["even"], tolerance=1e-6,
                              identity="closed super A = -u chi^row kappa d chi"))
    res = superhopf.super_gluing_check((F(24, 25), F(0), F(7, 25)))
    ok = res["unitarity_exact"] and res["section"] == 0 and res["odd"] == 0 and res["even"] == 0
    checks.append(CheckReport("super-gluing", ok, residual=res["even"], tolerance=1e-6,
                              identity="A' - A = -j g* dg, conj(g) g = 1 exactly"))
    return checks


SUITES = {
    "algebra": algebra_suite,
    "gamma": gamma_suite,
    "hopf": hopf_suite,
    "gauge": gauge_suite,
    "super": super_suite,
}


# the suites that take corrupt, the fault hook of hopfctl verify --inject-fault
FAULT_SUITES = frozenset({"algebra", "gamma"})


def run_suite(name, seed=0, corrupt=False, **kw):
    t0 = time.monotonic()
    fn = SUITES[name]
    if name in FAULT_SUITES:
        checks = fn(seed=seed, corrupt=corrupt, **kw)
    else:
        checks = fn(seed=seed, **kw)
    return VerifyReport(name, checks, seed, time.monotonic() - t0)
