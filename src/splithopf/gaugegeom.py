"""Canonical connections, curvatures and transition functions.

Closed forms for every map and patch, together with two independent
evaluations of the defining derivative -u s(x)^dag W ds(x) along the
inversion sections: central finite differences, and an exact analytic path
that exploits the section shape (rational prefactor squared times a matrix
linear in x).  Gluing identities and gauge covariance are checked at overlap
points with the transition functions.

Sign conventions.  The closed component formulas are fixed by requiring
exact agreement with the canonical-connection derivative of the inversion
sections; three-index epsilon symbols therefore carry all indices lowered
with the relevant metric (at level 1 both metrics have determinant -1, so
the lowered symbol is minus the Levi-Civita symbol).  Curvature components
are the ambient derivatives of the closed connection plus the commutator
term -u^-1 A wedge A, which is -j [A, A] on the split side and +i [A, A] on
the complex side.
"""

from fractions import Fraction
import functools
import math
import random

from .splitnum import SplitComplex, OrdinaryComplex, reciprocal
from .ringmat import RMatrix, RING_SPLIT, commutator, lincomb, worst_of
from . import gammarep
from .hopfmaps import (
    BasePoint, Section, case_info, section_linear_part, sample_base_point,
    PatchError, EPS_PATCH,
)

__all__ = [
    "tangent_basis", "connection_closed", "connection_contraction",
    "connection_numeric", "connection_residual",
    "curvature_closed", "curvature_contraction", "curvature_numeric",
    "curvature_residual", "transition", "gluing_check",
    "lightcone_probe", "curvature_radial", "span_residual", "field_components",
]

EPS_NULL = 1e-9
DEFAULT_H = 1e-5


# ---------------------------------------------------------------------------
# per-case static data

@functools.lru_cache(maxsize=None)
def _case_gauge(level, realization):
    """(unit u, weight W, undecorate D) for -u s^dag W ds, in the ring of the
    sections (W and D lifted to the complex ring at (3, II))."""
    if realization == "I":
        dim = case_info(level, realization).spinor_dim
        return SplitComplex(0, 1), RMatrix.identity(dim, RING_SPLIT), None
    i = OrdinaryComplex(0, 1)
    if level == 1:
        return i, gammarep.pauli(3), None
    if level == 2:
        k = gammarep.build_family("so32_II").weight
        return i, k, gammarep.pauli(3)
    K = gammarep.to_complex(gammarep.build_family("so54_II").weight)
    sig3 = gammarep.to_complex(gammarep.sigma3_block(4))  # fiber weight diag(1_4, -1_4)
    return i, K, sig3


@functools.lru_cache(maxsize=None)
def _level2_algebra(realization, bar):
    """('t Hooft table, generator triple) of the second map: split Pauli
    matrices for I, the tau triple for II."""
    gen = gammarep.split_pauli if realization == "I" else gammarep.tau
    return (gammarep.build_thooft(realization, bar),
            tuple(gen(i) for i in (1, 2, 3)))


# ---------------------------------------------------------------------------
# tangent frames

def tangent_basis(point):
    """Coordinate directions projected onto the tangent space at the point,
    normalized to unit Euclidean length.  The metric square of the point is
    +-1, so the projection never degenerates."""
    case = case_info(point.level, point.realization)
    eta = case.base_metric
    x = [float(c) for c in point.coords]
    qx = case.constraint_target
    out = []
    for a in range(eta.dim):
        t = [0.0] * eta.dim
        t[a] = 1.0
        coef = eta.signature[a] * x[a] / qx
        t = [ti - coef * xi for ti, xi in zip(t, x)]
        norm = math.sqrt(sum(ti * ti for ti in t))
        if norm < 1e-12:
            continue
        out.append(tuple(ti / norm for ti in t))
    return out


def _shift(point, t, h):
    coords = [c + h * ti for c, ti in zip(point.coords, t)]
    return BasePoint(point.level, point.realization, coords, point.patch)


# ---------------------------------------------------------------------------
# closed connection forms

def connection_closed(point, patch=None):
    """Closed-form connection components {a: value}, a = 1..dim.

    Level 1 components are real scalars; levels 2 and 3 are matrices in the
    span of the case's generator family.  The last component vanishes on both
    patches.
    """
    patch = patch or point.patch
    lvl, real = point.level, point.realization
    x = point.coords
    s = 1 if patch == "upper" else -1
    n = 1 + s * x[-1]
    if n < EPS_PATCH:
        raise PatchError(patch, n)

    if lvl == 1:
        sign = s if real == "I" else -1
        out = {}
        for i in (1, 2, 3):
            acc = 0 * x[0]
            for j in (1, 2, 3):
                e = -gammarep.levi_civita(i, j, 3)
                if e:
                    acc = acc + e * x[j - 1]
            out[i] = sign * acc / (2 * n)
        return out

    inv_n = reciprocal(n)
    bar = patch == "lower"
    out = {}
    if lvl == 2:
        # A_m = pref/n sum_{n', i} eta_{m n' i} x_n' basis_i
        tab, basis = _level2_algebra(real, bar)
        pref = (Fraction(-1, 2) if real == "I" else Fraction(1, 2)) * inv_n
        for m in range(1, 5):
            coeffs = [sum(tab.get((m, nn, i), 0) * x[nn - 1] for nn in range(1, 5)) * pref
                      for i in (1, 2, 3)]
            out[m] = lincomb(coeffs, basis)
        out[5] = RMatrix.zeros(2, 2, basis[0].ring)
        return out

    # level 3: A_m = (1/n) sum_{n' != m} sigma_{m n'} x_n', sigma_{n' m} = -sigma_{m n'}
    gens = gammarep.build_weyl_generators(real, bar)["sigmas"]
    for m in range(1, 9):
        others = [nn for nn in range(1, 9) if nn != m]
        out[m] = lincomb([(x[nn - 1] if m < nn else -x[nn - 1]) * inv_n for nn in others],
                         [gens[(min(m, nn), max(m, nn))] for nn in others])
    out[9] = RMatrix.zeros(8, 8, gens[(1, 2)].ring)
    return out


def connection_contraction(point, t, patch=None, closed=None):
    """sum_a A_a t^a for a tangent direction t, contracting the closed
    components (connection_closed(point, patch) unless given)."""
    comps = closed if closed is not None else connection_closed(point, patch)
    if isinstance(comps[1], RMatrix):
        return lincomb([t[a - 1] for a in comps], comps.values())
    return sum(v * t[a - 1] for a, v in comps.items())


# ---------------------------------------------------------------------------
# numeric connection along sections

def _fiber_column(point, fiber):
    case = case_info(point.level, point.realization)
    comps = list(fiber.comps) if hasattr(fiber, "comps") else list(fiber)
    return RMatrix([[c] for c in comps], case.ring)


def connection_numeric(point, patch=None, h=DEFAULT_H, mode="fd",
                       section="matrix", fiber=None, tangents=None):
    """Connection contractions -u s^dag W (d_t s) along tangent directions.

    mode="fd" uses central differences of the section at x +- h t (the
    independent oracle); mode="analytic" differentiates the section shape
    exactly, which stays rational on rational input.  section="spinor"
    contracts the matrix section with a fiber column first; at level 3 that
    value vanishes identically by the reality constraint of the fiber.

    Returns a list of values aligned with the tangent directions; entries
    are scalars at level 1 (and for spinor sections), matrices otherwise.
    """
    patch = patch or point.patch
    lvl, real = point.level, point.realization
    u, W, D = _case_gauge(lvl, real)
    tangents = tangents if tangents is not None else tangent_basis(point)

    w0, n0 = section_linear_part(point, patch)
    lift = gammarep.to_complex if (lvl, real) == (3, "II") else (lambda m: m)
    w0 = lift(w0)
    col = None
    if section == "spinor":
        if fiber is None:
            raise ValueError("spinor-section mode needs a fiber")
        col = lift(_fiber_column(point, fiber))
        w0 = w0 @ col

    s_pat = 1 if patch == "upper" else -1
    out = []
    for t in tangents:
        if mode == "fd":
            wp, np_ = section_linear_part(_shift(point, t, h), patch)
            wm, nm = section_linear_part(_shift(point, t, -h), patch)
            wp, wm = lift(wp), lift(wm)
            if col is not None:
                wp = wp @ col
                wm = wm @ col
            sp = wp.scale(1.0 / math.sqrt(2.0 * np_))
            sm = wm.scale(1.0 / math.sqrt(2.0 * nm))
            ds = (sp - sm).scale(1.0 / (2.0 * h))
            s0 = w0.scale(1.0 / math.sqrt(2.0 * n0))
            raw = (s0.dagger() @ W @ ds).scale(-u)
        elif mode == "analytic":
            # s = w / sqrt(2n); -u s^dag W ds = -u p^2 [w^dag W w' - (dn/2n) w^dag W w]
            wp, _ = section_linear_part(_shift(point, t, 1), patch)
            wp = lift(wp)
            if col is not None:
                wp = wp @ col
            wprime = wp - w0
            ndot = s_pat * t[-1]
            p2 = (Fraction(1, 2) if not isinstance(n0, float) else 0.5) / n0
            core = (w0.dagger() @ W @ wprime) - (w0.dagger() @ W @ w0).scale(ndot).scale(p2)
            raw = core.scale(p2).scale(-u)
        else:
            raise ValueError(mode)
        if D is not None and col is None:
            raw = D @ raw
        if raw.rows == 1 and raw.cols == 1:
            out.append(raw.entry(0, 0))
        else:
            out.append(raw)
    return out


def _value_dev(a, b):
    d = a - b
    if isinstance(d, RMatrix):
        return d.max_abs()
    comps = (d.re, d.im) if hasattr(d, "re") else (d,)
    return worst_of(abs(float(c)) for c in comps)


def connection_residual(point, patch=None, h=DEFAULT_H, mode="fd"):
    """Max deviation between the closed form and the section derivative
    (NaN if any deviation is NaN)."""
    patch = patch or point.patch
    tangents = tangent_basis(point)
    closed = connection_closed(point, patch)
    numeric = connection_numeric(point, patch, h=h, mode=mode, tangents=tangents)
    devs = []
    for t, num in zip(tangents, numeric):
        cl = connection_contraction(point, t, patch, closed=closed)
        if isinstance(num, RMatrix) and not isinstance(cl, RMatrix):
            cl = RMatrix([[cl]], num.ring)
        devs.append(_value_dev(num, cl))
    return worst_of(devs)


# ---------------------------------------------------------------------------
# curvature

def _comm_unit(real):
    # F_ab = d_a A_b - d_b A_a + c [A_a, A_b]; c = -j (split), +i (complex)
    return -SplitComplex(0, 1) if real == "I" else OrdinaryComplex(0, 1)


def curvature_closed(point, patch=None):
    """Closed curvature components {(a, b): value}, a < b, ambient convention.

    These are the exact ambient derivatives of connection_closed plus the
    commutator term, so contractions with tangent pairs give the intrinsic
    curvature 2-form.  Level 1 of the split realization refuses points too
    close to the light cone of the 3-metric.
    """
    patch = patch or point.patch
    lvl, real = point.level, point.realization
    x = point.coords
    s = 1 if patch == "upper" else -1
    n = 1 + s * x[-1]
    if n < EPS_PATCH:
        raise PatchError(patch, n)

    if lvl == 1:
        if real == "I":
            r2 = x[0] * x[0] - x[1] * x[1] + x[2] * x[2]
            if abs(float(r2)) < EPS_NULL:
                raise ValueError("curvature undefined within %g of the light cone" % EPS_NULL)
            sign = -1
        else:
            sign = 1 if patch == "upper" else -1
        out = {}
        for i in (1, 2, 3):
            for jjj in range(i + 1, 4):
                acc = 0 * x[0]
                for k in (1, 2, 3):
                    e = -gammarep.levi_civita(i, jjj, k)
                    if e:
                        acc = acc + e * x[k - 1]
                out[(i, jjj)] = sign * acc / 2
        return out

    comps = connection_closed(point, patch)
    c = _comm_unit(real)
    inv_n = reciprocal(n)
    bar = patch == "lower"
    out = {}
    if lvl == 2:
        # algebraic part (+-1/n) sum_i eta_{m n' i} basis_i
        tab, basis = _level2_algebra(real, bar)
        alg = (1 if real == "I" else -1) * inv_n
        for m in range(1, 5):
            for nn in range(m + 1, 5):
                term = lincomb([tab.get((m, nn, i), 0) * alg for i in (1, 2, 3)], basis)
                out[(m, nn)] = term + commutator(comps[m], comps[nn]).scale(c)
            out[(m, 5)] = lincomb([inv_n * s], [comps[m]])
        return out

    # level 3: algebraic part -2 sigma_{m n'} / n
    gens = gammarep.build_weyl_generators(real, bar)["sigmas"]
    for m in range(1, 9):
        for nn in range(m + 1, 9):
            term = lincomb([-2 * inv_n], [gens[(m, nn)]])
            out[(m, nn)] = term + commutator(comps[m], comps[nn]).scale(c)
        out[(m, 9)] = lincomb([inv_n * s], [comps[m]])
    return out


def curvature_contraction(point, t, v, patch=None, closed=None):
    """F(t, v) = sum_{a<b} F_ab (t^a v^b - t^b v^a), contracting the closed
    components (curvature_closed(point, patch) unless given)."""
    comps = closed if closed is not None else curvature_closed(point, patch)
    weights = [t[a - 1] * v[b - 1] - t[b - 1] * v[a - 1] for a, b in comps]
    if isinstance(next(iter(comps.values())), RMatrix):
        return lincomb(weights, comps.values())
    acc = 0
    for w, m in zip(weights, comps.values()):
        acc += m * w
    return acc


def curvature_numeric(point, t, v, patch=None, h=DEFAULT_H):
    """dA(t, v) by central differences of the closed connection, plus the
    exact commutator term; comparable with curvature_contraction."""
    patch = patch or point.patch

    def contract(pt, vec, closed=None):
        return connection_contraction(pt, vec, patch, closed=closed)

    a_tp = contract(_shift(point, t, h), v)
    a_tm = contract(_shift(point, t, -h), v)
    a_vp = contract(_shift(point, v, h), t)
    a_vm = contract(_shift(point, v, -h), t)
    if isinstance(a_tp, RMatrix):
        da = (a_tp - a_tm).scale(1.0 / (2 * h)) - (a_vp - a_vm).scale(1.0 / (2 * h))
        here = connection_closed(point, patch)
        at = contract(point, t, here)
        av = contract(point, v, here)
        return da + commutator(at, av).scale(_comm_unit(point.realization))
    da = (a_tp - a_tm) / (2 * h) - (a_vp - a_vm) / (2 * h)
    return da


def curvature_residual(point, patch=None, h=DEFAULT_H, pairs=6, rng=None):
    """Max deviation closed-vs-numeric over random tangent pairs (NaN if any
    deviation is NaN)."""
    rng = rng or random.Random(0)
    tangents = tangent_basis(point)
    closed = curvature_closed(point, patch)
    devs = []
    for _ in range(pairs):
        t = rng.choice(tangents)
        v = rng.choice(tangents)
        cl = curvature_contraction(point, t, v, patch, closed=closed)
        nu = curvature_numeric(point, t, v, patch, h=h)
        devs.append(_value_dev(nu, cl))
    return worst_of(devs)


# ---------------------------------------------------------------------------
# transition functions and gluing

class TransitionFn:
    """Transition function at an overlap point, with its unitarity contract."""

    __slots__ = ("level", "realization", "value", "weight", "kind")

    def __init__(self, level, realization, value, weight, kind):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def unitarity_residual(self):
        g = self.value
        if self.kind == "scalar":
            return abs(float((g.conj() * g - 1).re)) + abs(float((g.conj() * g).im))
        if self.weight is None:
            dev = g.dagger() @ g - RMatrix.identity(g.rows, g.ring)
            return dev.max_abs()
        dev = g.dagger() @ self.weight @ g - self.weight
        return dev.max_abs()


def transition(point):
    """Patch-gluing group element at an overlap point (|x_last| < 1).

    The contracts are: conj(g) g = 1 at level 1; g^dag g = 1 for the split
    realization at levels 2-3; g^dag sigma3 g = sigma3 and
    g^dag Sigma3 g = Sigma3 for the complex realization at levels 2 and 3.
    The two-leaf map (1, II) has disjoint patches and no transition.

    g is the leading fiber_dim block of the lower-patch section numerator
    divided by sqrt(1 - x_last^2); the sections then satisfy
    section_lower = section_upper @ g exactly.
    """
    lvl, real = point.level, point.realization
    if (lvl, real) == (1, "II"):
        raise ValueError("the two-leaf map has no patch overlap")
    x = point.coords
    rho2 = 1 - x[-1] * x[-1]
    if float(rho2) <= EPS_NULL:
        raise ValueError("overlap requires |x_last| < 1 (got %r)" % (x[-1],))
    rho = math.sqrt(float(rho2))

    case = case_info(lvl, real)
    fd = case.fiber_dim
    w, _ = section_linear_part(point, "lower")
    top = RMatrix.from_components(tuple([row[:fd] for row in g[:fd]] for g in w.components()),
                                  w.ring)
    if lvl == 1:
        g = top.entry(0, 0) * (1.0 / rho)
        return TransitionFn(lvl, real, g, None, "scalar")
    g = top.scale(1.0 / rho)
    if real == "I":
        return TransitionFn(lvl, real, g, None, "matrix")
    weight = gammarep.pauli(3) if lvl == 2 else gammarep.sigma3_block(4)
    return TransitionFn(lvl, real, g, weight, "matrix")


def _transition_value(point, coords):
    pt = BasePoint(point.level, point.realization, coords, point.patch)
    v = transition(pt).value
    if (point.level, point.realization) == (3, "II") and isinstance(v, RMatrix):
        v = gammarep.to_complex(v)
    return v


def gluing_check(point, h=DEFAULT_H, pairs=4, rng=None):
    """Residuals of the patch-gluing identities at an overlap point.

    Connection: A' = g^dag A g - u g^dag dg, decorated with the weight
    matrix where the realization carries one (sigma3 at (2, II), Sigma3 at
    (3, II); scalar conjugation at level 1).  Curvature: F' = g^dag F g with
    the same decoration; at level 1 the field strength is patch-independent.
    dg is evaluated by central finite differences.
    Returns {"connection": r1, "curvature": r2}, each the worst residual
    (NaN if any residual is NaN).
    """
    lvl, real = point.level, point.realization
    tangents = tangent_basis(point)
    g = _transition_value(point, point.coords)
    upper = connection_closed(point, "upper")
    lower = connection_closed(point, "lower")
    u, _, decor = _case_gauge(lvl, real)

    if lvl > 1:
        gd = g.dagger()
        gd_decor = gd @ decor if decor is not None else gd

    conn_devs = []
    for t in tangents:
        coords_p = [c + h * ti for c, ti in zip(point.coords, t)]
        coords_m = [c - h * ti for c, ti in zip(point.coords, t)]
        gp, gm = _transition_value(point, coords_p), _transition_value(point, coords_m)
        a_up = connection_contraction(point, t, "upper", closed=upper)
        a_lo = connection_contraction(point, t, "lower", closed=lower)
        if lvl == 1:
            dg = (gp - gm) * (1.0 / (2 * h))
            expr = -(u * (g.conj() * dg))  # real on the constraint surface
            dev = abs(float(a_lo - a_up - expr.re)) + abs(float(expr.im))
        else:
            dg = (gp - gm).scale(1.0 / (2 * h))
            rhs = gd_decor @ a_up @ g - (gd_decor @ dg).scale(u)
            lhs = a_lo if decor is None else decor @ a_lo
            dev = _value_dev(lhs, rhs)
        conn_devs.append(dev)

    rng = rng or random.Random(1234)
    drawn = [(rng.choice(tangents), rng.choice(tangents)) for _ in range(pairs)]

    def contractions(patch):
        # one patch at a time: only one set of closed components is alive
        closed = curvature_closed(point, patch)
        return [curvature_contraction(point, t, v, patch, closed=closed) for t, v in drawn]

    curv_devs = []
    for fu, fl in zip(contractions("upper"), contractions("lower")):
        if lvl == 1:
            curv_devs.append(abs(float(fu - fl)))
        else:
            lhs = fl if decor is None else decor @ fl
            rhs = gd_decor @ fu @ g
            curv_devs.append(_value_dev(lhs, rhs))
    return {"connection": worst_of(conn_devs), "curvature": worst_of(curv_devs)}


# ---------------------------------------------------------------------------
# light cone and radial form (split level 1)

def lightcone_probe(v, eps=EPS_NULL):
    """Classify r^2 = x1^2 - x2^2 + x3^2 for the split level-1 metric."""
    r2 = v[0] * v[0] - v[1] * v[1] + v[2] * v[2]
    fr2 = float(r2)
    if abs(fr2) < eps:
        kind = "null"
    elif fr2 > 0:
        kind = "spacelike"
    else:
        kind = "timelike"
    return {"kind": kind, "r_squared": r2}

def curvature_radial(v, eps=EPS_NULL):
    """Field strength of the split level-1 monopole away from unit radius:
    F_ij = -(1/(2 r^3)) eps_ijk x^k (lowered epsilon).  Refuses points within
    eps of the light cone, where the field is singular."""
    probe = lightcone_probe(v, eps)
    r2 = float(probe["r_squared"])
    if probe["kind"] == "null" or r2 <= 0:
        raise ValueError("radial curvature undefined at or inside the light cone")
    r3 = r2 * math.sqrt(r2)
    out = {}
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            acc = 0.0
            for k in (1, 2, 3):
                e = -gammarep.levi_civita(i, j, k)
                if e:
                    acc += e * float(v[k - 1])
            out[(i, j)] = -acc / (2 * r3)
    return out


# ---------------------------------------------------------------------------
# generator-span diagnostics

def _flat_real(m):
    """The real components of m's entries as floats, entry by entry in row
    order (re, im of each over a binarion ring)."""
    return [float(c) for rows in zip(*m.components()) for cell in zip(*rows) for c in cell]


def _gram_elimination(basis_vecs):
    """Gauss-Jordan elimination with partial pivoting of the Gram matrix of
    the basis vectors, recorded as the row operations applied (one
    (col, pivot row, [(row, factor), ...]) per eliminated column) and the
    resulting diagonal, so that many right-hand sides reuse one factoring."""
    k = len(basis_vecs)
    gram = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = sum(a * b for a, b in zip(basis_vecs[i], basis_vecs[j]))
    steps = []
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(gram[r][col]))
        if abs(gram[piv][col]) < 1e-14:
            continue
        gram[col], gram[piv] = gram[piv], gram[col]
        inv = 1.0 / gram[col][col]
        factors = []
        for r in range(k):
            if r == col:
                continue
            f = gram[r][col] * inv
            gram[r] = [x - f * y for x, y in zip(gram[r], gram[col])]
            factors.append((r, f))
        steps.append((col, piv, factors))
    return steps, [gram[i][i] for i in range(k)]


def _lstsq(basis_vecs, elimination, target):
    """Largest residual component of the least-squares fit of target."""
    steps, diag = elimination
    rhs = [sum(a * b for a, b in zip(v, target)) for v in basis_vecs]
    for col, piv, factors in steps:
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r, f in factors:
            rhs[r] = rhs[r] - f * rhs[col]
    coef = [r / d if abs(d) > 1e-14 else 0.0 for r, d in zip(rhs, diag)]
    resid = list(target)
    for c, v in zip(coef, basis_vecs):
        resid = [r - c * b for r, b in zip(resid, v)]
    return worst_of(abs(r) for r in resid)


def span_residual(point, patch=None):
    """Least-squares residual of each connection component against the
    declared generator span (sigma or tau triple at level 2, the 28
    antisymmetric-pair generators at level 3)."""
    lvl, real = point.level, point.realization
    comps = connection_closed(point, patch)
    if lvl == 1:
        return 0.0
    if lvl == 2:
        basis = _level2_algebra(real, False)[1]
    else:
        gens = gammarep.build_weyl_generators(real, patch == "lower")["sigmas"]
        basis = [gens[(a, b)] for a in range(1, 9) for b in range(a + 1, 9)]
    bvecs = [_flat_real(b) for b in basis]
    elimination = _gram_elimination(bvecs)
    return worst_of(_lstsq(bvecs, elimination, _flat_real(m)) for m in comps.values()
                    if isinstance(m, RMatrix) and not m.is_zero())


# ---------------------------------------------------------------------------
# grid sampling support (CLI)

def field_components(point, patch=None):
    """Flattened connection and curvature components at a point, as
    (names, values) with a stable ordering, for grid export."""
    patch = patch or point.patch
    a = connection_closed(point, patch)
    f = curvature_closed(point, patch)
    names, values = [], []

    def emit(prefix, val):
        if isinstance(val, RMatrix):
            grids = val.components()
            suffixes = ("_re", "_im") if len(grids) == 2 else ("",)
            for i in range(val.rows):
                for j in range(val.cols):
                    for suffix, g in zip(suffixes, grids):
                        names.append("%s_%d%d%s" % (prefix, i, j, suffix))
                        values.append(float(g[i][j]))
        else:
            names.append(prefix)
            values.append(float(val))

    for idx in sorted(a):
        emit("A_%d" % idx, a[idx])
    for (i, j) in sorted(f):
        emit("F_%d%d" % (i, j), f[(i, j)])
    return names, values
