"""Canonical connections, curvatures and transition functions.

Closed forms for every map and patch, together with two evaluations of the
defining derivative -u s(x)^dag W ds(x) along the inversion sections:
central finite differences, and the exact derivative of the section shape
(a matrix w linear in x over sqrt(2n)), which stays rational on rational
input.  Gluing identities and gauge covariance are checked at overlap points
with the transition functions, exact where 1 - x_last^2 is a rational square.

Sign conventions.  The closed component formulas are fixed by requiring
exact agreement with the canonical-connection derivative of the inversion
sections; three-index epsilon symbols therefore carry all indices lowered
with the relevant metric (at level 1 both metrics have determinant -1, so
the lowered symbol is minus the Levi-Civita symbol).  Curvature components
are the ambient derivatives of the closed connection plus the commutator
term -u^-1 A wedge A, which is c [A, A] with c = -j on the split side and
c = +i on the complex side.

At levels 2 and 3 the commutator term has a closed form, linear in the
connection.  With n = 1 + s x_last, y = x / n and y.y = sum_k eta_k y_k^2
over the free coordinates (eta the base metric), and T_mn the generator
that A_m carries along x_n (the 't Hooft combination sum_i eta_mni e_i at
level 2, sigma_mn at level 3):

    level 2:  c [A_m, A_n] = +-(y.y / 2) T_mn + eta_n y_n A_m - eta_m y_m A_n
              (+ for I, - for II);
    level 3:  c [A_m, A_n] = (y.y) sigma_mn - eta_n y_n A_m + eta_m y_m A_n.

Both closed forms are kept as {k: coefficient} maps over the generators,
the curvature evaluated along a static per-case plan of its slots and
keys (_curvature_plan), and a contraction with tangents is one linear
combination of them, so a component matrix is the contraction along
e_a (and e_b), none kept on its own.  field_components writes each
coefficient times its flattened generator (_flat_basis) into the export
row as soon as it is made.  The closed contraction lies in the generator
span by construction, so its agreement with the exact section derivative
is also the check that the derivative lies in that span.  The numeric
curvature (_curvature_hat) differences the connection maps at shifted base
points in algebra coordinates too, but takes the matrix commutator of the
unshifted contractions, so the two sides of the curvature check share no
commutator code.  The section numerator and the transition's numerator
are affine in x, w = C + sum x_a M_a with static slopes M_a
(hopfmaps.section_slopes, _transition_affine), so a first derivative
along t is sum t_a M_a: each derivative evaluates its numerator at x
only, once per point (_connection_hat, _transition_step).  Shifted
points are bare coordinates, no BasePoint.

The level-2 and level-3 checks read every identity divided by u:

    connection:  A / u = -D s^dag W ds;
    curvature:   F / u = d(A / u) - [A / u, A / u], since c u = -1 in
                 both realizations;
    gluing:      A' / u = g^dag decor (A g / u - dg).

The closed side is contracted over rho_k = sigma_k / u (_rho), made from
sigma_k's own cells.  At (3, II) the sections, the transition,
both weights and every rho_k are real, so those checks run over the reals.
Only the public connection_numeric multiplies by u, which swaps or
negates components (ringmat.by_unit): exact, so a residual read on the hat
values has the bits of one read on u times them.
"""

from fractions import Fraction
import functools
import itertools
import math
import random

from .splitnum import reciprocal, root
from .ringmat import (RMatrix, RING_REAL, by_unit, commutator, leading_rows, lincomb,
                      lincomb_dev, max_abs_diff, worst_of)
from . import gammarep
from .hopfmaps import (case_info, section_linear_at, section_slopes, patch_sign, require_patch,
                       _check_fiber, _section_family)

__all__ = [
    "tangent_basis", "lowered_epsilon", "connection_closed", "connection_contraction",
    "connection_numeric", "connection_residual",
    "curvature_closed", "curvature_contraction",
    "curvature_residual", "transition", "transition_at", "gluing_check",
    "field_components",
]

EPS_NULL = 1e-9
DEFAULT_H = 1e-5


# ---------------------------------------------------------------------------
# per-case static data

@functools.lru_cache(maxsize=None)
def _case_gauge(level, realization):
    """(unit u, weight W, undecorate D) for A = -u D s^dag W ds: u the first
    map's unit, W the map's weight and D its fiber weight (None where that
    is the identity or the fiber a phase), both in the case's own ring,
    which is the reals at (3, II)."""
    case = case_info(level, realization)
    D = None if realization == "I" or level == 1 else case.fiber_weight()
    return case_info(1, realization).unit, case.weight(), D


@functools.lru_cache(maxsize=None)
def _gauge_algebra(level, realization, bar):
    """(basis, T) of the connection at levels 2-3.  The basis is the
    generator triple e_i (split Pauli matrices for I, the tau triple for II)
    at level 2 and the 28 sigma_ab, a < b, at level 3.  T holds, for every
    ordered pair of free indices, T_mn = -T_nm in basis coordinates
    {k: value}: the 't Hooft combination sum_i eta_mni e_i (level 2) or
    sigma_mn (level 3); T_mm is empty."""
    free = range(1, 5) if level == 2 else range(1, 9)
    pairs = {(m, nn): {} for m in free for nn in free}
    if level == 2:
        tab = gammarep.build_thooft(realization, bar)
        for (m, nn, i), v in tab.items():
            pairs[(m, nn)][i - 1] = v
        return gammarep.triple(realization).gammas, pairs
    gens = gammarep.build_weyl_generators(realization, bar)["sigmas"]
    order = sorted(gens)
    for k, (m, nn) in enumerate(order):
        pairs[(m, nn)][k], pairs[(nn, m)][k] = 1, -1
    return tuple(gens[p] for p in order), pairs


@functools.lru_cache(maxsize=None)
def _rho(level, realization, bar):
    """rho_k = sigma_k / u over the basis sigma_k of _gauge_algebra, on
    sigma_k's own cells (ringmat.by_unit): the generators of the hat values
    A / u and F / u.  Where the case's ring is the reals, (3, II), every
    sigma_k is i times a real matrix, so rho_k is the grid of sigma_k's
    imaginary components over the reals."""
    basis = _gauge_algebra(level, realization, bar)[0]
    if case_info(level, realization).ring == RING_REAL:
        return tuple(RMatrix(m.components()[1], RING_REAL) for m in basis)
    return tuple(by_unit(m, inverse=True) for m in basis)


@functools.lru_cache(maxsize=None)
def _thooft_terms(level, realization, bar):
    """((m, ((k, n', T_mn'[k]), ...)), ...) over the free m, each row in
    increasing k: at both levels every (m, k) has exactly one n' with
    T_mn'[k] != 0, and at level 3 k increases with n'."""
    pairs = _gauge_algebra(level, realization, bar)[1]
    free = range(1, 5) if level == 2 else range(1, 9)
    return tuple((m, sorted((k, nn, v) for nn in free for k, v in pairs[(m, nn)].items() if v))
                 for m in free)


_PLANS = {}  # each distinct plan once: the four level-3 plans are equal


@functools.lru_cache(maxsize=None)
def _curvature_plan(level, realization, bar):
    """The F slots (m, n), m < n, in sorted order, as (m, n, entries): the
    (k, T_mn[k] or None, k in A_m, k in A_n) of its keys: T_mn's, then
    A_m's new ones, then A_n's.  entries is None at (m, last): s/n A_m.
    Equal plans are one object (_PLANS)."""
    pairs = _gauge_algebra(level, realization, bar)[1]
    keys = {m: [k for k, _, _ in row] for m, row in _thooft_terms(level, realization, bar)}
    last, shared = len(keys) + 1, {}  # one tuple per distinct entry, shared by the slots
    plan = tuple((m, nn, None if nn == last else tuple(shared.setdefault(e, e) for e in (
        (k, pairs[(m, nn)].get(k), k in keys[m], k in keys[nn])
        for k in dict.fromkeys([*pairs[(m, nn)], *keys[m], *keys[nn]]))))
        for m in keys for nn in range(m + 1, last + 1))
    return _PLANS.setdefault(plan, plan)


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


# ---------------------------------------------------------------------------
# closed connection forms

def _algebra_connection(level, realization, patch, x):
    """The closed connection at levels 2-3 in algebra coordinates, at any x
    require_patch accepts: off the hyperboloid, a numerator linear in x over n.

    Returns (s, 1/n, y, basis, plan, coeffs) with s, n from require_patch,
    y = x / n over the free coordinates, basis from _gauge_algebra, plan
    the case's _curvature_plan, and A_m = sum_k coeffs[m][k] basis[k] for
    the free indices m (the last component vanishes), with A_m[k] =
    pref T_mn'[k] x_n' over the one n' of each (m, k) (_thooft_terms):
    pref = -+1/(2n) at level 2 (- for I) and 1/n at level 3.
    """
    s, n = require_patch(x, patch)
    inv_n = reciprocal(n)
    bar = patch == "lower"
    basis = _gauge_algebra(level, realization, bar)[0]
    y = [xi * inv_n for xi in x[:-1]]
    pref = inv_n if level == 3 else inv_n / -2 if realization == "I" else inv_n / 2
    coeffs = {m: {k: v * pref * x[nn - 1] for k, nn, v in row}
              for m, row in _thooft_terms(level, realization, bar)}
    return s, inv_n, y, basis, _curvature_plan(level, realization, bar), coeffs


def _contract_pair(basis, weighted):
    """(coefficients, basis) of sum w cm over (w, {k: coefficient}) pairs,
    added up in a list with one slot per basis matrix (lincomb skips zeros)."""
    acc = [0] * len(basis)
    for w, cm in weighted:
        for k, c in cm.items():
            acc[k] += w * c
    return acc, basis


def lowered_epsilon(x, i, j):
    """sum_k -eps_ijk x_k: the Levi-Civita symbol with its indices lowered by
    a level-1 base metric (both have determinant -1), contracted with x."""
    acc = 0 * x[0]
    for k in (1, 2, 3):
        e = -gammarep.levi_civita(i, j, k)
        if e:
            acc = acc + e * x[k - 1]
    return acc


def connection_closed(point, patch=None, x=None):
    """The closed connection of the point's map on the patch (the point's
    unless given), at the point or at any other x require_patch accepts:
    {a: scalar}, a = 1..3, at level 1; at levels 2-3 (basis, {m: {k:
    coefficient}}), A_m = sum_k coefficient basis[k] over the free m, the
    last component vanishing on both patches."""
    patch, x = patch or point.patch, point.coords if x is None else x
    if point.level > 1:
        alg = _algebra_connection(point.level, point.realization, patch, x)
        return alg[3], alg[5]
    s, n = require_patch(x, patch)
    sign = s if point.realization == "I" else -1
    return {i: sign * lowered_epsilon(x, 3, i) / (2 * n) for i in (1, 2, 3)}


def connection_contraction(point, t, patch=None, closed=None):
    """sum_a A_a t^a for a tangent direction t, from the closed connection
    as connection_closed(point, patch) gives it (computed unless given)."""
    comps = closed if closed is not None else connection_closed(point, patch)
    if point.level == 1:
        return sum(v * t[a - 1] for a, v in comps.items())
    return lincomb(*_connection_pair(t, comps))


def _connection_pair(t, closed):
    """The (coefficients, basis) of connection_contraction at levels 2-3."""
    return _contract_pair(closed[0], ((t[m - 1], cm) for m, cm in closed[1].items()))


# ---------------------------------------------------------------------------
# numeric connection along sections

def _connection_hat(point, patch, h, mode, section, fiber, tangents):
    """The connection contractions over u, -D s^dag W (d_t s), as lincomb's
    (coefficients, generators) aligned with the tangents (1 x 1 matrices
    for spinor sections and at level 1).

    The section is w / sqrt(2n), w = C + sum x_a M_a affine in x, so
    w(x + e t) = w0 + e sum t_a M_a for any step e, the slopes M_a static
    (section_slopes).  Per point w is evaluated once, at x, and the fold
    -D w0^dag W (D the fiber weight where the case has one; w0 times the
    fiber column for spinor sections, without D) is multiplied into w0 and
    each M_a (each M_a times the column for spinor sections), giving G0
    and G_a; per tangent the value is the combination of G0, G_1 ... G_d
    with coefficients (c0, c1 t_a).  mode="fd" is the central difference at
    x +- h t (the independent oracle), mode="analytic" the exact
    derivative, rational on rational input; they differ only in c0, c1
    and the fold's scalar.  Everything is in the case's own ring, so the
    (3, II) values are real.
    """
    lvl, real, x = point.level, point.realization, point.coords
    _, W, D = _case_gauge(lvl, real)
    tangents = tangents if tangents is not None else tangent_basis(point)

    w0, n0 = section_linear_at(lvl, real, x, patch)
    slopes = section_slopes(lvl, real, patch)
    v0, col = w0, None
    if section == "spinor":
        if fiber is None:
            raise ValueError("spinor-section mode needs a fiber")
        case = case_info(lvl, real)
        col = RMatrix([[c] for c in _check_fiber(case, point, fiber)], case.ring)
        v0 = w0 @ col
        slopes = [m @ col for m in slopes]

    # tangent-independent, formed once (@ groups to the left anyway)
    fold = v0.dagger() @ W
    if D is not None and col is None:
        fold = D @ fold
    sign = patch_sign(patch)
    if mode == "fd":
        fold = fold.scale(-(1.0 / (2.0 * h * math.sqrt(2.0 * n0))))
    elif mode == "analytic":
        p2 = (Fraction(1, 2) if not isinstance(n0, float) else 0.5) / n0
        fold = fold.scale(-p2)
    else:
        raise ValueError(mode)

    gens = [fold @ v0] + [fold @ m for m in slopes]
    out = []
    for t in tangents:
        if mode == "fd":
            # w(x +- h t) = w0 +- h sum t_a M_a, over sqrt(2 n(x +- h t))
            a, b = (1.0 / math.sqrt(2.0 * (1 + sign * (x[-1] + e * t[-1]))) for e in (h, -h))
            c0, c1 = a - b, h * (a + b)
        else:
            # sqrt(2n) d_t (w / sqrt(2n)) = sum t_a M_a - (sign t_last / 2n) w0
            c0, c1 = -(sign * t[-1] * p2), 1
        out.append(([c0] + [c1 * ta for ta in t], gens))
    return out


def connection_numeric(point, patch=None, h=DEFAULT_H, mode="fd",
                       section="matrix", fiber=None, tangents=None):
    """Connection contractions -u D s^dag W (d_t s) along tangent directions:
    u times the lincomb of each _connection_hat pair, lifted to the complex
    ring at (3, II).
    section="spinor" contracts the matrix section with a fiber column first,
    the fiber as invert takes it and checked as invert checks it
    (hopfmaps._check_fiber: at level 1 the bare phase, or a list of one, of
    unit norm); at level 3 that value vanishes identically by the reality
    constraint of the fiber.

    Returns a list of values aligned with the tangent directions; entries
    are scalars at level 1 (and for spinor sections), matrices otherwise.
    """
    out = [by_unit(lincomb(*p)) for p in _connection_hat(point, patch or point.patch, h, mode,
                                                         section, fiber, tangents)]
    return [m.entry(0, 0) if m.rows == 1 and m.cols == 1 else m for m in out]


def _value_dev(a, b):
    """max |a - b| over the real components (NaN if any is NaN); matrices
    through ringmat.max_abs_diff."""
    if isinstance(a, RMatrix):
        return max_abs_diff(a, b)
    d = a - b
    comps = (d.re, d.im) if hasattr(d, "re") else (d,)
    return worst_of(abs(float(c)) for c in comps)


def _hat_coeffs(point, patch, comps):
    """comps, as connection_closed or curvature_closed give them, over
    rho = sigma / u (_rho) at levels 2-3, so their contractions are the hat
    values A / u and F / u; the level-1 scalars as they are."""
    if point.level == 1:
        return comps
    return _rho(point.level, point.realization, patch == "lower"), comps[1]


def connection_residual(point, patch=None, h=DEFAULT_H, mode="fd"):
    """Max deviation between the closed form and the section derivative
    (NaN if any deviation is NaN): at levels 2-3 between the hat values,
    the contraction over rho and _connection_hat, read from the two linear
    combinations (ringmat.lincomb_dev); at level 1 between the scalars."""
    patch = patch or point.patch
    tangents = tangent_basis(point)
    closed = _hat_coeffs(point, patch, connection_closed(point, patch))
    if point.level == 1:
        numeric = connection_numeric(point, patch, h=h, mode=mode, tangents=tangents)
        return worst_of(_value_dev(num, connection_contraction(point, t, patch, closed=closed))
                        for t, num in zip(tangents, numeric))
    return worst_of(lincomb_dev(num, _connection_pair(t, closed)) for t, num in zip(
        tangents, _connection_hat(point, patch, h, mode, "matrix", None, tangents)))


# ---------------------------------------------------------------------------
# curvature

def _curvature_values(point, alg, first=0):
    """Levels 2-3: yields (j, k, F_mn[k]) along _curvature_plan, j counting
    slots from first: F_mn = alpha T_mn + w_n A_m - w_m A_n (from alpha
    T_mn[k] or the int 0) for free m < n and F_{m,last} = (s/n) A_m, the
    ambient derivative of the connection plus the commutator term of the
    module docstring: alpha = +-(1/n + y.y/2) (+ for I), w_k = eta_k y_k at
    level 2; alpha = y.y - 2/n, w_k = -eta_k y_k at level 3."""
    s, inv_n, y, basis, plan, coeffs = alg
    eta = case_info(point.level, point.realization).base_metric.signature
    yy = sum(e * yk * yk for e, yk in zip(eta, y))
    if point.level == 2:
        alpha = (1 if point.realization == "I" else -1) * (inv_n + yy / 2)
        w = [e * yk for e, yk in zip(eta, y)]
    else:
        alpha = yy - 2 * inv_n
        w = [-e * yk for e, yk in zip(eta, y)]
    sn = s * inv_n
    for j, (m, nn, entries) in enumerate(plan, first):
        am = coeffs[m]
        if entries is None:
            yield from ((j, k, sn * c) for k, c in am.items())
            continue
        an, wn, wm = coeffs[nn], w[nn - 1], w[m - 1]
        for k, t, inm, inn in entries:
            c = 0 if t is None else alpha * t
            if inm:
                c = c + wn * am[k]
            if inn:
                c = c - wm * an[k]
            yield j, k, c


def _curvature_terms(point, alg):
    """Levels 2-3: the closed curvature (_curvature_values) as
    {(m, n): {k: coefficient}} over the basis, in plan order."""
    slots = [((m, nn), {}) for m, nn, _ in alg[4]]
    for j, k, c in _curvature_values(point, alg):
        slots[j][1][k] = c
    return dict(slots)


def curvature_closed(point, patch=None):
    """The closed curvature of the point's map on the patch (the point's
    unless given), ambient convention: {(a, b): scalar}, a < b, at level 1,
    (basis, _curvature_terms) at levels 2-3.

    These are the exact ambient derivatives of connection_closed plus the
    commutator term, so contractions with tangent pairs give the intrinsic
    curvature 2-form.  At levels 2-3 the commutator term is in closed form.
    Level 1 of the split realization refuses points too close to the light
    cone of the 3-metric.
    """
    patch, x = patch or point.patch, point.coords
    if point.level > 1:
        alg = _algebra_connection(point.level, point.realization, patch, x)
        return alg[3], _curvature_terms(point, alg)
    s, _ = require_patch(x, patch)
    if point.realization == "I":
        r2 = x[0] * x[0] - x[1] * x[1] + x[2] * x[2]
        if abs(float(r2)) < EPS_NULL:
            raise ValueError("curvature undefined within %g of the light cone" % EPS_NULL)
        sign = -1
    else:
        sign = s
    return {(i, j): sign * lowered_epsilon(x, i, j) / 2
            for i in (1, 2, 3) for j in range(i + 1, 4)}


def curvature_contraction(point, t, v, patch=None, closed=None):
    """F(t, v) = sum_{a<b} F_ab (t^a v^b - t^b v^a), from the closed curvature
    as curvature_closed(point, patch) gives it (computed unless given)."""
    comps = closed if closed is not None else curvature_closed(point, patch)
    if point.level == 1:
        return sum(f * (t[a - 1] * v[b - 1] - t[b - 1] * v[a - 1]) for (a, b), f in comps.items())
    return lincomb(*_curvature_pair(t, v, comps))


def _curvature_pair(t, v, closed):
    """The (coefficients, basis) of curvature_contraction at levels 2-3."""
    weights = (t[a - 1] * v[b - 1] - t[b - 1] * v[a - 1] for a, b in closed[1])
    return _contract_pair(closed[0], zip(weights, closed[1].values()))


def _curvature_hat(point, t, v, patch, h):
    """F(t, v) / u at levels 2-3 as lincomb's (coefficients, basis), the
    scalar F(t, v) at level 1: dA(t, v) by central differences of the closed
    connection, plus the exact commutator term.  The connection maps at
    x +- h t, read along v, and at x +- h v, along t, are weighted by
    +-1/(2h) and summed in algebra coordinates, over rho at levels 2-3.
    There F / u = d(A / u) - [A(t) / u, A(v) / u], since F = dA + c [A, A]
    with c u = -1 in both realizations; the matrix commutator of the
    unshifted contractions over rho is a term of coefficient -1."""
    inv = 1.0 / (2 * h)
    weighted = []
    for step, d, along, w in ((h, t, v, inv), (-h, t, v, -inv), (h, v, t, -inv), (-h, v, t, inv)):
        comps = connection_closed(point, patch, [c + step * di for c, di in zip(point.coords, d)])
        coeffs = comps if point.level == 1 else comps[1]
        weighted += [(w * along[m - 1], cm) for m, cm in coeffs.items()]
    if point.level == 1:
        return sum(w * a for w, a in weighted)
    here = _hat_coeffs(point, patch, connection_closed(point, patch))
    at, av = (connection_contraction(point, d, patch, closed=here) for d in (t, v))
    coeffs, basis = _contract_pair(here[0], weighted)
    return coeffs + [-1], basis + (commutator(at, av),)


def curvature_residual(point, patch=None, h=DEFAULT_H, pairs=6, rng=None):
    """Max deviation closed-vs-numeric over random pairs of distinct
    tangents (NaN if any deviation is NaN): the contraction over rho
    against _curvature_hat at levels 2-3, read from the two linear
    combinations (ringmat.lincomb_dev), the scalars at level 1."""
    rng = rng or random.Random(0)
    patch = patch or point.patch
    tangents = tangent_basis(point)
    closed = _hat_coeffs(point, patch, curvature_closed(point, patch))
    devs = []
    for _ in range(pairs):
        t, v = rng.sample(tangents, 2)
        cl = (curvature_contraction(point, t, v, patch, closed=closed) if point.level == 1
              else _curvature_pair(t, v, closed))
        nu = _curvature_hat(point, t, v, patch, h)
        devs.append(_value_dev(nu, cl) if point.level == 1 else lincomb_dev(nu, cl))
    return worst_of(devs)


# ---------------------------------------------------------------------------
# transition functions and gluing

class TransitionFn:
    """Transition function at an overlap point, with its unitarity contract."""

    __slots__ = ("level", "realization", "value", "weight")

    def __init__(self, level, realization, value, weight):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def unitarity_residual(self):
        g = self.value
        if self.level == 1:
            return _value_dev(g.conj() * g, 1)
        if self.weight is None:
            return _value_dev(g.dagger() @ g, RMatrix.identity(g.rows, g.ring))
        return _value_dev(g.dagger() @ self.weight @ g, self.weight)


def transition(point):
    """Patch-gluing group element at an overlap point (|x_last| < 1).

    The contracts are: conj(g) g = 1 at level 1; g^dag g = 1 for the split
    realization at levels 2-3; g^dag sigma3 g = sigma3 and
    g^dag Sigma3 g = Sigma3 for the complex realization at levels 2 and 3.
    The two-leaf map (1, II) has disjoint patches and no transition.
    The value is transition_at of the point's coordinates.
    """
    lvl, real = point.level, point.realization
    weight = _case_gauge(lvl, real)[2]
    return TransitionFn(lvl, real, transition_at(lvl, real, point.coords), weight)


@functools.lru_cache(maxsize=None)
def _transition_affine(level, realization):
    """(family, slopes) of _transition_top: the leading fiber_dim rows of
    the lower-patch section's AffineFamily (hopfmaps._section_family) and
    slopes (section_slopes), cut by ringmat.leading_rows, which shares
    their cells."""
    return leading_rows(case_info(level, realization).fiber_dim,
                        _section_family(level, realization, "lower"),
                        section_slopes(level, realization, "lower"))


def _transition_top(level, realization, coords):
    """The leading fiber_dim rows of the lower-patch section numerator at
    the coordinates, from their own family (_transition_affine)."""
    return _transition_affine(level, realization)[0].at(coords)


def _inv_rho(x_last):
    """1 / sqrt(1 - x_last^2), exact where 1 - x_last^2 is a rational square
    (splitnum.root); refused within EPS_NULL of |x_last| = 1."""
    rho2 = 1 - x_last * x_last
    if float(rho2) <= EPS_NULL:
        raise ValueError("overlap requires |x_last| < 1 (got %r)" % (x_last,))
    return reciprocal(root(rho2))


def transition_at(level, realization, coords, top=None):
    """transition's value at bare coordinates, also off the hyperboloid:
    _transition_top (computed unless given) over sqrt(1 - x_last^2), a
    scalar at level 1, so that section_lower = section_upper @ g exactly.
    A ValueError for the two-leaf map and within EPS_NULL of |x_last| = 1."""
    if (level, realization) == (1, "II"):
        raise ValueError("the two-leaf map has no patch overlap")
    inv_rho = _inv_rho(coords[-1])
    top = _transition_top(level, realization, coords) if top is None else top
    return top.entry(0, 0) * inv_rho if level == 1 else top.scale(inv_rho)


def _transition_step(level, realization, x, top0, t, h):
    """g(x + h t) - g(x - h t) as a matrix (1 x 1 at level 1), top0 the
    _transition_top at x: top is affine, so top(x +- h t) =
    top0 +- h sum t_a M_a over its static slopes M_a (_transition_affine),
    and the step is one lincomb of top0 and the M_a."""
    a, b = (_inv_rho(x[-1] + e * t[-1]) for e in (h, -h))
    c1, slopes = h * (a + b), _transition_affine(level, realization)[1]
    return lincomb([a - b] + [c1 * ta for ta in t], (top0, *slopes))


def gluing_check(point, h=DEFAULT_H, pairs=4, rng=None):
    """Residuals of the patch-gluing identities at an overlap point.

    Connection: A' = g^dag A g - u g^dag dg, decorated with the weight
    matrix where the realization carries one (sigma3 at (2, II), Sigma3 at
    (3, II); scalar conjugation at level 1).  Curvature: F' = g^dag F g with
    the same decoration; at level 1 the field strength is patch-independent.
    dg is the central difference of g at x +- h t (_transition_step, from
    the numerator at x, which g shares, and its static slopes).  At levels
    2-3 both identities are read divided by u, on the contractions over
    rho (_hat_coeffs): the connection's right side is
    g^dag decor (A g / u - dg), and at (3, II) every matrix is real.
    Returns {"connection": r1, "curvature": r2}, each the worst residual
    (NaN if any residual is NaN).
    """
    lvl, real, x = point.level, point.realization, point.coords
    tangents = tangent_basis(point)
    top0 = _transition_top(lvl, real, x)
    g = transition_at(lvl, real, x, top0)
    upper, lower = (_hat_coeffs(point, patch, connection_closed(point, patch))
                    for patch in ("upper", "lower"))
    u, _, decor = _case_gauge(lvl, real)

    if lvl > 1:
        gd_decor = g.dagger() if decor is None else g.dagger() @ decor
        inv_2h = 1.0 / (2 * h)

    conn_devs = []
    for t in tangents:
        step = _transition_step(lvl, real, x, top0, t, h)
        a_up = connection_contraction(point, t, "upper", closed=upper)
        a_lo = connection_contraction(point, t, "lower", closed=lower)
        if lvl == 1:
            dg = step.entry(0, 0) * (1.0 / (2 * h))
            expr = -(u * (g.conj() * dg))  # real on the constraint surface
            dev = _value_dev(a_lo - a_up, expr)
        else:
            rhs = gd_decor @ (a_up @ g - step.scale(inv_2h))
            lhs = a_lo if decor is None else decor @ a_lo
            dev = _value_dev(lhs, rhs)
        conn_devs.append(dev)

    rng = rng or random.Random(1234)
    drawn = [(rng.choice(tangents), rng.choice(tangents)) for _ in range(pairs)]

    curv = [_hat_coeffs(point, patch, curvature_closed(point, patch))
            for patch in ("upper", "lower")]
    curv_devs = []
    for t, v in drawn:
        fu, fl = (curvature_contraction(point, t, v, closed=c) for c in curv)
        if lvl == 1:
            curv_devs.append(_value_dev(fl, fu))
        else:
            curv_devs.append(_value_dev(fl if decor is None else decor @ fl, gd_decor @ fu @ g))
    return {"connection": worst_of(conn_devs), "curvature": worst_of(curv_devs)}


# ---------------------------------------------------------------------------
# grid sampling support (CLI)

@functools.lru_cache(maxsize=None)
def _flat_basis(level, realization, bar):
    """The generator basis of the connection at levels 2-3, each generator
    read from its components() as the nonzero (index, float value) pairs of
    its real components, flattened entry by entry in row order (re, im of
    each over a binarion ring)."""
    flat = itertools.chain.from_iterable
    return [[(k, v) for k, v in enumerate(map(float, flat(zip(*map(flat, b.components()))))) if v]
            for b in _gauge_algebra(level, realization, bar)[0]]


# One entry: a grid samples one case, and a level-3 case has 5,760 names.
@functools.lru_cache(maxsize=1)
def _field_names(level, realization):
    """Column names of field_components: A_a, then F_ab (a < b), suffixed at
    levels 2-3 with the entry's row and column and _re/_im."""
    dim = case_info(level, realization).base_dim
    names = ["A_%d" % a for a in range(1, dim + 1)]
    names += ["F_%d%d" % (a, b) for a in range(1, dim + 1) for b in range(a + 1, dim + 1)]
    if level == 1:
        return tuple(names)
    m = _gauge_algebra(level, realization, False)[0][0]
    suffixes = ("_re", "_im") if m.ring != RING_REAL else ("",)
    cells = ["_%d%d%s" % (i, j, sfx) for i in range(m.rows) for j in range(m.cols) for sfx in suffixes]
    return tuple([name + cell for name in names for cell in cells])


def field_components(point, patch=None):
    """Flattened connection and curvature components at a point, as
    (names, values) with a stable ordering, for grid export; names is the
    cached tuple of the case's column names, shared by every call.

    At levels 2-3 each coefficient of A_m, and of F_mn as _curvature_values
    makes it, is added times its flattened generator (_flat_basis) into its
    component's slice of the row at once, skipped if zero, as lincomb does:
    float input gives bit for bit the floats of the matrix lincomb makes of
    each connection_closed and curvature_closed coefficient map, over its
    keys in map order, and rational input each exact entry v within
    1e-15 * max(1, |v|), in float arithmetic.
    """
    patch = patch or point.patch
    names = _field_names(point.level, point.realization)
    if point.level == 1:
        a, f = connection_closed(point, patch), curvature_closed(point, patch)
        return names, [float(a[k]) for k in sorted(a)] + [float(f[k]) for k in sorted(f)]
    alg = _algebra_connection(point.level, point.realization, patch, point.coords)
    flat = _flat_basis(point.level, point.realization, patch == "lower")
    # A_1 .. A_dim (the last component vanishes), then F_ab in plan order
    dim, values = len(alg[5]) + 1, [0.0] * len(names)
    width = len(names) // (dim + len(alg[4]))
    conn = ((m - 1, k, c) for m, cm in alg[5].items() for k, c in cm.items())
    for slot, k, c in itertools.chain(conn, _curvature_values(point, alg, dim)):
        if c:
            off = width * slot
            for i, v in flat[k]:
                values[off + i] += c * v
    return names, values
