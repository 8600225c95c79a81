"""Connections, curvatures, transitions, gluing, and the light cone."""

from fractions import Fraction as F
import math
import random

import pytest

from splithopf.splitnum import OrdinaryComplex, SplitComplex
from splithopf.hopfmaps import BasePoint, sample_base_point, sample_fiber
from splithopf import gaugegeom as gg
from splithopf import hopfmaps as hm
from splithopf import gammarep
from splithopf.ringmat import (RMatrix, AffineFamily, RING_COMPLEX, RING_REAL, RING_SPLIT,
                               by_unit, commutator, lincomb)
from tests.test_hopfmaps import ALL_CASES

PANELS = [(l, r, p) for (l, r) in ALL_CASES for p in ("upper", "lower")]
OVERLAP_CASES = [(1, "I"), (2, "I"), (2, "II"), (3, "I"), (3, "II")]
GAUGE_PANELS = [(l, r, p) for l in (2, 3) for r in ("I", "II") for p in ("upper", "lower")]


def _combine(basis, coeffs):
    """sum_k coeffs[k] basis[k] over a {k: coefficient} map: one lincomb
    over its keys, in its map order."""
    return lincomb(coeffs.values(), [basis[k] for k in coeffs])


def _closed_matrices(pt, patch=None):
    """The reference component matrices of connection_closed and
    curvature_closed: at levels 2-3 each slot's coefficient map combined
    over the basis (_combine), the vanishing last connection component a
    zero matrix; level 1's scalar maps as they are."""
    a, f = gg.connection_closed(pt, patch), gg.curvature_closed(pt, patch)
    if pt.level == 1:
        return a, f
    (basis, coeffs), terms = a, f[1]
    a = {m: _combine(basis, c) for m, c in coeffs.items()}
    a[len(coeffs) + 1] = RMatrix.zeros(basis[0].rows, basis[0].cols, basis[0].ring)
    return a, {key: _combine(basis, c) for key, c in terms.items()}


def _unit(dim, a):
    """The coordinate direction e_a, a = 1..dim, with int components."""
    return [int(b == a) for b in range(1, dim + 1)]


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
    for m in range(1, 6):
        assert gg.connection_contraction(pole, _unit(5, m)).is_zero()


def test_last_component_vanishes():
    rng = random.Random(4)
    for (lvl, real) in ALL_CASES:
        pt = sample_base_point(lvl, real, rng=rng)
        dim = hm.case_info(pt.level, pt.realization).base_metric.dim
        last = gg.connection_contraction(pt, _unit(dim, dim))
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


def _exact_parts(v):
    """The real components of a scalar or a matrix."""
    if isinstance(v, RMatrix):
        return [c for g in v.components() for row in g for c in row]
    return [v.re, v.im] if hasattr(v, "re") else [v]


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_connection_analytic_is_exact(lvl, real, patch):
    # rational points and tangents t_a = e_a - (eta_a x_a / q) x: the exact
    # section derivative is the closed contraction, with no float anywhere
    case = hm.case_info(lvl, real)
    eta, q = case.base_metric.signature, case.constraint_target
    rng = random.Random(97)
    for _ in range(2):
        pt = sample_base_point(lvl, real, patch=patch, backend="exact", rng=rng)
        x = pt.coords
        tangents = [[(a == b) - F(eta[a] * x[a] * xb) / q for b, xb in enumerate(x)]
                    for a in range(len(x))]
        numeric = gg.connection_numeric(pt, patch, mode="analytic", tangents=tangents)
        for t, num in zip(tangents, numeric):
            closed = gg.connection_contraction(pt, t, patch)
            assert all(isinstance(c, (int, F)) for c in _exact_parts(num) + _exact_parts(closed))
            assert all(c == 0 for c in _exact_parts(num - closed))


def _scaled(v, k):
    return v.scale(k) if isinstance(v, RMatrix) else v * k


@pytest.mark.parametrize("lvl,real,patch", [(1, "I", "lower"), (1, "II", "upper"),
                                            (2, "II", "lower"), (3, "II", "upper")])
def test_connection_fd_is_the_central_difference(lvl, real, patch):
    # the reference evaluates the section twice, s = w / sqrt(2n) at x +- h t:
    # -u D s(x)^dag W (s(x + h t) - s(x - h t)) / 2h
    h = 1e-5
    u, W, D = gg._case_gauge(lvl, real)
    lift = gammarep.to_complex if (lvl, real) == (3, "II") else (lambda m: m)
    W, D = lift(W), None if D is None else lift(D)

    def section(y):
        w, n = hm.section_linear_at(lvl, real, y, patch)
        return lift(w).scale(1.0 / math.sqrt(2.0 * n))

    for pt in (sample_base_point(lvl, real, patch=patch, rng=random.Random(s)) for s in (1, 2)):
        x = pt.coords
        fold = section(x).dagger() @ W
        fold = fold if D is None else D @ fold
        tangents = gg.tangent_basis(pt)
        got = gg.connection_numeric(pt, patch, h=h, mode="fd", tangents=tangents)
        for t, num in zip(tangents, got):
            sp, sm = (section([c + e * ti for c, ti in zip(x, t)]) for e in (h, -h))
            want = (fold @ (sp - sm)).scale(-u * (1.0 / (2 * h)))
            want = want.entry(0, 0) if lvl == 1 else want
            assert gg._value_dev(num, want) < 1e-9


def _connection_numeric_reference(pt, patch, mode, tangents, fiber=None, h=gg.DEFAULT_H):
    """connection_numeric written with the unit and the lift: -u D s^dag W
    (d_t s), every matrix of the (3, II) case lifted to the complex ring
    first, the fold multiplied into w0 and each slope M_a (section_slopes)
    and d_t s the lincomb of those products that connection_numeric takes,
    and the unit in the fold's scalar."""
    lvl, real, x = pt.level, pt.realization, pt.coords
    case = hm.case_info(lvl, real)
    u = hm.case_info(1, real).unit
    lift = gammarep.to_complex if (lvl, real) == (3, "II") else (lambda m: m)
    W = lift(case.weight())
    D = None if real == "I" or lvl == 1 else lift(case.fiber_weight())
    w0, n0 = hm.section_linear_at(lvl, real, x, patch)
    v0, col = lift(w0), None
    slopes = [lift(m) for m in hm.section_slopes(lvl, real, patch)]
    if fiber is not None:
        comps = [fiber] if lvl == 1 else getattr(fiber, "comps", fiber)
        col = lift(RMatrix([[c] for c in comps], case.ring))
        v0 = v0 @ col
        slopes = [m @ col for m in slopes]
    fold = v0.dagger() @ W
    if D is not None and col is None:
        fold = D @ fold
    s = hm.patch_sign(patch)
    if mode == "fd":
        fold = fold.scale(-u * (1.0 / (2.0 * h * math.sqrt(2.0 * n0))))
    else:
        p2 = (F(1, 2) if not isinstance(n0, float) else 0.5) / n0
        fold = fold.scale(-u * p2)
    gens = [fold @ v0] + [fold @ m for m in slopes]
    out = []
    for t in tangents:
        if mode == "fd":
            a, b = (1.0 / math.sqrt(2.0 * (1 + s * (x[-1] + e * t[-1]))) for e in (h, -h))
            c0, c1 = a - b, h * (a + b)
        else:
            c0, c1 = -(s * t[-1] * p2), 1
        raw = lincomb([c0] + [c1 * ta for ta in t], gens)
        out.append(raw.entry(0, 0) if raw.rows == 1 and raw.cols == 1 else raw)
    return out


def _same_cells(got, want, exact):
    """Equal values; each nonzero cell of want has got's type and float bits;
    on exact input every cell of got is an int or a Fraction."""
    assert type(got) is type(want)
    for g, w in zip(_exact_parts(got), _exact_parts(want), strict=True):
        assert g == w
        if exact:
            assert isinstance(g, (int, F)), g
        if w:
            assert type(g) is type(w), (g, w)
            if type(w) is float:
                assert g.hex() == w.hex()


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_public_gauge_values_match_the_unit_reference(lvl, real, patch):
    # connection_numeric (both modes, matrix and spinor sections) against
    # the reference written with u and the lift
    case = hm.case_info(lvl, real)
    eta, q = case.base_metric.signature, case.constraint_target
    rng = random.Random(53)
    for backend in ("float", "exact"):
        pt = sample_base_point(lvl, real, patch=patch, backend=backend, rng=rng)
        x = pt.coords
        if backend == "exact":
            tangents = [[(a == b) - F(eta[a] * x[a] * xb) / q for b, xb in enumerate(x)]
                        for a in range(len(x))]
        else:
            tangents = gg.tangent_basis(pt)
        fiber = sample_fiber(lvl, real, rng)
        for mode in ("fd", "analytic"):
            exact = backend == "exact" and mode == "analytic"
            got = gg.connection_numeric(pt, patch, mode=mode, tangents=tangents)
            want = _connection_numeric_reference(pt, patch, mode, tangents)
            for g, w in zip(got, want, strict=True):
                _same_cells(g, w, exact)
            got = gg.connection_numeric(pt, patch, mode=mode, section="spinor", fiber=fiber,
                                        tangents=tangents)
            want = _connection_numeric_reference(pt, patch, mode, tangents, fiber)
            for g, w in zip(got, want, strict=True):
                _same_cells(g, w, False)


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_spinor_connection_takes_the_bare_phase(real, mode):
    # the level-1 fiber as sample_fiber draws it and invert takes it, not
    # wrapped in a list; the list of one gives the same values
    rng = random.Random(61)
    for patch in ("upper", "lower"):
        pt = sample_base_point(1, real, patch=patch, rng=rng)
        phase = sample_fiber(1, real, rng)
        assert hm.invert(pt, phase, patch).comps
        tangents = gg.tangent_basis(pt)
        got = gg.connection_numeric(pt, patch, mode=mode, section="spinor", fiber=phase,
                                    tangents=tangents)
        listed = gg.connection_numeric(pt, patch, mode=mode, section="spinor", fiber=[phase],
                                       tangents=tangents)
        want = _connection_numeric_reference(pt, patch, mode, tangents, phase)
        for g, li, w in zip(got, listed, want, strict=True):
            _same_cells(g, w, False)
            _same_cells(li, w, False)


@pytest.mark.parametrize("real", ["I", "II"])
def test_spinor_connection_checks_its_fiber(real):
    # the fiber goes through invert's own check: a phase of norm 4, a list of
    # two phases and a level-2 fiber of three components are refused
    rng = random.Random(67)
    pt = sample_base_point(1, real, rng=rng)
    phase = sample_fiber(1, real, rng)
    for mode in ("fd", "analytic"):
        with pytest.raises(hm.NormalizationError):
            gg.connection_numeric(pt, mode=mode, section="spinor", fiber=2 * phase)
        with pytest.raises(ValueError, match="one phase"):
            gg.connection_numeric(pt, mode=mode, section="spinor", fiber=[phase, phase])
    pt2 = sample_base_point(2, real, rng=rng)
    fiber = sample_fiber(2, real, rng).comps
    for mode in ("fd", "analytic"):
        with pytest.raises(ValueError, match="fiber needs"):
            gg.connection_numeric(pt2, mode=mode, section="spinor", fiber=fiber + fiber[:1])


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_connection_hat_evaluates_the_section_once_per_point(monkeypatch, lvl, real, patch):
    # the derivatives come from the static slopes, so the numerator is
    # evaluated at x only, whatever the number of tangents
    calls = []

    def spy(*args):
        calls.append(args)
        return hm.section_linear_at(*args)

    monkeypatch.setattr(gg, "section_linear_at", spy)
    rng = random.Random(59)
    pt = sample_base_point(lvl, real, patch=patch, rng=rng)
    fiber = sample_fiber(lvl, real, rng)
    tangents = gg.tangent_basis(pt)
    for mode in ("fd", "analytic"):
        for section, fib in (("matrix", None), ("spinor", fiber)):
            for ts in (tangents[:1], tangents, tangents * 3):
                del calls[:]
                out = gg._connection_hat(pt, patch, gg.DEFAULT_H, mode, section, fib, ts)
                assert len(out) == len(ts)
                assert calls == [(lvl, real, pt.coords, patch)]


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_gluing_evaluates_the_transition_top_once_per_point(monkeypatch, lvl, real):
    # g and every dg come from the one numerator at x and its static slopes
    calls = []
    top = gg._transition_top

    def spy(*args):
        calls.append(args)
        return top(*args)

    monkeypatch.setattr(gg, "_transition_top", spy)
    rng = random.Random(67)
    for _ in range(2):
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        del calls[:]
        gg.gluing_check(pt)
        assert calls == [(lvl, real, pt.coords)]


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_transition_slopes_match_the_top(lvl, real):
    # top(x) = top(0) + sum x_a M_a exactly at seeded rational points, on
    # and off the hyperboloid; the slopes are int matrices, made once
    dim = hm.case_info(lvl, real).base_dim
    slopes = gg._transition_affine(lvl, real)[1]
    assert gg._transition_affine(lvl, real)[1] is slopes and len(slopes) == dim
    assert all(type(c) is int for m in slopes for c in _exact_parts(m))
    const = gg._transition_top(lvl, real, (F(0),) * dim)
    rng = random.Random(47)
    for coords in (sample_base_point(lvl, real, backend="exact", rng=rng, overlap=True).coords,
                   [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]):
        top = gg._transition_top(lvl, real, coords)
        want = const
        for xa, m in zip(coords, slopes):
            want = want + m.scale(xa)
        assert top.ring == want.ring and (top.rows, top.cols) == (want.rows, want.cols)
        assert _exact_parts(top) == _exact_parts(want)
        assert all(type(c) in (int, F) for c in _exact_parts(top) + _exact_parts(want))


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_transition_rows_are_the_section_rows(lvl, real):
    # the transition's family and slopes are the leading fiber_dim rows of
    # the lower-patch section's, cell for cell, and share their cells
    k = hm.case_info(lvl, real).fiber_dim
    cut = [RMatrix(m.entries[:k], m.ring) for m in hm._section_affine(lvl, real, "lower")]
    family, slopes = gg._transition_affine(lvl, real)
    section = hm._section_family(lvl, real, "lower")
    assert family.template == AffineFamily(*cut).template
    assert (family.rows, family.cols, family.ring) == (k, cut[0].cols, cut[0].ring)
    shared = set(map(id, section.template))
    assert all(id(e) in shared for e in family.template)
    for m, want, whole in zip(slopes, cut[1:], hm.section_slopes(lvl, real, "lower"), strict=True):
        assert m._stored == want._stored and (m.rows, m.cols) == (want.rows, want.cols)
        assert all(r is w for r, w in zip(m._stored, whole._stored))


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_gluing_dg_is_the_central_difference(lvl, real):
    # gluing's dg, the combination of top0, M_b and C_top that _gluing_dg
    # weights, against (g(x + h t) - g(x - h t)) / 2h from two
    # transition_at calls
    h = 1e-5
    pt = sample_base_point(lvl, real, rng=random.Random(35), overlap=True)
    x = pt.coords
    top0 = gg._transition_top(lvl, real, x)
    slopes = gg._transition_affine(lvl, real)[1]
    c_top = gg._transition_const(lvl, real)
    frame = gg._frame(pt)
    assert [f[3] for f in frame] == gg.tangent_basis(pt)
    for f in frame:
        t = f[3]
        dg = lincomb(gg._gluing_dg(x[-1], f, h), (top0, slopes[f[0]], c_top))
        gp, gm = (gg.transition_at(lvl, real, [c + e * ti for c, ti in zip(x, t)]) for e in (h, -h))
        got = dg.entry(0, 0) if lvl == 1 else dg
        assert gg._value_dev(got, _scaled(gp - gm, 1.0 / (2 * h))) < 1e-9


GAUGE_OVERLAP = [c for c in OVERLAP_CASES if c[0] > 1]


def _read_sides(monkeypatch):
    """The (a, b) pairs that gaugegeom hands lincomb_dev, in call order."""
    seen, read = [], gg.lincomb_dev

    def spy(a, b):
        seen.append((a, b))
        return read(a, b)

    monkeypatch.setattr(gg, "lincomb_dev", spy)
    return seen


def _assert_close(got, want):
    """got within 1e-12 of want's largest entry (an all-zero want: of 1)."""
    assert gg._value_dev(got, want) <= 1e-12 * max(want.max_abs(), 1.0)


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_connection_frame_sides_match_the_full_sum(monkeypatch, lvl, real, patch):
    # the frame's three terms against the (d + 1)-term lincomb of G0 and
    # every G_a (_connection_numeric_reference, written with @ and lincomb),
    # in both modes; the closed side is the contraction over rho
    seen = _read_sides(monkeypatch)
    rng = random.Random(83)
    for _ in range(2):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        tangents = gg.tangent_basis(pt)
        closed = gg._hat_coeffs(pt, patch, gg.connection_closed(pt, patch))
        for mode in ("fd", "analytic"):
            del seen[:]
            assert gg.connection_residual(pt, patch, mode=mode) < 1e-6
            want = _connection_numeric_reference(pt, patch, mode, tangents)
            assert len(seen) == len(tangents) == len(want)
            for (num, cl), w, t in zip(seen, want, tangents):
                assert len([c for c in num[0] if c]) <= 3
                _assert_close(by_unit(lincomb(*num)), w)
                _assert_close(lincomb(*cl), gg.connection_contraction(pt, t, patch, closed=closed))


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_connection_numeric_off_the_frame(lvl, real, patch):
    # a coordinate direction and a mixed one, neither a frame tangent, take
    # the same path with x weight 0: the bits of the (d + 1)-term reference
    dim = hm.case_info(lvl, real).base_dim
    pt = sample_base_point(lvl, real, patch=patch, rng=random.Random(89))
    tangents = [tuple(float(b == 2) for b in range(1, dim + 1)),
                tuple(0.25 * b - 0.5 for b in range(dim))]
    for mode in ("fd", "analytic"):
        got = gg.connection_numeric(pt, patch, mode=mode, tangents=tangents)
        want = _connection_numeric_reference(pt, patch, mode, tangents)
        for g, w in zip(got, want, strict=True):
            _same_cells(g, w, False)


@pytest.mark.parametrize("radial", [False, True])
@pytest.mark.parametrize("lvl,real", GAUGE_OVERLAP)
def test_gluing_sides_match_the_matrix_formulas(monkeypatch, lvl, real, radial):
    # each side gluing_check compares against the matrices of the formulas:
    # decor A_lo and g^dag decor (A_up g - step / 2h), step the lincomb of
    # top0 and every slope M_a; decor F_lo and g^dag decor F_up g.  With a
    # radial part in the upper connection (_radial_upper_connection) the
    # sides still follow the formulas: the x-sum P_x is computed, not
    # taken to be zero
    seen = _read_sides(monkeypatch)
    if radial:
        _radial_upper_connection(monkeypatch)
    h, decor = gg.DEFAULT_H, gg._case_gauge(lvl, real)[2]
    slopes = gg._transition_affine(lvl, real)[1]
    rng = random.Random(79)
    for _ in range(2):
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        x, tangents = pt.coords, gg.tangent_basis(pt)
        top0 = gg._transition_top(lvl, real, x)
        g = gg.transition_at(lvl, real, x)
        gd = g.dagger() if decor is None else g.dagger() @ decor
        dec = (lambda m: m) if decor is None else (lambda m: decor @ m)
        conn, curv = ([gg._hat_coeffs(pt, p, fn(pt, p)) for p in ("upper", "lower")]
                      for fn in (gg.connection_closed, gg.curvature_closed))
        del seen[:]
        seed = rng.random()
        res = gg.gluing_check(pt, h=h, rng=random.Random(seed))
        assert (res["connection"] > 1e-6) is radial and (radial or res["curvature"] < 1e-6)
        assert len(seen) == len(tangents) + 4
        for (lhs, rhs), t in zip(seen, tangents):
            a_up, a_lo = (gg.connection_contraction(pt, t, closed=c) for c in conn)
            a, b = (gg._inv_rho(x[-1] + e * t[-1]) for e in (h, -h))
            step = lincomb([a - b] + [h * (a + b) * ta for ta in t], (top0, *slopes))
            _assert_close(lincomb(*lhs), dec(a_lo))
            _assert_close(lincomb(*rhs), gd @ (a_up @ g - step.scale(1.0 / (2 * h))))
        draw = random.Random(seed)
        for lhs, rhs in seen[len(tangents):]:
            t, v = draw.choice(tangents), draw.choice(tangents)
            f_up, f_lo = (gg.curvature_contraction(pt, t, v, closed=c) for c in curv)
            _assert_close(lincomb(*lhs), dec(f_lo))
            _assert_close(lincomb(*rhs), gd @ f_up @ g)


def _negate_one_decorated_generator(monkeypatch):
    basis = gg._decor_rho

    def wrong(level, realization):
        first, *rest = basis(level, realization)
        return (first.scale(-1), *rest)

    monkeypatch.setattr(gg, "_decor_rho", wrong)


def _drop_the_top0_term(monkeypatch):
    coeffs = gg._gluing_dg
    monkeypatch.setattr(gg, "_gluing_dg", lambda *args: (0, *coeffs(*args)[1:]))


def _radial_upper_connection(monkeypatch):
    """A_m + x_m rho_0 / 2 on the upper patch: a part along x itself."""
    closed = gg._algebra_connection

    def wrong(level, realization, patch, x):
        *head, coeffs = closed(level, realization, patch, x)
        if patch == "upper":
            coeffs = {m: {**cm, 0: cm.get(0, 0) + x[m - 1] / 2} for m, cm in coeffs.items()}
        return (*head, coeffs)

    monkeypatch.setattr(gg, "_algebra_connection", wrong)


@pytest.mark.parametrize("fault", [_negate_one_decorated_generator, _drop_the_top0_term,
                                   _radial_upper_connection])
@pytest.mark.parametrize("lvl,real", GAUGE_OVERLAP)
def test_gluing_catches_a_wrong_side(monkeypatch, lvl, real, fault):
    # each fault fails the gauge suite's gluing-connection tolerance
    pt = sample_base_point(lvl, real, rng=random.Random(91), overlap=True)
    assert gg.gluing_check(pt)["connection"] < 1e-6
    fault(monkeypatch)
    assert gg.gluing_check(pt)["connection"] > 1e-6


@pytest.mark.parametrize("lvl,real", GAUGE_OVERLAP)
def test_residuals_refuse_fewer_than_one_pair(lvl, real):
    # no pair would check nothing and read 0.0, which passes
    pt = sample_base_point(lvl, real, rng=random.Random(97), overlap=True)
    for pairs in (0, -3):
        with pytest.raises(ValueError, match="pairs >= 1"):
            gg.gluing_check(pt, pairs=pairs)
        with pytest.raises(ValueError, match="pairs >= 1"):
            gg.curvature_residual(pt, pairs=pairs)
    assert gg.gluing_check(pt, pairs=1)["curvature"] < 1e-6
    assert gg.curvature_residual(pt, pairs=1) < 1e-5


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_curvature_closed_vs_numeric(lvl, real, patch):
    rng = random.Random(5)
    worst = 0.0
    for _ in range(5):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        worst = max(worst, gg.curvature_residual(pt, patch, pairs=3, rng=rng))
    assert worst < 1e-5


def _patch_minus_three_a(monkeypatch):
    """Replace the closed connection at levels 2-3 by -3 A."""
    closed = gg._algebra_connection

    def wrong(*args):
        *head, coeffs = closed(*args)
        return (*head, {m: {k: -3 * c for k, c in cm.items()} for m, cm in coeffs.items()})

    monkeypatch.setattr(gg, "_algebra_connection", wrong)


@pytest.mark.parametrize("lvl,real,patch", [p for p in PANELS if p[0] > 1])
def test_oracles_catch_a_wrong_connection(monkeypatch, lvl, real, patch):
    # -3 A: the connection (both modes), curvature and gluing oracles each
    # see the change; their tolerances are those of the gauge suite
    _patch_minus_three_a(monkeypatch)
    rng = random.Random(41)
    pt = sample_base_point(lvl, real, patch=patch, rng=rng)
    assert gg.connection_residual(pt, patch) > 1e-6
    assert gg.connection_residual(pt, patch, mode="analytic") > 1e-10
    assert gg.curvature_residual(pt, patch, pairs=2, rng=rng) > 1e-5
    pt = sample_base_point(lvl, real, patch=patch, rng=rng, overlap=True)
    assert gg.gluing_check(pt, rng=rng)["connection"] > 1e-6


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_curvature_residual_pairs_distinct_tangents(monkeypatch, lvl, real):
    seen = []
    numeric = gg._curvature_hat

    def spy(point, t, v, *args, **kwargs):
        seen.append((t, v))
        return numeric(point, t, v, *args, **kwargs)

    monkeypatch.setattr(gg, "_curvature_hat", spy)
    rng = random.Random(9)
    pt = sample_base_point(lvl, real, rng=rng)
    gg.curvature_residual(pt, pairs=12, rng=rng)
    assert len(seen) == 12
    assert all(t is not v and t != v for t, v in seen)


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
        assert _dev(gg.connection_contraction(pt, tv, closed=conn) - (at - (av + av))) < 1e-12
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
    assert hm.case_info(pt.level, pt.realization).base_metric.inner(coords, t) == 0
    closed, _ = _closed_matrices(pt)
    for m in closed.values():
        assert all(isinstance(c, (int, F)) for c in _components(m))
    num = gg.connection_numeric(pt, mode="analytic", tangents=[t])[0]
    assert all(isinstance(c, (int, F)) for c in _components(num))
    assert not num.is_zero()
    cl = gg.connection_contraction(pt, t)
    assert num == (cl if lvl == 2 or real == "I" else gammarep.to_complex(cl))


def _matrix_contractions(pt, patch, t, v):
    """A(t) and F(t, v) summed over the reference component matrices
    (_closed_matrices): the reference the contractions in algebra
    coordinates are held to."""
    a, f = _closed_matrices(pt, patch)
    wa = [t[k - 1] for k in a]
    wf = [t[i - 1] * v[j - 1] - t[j - 1] * v[i - 1] for i, j in f]
    if pt.level == 1:
        return (sum(w * c for w, c in zip(wa, a.values())),
                sum(w * c for w, c in zip(wf, f.values())))
    return lincomb(wa, a.values()), lincomb(wf, f.values())


@pytest.mark.parametrize("lvl,real,patch", PANELS)
def test_contractions_match_component_matrices(lvl, real, patch):
    rng = random.Random(41)
    for _ in range(2):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        tangents = gg.tangent_basis(pt)
        t, v = tangents[0], tangents[-1]
        want_a, want_f = _matrix_contractions(pt, patch, t, v)
        assert _dev(gg.connection_contraction(pt, t, patch) - want_a) < 1e-12
        assert _dev(gg.curvature_contraction(pt, t, v, patch) - want_f) < 1e-12


@pytest.mark.parametrize("lvl,real,coords,t", RATIONAL_POINTS)
def test_contractions_match_component_matrices_exactly(lvl, real, coords, t):
    pt = BasePoint(lvl, real, coords, "upper")
    v = [F(1, k + 2) for k in range(len(coords))]
    want_a, want_f = _matrix_contractions(pt, "upper", t, v)
    for got, want in ((gg.connection_contraction(pt, t), want_a),
                      (gg.curvature_contraction(pt, t, v), want_f)):
        assert all(isinstance(c, (int, F)) for g in got.components() for row in g for c in row)
        assert not got.is_zero()
        assert got == want


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_coordinate_contractions_are_the_component_matrices(lvl, real, patch):
    # at a rational point, A(e_a) is A_a and F(e_a, e_b) is F_ab, a < b,
    # exactly, with int or Fraction cells only
    pt = sample_base_point(lvl, real, patch=patch, backend="exact", rng=random.Random(43))
    a, f = _closed_matrices(pt, patch)
    dim = hm.case_info(pt.level, pt.realization).base_metric.dim
    checks = [(gg.connection_contraction(pt, _unit(dim, m), patch), a[m]) for m in a]
    checks += [(gg.curvature_contraction(pt, _unit(dim, i), _unit(dim, j), patch), f[(i, j)])
               for i, j in f]
    assert len(checks) == dim + dim * (dim - 1) // 2
    for got, want in checks:
        assert all(isinstance(c, (int, F)) for g in got.components() for row in g for c in row)
        assert got == want


def _curvature_by_commutator(pt, patch):
    """Reference curvature: F_mn as the algebraic part plus c [A_m, A_n],
    the commutator taken with ringmat.commutator over the reference
    connection matrices (_closed_matrices); F_{m,last} = (s/n) A_m."""
    a, _ = _closed_matrices(pt, patch)
    c = -SplitComplex(0, 1) if pt.realization == "I" else OrdinaryComplex(0, 1)
    s = 1 if patch == "upper" else -1
    x = pt.coords
    one = 1.0 if isinstance(x[-1], float) else F(1)
    inv_n = one / (1 + s * x[-1])
    last = hm.case_info(pt.level, pt.realization).base_metric.dim
    out = {}
    if pt.level == 2:
        tab = gammarep.build_thooft(pt.realization, patch == "lower")
        gen = gammarep.split_pauli if pt.realization == "I" else gammarep.tau
        alg = (1 if pt.realization == "I" else -1) * inv_n
        for m in range(1, last):
            for nn in range(m + 1, last):
                term = lincomb([tab.get((m, nn, i), 0) * alg for i in (1, 2, 3)],
                               [gen(i) for i in (1, 2, 3)])
                out[(m, nn)] = term + commutator(a[m], a[nn]).scale(c)
    else:
        sig = gammarep.build_weyl_generators(pt.realization, patch == "lower")["sigmas"]
        for m in range(1, last):
            for nn in range(m + 1, last):
                out[(m, nn)] = sig[(m, nn)].scale(-2 * inv_n) + commutator(a[m], a[nn]).scale(c)
    for m in range(1, last):
        out[(m, last)] = a[m].scale(s * inv_n)
    return out


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("lvl,real,patch", [p for p in PANELS if p[0] > 1])
def test_closed_commutator_term(lvl, real, patch, backend):
    # exact points: equal with int or Fraction components; floats: within 1e-12
    rng = random.Random(31)
    for _ in range(2):
        pt = sample_base_point(lvl, real, patch=patch, backend=backend, rng=rng)
        _, got = _closed_matrices(pt, patch)
        want = _curvature_by_commutator(pt, patch)
        assert list(got) == sorted(want)
        for key, m in got.items():
            if backend == "exact":
                assert all(isinstance(c, (int, F)) for g in m.components() for row in g for c in row)
                assert m == want[key], key
            else:
                assert (m - want[key]).max_abs() < 1e-12, key


def test_field_components_columns():
    # the cached column names and the shared connection give the names and
    # values read off the reference component matrices entry by entry
    rng = random.Random(33)
    for lvl, real in ALL_CASES:
        for patch in ("upper", "lower"):
            pt = sample_base_point(lvl, real, patch=patch, rng=rng)
            a, f = _closed_matrices(pt, patch)
            names, values = [], []
            for prefix, val in ([("A_%d" % k, a[k]) for k in sorted(a)]
                                + [("F_%d%d" % k, f[k]) for k in sorted(f)]):
                if lvl == 1:
                    names.append(prefix)
                    values.append(float(val))
                    continue
                re, im = val.components()
                for i in range(val.rows):
                    for j in range(val.cols):
                        names += ["%s_%d%d_re" % (prefix, i, j), "%s_%d%d_im" % (prefix, i, j)]
                        values += [float(re[i][j]), float(im[i][j])]
            got = gg.field_components(pt, patch)
            assert got == (tuple(names), values)
            # the cached names themselves, not a copy per node
            assert got[0] is gg.field_components(pt, patch)[0]


def test_field_names_match_per_cell_rendering():
    # the names joined from per-cell suffixes are the names rendered cell by
    # cell, and the cache keeps one case
    for lvl, real in ALL_CASES:
        dim = hm.case_info(lvl, real).base_dim
        base = ["A_%d" % a for a in range(1, dim + 1)]
        base += ["F_%d%d" % (a, b) for a in range(1, dim + 1) for b in range(a + 1, dim + 1)]
        want = tuple(base)
        if lvl > 1:
            m = gg._gauge_algebra(lvl, real, False)[0][0]
            suffixes = ("_re", "_im") if len(m.components()) == 2 else ("",)
            want = tuple("%s_%d%d%s" % (name, i, j, suffix) for name in base
                         for i in range(m.rows) for j in range(m.cols) for suffix in suffixes)
        assert gg._field_names(lvl, real) == want
    assert gg._field_names.cache_info().maxsize == 1


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_level2_connection_matches_dense_sum(real, patch):
    # the sparse 't Hooft sums keep every coefficient of the dense sum over
    # all slots: the same keys, the same float bits, the same Fractions
    pairs = gg._gauge_algebra(2, real, patch == "lower")[1]
    rng = random.Random(19)
    for backend in ("float", "exact", "float", "exact"):
        x = sample_base_point(2, real, patch=patch, backend=backend, rng=rng).coords
        inv_n = 1 / (1 + hm.patch_sign(patch) * x[-1])
        pref = (F(-1, 2) if real == "I" else F(1, 2)) * inv_n
        want = {m: {k: sum(pairs[(m, nn)].get(k, 0) * x[nn - 1] for nn in range(1, 5)) * pref
                    for k in range(3)} for m in range(1, 5)}
        got = gg._algebra_connection(2, real, patch, x)[5]
        assert [(m, list(c)) for m, c in got.items()] == [(m, list(c)) for m, c in want.items()]
        for m in want:
            for k, w in want[m].items():
                if backend == "float":
                    assert got[m][k].hex() == w.hex(), (m, k)
                else:
                    assert type(got[m][k]) is F and got[m][k] == w, (m, k)


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_one_connection_term_per_generator(lvl, real, patch):
    """Each (m, k) has exactly one n' with T_mn'[k] != 0, and each row of
    _thooft_terms runs in increasing k, which at level 3 is increasing n'."""
    basis, pairs = gg._gauge_algebra(lvl, real, patch == "lower")
    free = range(1, 5) if lvl == 2 else range(1, 9)
    for m, row in gg._thooft_terms(lvl, real, patch == "lower"):
        assert [k for k, _, _ in row] == [k for k in range(len(basis))
                                          if any(pairs[(m, nn)].get(k) for nn in free)]
        for k, nn, v in row:
            assert [n2 for n2 in free if pairs[(m, n2)].get(k)] == [nn] and pairs[(m, nn)][k] == v
        if lvl == 3:
            assert [nn for _, nn, _ in row] == [nn for nn in free if nn != m]


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_level3_connection_matches_sigma_sum(real, patch):
    # A_m[k] = (T_mn'[k] / n) x_n' has the keys, key order, float bits
    # (zero signs included) and Fractions of T_mn'[k] y_n', y = x / n
    pairs = gg._gauge_algebra(3, real, patch == "lower")[1]
    rng = random.Random(29)
    free = range(1, 9)
    for backend in ("float", "exact", "float"):
        x = list(sample_base_point(3, real, patch=patch, backend=backend, rng=rng).coords)
        if backend == "float":
            x[2], x[5] = 0.0, -0.0
        inv_n = gg.reciprocal(1 + hm.patch_sign(patch) * x[-1])
        want = {m: {k: v * (x[nn - 1] * inv_n) for nn in free for k, v in pairs[(m, nn)].items()}
                for m in free}
        got = gg._algebra_connection(3, real, patch, x)[5]
        assert [(m, list(c)) for m, c in got.items()] == [(m, list(c)) for m, c in want.items()]
        for m in want:
            for k, w in want[m].items():
                if backend == "float":
                    assert got[m][k].hex() == w.hex(), (m, k)
                else:
                    assert type(got[m][k]) is F and got[m][k] == w, (m, k)


def _curvature_reference(lvl, real, patch, x):
    """_curvature_terms written from its docstring formula with dicts:
    F_mn = alpha T_mn + w_n A_m - w_m A_n for free m < n, F_{m,last} =
    (s/n) A_m, each map from T_mn's keys, then A_m's, then A_n's."""
    s, inv_n, y, _, _, coeffs = gg._algebra_connection(lvl, real, patch, x)
    pairs = gg._gauge_algebra(lvl, real, patch == "lower")[1]
    eta = hm.case_info(lvl, real).base_metric.signature
    yy = sum(e * yk * yk for e, yk in zip(eta, y))
    if lvl == 2:
        alpha = (1 if real == "I" else -1) * (inv_n + yy / 2)
        w = [e * yk for e, yk in zip(eta, y)]
    else:
        alpha = yy - 2 * inv_n
        w = [-e * yk for e, yk in zip(eta, y)]
    last = len(coeffs) + 1
    want = {}
    for m in range(1, last):
        for nn in range(m + 1, last):
            terms = {k: alpha * t for k, t in pairs[(m, nn)].items()}
            for k, c in coeffs[m].items():
                terms[k] = terms.get(k, 0) + w[nn - 1] * c
            for k, c in coeffs[nn].items():
                terms[k] = terms.get(k, 0) - w[m - 1] * c
            want[(m, nn)] = terms
        want[(m, last)] = {k: s * inv_n * c for k, c in coeffs[m].items()}
    return want


@pytest.mark.parametrize("lvl,real,bar", [(lvl, real, bar) for lvl in (2, 3)
                                           for real in ("I", "II") for bar in (False, True)])
def test_rho_is_sigma_over_the_unit(lvl, real, bar):
    # u rho_k = sigma_k in values and types, u (re, im) = (u^2 im, re), and
    # rho_k is built on sigma_k's cells, sharing their component objects: at
    # (3, II) it holds sigma_k's imaginary components over the reals,
    # sigma_k's real grid being all zero
    sigma = gg._gauge_algebra(lvl, real, bar)[0]
    rho = gg._rho(lvl, real, bar)
    assert len(rho) == len(sigma) and rho is gg._rho(lvl, real, bar)

    def typed(grid):
        return [(type(c), c) for row in grid for c in row]

    def shared(grid, other):
        return all(a is b for x, y in zip(grid, other, strict=True) for a, b in zip(x, y, strict=True))

    for r, m in zip(rho, sigma):
        s_re, s_im = m.components()
        if (lvl, real) == (3, "II"):
            assert r.ring == RING_REAL
            (grid,) = r.components()
            assert typed(grid) == typed(s_im) and not any(c for row in s_re for c in row)
            assert shared(grid, s_im)
            continue
        assert r.ring == m.ring
        re, im = r.components()
        u_re = [[-c for c in row] for row in im] if real == "II" else im
        assert typed(u_re) == typed(s_re) and typed(re) == typed(s_im)
        if lvl == 3:
            assert shared(im, s_re)
        assert shared(re, s_im)


def test_equal_curvature_plans_are_one_object():
    # the sigma_mn keys depend on neither the realization nor the patch
    plans = [gg._curvature_plan(3, real, bar) for real in ("I", "II") for bar in (False, True)]
    assert all(p is plans[0] for p in plans)
    assert gg._curvature_plan(2, "I", False) != plans[0]


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_curvature_terms_match_formula(lvl, real, patch):
    # the slots, the keys of each slot, the float bits (zero signs and
    # 0 + (-0.0) included) and the exact types of the closed curvature
    rng = random.Random(41)
    last = 1.0 if patch == "upper" else -1.0
    for backend in ("float", "exact", "float", "zeros", "exact", "pole"):
        sampled = "exact" if backend == "exact" else "float"
        x = list(sample_base_point(lvl, real, patch=patch, backend=sampled, rng=rng).coords)
        if backend == "zeros":
            x[0], x[1], x[-2] = 0.0, -0.0, -0.0
        elif backend == "pole":
            x = [(-0.0 if i % 2 else 0.0) for i in range(len(x) - 1)] + [last]
        pt = BasePoint(lvl, real, x, patch)
        got = gg._curvature_terms(pt, gg._algebra_connection(lvl, real, patch, x))
        want = _curvature_reference(lvl, real, patch, x)
        assert list(got) == list(want)
        for key, terms in want.items():
            assert list(got[key]) == list(terms), key
            for k, w in terms.items():
                g = got[key][k]
                assert type(g) is type(w), (backend, key, k)
                if backend == "exact":
                    assert g == w and isinstance(g, (int, F)), (key, k)
                else:
                    assert g.hex() == w.hex(), (backend, key, k)


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_field_rows_build_no_matrix(monkeypatch, lvl, real, patch):
    # the field rows are written from the flattened generators, never
    # through a per-component matrix
    pt = sample_base_point(lvl, real, patch=patch, rng=random.Random(71))
    gg.field_components(pt, patch)  # fills the per-case caches

    def refused(*args):
        raise AssertionError("a component matrix was built")

    monkeypatch.setattr(gg, "lincomb", refused)
    names, values = gg.field_components(pt, patch)
    assert len(names) == len(values) and any(values)


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_residuals_build_no_matrix_of_either_side(monkeypatch, lvl, real, patch):
    # both sides of a residual stay linear combinations (ringmat.lincomb_dev):
    # the one matrices made are the curvature's commutator operands A(t)/u
    # and A(v)/u, two per pair
    made = []

    def spy(*args):
        made.append(args)
        return lincomb(*args)

    monkeypatch.setattr(gg, "lincomb", spy)
    rng = random.Random(73)
    pt = sample_base_point(lvl, real, patch=patch, rng=rng)
    for mode in ("fd", "analytic"):
        assert gg.connection_residual(pt, patch, mode=mode) < 1e-6
    assert made == []
    assert gg.curvature_residual(pt, patch, pairs=3, rng=rng) < 1e-5
    assert len(made) == 2 * 3


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_field_components_at_exact_points(lvl, real, patch):
    # rational coefficients meet the float generators in float arithmetic:
    # each value is within 1e-15 * max(1, |v|) of the exact entry v
    rng = random.Random(72)
    for _ in range(2):
        pt = sample_base_point(lvl, real, patch=patch, backend="exact", rng=rng)
        a, f = _closed_matrices(pt, patch)
        exact = [c for m in [a[k] for k in sorted(a)] + [f[k] for k in sorted(f)]
                 for rows in zip(*m.components()) for cell in zip(*rows) for c in cell]
        assert all(isinstance(c, (int, F)) for c in exact) and any(exact)
        _, values = gg.field_components(pt, patch)
        assert len(values) == len(exact)
        for v, e in zip(values, exact):
            assert abs(v - float(e)) <= 1e-15 * max(1.0, abs(float(e)))


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
    ok = RMatrix.identity(2, RING_SPLIT)
    bad = RMatrix([[SplitComplex(1.0, 0), SplitComplex(0, nan)],
                   [SplitComplex(0, 0), SplitComplex(1.0, 0)]], RING_SPLIT)
    assert math.isnan(gg._value_dev(bad, ok)) and math.isnan(gg._value_dev(ok, bad))


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
            fib = sample_fiber(3, real, rng)
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
    # rho = 24/25 is rational, so g is exact and unit exactly
    assert type(g.value.re) is F and type(g.value.im) is F
    assert g.value.conj() * g.value == 1
    assert g.unitarity_residual() == 0


@pytest.mark.parametrize("lvl,real,x", [
    (2, "I", (0, F(4, 5), 0, 0, F(3, 5))),
    (2, "II", (0, 0, F(4, 5), 0, F(3, 5))),
    (3, "I", (0,) * 7 + (F(4, 5), F(3, 5))),
    (3, "II", (0,) * 7 + (F(4, 5), F(3, 5))),
])
def test_transition_exact_on_rational_squares(lvl, real, x):
    # 1 - (3/5)^2 = (4/5)^2: transition_at is exact and g^dag W g = W exactly
    g = gg.transition(BasePoint(lvl, real, x))
    assert {type(c) for grid in g.value.components() for row in grid for c in row} <= {int, F}
    w = g.weight if g.weight is not None else RMatrix.identity(g.value.rows, g.value.ring)
    assert g.value.dagger() @ w @ g.value == w


def test_no_transition_for_two_leaf_map():
    pt = BasePoint(1, "II", (0.0, 0.0, 1.5))
    with pytest.raises(ValueError):
        gg.transition(pt)


@pytest.mark.parametrize("lvl,real", OVERLAP_CASES)
def test_transition_coordinates_entry(lvl, real):
    # transition_at of bare coordinates is transition's value bit for bit:
    # the top fiber_dim block of the lower-patch section numerator over rho
    rng = random.Random(23)
    fd = hm.case_info(lvl, real).fiber_dim
    for _ in range(3):
        pt = sample_base_point(lvl, real, rng=rng, overlap=True)
        x = pt.coords
        g = gg.transition_at(lvl, real, x)
        value = gg.transition(pt).value
        assert repr(g if lvl == 1 else g.components()) == \
            repr(value if lvl == 1 else value.components())
        w, _ = hm.section_linear_at(lvl, real, x, "lower")
        inv = 1.0 / math.sqrt(1 - x[-1] * x[-1])
        top = [[[c * inv for c in row] for row in grid[:fd]] for grid in w.components()]
        if lvl == 1:
            assert (g.re, g.im) == (top[0][0][0], top[1][0][0])
        else:
            assert [[list(row) for row in grid] for grid in g.components()] == top


def test_transition_at_refuses_outside_the_overlap():
    for last in (1.0, -1, F(3, 2), -2.0):
        with pytest.raises(ValueError):
            gg.transition_at(2, "I", (0, 0, 0, 0, last))
    with pytest.raises(ValueError):
        gg.transition_at(1, "II", (0.0, 0.0, 0.5))


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
            prod = up.scale(g)
        else:
            prod = up @ g
        assert (lo - prod).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# light-cone guard

def test_curvature_refuses_near_cone():
    pt = BasePoint(1, "I", (1.0, 1.0, 1e-12))  # r^2 within eps of zero
    with pytest.raises(ValueError):
        gg.curvature_closed(pt)


def test_field_components_export():
    pt = BasePoint(1, "I", (0.0, 0.0, 1.0))
    names, values = gg.field_components(pt)
    assert names[0] == "A_1" and "F_12" in names
    assert all(isinstance(v, float) for v in values)
    assert not any(math.isnan(v) for v in values)


def test_gauge_suite_fails_on_nan_residual(monkeypatch):
    from splithopf import reporting
    monkeypatch.setattr(gg, "connection_residual", lambda pt, patch=None, **kw: float("nan"))
    checks = {c.id: c for c in reporting.gauge_suite(points=1)}
    for cid in ("connection-oracle-2-I-upper", "span-2-I"):
        check = checks[cid]
        assert not check.passed and math.isnan(check.residual)
        assert check.as_dict()["residual"] == "nan"
    assert checks["curvature-oracle-2-I-upper"].passed


def test_span_checks_fail_on_a_wrong_connection(monkeypatch):
    # -3 A is still in the generator span, but no longer the section
    # derivative, which span-* compares it with
    from splithopf import reporting
    _patch_minus_three_a(monkeypatch)
    checks = {c.id: c for c in reporting.gauge_suite(points=1)}
    for lvl, real in ((2, "I"), (2, "II"), (3, "I"), (3, "II")):
        assert not checks["span-%d-%s" % (lvl, real)].passed


# ---------------------------------------------------------------------------
# residuals read from the operands' grids; contractions summed by index

RINGS = [RING_REAL, RING_SPLIT, RING_COMPLEX]


def _grids(rng, ring, rows, cols, kind):
    """Seeded component grids with zero cells of every type (-0.0 among
    them); kind "float", "exact" or "mixed" picks the nonzero values."""
    def value():
        r = rng.random()
        if r < 0.35:
            return rng.choice([0, 0.0, -0.0, F(0)])
        if kind == "float" or (kind == "mixed" and r < 0.65):
            return rng.uniform(-2, 2)
        return rng.choice([F(rng.randint(-9, 9), rng.randint(1, 7)), rng.randint(-5, 5)])
    n = 1 if ring is RING_REAL else 2
    return tuple([[value() for _ in range(cols)] for _ in range(rows)] for _ in range(n))


def _of_grids(grids, ring):
    """The matrix whose entries have these component grids, (entries,) over
    the reals and (re, im) over the binarion rings, values as they are."""
    if ring is RING_REAL:
        return RMatrix(grids[0], ring)
    return RMatrix([list(map(type(ring.zero), re, im)) for re, im in zip(*grids)], ring)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_value_dev_matches_difference_matrix(ring):
    rng = random.Random(23)
    for kind_a in ("float", "exact", "mixed"):
        for kind_b in ("float", "exact", "mixed"):
            for rows, cols in ((1, 1), (2, 3), (4, 4)):
                a = _of_grids(_grids(rng, ring, rows, cols, kind_a), ring)
                b = _of_grids(_grids(rng, ring, rows, cols, kind_b), ring)
                for x, y in ((a, b), (b, a), (a, a), (a, RMatrix.zeros(rows, cols, ring))):
                    got, want = gg._value_dev(x, y), (x - y).max_abs()
                    assert type(got) is float and got.hex() == want.hex(), (kind_a, kind_b)
    # a cell only one operand holds, and -0.0 against an exact zero
    n = 1 if ring is RING_REAL else 2
    a = _of_grids(([[-0.0, 3.5], [0, F(1, 3)]],) * n, ring)
    b = _of_grids(([[0, 0.0], [-0.25, F(1, 3)]],) * n, ring)
    assert gg._value_dev(a, b) == (a - b).max_abs() == 3.5


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("special", [float("nan"), float("inf"), float("-inf")])
def test_value_dev_non_finite_cells(ring, special):
    rng = random.Random(29)
    for component in range(1 if ring is RING_REAL else 2):
        for side in (0, 1):
            grids = [_grids(rng, ring, 3, 2, "mixed") for _ in range(2)]
            grids[side][component][1][1] = special
            a, b = (_of_grids(g, ring) for g in grids)
            got = gg._value_dev(a, b)
            if special != special:
                assert math.isnan(got)
            else:
                assert got == math.inf
            assert repr(got) == repr((a - b).max_abs())


@pytest.mark.parametrize("other", [
    RMatrix.identity(2, RING_COMPLEX), RMatrix.identity(3, RING_SPLIT),
    RMatrix.zeros(2, 3, RING_SPLIT), 1, SplitComplex(1, 0)])
def test_value_dev_mismatch_raises_as_difference(other):
    a = RMatrix.identity(2, RING_SPLIT)
    with pytest.raises(Exception) as want:
        a - other
    with pytest.raises(want.type) as got:
        gg._value_dev(a, other)
    assert str(got.value) == str(want.value)


def _dict_contract(basis, weighted):
    """The contraction summed through a {k: coefficient} dict, in the order
    the generator indices first appear, then _combine."""
    acc = {}
    for w, cm in weighted:
        for k, c in cm.items():
            acc[k] = acc.get(k, 0) + w * c
    return _combine(basis, acc)


@pytest.mark.parametrize("lvl,real,patch", GAUGE_PANELS)
def test_contractions_match_dict_reference(lvl, real, patch):
    rng = random.Random(31)
    for backend in ("float", "exact", "float"):
        pt = sample_base_point(lvl, real, patch=patch, backend=backend, rng=rng)
        if backend == "float":
            tangents = gg.tangent_basis(pt)
            pairs = [tuple(rng.sample(tangents, 2)) for _ in range(3)]
        else:
            dim = len(pt.coords)
            pairs = [([F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)],
                      [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)])]
        basis, coeffs = gg.connection_closed(pt, patch)
        fbasis, terms = closed = gg.curvature_closed(pt, patch)
        for t, v in pairs:
            weights = [t[a - 1] * v[b - 1] - t[b - 1] * v[a - 1] for a, b in terms]
            checks = [
                (gg.connection_contraction(pt, t, patch),
                 _dict_contract(basis, ((t[m - 1], cm) for m, cm in coeffs.items()))),
                (gg.curvature_contraction(pt, t, v, patch, closed=closed),
                 _dict_contract(fbasis, zip(weights, terms.values())))]
            for got, want in checks:
                cells = [c for g in got.components() for row in g for c in row]
                ref = [c for g in want.components() for row in g for c in row]
                if backend == "float":
                    assert [float(c).hex() for c in cells] == [float(c).hex() for c in ref]
                else:
                    assert all(type(c) in (int, F) for c in cells) and cells == ref
                    assert not got.is_zero()


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_level2_connection_builds_no_fraction(monkeypatch, real, patch):
    # the level-2 prefactor -+1/(2n) halves 1/n instead of multiplying it by
    # a Fraction: the float bits and the exact values of the Fraction form
    def refused(*args):
        raise AssertionError("a Fraction was built")

    rng = random.Random(37)
    for backend in ("float", "exact", "float"):
        x = sample_base_point(2, real, patch=patch, backend=backend, rng=rng).coords
        inv_n = 1 / (1 + hm.patch_sign(patch) * x[-1])
        pref = (F(-1, 2) if real == "I" else F(1, 2)) * inv_n
        pairs = gg._gauge_algebra(2, real, patch == "lower")[1]
        want = {m: {k: sum(pairs[(m, nn)].get(k, 0) * x[nn - 1] for nn in range(1, 5)) * pref
                    for k in range(3)} for m in range(1, 5)}
        with monkeypatch.context() as mp:
            mp.setattr(gg, "Fraction", refused)
            got = gg._algebra_connection(2, real, patch, x)[5]
        for m in want:
            for k, w in want[m].items():
                if backend == "float":
                    assert got[m][k].hex() == w.hex(), (m, k)
                else:
                    assert type(got[m][k]) is F and got[m][k] == w, (m, k)
