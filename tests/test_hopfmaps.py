"""Projections, inversion sections, sampling and the fiber hierarchy."""

from fractions import Fraction as F
import math
import random
import sys

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf.hopfmaps import (
    Spinor, BasePoint, Section, project, invert, sample_normalized,
    sample_base_point, sample_fiber, level0_project, level0_invert, hierarchical_fiber_check,
    NormalizationError, PatchError, ConstraintError, case_info,
    section_linear_at, section_slopes,
)
from splithopf import gammarep, hopfmaps as hm

ALL_CASES = [(1, "I"), (1, "II"), (2, "I"), (2, "II"), (3, "I"), (3, "II")]


# ---------------------------------------------------------------------------
# projections

def test_pole_spinors():
    assert project(Spinor(1, "I", [SplitComplex(1, 0), SplitComplex(0, 0)])).coords \
        == (0.0, 0.0, 1.0)
    z = SplitComplex(0, 0)
    assert project(Spinor(2, "I", [SplitComplex(1, 0), z, z, z])).coords \
        == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_rational_projection_first_map():
    sp = Spinor(1, "I", [SplitComplex(F(3, 5), 0), SplitComplex(F(4, 5), 0)])
    pt = project(sp)
    assert pt.coords == (F(24, 25), 0, F(-7, 25))
    assert pt.constraint_residual() == 0


def test_boost_spinor_second_realization():
    t = 0.7
    sp = Spinor(1, "II", [OrdinaryComplex(math.cosh(t), 0.0),
                          OrdinaryComplex(math.sinh(t), 0.0)])
    pt = project(sp)
    assert abs(pt.coords[0]) < 1e-15
    assert abs(pt.coords[1] - math.sinh(2 * t)) < 1e-12
    assert abs(pt.coords[2] - math.cosh(2 * t)) < 1e-12


def test_unnormalized_rejected():
    sp = Spinor(1, "I", [SplitComplex(2, 0), SplitComplex(0, 0)])
    with pytest.raises(NormalizationError) as exc:
        project(sp)
    assert exc.value.norm == 4


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_constraint_float(lvl, real):
    rng = random.Random(42)
    worst = 0.0
    for _ in range(200):
        pt = project(sample_normalized(lvl, real, rng=rng))
        worst = max(worst, abs(pt.constraint_residual()))
    assert worst < 1e-12


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_constraint_exact(lvl, real):
    rng = random.Random(7)
    for _ in range(20):
        sp = sample_normalized(lvl, real, backend="exact", rng=rng)
        pt = project(sp)
        assert pt.constraint_residual() == 0


def test_fiber_invariance_exact():
    sp = Spinor(1, "I", [SplitComplex(F(3, 5), 0), SplitComplex(F(4, 5), 0)])
    phase = SplitComplex(F(5, 4), F(3, 4))  # cosh/sinh pair, qform 1
    assert phase.qform() == 1
    assert project(Spinor(1, "I", [c * phase for c in sp.comps])).coords == project(sp).coords
    sp2 = Spinor(1, "II", [OrdinaryComplex(F(5, 4), 0), OrdinaryComplex(F(3, 4), 0)])
    phase2 = OrdinaryComplex(F(3, 5), F(4, 5))  # unit circle point
    assert phase2.qform() == 1
    assert project(Spinor(1, "II", [c * phase2 for c in sp2.comps])).coords == \
        project(sp2).coords


def test_majorana_sampling():
    # B of the 16-component split realization: Psi = -B^-1 conj(Psi), B^-1 = B
    B = gammarep.charge_conjugation("so54_I").matrix
    rng = random.Random(1)
    for backend in ("float", "exact"):
        sp = sample_normalized(3, "I", backend=backend, rng=rng)
        target = [-c for c in B.matvec([c.conj() for c in sp.comps])]
        for a, b in zip(target, sp.comps):
            d = a - b
            assert abs(float(d.re)) < 1e-12 and abs(float(d.im)) < 1e-12


def _chord_reference(lvl, real, rng, assemble=None):
    """The exact chord with Fraction coordinates and randint draws: the
    point p = p0 + t v, t = -2 <p0, v> / q(v), rejected where q(v) = 0 or
    p = p0; assembled by hm._assemble unless another assembler is given."""
    case = case_info(lvl, real)
    signs = case.norm_signs
    mult = 2 if (lvl, real) == (3, "I") else 1
    while True:
        p0 = [F(0)] * len(signs)
        if mult == 2:
            p0[0] = p0[8] = F(1, 2)
        else:
            p0[0] = F(1)
        v = [F(rng.randint(-9, 9)) for _ in signs]
        qv = mult * sum(s * c * c for s, c in zip(signs, v))
        if qv == 0:
            continue
        t = F(-2) * mult * sum(s * a * b for s, a, b in zip(signs, p0, v)) / qv
        p = [a + t * b for a, b in zip(p0, v)]
        if p != p0:
            return (assemble or hm._assemble)(case, p)


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_exact_chord_keeps_the_rng_stream(lvl, real):
    """The exact chord over one denominator gives the reference's spinors,
    component types included, and leaves the rng in the same state."""
    def key(comps):
        # (3, II) spinors are real, the others binarions
        return [(type(c),) + ((type(c.re), c.re, type(c.im), c.im) if hasattr(c, "re") else (c,))
                for c in comps]

    r1, r2 = random.Random(31), random.Random(31)
    for _ in range(200):
        got = sample_normalized(lvl, real, backend="exact", rng=r1).comps
        assert key(got) == key(_chord_reference(lvl, real, r2))
    assert r1.getstate() == r2.getstate()


def _majorana_reference(psi):
    """(psi, j psi_c) with j psi_c taken as the product SplitComplex(0, 1) * c."""
    j = SplitComplex(0, 1)
    return list(psi) + [j * c for c in hm.charge_conjugate_spinor(psi)]


def _assemble_reference(case, reals):
    """The (3, I) pattern (U, j U_c, V, j V_c) through _majorana_reference."""
    comps = [SplitComplex(reals[i], reals[i + 1]) for i in range(0, 16, 2)]
    return _majorana_reference(comps[:4]) + _majorana_reference(comps[4:])


def _gaussian_reference(signs, mult, rng):
    """A gaussian vector redrawn while mult q(v) <= EPS_NORM mult |v|^2, then
    scaled to mult q(v) = 1."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in signs]
        n = mult * sum(s * c * c for s, c in zip(signs, v))
        if n > hm.EPS_NORM * mult * sum(c * c for c in v):
            return [c * (1.0 / math.sqrt(n)) for c in v]


def _full_repr(comps):
    """repr of the components with the types of their parts."""
    return repr([(type(c.re), c.re, type(c.im), c.im) for c in comps])


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_majorana_doubling_matches_the_product(backend):
    """(3, I) samples build j psi_c as SplitComplex(c.im, c.re); values,
    part types and the rng state are those of SplitComplex(0, 1) * c."""
    case = case_info(3, "I")
    r1, r2 = random.Random(41), random.Random(41)
    for _ in range(200):
        got = sample_normalized(3, "I", backend=backend, rng=r1).comps
        if backend == "float":
            want = _assemble_reference(case, _gaussian_reference(case.norm_signs, 2, r2))
        else:
            want = _chord_reference(3, "I", r2, assemble=_assemble_reference)
        assert _full_repr(got) == _full_repr(want)
    assert r1.getstate() == r2.getstate()


def test_split_level3_fiber_matches_the_product():
    r1, r2 = random.Random(43), random.Random(43)
    for _ in range(200):
        got = sample_fiber(3, "I", r1)
        psi = sample_normalized(2, "I", rng=r2)
        want = [c * (1 / math.sqrt(2.0)) for c in _majorana_reference(psi.comps)]
        assert _full_repr(got) == _full_repr(want)
    assert r1.getstate() == r2.getstate()


def test_complex_level3_fiber_is_the_shared_gaussian_draw():
    """sample_fiber(3, "II") makes the gauss calls of the old loop (8 per
    attempt, redrawn while the Sigma3 form is at most EPS_NORM |v|^2) and
    returns a vector of Sigma3 form 1."""
    r1, r2 = random.Random(47), random.Random(47)
    for _ in range(200):
        got = sample_fiber(3, "II", r1)
        while True:
            raw = [r2.gauss(0, 1) for _ in range(8)]
            n = sum(c * c for c in raw[:4]) - sum(c * c for c in raw[4:])
            if n > hm.EPS_NORM * sum(c * c for c in raw):
                break
        assert all(type(c) is float for c in got)
        assert all(abs(a - b / math.sqrt(n)) <= 1e-14 * max(1.0, abs(a)) for a, b in zip(got, raw))
        assert abs(sum(c * c for c in got[:4]) - sum(c * c for c in got[4:]) - 1) <= 1e-12
    assert r1.getstate() == r2.getstate()


def test_overlap_samples_keep_both_patches():
    rng = random.Random(53)
    for lvl, real in ALL_CASES[:1] + ALL_CASES[2:]:
        for _ in range(20):
            pt = sample_base_point(lvl, real, rng=rng, overlap=True)
            assert abs(pt.coords[-1]) <= 0.9
            assert min(pt.patch_factor("upper"), pt.patch_factor("lower")) >= 0.1 - 1e-15


def test_sampling_determinism():
    a = sample_normalized(2, "II", seed=5)
    b = sample_normalized(2, "II", seed=5)
    assert a.comps == b.comps


# ---------------------------------------------------------------------------
# inversions

def test_pole_inversion():
    pt = BasePoint(1, "I", (0.0, 0.0, 1.0))
    sp = invert(pt)
    assert abs(sp.comps[0].re - 1) < 1e-15 and sp.comps[1].is_zero()


def test_lower_patch_exact_roundtrip():
    # 2(1 - x3) = 64/25 is a rational square, so the section stays exact
    pt = BasePoint(1, "I", (F(24, 25), 0, F(-7, 25)), "lower")
    sp = invert(pt)
    back = project(sp)
    assert back.coords == pt.coords


def _exact_parts(comps):
    """True when every component (or both parts of a binarion) is an int or
    a Fraction."""
    return all(type(p) in (int, F) for c in comps
               for p in ((c.re, c.im) if hasattr(c, "re") else (c,)))


def _exact_fiber(lvl, real):
    """A rational fiber at the map's level (None: invert's pole fiber)."""
    if lvl < 3:
        return None
    if real == "II":
        return [1] + [0] * 7  # Sigma3 form 1
    half = SplitComplex(F(1, 2), 0)
    # psi of norm 1/2, so (psi, j psi_c) has norm 1 and Phi = d conj(Phi)
    return hm._majorana_pair([half, half, SplitComplex(0, 0), SplitComplex(0, 0)])


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_invert_is_exact_at_the_integer_poles(lvl, real, patch):
    """2(1 +- x_last) = 4 at the pole of the patch: the section's prefactor
    is 1/2 exactly, with no flag, and the round trip is exact."""
    dim = case_info(lvl, real).base_dim
    pt = BasePoint(lvl, real, (0,) * (dim - 1) + (1 if patch == "upper" else -1,), patch)
    sp = invert(pt, fiber=_exact_fiber(lvl, real))
    assert _exact_parts(sp.comps)
    assert project(sp).coords == pt.coords


@pytest.mark.parametrize("x3", [F(-7, 25), F(7, 25)])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_invert_is_exact_on_rational_squares(x3, patch):
    # 2(1 +- x3) is 64/25 or 36/25, a rational square either way
    pt = BasePoint(1, "I", (F(24, 25), 0, x3), patch)
    sp = invert(pt)
    assert _exact_parts(sp.comps) and any(type(c.re) is F for c in sp.comps)
    assert project(sp).coords == pt.coords


def test_invert_is_float_off_rational_squares():
    # 2(1 + 4/5) = 18/5 is not a rational square
    pt = BasePoint(1, "I", (F(3, 5), 0, F(4, 5)))
    sp = invert(pt)
    assert all(type(c.re) is float and type(c.im) is float for c in sp.comps)
    assert max(abs(float(a - b)) for a, b in zip(project(sp).coords, pt.coords)) < 1e-15


def test_level0_invert_and_section_matrix_exact_on_rational_squares():
    # (y2 + 1) / 2 = 1 at the int pole; 9/8 at (3/4, 5/4) is not a square
    assert [type(c) for c in level0_invert((0, 1))] == [F, F]
    assert level0_invert((0, 1), "lower") == (0, -1)
    assert all(type(c) is float for c in level0_invert((F(3, 4), F(5, 4))))
    m = invert(BasePoint(3, "II", (0,) * 8 + (1,))).matrix()
    assert _exact_parts(m.entries[r][c] for r in range(16) for c in range(8))
    assert m.entry(0, 0) == F(1) and m.entry(8, 0) == 0
    pt = BasePoint(3, "II", (F(3, 4),) + (0,) * 7 + (F(5, 4),))
    off = invert(pt).matrix()  # 2(1 + 5/4) = 9/2 is not a square
    assert {type(e) for row in off.entries for e in row if e} == {float}


def test_level3_pole_matrix_section():
    pt = BasePoint(3, "I", (0,) * 8 + (1,))
    sec = invert(pt)
    assert isinstance(sec, Section)
    m = sec.matrix()
    for r in range(8):
        for c in range(8):
            want = 1.0 if r == c else 0.0
            assert abs(float(m.entry(r, c).re) - want) < 1e-15
    for r in range(8, 16):
        for c in range(8):
            assert m.entry(r, c).is_zero()


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_level3_invert_builds_the_section_once(monkeypatch, real, patch):
    """invert of a level-3 point without a fiber evaluates the section
    numerator once, in Section, and returns the section of that point."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return section_linear_at(*args, **kwargs)

    pt = sample_base_point(3, real, patch=patch, rng=random.Random(8))
    monkeypatch.setattr(hm, "section_linear_at", counting)
    sec = invert(pt)
    assert len(calls) == 1
    monkeypatch.undo()
    w, n = section_linear_at(3, real, pt.coords, patch)
    assert isinstance(sec, Section) and sec.patch == patch
    assert sec.w == w and sec.n == n


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_section_coordinates_entry(lvl, real, patch):
    # section_linear_at of bare coordinates gives the point's patch factor
    # bit for bit (repr tells -0.0 from 0.0 and 1 from Fraction(1)), and
    # exact grids equal to the gamma-matrix construction's, on float,
    # Fraction and int coordinates
    rng = random.Random(19)
    ints = tuple(range(2, case_info(lvl, real).base_dim + 2))  # off the hyperboloid
    for coords in (sample_base_point(lvl, real, patch=patch, rng=rng).coords,
                   sample_base_point(lvl, real, patch=patch, backend="exact", rng=rng).coords,
                   ints):
        pt = BasePoint(lvl, real, coords, patch)
        w, n = section_linear_at(lvl, real, coords, patch)
        assert repr(n) == repr(pt.patch_factor())
        if not isinstance(coords[0], float):
            # the values of the gamma-matrix construction the template is read from
            assert w == hm._section_linear_raw(pt)[0]
    # int coordinates enter as Fractions
    w_frac, _ = section_linear_at(lvl, real, [F(c) for c in ints], patch)
    assert repr(w.components()) == repr(w_frac.components())
    assert any(type(c) is F for g in w.components() for row in g for c in row)


def _cells(m):
    return [c for g in m.components() for row in g for c in row]


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_section_slopes_match_the_template(lvl, real, patch):
    # w(x) = C + sum x_a M_a exactly, C = w(0), at seeded rational points on
    # and off the hyperboloid; the slopes are int matrices, made once
    dim = case_info(lvl, real).base_dim
    slopes = section_slopes(lvl, real, patch)
    assert section_slopes(lvl, real, patch) is slopes and len(slopes) == dim
    assert all(type(c) is int for m in slopes for c in _cells(m))
    const, _ = section_linear_at(lvl, real, (F(0),) * dim, patch)
    rng = random.Random(41)
    for coords in (sample_base_point(lvl, real, patch=patch, backend="exact", rng=rng).coords,
                   [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]):
        w, _ = section_linear_at(lvl, real, coords, patch)
        want = const
        for xa, m in zip(coords, slopes):
            want = want + m.scale(xa)
        assert w.ring == want.ring and (w.rows, w.cols) == (want.rows, want.cols)
        assert _cells(w) == _cells(want)
        assert all(type(c) in (int, F) for c in _cells(w) + _cells(want))


@pytest.mark.parametrize("real", ["I", "II"])
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_invert_takes_the_phase_bare_or_in_a_list_of_one(real, patch):
    # the level-1 fiber as connection_numeric takes it; (1, II) lower is the
    # mirror leaf
    rng = random.Random(43)
    for _ in range(3):
        pt = sample_base_point(1, real, patch=patch, rng=rng)
        phase = sample_fiber(1, real, rng)
        bare = invert(pt, phase, patch)
        for wrapped in ([phase], (phase,)):
            got = invert(pt, wrapped, patch)
            assert [(c.re.hex(), c.im.hex()) for c in got.comps] == \
                [(c.re.hex(), c.im.hex()) for c in bare.comps]
        for wrong in ([], [phase, phase]):
            with pytest.raises(ValueError):
                invert(pt, wrong, patch)


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_roundtrip(lvl, real, patch):
    rng = random.Random(11)
    worst = 0.0
    for _ in range(40):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        sp = invert(pt, fiber=sample_fiber(lvl, real, rng), patch=patch)
        back = project(sp)
        worst = max(worst, max(abs(a - b) for a, b in zip(back.coords, pt.coords)))
    assert worst < 1e-12


def test_patch_error_advises_other_patch():
    pt = BasePoint(1, "I", (0.0, 0.0, 1.0))
    with pytest.raises(PatchError) as exc:
        invert(pt, patch="lower")
    assert "upper" in str(exc.value)


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("one", [1.0, 1, F(1)])
def test_section_refuses_a_degenerate_patch(lvl, real, one):
    # at each pole the other patch's factor is 0: Section refuses it as
    # invert does, with floats and with exact coordinates
    dim = case_info(lvl, real).base_dim
    for last, patch in ((one, "lower"), (-one, "upper")):
        pt = BasePoint(lvl, real, (0 * one,) * (dim - 1) + (last,))
        with pytest.raises(PatchError):
            Section(pt, patch).matrix()
        with pytest.raises(PatchError):
            invert(pt, patch=patch)


def test_off_surface_rejected():
    pt = BasePoint(1, "I", (0.5, 0.0, 1.0))
    with pytest.raises(ConstraintError):
        invert(pt)


def test_two_leaf_lower_section_has_negative_norm():
    rng = random.Random(3)
    pt = sample_base_point(1, "II", patch="lower", rng=rng)
    sp = invert(pt, patch="lower")
    n = sp.norm()
    assert abs(float(n.re) + 1) < 1e-12
    # positive-norm spinors can never reach the lower leaf: x3 >= 1 always
    for _ in range(50):
        s = sample_normalized(1, "II", rng=rng)
        assert project(s).coords[2] >= 1


# ---------------------------------------------------------------------------
# level 0

def test_level0_map():
    y = level0_project((F(3, 4), F(5, 4)))
    assert y == (F(15, 8), F(17, 8))
    assert y[0] ** 2 - y[1] ** 2 == -1
    assert level0_project((-F(3, 4), -F(5, 4))) == y
    assert level0_invert(y, "upper") == (F(3, 4), F(5, 4))
    lo = level0_invert(y, "lower")
    assert lo == (-F(3, 4), -F(5, 4))
    assert level0_project(lo) == y
    with pytest.raises(ConstraintError):
        level0_project((1.0, 1.0))


# ---------------------------------------------------------------------------
# hierarchy

@pytest.mark.parametrize("lvl,real", [(2, "I"), (2, "II"), (3, "I"), (3, "II")])
def test_hierarchical_fibers(lvl, real):
    for (cid, ok, detail) in hierarchical_fiber_check(lvl, real, seed=5, samples=8):
        assert ok, "%s: %s" % (cid, detail)


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_sampled_fibers_invert(lvl, real):
    """Every fiber sample_fiber draws is one invert takes, and the section
    through it is a normalized spinor over the base point."""
    rng = random.Random(9)
    for _ in range(20):
        fib = sample_fiber(lvl, real, rng)
        pt = sample_base_point(lvl, real, rng=rng)
        n = invert(pt, fiber=fib).norm()
        assert abs(float(getattr(n, "re", n)) - 1) < 1e-12


def test_level3_II_hierarchy_inverts_every_sample(monkeypatch):
    """A rejected level-3 (II) fiber draw is drawn again, not a sample lost:
    eight samples are eight sections."""
    import splithopf.hopfmaps as hm
    seen = []

    def counting(*args, **kwargs):
        seen.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(hm, "invert", counting)
    for seed in (0, 5, 7):
        del seen[:]
        [(cid, ok, detail)] = hierarchical_fiber_check(3, "II", seed=seed, samples=8)
        assert ok, detail
        assert len(seen) == 8


def test_null_fiber_rejected():
    pt = BasePoint(2, "I", (0.0, 0.0, 0.0, 0.0, 1.0))
    null = Spinor(1, "I", [SplitComplex(1, 1), SplitComplex(0, 0)])  # norm 0
    with pytest.raises(NormalizationError):
        invert(pt, fiber=null)


def test_case_info_validation():
    with pytest.raises(ValueError):
        case_info(4, "I")
    with pytest.raises(ValueError):
        case_info(1, "III")


def test_invert_rejects_nan():
    nan = float("nan")
    with pytest.raises(ConstraintError):
        invert(BasePoint(1, "I", (nan, 0.0, 1.0)))
    with pytest.raises(ConstraintError):
        invert(BasePoint(2, "II", (0.0, 0.0, 0.0, nan, 1.0)))
    with pytest.raises(ConstraintError):
        level0_invert((nan, 1.0))
    with pytest.raises(ConstraintError):
        level0_project((nan, 1.0))
    with pytest.raises(NormalizationError):
        invert(BasePoint(1, "I", (0.0, 0.0, 1.0)), fiber=SplitComplex(nan, 0.0))


@pytest.mark.parametrize("lvl,real", ALL_CASES)
def test_form_matrices_over_case_ring(lvl, real):
    # norm and project take the Hermitian form over the case's ring, so the
    # sum starts from that ring's zero
    case = case_info(lvl, real)
    assert case.weight().ring == case.ring
    assert all(m.ring == case.ring for m in case.projection_matrices())
    sp = sample_normalized(lvl, real, backend="exact", rng=random.Random(4))
    assert sp.norm() == 1


def test_base_point_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConstraintError):
            BasePoint(1, "I", (bad, 0.0, 1.0))
        with pytest.raises(ConstraintError):
            BasePoint(2, "II", (0.0, 0.0, 0.0, 0.0, bad))
    # exact coordinates are never converted to float (this one would overflow)
    huge = F(10 ** 400, 3)
    assert BasePoint(1, "I", (huge, 0, 1)).coords[0] == huge


def test_spinor_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for bad in (SplitComplex(nan, 0.0), SplitComplex(0.0, -inf)):
        with pytest.raises(ConstraintError):
            Spinor(1, "I", (bad, SplitComplex(0.0, 0.0)))
    with pytest.raises(ConstraintError):
        Spinor(1, "II", (OrdinaryComplex(1.0, 0.0), OrdinaryComplex(inf, 0.0)))
    with pytest.raises(ConstraintError):
        Spinor(3, "II", [1.0] + [0.0] * 14 + [nan])
    huge = F(10 ** 400, 7)
    assert Spinor(1, "I", (SplitComplex(huge, huge), SplitComplex(0, 0))).comps[0].re == huge


def test_project_rejects_nan_norm(monkeypatch):
    import splithopf.hopfmaps as hm
    nan = float("nan")
    # past the constructor's own check, project still refuses a NaN component
    with monkeypatch.context() as m:
        m.setattr(hm, "_check_finite", lambda values, what: None)
        psi = Spinor(1, "II", (OrdinaryComplex(nan, 0), OrdinaryComplex(0, 0)))
        with pytest.raises(ValueError):
            project(psi)
    # a NaN norm itself, with its sign read as -1 (allowed on the two-leaf map),
    # from the one forms call that gives project the norm and the coordinates
    forms = hm.forms
    monkeypatch.setattr(hm, "forms", lambda mats, vec: [nan] + forms(mats, vec)[1:])
    with pytest.raises(NormalizationError):
        project(Spinor(1, "II", (OrdinaryComplex(1.0, 0.0), OrdinaryComplex(0.0, 0.0))))


def test_project_rejects_nan_constraint_residual(monkeypatch):
    monkeypatch.setattr(BasePoint, "constraint_residual", lambda self: float("nan"))
    with pytest.raises(ConstraintError):
        project(Spinor(1, "I", (SplitComplex(1.0, 0.0), SplitComplex(0.0, 0.0))))


def test_scalar_value_rejects_nan_imaginary_part():
    from splithopf.hopfmaps import _scalar_value
    with pytest.raises(ConstraintError):
        _scalar_value(OrdinaryComplex(1.0, float("nan")), "norm")
    assert _scalar_value(OrdinaryComplex(1.0, 1e-12), "norm") == 1.0


def test_close_vec_rejects_nan():
    from splithopf.hopfmaps import _close_vec
    nan = float("nan")
    assert not _close_vec([SplitComplex(nan, 0.0)], [SplitComplex(0.0, 0.0)])
    assert not _close_vec([nan], [0.0])
    assert _close_vec([SplitComplex(1.0, 0.0)], [SplitComplex(1.0, 1e-12)])


@pytest.mark.parametrize("lvl,real,call,want", [
    (2, "I", 1, "norm nan"),
    (2, "II", 1, "norm nan"),
    (3, "I", 1, "Phi norm nan"),
    (3, "I", 2, "level-3 norm nan"),
    (3, "II", 1, "norm nan"),
])
def test_fiber_hierarchy_fails_on_nan_norm(monkeypatch, lvl, real, call, want):
    """The call-th norm hierarchical_fiber_check reads itself is NaN; its
    guard must fail."""
    import splithopf.hopfmaps as hm
    orig = hm._scalar_value
    seen = []

    def nan_norm(x, where):
        v = orig(x, where)
        if sys._getframe(1).f_code.co_name == "hierarchical_fiber_check":
            seen.append(v)
            if len(seen) == call:
                return float("nan")
        return v

    monkeypatch.setattr(hm, "_scalar_value", nan_norm)
    [(cid, ok, detail)] = hierarchical_fiber_check(lvl, real, seed=5, samples=2)
    assert not ok
    assert detail == want
