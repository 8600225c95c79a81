"""Projections, inversion sections, sampling and the fiber hierarchy."""

from fractions import Fraction as F
import math
import random
import sys

import pytest

from splithopf.splitnum import SplitComplex, OrdinaryComplex
from splithopf.hopfmaps import (
    Spinor, BasePoint, Section, project, invert, sample_normalized,
    sample_base_point, level0_project, level0_invert, hierarchical_fiber_check,
    charge_conjugate_spinor, majorana_matrix, NormalizationError, PatchError,
    ConstraintError, case_info,
)

ALL_CASES = [(1, "I"), (1, "II"), (2, "I"), (2, "II"), (3, "I"), (3, "II")]


def random_fiber(lvl, real, rng):
    if lvl == 1:
        t = rng.uniform(-1, 1)
        if real == "I":
            return SplitComplex(math.cosh(t), math.sinh(t))
        return OrdinaryComplex(math.cos(t), math.sin(t))
    if lvl == 2:
        return sample_normalized(1, real, rng=rng)
    if real == "I":
        psi = sample_normalized(2, "I", rng=rng)
        j = SplitComplex(0, 1)
        pc = charge_conjugate_spinor(psi.comps)
        return [c * (1 / math.sqrt(2.0)) for c in list(psi.comps) + [j * c for c in pc]]
    while True:
        raw = [rng.gauss(0, 1) for _ in range(8)]
        n = sum(raw[k] * raw[k] for k in range(4)) - sum(raw[k] * raw[k] for k in range(4, 8))
        if n > 0.2 * sum(c * c for c in raw):
            return [c / math.sqrt(n) for c in raw]


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
    assert project(sp.scaled_by_unit_phase(phase)).coords == project(sp).coords
    sp2 = Spinor(1, "II", [OrdinaryComplex(F(5, 4), 0), OrdinaryComplex(F(3, 4), 0)])
    phase2 = OrdinaryComplex(F(3, 5), F(4, 5))  # unit circle point
    assert phase2.qform() == 1
    assert project(sp2.scaled_by_unit_phase(phase2)).coords == project(sp2).coords


def test_majorana_sampling():
    B = majorana_matrix()
    rng = random.Random(1)
    for backend in ("float", "exact"):
        sp = sample_normalized(3, "I", backend=backend, rng=rng)
        target = [-c for c in B.matvec([c.conj() for c in sp.comps])]
        for a, b in zip(target, sp.comps):
            d = a - b
            assert abs(float(d.re)) < 1e-12 and abs(float(d.im)) < 1e-12


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
    sp = invert(pt, exact=True)
    back = project(sp)
    assert back.coords == pt.coords


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


@pytest.mark.parametrize("lvl,real", ALL_CASES)
@pytest.mark.parametrize("patch", ["upper", "lower"])
def test_roundtrip(lvl, real, patch):
    rng = random.Random(11)
    worst = 0.0
    for _ in range(40):
        pt = sample_base_point(lvl, real, patch=patch, rng=rng)
        sp = invert(pt, fiber=random_fiber(lvl, real, rng), patch=patch)
        back = project(sp)
        worst = max(worst, max(abs(a - b) for a, b in zip(back.coords, pt.coords)))
    assert worst < 1e-12


def test_patch_error_advises_other_patch():
    pt = BasePoint(1, "I", (0.0, 0.0, 1.0))
    with pytest.raises(PatchError) as exc:
        invert(pt, patch="lower")
    assert "upper" in str(exc.value)


def test_off_surface_rejected():
    pt = BasePoint(1, "I", (0.5, 0.0, 1.0))
    with pytest.raises(ConstraintError):
        invert(pt)


def test_two_leaf_lower_section_has_negative_norm():
    rng = random.Random(3)
    pt = sample_base_point(1, "II", patch="lower", rng=rng)
    sp = invert(pt, patch="lower")
    assert sp.norm_sign == -1
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
    # a NaN norm itself, with its sign read as -1 (allowed on the two-leaf map)
    monkeypatch.setattr(Spinor, "norm", lambda self: nan)
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
