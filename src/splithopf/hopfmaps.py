"""The four non-compact Hopf projections and their patchwise inversions.

Levels 0..3 in both realizations.  A spinor on the total space projects onto
an ultra-hyperboloid through the bilinears of its gamma family; inversion
sections reconstruct a spinor over each patch from a base point and a fiber
element.  Component formulas always go through the gamma matrices.

Every value is immutable; functions are pure and safe to call concurrently.
Exact rational and float backends share all code paths; every square root
is splitnum.root's, exact on a rational square.  The float samplers share
one gaussian draw and the level-3 (I) samplers one Majorana doubling.
"""

import functools
import math
import random

from .splitnum import SplitComplex, OrdinaryComplex, rational, reciprocal, root
from .ringmat import (RMatrix, MetricForm, AffineFamily, RING_REAL, RING_SPLIT, RING_COMPLEX,
                      forms, lincomb)
from . import gammarep

__all__ = [
    "Spinor", "BasePoint", "Section",
    "NormalizationError", "PatchError", "SamplingError", "ConstraintError",
    "CASES", "case_info",
    "patch_sign", "require_patch", "section_linear_at", "section_slopes",
    "project", "invert", "sample_normalized", "sample_base_point", "sample_fiber",
    "level0_project", "level0_invert",
    "hierarchical_fiber_check", "charge_conjugate_spinor",
]

EPS_PATCH = 1e-9
# draws this close to the null cone of the normalization form are rejected;
# they would blow up coordinates and lose the 1e-12 constraint residual
EPS_NORM = 0.2
REJECTION_CAP = 1000
# the coordinates of an exact chord direction: rng.choice(_CHORD_DRAWS) is
# rng.randint(-9, 9), one rng._randbelow(19) either way
_CHORD_DRAWS = range(-9, 10)
# sampled base points keep their patch factors at least this far from 0
SAMPLE_MARGIN = 0.05


class NormalizationError(ValueError):
    def __init__(self, norm, msg=None):
        self.norm = norm
        super().__init__(msg or "spinor is not normalized: <s,s> = %r" % (norm,))


class PatchError(ValueError):
    def __init__(self, patch, factor):
        self.patch = patch
        self.factor = factor
        other = "lower" if patch == "upper" else "upper"
        super().__init__(
            "point is degenerate on the %s patch (1 %s x_last = %r); try the %s patch"
            % (patch, "+" if patch == "upper" else "-", factor, other)
        )


class SamplingError(RuntimeError):
    pass


class ConstraintError(ValueError):
    pass


class _Case:
    """Static data for one (level, realization) pair."""

    def __init__(self, level, realization, family, base_metric, constraint_target,
                 spinor_dim, fiber_dim, ring, unit, norm_signs):
        self.level = level
        self.realization = realization
        self.family = family  # the gamma family of the projection
        self.base_metric = MetricForm(base_metric)
        self.constraint_target = constraint_target
        self.spinor_dim = spinor_dim
        self.fiber_dim = fiber_dim
        self.ring = ring
        self.unit = unit
        # diagonal quadratic form of the normalization in real coordinates
        self.norm_signs = norm_signs

    @property
    def base_dim(self):
        return self.base_metric.dim

    def weight(self):
        return _weight_matrix(self.level, self.realization)

    def fiber_weight(self):
        """Weight of the fiber's norm at levels 2-3: the first map's weight
        at level 2, the identity (I) or diag(1_4, -1_4) (II) at level 3."""
        return _fiber_weight(self.level, self.realization)

    def projection_matrices(self):
        return list(_bilinear_matrices(self.level, self.realization)[1:])


CASES = {
    (1, "I"): _Case(1, "I", "split_pauli", (1, -1, 1), 1, 2, 1, RING_SPLIT,
                    SplitComplex(0, 1), (1, -1, 1, -1)),
    (1, "II"): _Case(1, "II", "tau", (1, 1, -1), -1, 2, 1, RING_COMPLEX,
                     OrdinaryComplex(0, 1), (1, 1, -1, -1)),
    (2, "I"): _Case(2, "I", "so32_I", (1, -1, 1, -1, -1), -1, 4, 2, RING_SPLIT,
                    SplitComplex(0, 1), (1, -1, 1, -1, 1, -1, 1, -1)),
    (2, "II"): _Case(2, "II", "so32_II", (1, 1, -1, -1, -1), -1, 4, 2, RING_COMPLEX,
                     OrdinaryComplex(0, 1), (1, 1, -1, -1, 1, 1, -1, -1)),
    (3, "I"): _Case(3, "I", "so54_I", (1, -1, -1, 1, 1, -1, -1, 1, 1), 1, 16, 8, RING_SPLIT,
                    SplitComplex(0, 1),
                    tuple(s for _ in range(8) for s in (1, -1))),
    (3, "II"): _Case(3, "II", "so54_II", (-1, -1, -1, -1, 1, 1, 1, 1, 1), 1, 16, 8, RING_REAL,
                     1, (1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1)),
}


def case_info(level, realization):
    try:
        return CASES[(level, realization)]
    except KeyError:
        raise ValueError("no such map: level %r realization %r" % (level, realization))


@functools.lru_cache(maxsize=None)
def _weight_matrix(level, realization):
    """The family's pseudo-Hermitian weight (realization II), else the identity."""
    fam = gammarep.build_family(CASES[(level, realization)].family)
    return fam.weight if fam.weight is not None else RMatrix.identity(fam.dim, fam.ring)


@functools.lru_cache(maxsize=None)
def _fiber_weight(level, realization):
    if level == 1:
        raise ValueError("the first map's fiber is a phase; it has no weight matrix")
    if level == 2:
        return _weight_matrix(1, realization)
    if realization == "I":
        return RMatrix.identity(8, RING_SPLIT)
    return gammarep.sigma3_block(4)


@functools.lru_cache(maxsize=None)
def _bilinear_matrices(level, realization):
    """(weight, m^1 ... m^k) with m^a = gamma^a, or weight @ gamma^a for a
    weighted family: a spinor's norm is the form of the weight and x^a the
    form of m^a."""
    fam = gammarep.build_family(CASES[(level, realization)].family)
    weight = _weight_matrix(level, realization)
    if fam.weight is None:
        return (weight,) + tuple(fam.gammas)
    return (weight,) + tuple(fam.weight @ g for g in fam.gammas)


def charge_conjugate_spinor(psi_comps):
    """psi_c = b conj(psi) for a 4-component split spinor."""
    return _conjugate("so32_I", psi_comps)


def _conjugate(family, comps):
    """C conj(v), C the family's charge-conjugation matrix: the one form of
    every reality condition v = +-C conj(v) and of psi_c."""
    return gammarep.charge_conjugation(family).matrix.matvec([c.conj() for c in comps])


def _majorana_pair(psi):
    """(psi, j psi_c) of a 4-component split spinor; j c is written
    SplitComplex(c.im, c.re), the value and type of SplitComplex(0, 1) * c."""
    return list(psi) + [SplitComplex(c.im, c.re) for c in charge_conjugate_spinor(psi)]


def _check_finite(values, what):
    """ConstraintError on a NaN or infinite float among the values or the
    re/im of a binarion among them; exact values are never converted."""
    for v in values:
        for c in (v.re, v.im) if isinstance(v, (SplitComplex, OrdinaryComplex)) else (v,):
            if isinstance(c, float) and not math.isfinite(c):
                raise ConstraintError("non-finite %s: %r" % (what, v))


class Spinor:
    """Hopf spinor at a given level and realization.

    comps are ring elements (split-complex, ordinary complex, or plain reals
    at level 3-II).  The weighted self-inner product is 1, except on the
    sections of the two-leaf map (1, II) over its lower leaf, where it is -1.
    """

    __slots__ = ("level", "realization", "comps")

    def __init__(self, level, realization, comps):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "comps", tuple(comps))
        case = case_info(level, realization)
        if len(self.comps) != case.spinor_dim:
            raise ValueError("expected %d components" % case.spinor_dim)
        _check_finite(self.comps, "spinor component")

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def norm(self):
        return forms((_weight_matrix(self.level, self.realization),), self.comps)[0]

    def __repr__(self):
        return "Spinor(level=%d, realization=%s, dim=%d)" % (
            self.level, self.realization, len(self.comps))


class BasePoint:
    """Point on the base ultra-hyperboloid, tagged with its patch."""

    __slots__ = ("level", "realization", "coords", "patch")

    def __init__(self, level, realization, coords, patch=None):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "coords", tuple(coords))
        case = case_info(level, realization)
        if len(self.coords) != case.base_dim:
            raise ValueError("expected %d coordinates" % case.base_dim)
        _check_finite(self.coords, "coordinate")
        if patch is None:
            patch = "upper" if self.coords[-1] >= 0 else "lower"
        object.__setattr__(self, "patch", patch)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def constraint_residual(self):
        case = case_info(self.level, self.realization)
        return case.base_metric.inner(self.coords, self.coords) - case.constraint_target

    def patch_factor(self, patch=None):
        """n = 1 + s x_last on the patch (the point's own by default)."""
        return 1 + patch_sign(patch or self.patch) * self.coords[-1]

    def __repr__(self):
        return "BasePoint(level=%d, %s, %r, %s)" % (
            self.level, self.realization, self.coords, self.patch)


def patch_sign(patch):
    """s = +1 on the upper patch, -1 on the lower."""
    return 1 if patch == "upper" else -1


def require_patch(coords, patch):
    """(s, n): the patch sign and the patch factor n = 1 + s x_last of any
    coordinates, refused with PatchError below EPS_PATCH."""
    n = 1 + patch_sign(patch) * coords[-1]
    if n < EPS_PATCH:
        raise PatchError(patch, n)
    return patch_sign(patch), n


def _near(v, target):
    """v == target for an exact v; |v - target| <= 1e-9 for a float."""
    if isinstance(v, float):
        return abs(v - target) <= 1e-9
    return v == target


def _scalar_value(x, where):
    """Extract the real value of a ring scalar, asserting a tiny imaginary part."""
    if isinstance(x, (SplitComplex, OrdinaryComplex)):
        if isinstance(x.im, float) or isinstance(x.re, float):
            if not (abs(x.im) <= 1e-9 * max(1.0, abs(x.re))):
                raise ConstraintError("non-real %s in %s: %r" % (type(x).__name__, where, x))
            return x.re
        if x.im != 0:
            raise ConstraintError("non-real value in %s: %r" % (where, x))
        return x.re
    return x


def project(spinor):
    """Map a normalized spinor to its base point.

    The weighted norm must be 1 (exactly for rational components, within
    1e-9 for floats).  For the two-leaf map (1, II) a norm of -1 is also
    accepted and lands on the lower leaf.
    """
    norm, *values = forms(_bilinear_matrices(spinor.level, spinor.realization), spinor.comps)
    n = _scalar_value(norm, "norm")
    allowed = (1, -1) if (spinor.level, spinor.realization) == (1, "II") else (1,)
    if not any(_near(n, sign) for sign in allowed):
        raise NormalizationError(n)
    exact = not isinstance(n, float)
    # dividing by the measured norm kills first-order error
    coords = [_scalar_value(v, "projection") / n for v in values]
    point = BasePoint(spinor.level, spinor.realization, coords)
    res = point.constraint_residual()
    if exact:
        if res != 0:
            raise ConstraintError("exact projection left the hyperboloid: %r" % (res,))
    else:
        scale = max(1.0, sum(float(c) * float(c) for c in coords))
        if not (abs(res) <= 1e-10 * scale):
            raise ConstraintError("projection left the hyperboloid: %r" % (res,))
    return point


# ---------------------------------------------------------------------------
# inversion sections

def _section_linear_raw(point, patch=None):
    case = case_info(point.level, point.realization)
    patch = patch or point.patch
    s = patch_sign(patch)
    x = point.coords
    n = point.patch_factor(patch)
    ring = case.ring

    if point.level == 1:
        up = ring.promote(n)
        if point.realization == "I":
            z = SplitComplex(x[0], -s * x[1])
        elif patch == "upper":
            z = OrdinaryComplex(x[1], -x[0])
        else:
            # lower leaf: the image of the map never reaches it, so the
            # section is the negative-norm mirror fixed by requiring
            # project(invert(x)) == x
            z = OrdinaryComplex(-x[1], -x[0])
        col = [[up], [z]] if patch == "upper" else [[z], [up]]
        return RMatrix(col, ring), n

    # block = x_{d-1} 1 + s c sum_{a<d-1} x_a G_a over the map's lowered set
    lowered, c = gammarep.lowered_set(point.level, point.realization)
    one = RMatrix.identity(lowered[0].rows, ring)
    block = one.scale(x[-2]) + lincomb(x[:-2], lowered).scale(s * c)
    top = one.scale(n) if patch == "upper" else block
    bottom = block if patch == "upper" else one.scale(n)
    return RMatrix.from_blocks([[top], [bottom]], ring), n


def _section_affine(level, realization, patch):
    """(C, M_1 ... M_d) of the section numerator, w(x) = C + sum x_a M_a:
    w at x = 0 and its differences at the unit points, int points, so their
    values are ints.  Not cached: the family and section_slopes each keep
    what they read of it, and a run that takes no derivative keeps no slope."""
    dim = case_info(level, realization).base_dim
    points = [[0] * dim] + [[int(b == a) for b in range(dim)] for a in range(dim)]
    c_mat, *w = [_section_linear_raw(BasePoint(level, realization, x, patch), patch)[0]
                 for x in points]
    return (c_mat, *(w_a - c_mat for w_a in w))


@functools.lru_cache(maxsize=None)
def _section_family(level, realization, patch):
    """The section numerator's ringmat.AffineFamily, from _section_affine."""
    return AffineFamily(*_section_affine(level, realization, patch))


def section_linear_at(level, realization, coords, patch):
    """The section as (w, n): full section = w / sqrt(2 n), w linear in x.

    w has shape spinor_dim x fiber_dim; n is the patch factor 1 +- x_last.
    Keeping the square root outside w lets derivative formulas stay rational.
    w is the section's AffineFamily (_section_family) at the coordinates,
    which may lie off the hyperboloid (the shifted points of the oracles):
    no BasePoint is built, so no finiteness scan runs.
    """
    return _section_family(level, realization, patch).at(coords), 1 + patch_sign(patch) * coords[-1]


@functools.lru_cache(maxsize=None)
def section_slopes(level, realization, patch):
    """The slopes M_a of the section numerator, w(x) = C + sum x_a M_a, as
    int-valued matrices of the shape and ring of w, one per coordinate:
    the tail of _section_affine.  A first derivative of w along t is
    sum t_a M_a, with no evaluation of w at a shifted point."""
    return _section_affine(level, realization, patch)[1:]


class Section:
    """Matrix-valued inversion section over one patch (identity fiber); a
    point degenerate on the patch is refused (require_patch), as in invert."""

    __slots__ = ("point", "patch", "w", "n")

    def __init__(self, point, patch=None):
        patch = patch or point.patch
        require_patch(point.coords, patch)
        w, n = section_linear_at(point.level, point.realization, point.coords, patch)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def matrix(self):
        """The normalized section w / sqrt(2n), exact where 2n is a rational
        square (splitnum.root)."""
        return self.w.scale(reciprocal(root(2 * self.n)))


def _fiber_norm(case, comps):
    """The form of the map's fiber weight on a level-2/3 fiber."""
    return forms((case.fiber_weight(),), comps)[0]


def _check_fiber(case, point, fiber):
    """The fiber's components, once its norm (and at level 3-I its reality
    condition) is checked."""
    if point.level == 1:
        if isinstance(fiber, (list, tuple)):
            if len(fiber) != 1:
                raise ValueError("level-1 fiber is one phase, bare or in a list of one")
            fiber = fiber[0]
        q = _scalar_value(fiber.qform() if hasattr(fiber, "qform") else fiber * fiber, "fiber")
        _require_one(q, "fiber phase must satisfy conj(c) c = 1")
        return [fiber]
    comps = list(getattr(fiber, "comps", fiber))
    if len(comps) != case.fiber_dim:
        raise ValueError("level-%d fiber needs %d components" % (point.level, case.fiber_dim))
    _check_finite(comps, "fiber component")
    _require_one(_scalar_value(_fiber_norm(case, comps), "fiber norm"),
                 "fiber must have weighted norm 1")
    if case.realization == "I" and point.level == 3 \
            and not _close_vec(_conjugate("so43_I", comps), comps):
        raise ValueError("level-3 fiber must satisfy the reality condition Phi = d conj(Phi)")
    return comps


def _require_one(v, msg):
    if not _near(v, 1):
        raise NormalizationError(v, msg + " (got %r)" % (v,))


def _close_vec(a, b):
    for x, y in zip(a, b):
        d = x - y
        if not all(_near(c, 0) for c in ((d.re, d.im) if hasattr(d, "re") else (d,))):
            return False
    return True


def invert(point, fiber=None, patch=None):
    """Inversion section at a base point; returns a Spinor (or a Section).

    fiber is the element of the fiber at one level below: a unit phase at
    level 1 (bare or in a list of one; any other sequence is refused with a
    ValueError), a normalized level-1 spinor at level 2, an 8-component spinor
    with the appropriate reality condition at level 3.  fiber=None picks the
    pole fiber at levels 1-2 and the matrix section at level 3.

    The prefactor 1/sqrt(2(1 +- x_last)) is splitnum.root's: exact where
    that is a rational square, a float otherwise.
    """
    case = case_info(point.level, point.realization)
    patch = patch or point.patch
    res = point.constraint_residual()
    if not _near(res, 0):
        raise ConstraintError("point is off the hyperboloid: residual %r" % (res,))
    require_patch(point.coords, patch)

    if fiber is None:
        if point.level == 3:
            return Section(point, patch)
        if point.level == 1:
            fiber = case.ring.one
        else:
            pole = [case.ring.one, case.ring.zero]
            fiber = Spinor(1, point.realization, pole)
    w, n = section_linear_at(point.level, point.realization, point.coords, patch)
    # ring elements, as the section's entries are, so that every fiber takes
    # matvec's component path
    fiber = [case.ring.promote(c) for c in _check_fiber(case, point, fiber)]
    pref = reciprocal(root(2 * n))
    return Spinor(point.level, point.realization, [c * pref for c in w.matvec(fiber)])


# ---------------------------------------------------------------------------
# level 0

def level0_project(pair):
    """(x1, x2) on the hyperbola x1^2 - x2^2 = -1, with antipodes identified,
    onto (y1, y2) = (2 x1 x2, x1^2 + x2^2) on one branch."""
    x1, x2 = pair
    res = x1 * x1 - x2 * x2 + 1
    if not _near(res, 0):
        raise ConstraintError("not on the hyperbola: %r" % (res,))
    return (2 * x1 * x2, x1 * x1 + x2 * x2)


def level0_invert(pair, patch="upper"):
    """Pick the antipodal representative with x2 > 0 (upper) or x2 < 0."""
    y1, y2 = pair
    res = y1 * y1 - y2 * y2 + 1
    if not _near(res, 0):
        raise ConstraintError("not on the hyperbola: %r" % (res,))
    x2 = root(reciprocal(2) * (y2 + 1))
    if patch == "lower":
        x2 = -x2
    x1 = y1 / (2 * x2)
    return (x1, x2)


# ---------------------------------------------------------------------------
# sampling

def _assemble(case, reals):
    if case.ring is RING_REAL:
        return list(reals)
    cls = type(case.ring.zero)
    comps = [cls(reals[i], reals[i + 1]) for i in range(0, len(reals), 2)]
    if (case.level, case.realization) == (3, "I"):
        # the 16 free parameters (U, V) fill the pattern (U, j U_c, V, j V_c)
        return _majorana_pair(comps[:4]) + _majorana_pair(comps[4:])
    return comps


def _gaussian(signs, rng, mult=1):
    """The one rejection draw: a gaussian vector v, drawn again while
    n = mult sum s v^2 is at most EPS_NORM mult |v|^2, then scaled to n = 1."""
    for _ in range(REJECTION_CAP):
        v = [rng.gauss(0.0, 1.0) for _ in signs]
        n = mult * sum(s * c * c for s, c in zip(signs, v))
        e2 = mult * sum(c * c for c in v)
        if n <= EPS_NORM * e2:
            continue
        scale = 1.0 / math.sqrt(n)
        return [c * scale for c in v]
    raise SamplingError("rejection cap exceeded in a gaussian draw of signature %r" % (signs,))


def sample_normalized(level, realization, seed=0, backend="float", rng=None):
    """Pseudo-random normalized spinor; deterministic for a fixed seed.

    backend="float": the gaussian draw of _gaussian, which the level-3 (II)
    fiber shares.  backend="exact": a rational point on the
    normalization quadric through the chord construction, so the norm is 1
    exactly.  Level 3-I spinors are assembled from free (U, V) parameters so
    the reality condition holds by construction.
    """
    case = case_info(level, realization)
    rng = rng or random.Random(seed)
    signs = case.norm_signs
    dim = len(signs)
    mult = 2 if (level, realization) == (3, "I") else 1
    if backend == "float":
        return Spinor(level, realization, _assemble(case, _gaussian(signs, rng, mult)))
    if backend != "exact":
        raise ValueError("backend must be 'float' or 'exact'")
    # the chord from p0 = P0 / mult, a point of norm 1, along an int
    # direction v meets the quadric again at p = p0 + t v, t = -2 b / (mult qv)
    # with qv = q(v) and b = mult * sum s P0 v; over the one denominator
    # mult qv, p_i = (P0_i qv - 2 b v_i) / (mult qv).  b == 0 gives p == p0.
    P0 = [1 if i == 0 or (mult == 2 and i == 8) else 0 for i in range(dim)]
    for _ in range(REJECTION_CAP):
        v = [rng.choice(_CHORD_DRAWS) for _ in range(dim)]
        qv = mult * sum(s * c * c for s, c in zip(signs, v))
        if qv == 0:
            continue
        b = mult * sum(s * a * c for s, a, c in zip(signs, P0, v))
        if b == 0:
            continue
        den = mult * qv
        p = [rational(a * qv - 2 * b * c, den) for a, c in zip(P0, v)]
        return Spinor(level, realization, _assemble(case, p))
    raise SamplingError("rejection cap exceeded (exact backend)")


def sample_base_point(level, realization, patch="upper", seed=0, backend="float",
                      rng=None, overlap=False):
    """Random base point on the requested patch, via a projected spinor.

    The hyperboloids are symmetric under flipping the last coordinate, so a
    projected point is reflected when it lands on the wrong patch.  With
    overlap=True the point is kept away from |x_last| = 1 so both patches
    and the transition function are well conditioned.
    """
    rng = rng or random.Random(seed)
    for _ in range(REJECTION_CAP):
        sp = sample_normalized(level, realization, backend=backend, rng=rng)
        pt = project(sp)
        coords = list(pt.coords)
        want_sign = patch_sign(patch)
        if (level, realization) == (1, "II"):
            # lower leaf is the reflection of the (always upper) image
            if patch == "lower":
                coords = [-c for c in coords]
        elif (coords[-1] > 0) != (want_sign > 0) and coords[-1] != 0:
            coords[-1] = -coords[-1]
        cand = BasePoint(level, realization, coords, patch)
        # |x_last| <= 0.9 keeps both patch factors at least 0.1 > SAMPLE_MARGIN
        if cand.patch_factor(patch) < SAMPLE_MARGIN or (overlap and abs(float(coords[-1])) > 0.9):
            continue
        return cand
    raise SamplingError("could not sample a base point on the %s patch" % patch)


def sample_fiber(level, realization, rng):
    """Pseudo-random fiber element of the given map, as invert takes it: a
    unit phase at level 1, a normalized level-1 spinor at level 2, and at
    level 3 Phi = (psi, j psi_c)/sqrt(2) from a normalized level-2 spinor
    (I) or the gaussian draw of sample_normalized over the diagonal of the
    fiber weight Sigma3 (II)."""
    case = case_info(level, realization)
    if level == 1:
        t = rng.uniform(-1, 1)
        if realization == "I":
            return SplitComplex(math.cosh(t), math.sinh(t))
        return OrdinaryComplex(math.cos(t), math.sin(t))
    if level == 2:
        return sample_normalized(1, realization, rng=rng)
    if realization == "I":
        psi = sample_normalized(2, "I", rng=rng)
        return [c * (1 / math.sqrt(2.0)) for c in _majorana_pair(psi.comps)]
    w = case.fiber_weight()
    return _gaussian([w.entry(i, i) for i in range(w.rows)], rng)


# ---------------------------------------------------------------------------
# hierarchy of fibers

def hierarchical_fiber_check(level, realization, seed=0, samples=20):
    """The fiber of map n is a normalized spinor of map n-1.

    Each of the samples draws a fiber (sample_fiber) and a base point, and
    the section through them must be a normalized spinor.  At level 3 (I)
    Phi, built from a level-2 spinor, must have unit norm too, and the
    section must satisfy the Majorana condition.
    A ConstraintError on the way (a projection off the hyperboloid, say)
    fails the check with the error as its detail.
    """
    if level not in (2, 3):
        raise ValueError("hierarchy check applies to levels 2 and 3")
    rng = random.Random(seed)
    split3 = (level, realization) == (3, "I")
    detail = ""
    try:
        for _ in range(samples):
            fib = sample_fiber(level, realization, rng)
            if split3:
                n = _scalar_value(_fiber_norm(case_info(3, "I"), fib), "norm")
                if not _near(n, 1):
                    detail = "Phi norm %r" % n
                    break
            psi = invert(sample_base_point(level, realization, rng=rng), fiber=fib)
            n = _scalar_value(psi.norm(), "norm")
            ok = _near(n, 1)
            if split3:
                ok = ok and _close_vec([-c for c in _conjugate("so54_I", psi.comps)], psi.comps)
            if not ok:
                detail = ("level-3 norm %r" if split3 else "norm %r") % n
                break
    except ConstraintError as exc:
        detail = str(exc)
    passed = "norm 1 throughout" if level == 2 else "hierarchy reproduced"
    return [("fiber-level%d-%s" % (level, realization), not detail, detail or passed)]
