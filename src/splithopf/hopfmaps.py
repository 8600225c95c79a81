"""The four non-compact Hopf projections and their patchwise inversions.

Levels 0..3 in both realizations.  A spinor on the total space projects onto
an ultra-hyperboloid through the bilinears of its gamma family; inversion
sections reconstruct a spinor over each patch from a base point and a fiber
element.  Component formulas always go through the gamma matrices.

Every value is immutable; functions are pure and safe to call concurrently.
Exact rational and float backends share all code paths.
"""

from fractions import Fraction
import math
import random

from .splitnum import SplitComplex, OrdinaryComplex, exact_sqrt
from .ringmat import RMatrix, MetricForm, RING_REAL, RING_SPLIT, RING_COMPLEX
from . import gammarep

__all__ = [
    "Spinor", "BasePoint", "Section",
    "NormalizationError", "PatchError", "SamplingError", "ConstraintError",
    "CASES", "case_info",
    "project", "invert", "sample_normalized", "sample_base_point",
    "level0_project", "level0_invert",
    "hierarchical_fiber_check", "majorana_matrix", "charge_conjugate_spinor",
]

EPS_PATCH = 1e-9
# draws this close to the null cone of the normalization form are rejected;
# they would blow up coordinates and lose the 1e-12 constraint residual
EPS_NORM = 0.2
REJECTION_CAP = 1000


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

    def __init__(self, level, realization, base_metric, constraint_target,
                 spinor_dim, fiber_dim, ring, unit, norm_signs):
        self.level = level
        self.realization = realization
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

    def projection_matrices(self):
        return _projection_matrices(self.level, self.realization)


CASES = {
    (1, "I"): _Case(1, "I", (1, -1, 1), 1, 2, 1, RING_SPLIT,
                    SplitComplex(0, 1), (1, -1, 1, -1)),
    (1, "II"): _Case(1, "II", (1, 1, -1), -1, 2, 1, RING_COMPLEX,
                     OrdinaryComplex(0, 1), (1, 1, -1, -1)),
    (2, "I"): _Case(2, "I", (1, -1, 1, -1, -1), -1, 4, 2, RING_SPLIT,
                    SplitComplex(0, 1), (1, -1, 1, -1, 1, -1, 1, -1)),
    (2, "II"): _Case(2, "II", (1, 1, -1, -1, -1), -1, 4, 2, RING_COMPLEX,
                     OrdinaryComplex(0, 1), (1, 1, -1, -1, 1, 1, -1, -1)),
    (3, "I"): _Case(3, "I", (1, -1, -1, 1, 1, -1, -1, 1, 1), 1, 16, 8, RING_SPLIT,
                    SplitComplex(0, 1),
                    tuple(s for _ in range(8) for s in (1, -1))),
    (3, "II"): _Case(3, "II", (-1, -1, -1, -1, 1, 1, 1, 1, 1), 1, 16, 8, RING_REAL,
                     1, (1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1)),
}


def case_info(level, realization):
    try:
        return CASES[(level, realization)]
    except KeyError:
        raise ValueError("no such map: level %r realization %r" % (level, realization))


_WEIGHT_CACHE = {}


def _weight_matrix(level, realization):
    key = (level, realization)
    if key not in _WEIGHT_CACHE:
        if realization == "I":
            case = CASES[key]
            w = RMatrix.identity(case.spinor_dim, case.ring)
        elif level == 1:
            w = gammarep.pauli(3)
        elif level == 2:
            w = gammarep.build_family("so32_II").weight
        else:
            w = gammarep.build_family("so54_II").weight
        _WEIGHT_CACHE[key] = w
    return _WEIGHT_CACHE[key]


_PROJ_CACHE = {}


def _projection_matrices(level, realization):
    key = (level, realization)
    if key in _PROJ_CACHE:
        return _PROJ_CACHE[key]
    if key == (1, "I"):
        mats = [gammarep.split_pauli(i) for i in (1, 2, 3)]
    elif key == (1, "II"):
        w = gammarep.pauli(3)
        mats = [w @ gammarep.tau(i) for i in (1, 2, 3)]
    elif key == (2, "I"):
        fam = gammarep.build_family("so32_I")
        mats = [fam.gamma(a) for a in range(1, 6)]
    elif key == (2, "II"):
        fam = gammarep.build_family("so32_II")
        mats = [fam.weight @ fam.gamma(a) for a in range(1, 6)]
    elif key == (3, "I"):
        fam = gammarep.build_family("so54_I")
        mats = [fam.gamma(a) for a in range(1, 10)]
    elif key == (3, "II"):
        fam = gammarep.build_family("so54_II")
        mats = [fam.weight @ fam.gamma(a) for a in range(1, 10)]
    else:
        raise ValueError(key)
    _PROJ_CACHE[key] = mats
    return _PROJ_CACHE[key]


def majorana_matrix():
    """B of the 16-component split realization; the reality condition is
    Psi = -B^-1 conj(Psi) with B^-1 = B."""
    return gammarep.charge_conjugation("so54_I").matrix


def charge_conjugate_spinor(psi_comps):
    """psi_c = b conj(psi) for a 4-component split spinor."""
    b = gammarep.charge_conjugation("so32_I").matrix
    return b.matvec([c.conj() for c in psi_comps])


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
    at level 3-II).  norm_sign records the sign of the weighted self-inner
    product; only the two-leaf map (1, II) admits -1, which labels sections
    over the lower leaf.
    """

    __slots__ = ("level", "realization", "comps", "norm_sign")

    def __init__(self, level, realization, comps, norm_sign=1):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "comps", tuple(comps))
        object.__setattr__(self, "norm_sign", norm_sign)
        case = case_info(level, realization)
        if len(self.comps) != case.spinor_dim:
            raise ValueError("expected %d components" % case.spinor_dim)
        _check_finite(self.comps, "spinor component")

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def norm(self):
        case = case_info(self.level, self.realization)
        return case.weight().form(self.comps)

    def scaled_by_unit_phase(self, phase):
        """Multiply by a fiber phase (same-ring scalar with qform 1)."""
        return Spinor(self.level, self.realization,
                      [c * phase for c in self.comps], self.norm_sign)

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

    @property
    def metric(self):
        return case_info(self.level, self.realization).base_metric

    def constraint_residual(self):
        case = case_info(self.level, self.realization)
        return case.base_metric.inner(self.coords, self.coords) - case.constraint_target

    def patch_factor(self, patch=None):
        patch = patch or self.patch
        s = 1 if patch == "upper" else -1
        return 1 + s * self.coords[-1]

    def __repr__(self):
        return "BasePoint(level=%d, %s, %r, %s)" % (
            self.level, self.realization, self.coords, self.patch)


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


def project(spinor, tol=1e-9):
    """Map a normalized spinor to its base point.

    The weighted norm must be 1 (exactly for rational components, within tol
    for floats).  For the two-leaf map (1, II) a norm of -1 is also accepted
    and lands on the lower leaf.
    """
    case = case_info(spinor.level, spinor.realization)
    n = _scalar_value(spinor.norm(), "norm")
    allowed = (1, -1) if (spinor.level, spinor.realization) == (1, "II") else (1,)
    exact = not isinstance(n, float)
    if exact:
        if n not in allowed:
            raise NormalizationError(n)
        denom = n
    else:
        sign = 1 if n > 0 else -1
        if sign not in allowed or not (abs(n - sign) <= tol):
            raise NormalizationError(n)
        denom = n  # dividing by the measured norm kills first-order error
    coords = []
    for mat in case.projection_matrices():
        v = _scalar_value(mat.form(spinor.comps), "projection")
        coords.append(v / denom)
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
    s = 1 if patch == "upper" else -1
    x = point.coords
    n = 1 + s * x[-1]
    ring = case.ring
    lvl, real = point.level, point.realization

    if lvl == 1:
        up = ring.promote(n)
        if real == "I":
            z = SplitComplex(x[0], -x[1]) if patch == "upper" else SplitComplex(x[0], x[1])
        elif patch == "upper":
            z = OrdinaryComplex(x[1], -x[0])
        else:
            # lower leaf: the image of the map never reaches it, so the
            # section is the negative-norm mirror fixed by requiring
            # project(invert(x)) == x
            z = OrdinaryComplex(-x[1], -x[0])
        col = [[up], [z]] if patch == "upper" else [[z], [up]]
        return RMatrix(col, ring), n

    if lvl == 2:
        one = RMatrix.identity(2, ring)
        if real == "I":
            sp = gammarep.split_pauli
            lowered = [sp(1), -sp(2), sp(3)]
            acc = RMatrix.zeros(2, 2, ring)
            for xi, m in zip(x[:3], lowered):
                acc = acc + m.scale(xi)
            block = one.scale(x[3]) + acc.scale(SplitComplex(0, 1))
            if patch == "lower":
                block = one.scale(x[3]) - acc.scale(SplitComplex(0, 1))
        else:
            taus = [gammarep.tau(1), gammarep.tau(2), -gammarep.tau(3)]
            acc = RMatrix.zeros(2, 2, ring)
            for xi, m in zip(x[:3], taus):
                acc = acc + m.scale(xi)
            block = one.scale(x[3]) - acc.scale(OrdinaryComplex(0, 1))
            if patch == "lower":
                block = one.scale(x[3]) + acc.scale(OrdinaryComplex(0, 1))
        top = one.scale(n) if patch == "upper" else block
        bottom = block if patch == "upper" else one.scale(n)
        return RMatrix.from_blocks([[top], [bottom]], ring), n

    # level 3
    one = RMatrix.identity(8, ring)
    if real == "I":
        fam = gammarep.build_family("so43_I")
        acc = RMatrix.zeros(8, 8, ring)
        for a in range(1, 8):
            acc = acc + fam.gamma_lower(a).scale(x[a - 1])
        block = one.scale(x[7]) + acc.scale(SplitComplex(0, 1))
        if patch == "lower":
            block = one.scale(x[7]) - acc.scale(SplitComplex(0, 1))
    else:
        lam = gammarep.build_family("lambda_so43_II")
        oct_eta = (1, 1, 1, -1, -1, -1, -1)
        acc = RMatrix.zeros(8, 8, ring)
        for a in range(1, 8):
            w_low = lam.gamma(8 - a).scale(oct_eta[8 - a - 1])
            acc = acc + w_low.scale(x[a - 1])
        block = one.scale(x[7]) - acc
        if patch == "lower":
            block = one.scale(x[7]) + acc
    top = one.scale(n) if patch == "upper" else block
    bottom = block if patch == "upper" else one.scale(n)
    return RMatrix.from_blocks([[top], [bottom]], ring), n


_SECTION_TEMPLATES = {}


def _whole(c):
    """An integer-valued Fraction as an int (the same bits against a float
    and the same Fraction against a Fraction, but no slow mixed-type path);
    anything else as it is."""
    return int(c) if type(c) is Fraction and c.denominator == 1 else c


def _section_template(level, realization, patch):
    """Sparse affine template of the section numerator: w(x) = C + sum x_a M_a.

    One template per component grid of w (its entries over the reals, re and
    im over the binarion rings), each a tuple of (i, j, const, ((a, coef),
    ...)) over the cells that can be nonzero, where a runs over the
    coordinates whose M_a holds the cell.  The constants and coefficients
    are integers, so evaluation preserves the backend of x (Fraction stays
    exact, float stays fast).
    """
    key = (level, realization, patch)
    if key in _SECTION_TEMPLATES:
        return _SECTION_TEMPLATES[key]
    case = case_info(level, realization)
    dim = case.base_dim
    zero_pt = BasePoint(level, realization, (Fraction(0),) * dim, patch)
    c_mat, _ = _section_linear_raw(zero_pt, patch)
    consts = c_mat.components()
    slopes = []
    for a in range(dim):
        coords = [Fraction(0)] * dim
        coords[a] = Fraction(1)
        w_a, _ = _section_linear_raw(BasePoint(level, realization, coords, patch), patch)
        slopes.append((w_a - c_mat).components())

    def holds(grids, i, j):
        return any(g[i][j] != 0 for g in grids)

    cells = [(i, j, [a for a, m_a in enumerate(slopes) if holds(m_a, i, j)])
             for i in range(c_mat.rows) for j in range(c_mat.cols)]
    template = tuple(
        tuple((i, j, _whole(const[i][j]), tuple((a, _whole(slopes[a][k][i][j])) for a in lin))
              for i, j, lin in cells if lin or holds(consts, i, j))
        for k, const in enumerate(consts))
    out = (template, c_mat.rows, c_mat.cols, c_mat.ring)
    _SECTION_TEMPLATES[key] = out
    return out


def section_linear_part(point, patch=None):
    """The section as (w, n): full section = w / sqrt(2 n), w linear in x.

    w has shape spinor_dim x fiber_dim; n is the patch factor 1 +- x_last.
    Keeping the square root outside w lets derivative formulas stay rational.
    Each component of w is the sum const + coef * x_a over its template
    terms in increasing a, as the ring elements' own arithmetic adds them.
    """
    patch = patch or point.patch
    template, rows, cols, ring = _section_template(point.level, point.realization, patch)
    # int coordinates enter as Fractions, so every cell of exact input is a
    # Fraction even where it meets int coefficients only
    x = [Fraction(c) if type(c) is int else c for c in point.coords]
    grids = []
    for cells in template:
        grid = [[0] * cols for _ in range(rows)]
        for i, j, acc, lin in cells:
            for a, coef in lin:
                acc = acc + coef * x[a]
            grid[i][j] = acc
        grids.append(grid)
    s = 1 if patch == "upper" else -1
    return RMatrix.from_components(tuple(grids), ring), 1 + s * point.coords[-1]


class Section:
    """Matrix-valued inversion section over one patch (identity fiber)."""

    __slots__ = ("point", "patch", "w", "n")

    def __init__(self, point, patch=None):
        patch = patch or point.patch
        w, n = section_linear_part(point, patch)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def matrix(self):
        """The normalized section w / sqrt(2n) (float prefactor)."""
        return self.w.scale(1.0 / math.sqrt(2.0 * self.n))


def _check_fiber(case, point, fiber):
    lvl, real = point.level, point.realization
    if lvl == 1:
        q = _scalar_value(fiber.qform() if hasattr(fiber, "qform") else fiber * fiber, "fiber")
        _require_one(q, "fiber phase must satisfy conj(c) c = 1")
        return [[fiber]]
    if lvl == 2:
        sub = Spinor(1, real, fiber) if not isinstance(fiber, Spinor) else fiber
        n = _scalar_value(sub.norm(), "fiber norm")
        _require_one(n, "level-1 fiber must be normalized")
        return [[c] for c in sub.comps]
    # level 3: 8-component fiber with the level-specific reality condition
    comps = list(fiber.comps) if isinstance(fiber, Spinor) else list(fiber)
    if len(comps) != 8:
        raise ValueError("level-3 fiber needs 8 components")
    if real == "I":
        w = RMatrix.identity(8, RING_SPLIT).form(comps)
        _require_one(_scalar_value(w, "fiber norm"), "fiber must satisfy conj-norm 1")
        d = gammarep.charge_conjugation("so43_I").matrix
        dc = d.matvec([c.conj() for c in comps])
        if not _close_vec(dc, comps):
            raise ValueError("level-3 fiber must satisfy the reality condition Phi = d conj(Phi)")
    else:
        sig3 = gammarep.sigma3_block(4)
        w = _scalar_value(sig3.form(comps), "fiber norm")
        _require_one(w, "fiber must have Sigma3-norm 1")
    return [[c] for c in comps]


def _require_one(v, msg):
    if isinstance(v, float):
        if not (abs(v - 1.0) <= 1e-9):
            raise NormalizationError(v, msg + " (got %r)" % v)
    elif v != 1:
        raise NormalizationError(v, msg + " (got %r)" % (v,))


def _close_vec(a, b):
    for x, y in zip(a, b):
        d = x - y
        comps = (d.re, d.im) if hasattr(d, "re") else (d,)
        for c in comps:
            if isinstance(c, float):
                if not (abs(c) <= 1e-9):
                    return False
            elif c != 0:
                return False
    return True


def invert(point, fiber=None, patch=None, exact=False):
    """Inversion section at a base point; returns a Spinor (or a Section).

    fiber is the element of the fiber at one level below: a unit phase at
    level 1, a normalized level-1 spinor at level 2, an 8-component spinor
    with the appropriate reality condition at level 3.  fiber=None picks the
    pole fiber at levels 1-2 and the matrix section at level 3.

    With exact=True, coordinates must be rational and 2(1 +- x_last) must be
    a perfect rational square so the prefactor stays exact.
    """
    case = case_info(point.level, point.realization)
    patch = patch or point.patch
    res = point.constraint_residual()
    if isinstance(res, float):
        if not (abs(res) <= 1e-9):
            raise ConstraintError("point is off the hyperboloid: residual %r" % res)
    elif res != 0:
        raise ConstraintError("point is off the hyperboloid: residual %r" % (res,))

    s = 1 if patch == "upper" else -1
    factor = 1 + s * point.coords[-1]
    if factor < EPS_PATCH:
        raise PatchError(patch, factor)

    w, n = section_linear_part(point, patch)
    if fiber is None:
        if point.level == 3:
            return Section(point, patch)
        if point.level == 1:
            fiber = case.ring.one
        else:
            pole = [case.ring.one, case.ring.zero]
            fiber = Spinor(1, point.realization, pole)
    fiber_col = _check_fiber(case, point, fiber)

    if exact:
        r = exact_sqrt(2 * Fraction(n))
        if r is None:
            raise ValueError("2(1 +- x_last) = %r is not a rational square; "
                             "use the float backend" % (2 * Fraction(n),))
        pref = 1 / r
    else:
        pref = 1.0 / math.sqrt(2.0 * n)

    col = RMatrix(fiber_col, case.ring)
    comps = [row[0] * pref for row in (w @ col).entries]
    norm_sign = -1 if (point.level, point.realization) == (1, "II") and patch == "lower" else 1
    return Spinor(point.level, point.realization, comps, norm_sign)


# ---------------------------------------------------------------------------
# level 0

def level0_project(pair):
    """(x1, x2) on the hyperbola x1^2 - x2^2 = -1, with antipodes identified,
    onto (y1, y2) = (2 x1 x2, x1^2 + x2^2) on one branch."""
    x1, x2 = pair
    res = x1 * x1 - x2 * x2 + 1
    if isinstance(res, float):
        if not (abs(res) <= 1e-9):
            raise ConstraintError("not on the hyperbola: %r" % res)
    elif res != 0:
        raise ConstraintError("not on the hyperbola: %r" % (res,))
    return (2 * x1 * x2, x1 * x1 + x2 * x2)


def level0_invert(pair, patch="upper"):
    """Pick the antipodal representative with x2 > 0 (upper) or x2 < 0."""
    y1, y2 = pair
    res = y1 * y1 - y2 * y2 + 1
    if isinstance(res, float):
        if not (abs(res) <= 1e-9):
            raise ConstraintError("not on the hyperbola: %r" % res)
    elif res != 0:
        raise ConstraintError("not on the hyperbola: %r" % (res,))
    half = (y2 + 1) / 2
    if not isinstance(half, float):
        r = exact_sqrt(half)
        x2 = r if r is not None else math.sqrt(float(half))
    else:
        x2 = math.sqrt(half)
    if patch == "lower":
        x2 = -x2
    x1 = y1 / (2 * x2)
    return (x1, x2)


# ---------------------------------------------------------------------------
# sampling

def _assemble(case, reals):
    lvl, real = case.level, case.realization
    if (lvl, real) == (3, "II"):
        return list(reals)
    if real == "I" and lvl == 3:
        # reals are the 16 free parameters (U, V); assemble the full pattern
        U = [SplitComplex(reals[2 * i], reals[2 * i + 1]) for i in range(4)]
        V = [SplitComplex(reals[8 + 2 * i], reals[8 + 2 * i + 1]) for i in range(4)]
        j = SplitComplex(0, 1)
        Uc = charge_conjugate_spinor(U)
        Vc = charge_conjugate_spinor(V)
        return U + [j * c for c in Uc] + V + [j * c for c in Vc]
    cls = SplitComplex if real == "I" else OrdinaryComplex
    return [cls(reals[2 * i], reals[2 * i + 1]) for i in range(len(reals) // 2)]


def sample_normalized(level, realization, seed=0, backend="float", rng=None):
    """Pseudo-random normalized spinor; deterministic for a fixed seed.

    backend="float": gaussian draw, rejected while the indefinite norm is
    below EPS_NORM, then scaled.  backend="exact": a rational point on the
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
        for _ in range(REJECTION_CAP):
            v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            n = mult * sum(s * c * c for s, c in zip(signs, v))
            e2 = mult * sum(c * c for c in v)
            if n <= EPS_NORM * e2:
                continue
            scale = 1.0 / math.sqrt(n)
            return Spinor(level, realization, _assemble(case, [c * scale for c in v]))
        raise SamplingError("rejection cap exceeded while sampling level %d %s"
                            % (level, realization))
    if backend != "exact":
        raise ValueError("backend must be 'float' or 'exact'")
    for _ in range(REJECTION_CAP):
        p0 = [Fraction(0)] * dim
        if mult == 2:
            p0[0] = Fraction(1, 2)
            p0[8] = Fraction(1, 2)
        else:
            p0[0] = Fraction(1)
        v = [Fraction(rng.randint(-9, 9)) for _ in range(dim)]
        qv = mult * sum(s * c * c for s, c in zip(signs, v))
        if qv == 0:
            continue
        bpv = mult * sum(s * a * b for s, a, b in zip(signs, p0, v))
        t = Fraction(-2) * bpv / qv
        p = [a + t * b for a, b in zip(p0, v)]
        if p == p0:
            continue
        return Spinor(level, realization, _assemble(case, p))
    raise SamplingError("rejection cap exceeded (exact backend)")


def sample_base_point(level, realization, patch="upper", seed=0, backend="float",
                      rng=None, overlap=False, margin=0.05):
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
        want_sign = 1 if patch == "upper" else -1
        if (level, realization) == (1, "II"):
            # lower leaf is the reflection of the (always upper) image
            if patch == "lower":
                coords = [-c for c in coords]
        elif (coords[-1] > 0) != (want_sign > 0) and coords[-1] != 0:
            coords[-1] = -coords[-1]
        cand = BasePoint(level, realization, coords, patch)
        f = cand.patch_factor(patch)
        if f < margin:
            continue
        if overlap:
            if abs(float(coords[-1])) > 0.9 or cand.patch_factor("upper") < margin \
                    or cand.patch_factor("lower") < margin:
                continue
        return cand
    raise SamplingError("could not sample a base point on the %s patch" % patch)


# ---------------------------------------------------------------------------
# hierarchy of fibers

def hierarchical_fiber_check(level, realization, seed=0, samples=20):
    """The fiber of map n is a normalized spinor of map n-1.

    Level 2: a random normalized level-1 spinor, used as the fiber of the
    level-2 section, yields a normalized level-2 spinor.  Level 3 (split
    realization): Phi = (psi, j psi_c)/sqrt(2) built from a random level-2
    spinor has unit norm, satisfies the reality condition, and feeds the
    level-3 section.  Null-norm candidates are rejected by construction.
    """
    rng = random.Random(seed)
    results = []
    if level == 2:
        ok = True
        detail = ""
        for _ in range(samples):
            fib = sample_normalized(1, realization, rng=rng)
            pt = sample_base_point(2, realization, rng=rng)
            psi = invert(pt, fiber=fib)
            n = _scalar_value(psi.norm(), "norm")
            if not (abs(n - 1) <= 1e-9):
                ok = False
                detail = "norm %r" % n
                break
        results.append(("fiber-level2-%s" % realization, ok, detail or "norm 1 throughout"))
        return results
    if level != 3:
        raise ValueError("hierarchy check applies to levels 2 and 3")
    if realization == "I":
        ok = True
        detail = ""
        for _ in range(samples):
            psi = sample_normalized(2, "I", rng=rng)
            j = SplitComplex(0, 1)
            pc = charge_conjugate_spinor(psi.comps)
            phi = [c * (1 / math.sqrt(2.0)) for c in list(psi.comps) + [j * c for c in pc]]
            n = _scalar_value(RMatrix.identity(8, RING_SPLIT).form(phi), "norm")
            if not (abs(n - 1) <= 1e-9):
                ok = False
                detail = "Phi norm %r" % n
                break
            pt = sample_base_point(3, "I", rng=rng)
            Psi = invert(pt, fiber=phi)
            n2 = _scalar_value(Psi.norm(), "norm")
            B = majorana_matrix()
            mc = [-c for c in B.matvec([c.conj() for c in Psi.comps])]
            if not (abs(n2 - 1) <= 1e-9) or not _close_vec(mc, Psi.comps):
                ok = False
                detail = "level-3 norm %r" % n2
                break
        results.append(("fiber-level3-I", ok, detail or "hierarchy reproduced"))
    else:
        ok = True
        detail = ""
        for _ in range(samples):
            raw = [rng.gauss(0, 1) for _ in range(8)]
            n = sum(raw[i] * raw[i] for i in range(4)) - sum(raw[i] * raw[i] for i in range(4, 8))
            if n <= EPS_NORM:
                continue
            phi = [c / math.sqrt(n) for c in raw]
            pt = sample_base_point(3, "II", rng=rng)
            Psi = invert(pt, fiber=phi)
            n2 = _scalar_value(Psi.norm(), "norm")
            if not (abs(n2 - 1) <= 1e-9):
                ok = False
                detail = "norm %r" % n2
                break
        results.append(("fiber-level3-II", ok, detail or "hierarchy reproduced"))
    return results
