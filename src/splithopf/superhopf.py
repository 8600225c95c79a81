"""Finite Grassmann algebra and the graded extension of the first map.

A bitmask-basis Grassmann engine with two involution modes (an
order-preserving pseudo-conjugation squaring to -1 on odd generators for the
split realization, and the standard order-reversing conjugation for the
complex one), the OSp(1|2) generator sets of both realizations, and the
supersymmetric Hopf map with its connections, curvatures and transition
function.  Constraint and derivative identities hold exactly in the
algebra: body derivatives are read off one more section at a shift along
the nilpotent even element g2 g3, a dual unit inside the algebra.
"""

from fractions import Fraction
import functools

from .splitnum import (SplitComplex, OrdinaryComplex, reciprocal, root, cleared_ints,
                       rational_table)
from .ringmat import RMatrix, commutator, anticommutator, forms, lincomb, worst_of
from . import gammarep
from .hopfmaps import case_info, patch_sign
from .gaugegeom import lowered_epsilon

__all__ = [
    "InvolutionConfig", "PSEUDO", "STANDARD", "GrassmannElement",
    "odd_derivative", "odd_derivative_right",
    "build_osp_generators", "osp_algebra_check",
    "superadjoint", "super_norm", "super_project", "lift_base", "super_invert",
    "super_connection", "super_curvature", "super_transition",
    "constraint_residual", "engine_checks", "theta_bilinear",
    "super_connection_check", "super_gluing_check",
]


class InvolutionConfig:
    """Involution data for a Grassmann algebra.

    mode "pseudo": order-preserving, (eta*)* = -eta; generators pair up as
    (g0)* = g1, (g1)* = -g0 (and likewise g2, g3).  mode "standard":
    order-reversing, (eta*)* = +eta, generators swap in pairs without signs.
    Coefficients conjugate through their own conj() when they carry one.
    """

    n_generators = 4

    def __init__(self, mode):
        if mode not in ("pseudo", "standard"):
            raise ValueError(mode)
        self.mode = mode
        images = {}
        for k in range(0, self.n_generators, 2):
            images[k] = (1, k + 1)
            images[k + 1] = (-1 if mode == "pseudo" else 1, k)
        self.images = images

    def __repr__(self):
        return "InvolutionConfig(%s, %d)" % (self.mode, self.n_generators)


PSEUDO = InvolutionConfig("pseudo")
STANDARD = InvolutionConfig("standard")


def _is_zero(x):
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return x == 0


def _merge_sign(a, b):
    """Sign of g_word(a) * g_word(b) relative to g_word(a | b); 0 if overlap."""
    if a & b:
        return 0
    sign = 1
    bb = b
    while bb:
        low = bb & -bb
        # bits of a strictly above this bit each contribute a swap
        above = a >> (low.bit_length())
        if bin(above).count("1") % 2:
            sign = -sign
        bb ^= low
    return sign


def _mask_bits(mask):
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


class GrassmannElement:
    """Element of the finite Grassmann algebra over a coefficient ring.

    coeffs maps a generator-subset bitmask to its coefficient; missing masks
    are zero.  Immutable.
    """

    __slots__ = ("coeffs", "config")

    def __init__(self, coeffs, config):
        clean = {}
        for mask, c in coeffs.items():
            if not _is_zero(c):
                clean[mask] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "config", config)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    @classmethod
    def scalar(cls, value, config):
        return cls({0: value}, config)

    @classmethod
    def generator(cls, k, config):
        if not 0 <= k < config.n_generators:
            raise ValueError("generator index out of range")
        return cls({1 << k: 1}, config)

    # ---- algebra -----------------------------------------------------------

    def _check(self, other):
        if self.config is not other.config:
            raise TypeError("mixing Grassmann algebras with different involutions")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(other, self.config)
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return GrassmannElement(out, self.config)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GrassmannElement({m: -c for m, c in self.coeffs.items()}, self.config)

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return GrassmannElement({m: c * other for m, c in self.coeffs.items()},
                                    self.config)
        self._check(other)
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                s = _merge_sign(ma, mb)
                if s == 0:
                    continue
                m = ma | mb
                term = ca * cb if s > 0 else -(ca * cb)
                out[m] = out.get(m, 0) + term
        return GrassmannElement(out, self.config)

    def __rmul__(self, other):
        # scalars commute with everything; even/odd scalars are explicit elements
        return GrassmannElement({m: other * c for m, c in self.coeffs.items()},
                                self.config)

    def conj(self):
        cfg = self.config
        out = {}
        for mask, c in self.coeffs.items():
            bits = _mask_bits(mask)
            if cfg.mode == "standard":  # order-reversing
                bits.reverse()
            # the product of the generators' images, merged one at a time
            sign, m2 = 1, 0
            for k in bits:
                s, k2 = cfg.images[k]
                sign *= s * _merge_sign(m2, 1 << k2)
                m2 |= 1 << k2
            val = c.conj() if hasattr(c, "conj") else c
            val = val if sign > 0 else -val
            out[m2] = out.get(m2, 0) + val
        return GrassmannElement(out, cfg)

    # ---- structure ----------------------------------------------------------

    def body(self):
        return self.coeffs.get(0, 0)

    def soul(self):
        return GrassmannElement({m: c for m, c in self.coeffs.items() if m}, self.config)

    def _part(self, parity):
        return GrassmannElement({m: c for m, c in self.coeffs.items()
                                 if bin(m).count("1") % 2 == parity}, self.config)

    def even_part(self):
        return self._part(0)

    def odd_part(self):
        return self._part(1)

    def parity(self):
        """0, 1 or None for mixed."""
        ps = {bin(m).count("1") % 2 for m in self.coeffs} or {0}
        if len(ps) > 1:
            return None
        return ps.pop()

    def is_zero(self):
        return not self.coeffs

    def inverse(self):
        """Inverse of an even element with invertible body (Neumann series)."""
        b = self.body()
        if _is_zero(b):
            raise ZeroDivisionError("body is zero")
        binv = _coeff_inverse(b)
        rel = self.soul() * binv  # self = b (1 + rel)
        acc = GrassmannElement.scalar(1, self.config)
        term = GrassmannElement.scalar(1, self.config)
        while True:
            term = -(term * rel)
            if term.is_zero():
                break
            acc = acc + term
        return acc * binv

    def invsqrt(self):
        """1/sqrt of an even element with positive real body; the root of
        the body's real part is splitnum.root's, exact on a rational square."""
        b = self.body()
        if getattr(b, "im", 0) != 0:
            raise ValueError("body must be real")
        fb = _body_real(b)
        if not (fb > 0):
            raise ValueError("body must be positive")
        r = root(getattr(b, "re", b))
        rel = self.soul() * _coeff_inverse(b)  # self = b (1 + rel)
        # (1 + rel)^(-1/2) truncated by nilpotency
        acc = GrassmannElement.scalar(1, self.config)
        term = GrassmannElement.scalar(1, self.config)
        k = 0
        while True:
            k += 1
            term = term * rel
            if term.is_zero():
                break
            c = Fraction(1)  # binomial(-1/2, k)
            for idx in range(k):
                c = c * (Fraction(-1, 2) - idx) / (idx + 1)
            acc = acc + term * c
        return acc * reciprocal(r)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(other, self.config)
        if self.config is not other.config:
            return False
        masks = set(self.coeffs) | set(other.coeffs)
        for m in masks:
            if self.coeffs.get(m, 0) != other.coeffs.get(m, 0):
                return False
        return True

    def __hash__(self):
        if set(self.coeffs) <= {0}:  # no soul: == compares the body with a scalar
            return hash(self.coeffs.get(0, 0))
        return hash((self.config.mode, tuple(sorted(self.coeffs.items()))))

    def max_abs(self):
        """Largest absolute value over all real components of all
        coefficients (NaN if any component is NaN)."""
        return worst_of(abs(float(x)) for c in self.coeffs.values()
                        for x in ((c.re, c.im) if hasattr(c, "re") else (c,)))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            word = "".join("g%d" % k for k in _mask_bits(m)) or "1"
            parts.append("(%r)%s" % (self.coeffs[m], word))
        return " + ".join(parts)


def _coeff_inverse(c):
    if hasattr(c, "qform"):
        return c.conj() * reciprocal(c.qform())
    return reciprocal(c)


def _odd_derivative(a, k, passed):
    """Derivative with respect to generator k that moves it past the
    generators in the bitmask passed, one sign each."""
    out = {}
    bit = 1 << k
    for mask, c in a.coeffs.items():
        if not mask & bit:
            continue
        val = c if bin(mask & passed).count("1") % 2 == 0 else -c
        out[mask ^ bit] = out.get(mask ^ bit, 0) + val
    return GrassmannElement(out, a.config)


def odd_derivative(a, k):
    """Left derivative with respect to generator k."""
    return _odd_derivative(a, k, (1 << k) - 1)


def odd_derivative_right(a, k):
    """Right derivative with respect to generator k.

    The odd components of the canonical super connection are extracted with
    right derivatives; that convention reproduces the closed forms exactly
    (see super_connection_check).
    """
    return _odd_derivative(a, k, -(2 << k))


# ---------------------------------------------------------------------------
# OSp(1|2) generators

# superadjoint weight W of each realization: the split map weights with
# diag(1, 1, -1), the complex one with kappa = diag(1, -1, -1)
_WEIGHT = {"I": (1, 1, -1), "II": (1, -1, -1)}


def _eta(realization):
    """The body metric eta_ii: the first map's base metric."""
    return case_info(1, realization).base_metric.signature


def _ring(realization):
    return case_info(1, realization).ring


def _unit(realization):
    return case_info(1, realization).unit


@functools.lru_cache(maxsize=None)
def _weight(realization):
    return RMatrix.diagonal(_WEIGHT[realization], _ring(realization))


def _osp_matrices(realization):
    ring = _ring(realization)
    half = Fraction(1, 2)
    li = []
    for m in gammarep.triple(realization).gammas:
        rows = [[m.entry(0, 0), m.entry(0, 1), 0],
                [m.entry(1, 0), m.entry(1, 1), 0],
                [0, 0, 0]]
        li.append(RMatrix(rows, ring).scale(half))
    l1 = RMatrix([[0, 0, 1], [0, 0, 0], [0, 1, 0]], ring).scale(half)
    l2 = RMatrix([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], ring).scale(half)
    return {"ring": ring, "li": li, "lalpha": [l1, l2]}


@functools.lru_cache(maxsize=None)
def _bilinear_matrices(realization):
    """(W, W l^1, W l^2, W l^3, W l^alpha1, W l^alpha2): a super spinor's
    norm and half its super coordinates are their forms."""
    w = _weight(realization)
    gen = _osp_matrices(realization)
    return (w,) + tuple(w @ m for m in gen["li"] + gen["lalpha"])


def build_osp_generators(realization):
    """The 3x3 graded-algebra generators l^i, l^alpha; the complex realization
    also carries the charge conjugation R and the weights kappa, kappa^i =
    2 kappa l^i and kappa^alpha = 2 kappa l^alpha of the weighted map."""
    out = _osp_matrices(realization)
    if realization == "II":
        ring = out["ring"]
        out["R"] = RMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], ring)
        kappa = _weight("II")
        out["kappa"] = kappa
        out["kappa_i"] = [(kappa @ m).scale(2) for m in out["li"]]
        out["kappa_alpha"] = [(kappa @ m).scale(2) for m in out["lalpha"]]
    return out


def _eps2(ring):
    return RMatrix([[0, 1], [-1, 0]], ring)


def _ring_lincomb(coeffs, basis, unit):
    """sum_k coeffs[k] basis[k] for ring coefficients re + u im, u the unit."""
    return (lincomb([c.re for c in coeffs], basis)
            + lincomb([c.im for c in coeffs], basis).scale(unit))


def osp_algebra_check(realization):
    """Exact verification of the graded algebra of both generator sets."""
    gen = build_osp_generators(realization)
    li, la = gen["li"], gen["lalpha"]
    unit = _unit(realization)
    eta = _eta(realization)
    sig = gammarep.triple(realization).gammas
    half = Fraction(1, 2)
    results = []

    bad = []
    for i in range(1, 4):
        for j in range(1, 4):
            rhs = lincomb([gammarep.levi_civita(i, j, k) * eta[k - 1] for k in (1, 2, 3)], li)
            if commutator(li[i - 1], li[j - 1]) != rhs.scale(unit):
                bad.append("[l%d,l%d]" % (i, j))
    results.append(("osp-%s-even-even" % realization, not bad,
                    "; fails " + ",".join(bad) if bad else "[l^i,l^j] = u eps^ijk l_k"))

    bad = []
    for i in range(1, 4):
        for a in range(2):
            rhs = _ring_lincomb([sig[i - 1].entry(b, a) for b in range(2)], la, unit).scale(half)
            if commutator(li[i - 1], la[a]) != rhs:
                bad.append("[l%d,l^a%d]" % (i, a + 1))
    results.append(("osp-%s-even-odd" % realization, not bad,
                    "; fails " + ",".join(bad) if bad else "[l^i,l^a] = (1/2) sigma^i_b^a l^b"))

    # {l^a, l^b} = (1/2) (e G_i)^ab l^i over the lowered triple G, with
    # e = eps (split) or eps^T (complex)
    eps = _eps2(gen["ring"])
    eps = eps if realization == "I" else eps.transpose()
    lowered, _ = gammarep.lowered_set(2, realization)
    bad = []
    for a in range(2):
        for b in range(2):
            rhs = _ring_lincomb([(eps @ g).entry(a, b) for g in lowered], li, unit).scale(half)
            if anticommutator(la[a], la[b]) != rhs:
                bad.append("{l^a%d,l^a%d}" % (a + 1, b + 1))
    results.append(("osp-%s-odd-odd" % realization, not bad,
                    "; fails " + ",".join(bad) if bad else "{l^a,l^b} closes on l_i"))

    if realization == "II":
        R = gen["R"]
        bad = []
        for i in range(3):
            if R.dagger() @ li[i] @ R != -(li[i].conj()):
                bad.append("l%d" % (i + 1))
        results.append(("osp-II-charge-conjugation", not bad,
                        "; fails " + ",".join(bad) if bad else
                        "R^dag l^i R = -(l^i)* (even sector)"))
        props = R.dagger() == R and R.transpose() == R and R @ R == RMatrix.identity(3, R.ring)
        results.append(("osp-II-R-properties", props, "R symmetric, real, involutive"))
        k_i = gen["kappa_i"]
        herm = all(m.dagger() == m for m in k_i)
        results.append(("osp-II-kappa-hermitian", herm, "kappa^i hermitian"))
        s1 = gammarep.pauli(1)
        ka = gen["kappa_alpha"]
        bad = []
        for a in range(2):
            if ka[a].dagger() != _ring_lincomb([s1.entry(b, a) for b in range(2)], ka, unit):
                bad.append(str(a + 1))
        results.append(("osp-II-kappa-alpha", not bad,
                        "(kappa^alpha)^dag = (sigma1)_b^a kappa^b"))
    return results


# ---------------------------------------------------------------------------
# the super Hopf map

def _config(realization):
    return PSEUDO if realization == "I" else STANDARD


def _elements(xs, cfg):
    """The coordinates as Grassmann elements (scalars become bodies)."""
    return tuple(x if isinstance(x, GrassmannElement) else GrassmannElement.scalar(x, cfg)
                 for x in xs)


def superadjoint(chi, realization):
    """Row adjoint (W chi)*: (u*, v*, -eta*) for the split realization; the
    complex realization weights with kappa: (u*, -v*, -eta*)."""
    return tuple(c.conj() if w > 0 else -(c.conj())
                 for c, w in zip(chi, _WEIGHT[realization]))


def super_norm(chi, realization):
    return _weight(realization).form(chi)


def super_project(chi, realization):
    """Super coordinates of a normalized super spinor.

    Split realization: x^i = 2 chi^row l^i chi, theta^a = 2 chi^row l^a chi.
    Complex realization: the kappa-weighted bilinears, with the same
    formula.  The super constraint (eta_ij x^i x^j +- eps_ab theta^a
    theta^b = +-1) then holds exactly in the algebra.
    """
    n, *halves = forms(_bilinear_matrices(realization), chi)
    one = GrassmannElement.scalar(1, chi[0].config)
    if not (n == one):
        dev = (n - one).max_abs()
        if not (dev <= 1e-9):
            raise ValueError("super spinor is not normalized (deviation %g)" % dev)
    coords = tuple(h * 2 for h in halves)
    return coords[:3], coords[3:]


def constraint_residual(xs, ths, realization):
    """eta_ij x^i x^j + s eps_ab th^a th^b - target, as a Grassmann element."""
    cfg = xs[0].config
    acc = GrassmannElement.scalar(0, cfg)
    for e, x in zip(_eta(realization), xs):
        acc = acc + x * x * e
    tt = theta_bilinear(ths)
    if realization == "I":
        acc = acc + tt
        target = 1
    else:
        acc = acc - tt
        target = -1
    return acc - GrassmannElement.scalar(target, cfg)


def theta_bilinear(ths):
    """theta eps theta = 2 theta^1 theta^2."""
    return ths[0] * ths[1] - ths[1] * ths[0]


def lift_base(x_body, ths, realization):
    """Even coordinates over a body point: x = x_b (1 - (1/2) theta eps theta).

    The body must satisfy the bosonic constraint (+1 for the split
    realization, -1 for the complex one); the lifted x then satisfies the
    super constraint together with theta exactly.
    """
    cfg = ths[0].config
    s = theta_bilinear(ths)
    factor = GrassmannElement.scalar(1, cfg) - s * Fraction(1, 2)
    return tuple(factor * xb for xb in x_body)


def super_invert(xs, ths, patch="upper", realization="I"):
    """Inversion section of the super map over one patch.

    Takes super-constrained even coordinates (use lift_base over a body
    point) and the odd pair; returns chi = (u, v, eta) with super norm 1.
    The complex realization covers only the upper leaf, as in the bosonic
    two-leaf case.
    """
    cfg = _config(realization)
    xs = _elements(xs, cfg)
    s = theta_bilinear(ths)
    one = GrassmannElement.scalar(1, cfg)
    if realization == "II" and patch == "lower":
        raise ValueError("the complex super map covers only the upper leaf")
    sign = patch_sign(patch)
    n = one + xs[2] * sign
    if not (_body_real(n.body()) >= 1e-9):
        raise ValueError("patch factor degenerate; try the other patch")
    pref = (n * 2).invsqrt()
    quarter = n.inverse() * Fraction(1, 4)
    if realization == "I":
        zbar = xs[0] - xs[1] * _unit("I") if patch == "upper" \
            else xs[0] + xs[1] * _unit("I")
    else:
        zbar = xs[1] - xs[0] * _unit("II")
    if patch == "upper":
        u = n * (one - s * quarter)
        v = zbar * (one + s * quarter)
        eta = n * ths[0] + zbar * ths[1]
    else:
        u = zbar * (one + s * quarter)
        v = n * (one - s * quarter)
        eta = zbar * ths[0] + n * ths[1]
    return tuple(c * pref for c in (u, v, eta))


def _body_real(b):
    return float(b.re) if hasattr(b, "re") else float(b)


# ---------------------------------------------------------------------------
# closed super gauge forms

def _odd_contractions(xs, ths, realization):
    """v_i = M_i theta and w = x^i v_i, where M_i = G_i eps for the split
    realization and (G_i eps)^T for the complex one, G_i = eta_i sigma^i
    (eta_i tau^i) the lowered triple of gammarep.lowered_set; the
    transpose is the complex map's contraction on the first index of tau eps.
    Returns (M, v, w, c) with c = u/2 (split) or -u/2 (complex), so that
    A_alpha = c w_alpha."""
    zero = GrassmannElement.scalar(0, xs[0].config)
    eps = _eps2(_ring(realization))
    mats = [g @ eps for g in gammarep.lowered_set(2, realization)[0]]
    if realization == "II":
        mats = [m.transpose() for m in mats]
    vs = [m.matvec(ths) for m in mats]
    w = [sum((x * v[a] for x, v in zip(xs, vs)), zero) for a in range(2)]
    coef = _unit(realization) * Fraction(1, 2)
    return mats, vs, w, (coef if realization == "I" else -coef)


def super_connection(xs, ths, patch="upper", realization="I"):
    """Closed-form super connection (A_i dict, A_alpha dict).

    Body parts coincide with the bosonic level-1 closed forms; the even
    components carry the (1 + (2 +- x3)/(2(1 +- x3)) theta eps theta)
    correction, the odd components are A_alpha = (u/2) x_i (sigma^i eps
    theta)_alpha (split) and -(u/2) x^i (theta tau_i eps)_alpha (complex),
    identical on both patches.
    """
    cfg = _config(realization)
    xs = _elements(xs, cfg)
    s = theta_bilinear(ths)
    one = GrassmannElement.scalar(1, cfg)
    sign = patch_sign(patch)
    n = one + xs[2] * sign
    ninv = n.inverse()
    two_pm = GrassmannElement.scalar(2, cfg) + xs[2] * sign
    soul_factor = one + (s * two_pm) * ninv * Fraction(1, 2)
    # bosonic body signs: split patchwise +/-, complex fixed -
    lead = sign if realization == "I" else -1

    A_i = {i: lowered_epsilon(xs, 3, i) * ninv * Fraction(lead, 2) * soul_factor
           for i in (1, 2, 3)}

    _, _, w, coef = _odd_contractions(xs, ths, realization)
    A_a = {a + 1: w[a] * coef for a in range(2)}
    return A_i, A_a


def super_curvature(xs, ths, patch="upper", realization="I"):
    """Closed super curvature (F_ij, F_ia, F_ab) dictionaries.

    Bodies match the bosonic field strengths (patchwise signs follow the
    sections, see gaugegeom); the soul corrections carry the factor
    (1 + (3/2) theta eps theta).
    """
    cfg = _config(realization)
    xs = _elements(xs, cfg)
    s = theta_bilinear(ths)
    one = GrassmannElement.scalar(1, cfg)
    soul = one + s * Fraction(3, 2)
    lead = -1 if realization == "I" else patch_sign(patch)

    F_ij = {(i, j): lowered_epsilon(xs, i, j) * Fraction(lead, 2) * soul
            for i in (1, 2, 3) for j in range(i + 1, 4)}

    # F_ia = c (eta_ij - 3 x_i x_j) (eta_j v_j)_a with lowered x_i, x_j; as
    # eta_j^2 = 1 this is c (v_i - 3 eta_i x^i w)_a
    mats, vs, w, coef = _odd_contractions(xs, ths, realization)
    eta = _eta(realization)
    F_ia = {(i + 1, a + 1): (vs[i][a] - xs[i] * w[a] * (3 * eta[i])) * coef
            for i in range(3) for a in range(2)}

    # F_ab = c x^i (M_i + M_i^T)_ab: each (a, b) is a row over i, applied to x
    pairs = [(a, b) for a in range(2) for b in range(2)]
    sym = [m + m.transpose() for m in mats]
    stack = RMatrix([[m.entry(a, b) for m in sym] for a, b in pairs], _ring(realization))
    F_ab = {(a + 1, b + 1): f * coef * soul for (a, b), f in zip(pairs, stack.matvec(xs))}
    return F_ij, F_ia, F_ab


def super_transition(xs, ths):
    """The split-realization transition element on the patch overlap.

    g = (x1 + j x2)/sqrt(1 - x3^2) (1 + theta eps theta / (2 (1 - x3^2)));
    conj(g) g = 1 exactly in the algebra.  Returned as (numerator, rho2):
    g = numerator * invsqrt(rho2), keeping the exact backend usable.
    """
    cfg = PSEUDO
    xs = _elements(xs, cfg)
    s = theta_bilinear(ths)
    one = GrassmannElement.scalar(1, cfg)
    rho2 = one - xs[2] * xs[2]
    num = (xs[0] + xs[1] * _unit("I")) * \
        (one + s * rho2.inverse() * Fraction(1, 2))
    return num, rho2


# ---------------------------------------------------------------------------
# engine checks

# the engine samples' coefficients: Fraction(p, q), |p| <= 4, 1 <= q <= 4
_ENGINE_RATIONALS = rational_table(4)


def _engine_sample(rng, cfg):
    """An element of cfg's algebra drawn from rng: four terms with
    coefficients from _ENGINE_RATIONALS (terms on one mask add up), times
    the lcm of the coefficients' denominators."""
    cls = SplitComplex if cfg is PSEUDO else OrdinaryComplex
    coeffs = {}
    for _ in range(4):
        mask = rng.randrange(1 << cfg.n_generators)
        c = cls(rng.choice(rng.choice(_ENGINE_RATIONALS)),
                rng.choice(rng.choice(_ENGINE_RATIONALS)))
        coeffs[mask] = coeffs.get(mask, 0) + c
    ints, _ = cleared_ints([p for c in coeffs.values() for p in (c.re, c.im)])
    return GrassmannElement({m: cls(*ints[2 * k:2 * k + 2]) for k, m in enumerate(coeffs)},
                            cfg)


def engine_checks(seed=0, samples=60):
    """Exact property checks of the Grassmann engine itself.

    Each sample is drawn with rational coefficients and then multiplied by
    the lcm of their denominators (the rng stream is that of the draw).
    Associativity, parity, conj^2 on evens and the graded Leibniz rule are
    homogeneous in every sample, so they hold for the draw exactly when
    they hold for its int multiple."""
    import random as _random
    rng = _random.Random(seed)
    results = []
    for cfg, label in ((PSEUDO, "pseudo"), (STANDARD, "standard")):
        ok_assoc = ok_parity = ok_conj = ok_leib = True
        for _ in range(samples):
            a, b, c = (_engine_sample(rng, cfg) for _ in range(3))
            if (a * b) * c != a * (b * c):
                ok_assoc = False
            ae, bo = a.even_part(), b.odd_part()
            p = ae * bo
            if not p.is_zero() and p.parity() != 1:
                ok_parity = False
            # conj is involutive on even parts; squares to -1 on odd generators
            e = a.even_part()
            if e.conj().conj() != e:
                ok_conj = False
            k = rng.randrange(cfg.n_generators)
            lhs = odd_derivative(a * b, k)
            # graded Leibniz: d(ab) = (da) b + (-1)^|a| a (db) for homogeneous a
            for part, sgn in ((a.even_part(), 1), (a.odd_part(), -1)):
                l2 = odd_derivative(part * b, k)
                r2 = odd_derivative(part, k) * b + (part * odd_derivative(b, k)) * sgn
                if l2 != r2:
                    ok_leib = False
        results.append(("grassmann-%s-associative" % label, ok_assoc, "(ab)c = a(bc)"))
        results.append(("grassmann-%s-parity" % label, ok_parity, "parity multiplicative"))
        results.append(("grassmann-%s-involutive-even" % label, ok_conj, "conj^2 = id on evens"))
        results.append(("grassmann-%s-leibniz" % label, ok_leib, "graded Leibniz rule"))

    g0 = GrassmannElement.generator(0, PSEUDO)
    g1 = GrassmannElement.generator(1, PSEUDO)
    results.append(("pseudo-squares-minus-one",
                    g0.conj().conj() == -g0 and g0.conj() == g1 and g1.conj() == -g0,
                    "(theta1)* = theta2, (theta2)* = -theta1"))
    h0 = GrassmannElement.generator(0, STANDARD)
    results.append(("standard-involutive-odd", h0.conj().conj() == h0,
                    "(eta*)* = eta"))
    anti = g0 * g1 == -(g1 * g0) and (g0 * g0).is_zero()
    results.append(("anticommutation", anti, "g_a g_b = -g_b g_a, g^2 = 0"))
    # order rule of the product under conj
    a = g0 * g1
    results.append(("pseudo-order-preserving", a.conj() == g0.conj() * g1.conj(),
                    "(ab)* = a* b*"))
    b = h0 * GrassmannElement.generator(1, STANDARD)
    results.append(("standard-order-reversing",
                    b.conj() == GrassmannElement.generator(1, STANDARD).conj() * h0.conj(),
                    "(ab)* = b* a*"))
    return results


# ---------------------------------------------------------------------------
# defining-formula verification in the (body, theta) chart

def _theta_pair(realization):
    cfg = _config(realization)
    return (GrassmannElement.generator(0, cfg), GrassmannElement.generator(1, cfg))


def _epsilon_part(a):
    """b for a = a0 + eps b, eps = g2 g3, a0 and b free of g2 and g3."""
    return odd_derivative(odd_derivative(a, 2), 3)


def _directions(x_body, ths, realization):
    """(d, t, lift) for each direction of the (body, theta) chart.

    theta^alpha: d = d^R_alpha, and t and lift are None.  Body: the tangent
    t = e_a - (eta_a x_a / q) x and the lift of x + eps t.  eps = g2 g3 is
    even, real and squares to 0, so the section at the lift is exactly
    chi + eps d_t chi, and d reads its eps part.  sum_a x_a t_a = 0, so the
    two tangents of the smallest |x_a| are a basis.
    """
    for alpha in (0, 1):
        yield functools.partial(odd_derivative_right, k=alpha), None, None
    q = case_info(1, realization).constraint_target
    cfg = ths[0].config
    eps = GrassmannElement.generator(2, cfg) * GrassmannElement.generator(3, cfg)
    for a in sorted(range(3), key=lambda a: abs(x_body[a]))[:2]:
        coef = _eta(realization)[a] * x_body[a] * q  # q = +-1 is its own inverse
        t = [(a == b) - coef * x for b, x in enumerate(x_body)]
        yield _epsilon_part, t, lift_base([eps * ti + x for x, ti in zip(x_body, t)],
                                          ths, realization)


def _defining(chi, d, chi_d, realization):
    """-u chi^row d(chi_d), chi_d the section at the lift of direction d."""
    acc = GrassmannElement.scalar(0, chi[0].config)
    for rc, cc in zip(superadjoint(chi, realization), chi_d):
        acc = acc + rc * d(cc)
    return -(acc * _unit(realization))


def super_connection_check(x_body, patch="upper", realization="I"):
    """Residuals of the closed super connection against -u chi^row d chi.

    Every derivative is exact in the algebra (see _directions).  theta^alpha
    compares with A_alpha, a body tangent t with sum_i (1 - theta eps
    theta / 2) t_i A_i, the lifted x being x_b (1 - theta eps theta / 2).
    Returns {"odd": r, "even": r}.
    """
    ths = _theta_pair(realization)
    xs = lift_base(x_body, ths, realization)
    chi = super_invert(xs, ths, patch, realization)
    A_i, A_a = super_connection(xs, ths, patch, realization)
    factor = GrassmannElement.scalar(1, ths[0].config) - theta_bilinear(ths) * Fraction(1, 2)

    # the chain term through the soul of the lifted x in a theta direction,
    # sum_i x_i A_i, is proportional to x . (eps x) = 0
    odd, even = [], []
    for alpha, (d, t, lift) in enumerate(_directions(x_body, ths, realization)):
        if t is None:
            odd.append((_defining(chi, d, chi, realization) - A_a[alpha + 1]).max_abs())
            continue
        chi_t = super_invert(lift, ths, patch, realization)
        closed = sum(factor * ti * A_i[i] for i, ti in zip((1, 2, 3), t))
        even.append((_defining(chi, d, chi_t, realization) - closed).max_abs())
    return {"odd": worst_of(odd), "even": worst_of(even)}


def super_gluing_check(x_body):
    """Patch gluing of the split super map at an overlap body point.

    Checks chi_lower = chi_upper g, conj(g) g = 1 and A' - A = -j g* dg along
    every direction of _directions, exactly in the algebra; returns residuals.
    """
    realization = "I"
    ths = _theta_pair(realization)
    if not abs(float(x_body[2])) < 1:
        raise ValueError("overlap requires |x3| < 1")
    xs = lift_base(x_body, ths, realization)
    chi_up = super_invert(xs, ths, "upper", realization)
    chi_lo = super_invert(xs, ths, "lower", realization)
    num, rho2 = super_transition(xs, ths)
    g = num * rho2.invsqrt()

    exact_unit = (num.conj() * num - rho2).is_zero()

    sec_dev = worst_of((a - b).max_abs() for a, b in zip(chi_lo, [c * g for c in chi_up]))

    odd, even = [], []
    for d, t, lift in _directions(x_body, ths, realization):
        up_d, lo_d, g_d = chi_up, chi_lo, g
        if lift is not None:
            up_d = super_invert(lift, ths, "upper", realization)
            lo_d = super_invert(lift, ths, "lower", realization)
            num_d, rho2_d = super_transition(lift, ths)
            g_d = num_d * rho2_d.invsqrt()
        dev = _defining(chi_lo, d, lo_d, realization) - _defining(chi_up, d, up_d, realization) \
            + (g.conj() * d(g_d)) * _unit(realization)
        (odd if t is None else even).append(dev.max_abs())
    return {"unitarity_exact": exact_unit,
            "section": sec_dev, "odd": worst_of(odd), "even": worst_of(even)}
