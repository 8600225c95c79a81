"""Finite Grassmann algebra and the graded extension of the first map.

A bitmask-basis Grassmann engine with two involution modes (an
order-preserving pseudo-conjugation squaring to -1 on odd generators for the
split realization, and the standard order-reversing conjugation for the
complex one), the OSp(1|2) generator sets of both realizations, and the
supersymmetric Hopf map with its connections, curvatures and transition
function.  Constraint identities hold exactly in the algebra; derivative
identities combine exact odd derivatives with finite differences in the
body coordinates.
"""

from fractions import Fraction
import math

from .splitnum import SplitComplex, OrdinaryComplex, exact_sqrt, reciprocal
from .ringmat import (
    RMatrix, RING_SPLIT, RING_COMPLEX, commutator, anticommutator, worst_of, _is_zero,
)
from . import gammarep

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

    def __init__(self, mode, n_generators=4):
        if mode not in ("pseudo", "standard"):
            raise ValueError(mode)
        if n_generators % 2:
            raise ValueError("generators must pair up under the involution")
        self.mode = mode
        self.n_generators = n_generators
        self.product_order = "preserve" if mode == "pseudo" else "reverse"
        images = {}
        for k in range(0, n_generators, 2):
            if mode == "pseudo":
                images[k] = (1, k + 1)
                images[k + 1] = (-1, k)
            else:
                images[k] = (1, k + 1)
                images[k + 1] = (1, k)
        self.images = images

    def __repr__(self):
        return "InvolutionConfig(%s, %d)" % (self.mode, self.n_generators)


PSEUDO = InvolutionConfig("pseudo")
STANDARD = InvolutionConfig("standard")


def _conj_coeff(c):
    return c.conj() if hasattr(c, "conj") else c


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


def _word_sign(indices):
    """Sort a distinct generator sequence; returns (sign, mask)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1, i, -1):
            if idx[j - 1] > idx[j]:
                idx[j - 1], idx[j] = idx[j], idx[j - 1]
                sign = -sign
    mask = 0
    for k in idx:
        mask |= 1 << k
    return sign, mask


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
            if cfg.product_order == "reverse":
                bits = list(reversed(bits))
            sign = 1
            imgs = []
            for k in bits:
                s, k2 = cfg.images[k]
                sign *= s
                imgs.append(k2)
            s2, m2 = _word_sign(imgs)
            val = _conj_coeff(c)
            val = val if sign * s2 > 0 else -val
            out[m2] = out.get(m2, 0) + val
        return GrassmannElement(out, cfg)

    # ---- structure ----------------------------------------------------------

    def body(self):
        return self.coeffs.get(0, 0)

    def soul(self):
        return GrassmannElement({m: c for m, c in self.coeffs.items() if m}, self.config)

    def even_part(self):
        return GrassmannElement({m: c for m, c in self.coeffs.items()
                                 if bin(m).count("1") % 2 == 0}, self.config)

    def odd_part(self):
        return GrassmannElement({m: c for m, c in self.coeffs.items()
                                 if bin(m).count("1") % 2 == 1}, self.config)

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
        """1/sqrt of an even element with positive real body; the root is
        exact when the body (or its real part) is a rational square."""
        b = self.body()
        if getattr(b, "im", 0) != 0:
            raise ValueError("body must be real")
        fb = _body_real(b)
        if fb <= 0:
            raise ValueError("body must be positive")
        re = getattr(b, "re", b)
        root = exact_sqrt(re) if isinstance(re, (int, Fraction)) else None
        if root is None:
            root = math.sqrt(fb)
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
        return acc * reciprocal(root)

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
        return hash((self.config.mode, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

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


def odd_derivative(a, k):
    """Left derivative with respect to generator k."""
    out = {}
    bit = 1 << k
    for mask, c in a.coeffs.items():
        if not mask & bit:
            continue
        below = bin(mask & (bit - 1)).count("1")
        val = c if below % 2 == 0 else -c
        out[mask ^ bit] = out.get(mask ^ bit, 0) + val
    return GrassmannElement(out, a.config)


def odd_derivative_right(a, k):
    """Right derivative with respect to generator k.

    The odd components of the canonical super connection are extracted with
    right derivatives; that convention reproduces the closed forms exactly
    (see super_connection_check).
    """
    out = {}
    bit = 1 << k
    for mask, c in a.coeffs.items():
        if not mask & bit:
            continue
        above = bin(mask >> (k + 1)).count("1")
        val = c if above % 2 == 0 else -c
        out[mask ^ bit] = out.get(mask ^ bit, 0) + val
    return GrassmannElement(out, a.config)


# ---------------------------------------------------------------------------
# OSp(1|2) generators

# body metric eta_ii and superadjoint weight W of each realization: the split
# map weights with diag(1, 1, -1), the complex one with kappa = diag(1, -1, -1)
_ETA = {"I": (1, -1, 1), "II": (1, 1, -1)}
_WEIGHT = {"I": (1, 1, -1), "II": (1, -1, -1)}


def _ring(realization):
    return RING_SPLIT if realization == "I" else RING_COMPLEX


def _sigmas(realization):
    """sigma^i (split Pauli) for the split realization, tau^i for the complex."""
    if realization == "I":
        return [gammarep.split_pauli(i) for i in (1, 2, 3)]
    return [gammarep.tau(i) for i in (1, 2, 3)]


def _weight(realization):
    return RMatrix.diagonal(_WEIGHT[realization], _ring(realization))


def _osp_matrices(realization):
    ring = _ring(realization)
    half = Fraction(1, 2)
    li = []
    for m in _sigmas(realization):
        rows = [[m.entry(0, 0), m.entry(0, 1), 0],
                [m.entry(1, 0), m.entry(1, 1), 0],
                [0, 0, 0]]
        li.append(RMatrix(rows, ring).scale(half))
    l1 = RMatrix([[0, 0, 1], [0, 0, 0], [0, 1, 0]], ring).scale(half)
    l2 = RMatrix([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], ring).scale(half)
    return {"ring": ring, "li": li, "lalpha": [l1, l2]}


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


def osp_algebra_check(realization):
    """Exact verification of the graded algebra of both generator sets."""
    gen = build_osp_generators(realization)
    ring = gen["ring"]
    li, la = gen["li"], gen["lalpha"]
    unit = _unit(realization)
    eta = _ETA[realization]
    sig = _sigmas(realization)
    results = []

    bad = []
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = commutator(li[i - 1], li[j - 1])
            rhs = RMatrix.zeros(3, 3, ring)
            for k in range(1, 4):
                e = gammarep.levi_civita(i, j, k)
                if e:
                    rhs = rhs + li[k - 1].scale(e * eta[k - 1]).scale(unit)
            if lhs != rhs:
                bad.append("[l%d,l%d]" % (i, j))
    results.append(("osp-%s-even-even" % realization, not bad,
                    "; fails " + ",".join(bad) if bad else "[l^i,l^j] = u eps^ijk l_k"))

    bad = []
    for i in range(1, 4):
        for a in range(2):
            lhs = commutator(li[i - 1], la[a])
            rhs = RMatrix.zeros(3, 3, ring)
            for b in range(2):
                rhs = rhs + la[b].scale(sig[i - 1].entry(b, a)).scale(Fraction(1, 2))
            if lhs != rhs:
                bad.append("[l%d,l^a%d]" % (i, a + 1))
    results.append(("osp-%s-even-odd" % realization, not bad,
                    "; fails " + ",".join(bad) if bad else "[l^i,l^a] = (1/2) sigma^i_b^a l^b"))

    eps = _eps2(ring)
    bad = []
    for a in range(2):
        for b in range(2):
            lhs = anticommutator(la[a], la[b])
            rhs = RMatrix.zeros(3, 3, ring)
            for i in range(1, 4):
                if realization == "I":
                    coef = (eps @ sig[i - 1]).entry(a, b)
                    rhs = rhs + li[i - 1].scale(eta[i - 1]).scale(coef).scale(Fraction(1, 2))
                else:
                    coef = (eps.transpose() @ sig[i - 1].scale(eta[i - 1])).entry(a, b)
                    rhs = rhs + li[i - 1].scale(coef).scale(Fraction(1, 2))
            if lhs != rhs:
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
        props = R.dagger() == R and R.transpose() == R and R @ R == RMatrix.identity(3, ring)
        results.append(("osp-II-R-properties", props, "R symmetric, real, involutive"))
        k_i = gen["kappa_i"]
        herm = all(m.dagger() == m for m in k_i)
        results.append(("osp-II-kappa-hermitian", herm, "kappa^i hermitian"))
        s1 = gammarep.pauli(1)
        ka = gen["kappa_alpha"]
        bad = []
        for a in range(2):
            want = RMatrix.zeros(3, 3, ring)
            for b in range(2):
                c = s1.entry(b, a)
                if not _is_zero(c):
                    want = want + ka[b].scale(c)
            if ka[a].dagger() != want:
                bad.append(str(a + 1))
        results.append(("osp-II-kappa-alpha", not bad,
                        "(kappa^alpha)^dag = (sigma1)_b^a kappa^b"))
    return results


# ---------------------------------------------------------------------------
# the super Hopf map

def _config(realization):
    return PSEUDO if realization == "I" else STANDARD


def _unit(realization):
    return SplitComplex(0, 1) if realization == "I" else OrdinaryComplex(0, 1)


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
    n = super_norm(chi, realization)
    one = GrassmannElement.scalar(1, chi[0].config)
    if not (n == one):
        dev = (n - one).max_abs()
        if not (dev <= 1e-9):
            raise ValueError("super spinor is not normalized (deviation %g)" % dev)
    gen = build_osp_generators(realization)
    w = _weight(realization)
    xs = tuple((w @ m).form(chi) * 2 for m in gen["li"])
    ths = tuple((w @ m).form(chi) * 2 for m in gen["lalpha"])
    return xs, ths


def constraint_residual(xs, ths, realization):
    """eta_ij x^i x^j + s eps_ab th^a th^b - target, as a Grassmann element."""
    cfg = xs[0].config
    acc = GrassmannElement.scalar(0, cfg)
    for e, x in zip(_ETA[realization], xs):
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
    sign = 1 if patch == "upper" else -1
    n = one + xs[2] * sign
    if float(_body_real(n.body())) < 1e-9:
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
    """v_i = M_i theta and w = x^i v_i, where M_i = eta_i sigma^i eps for the
    split realization and (eta_i tau^i eps)^T for the complex one; the
    transpose is the complex map's contraction on the first index of tau eps.
    Returns (M, v, w, c) with c = u/2 (split) or -u/2 (complex), so that
    A_alpha = c w_alpha."""
    zero = GrassmannElement.scalar(0, xs[0].config)
    eps = _eps2(_ring(realization))
    mats = [(m @ eps).scale(e) for m, e in zip(_sigmas(realization), _ETA[realization])]
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
    sign = 1 if patch == "upper" else -1
    n = one + xs[2] * sign
    ninv = n.inverse()
    two_pm = GrassmannElement.scalar(2, cfg) + xs[2] * sign
    soul_factor = one + (s * two_pm) * ninv * Fraction(1, 2)
    # bosonic body signs: split patchwise +/-, complex fixed -
    lead = sign if realization == "I" else -1

    A_i = {}
    for i in (1, 2, 3):
        acc = GrassmannElement.scalar(0, cfg)
        for j in (1, 2, 3):
            e = -gammarep.levi_civita(i, j, 3)  # lowered: both metrics have det -1
            if e:
                acc = acc + xs[j - 1] * e
        A_i[i] = acc * ninv * Fraction(lead, 2) * soul_factor

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
    if realization == "I":
        lead = -1
    else:
        lead = 1 if patch == "upper" else -1

    F_ij = {}
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            acc = GrassmannElement.scalar(0, cfg)
            for k in (1, 2, 3):
                e = -gammarep.levi_civita(i, j, k)
                if e:
                    acc = acc + xs[k - 1] * e
            F_ij[(i, j)] = acc * Fraction(lead, 2) * soul

    # F_ia = c (eta_ij - 3 x_i x_j) (eta_j v_j)_a with lowered x_i, x_j; as
    # eta_j^2 = 1 this is c (v_i - 3 eta_i x^i w)_a
    mats, vs, w, coef = _odd_contractions(xs, ths, realization)
    eta = _ETA[realization]
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
    num = (xs[0] + xs[1] * SplitComplex(0, 1)) * \
        (one + s * rho2.inverse() * Fraction(1, 2))
    return num, rho2


# ---------------------------------------------------------------------------
# engine checks

def engine_checks(seed=0, samples=60):
    """Exact property checks of the Grassmann engine itself."""
    import random as _random
    rng = _random.Random(seed)
    results = []

    def rand_elem(cfg):
        coeffs = {}
        for _ in range(4):
            mask = rng.randrange(1 << cfg.n_generators)
            if cfg is PSEUDO:
                c = SplitComplex(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                 Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            else:
                c = OrdinaryComplex(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            coeffs[mask] = coeffs.get(mask, 0) + c
        return GrassmannElement(coeffs, cfg)

    for cfg, label in ((PSEUDO, "pseudo"), (STANDARD, "standard")):
        ok_assoc = ok_parity = ok_conj = ok_leib = True
        for _ in range(samples):
            a, b, c = rand_elem(cfg), rand_elem(cfg), rand_elem(cfg)
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


def _defining_odd(chi, realization):
    """A_alpha = -u chi^row d^R_alpha chi (right derivatives)."""
    u = _unit(realization)
    row = superadjoint(chi, realization)
    out = []
    for alpha in (0, 1):
        acc = GrassmannElement.scalar(0, chi[0].config)
        for rc, cc in zip(row, chi):
            acc = acc + rc * odd_derivative_right(cc, alpha)
        out.append(-(acc * u))
    return out


def _defining_even(chi0, chis_p, chis_m, h, realization):
    u = _unit(realization)
    row = superadjoint(chi0, realization)
    acc = GrassmannElement.scalar(0, chi0[0].config)
    inv = 1.0 / (2.0 * h)
    for rc, cp, cm in zip(row, chis_p, chis_m):
        acc = acc + rc * ((cp - cm) * inv)
    return -(acc * u)


def _body_tangents(x_body, realization):
    eta = _ETA[realization]
    q = sum(e * float(x) * float(x) for e, x in zip(eta, x_body))
    out = []
    for a in range(3):
        t = [0.0, 0.0, 0.0]
        t[a] = 1.0
        coef = eta[a] * float(x_body[a]) / q
        t = [ti - coef * float(xi) for ti, xi in zip(t, x_body)]
        norm = math.sqrt(sum(ti * ti for ti in t))
        if norm > 1e-12:
            out.append(tuple(ti / norm for ti in t))
    return out


def super_connection_check(x_body, patch="upper", realization="I", h=1e-6):
    """Residuals of the closed super connection against -u chi^row d chi.

    Odd components use exact right theta-derivatives of the composed chart
    section; even components use central differences along body tangents.
    Returns {"odd": r, "even": r}.
    """
    ths = _theta_pair(realization)
    cfg = _config(realization)
    xs = lift_base(x_body, ths, realization)
    chi = super_invert(xs, ths, patch, realization)
    A_i, A_a = super_connection(xs, ths, patch, realization)

    # the chain term through the soul of the lifted x, sum_i x_i A_i, is
    # proportional to x . (eps x) = 0
    dfn = _defining_odd(chi, realization)
    odd = [(dfn[alpha] - A_a[alpha + 1]).max_abs() for alpha in (0, 1)]

    even = []
    s = theta_bilinear(ths)
    one = GrassmannElement.scalar(1, cfg)
    for t in _body_tangents(x_body, realization):
        xp = [float(x) + h * ti for x, ti in zip(x_body, t)]
        xm = [float(x) - h * ti for x, ti in zip(x_body, t)]
        chi_p = super_invert(lift_base(xp, ths, realization), ths, patch, realization)
        chi_m = super_invert(lift_base(xm, ths, realization), ths, patch, realization)
        num = _defining_even(chi, chi_p, chi_m, h, realization)
        closed = GrassmannElement.scalar(0, cfg)
        for i in (1, 2, 3):
            closed = closed + (one - s * Fraction(1, 2)) * t[i - 1] * A_i[i]
        even.append((num - closed).max_abs())
    return {"odd": worst_of(odd), "even": worst_of(even)}


def super_gluing_check(x_body, h=1e-6):
    """Patch gluing of the split super map at an overlap body point.

    Checks chi_lower = chi_upper g, conj(g) g = 1 exactly in the algebra,
    and A' - A = -j g* dg with exact right theta-derivatives and central
    differences along body tangents.  Returns a residual dictionary.
    """
    realization = "I"
    cfg = PSEUDO
    ths = _theta_pair(realization)
    if not abs(float(x_body[2])) < 1:
        raise ValueError("overlap requires |x3| < 1")
    xs = lift_base(x_body, ths, realization)
    chi_up = super_invert(xs, ths, "upper", realization)
    chi_lo = super_invert(xs, ths, "lower", realization)
    num, rho2 = super_transition(xs, ths)
    g = num * rho2.invsqrt()
    u = _unit(realization)

    unit_dev = (g.conj() * g - GrassmannElement.scalar(1, cfg)).max_abs()
    exact_unit = (num.conj() * num - rho2).is_zero()

    sec_dev = worst_of((a - b).max_abs() for a, b in zip(chi_lo, [c * g for c in chi_up]))

    odd = []
    up = _defining_odd(chi_up, realization)
    lo = _defining_odd(chi_lo, realization)
    for alpha in (0, 1):
        dg = odd_derivative_right(g, alpha)
        dev = lo[alpha] - up[alpha] + (g.conj() * dg) * u
        odd.append(dev.max_abs())

    even = []
    for t in _body_tangents(x_body, realization):
        xp = [float(x) + h * ti for x, ti in zip(x_body, t)]
        xm = [float(x) - h * ti for x, ti in zip(x_body, t)]
        lift_p = lift_base(xp, ths, realization)
        lift_m = lift_base(xm, ths, realization)
        chi_up_p = super_invert(lift_p, ths, "upper", realization)
        chi_up_m = super_invert(lift_m, ths, "upper", realization)
        chi_lo_p = super_invert(lift_p, ths, "lower", realization)
        chi_lo_m = super_invert(lift_m, ths, "lower", realization)
        a_up = _defining_even(chi_up, chi_up_p, chi_up_m, h, realization)
        a_lo = _defining_even(chi_lo, chi_lo_p, chi_lo_m, h, realization)
        np_, rp = super_transition(lift_p, ths)
        nm_, rm = super_transition(lift_m, ths)
        gp = np_ * rp.invsqrt()
        gm = nm_ * rm.invsqrt()
        dg = (gp - gm) * (1.0 / (2.0 * h))
        dev = a_lo - a_up + (g.conj() * dg) * u
        even.append(dev.max_abs())
    return {"unitarity": unit_dev, "unitarity_exact": exact_unit,
            "section": sec_dev, "odd": worst_of(odd), "even": worst_of(even)}
