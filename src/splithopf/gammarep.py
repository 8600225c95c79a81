"""Gamma-matrix families for the non-compact Hopf constructions.

Eight families in two realizations: the split lane (built on the
split-imaginary unit j, hermitian generators) and the complex lane (ordinary
i, non-hermitian generators with a pseudo-Hermitian weight).  The 2x2
blocks and so43_I are written entry by entry.  so32_I, so32_II, so54_I and
so54_II are one block doubling (_doubled) of j sigma^i, -i tau^i, j gamma^a
of so43_I and lambda^{8-a}.  The lambdas are built from the split-octonion
structure constants and checked against the printed matrices.  Every
generator set is sigma^{ab} = -(u/4) [G_a, G_b] (_sigmas).  Everything is
exact over the rationals and verified by the checks at the bottom.

Families expose 1-based physics indices; storage is 0-based.
"""

from fractions import Fraction
import functools

from .splitnum import SplitComplex, OrdinaryComplex, OCTONION_TABLE
from .ringmat import (
    RMatrix, MetricForm, RING_REAL, RING_SPLIT, RING_COMPLEX,
    commutator, anticommutator, lincomb, to_complex,
)

__all__ = [
    "GammaFamily", "FAMILY_NAMES", "build_family",
    "clifford_check", "conjugation_check", "hermiticity_check",
    "build_generators", "triple", "lowered_set", "build_weyl_generators",
    "build_thooft", "levi_civita",
    "generator_closure_check", "lambda_table_check",
]

FAMILY_NAMES = (
    "split_pauli", "tau", "so32_I", "so32_II",
    "so43_I", "so54_I", "lambda_so43_II", "so54_II",
)

_J = SplitComplex(0, 1)
_I = OrdinaryComplex(0, 1)


def _sm(rows):
    return RMatrix(rows, RING_SPLIT)


def _cm(rows):
    return RMatrix(rows, RING_COMPLEX)


# 2x2 building blocks ------------------------------------------------------

def split_pauli(i):
    """Split-Pauli matrices; j sits in the second one."""
    if i == 1:
        return _sm([[0, 1], [1, 0]])
    if i == 2:
        return _sm([[0, -_J], [_J, 0]])
    if i == 3:
        return _sm([[1, 0], [0, -1]])
    raise ValueError(i)


def pauli(i):
    if i == 1:
        return _cm([[0, 1], [1, 0]])
    if i == 2:
        return _cm([[0, -_I], [_I, 0]])
    if i == 3:
        return _cm([[1, 0], [0, -1]])
    raise ValueError(i)


def tau(i):
    """Non-hermitian su(1,1) triple: tau^1 = i p1, tau^2 = i p2, tau^3 = p3."""
    if i in (1, 2):
        return pauli(i).scale(_I)
    if i == 3:
        return pauli(3)
    raise ValueError(i)


class GammaFamily:
    """A gamma family: matrices, metric, anticommutator sign, weight.

    sign is defined by {gamma^a, gamma^b} = sign * 2 eta^{ab}.  weight, when
    present, is the matrix making weight @ gamma^a hermitian (sigma^3, k, K).
    """

    def __init__(self, name, gammas, metric, sign, ring, unit, weight=None):
        self.name = name
        self.gammas = tuple(gammas)
        self.metric = metric
        self.sign = sign
        self.ring = ring
        self.unit = unit  # j or i as a ring element
        self.weight = weight
        self.dim = self.gammas[0].rows

    def gamma(self, a):
        return self.gammas[a - 1]

    def gamma_lower(self, a):
        g = self.gammas[a - 1]
        return g if self.metric.eta(a) == 1 else -g

    def __repr__(self):
        return "GammaFamily(%s)" % self.name


def _doubled(gammas):
    """The gammas of one more signature pair: [[0, g], [-g, 0]] for each g,
    then [[0, 1], [1, 0]] and [[1, 0], [0, -1]]."""
    ring = gammas[0].ring
    one = RMatrix.identity(gammas[0].rows, ring)
    blocks = [[[0, g], [-g, 0]] for g in gammas] + [[[0, one], [one, 0]], [[one, 0], [0, -one]]]
    return [RMatrix.from_blocks(b, ring) for b in blocks]


@functools.lru_cache(maxsize=None)
def build_family(name):
    if name == "split_pauli":
        return GammaFamily("split_pauli", [split_pauli(i) for i in (1, 2, 3)],
                           MetricForm((1, -1, 1)), +1, RING_SPLIT, _J)

    if name == "tau":
        return GammaFamily("tau", [tau(i) for i in (1, 2, 3)],
                           MetricForm((1, 1, -1)), -1, RING_COMPLEX, _I,
                           weight=pauli(3))

    if name == "so32_I":
        return GammaFamily("so32_I", _doubled([split_pauli(i).scale(_J) for i in (1, 2, 3)]),
                           MetricForm((1, -1, 1, -1, -1)), -1, RING_SPLIT, _J)

    if name == "so32_II":
        k = RMatrix.from_blocks([[pauli(3), 0], [0, pauli(3)]], RING_COMPLEX)
        return GammaFamily("so32_II", _doubled([tau(i).scale(-_I) for i in (1, 2, 3)]),
                           MetricForm((1, 1, -1, -1, -1)), -1, RING_COMPLEX, _I, weight=k)

    if name == "so43_I":
        s = split_pauli
        one2 = RMatrix.identity(2, RING_SPLIT)

        def blk(rows):
            return RMatrix.from_blocks(rows, RING_SPLIT)

        g1 = blk([[0, 0, 0, s(2)], [0, 0, -s(2), 0], [0, -s(2), 0, 0], [s(2), 0, 0, 0]])
        g2 = blk([[0, 0, 0, -s(1)], [0, 0, s(1), 0], [0, s(1), 0, 0], [-s(1), 0, 0, 0]])
        g3 = blk([[0, 0, 0, -s(3)], [0, 0, s(3), 0], [0, s(3), 0, 0], [-s(3), 0, 0, 0]])
        g4 = blk([[0, 0, 0, one2], [0, 0, one2, 0], [0, -one2, 0, 0], [-one2, 0, 0, 0]]).scale(_J)
        g5 = blk([[0, 0, one2, 0], [0, 0, 0, -one2], [-one2, 0, 0, 0], [0, one2, 0, 0]]).scale(_J)
        g6 = blk([[0, 0, one2, 0], [0, 0, 0, one2], [one2, 0, 0, 0], [0, one2, 0, 0]])
        g7 = blk([[one2, 0, 0, 0], [0, one2, 0, 0], [0, 0, -one2, 0], [0, 0, 0, -one2]])
        return GammaFamily("so43_I", [g1, g2, g3, g4, g5, g6, g7],
                           MetricForm((-1, 1, 1, -1, -1, 1, 1)), +1, RING_SPLIT, _J)

    if name == "so54_I":
        gs = _doubled([g.scale(_J) for g in build_family("so43_I").gammas])
        return GammaFamily("so54_I", gs,
                           MetricForm((1, -1, -1, 1, 1, -1, -1, 1, 1)), +1,
                           RING_SPLIT, _J)

    if name == "lambda_so43_II":
        tbl = OCTONION_TABLE
        gs = []
        for i in range(1, 8):
            rows = [[-tbl.f_extended(i, a, b) for b in range(8)] for a in range(8)]
            gs.append(RMatrix(rows, RING_REAL))
        return GammaFamily("lambda_so43_II", gs,
                           MetricForm((1, 1, 1, -1, -1, -1, -1)), -1, RING_REAL, 1)

    if name == "so54_II":
        # lambda^{8-a}: the reversed order is load-bearing
        gs = _doubled(build_family("lambda_so43_II").gammas[::-1])
        sig3 = RMatrix.diagonal([1, 1, 1, 1, -1, -1, -1, -1], RING_REAL)
        weight = RMatrix.from_blocks([[sig3, 0], [0, sig3]], RING_REAL)
        return GammaFamily("so54_II", gs,
                           MetricForm((-1, -1, -1, -1, 1, 1, 1, 1, 1)), +1,
                           RING_REAL, 1, weight=weight)

    raise ValueError("unknown family %r" % name)


def sigma3_block(n_half, ring=RING_REAL):
    """diag(1_n, -1_n); the pseudo-Hermitian weight used at 16 components."""
    return RMatrix.diagonal([1] * n_half + [-1] * n_half, ring)


# ---------------------------------------------------------------------------
# generators

def _sigmas(gammas, unit):
    """sigma^{ab} = -(u/4) [gamma^a, gamma^b], keyed by (a, b) with a < b."""
    quarter = Fraction(1, 4)
    n = len(gammas)
    return {(a, b): commutator(gammas[a - 1], gammas[b - 1]).scale(-unit).scale(quarter)
            for a in range(1, n + 1) for b in range(a + 1, n + 1)}


@functools.lru_cache(maxsize=None)
def build_generators(name):
    """The so(p, q) generators of a family (_sigmas) and their ring; a real
    family is lifted to the complex ring, with u = i."""
    fam = build_family(name)
    if fam.ring == RING_REAL:
        return {"ring": RING_COMPLEX, "sigmas": _sigmas([to_complex(g) for g in fam.gammas], _I)}
    return {"ring": fam.ring, "sigmas": _sigmas(fam.gammas, fam.unit)}


def triple(realization):
    """The gamma family of the first map: the split Pauli matrices sigma^i
    for realization I, tau^i for II."""
    return build_family("split_pauli" if realization == "I" else "tau")


@functools.lru_cache(maxsize=None)
def lowered_set(level, realization):
    """(G, c): the lowered gammas G_a that span the section block
    x_{d-1} 1 + s c sum_{a<d-1} x_a G_a of a level-2 or level-3 map (d its
    base dimension, s the patch sign), and the unit c.

    Level 2: the triple, lowered with its own metric; c = j (I), -i (II).
    Level 3: the so43_I gammas, lowered, with c = j (I); W_a = lambda_{8-a},
    lowered with the split-octonion signature, with c = -1 (II).
    """
    if level not in (2, 3) or realization not in ("I", "II"):
        raise ValueError("no lowered set for level %r realization %r" % (level, realization))
    if level == 2:
        fam = triple(realization)
        order = range(1, 4)
    elif realization == "I":
        fam = build_family("so43_I")
        order = range(1, 8)
    else:
        fam = build_family("lambda_so43_II")
        order = range(7, 0, -1)
    c = _J if realization == "I" else (-_I if level == 2 else -1)
    return tuple(fam.gamma_lower(a) for a in order), c


@functools.lru_cache(maxsize=None)
def build_weyl_generators(realization, bar=False):
    """Weyl-sector generators sigma_{MN}, M,N = 1..8, for the third map.

    Over the lowered set G of lowered_set(3, realization) (lifted to the
    complex ring for II) and the unit u (j for I, i for II):
    sigma_IJ = -(u/4)[G_I, G_J], and sigma_I8 = -(1/2) G_I (I) or
    (i/2) G_I (II); the bar set flips the I8 components.
    """
    half = Fraction(1, 2)
    lowered, _ = lowered_set(3, realization)
    if realization == "II":
        lowered = [to_complex(g) for g in lowered]
    out = _sigmas(lowered, _J if realization == "I" else _I)
    for a in range(1, 8):
        g = lowered[a - 1]
        m = g.scale(-half) if realization == "I" else g.scale(_I).scale(half)
        out[(a, 8)] = -m if bar else m
    return {"ring": lowered[0].ring, "sigmas": out}


# ---------------------------------------------------------------------------
# split 't Hooft symbols

def levi_civita(*idx):
    """Sign of the permutation idx of (1, ..., n), n = len(idx); 0 when idx
    is not a permutation of 1..n (a repeated index or one outside 1..n)."""
    if sorted(idx) != list(range(1, len(idx) + 1)):
        return 0
    sign = 1
    for i, a in enumerate(idx):
        for b in idx[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def build_thooft(variant, bar=False):
    """Split 't Hooft coefficient table {(m, n, i): value}, m,n in 1..4, i in 1..3.

    The three-index epsilon carries all indices lowered with the relevant
    metric, which is what makes the closed connection forms agree with the
    canonical-connection derivative (see gaugegeom).
    """
    if variant == "I":
        eta4 = (1, -1, 1, -1)
    elif variant == "II":
        eta4 = (1, 1, -1, -1)
    else:
        raise ValueError(variant)

    def eta(a, b):
        return eta4[a - 1] if a == b else 0

    tab = {}
    s = -1 if not bar else 1
    for m in range(1, 5):
        for n in range(1, 5):
            for i in range(1, 4):
                if variant == "I":
                    eps_low = levi_civita(m, n, i) * eta4[m - 1] * eta4[n - 1] * eta4[i - 1]
                    v = eps_low + s * eta(m, i) * eta(n, 4) - s * eta(m, 4) * eta(n, i)
                else:
                    eps = levi_civita(m, n, i, 4)
                    v = eps - s * eta(m, i) * eta(n, 4) + s * eta(n, i) * eta(m, 4)
                if v:
                    tab[(m, n, i)] = v
    return tab


# ---------------------------------------------------------------------------
# charge conjugation

class ChargeConjugation:
    def __init__(self, family_name, label, matrix, matrix_inv, vector_rule,
                 generator_rule, lowered):
        self.family_name = family_name
        self.label = label
        self.matrix = matrix
        self.matrix_inv = matrix_inv
        self.vector_rule = vector_rule        # C gamma C^-1 = rule * conj(gamma)
        self.generator_rule = generator_rule  # C sigma C^-1 = rule * conj(sigma)
        self.lowered = lowered                # rules stated on lowered indices


@functools.lru_cache(maxsize=None)
def charge_conjugation(name):
    if name == "split_pauli":
        c = split_pauli(2)
        return ChargeConjugation(name, "sigma2", c, -c, -1, -1, False)
    if name == "tau":
        c = pauli(1)
        return ChargeConjugation(name, "sigma1", c, c, -1, -1, False)
    if name == "so32_I":
        fam = build_family(name)
        b = (fam.gamma(1) @ fam.gamma(3)).scale(_J)
        return ChargeConjugation(name, "b", b, -b, +1, -1, True)
    if name == "so32_II":
        fam = build_family(name)
        r = -(fam.gamma(2) @ fam.gamma(3))
        return ChargeConjugation(name, "r", r, r, +1, -1, False)
    if name == "so43_I":
        fam = build_family(name)
        d = (fam.gamma(1) @ fam.gamma(4) @ fam.gamma(5)).scale(-_J)
        return ChargeConjugation(name, "d", d, d, -1, -1, True)
    if name == "so54_I":
        fam = build_family(name)
        B = fam.gamma(2) @ fam.gamma(3) @ fam.gamma(6) @ fam.gamma(7)
        return ChargeConjugation(name, "B", B, B, +1, -1, True)
    if name == "so54_II":
        fam = build_family(name)
        c = RMatrix.identity(fam.dim, RING_REAL)
        return ChargeConjugation(name, "identity", c, c, +1, -1, True)
    raise ValueError("no charge conjugation for %r" % name)


# ---------------------------------------------------------------------------
# checks (exact; each returns a list of (check id, passed, detail))

def clifford_check(name):
    fam = build_family(name)
    results = []
    one = RMatrix.identity(fam.dim, fam.ring)
    bad, n = [], fam.metric.dim * (fam.metric.dim + 1) // 2  # the pairs a <= b of the metric
    pairs = [(a, b) for a in range(1, len(fam.gammas) + 1) for b in range(a, len(fam.gammas) + 1)]
    for a, b in pairs:
        want = one.scale(fam.sign * 2 * fam.metric.eta(a, b))
        got = anticommutator(fam.gamma(a), fam.gamma(b))
        if got != want:
            bad.append("(%d,%d)" % (a, b))
    if len(pairs) != n:
        bad.append("%d of %d pairs compared" % (len(pairs), n))
    results.append(("clifford-%s" % name, not bad,
                    "; failing pairs: " + ", ".join(bad) if bad else "all pairs exact"))
    return results


def hermiticity_check(name):
    fam = build_family(name)
    out = []
    if name in ("split_pauli", "so32_I", "so43_I", "so54_I"):
        ok = [g.dagger() == g for g in fam.gammas] == [True] * fam.metric.dim
        out.append(("hermitian-%s" % name, ok, "gamma^a dagger-invariant"))
    elif name == "tau":
        ok = all(fam.gamma(a).dagger() == -fam.gamma_lower(a) for a in (1, 2, 3))
        out.append(("dagger-tau", ok, "(tau^i)^dagger = -tau_i"))
        w = fam.weight
        ok = all((w @ fam.gamma(a)).dagger() == w @ fam.gamma(a) for a in (1, 2, 3))
        out.append(("weighted-hermitian-tau", ok, "sigma3 tau^i hermitian"))
    elif name == "so32_II":
        ok = all(fam.gamma(a).dagger() == -fam.gamma_lower(a) for a in range(1, 6))
        out.append(("dagger-so32_II", ok, "(gamma^a)^dagger = -gamma_a"))
        w = fam.weight
        ok = all((w @ fam.gamma(a)).dagger() == w @ fam.gamma(a) for a in range(1, 6))
        out.append(("weighted-hermitian-so32_II", ok, "k^a = k gamma^a hermitian"))
    elif name == "lambda_so43_II":
        ok = all(fam.gamma(a).transpose() == -fam.gamma_lower(a) for a in range(1, 8))
        out.append(("transpose-lambda", ok, "(lambda^I)^t = -lambda_I"))
        anti = all(fam.gamma(a).transpose() == -fam.gamma(a) for a in (1, 2, 3))
        sym = all(fam.gamma(a).transpose() == fam.gamma(a) for a in (4, 5, 6, 7))
        out.append(("lambda-symmetry-pattern", anti and sym,
                    "lambda 1..3 antisymmetric, 4..7 symmetric"))
    elif name == "so54_II":
        ok = all(fam.gamma(a).transpose() == fam.gamma_lower(a) for a in range(1, 10))
        out.append(("transpose-so54_II", ok, "(Gamma^A)^t = Gamma_A"))
        w = fam.weight
        ok = all((w @ fam.gamma(a)).transpose() == w @ fam.gamma(a) for a in range(1, 10))
        out.append(("weighted-symmetric-so54_II", ok, "K^A = K Gamma^A symmetric"))
    return out


def conjugation_check(name):
    """C C^-1 = 1, C gamma C^-1 = r conj(gamma), C sigma C^-1 = r' conj(sigma),
    and the symmetry and reality pattern of C.

    The generator identity is checked on the stored sigma^{ab} even for the
    families whose rules are stated on lowered indices: both sides are
    linear in sigma and the lowering factor eta_a eta_b is a real sign, so
    it cancels.
    """
    fam = build_family(name)
    cc = charge_conjugation(name)
    out = []
    c, cinv = cc.matrix, cc.matrix_inv
    one = RMatrix.identity(fam.dim, c.ring)
    out.append(("conj-%s-inverse" % name, c @ cinv == one, "C C^-1 = 1"))

    bad, gs = [], range(1, len(fam.gammas) + 1)
    for a in gs:
        g = fam.gamma_lower(a) if cc.lowered else fam.gamma(a)
        if fam.ring != c.ring:
            g = to_complex(g)
        if c @ g @ cinv != g.conj().scale(cc.vector_rule):
            bad.append(str(a))
    if len(gs) != fam.metric.dim:  # every index of the metric
        bad.append("%d of %d gammas compared" % (len(gs), fam.metric.dim))
    out.append(("conj-%s-vector" % name, not bad,
                "C gamma C^-1 = %+d conj(gamma)%s" % (cc.vector_rule,
                                                      ("; fails " + ",".join(bad)) if bad else "")))

    if name not in ("split_pauli", "tau"):
        gens = build_generators(name)
        if c.ring == gens["ring"]:
            cm, cminv = c, cinv
        else:
            cm, cminv = to_complex(c), to_complex(cinv)
        bad = []
        for (a, b), m in gens["sigmas"].items():
            if cm @ m @ cminv != m.conj().scale(cc.generator_rule):
                bad.append("(%d,%d)" % (a, b))
        out.append(("conj-%s-generator" % name, not bad,
                    "C sigma C^-1 = %+d conj(sigma)%s" % (cc.generator_rule,
                                                          ("; fails " + ",".join(bad)) if bad else "")))

    # matrix properties and the consistency condition
    if name == "split_pauli":
        props = c.transpose() == -c and c.conj() == -c and cinv == -c
    elif name == "tau":
        props = c.transpose() == c and c.conj() == c and c.dagger() == c
    elif name == "so32_I":
        props = c.transpose() == -c and c.conj() == -c and cinv == -c
    elif name == "so32_II":
        props = c.dagger() == c and c.transpose() == c and cinv == c
    elif name in ("so43_I", "so54_I", "so54_II"):
        props = c.transpose() == c and c.conj() == c and cinv == c
    out.append(("conj-%s-properties" % name, props, "symmetry/reality pattern"))
    out.append(("conj-%s-consistency" % name, c.conj() @ c == one, "conj(C) C = 1"))
    return out


def lambda_table_check():
    """The structure-constant construction reproduces the printed lambdas."""
    lam = build_family("lambda_so43_II")
    s1, s2, s3 = pauli(1), pauli(2), pauli(3)
    z2 = RMatrix.zeros(2, 2, RING_COMPLEX)
    one2 = RMatrix.identity(2, RING_COMPLEX)

    def blk(rows):
        return RMatrix.from_blocks(rows, RING_COMPLEX)

    printed = {
        1: blk([[-s2, z2, z2, z2], [z2, -s2, z2, z2],
                [z2, z2, s2, z2], [z2, z2, z2, s2]]).scale(_I),
        2: blk([[z2, -s3, z2, z2], [s3, z2, z2, z2],
                [z2, z2, z2, s3], [z2, z2, -s3, z2]]),
        3: blk([[z2, -s1, z2, z2], [s1, z2, z2, z2],
                [z2, z2, z2, s1], [z2, z2, -s1, z2]]),
        4: blk([[z2, z2, -one2, z2], [z2, z2, z2, -one2],
                [-one2, z2, z2, z2], [z2, -one2, z2, z2]]),
        5: blk([[z2, z2, -s2, z2], [z2, z2, z2, s2],
                [s2, z2, z2, z2], [z2, -s2, z2, z2]]).scale(_I),
        6: blk([[z2, z2, z2, -one2], [z2, z2, one2, z2],
                [z2, one2, z2, z2], [-one2, z2, z2, z2]]),
        7: blk([[z2, z2, z2, -s2], [z2, z2, -s2, z2],
                [z2, s2, z2, z2], [s2, z2, z2, z2]]).scale(_I),
    }
    bad = []
    for i in range(1, 8):
        if to_complex(lam.gamma(i)) != printed[i]:
            bad.append("lambda^%d" % i)
    return [("lambda-from-structure-constants", not bad,
             ("mismatch: " + ", ".join(bad)) if bad else "all seven match entrywise")]


def generator_closure_check(name):
    """[sigma_ab, sigma_cd] closes on the so(3,2) algebra.

    Realization II uses -i on the right-hand side; the split realization
    replaces it with -j.  The lowered generators are built once; each
    right-hand side is one lincomb over the a < b ones, with the sign of a
    reversed pair folded into its coefficient.
    """
    fam = build_family(name)
    unit = _I if name == "so32_II" else _J
    eta = fam.metric
    low = {(a, b): s.scale(eta.eta(a) * eta.eta(b))
           for (a, b), s in build_generators(name)["sigmas"].items()}

    def rhs(a, b, c_, d):
        coeffs = dict.fromkeys(low, 0)
        for p, q, w in ((b, d, eta.eta(a, c_)), (b, c_, -eta.eta(a, d)),
                        (a, c_, eta.eta(b, d)), (a, d, -eta.eta(b, c_))):
            if p < q:
                coeffs[p, q] += w
            elif p > q:
                coeffs[q, p] -= w
        return lincomb(coeffs.values(), low.values()).scale(-unit)

    bad = []
    for (a, b), left in low.items():
        for (c_, d), right in low.items():
            if commutator(left, right) != rhs(a, b, c_, d):
                bad.append("[%d%d,%d%d]" % (a, b, c_, d))
    return [("generator-closure-%s" % name, not bad,
             ("; fails " + ", ".join(bad[:4])) if bad else "all brackets close")]
