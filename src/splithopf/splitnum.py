"""Exact arithmetic for the three split algebras.

Split-complex numbers (j^2 = +1), split-quaternions and split-octonions,
together with their involutions and indefinite quadratic forms.  The
two-component numbers share _Binarion; the split-quaternions and
split-octonions share _TableAlgebra, which multiplies, conjugates and
evaluates the quadratic form from one table of basis products per algebra.
Both tables follow from the reals by one Cayley-Dickson doubling rule
(_doubled) and a signed relabelling of the units (_relabel); the octonion
structure constants are read off the octonion table, which verify checks
cell by cell against an independently written one.  Components may be
ints, Fractions or floats; the same classes serve both the exact rational
backend and the float geometry backend.  All values are immutable, so
everything here is safe to share between threads.
"""

from fractions import Fraction
import functools
import math
import random

__all__ = [
    "SplitComplex",
    "OrdinaryComplex",
    "SplitQuaternion",
    "SplitOctonion",
    "StructureTable",
    "OCTONION_TABLE",
    "verify_structure_table",
    "multiplication_table",
]


class AlgebraError(TypeError):
    """Operands from different algebras were mixed."""


# the concrete real types components may have; an isinstance check against
# this tuple is far cheaper than one against the numbers.Real ABC
REAL_TYPES = (int, float, Fraction)


def _is_scalar(x):
    return isinstance(x, REAL_TYPES) and not isinstance(x, bool)


@functools.lru_cache(maxsize=4096)
def rational(n, d):
    """Fraction(n, d) for ints n and d, made once per (n, d) while the key is
    among the 4,096 most recently used and shared after that: a Fraction is
    immutable.  The exact kernels write few distinct values many times
    (ringmat's cleared kernels)."""
    return Fraction(n, d)


def reciprocal(x):
    """1 / x: a float for a float, an exact Fraction otherwise."""
    return 1 / x if isinstance(x, float) else Fraction(1, 1) / x


def root(q):
    """The one square-root rule: the exact Fraction root of an int or
    Fraction that is a rational square, else math.sqrt(float(q)), so a float
    keeps its bits and rational input stays exact where it can."""
    if not isinstance(q, float) and q >= 0:
        q = Fraction(q)
        num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if num * num == q.numerator and den * den == q.denominator:
            return Fraction(num, den)
    return math.sqrt(float(q))


class _Binarion:
    """Shared implementation for two-component hypercomplex numbers.

    Subclasses fix UNIT_SQ (the square of the imaginary unit) and its
    display symbol.  Mixing the two subclasses in one product is an error;
    promotion from the reals is explicit via the constructor.
    """

    __slots__ = ("re", "im")
    UNIT_SQ = None
    UNIT = "?"

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    def __add__(self, other):
        if _is_scalar(other):
            return type(self)(self.re + other, self.im)
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(-self.re, -self.im)

    def __mul__(self, other):
        if _is_scalar(other):
            return type(self)(self.re * other, self.im * other)
        if type(other) is not type(self):
            if isinstance(other, (_Binarion, _TableAlgebra)):
                raise AlgebraError(
                    "cannot multiply %s by %s" % (type(self).__name__, type(other).__name__)
                )
            return NotImplemented
        u2 = self.UNIT_SQ
        return type(self)(
            self.re * other.re + u2 * self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other):
        if _is_scalar(other):
            return type(self)(other * self.re, other * self.im)
        return NotImplemented

    def conj(self):
        return type(self)(self.re, -self.im)

    def qform(self):
        # conj(z) * z; indefinite for the split case.
        return self.re * self.re - self.UNIT_SQ * self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if _is_scalar(other):
            return self.re == other and self.im == 0
        if type(other) is not type(self):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a value equal to a real scalar hashes as that scalar
        return hash((type(self).__name__, self.re, self.im) if self.im != 0 else self.re)

    def __repr__(self):
        return "%s + %s%s" % (self.re, self.im, self.UNIT)


class SplitComplex(_Binarion):
    """a + jb with j^2 = +1 and conj(j) = -j; qform = a^2 - b^2."""

    __slots__ = ()
    UNIT_SQ = 1
    UNIT = "j"


class OrdinaryComplex(_Binarion):
    """a + ib with i^2 = -1; exact stand-in for complex over the rationals."""

    __slots__ = ()
    UNIT_SQ = -1
    UNIT = "i"


# ---------------------------------------------------------------------------
# split-quaternions and split-octonions

def _doubled(table, gamma):
    """Cayley-Dickson double of the algebra whose basis products are
    table[i][j] = (sign, k), e_i e_j = sign e_k with e_0 the unit: the pairs
    (a, b) under (a, b)(c, d) = (ac + gamma conj(d) b, da + b conj(c)), with
    the units e_i = (e_i, 0) and e_{n+i} = (0, e_i)."""
    n = len(table)

    def product(i, j):
        (x, a), (y, b) = divmod(i, n), divmod(j, n)
        sign, k = table[b][a] if y else table[a][b]
        if x:  # conj(e_b) = -e_b for b > 0
            sign *= (gamma if y else 1) * (-1 if b else 1)
        return sign, k + n * (x ^ y)

    return tuple(tuple(product(i, j) for j in range(2 * n)) for i in range(2 * n))


def _relabel(table, units):
    """The table in the signed basis e'_m = +-e_|u| for u = units[m], the
    sign that of u (e'_0 = e_0)."""
    sign = [-1 if u < 0 else 1 for u in units]
    new = {abs(u): m for m, u in enumerate(units)}

    def product(a, b):
        s, k = table[abs(units[a])][abs(units[b])]
        return s * sign[a] * sign[b] * sign[new[k]], new[k]

    return tuple(tuple(product(a, b) for b in range(len(units))) for a in range(len(units)))


# the complex numbers, the reals doubled with i^2 = -1
_COMPLEX = _doubled((((1, 0),),), -1)


class _TableAlgebra:
    """Shared implementation for the split-quaternions and split-octonions.

    Subclasses fix PRODUCTS, the table of basis products; the product, the
    conjugation and the quadratic form are all read from it.  Mixing the two
    subclasses in one product is an error; promotion is explicit.
    """

    __slots__ = ("coeffs",)
    PRODUCTS = ()

    @classmethod
    def _new(cls, coeffs):
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", tuple(coeffs))
        return obj

    def __setattr__(self, *a):
        raise AttributeError("immutable value")

    @classmethod
    def basis(cls, k):
        return cls._new(1 if i == k else 0 for i in range(len(cls.PRODUCTS)))

    def __add__(self, other):
        if _is_scalar(other):
            c = self.coeffs
            return self._new((c[0] + other,) + c[1:])
        if type(other) is not type(self):
            return NotImplemented
        return self._new(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._new(-a for a in self.coeffs)

    def __mul__(self, other):
        if _is_scalar(other):
            return self._new(a * other for a in self.coeffs)
        if type(other) is not type(self):
            if isinstance(other, (_Binarion, _TableAlgebra)):
                raise AlgebraError(
                    "cannot multiply %s by %s" % (type(self).__name__, type(other).__name__)
                )
            return NotImplemented
        b = other.coeffs
        out = [0] * len(b)
        for ai, row in zip(self.coeffs, self.PRODUCTS):
            if ai == 0:
                continue
            for bj, (sign, k) in zip(b, row):
                if bj == 0:
                    continue
                p = ai * bj
                out[k] = out[k] + p if sign > 0 else out[k] - p
        return self._new(out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self._new(other * a for a in self.coeffs)
        return NotImplemented

    def conj(self):
        c = self.coeffs
        return self._new((c[0],) + tuple(-x for x in c[1:]))

    def qform(self):
        # conj(x) x: each square weighted by minus the square of its unit
        c = self.coeffs
        acc = c[0] * c[0]
        for i in range(1, len(c)):
            sq = c[i] * c[i]
            acc = acc - sq if self.PRODUCTS[i][i][0] > 0 else acc + sq
        return acc

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if _is_scalar(other):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a value equal to a real scalar hashes as that scalar
        return hash((type(self).__name__, self.coeffs) if any(self.coeffs[1:]) else self.coeffs[0])

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.coeffs)


class SplitQuaternion(_TableAlgebra):
    """r0 + r1 q1 + r2 q2 + r3 q3 with q1^2 = q3^2 = +1, q2^2 = -1,
    q1 q2 = q3, q2 q3 = q1, q3 q1 = -q2, and distinct units anticommute.

    The complex numbers doubled with a square-(+1) unit, (a, b) for a + b l:
    q1 = l, q2 = i and q3 = -il.
    """

    __slots__ = ()
    PRODUCTS = _relabel(_doubled(_COMPLEX, 1), (0, 2, 1, -3))

    def __init__(self, r0=0, r1=0, r2=0, r3=0):
        object.__setattr__(self, "coeffs", (r0, r1, r2, r3))

    @classmethod
    def from_split_complex(cls, z):
        """a + bj as a + b q1: the double of the inclusion of the reals in
        the complex numbers (j = (0, 1) = q1)."""
        return cls(z.re, z.im, 0, 0)


# The split-octonions: the quaternions e0..e3 (the complex numbers doubled
# with a square-(-1) unit) doubled with a square-(+1) unit, e4 = (0, 1) and
# e_{4+i} = -(0, e_i).
_OCT_PRODUCTS = _relabel(_doubled(_doubled(_COMPLEX, -1), 1), (0, 1, 2, 3, 4, -5, -6, -7))
# Signature of the imaginary units e1..e7: e_I e_I = -eta_I.
_ETA7 = (None,) + tuple(-_OCT_PRODUCTS[i][i][0] for i in range(1, 8))
# The structure tensor f(I, J, K), e_I e_J = f(I, J, K) e_K + ..., with its
# last index lowered by the signature above.
_F_LOWER = {(i, j, k): sign * _ETA7[k] for i in range(1, 8) for j in range(1, 8)
            for sign, k in (_OCT_PRODUCTS[i][j],) if k}


class StructureTable:
    """Split-octonion structure constants.

    f_lower(I, J, K) is the coefficient of e_K in the product e_I e_J with
    the K index lowered with the split signature, and is totally
    antisymmetric.  basis_product and f_extended read the product table
    SplitOctonion multiplies with.
    """

    def __init__(self):
        self.eta = _ETA7
        self.lower = dict(_F_LOWER)

    def f_lower(self, i, j, k):
        return self.lower.get((i, j, k), 0)

    def f_extended(self, a, b, c):
        """Coefficient of e_c in e_a e_b with indices running over 0..7."""
        sign, k = _OCT_PRODUCTS[a][b]
        return sign if k == c else 0

    def basis_product(self, a, b):
        """e_a e_b as (coefficient, basis index), indices 0..7."""
        return _OCT_PRODUCTS[a][b]


OCTONION_TABLE = StructureTable()


class SplitOctonion(_TableAlgebra):
    """r0 + sum r_I e_I over the seven split-octonion units (non-associative)."""

    __slots__ = ()
    PRODUCTS = _OCT_PRODUCTS

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 8:
            raise ValueError("need 8 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_split_quaternion(cls, h):
        """q1 -> e4, q2 -> e2, q3 -> e6: the double of the inclusion of the
        complex numbers in the quaternions as span(1, e2)."""
        r0, r1, r2, r3 = h.coeffs
        return cls([r0, 0, r2, 0, r1, 0, r3, 0])


# ---------------------------------------------------------------------------
# verification

# The full 8x8 multiplication table, rows = left factor e0..e7, transcribed
# cell by cell.  Used as independent ground truth against basis_product.
_TABLE_CELLS = [
    ["1", "e1", "e2", "e3", "e4", "e5", "e6", "e7"],
    ["e1", "-1", "e3", "-e2", "-e5", "e4", "-e7", "e6"],
    ["e2", "-e3", "-1", "e1", "-e6", "e7", "e4", "-e5"],
    ["e3", "e2", "-e1", "-1", "-e7", "-e6", "e5", "e4"],
    ["e4", "e5", "e6", "e7", "1", "e1", "e2", "e3"],
    ["e5", "-e4", "-e7", "e6", "-e1", "1", "e3", "-e2"],
    ["e6", "e7", "-e4", "-e5", "-e2", "-e3", "1", "e1"],
    ["e7", "-e6", "e5", "-e4", "-e3", "e2", "-e1", "1"],
]


def _parse_cell(cell):
    sign = 1
    if cell.startswith("-"):
        sign = -1
        cell = cell[1:]
    if cell == "1":
        return (sign, 0)
    return (sign, int(cell[1:]))


# random coefficients are p/q with |p| <= RANDOM_SPAN and 1 <= q <= RANDOM_SPAN
RANDOM_SPAN = 6


def rational_table(span):
    """table[p + span][q - 1] = Fraction(p, q) for |p| <= span and
    1 <= q <= span.  rng.choice(rng.choice(table)) is the draw
    Fraction(rng.randint(-span, span), rng.randint(1, span)): randint(a, b)
    and choice(seq) each take one rng._randbelow, of b - a + 1 and of
    len(seq), so the draw leaves the rng in the same state, and no Fraction
    is built per draw."""
    return tuple(tuple(Fraction(p, q) for q in range(1, span + 1))
                 for p in range(-span, span + 1))


_RATIONALS = rational_table(RANDOM_SPAN)


def _random_rational(rng):
    return rng.choice(rng.choice(_RATIONALS))


def random_element(cls, rng):
    if issubclass(cls, _Binarion):
        return cls(_random_rational(rng), _random_rational(rng))
    if issubclass(cls, _TableAlgebra):
        return cls._new(_random_rational(rng) for _ in range(len(cls.PRODUCTS)))
    raise TypeError(cls)


def cleared_ints(values):
    """(ints, m) for a sequence of ints and Fractions: m is the lcm of their
    denominators and ints are the values times m, each an int."""
    # a list, not a generator: unpacking a generator builds an over-sized
    # tuple that CPython shrinks and then parks in its tuple free list
    m = math.lcm(*[c.denominator for c in values])
    return [c.numerator * (m // c.denominator) for c in values], m


def _cleared(x):
    """x times the lcm of its coefficients' denominators: the same element up
    to a positive integer factor, with int coefficients.  The composition
    and anti-automorphism identities are homogeneous in each factor, so they
    hold for x exactly when they hold for _cleared(x)."""
    binarion = isinstance(x, _Binarion)
    ints, _ = cleared_ints((x.re, x.im) if binarion else x.coeffs)
    return type(x)(*ints) if binarion else x._new(ints)


def cleared_sample(cls, rng):
    """random_element(cls, rng) with its denominators cleared (_cleared)."""
    return _cleared(random_element(cls, rng))


def verify_structure_table(samples=1000, seed=0):
    """Check the stored octonion table and the composition property.

    Returns a list of (check id, passed, detail) triples: all 64 products
    against the transcribed table, total antisymmetry of the structure
    tensor lowered with the signature of qform, and
    qform(ab) == qform(a) qform(b) on random rational samples for all three
    algebras (brute-force expansion, exact; each sample has its
    denominators cleared, see cleared_sample).
    """
    results = []

    bad = []
    for i in range(8):
        for j in range(8):
            expect = _parse_cell(_TABLE_CELLS[i][j])
            got = OCTONION_TABLE.basis_product(i, j)
            if got != expect:
                bad.append("e%d*e%d: got %r want %r" % (i, j, got, expect))
    results.append(("octonion-table-64", not bad, "; ".join(bad) or "64/64 match"))

    asym_bad = []
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                v = OCTONION_TABLE.f_lower(i, j, k)
                if v != -OCTONION_TABLE.f_lower(j, i, k) or v != -OCTONION_TABLE.f_lower(i, k, j):
                    asym_bad.append("(%d,%d,%d)" % (i, j, k))
    # the index is lowered with the signature of the quadratic form
    asym_bad += ["eta_%d" % i for i in range(1, 8)
                 if SplitOctonion.basis(i).qform() != OCTONION_TABLE.eta[i]]
    nonzero = sum(1 for v in OCTONION_TABLE.lower.values() if v != 0)
    ok = not asym_bad and nonzero == 42
    results.append(("f-lower-antisymmetric", ok, "; ".join(asym_bad) or "42 signed entries"))

    rng = random.Random(seed)
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        bad = 0
        for _ in range(samples):
            a = cleared_sample(cls, rng)
            b = cleared_sample(cls, rng)
            if (a * b).qform() != a.qform() * b.qform():
                bad += 1
        results.append(
            ("composition-%s" % cls.__name__, bad == 0,
             "%d/%d exact" % (samples - bad, samples))
        )
    return results


_ALGEBRAS = {
    "split-complex": (SplitComplex, ["1", "j"]),
    "split-quaternion": (SplitQuaternion, ["1", "q1", "q2", "q3"]),
    "split-octonion": (SplitOctonion, ["1", "e1", "e2", "e3", "e4", "e5", "e6", "e7"]),
}


def multiplication_table(algebra):
    """Full multiplication table of one split algebra as JSON-ready data."""
    if algebra not in _ALGEBRAS:
        raise ValueError("unknown algebra %r" % algebra)
    cls, basis = _ALGEBRAS[algebra]
    if cls is SplitComplex:
        elems = [SplitComplex(1, 0), SplitComplex(0, 1)]
    else:
        elems = [cls.basis(k) for k in range(len(basis))]
    table = []
    for a in elems:
        row = []
        for b in elems:
            p = a * b
            coeffs = (p.re, p.im) if cls is SplitComplex else p.coeffs
            row.append([{"coeff": c, "basis_index": k} for k, c in enumerate(coeffs) if c != 0])
        table.append(row)
    return {"schema": 1, "algebra": algebra, "basis": basis, "table": table}
