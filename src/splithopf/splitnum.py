"""Exact arithmetic for the three split algebras.

Split-complex numbers (j^2 = +1), split-quaternions and split-octonions,
together with their involutions and indefinite quadratic forms.  The
two-component numbers share _Binarion; the split-quaternions and
split-octonions share _TableAlgebra, which multiplies, conjugates and
evaluates the quadratic form from one table of basis products per algebra
(the octonion table is built from the structure constants and checked cell
by cell against a transcribed one).  Components may be ints, Fractions or
floats; the same classes serve both the exact rational backend and the
float geometry backend.  All values are immutable, so everything here is
safe to share between threads.
"""

from fractions import Fraction
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


def reciprocal(x):
    """1 / x: a float for a float, an exact Fraction otherwise."""
    return 1 / x if isinstance(x, float) else Fraction(1, 1) / x


def exact_sqrt(q):
    """Square root of a rational if it is a perfect square, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


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

    def __truediv__(self, other):
        if _is_scalar(other):
            return type(self)(self.re / other, self.im / other)
        if type(other) is type(self):
            q = other.qform()
            if q == 0:
                raise ZeroDivisionError("division by a null %s" % type(self).__name__)
            return self * other.conj() * reciprocal(q)
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
        return hash((type(self).__name__, self.re, self.im))

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

def _product_table(n, imag):
    """PRODUCTS[i][j] = (sign, k) for e_i e_j = sign e_k over the basis
    e_0..e_{n-1}; e_0 is the unit and imag maps each pair (i, j) of
    imaginary indices to its product."""
    return tuple(tuple(imag[i, j] if i and j else (1, i + j) for j in range(n))
                 for i in range(n))


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
        return hash((type(self).__name__, self.coeffs))

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.coeffs)


# Products q_i q_j -> (sign, k) of the split-quaternion units, k = 0 the
# scalar unit.  Generated by q1^2 = q3^2 = 1, q2^2 = -1, q1 q2 = q3,
# q2 q3 = q1, q3 q1 = -q2 and anticommutativity.
_QUAT_TAB = {
    (1, 1): (1, 0), (2, 2): (-1, 0), (3, 3): (1, 0),
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (-1, 2), (1, 3): (1, 2),
}


class SplitQuaternion(_TableAlgebra):
    """r0 + r1 q1 + r2 q2 + r3 q3 with q1^2 = q3^2 = +1, q2^2 = -1."""

    __slots__ = ()
    PRODUCTS = _product_table(4, _QUAT_TAB)

    def __init__(self, r0=0, r1=0, r2=0, r3=0):
        object.__setattr__(self, "coeffs", (r0, r1, r2, r3))

    @classmethod
    def from_split_complex(cls, z, axis=1):
        # explicit promotion: j maps onto a square-(+1) imaginary unit
        if axis not in (1, 3):
            raise ValueError("j must map to a unit of square +1 (axis 1 or 3)")
        c = [z.re, 0, 0, 0]
        c[axis] = z.im
        return cls(*c)


# Signature of the imaginary units e1..e7: e_I e_I = -eta_I.
_ETA7 = (None, 1, 1, 1, -1, -1, -1, -1)

# Totally antisymmetric structure tensor with the third index lowered by the
# signature above.  Seven seed triples; all other nonzero entries follow by
# antisymmetry (cyclic permutations leave the value unchanged).
_SEEDS_LOWER = {
    (1, 2, 3): 1,
    (1, 4, 5): 1,
    (1, 6, 7): 1,
    (2, 4, 6): 1,
    (2, 5, 7): -1,
    (3, 4, 7): 1,
    (3, 5, 6): 1,
}


def _expand_lower():
    full = {}
    for (i, j, k), v in _SEEDS_LOWER.items():
        for (a, b, c), sgn in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            full[(a, b, c)] = sgn * v
    return full


_F_LOWER = _expand_lower()
# mixed form: raise the last index (diagonal metric)
_F_MIXED = {key: v * _ETA7[key[2]] for key, v in _F_LOWER.items()}
_OCT_IMAG = {(i, j): (v, k) for (i, j, k), v in _F_MIXED.items()}
_OCT_IMAG.update({(i, i): (-_ETA7[i], 0) for i in range(1, 8)})
_OCT_PRODUCTS = _product_table(8, _OCT_IMAG)


class StructureTable:
    """Split-octonion structure constants.

    f(I, J, K) is the coefficient of e_K in the product e_I e_J (the mixed
    form); f_lower(I, J, K) carries the K index lowered with the split
    signature and is totally antisymmetric.  basis_product and f_extended
    read the product table SplitOctonion multiplies with.
    """

    def __init__(self):
        self.eta = _ETA7
        self.lower = dict(_F_LOWER)
        self.mixed = dict(_F_MIXED)

    def f(self, i, j, k):
        return self.mixed.get((i, j, k), 0)

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
        # q1 -> e4, q2 -> e2, q3 -> e6 preserves all products and squares
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


def _random_rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_element(cls, rng, span=6):
    if issubclass(cls, _Binarion):
        return cls(_random_rational(rng, span), _random_rational(rng, span))
    if issubclass(cls, _TableAlgebra):
        return cls._new(_random_rational(rng, span) for _ in range(len(cls.PRODUCTS)))
    raise TypeError(cls)


def verify_structure_table(samples=1000, seed=0):
    """Check the stored octonion table and the composition property.

    Returns a list of (check id, passed, detail) triples: all 64 products
    against the transcribed table, total antisymmetry of the lowered
    structure tensor, and qform(ab) == qform(a) qform(b) on random rational
    samples for all three algebras (brute-force expansion, exact).
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
    nonzero = sum(1 for v in OCTONION_TABLE.lower.values() if v != 0)
    ok = not asym_bad and nonzero == 42
    results.append(("f-lower-antisymmetric", ok, "; ".join(asym_bad) or "42 signed entries"))

    rng = random.Random(seed)
    for cls in (SplitComplex, SplitQuaternion, SplitOctonion):
        bad = 0
        for _ in range(samples):
            a = random_element(cls, rng)
            b = random_element(cls, rng)
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
