"""Exact univariate polynomial arithmetic, monomial enumeration, and roots.

Coefficients are arbitrary-precision Python integers; characteristic
polynomials of even small hypergraphs have coefficients far beyond any fixed
width.  Root multiplicities are exact: Yun's square-free decomposition
splits every polynomial into factors with simple roots before any floating
point runs.  A root's residual comes from an exact evaluation at its binary
value, done over the Gaussian integers; rationals (``fractions.Fraction``)
appear only in rounding coefficient ratios to floats.  Floating point is
confined to the numeric root finder and to residual estimates.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "UniPoly",
    "RootSet",
    "enumerate_monomials",
    "numeric_roots",
    "poly_residual",
    "square_free_decomposition",
]


class UniPoly:
    """Integer polynomial in one variable ``L``, stored as degree -> coeff.

    The map never holds zero coefficients; the zero polynomial is the empty
    map.  Instances are treated as immutable: no public method mutates
    ``self``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for d0, v0 in items:
                if d0 % 1 or v0 % 1:  # NaN, or a fraction: inf % 1 is NaN
                    raise ValueError(f"non-integral term {v0!r}*L^{d0!r}")
                d, v = int(d0), int(v0)
                if d < 0:
                    raise ValueError("negative exponent in polynomial")
                if v:
                    c[d] = c.get(d, 0) + v
                    if not c[d]:
                        del c[d]
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "UniPoly":
        return cls({0: 1})

    @staticmethod
    def _of(c: dict) -> "UniPoly":
        """The polynomial of a map of ints with no zero coefficient, which
        this class's own results are, unchecked."""
        out = UniPoly.__new__(UniPoly)
        out._c = c
        return out

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return max(self._c) if self._c else -1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading_coefficient(self) -> int:
        return self._c[max(self._c)] if self._c else 0

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def __getitem__(self, degree: int) -> int:
        return self._c.get(degree, 0)

    def coefficients(self) -> dict:
        return dict(self._c)

    def terms_descending(self):
        for d in sorted(self._c, reverse=True):
            yield d, self._c[d]

    def coeff_at_codegree(self, codegree: int) -> int:
        """Coefficient of L^(degree - codegree)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no codegrees")
        e = self.degree - codegree
        return self._c.get(e, 0) if e >= 0 else 0

    def content(self) -> int:
        return math.gcd(*self._c.values()) if self._c else 0

    def max_coefficient_bits(self) -> int:
        return max((abs(v).bit_length() for v in self._c.values()), default=0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly({0: other})
        if not isinstance(other, UniPoly):
            return NotImplemented
        c = dict(self._c)
        for d, v in other._c.items():
            nv = c.get(d, 0) + v
            if nv:
                c[d] = nv
            elif d in c:
                del c[d]
        return UniPoly._of(c)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._of({d: -v for d, v in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = UniPoly({0: other})
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return UniPoly()
            return UniPoly._of({d: v * other for d, v in self._c.items()})
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c: dict = {}
        for da, va in a.items():
            for db, vb in b.items():
                d = da + db
                nv = c.get(d, 0) + va * vb
                if nv:
                    c[d] = nv
                elif d in c:
                    del c[d]
        return UniPoly._of(c)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def shift(self, s: int) -> "UniPoly":
        """Multiply by L^s."""
        if s < 0:
            raise ValueError("negative shift")
        return UniPoly._of({d + s: v for d, v in self._c.items()})

    def derivative(self) -> "UniPoly":
        return UniPoly._of({d - 1: d * v for d, v in self._c.items() if d > 0})

    def divide(self, divisor: "UniPoly"):
        """Exact euclidean division, returning (quotient, remainder).

        Both outputs must lie in Z[L]; a division whose quotient leaves the
        integers raises ValueError.  A nonzero remainder is returned, not
        raised, so callers can flag it.
        """
        if not isinstance(divisor, UniPoly) or divisor.is_zero:
            raise ValueError("division by zero polynomial")
        dd = divisor.degree
        lead = divisor.leading_coefficient
        rem = dict(self._c)
        quot: dict = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                break
            q, r = divmod(rem[rd], lead)
            if r:
                raise ValueError("quotient leaves the integers")
            e = rd - dd
            quot[e] = q
            for d, v in divisor._c.items():
                nd = d + e
                nv = rem.get(nd, 0) - q * v
                if nv:
                    rem[nd] = nv
                elif nd in rem:
                    del rem[nd]
        return UniPoly._of(quot), UniPoly._of(rem)

    def primitive(self):
        """Return (content-and-sign-free part, unit*content) with positive lead."""
        if self.is_zero:
            return UniPoly(), 0
        c = self.content()
        if self.leading_coefficient < 0:
            c = -c
        return UniPoly._of({d: v // c for d, v in self._c.items()}), c

    # -- formatting --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly({0: other})
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"UniPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for d in sorted(self._c, reverse=True):
            v = self._c[d]
            sign = "-" if v < 0 else "+"
            a = abs(v)
            if d == 0:
                body = str(a)
            else:
                var = "L" if d == 1 else f"L^{d}"
                body = var if a == 1 else f"{a}*{var}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def to_json(self) -> list:
        """[[degree, coefficient-as-decimal-string], ...], descending."""
        return [[d, str(v)] for d, v in self.terms_descending()]

    @classmethod
    def from_json(cls, pairs) -> "UniPoly":
        return cls((int(d), int(v)) for d, v in pairs)


# -- monomials ---------------------------------------------------------------


def enumerate_monomials(n: int, d: int) -> list:
    """All exponent vectors of total degree d in n variables, graded-lex.

    Within the single degree block, order is lexicographic descending on the
    exponent vector, e.g. (2,2) -> [(2,0), (1,1), (0,2)].  The vectors are
    counted from the multisets of d variable indices, which
    combinations_with_replacement yields as sorted tuples in ascending lex
    order.  At the first place two such tuples differ, the smaller holds
    more copies of that index, so its exponent vector is the larger.

    The Macaulay rows, the degree splits of a generalized trace and each
    vertex's multisets of link edges within one, and the phase counts of a
    cylinder spectrum all come from here.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("negative degree")
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


# -- gcd and square-free decomposition ---------------------------------------


def _poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Primitive gcd in Z[L], with a positive leading coefficient.

    Primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each
    pseudo-remainder is divided by its content.  gcd(0, 0) is 0.
    """
    a, b = p.primitive()[0], q.primitive()[0]
    if a.degree < b.degree:
        a, b = b, a
    while b:
        scale = b.leading_coefficient ** (a.degree - b.degree + 1)
        a, b = b, (a * scale).divide(b)[1].primitive()[0]
    return a


def _exact_quotient(p: UniPoly, q: UniPoly) -> UniPoly:
    """p / q, which must be exact in Z[L]."""
    try:
        quot, rem = p.divide(q)
    except ValueError:  # the quotient leaves the integers
        rem = None
    if rem != 0:
        raise ArithmeticError("inexact polynomial division")
    return quot


def square_free_decomposition(p: UniPoly) -> list:
    """Yun's algorithm: return [(factor, multiplicity), ...] with factors
    primitive, square-free, pairwise coprime, and
    p = unit * content * prod factor^multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f, _ = p.primitive()
    if f.degree == 0:
        return []
    d = f.derivative()
    g = _poly_gcd(f, d)
    c = _exact_quotient(f, g)
    w = _exact_quotient(d, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        a = _poly_gcd(c, w)
        if a.degree > 0:
            out.append((a, i))
            c = _exact_quotient(c, a)
            w = _exact_quotient(w, a)
        w = w - c.derivative()
        i += 1
    return out


# -- numeric roots ------------------------------------------------------------


@dataclass
class RootSet:
    """Numeric roots with exact multiplicities and per-root residuals.

    ``roots`` is a list of (value, multiplicity), each multiplicity exact
    from the square-free decomposition; ``residuals[i]`` is
    ``poly_residual`` at the i-th stored double-precision root.
    """

    roots: list
    residuals: list

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)


def _scaled_float_coeffs(p: UniPoly):
    """Monic float coefficients c_i / c_deg, correctly rounded via Fraction."""
    out = [0.0] * (p.degree + 1)
    lead = p.leading_coefficient
    for d, v in p.coefficients().items():
        try:
            out[d] = float(Fraction(v, lead))
        except OverflowError:
            raise ArithmeticError(
                "coefficient ratio too large for float root finding") from None
        if not out[d]:
            raise ArithmeticError(
                "coefficient ratio too small for float root finding")
    return out


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _roots_of_square_free(coeffs):
    """Roots of a square-free polynomial as companion-matrix eigenvalues.

    ``coeffs`` ascending, monic floats.  Each eigenvalue from numpy.roots is
    polished by at most three Newton steps; a step whose value is not finite
    (Horner's powers of a large root can overflow a double) is skipped.
    """
    dcoeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
    out = []
    for z in np.roots(coeffs[::-1]).astype(complex).tolist():
        for _ in range(3):
            dv = _horner(dcoeffs, z)
            if dv == 0:
                break
            step = z - _horner(coeffs, z) / dv
            if not cmath.isfinite(step):
                break
            z = step
        out.append(z)
    return out


def _log2_abs_eval(p: UniPoly, z: complex) -> float:
    """log2 |p(z)|, evaluated exactly at z's binary value.

    z = (a + b*i) / 2^s, so 2^(s*D) * p(z) = R + I*i is a Gaussian integer:
    Horner over Z[i], with c_d shifted left by s*(D - d) bits.  Dropping the
    power of two that reducing (R^2 + I^2) / 4^(s*D) would cancel keeps the
    float equal to the one read off the reduced fraction.
    """
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den, top = max(da, db), p.degree
    a, b, s = a * den // da, b * den // db, den.bit_length() - 1
    re = im = 0
    for d in range(top, -1, -1):
        re, im = re * a - im * b + (p[d] << s * (top - d)), re * b + im * a
    v = re * re + im * im
    if not v:
        return -math.inf
    t = min((v & -v).bit_length() - 1, 2 * s * top)
    cut = max(0, v.bit_length() - t - 53)
    return (math.log2(v >> (t + cut)) + cut - (2 * s * top - t)) / 2.0


def _log2_weighted_norm(p: UniPoly, r: float) -> float:
    """log2 of sum_i |c_i| * r^i, computed stably in log space."""
    lr = math.log2(r) if r > 0 else -math.inf
    logs = []
    for d, v in p.coefficients().items():
        logs.append(math.log2(abs(v)) + (d * lr if d else 0.0))
    top = max(logs)
    if math.isinf(top):
        return top
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def poly_residual(p: UniPoly, z: complex) -> float:
    """|p(z)| / sum_i |c_i||z|^i: backward-error style root residual."""
    z = complex(z)
    num = _log2_abs_eval(p, z)  # -inf at a root, and for p = 0
    if num == -math.inf:
        return 0.0
    return 2.0 ** min(num - _log2_weighted_norm(p, abs(z)), 64.0)


def numeric_roots(p: UniPoly) -> RootSet:
    """All complex roots of p with exact multiplicities.

    The exact factor L^r is stripped first.  Yun's square-free decomposition
    of the rest gives its factors and their exact multiplicities, and each
    factor's roots are its companion-matrix eigenvalues (numpy.roots) with a
    Newton polish.  A failed eigensolver or a root that overflows raises
    ArithmeticError.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no finite root set")
    r0 = min(p.coefficients())
    roots = [(0j, r0)] if r0 else []
    stripped = UniPoly({d - r0: v for d, v in p.coefficients().items()})
    for factor, mult in square_free_decomposition(stripped):
        try:
            vals = _roots_of_square_free(_scaled_float_coeffs(factor))
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"eigenvalue solver failed on a factor of "
                                  f"degree {factor.degree}: {exc}") from None
        if not all(map(cmath.isfinite, vals)):
            raise ArithmeticError(
                f"root overflowed on a factor of degree {factor.degree}")
        roots.extend((v, mult) for v in vals)
    residuals = [poly_residual(p, v) for v, _ in roots]
    rs = RootSet(roots=roots, residuals=residuals)
    if rs.total_multiplicity != p.degree:
        raise ArithmeticError("root multiplicities do not sum to the degree")
    return rs
