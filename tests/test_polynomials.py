import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypergraph_spectra import polynomials
from hypergraph_spectra.hypergraphs import Hypergraph
from hypergraph_spectra.macaulay import charpoly
from hypergraph_spectra.spectral import lambda_max
from hypergraph_spectra.polynomials import (
    UniPoly,
    _log2_abs_eval,
    _poly_gcd,
    enumerate_monomials,
    numeric_roots,
    poly_residual,
    square_free_decomposition,
)


def test_construction_drops_zeros():
    p = UniPoly({3: 0, 1: 2, 0: -5})
    assert p.coefficients() == {1: 2, 0: -5}
    assert p.degree == 1
    assert UniPoly().degree == -1
    assert UniPoly().is_zero


def test_construction_rejects_non_integral_terms():
    # int() would silently truncate {2: 1.5, 0.9: 3} to L^2 + 3, and
    # raises OverflowError on an infinity
    for bad in ({2: 1.5, 0.9: 3}, {2: 1.5}, {0.9: 3}, {0: Fraction(1, 2)},
                {0: float("inf")}):
        with pytest.raises(ValueError, match="non-integral"):
            UniPoly(bad)
    want = UniPoly({2: 1, 0: 3})
    assert UniPoly({np.int64(2): 1.0, 0: Fraction(3)}) == want
    assert UniPoly([(2.0, np.int64(1)), (0, 3)]) == want


def test_arith_basics():
    p = UniPoly({2: 1, 0: -1})
    q = UniPoly({1: 1, 0: 1})
    assert p + q == UniPoly({2: 1, 1: 1})
    assert p - p == UniPoly()
    assert p * q == UniPoly({3: 1, 2: 1, 1: -1, 0: -1})
    assert 3 * q == UniPoly({1: 3, 0: 3})
    assert q**3 == UniPoly({3: 1, 2: 3, 1: 3, 0: 1})
    assert (q - 1) == UniPoly({1: 1})
    assert p.shift(2) == UniPoly({4: 1, 2: -1})


def _log2_abs_reference(p, z):
    """log2 |p(z)| by Fraction Horner at z's binary value, rounded from the
    reduced fraction |p(z)|^2 as 53-bit log2(numerator) - log2(denominator)."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for d in range(p.degree, -1, -1):
        re, im = re * x - im * y + p[d], re * y + im * x
    v = re * re + im * im
    if v == 0:
        return -math.inf

    def lg(n):
        cut = max(0, n.bit_length() - 53)
        return math.log2(n >> cut) + cut

    return (lg(v.numerator) - lg(v.denominator)) / 2.0


def test_log2_abs_eval_matches_fraction_reference():
    rng = random.Random(11)
    points = [0j, 2.5 + 0j, 1.5j, complex(-0.0, 0.75), complex(0.3, -0.0),
              complex(-0.0, -0.0), complex(5e-324, 1.0),
              complex(-1.25, 2.0 ** -1070), complex(2.0 ** 61 + 2048, 3.0),
              complex(-1e20, 7e19), 1.0 - 1.0j]
    points += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(10)]
    points += [complex(rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 8)
               for _ in range(10)]
    for i in range(40):
        # small coefficients leave |p(z)|^2 with under 53 significant bits
        size = 10**30 if i % 2 else 3
        p = UniPoly({d: rng.choice([0, rng.randint(-size, size)])
                     for d in range(rng.randint(0, 12))})
        if p.is_zero:
            continue
        for z in points:
            assert _log2_abs_eval(p, z) == _log2_abs_reference(p, z), (p, z)


def test_log2_abs_eval_is_exact_at_binary_roots():
    # (2^s L - a)^2 + b^2 vanishes exactly at (a + b*i) / 2^s
    for a, b, s in [(3, 5, 2), (-7, 0, 10), (0, 1, 1074), (2**70, -1, 0)]:
        p = UniPoly({2: 4**s, 1: -2 * a * 2**s, 0: a * a + b * b})
        z = complex(a / 2**s, b / 2**s)
        assert _log2_abs_eval(p, z) == -math.inf
        assert _log2_abs_eval(p * UniPoly({1: 1, 0: -9}), z) == -math.inf
        assert _log2_abs_eval(p + 1, z) == 0.0


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        p = UniPoly({d: rng.randint(-9, 9) for d in range(rng.randint(0, 8))})
        q = UniPoly({d: rng.randint(-9, 9) for d in range(rng.randint(1, 6))})
        q = q + UniPoly({q.degree + 1 if not q.is_zero else 0: 1})
        prod = p * q
        quot, rem = prod.divide(q)
        assert rem.is_zero
        assert quot == p


def test_divide_reports_remainder():
    p = UniPoly({2: 1, 0: 1})
    q = UniPoly({1: 1})
    quot, rem = p.divide(q)
    assert quot == UniPoly({1: 1})
    assert rem == UniPoly({0: 1})


def test_divide_rejects_non_integer_quotient():
    p = UniPoly({1: 1})
    q = UniPoly({1: 2})
    with pytest.raises(ValueError):
        p.divide(q)


def test_text_form():
    p = UniPoly({12: 1, 9: -3, 6: 3, 3: -1})
    assert str(p) == "L^12 - 3*L^9 + 3*L^6 - L^3"
    assert str(UniPoly()) == "0"
    assert str(UniPoly({0: -5})) == "-5"
    assert str(UniPoly({1: 1})) == "L"


def test_json_roundtrip():
    p = UniPoly({5: 12345678901234567890, 0: -3})
    pairs = p.to_json()
    assert pairs == [[5, "12345678901234567890"], [0, "-3"]]
    assert UniPoly.from_json(pairs) == p


def test_codegree_accessor():
    p = UniPoly({6: 1, 3: -3, 0: 2})
    assert p.coeff_at_codegree(0) == 1
    assert p.coeff_at_codegree(3) == -3
    assert p.coeff_at_codegree(1) == 0
    assert p.coeff_at_codegree(6) == 2
    assert p.coeff_at_codegree(7) == 0


def test_monomials_count_and_order():
    ms = enumerate_monomials(2, 2)
    assert ms == [(2, 0), (1, 1), (0, 2)]
    ms = enumerate_monomials(3, 4)
    assert len(ms) == math.comb(4 + 2, 2)
    assert ms[0] == (4, 0, 0)
    assert ms[-1] == (0, 0, 4)
    assert all(sum(m) == 4 for m in ms)
    assert ms == sorted(ms, reverse=True)
    assert len(set(ms)) == len(ms)
    for n in range(1, 6):
        for d in range(6):
            want = sorted((e for e in itertools.product(range(d + 1), repeat=n)
                           if sum(e) == d), reverse=True)
            assert enumerate_monomials(n, d) == want


def test_square_free_decomposition():
    p = UniPoly({1: 1, 0: -1}) ** 3 * UniPoly({1: 1, 0: 2}) * UniPoly({2: 1, 0: 1}) ** 2
    fac = square_free_decomposition(p)
    by_mult = {m: f for f, m in fac}
    assert set(by_mult) == {1, 2, 3}
    assert by_mult[3] == UniPoly({1: 1, 0: -1})
    assert by_mult[2] == UniPoly({2: 1, 0: 1})
    assert by_mult[1] == UniPoly({1: 1, 0: 2})


def test_poly_gcd_is_the_primitive_common_divisor():
    rng = random.Random(13)

    def rand_poly(deg):
        coeffs = {d: rng.randint(-9, 9) for d in range(deg)}
        coeffs[deg] = rng.choice([-3, -2, -1, 1, 2, 3])
        return UniPoly(coeffs) * rng.choice([-6, -1, 1, 4])

    for _ in range(60):
        a, b, g = (rand_poly(rng.randint(0, 5)) for _ in range(3))
        ag, bg = a * g, b * g
        got = _poly_gcd(ag, bg)
        for multiple in (ag, bg):
            assert multiple.divide(got)[1] == 0
        assert got.divide(g.primitive()[0])[1] == 0
        assert got.content() == 1 and got.leading_coefficient > 0
        assert _poly_gcd(bg, ag) == got
        assert _poly_gcd(ag, UniPoly()) == ag.primitive()[0]
        assert _poly_gcd(UniPoly(), ag) == ag.primitive()[0]
    assert _poly_gcd(UniPoly(), UniPoly()) == UniPoly()
    assert _poly_gcd(UniPoly({0: 6}), UniPoly({0: -35})) == 1


def test_square_free_decomposition_rejects_a_non_divisor(monkeypatch):
    p = UniPoly({1: 1, 0: -1}) ** 2 * UniPoly({1: 1, 0: 2})
    monkeypatch.setattr(polynomials, "_poly_gcd",
                        lambda a, b: UniPoly({1: 1, 0: 3}))
    with pytest.raises(ArithmeticError):
        square_free_decomposition(p)
    monkeypatch.setattr(polynomials, "_poly_gcd",
                        lambda a, b: UniPoly({1: 2, 0: 1}))
    with pytest.raises(ArithmeticError):
        square_free_decomposition(p)


def test_numeric_roots_evaluates_each_root_once(monkeypatch):
    calls = []

    def counting(p, z):
        calls.append(z)
        return _log2_abs_eval(p, z)

    monkeypatch.setattr(polynomials, "_log2_abs_eval", counting)
    # L^3 (L^3 - 1)^3: four distinct roots
    rs = numeric_roots(UniPoly({3: 1}) * UniPoly({3: 1, 0: -1}) ** 3)
    assert len(rs.roots) == 4
    assert calls == [z for z, _ in rs.roots]


def test_numeric_roots_cubic():
    p = UniPoly({3: 1, 0: -1})
    rs = numeric_roots(p)
    assert rs.total_multiplicity == 3
    vals = sorted(rs.roots, key=lambda rm: (rm[0].real, rm[0].imag))
    expected = sorted(
        [complex(1, 0),
         complex(-0.5, math.sqrt(3) / 2),
         complex(-0.5, -math.sqrt(3) / 2)],
        key=lambda z: (z.real, z.imag),
    )
    for (got, mult), want in zip(vals, expected):
        assert mult == 1
        assert abs(got - want) < 1e-10
    assert all(r < 1e-12 for r in rs.residuals)


def test_numeric_roots_with_multiplicities():
    # L^3 (L^3 - 1)^3
    p = UniPoly({3: 1}) * UniPoly({3: 1, 0: -1}) ** 3
    rs = numeric_roots(p)
    assert rs.total_multiplicity == 12
    mults = {}
    for z, m in rs.roots:
        key = (round(z.real, 6), round(z.imag, 6))
        mults[key] = mults.get(key, 0) + m
    assert mults[(0.0, 0.0)] == 3
    assert mults[(1.0, 0.0)] == 3
    assert mults[(-0.5, round(math.sqrt(3) / 2, 6))] == 3
    assert mults[(-0.5, round(-math.sqrt(3) / 2, 6))] == 3


def test_numeric_roots_irrational():
    p = UniPoly({3: 1, 0: -12})
    rs = numeric_roots(p)
    real_roots = [z for z, _ in rs.roots if abs(z.imag) < 1e-10]
    assert len(real_roots) == 1
    assert abs(real_roots[0].real - 12 ** (1 / 3)) < 1e-10


def test_numeric_roots_product_invariant():
    # product of roots = (-1)^deg * c0 / lead
    rng = random.Random(3)
    for _ in range(10):
        coeffs = {d: rng.randint(-6, 6) for d in range(5)}
        coeffs[5] = 1
        p = UniPoly(coeffs)
        if p[0] == 0:
            coeffs[0] = 1
            p = UniPoly(coeffs)
        rs = numeric_roots(p)
        prod = 1.0 + 0.0j
        for z, m in rs.roots:
            prod *= z**m
        want = (-1) ** p.degree * p[0]
        assert abs(prod - want) < 1e-6 * max(1.0, abs(want))


def test_numeric_roots_degree_80_charpoly_at_rounding_level():
    # phi of this graph has a degree-27 square-free factor of multiplicity 2
    h = Hypergraph(5, 3, [(0, 3, 4), (0, 3, 2), (0, 3, 1), (0, 4, 1),
                          (3, 4, 2)])
    phi = charpoly(h).phi
    rs = numeric_roots(phi)
    assert rs.total_multiplicity == phi.degree == 80
    assert max(rs.residuals) < 1e-15


def test_numeric_roots_ultracube_q32_exact_multiplicities():
    # phi(Q_{3,2}) from its factorization, degree 2304: each cube root of c
    # carries the exponent of L^3 - c, and the largest |root| is Delta = 2
    def cube(c):
        return UniPoly({3: 1, 0: -c})

    exponents = {1: 18, -1: 54, 8: 27, 2: 486}
    phi = UniPoly({549: 1})
    for c, m in exponents.items():
        phi = phi * cube(c) ** m
    rs = numeric_roots(phi)
    assert rs.total_multiplicity == phi.degree == 2304
    assert len(rs.roots) == 13
    assert [m for z, m in rs.roots if z == 0] == [549]
    for c, m in exponents.items():
        for j in range(3):
            w = cmath.rect(abs(c) ** (1 / 3), (cmath.phase(c) + 2 * math.pi * j) / 3)
            assert [mz for z, mz in rs.roots if abs(z - w) < 1e-9] == [m], (c, j)
    assert max(abs(z) for z, _ in rs.roots) == 2.0


def test_numeric_roots_degree_1024_charpoly_meets_lambda_max():
    h = Hypergraph(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (5, 6, 7)])
    phi = charpoly(h).phi
    assert phi.degree == 1024
    rs = numeric_roots(phi)
    assert rs.total_multiplicity == 1024
    top = max(abs(z) for z, _ in rs.roots)
    assert abs(top - lambda_max(h).value) <= 1e-6


def test_numeric_roots_of_huge_modulus():
    # |root| = 1e100: Horner's powers stay finite, but the coefficients span
    # 200 and 300 decimal orders
    for p in (UniPoly({2: 1, 0: -10**200}), UniPoly({3: 1, 0: -10**300})):
        rs = numeric_roots(p)
        assert len(rs.roots) == p.degree
        for z, m in rs.roots:
            assert m == 1
            assert abs(abs(z) - 1e100) <= 1e-12 * 1e100
        assert all(r < 1e-15 for r in rs.residuals)


def test_numeric_roots_refuses_a_ratio_that_underflows():
    # the roots are +-1e-200i; c_0 / c_2 = 1e-400 rounds to 0.0, which would
    # put both roots at 0 with residual 1
    with pytest.raises(ArithmeticError, match="too small"):
        numeric_roots(UniPoly({2: 10**400, 0: 1}))


def test_numeric_roots_maps_an_eigensolver_failure(monkeypatch):
    # numpy's LinAlgError is a ValueError, which callers read as bad input
    def failing(coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", failing)
    with pytest.raises(ArithmeticError, match="factor of degree 3"):
        numeric_roots(UniPoly({3: 1, 0: -2}))


def test_poly_residual_scales():
    p = UniPoly({3: 1, 0: -1})
    assert poly_residual(p, 1.0 + 0j) < 1e-15
    assert poly_residual(p, 2.0 + 0j) > 1e-3


def test_primitive_and_content():
    p = UniPoly({2: -4, 0: 6})
    prim, cont = p.primitive()
    assert cont == -2
    assert prim == UniPoly({2: 2, 0: -3})
    assert prim * cont == p
