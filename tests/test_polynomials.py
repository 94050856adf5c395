"""poly-core: exact arithmetic, leading terms, orders, printing."""

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rrclosure import (
    GF,
    ExponentOverflowError,
    PolyRing,
    RingMismatchError,
    TermOrder,
    ZeroPolynomialError,
    parse_polynomial,
)
from util_algebra import counter_multiply, degrevlex_max, qq_ring

R = qq_ring("x", "y")
X, Y = R.var("x"), R.var("y")


def test_addition_cancels():
    assert (X + Y) + (-Y) == X


def test_square_binomial():
    assert (X + Y) ** 2 == R.parse("x^2 + 2*x*y + y^2")


def test_power_leading_monomial_of_superficial_element():
    # expand independently by repeated Counter convolution and take the
    # degrevlex maximum
    f = R.parse("y^5 + x^10 + x^8*y")
    cube = f**3
    raw = {e: int(c) for e, c in f.terms.items()}
    expanded = counter_multiply(counter_multiply(raw, raw), raw)
    assert degrevlex_max(expanded) == (30, 0)
    assert cube.leading_monomial() == (30, 0)
    assert {e: Fraction(c) for e, c in expanded.items()} == dict(cube.terms)


def test_leading_term_examples():
    assert R.parse("x + y^2").leading_monomial() == (0, 2)
    assert R.parse("x^10 + y^5 + x^8*y").leading_monomial() == (10, 0)
    exps, coeff = R.parse("5").leading_term()
    assert exps == (0, 0) and coeff == 5


def test_leading_term_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        R.zero.leading_term()


def test_ring_mismatch():
    other = qq_ring("x", "z")
    with pytest.raises(RingMismatchError):
        X + other.var("x")


def test_scalar_and_power_arithmetic():
    assert 2 * X - X == X
    assert (X * Y) ** 0 == R.one
    assert X**3 * X**4 == X**7


def test_exponent_overflow_guard():
    with pytest.raises(ExponentOverflowError):
        X ** (1 << 31)


def test_prime_field_coefficients():
    S = PolyRing(GF(7), ("x", "y"))
    f = S.parse("3*x + 5*x")
    assert f == S.parse("x")
    assert (S.parse("x + y") ** 7).coefficient((7, 0)) == 1
    # Freshman's dream mod p
    assert S.parse("x + y") ** 7 == S.parse("x^7 + y^7")


def test_term_order_variants():
    o = TermOrder("degrevlex")
    assert o.key((1, 0)) > o.key((0, 1))  # x > y on degree ties
    elim = TermOrder("eliminate-first")
    assert elim.key((1, 0, 0)) > elim.key((0, 5, 5))  # tag dominates


# -- randomized algebra laws --------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coeffs, max_size=5).map(lambda d: R.poly(d))


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_leading_monomial_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        return
    lhs = (f * g).leading_monomial()
    expected = tuple(a + b for a, b in zip(f.leading_monomial(), g.leading_monomial()))
    assert lhs == expected


@settings(max_examples=150, deadline=None)
@given(polys)
def test_parse_print_round_trip(f):
    assert parse_polynomial(str(f), R) == f


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_order_multiplicativity(f, g):
    # u < v implies u*w < v*w for monomials of the operands
    o = R.order
    if f.is_zero() or g.is_zero():
        return
    monos_f = list(f.terms)
    w = next(iter(g.terms))
    for u in monos_f:
        for v in monos_f:
            if o.key(u) < o.key(v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert o.key(uw) < o.key(vw)
