"""poly-core: exact arithmetic, leading terms, orders, printing."""

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rrclosure import (
    GF,
    QQ,
    ExponentOverflowError,
    Ideal,
    PolyRing,
    RingMismatchError,
    TermOrder,
    ZeroPolynomialError,
    exact_divide,
    groebner_basis,
    normal_form,
    parse_polynomial,
)
from rrclosure.orders import elimination_order
from rrclosure.polynomials import MAX_EXPONENT
from util_algebra import counter_multiply, degrevlex_greater, degrevlex_max, divides, qq_ring

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
    # an exponent that is no int is a bad vector, whatever its value
    for exps in ((2.5, 0), (2.0, 0), ("2", 0)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            R.monomial(exps)


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


def polys_in(ring, coefficients=coeffs):
    return st.dictionaries(exps, coefficients, max_size=5).map(ring.poly)


polys = polys_in(R)


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


# -- packed monomials ----------------------------------------------------------

ORDERS = st.sampled_from(["degrevlex", "eliminate-first"])
# small exponents give order ties; large ones exercise the field widths, and
# two of them still multiply within MAX_EXPONENT
EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT // 2))


def monomial_triples(d):
    mono = st.tuples(*[EXPONENT] * d)
    return st.tuples(st.just(d), mono, mono, mono)


TRIPLES = st.integers(1, 4).flatmap(monomial_triples)


def tag_first_greater(a, b):
    """The eliminate-first order written out: the tag exponent, then degrevlex."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return degrevlex_greater(a[1:], b[1:])


GREATER = {"degrevlex": degrevlex_greater, "eliminate-first": tag_first_greater}


@settings(max_examples=300, deadline=None)
@given(ORDERS, TRIPLES)
def test_packing_is_the_term_order_and_multiplicative(kind, triple):
    d, u, v, w = triple
    order = TermOrder(kind)
    packing = order.packing(d)
    pu, pv, pw = packing.pack(u), packing.pack(v), packing.pack(w)
    assert packing.unpack(pu) == u
    assert (pu > pv) == GREATER[kind](u, v)
    assert (pu < pv) == GREATER[kind](v, u)
    assert (pu == pv) == (u == v)
    uv = tuple(a + b for a, b in zip(u, v))
    assert packing.pack(uv) == pu + pv
    assert not (pu + pv) & packing.guard
    assert (not (pv - pu) & packing.guard) == divides(u, v)
    assert (not (pw - pu) & packing.guard) == divides(u, w)
    assert packing.lcm(pu, pw) == packing.pack(tuple(map(max, u, w)))


def test_packing_rejects_a_degree_that_does_not_fit():
    packing = TermOrder().packing(2)
    wide = (packing.max_degree, 1)
    with pytest.raises(ExponentOverflowError):
        packing.pack(wide)
    # the widest monomial that fits packs exactly, and its square overflows
    top = packing.pack((packing.max_degree, 0))
    assert packing.unpack(top) == (packing.max_degree, 0)
    assert (top + top) & packing.guard
    with pytest.raises(ExponentOverflowError):
        packing.lcm(top, packing.pack((0, 1)))


def test_exponents_at_the_cap_round_trip_through_groebner_basis():
    M = MAX_EXPONENT
    S = PolyRing(QQ, ("x", "y"))
    x, y = S.gens()
    # bases that stay within the cap come back whole ...
    basis = groebner_basis([x**M - y**M, x**2], S)
    assert [str(p) for p in basis] == ["x^2", f"y^{M}"]
    assert basis.normal_form(x**M + y**M) == S.zero
    basis = groebner_basis([x**M - y, y**2], S)
    assert [str(p) for p in basis] == ["y^2", f"x^{M} - y"]
    assert basis.normal_form(x**M * y + x**M) == y
    # ... but the packing has room for exponents past the cap, and a basis,
    # or an intersection, that needs them raises instead of returning
    # polynomials no other operation accepts
    with pytest.raises(ExponentOverflowError):
        groebner_basis([x**M - y**M, x * y], S)  # holds y^(M+1)
    with pytest.raises(ExponentOverflowError):
        Ideal(S, [x**M - y**M]).intersection(Ideal(S, [x * y]))  # x^(M+1)*y - x*y^(M+1)
    T = PolyRing(GF(32003), ("x", "y", "z"))
    x, y, z = T.gens()
    with pytest.raises(ExponentOverflowError):
        groebner_basis([x**M - y**M, y**M - z**M, x * y * z], T)  # holds z^(2M+1)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_a_normal_form_past_the_cap_raises(field):
    # x^K*y^K -> y^(2K) takes x^M*y^M to y^(2M) in four steps: the packing
    # has room for it, but no polynomial may hold it
    M = MAX_EXPONENT
    K = M // 4
    S = PolyRing(field, ("x", "y"))
    x, y = S.gens()
    basis = groebner_basis([x**K * y**K - y**(2 * K)], S)
    assert basis.normal_form(x**(2 * K) * y**(2 * K)) == y**M  # at the cap
    with pytest.raises(ExponentOverflowError):
        basis.normal_form(x**M * y**M)


def test_engine_overflow_raises_instead_of_a_wrong_basis():
    M = MAX_EXPONENT
    # (f) ∩ (g) = (f*g) has degree 4*MAX_EXPONENT, past the packed width
    # of the tag ring: the lcm of a pair does not fit
    f, g = X**M * Y**M + 1, X**M - Y**M
    with pytest.raises(ExponentOverflowError):
        Ideal(R, [f]).intersection(Ideal(R, [g]))
    # under the eliminate-first order a tail can outweigh its leading term,
    # so products overflow although every lcm fits: in an S-polynomial ...
    S = PolyRing(QQ, ("t", "x", "y"), elimination_order())
    t, x, y = S.gens()
    with pytest.raises(ExponentOverflowError):
        groebner_basis([t - x**M * y**M, t * x**M * y**M + 1], S)
    # ... and in a reduction step, where t*x -> y^M keeps raising the degree
    basis = groebner_basis([t * x - y**M], S)
    with pytest.raises(ExponentOverflowError):
        basis.normal_form(t**M * x**M * y**M)
    with pytest.raises(ExponentOverflowError):
        Ideal(S, [t * x - y**M]).contains(t**M * x**M * y**M)


# -- engine coefficients -------------------------------------------------------

# over QQ, fractions and contents exercise the primitive engine form and the
# factor back; mod p, residues of any size exercise the reduction mod p
GF_RING = PolyRing(GF(32003), ("x", "y"))
ENGINE_TRIPLES = st.one_of(
    st.tuples(*[polys_in(R, st.fractions(-5, 5, max_denominator=6))] * 3),
    st.tuples(*[polys_in(GF_RING, st.integers(0, 32002))] * 3),
)


@settings(max_examples=150, deadline=None)
@given(ENGINE_TRIPLES)
def test_engine_division_and_reduction_keep_every_coefficient(triple):
    f, g, r = triple
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f
    basis = groebner_basis([g])
    assert normal_form(f * g + r, basis) == normal_form(r, basis)
