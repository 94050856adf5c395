"""ideal-engine: the ideal calculus and its monomial fast paths."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import rrclosure
from rrclosure import (
    GF,
    INFINITE,
    QQ,
    Ideal,
    NotMPrimaryError,
    NotSuperficialError,
    PolyRing,
    RRClosureError,
    ZeroPolynomialError,
    exact_divide,
    ideals,
    reductions,
)
from rrclosure.ideals import groebner_basis
from rrclosure.orders import degrevlex, elimination_order
from rrclosure.polynomials import MAX_EXPONENT
from util_algebra import (
    brute_colength,
    brute_monomial_colon,
    brute_newton_vertices,
    counter_multiply,
    ideal_of,
    minimal_set,
    qq_ring,
    random_monomial_mprimary,
    random_polynomial,
)

R = qq_ring("x", "y")


def test_power_examples():
    m = ideal_of(R, "x", "y")
    assert sorted(m.power(2).monomial_generators()) == [(0, 2), (1, 1), (2, 0)]
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    assert I.power(1) is I
    assert I.power(0).colength() == 0
    assert I.power(2).colength() == 109


def test_colon_examples():
    x2 = ideal_of(R, "x^2")
    assert x2.colon(R.parse("x")).equals(ideal_of(R, "x"))
    m = ideal_of(R, "x", "y")
    assert m.power(4).colon(ideal_of(R, "x^3", "y^3")).equals(m)


def test_colon_chain_golden_value():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    lhs = I.power(4).colon([R.parse("(y^5+x^10+x^8*y)^3"), R.parse("(x*y^4)^3")])
    expected = ideal_of(R, "x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y")
    assert lhs.equals(expected)
    assert lhs.contains_ideal(I) and not I.contains_ideal(lhs)


def test_equality_and_containment():
    assert ideal_of(R, "x", "y").equals(ideal_of(R, "y", "x + y"))
    a, b = ideal_of(R, "x^2", "x*y"), ideal_of(R, "x")
    assert b.contains_ideal(a)
    assert not a.contains_ideal(b)
    assert not a.equals(b)


def test_equal_monomial_ideals_agree_under_an_elimination_order():
    # (t, x^2, y^3, xy) from exponents, and from t + xy, whose reduced basis
    # the engine finds monomial: each comparison gets fresh ideals, so none
    # reads a cache another comparison filled
    S = PolyRing(QQ, ("t", "x", "y"), elimination_order())

    def fresh():
        a = Ideal.from_exponents(S, [(1, 0, 0), (0, 2, 0), (0, 0, 3), (0, 1, 1)])
        return a, ideal_of(S, "t + x*y", "x^2", "y^3", "x*y")

    A, B = fresh()
    assert A.equals(B)
    A, B = fresh()
    assert B.equals(A)
    A, B = fresh()
    assert groebner_basis(A) == groebner_basis(B)


@pytest.mark.parametrize("order", [degrevlex, elimination_order])
def test_a_monomial_reduced_basis_is_listed_in_the_ring_order(order):
    # whether the ideal is made from exponents or the engine finds its basis
    # monomial; the kernels list the exponents in tuple order instead
    S = PolyRing(QQ, ("t", "x", "y"), order())
    exps = [(1, 0, 0), (0, 2, 0), (0, 0, 3), (0, 1, 1), (0, 3, 0), (0, 0, 5)]
    for I in (Ideal.from_exponents(S, exps),
              ideal_of(S, "t + x*y", "x^2", "y^3", "x*y", "x^3", "y^5")):
        lms = I.reduced_basis().leading_monomials
        assert lms == sorted(minimal_set(exps), key=S.order.key)
        assert I.monomial_generators() == sorted(lms)


def test_colength_examples():
    assert ideal_of(R, "x", "y").colength() == 1
    assert ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y").colength() == 35
    assert ideal_of(R, "y^5+x^10+x^8*y", "x*y^4").colength() == 45
    assert ideal_of(R, "x^2", "x*y").colength() is INFINITE
    assert Ideal.unit(R).colength() == 0


def test_is_m_primary():
    assert ideal_of(R, "x^8", "x^3*y^2", "x^2*y^4", "y^8").is_m_primary()
    assert ideal_of(R, "x", "y").is_m_primary()
    assert not ideal_of(R, "x^2", "x*y").is_m_primary()
    S = PolyRing(QQ, ("x",))
    J = ideal_of(S, "x^2 - x")
    assert J.colength() == 2
    assert not J.is_m_primary()
    assert "not nilpotent" in J.m_primary_witness()


def test_m_primary_past_the_exponent_cap():
    # colength 1.6e9 passes MAX_EXPONENT, so x^D cannot be built: the check
    # squares the normal form of each variable instead
    gens = ("x^40000 + y", "y^40000")
    assert ideal_of(R, *gens).colength() == 1600000000 > MAX_EXPONENT
    assert ideal_of(R, *gens).is_m_primary()
    # y^40000 = 1 puts the zeros off the origin: neither x nor y is nilpotent
    for names in (("x", "y"), ("y", "x")):
        ring = PolyRing(QQ, names)
        J = ideal_of(ring, "x^40000 + y", "y^40000 - 1")
        assert not J.is_m_primary()
        first = names[0]
        assert J.m_primary_witness() == (f"{first}^1600000000 does not lie in the ideal, "
                                         f"so {first} is not nilpotent mod I")


def test_minimal_generators():
    assert {str(g) for g in ideal_of(R, "x", "y", "x + y", "x^2").minimal_generators()} == {"x", "y"}
    assert {str(g) for g in ideal_of(R, "x^2", "x*y", "y^2", "x^3").minimal_generators()} == {
        "x^2",
        "x*y",
        "y^2",
    }
    closure_gens = ideal_of(
        R, "x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y"
    ).minimal_generators()
    assert len(closure_gens) == 6
    # non-monomial generators of an ideal with a clean minimal system
    mixed = ideal_of(R, "x + y^2", "y^3", "x*y + y^3")
    mins = mixed.minimal_generators()
    assert len(mins) == 2


def test_sum_and_product():
    I = ideal_of(R, "x^2")
    J = ideal_of(R, "y^2")
    assert (I + J).equals(ideal_of(R, "x^2", "y^2"))
    assert I.multiply(J).equals(ideal_of(R, "x^2*y^2"))
    f = R.parse("x^3 + y")
    assert (I + f).contains(f)


def test_power_consistency_small_random():
    rng = random.Random(3)
    for _ in range(6):
        exps = random_monomial_mprimary(rng, max_pure=4, max_extra=2)
        I = Ideal.from_exponents(R, exps)
        for a in range(3):
            for b in range(3):
                assert I.power(a + b).equals(I.power(a).multiply(I.power(b)))


def _two_variable_staircases(kind, rng, count=12):
    for _ in range(count):
        if kind == "skew":
            yield random_monomial_mprimary(rng, max_pure=7, skew_prob=1.0)
        elif kind == "vertices":
            # generators that are all vertices of their Newton polygon
            yield sorted(brute_newton_vertices(random_monomial_mprimary(rng, 9, 5)))
        else:
            yield random_monomial_mprimary(rng, max_pure=9, max_extra=5)


@pytest.mark.parametrize("kind", ["plain", "skew", "vertices"])
def test_powers_match_the_pairwise_products(kind):
    rng = random.Random({"plain": 21, "skew": 22, "vertices": 23}[kind])
    for exps in _two_variable_staircases(kind, rng):
        I = Ideal.from_exponents(R, exps)
        want = minimal_set(exps)
        for n in range(2, 9):
            want = minimal_set(tuple(a + b for a, b in zip(g, h)) for g in want for h in exps)
            assert I.power(n).monomial_generators() == sorted(want), (exps, n)


def test_powers_switch_to_the_newton_vertices_in_two_variables_only(monkeypatch):
    from rrclosure import _kernels

    factors = []
    real = _kernels.monomial_product

    def recorded(gens_a, gens_b):
        factors.append(sorted(gens_b))
        return real(gens_a, gens_b)

    monkeypatch.setattr(_kernels, "monomial_product", recorded)
    # ex14: nine generators of degree 22, whose Newton polygon is one edge
    ex14 = [(0, 22), (4, 18), (7, 15), (8, 14), (11, 11), (14, 8), (15, 7), (18, 4), (22, 0)]
    I = Ideal.from_exponents(R, ex14)
    vertices = sorted(brute_newton_vertices(ex14))
    assert vertices == [(0, 22), (22, 0)]
    others = sorted(set(ex14) - set(vertices))
    I.power(8)
    # I^n*I_V and I^n*(the others) until the others add nothing; I_V alone after
    switch = factors.count(others)
    assert 1 <= switch < 7
    assert factors == [vertices, others] * switch + [vertices] * (7 - switch)

    # three variables keep the plain product by every generator
    factors.clear()
    S = qq_ring("x", "y", "z")
    J = ideal_of(S, "x^3", "y^3", "z^3", "x^2*y", "y^2*z")
    J.power(5)
    assert factors == [sorted(J.monomial_generators())] * 4


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_power_supports_match_the_products(field):
    from rrclosure.ideals import power_supports

    S = PolyRing(field, ("x", "y"))
    p = field.characteristic

    def times(a, b):
        out = counter_multiply(a, b)
        return {e: c % p for e, c in out.items() if c % p} if p else out

    rng = random.Random(31)
    for _ in range(30):
        f = random_polynomial(rng, S, max_terms=4, max_exp=3)
        if f.is_zero():
            continue
        k = rng.randint(1, 5)
        power = {(0, 0): 1}
        for _ in range(k):
            power = times(power, f.terms)
        supports = power_supports(f, k)
        assert sorted(next(supports)) == sorted(power), (f, k)
        assert sorted(next(supports)) == sorted(times(power, f.terms)), (f, k)


def test_power_supports_keep_cancellations_mod_p():
    from rrclosure.ideals import power_supports

    S = PolyRing(GF(5), ("x", "y"))
    f = S.parse("x + y")
    supports = power_supports(f, 5)
    assert sorted(next(supports)) == [(0, 5), (5, 0)]  # (x + y)^5 = x^5 + y^5 mod 5
    assert sorted(next(supports)) == [(0, 6), (1, 5), (5, 1), (6, 0)]
    assert sorted(next(power_supports(f, 4))) == sorted((f**4).terms)


def test_a_power_builds_its_polynomials_only_when_read():
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    P = I.power(3)
    # sampling reads only the exponents
    assert not P.is_zero_ideal()
    assert P.colength() == brute_colength(P.monomial_generators(), 2)
    I.power(5)
    assert P._generators is None and P._basis is None
    built = Ideal(R, [R.monomial(e) for e in P.monomial_generators()])
    assert P.generators == built.generators
    assert P.reduced_basis() == built.reduced_basis()
    assert P.minimal_generators() == built.minimal_generators()
    assert repr(P) == repr(built)
    assert P.generators is P.reduced_basis().polys


def test_colength_matches_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        exps = random_monomial_mprimary(rng, max_pure=6, max_extra=3)
        I = Ideal.from_exponents(R, exps)
        assert I.colength() == brute_colength(exps, 2)


def random_monomial_ideal(rng, d, hi, m_primary):
    """Exponents of a monomial ideal of k[x_1..x_d] other than the unit
    ideal: random generators, plus a pure power of every variable when
    ``m_primary``."""
    gens = [m for m in (tuple(rng.randint(0, hi) for _ in range(d))
                        for _ in range(rng.randint(1, 4))) if any(m)]
    if m_primary or not gens:
        gens += [tuple(rng.randint(1, hi) if j == i else 0 for j in range(d)) for i in range(d)]
    return gens


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomial_colon_matches_brute_force(d):
    # m-primary ideals, and from two variables on ideals that miss pure
    # powers, by divisors given as an Ideal, a list and a single monomial;
    # the answer lists its generators in ascending tuple order
    ring = qq_ring(*"xyz"[:d])
    rng = random.Random(7)
    for trial in range(12):
        a = random_monomial_ideal(rng, d, 6 if d < 3 else 4, m_primary=d == 1 or trial % 2 == 0)
        b = random_monomial_ideal(rng, d, 4 if d < 3 else 3, m_primary=trial % 3 == 0)
        A, B = Ideal.from_exponents(ring, a), Ideal.from_exponents(ring, b)
        want = brute_monomial_colon(a, b, d)
        for divisors in (B, list(B.generators)):
            assert A.colon(divisors).monomial_generators() == sorted(want)
        single = A.colon(ring.monomial(b[0])).monomial_generators()
        assert single == sorted(brute_monomial_colon(a, [b[0]], d))


def test_a_monomial_colon_is_one_staircase_colon(monkeypatch):
    # all monomial divisors go to one kernel call, with no intersection of
    # per-divisor ideals after it
    from rrclosure import _kernels

    def forbidden(*args, **kwargs):
        raise AssertionError("a monomial colon intersected ideals")

    calls = []
    kernel = _kernels.staircase_colon
    monkeypatch.setattr(_kernels, "staircase_colon",
                        lambda gens, supports: calls.append(supports) or kernel(gens, supports))
    monkeypatch.setattr(Ideal, "intersection", forbidden)
    I = ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y")
    divisors = I.power(3)
    assert I.power(4).colon(divisors).equals(
        ideal_of(R, "x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y"))
    assert calls == [divisors.monomial_generators()]


def test_mixed_divisors_of_a_monomial_ideal_match_the_tag_route():
    # the monomial divisors go through the staircase kernel, the polynomial
    # ones through tag elimination; the same ideal with a redundant
    # polynomial generator is not known monomial, so every divisor takes
    # the tag route
    T = qq_ring("x", "y", "z")
    cases = [
        (ideal_of(R, "x^10", "y^5", "x*y^4", "x^8*y").power(2),
         [R.parse("y^5 + x^10 + x^8*y"), R.parse("x*y^4")]),
        (ideal_of(R, "x^3", "x*y^2", "y^4"), [R.parse("x*y"), R.parse("x^2 - y^3")]),
        (ideal_of(R, "x^2*y", "x*y^3"), [R.parse("y^2"), R.parse("x + y")]),
        (ideal_of(T, "x^2", "y^2", "z^3", "x*y*z"), [T.parse("x*z"), T.parse("y + z")]),
    ]
    for A, divisors in cases:
        gens = list(A.generators)
        tagged = Ideal(A.ring, gens + [gens[0] + gens[-1]])
        assert A.monomial_generators() is not None and tagged.monomial_generators() is None
        assert A.colon(divisors).equals(tagged.colon(divisors))
        for g in divisors:
            assert A.colon(g).equals(tagged.colon(g))


def test_colon_by_a_divisor_from_another_ring_is_rejected():
    S = qq_ring("x", "y", "z")
    for A in (ideal_of(R, "x^2", "y^3"), ideal_of(R, "x^2 + y", "y^3")):
        for divisors in (S.parse("x"), [R.parse("y"), S.parse("x")], ideal_of(S, "x"),
                         Ideal(S)):
            with pytest.raises(rrclosure.RingMismatchError):
                A.colon(divisors)


def test_colon_laws_random():
    rng = random.Random(9)
    for _ in range(10):
        a = random_monomial_mprimary(rng, max_pure=5, max_extra=2)
        b = random_monomial_mprimary(rng, max_pure=3, max_extra=1)
        A, B = Ideal.from_exponents(R, a), Ideal.from_exponents(R, b)
        Q = A.colon(B)
        assert Q.contains_ideal(A)  # A <= (A : B)
        assert A.contains_ideal(Q.multiply(B))  # (A : B) * B <= A


def test_monomial_fast_path_agrees_with_groebner_path():
    # force the generic engine by wrapping monomials in unit multiples
    rng = random.Random(13)
    for _ in range(8):
        a = random_monomial_mprimary(rng, max_pure=4, max_extra=2)
        b = random_monomial_mprimary(rng, max_pure=3, max_extra=1)
        A = Ideal.from_exponents(R, a)
        B = Ideal.from_exponents(R, b)
        # same ideals presented by non-monomial generator lists
        A2 = Ideal(R, [g + h for g in A.generators for h in A.generators] + list(A.generators))
        B2 = Ideal(R, list(B.generators) + [B.generators[0] + B.generators[-1]])
        assert A2.colon(B2).equals(A.colon(B))
        assert A2.intersection(B2).equals(A.intersection(B))
        assert A2.multiply(B2).equals(A.multiply(B))


@pytest.mark.parametrize("seed", range(4))
def test_general_colon_membership_oracle(seed):
    # f lies in (A : g) exactly when f*g lies in A, for non-monomial A
    import random as _random

    from util_algebra import random_polynomial

    rng = _random.Random(30 + seed)
    A = Ideal(R, [R.parse("x^4") + random_polynomial(rng, R, 2, 3),
                  R.parse("y^4") + random_polynomial(rng, R, 2, 3),
                  R.parse("x^2*y^2")])
    g = R.parse("x + y") if seed % 2 else R.parse("x*y + y^2")
    C = A.colon(g)
    for _ in range(25):
        f = random_polynomial(rng, R, max_terms=4, max_exp=5)
        assert C.contains(f) == A.contains(f * g)


@pytest.mark.parametrize("seed", range(3))
def test_minimal_generators_minimality(seed):
    import random as _random

    from util_algebra import random_polynomial

    rng = _random.Random(80 + seed)
    I = Ideal(R, [R.parse("x^3") + random_polynomial(rng, R, 2, 2),
                  R.parse("y^3") + random_polynomial(rng, R, 2, 2),
                  R.parse("x*y^2"), R.parse("x^2*y")])
    mins = I.minimal_generators()
    assert Ideal(R, mins).equals(I)
    for i in range(len(mins)):
        rest = mins[:i] + mins[i + 1 :]
        assert not Ideal(R, rest).equals(I)


def test_colon_by_zero_rejected():
    I = ideal_of(R, "x")
    with pytest.raises(ZeroPolynomialError):
        I.colon(Ideal(R, []))


def test_exponents_out_of_range_are_rejected_before_any_kernel():
    # the two-variable kernels pack exponents into 32-bit fields, so an
    # exponent past the cap must raise, even when another generator divides it
    for exps, error in (([(3, 0), (0, 1 << 32)], rrclosure.ExponentOverflowError),
                        ([(1, 0), (1 << 40, 1)], rrclosure.ExponentOverflowError),
                        ([(2, 0), (-1, 3)], ValueError),
                        # a vector of the wrong length, or with an entry that is no int
                        ([(2, 0, 0), (0, 2, 1)], ValueError),
                        ([(3,), (1,)], ValueError),
                        ([(2.5, 0), (0, 2)], ValueError),
                        # vectors given as lists, as ``ring.monomial`` takes them
                        ([[3, 0], [0, 1 << 32]], rrclosure.ExponentOverflowError),
                        ([[2, 0], [-1, 3]], ValueError)):
        with pytest.raises(error):
            Ideal.from_exponents(R, exps)
    listed = Ideal.from_exponents(R, [[2, 0], [0, 2], [2, 1]])
    assert listed.monomial_generators() == [(0, 2), (2, 0)]
    top = Ideal.from_exponents(R, [(MAX_EXPONENT, 0), (0, MAX_EXPONENT)])
    assert top.colength() == MAX_EXPONENT * MAX_EXPONENT


def test_exact_divide():
    g = R.parse("y^2 - 7") + R.monomial((1, 0), Fraction(1, 2))
    q = R.parse("(3*x - 2*y)^5")
    # rational multiples on both sides, which the integer division divides out
    assert exact_divide(q * g * Fraction(5, 3), g * 7) == q * Fraction(5, 21)
    assert exact_divide(R.parse("x^2 + x"), R.parse("2*x")) == R.parse("1/2*x + 1/2")
    S = PolyRing(GF(7), ("x", "y"))
    assert exact_divide(S.parse("(x + y)^7*(3*x - y)"), S.parse("3*x - y")) == S.parse("x^7 + y^7")
    assert exact_divide(R.zero, g) == R.zero
    # a leading monomial that does not divide, and an integer remainder
    for f, h in (("x^2 + 1", "y + 1"), ("x^2 + 1", "x + 1"), ("x^2 + x", "2*x + 3")):
        with pytest.raises(RRClosureError):
            exact_divide(R.parse(f), R.parse(h))
    with pytest.raises(ZeroPolynomialError):
        exact_divide(g, R.zero)


def test_intersection_mixed_paths():
    A = ideal_of(R, "x^2", "y^3")
    g = R.parse("x + y")
    B = Ideal(R, [g])
    inter = A.intersection(B)
    # intersection with a principal ideal: every element divisible by g
    for p in inter.generators:
        assert A.contains(p) and B.contains(p)
    # and (A : g) * g reproduces A cap (g)
    Q = A.colon(g)
    assert Q.multiply(B).equals(inter)


def test_colength_at_origin():
    # supported only at the origin: agrees with colength
    I = ideal_of(R, "x^2", "y^2")
    assert I.colength_at_origin(by=ideal_of(R, "x", "y")) == 4
    # a point away from the origin inflates the plain colength only
    S = PolyRing(QQ, ("x",))
    m = ideal_of(S, "x")
    K = ideal_of(S, "x^2 - x")
    assert K.colength() == 2
    assert K.colength_at_origin(by=m) == 1
    L = ideal_of(S, "x^3 - x^2")
    assert L.colength() == 3
    assert L.colength_at_origin(by=m) == 2
    # truncating by the powers of another m-primary ideal gives the same
    cube = ideal_of(S, "x^3")
    assert K.colength_at_origin(by=cube) == 1
    assert L.colength_at_origin(by=cube) == 2
    with pytest.raises(NotMPrimaryError):
        I.colength_at_origin(by=ideal_of(R, "x^2"))
    # the truncating ideal has no default
    with pytest.raises(TypeError):
        I.colength_at_origin()


def test_colength_at_origin_cap_stops_an_infinite_local_length(monkeypatch):
    # (x + y) * m vanishes on the line x + y = 0 through the origin, so the
    # truncations rise for ever; with no expect the cap ends the scan
    J = ideal_of(R, "x^2 + x*y", "x*y + y^2")
    monkeypatch.setattr(ideals, "DEFAULT_TRUNCATION_CAP", 6)
    for by in (ideal_of(R, "x", "y"), ideal_of(R, "x^2", "x*y", "y^2")):
        with pytest.raises(RRClosureError, match="did not stabilize by the truncation power 6"):
            J.colength_at_origin(by=by)


def _searched_candidates(monkeypatch, I, e0, coeff_bound):
    """Every candidate the reduction search tries, with its verdict."""
    tried = []
    certify = reductions.certify_sequence

    def recording(I, elements, e0, **kwargs):
        try:
            cert = certify(I, elements, e0, **kwargs)
        except NotSuperficialError:
            tried.append((elements, False))
            raise
        tried.append((elements, True))
        return cert

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "certify_sequence", recording)
        patch.setattr(reductions, "DEFAULT_COEFF_BOUND", coeff_bound)
        cert = reductions.find_superficial_sequence(I, e0, seed=0)
    # one more rejected candidate, with zeros away from the origin and a
    # finite local length above e0
    ring = I.ring
    f, g = cert.elements[0], cert.elements[-1]
    f = f * ring.parse(f"1 + {ring.variables[0]}")
    g = g * ring.parse(" + ".join(ring.variables))
    tried.append(((f,) + cert.elements[1:-1] + (g,), False))
    return tried


@pytest.mark.parametrize(
    "field, variables, gens, coeff_bound",
    [
        (QQ, ("x", "y"), ("x^10", "y^5", "x*y^4", "x^8*y"), 1),
        (GF(32003), ("x", "y"), ("x^8", "x^3*y^2", "x^2*y^4", "y^8"), 10),
        (QQ, ("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y"), 1),
        (GF(32003), ("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y"), 10),
    ],
    ids=["QQ-d2", "GF-d2", "QQ-d3", "GF-d3"],
)
def test_i_adic_and_m_adic_local_lengths_agree(monkeypatch, field, variables, gens, coeff_bound):
    S = PolyRing(field, variables)
    I = ideal_of(S, *gens)
    e0 = rrclosure.poincare_series(I).multiplicity
    tried = _searched_candidates(monkeypatch, I, e0, coeff_bound)
    assert any(ok for _, ok in tried) and not all(ok for _, ok in tried)
    m = Ideal(S, [S.var(i) for i in range(S.dim)])
    for elements, accepted in tried:
        J = Ideal(S, elements)
        by_m = J.colength_at_origin(expect=e0, by=m)
        by_i = J.colength_at_origin(expect=e0, by=I)
        assert (by_m == e0) == (by_i == e0) == accepted
        if S.dim == 2:
            # the intersection number: exact up to e0, a bound above it
            fulton = reductions._intersection_number(*elements, e0)
            if by_m <= e0:
                assert fulton == by_m
            else:
                assert fulton > e0
        if J.colength() is not INFINITE:  # the local length is finite too
            assert J.colength_at_origin(by=m) == J.colength_at_origin(by=I)


def test_product_generator_order_does_not_depend_on_hashing():
    # the generator order feeds Buchberger's input order, so it must repeat
    # from one process to the next whatever the hash seed
    script = (
        "from rrclosure import Ideal, PolyRing, QQ\n"
        "R = PolyRing(QQ, ('x', 'y'))\n"
        "I = Ideal(R, [R.parse(s) for s in ('x^2 + y^3', 'x*y', 'y^4 + x^3')])\n"
        "print([str(g) for g in I.multiply(I).generators])\n"
    )
    src = os.path.dirname(os.path.dirname(rrclosure.__file__))
    outputs = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("variables, gens, minimal, inside", [
    (("x", "y"), ("x^3", "2*y^2", "x^3*y", "x*y^2", "x^2*y"),
     ["y^2", "x^2*y", "x^3"], "x^4 + 3*x^2*y^2"),
    (("x", "y", "z"), ("z^2", "x^2", "x^2*z", "3*y^2", "x*y*z", "y^3*z"),
     ["z^2", "y^2", "x^2", "x*y*z"], "x*y^2*z - x^3"),
])
def test_monomial_ideal_holds_its_basis_from_construction(monkeypatch, variables, gens,
                                                         minimal, inside):
    # the minimal generators are found once, when the ideal is made; nothing
    # after that minimalizes monomials of the ring again (the staircase count
    # in three variables still minimalizes its two-variable slices)
    from rrclosure import _kernels

    S = qq_ring(*variables)
    I = ideal_of(S, *gens)
    real = _kernels.minimalize

    def no_monomials_of_the_ring(monomials):
        monomials = list(monomials)
        assert all(len(m) < S.dim for m in monomials), "minimal generators recomputed"
        return real(monomials)

    monkeypatch.setattr(_kernels, "minimalize", no_monomials_of_the_ring)
    basis = I.reduced_basis()
    assert [str(g) for g in I.minimal_generators()] == minimal
    assert basis.polys == I.minimal_generators()
    assert I.colength() == brute_colength(I.monomial_generators(), S.dim)
    assert I.contains(S.parse(inside))
    assert not I.contains(S.parse("x*y"))


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_colon_powers_of_a_non_monomial_ideal(field):
    # phi: x -> x + y moves ex110 off the monomial fast paths; (I^4 : I^3)
    # is already its closure, so it must be phi of the paper's closure
    from rrclosure import closure_via_colon_powers

    S = PolyRing(field, ("x", "y"))

    def phi(text):
        return S.parse(text.replace("x", "(x+y)"))

    I = Ideal(S, [phi(g) for g in ("x^10", "y^5", "x*y^4", "x^8*y")])
    result, bounds, certified = closure_via_colon_powers(I, k=3)
    want = Ideal(S, [phi(g) for g in ("x^10", "y^5", "x*y^4", "x^7*y^2", "x^6*y^3", "x^8*y")])
    assert not certified
    assert bounds.multiplicity == 45
    assert result.equals(want)
