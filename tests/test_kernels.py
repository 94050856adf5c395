"""Monomial kernels: the staircase kernels against the brute-force oracles of
``util_algebra`` on randomized inputs in one, two and three variables (the
chain colon and the Newton-polygon vertices among them), their edge cases,
and the engine's memoised packed divisor scan against brute force."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from rrclosure import GF, QQ, Ideal, PolyRing, TermOrder
from rrclosure import _kernels as K
from rrclosure._kernels import find_divisor_index
from rrclosure.ideals import _Basis, _engine_terms, _nf_engine
from rrclosure.polynomials import MAX_EXPONENT
from util_algebra import (
    brute_colength,
    brute_integral_closure_colength,
    brute_monomial_colon,
    brute_newton_vertices,
    divides,
    minimal_set,
    random_monomial_mprimary,
)


def random_mono(rng, d=2, hi=8):
    return tuple(rng.randint(0, hi) for _ in range(d))


def random_monos(rng, n, d=2, hi=8):
    return [random_mono(rng, d, hi) for _ in range(n)]


def generators_in_box(member, box):
    """Minimal generators of the monomials m with 0 <= m <= box that satisfy
    ``member``: exactly the generators of the ideal when ``box`` bounds them."""
    points = itertools.product(*(range(c + 1) for c in box))
    return minimal_set(m for m in points if member(m))


def in_ideal(gens, m):
    return any(divides(g, m) for g in gens)


def assert_generators(got, want):
    """``got`` lists each monomial of ``want`` once, in ascending tuple
    order: every kernel lists its answer so, the chain colon
    ``staircase_colon`` and the internal corner chains of ``_meet``
    included.  The kernels know no term order; a shown list takes the
    ring's order in ``ideals._monomial_basis``."""
    assert got == sorted(set(want))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_minimalize_sum_and_membership_match_the_oracle(seed, d):
    rng = random.Random(100 + seed)
    for _ in range(10):
        A = random_monos(rng, rng.randint(0, 12), d)
        B = random_monos(rng, rng.randint(0, 12), d)
        assert_generators(K.minimalize(A), minimal_set(A))
        assert_generators(K.monomial_sum(A, B), minimal_set(A + B))
        for m in random_monos(rng, 5, d):
            assert K.monomial_contains(A, m) == in_ideal(A, m)


def generator(monomials):
    return (m for m in monomials)


@pytest.mark.parametrize("form", [list, set, generator])
def test_two_variable_minimalize_edge_cases(form):
    # the colon hands minimalize a generator, the ideal constructors lists
    cases = [
        ([], []),
        ([(3, 1)], [(3, 1)]),
        ([(2, 1), (2, 1), (1, 2), (2, 1)], [(1, 2), (2, 1)]),
        ([(2, 3), (0, 0), (5, 0), (0, 0)], [(0, 0)]),
        ([(0, 0)], [(0, 0)]),
        # equal x or equal y: only the lower one of each pair stays
        ([(2, 5), (2, 3), (4, 1), (6, 1)], [(2, 3), (4, 1)]),
        # one degree: the corner chain, x up and y down
        ([(0, 4), (3, 1), (1, 3), (4, 0), (2, 2)], [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]),
        ([(5, 0), (0, 5), (1, 1), (1, 3), (3, 1)], [(0, 5), (1, 1), (5, 0)]),
    ]
    for given, want in cases:
        assert K.minimalize(form(given)) == want


def test_minimalize_at_pipeline_size():
    # the corners of ex14^6 from the pair sums of ex14^3 with itself, with
    # their x- and y-multiples mixed in for the sweep to drop
    ex14 = [(0, 22), (4, 18), (7, 15), (8, 14), (11, 11), (14, 8), (15, 7), (18, 4), (22, 0)]
    cube = ex14
    for _ in range(2):
        cube = K.monomial_product(cube, ex14)
    sums = [(a0 + b0, a1 + b1) for a0, a1 in cube for b0, b1 in cube]
    cands = sums + [(x + 1, y) for x, y in sums] + [(x, y + 2) for x, y in sums]
    random.Random(7).shuffle(cands)
    assert len(cands) >= 2000
    want = minimal_set(cands)
    assert_generators(K.minimalize(cands), want)
    assert_generators(K.minimalize(generator(cands)), want)
    assert_generators(K.monomial_product(cube, cube), want)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_and_intersection_match_the_oracle(seed, d):
    rng = random.Random(200 + seed)
    for _ in range(10):
        A = random_monos(rng, rng.randint(0, 6), d, hi=5)
        B = random_monos(rng, rng.randint(0, 6), d, hi=5)
        sums = [tuple(x + y for x, y in zip(a, b)) for a in A for b in B]
        assert_generators(K.monomial_product(A, B), minimal_set(sums))
        # an lcm of two generators is bounded by the generators' own exponents
        box = [5] * d
        want = generators_in_box(lambda m: in_ideal(A, m) and in_ideal(B, m), box)
        assert_generators(K.monomial_intersection(A, B), want)


@pytest.mark.parametrize("seed", range(10))
def test_canonical_order_of_two_variable_staircases_sorts_ints(seed):
    # whole staircases of one degree or a few, so that many monomials tie in
    # degree, plus scattered ones with exponents up to MAX_EXPONENT: the
    # kernels list the corner chain in tuple order, the packed product by a
    # sort of ints, and a shown basis takes the ring's order (degrevlex here)
    rng = random.Random(700 + seed)
    ring = PolyRing(QQ, ("x", "y"))
    for _ in range(10):
        degrees = [rng.randint(0, 12) for _ in range(rng.randint(1, 3))]
        pairs = {(i, deg - i) for deg in degrees for i in range(deg + 1) if rng.random() < 0.7}
        pairs |= {(rng.randint(0, MAX_EXPONENT), rng.randint(0, MAX_EXPONENT)) for _ in range(3)}
        want = minimal_set(pairs)
        assert_generators(K.minimalize(pairs), want)
        assert_generators(K.monomial_product(sorted(pairs), [(0, 0)]), want)
        shown = Ideal.from_exponents(ring, pairs).reduced_basis().leading_monomials
        assert shown == sorted(want, key=ring.order.key)
    assert K.minimalize([]) == []


@pytest.mark.parametrize("seed", range(10))
def test_packed_two_variable_product_matches_pair_sums(seed):
    # exponents up to MAX_EXPONENT, so that the pair sums reach 2^31; ideals
    # with one generator, and the unit ideal on either side
    rng = random.Random(800 + seed)
    hi = [8, MAX_EXPONENT][seed % 2]
    for _ in range(10):
        A = random_monos(rng, rng.randint(1, 6), hi=hi)
        B = random_monos(rng, rng.randint(1, 6), hi=hi)
        A.append((rng.choice([0, hi]), rng.choice([0, hi])))
        for a, b in ((A, B), (A[:1], B), (A, B[:1]), (A, [(0, 0)]), ([(0, 0)], B)):
            want = minimal_set(K.mono_mul(x, y) for x in a for y in b)
            assert_generators(K.monomial_product(a, b), want)
    top = [(MAX_EXPONENT, 0), (0, MAX_EXPONENT)]
    assert K.monomial_product(top, top) == [(0, 2 * MAX_EXPONENT), (MAX_EXPONENT, MAX_EXPONENT),
                                            (2 * MAX_EXPONENT, 0)]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_colon_by_a_monomial_matches_the_oracle(seed, d):
    rng = random.Random(300 + seed)
    for _ in range(10):
        A = random_monos(rng, rng.randint(0, 6), d, hi=5)
        b = random_mono(rng, d, hi=4)
        # m is in (A : x^b) iff m + b is in A; generators stay below A's exponents
        want = generators_in_box(
            lambda m: in_ideal(A, tuple(x + y for x, y in zip(m, b))), [5] * d)
        assert_generators(K.monomial_colon_single(A, b), want)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_staircase_colength_matches_box_counting(seed, d):
    rng = random.Random(400 + seed)
    for _ in range(20):
        gens = sorted(minimal_set(random_monos(rng, rng.randint(1, 8), d, hi=6)))
        want = brute_colength(gens, d)
        assert K.staircase_colength(gens, d) == (-1 if want is None else want)
    # m-primary instances, which reach the slicing recursion for d = 3
    for _ in range(20):
        gens = random_monos(rng, rng.randint(0, 6), d, hi=6)
        for i in range(d):
            power = [0] * d
            power[i] = rng.randint(1, 6)
            gens.append(tuple(power))
        gens = sorted(minimal_set(gens))
        want = brute_colength(gens, d)
        assert want is not None
        assert K.staircase_colength(gens, d) == want


def test_staircase_edge_cases():
    assert K.staircase_colength([], 2) == -1
    assert K.staircase_colength([(0, 0)], 2) == 0
    assert K.staircase_colength([(2, 0), (1, 1)], 2) == -1
    assert K.staircase_colength([(1, 0), (0, 1)], 2) == 1


def test_big_exponent_totals_are_exact():
    # products beyond 64-bit territory stay exact
    big = 1 << 40
    assert K.staircase_colength([(0, big), (big, 0)], 2) == big * big


def random_mprimary(rng, d, max_pure=8, max_extra=4):
    """An m-primary monomial ideal of k[x_1..x_d]: a pure power of every
    variable plus random extras, minimalized."""
    gens = [tuple(rng.randint(1, max_pure) if j == i else 0 for j in range(d))
            for i in range(d)]
    gens += [m for m in random_monos(rng, rng.randint(0, max_extra), d, hi=max_pure - 1)
             if any(m)]  # the monomial 1 would make J the unit ideal
    return sorted(minimal_set(gens))


@pytest.mark.parametrize("seed", range(10))
def test_staircase_colon_matches_the_oracle(seed):
    # supports reach past J's pure powers, so some shifts leave the staircase
    rng = random.Random(600 + seed)
    for _ in range(10):
        J = random_monomial_mprimary(rng, max_pure=8, max_extra=4)
        supports = random_monos(rng, rng.randint(1, 4), hi=10)
        assert_generators(K.staircase_colon(J, supports),
                          brute_monomial_colon(J, supports, 2))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 3])
def test_staircase_colon_matches_the_oracle_in_other_dimensions(seed, d):
    rng = random.Random(600 + seed)
    for _ in range(10):
        J = random_mprimary(rng, d, max_pure=6 if d == 3 else 8)
        supports = random_monos(rng, rng.randint(1, 4), d, hi=4 if d == 3 else 10)
        assert_generators(K.staircase_colon(J, supports),
                          brute_monomial_colon(J, supports, d))


def test_staircase_colon_edge_cases():
    J = [(0, 4), (1, 3), (3, 1), (4, 0)]
    # a support holding the monomial 1 gives J itself
    assert_generators(K.staircase_colon(J, [(0, 0)]), J)
    assert_generators(K.staircase_colon(J, [(0, 0), (1, 2)]), J)
    # a shift wider than the staircase: x^5 and y^4*x lie in J
    assert K.staircase_colon(J, [(5, 0)]) == [(0, 0)]
    assert K.staircase_colon(J, [(1, 4)]) == [(0, 0)]
    assert_generators(K.staircase_colon(J, [(5, 0), (2, 0)]), [(2, 0), (1, 1), (0, 3)])
    # two supports: (J : x^2) = (x^2, xy, y^3) meets (J : y^2) = (x^3, xy, y^2)
    want = [(3, 0), (1, 1), (0, 3)]
    assert_generators(K.staircase_colon(J, [(2, 0), (0, 2)]), want)
    assert brute_monomial_colon(J, [(2, 0), (0, 2)], 2) == set(want)
    # three variables: (x^2, y^2, z^2) : x meets (x^2, y^2, z^2) : y; the
    # support x*y is divisible by x, so it changes nothing
    J3 = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    want3 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2)]
    for supports in ([(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (1, 0, 0), (0, 1, 0)]):
        assert_generators(K.staircase_colon(J3, supports), want3)
    assert brute_monomial_colon(J3, [(1, 0, 0), (0, 1, 0)], 3) == set(want3)
    # no supports: the unit ideal in every dimension
    for gens in ([(3,)], J, J3):
        assert K.staircase_colon(gens, []) == [(0,) * len(gens[0])]


def test_meet_edge_cases():
    J = [(0, 3), (2, 1), (5, 0)]
    # the zero ideal has the empty chain, the unit ideal the chain of 1
    for a, b in (([], J), (J, []), ([], [])):
        assert K._meet(a, b) == []
    assert K._meet([(0, 0)], J) == J == K._meet(J, [(0, 0)])
    # chains that do not start at x = 0: x^2*y^3 meets (y^5, x^4)
    assert K._meet([(2, 3)], [(0, 5), (4, 0)]) == [(2, 5), (4, 3)]
    # chains that do not end at y = 0: (y^2, x^3*y) meets (x)
    assert K._meet([(0, 2), (3, 1)], [(1, 0)]) == [(1, 2), (3, 1)]
    # corners with equal x in both chains, where the height drops or stays
    assert K._meet(J, [(0, 4), (2, 0)]) == [(0, 4), (2, 1), (5, 0)]
    assert K._meet(J, J) == J
    for a, b in (([(2, 3)], [(0, 5), (4, 0)]), (J, [(0, 4), (2, 0)])):
        assert_generators(K._meet(a, b), generators_in_box(
            lambda m: in_ideal(a, m) and in_ideal(b, m), (6, 6)))


def test_kernels_follow_the_corners_not_the_exponents():
    # exponents in the millions, and up to the exponent cap, with a handful
    # of generators: the work grows with the corners only
    n = 10**6
    assert K.staircase_colon([(0, 3), (2, 1), (n, 0)], [(1, 0), (0, 1)]) == [
        (0, 3), (1, 2), (2, 1), (n - 1, 0)]
    # (x, y, z^n) in three variables, with a step at z^2 on the way
    assert K.staircase_colength([(1, 0, 0), (0, 1, 0), (0, 0, n)], 3) == n
    assert K.staircase_colength(K.minimalize([(2, 0, 0), (0, 1, 0), (1, 0, 2), (0, 0, n)]), 3) \
        == 2 * 2 + (n - 2)
    assert K.staircase_colength([(1, 0, 0), (0, 1, 0), (0, 0, MAX_EXPONENT)], 3) == MAX_EXPONENT
    top = MAX_EXPONENT
    assert K.monomial_intersection([(top, 0), (0, 1)], [(1, 0), (0, top)]) == [
        (0, top), (1, 1), (top, 0)]
    assert K.monomial_intersection([(top - 1, 1), (top, 0)], [(0, top), (top, top - 2)]) == [
        (top - 1, top), (top, top - 2)]


def incomparable(a, b):
    return not divides(a, b) and not divides(b, a)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_binomial_quotient_colength_matches_the_engine(field):
    # the oracle (J + f).colength() runs the Groebner engine on J and f
    ring = PolyRing(field, ("x", "y"))
    rng = random.Random(31)
    coeffs = [c for c in range(-6, 7) if c]
    checked = 0
    for _ in range(25):
        base = Ideal.from_exponents(ring, random_monomial_mprimary(rng, max_pure=6, max_extra=3,
                                                                   skew_prob=0.4))
        for e in (1, 2, 3):
            J = base.power(e)
            gens = J.monomial_generators()
            members = [(g[0] + rng.randint(0, 3), g[1] + rng.randint(0, 3)) for g in gens]
            pairs = [(a, b) for a, b in itertools.combinations(members, 2) if incomparable(a, b)]
            for a, b in rng.sample(pairs, min(3, len(pairs))):
                f = ring.poly({a: rng.choice(coeffs), b: rng.choice(coeffs)})
                assert K.binomial_quotient_colength(gens, a, b) == (J + f).colength()
                checked += 1
    assert checked > 100


def test_binomial_quotient_colength_edge_cases():
    ring = PolyRing(QQ, ("x", "y"))

    def engine(gens, a, b, ca=1, cb=1):
        return (Ideal.from_exponents(ring, gens) + ring.poly({a: ca, b: cb})).colength()

    J = [(0, 4), (1, 3), (3, 1), (4, 0)]
    # one term, or both, outside J
    for a, b in (((0, 4), (2, 0)), ((1, 1), (3, 0)), ((0, 2), (1, 0))):
        assert K.binomial_quotient_colength(J, a, b) == engine(J, a, b, 3, -2)
    # q = 1 and p = 1: x*y^4 - x^2*y^3, and x + y, which cuts J down to k[x]/(x^4)
    assert K.binomial_quotient_colength(J, (1, 4), (2, 3)) == engine(J, (1, 4), (2, 3), 1, -1)
    assert K.binomial_quotient_colength(J, (1, 0), (0, 1)) == engine(J, (1, 0), (0, 1)) == 4
    # the unit ideal, and J = (x, y)
    assert K.binomial_quotient_colength([(0, 0)], (1, 0), (0, 2)) == 0
    assert K.binomial_quotient_colength([(0, 1), (1, 0)], (2, 0), (0, 2)) == 1
    # comparable terms return None, whatever the order; the caller falls back
    for a, b in (((1, 2), (3, 4)), ((3, 4), (1, 2)), ((2, 0), (2, 5)), ((0, 3), (4, 3))):
        assert K.binomial_quotient_colength(J, a, b) is None


def test_binomial_quotient_colength_follows_the_corners_not_the_exponents():
    # y = -x^N turns (x^N, y)^3 into (x^{3N}): the colength is 3N, checked on
    # the engine at small N; at N = 10**6 and at the exponent cap it is the
    # same handful of corners
    def staircase(N):
        return Ideal.from_exponents(PolyRing(QQ, ("x", "y")), [(N, 0), (0, 1)]).power(3)

    for N in range(1, 6):
        J = staircase(N)
        f = J.ring.poly({(N, 0): 1, (0, 1): 1})
        assert (J + f).colength() == 3 * N
        assert K.binomial_quotient_colength(J.monomial_generators(), (N, 0), (0, 1)) == 3 * N
    for N in (10**6, MAX_EXPONENT // 3):
        gens = staircase(N).monomial_generators()
        started = time.perf_counter()
        assert K.binomial_quotient_colength(gens, (N, 0), (0, 1)) == 3 * N
        assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("seed", range(10))
def test_newton_vertices_match_the_oracle_in_two_variables(seed):
    # staircases, and point sets whose non-minimal points must be dropped
    rng = random.Random(700 + seed)
    for _ in range(20):
        for gens in (random_monomial_mprimary(rng, max_pure=12, max_extra=5),
                     random_monos(rng, rng.randint(1, 10), hi=12)):
            assert_generators(K.newton_vertices(gens, seed), brute_newton_vertices(gens))


def test_newton_vertices_edge_cases():
    ex14 = [(0, 22), (4, 18), (7, 15), (8, 14), (11, 11), (14, 8), (15, 7), (18, 4), (22, 0)]
    ex33 = [(0, 8), (2, 4), (3, 2), (8, 0)]
    ex110 = [(0, 5), (1, 4), (8, 1), (10, 0)]
    # collinear generators are not vertices: all of ex14's inner corners lie
    # on x + y = 22, and ex33's x^2*y^4 on the segment from y^8 to x^3*y^2
    assert K.newton_vertices(ex14) == [(0, 22), (22, 0)]
    assert K.newton_vertices(ex33) == [(0, 8), (3, 2), (8, 0)]
    assert K.newton_vertices(ex110) == [(0, 5), (1, 4), (10, 0)]
    for gens in (ex14, ex33, ex110):
        assert set(K.newton_vertices(gens)) == brute_newton_vertices(gens)
    # two generators, with a non-minimal point and a duplicate
    assert K.newton_vertices([(3, 0), (0, 2)]) == [(0, 2), (3, 0)]
    assert K.newton_vertices([(3, 0), (0, 2), (3, 1), (0, 2)]) == [(0, 2), (3, 0)]
    # one variable: the least power
    assert K.newton_vertices([(5,), (3,), (7,)]) == [(3,)]
    assert K.newton_vertices([]) == []


@pytest.mark.parametrize("seed", range(10))
def test_newton_vertices_in_three_variables_are_generators_with_every_pure_power(seed):
    rng = random.Random(800 + seed)
    for _ in range(10):
        gens = random_mprimary(rng, 3, max_extra=6)
        got = K.newton_vertices(gens, seed)
        assert got == sorted(got)
        assert set(got) <= set(gens)
        assert {g for g in gens if sum(1 for v in g if v) == 1} <= set(got)
    # a point below the plane through the pure powers is found; points on
    # the edges of that triangle are not vertices
    assert K.newton_vertices([(5, 0, 0), (0, 5, 0), (0, 0, 5), (1, 1, 1)], seed) == [
        (0, 0, 5), (0, 5, 0), (1, 1, 1), (5, 0, 0)]
    assert K.newton_vertices([(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (0, 2, 1)], seed) == [
        (0, 0, 3), (0, 3, 0), (3, 0, 0)]


@pytest.mark.parametrize("seed", range(5))
def test_newton_polygon_e0_is_the_multiplicity(seed):
    from rrclosure import Ideal, poincare_series

    ring = PolyRing(QQ, ("x", "y"))
    rng = random.Random(900 + seed)
    for _ in range(6):
        gens = random_monomial_mprimary(rng, max_pure=8, max_extra=4)
        e0 = poincare_series(Ideal.from_exponents(ring, gens)).multiplicity
        assert K.newton_polygon_e0(gens) == e0


def test_newton_polygon_e0_examples():
    assert K.newton_polygon_e0([(0, 5), (1, 4), (8, 1), (10, 0)]) == 45
    assert K.newton_polygon_e0([(0, 22), (11, 11), (22, 0)]) == 484
    assert K.newton_polygon_e0([(0, 8), (2, 4), (3, 2), (8, 0)]) == 40
    assert K.newton_polygon_e0([(1, 0), (0, 1)]) == 1


@pytest.mark.parametrize("seed", range(6))
def test_integral_closure_colength_matches_the_oracle(seed):
    # the Pick count against a box search that reads no hull
    rng = random.Random(950 + seed)
    for _ in range(6):
        gens = random_monomial_mprimary(rng, max_pure=6, max_extra=3, skew_prob=0.4)
        for n in range(5):
            assert K.integral_closure_colength(gens, n) == brute_integral_closure_colength(gens, n)


@pytest.mark.parametrize("gens", [
    [(0, 1), (1, 0)],  # (x, y): n(n+1)/2
    [(0, 1), (7, 0)],  # (x^7, y): one edge with no inner lattice point
    [(0, 2), (3, 1), (6, 0)],  # one edge through a generator
    [(0, 2), (4, 1), (6, 0)],  # a generator above the edge from (0, 2) to (6, 0)
    [(0, 5), (1, 4), (8, 1), (10, 0)],  # ex110
])
def test_integral_closure_colength_examples(gens):
    assert K.integral_closure_colength(gens, 0) == 0
    for n in range(1, 5):
        assert K.integral_closure_colength(gens, n) == brute_integral_closure_colength(gens, n)


@pytest.mark.parametrize("seed", range(3))
def test_integral_closure_polynomial_reads_one_hull(seed):
    # e0 is the Newton polygon's, and the vertices alone give the same counts
    rng = random.Random(970 + seed)
    for _ in range(6):
        gens = random_monomial_mprimary(rng, max_pure=8, max_extra=4, skew_prob=0.4)
        e0, c = K.integral_closure_polynomial(gens)
        assert e0 == K.newton_polygon_e0(gens)
        assert (e0 + c) % 2 == 0
        assert K.integral_closure_polynomial(K.newton_vertices(gens)) == (e0, c)


def test_integral_closure_colength_closed_forms():
    # (x, y)^n and (x^7, y)^n are integrally closed, with n(n+1)/2 and
    # 7n(n+1)/2 standard monomials
    for n in range(8):
        assert K.integral_closure_colength([(0, 1), (1, 0)], n) == n * (n + 1) // 2
        assert K.integral_closure_colength([(0, 1), (7, 0)], n) == 7 * n * (n + 1) // 2


def test_meets_every_edge():
    gens = [(0, 3), (1, 1), (3, 0)]  # edges (0,3)-(1,1) and (1,1)-(3,0)
    assert K.meets_every_edge(gens, [(1, 1)])  # the shared vertex
    assert K.meets_every_edge(gens, [(3, 0), (0, 3)])
    assert not K.meets_every_edge(gens, [(3, 0)])
    assert not K.meets_every_edge(gens, [(3, 0), (1, 2)])  # (1, 2) is above the edge
    # an inner lattice point of an edge touches it; a point off the hull does not
    assert K.meets_every_edge([(0, 2), (3, 1), (6, 0)], [(3, 1)])
    assert not K.meets_every_edge([(0, 2), (4, 1), (6, 0)], [(4, 1)])


@pytest.mark.parametrize("points, independent", [
    ([(3, 4)], True),
    ([(5, 0), (0, 5)], True),
    ([(2, 0), (1, 1), (0, 2)], False),  # collinear
    ([(10, 0), (1, 4), (0, 5)], True),  # ex110's Newton vertices
    ([(4, 0), (3, 1), (1, 3), (0, 4)], False),  # more than d + 1 points
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3)], True),
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (0, 0, 0)], True),
    ([(2, 1, 0), (3, 0, 0), (0, 3, 0)], False),  # x^2y on the segment x^3 -- y^3
    ([(1, 1), (2, 0), (1, 1)], False),  # a repeated point
    ([(1, 2, 3), (1, 2, 3)], False),
])
def test_affinely_independent(points, independent):
    # the answer does not depend on the order of the points
    for perm in itertools.permutations(points):
        assert K.affinely_independent(perm) is independent


def rational_rank(rows):
    """Rank of an integer matrix by elimination over the rationals."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_affinely_independent_matches_the_rational_rank(d):
    rng = random.Random(77 + d)
    for _ in range(200):
        pts = random_monos(rng, rng.randint(1, d + 2), d, hi=3)
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        assert K.affinely_independent(pts) == (rational_rank(diffs) == len(diffs))


@pytest.mark.parametrize("kind", ["degrevlex", "eliminate-first"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_packed_divisor_scan_finds_the_first_divisor(kind, d):
    rng = random.Random(300 + d)
    packing = TermOrder(kind).packing(d)
    for _ in range(50):
        lms = random_monos(rng, rng.randint(0, 8), d, hi=5)
        m = random_mono(rng, d, hi=8)
        want = next((i for i, a in enumerate(lms) if divides(a, m)), -1)
        got = find_divisor_index([packing.pack(a) for a in lms], packing.pack(m), packing.guard, {})
        assert got == want


@pytest.mark.parametrize("kind", ["degrevlex", "eliminate-first"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_divisor_memo_stays_exact_while_the_list_grows(kind, d):
    # one memo across interleaved appends and repeated queries, as an engine
    # basis sees them: stored hits, stored misses and resumed scans must all
    # give the first divisor of the list as it stands
    rng = random.Random(400 + d)
    packing = TermOrder(kind).packing(d)
    for _ in range(20):
        queries = random_monos(rng, 6, d, hi=6)
        lms, packed, memo = [], [], {}
        for _ in range(40):
            if rng.random() < 0.25:
                # often a divisor of a query that may already have missed
                if rng.random() < 0.5:
                    a = tuple(rng.randint(0, x) for x in rng.choice(queries))
                else:
                    a = random_mono(rng, d, hi=4)
                lms.append(a)
                packed.append(packing.pack(a))
            else:
                m = rng.choice(queries)
                want = next((i for i, a in enumerate(lms) if divides(a, m)), -1)
                assert find_divisor_index(packed, packing.pack(m), packing.guard, memo) == want


def test_sub_basis_reduces_like_a_fresh_one_after_the_parent_memo_fills():
    # the interreduction step takes sub-bases of a basis whose memo is full;
    # the parent's indices mean other elements in the sub-basis's order
    ring = PolyRing(QQ, ("x", "y", "z"))
    packing = ring.order.packing(ring.dim)
    rng = random.Random(500)

    def random_terms():
        f = ring.poly({random_mono(rng, 3, hi=3): rng.randint(-3, 3) or 1 for _ in range(4)})
        return _engine_terms(f, None, packing.pack)

    def built(elements):
        basis = _Basis()
        for terms in elements:
            basis.append(terms, max(terms))
        return basis

    guard = packing.guard
    elements = [random_terms() for _ in range(8)]
    tests = [random_terms() for _ in range(30)]
    parent = built(elements)
    for f in tests:
        _nf_engine(f, parent, guard, None)
    assert parent.memo
    for idxs in ([7, 5, 3, 1, 0], [2, 6, 4], list(range(8))[::-1]):
        sub = parent.select(idxs)
        fresh = built([elements[i] for i in idxs])
        for f in tests:
            assert _nf_engine(f, sub, guard, None) == _nf_engine(f, fresh, guard, None)
