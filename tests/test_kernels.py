"""Monomial kernels: edge cases of every built backend, backend equivalence
(the compiled kernels must match the pure-Python ones exactly on randomized
inputs) where the compiled extension is built, and the engine's memoised
packed divisor scan against brute force."""

import random

import pytest

from rrclosure import QQ, PolyRing, TermOrder
from rrclosure._kernels import find_divisor_index, pure
from rrclosure.ideals import _Basis, _engine_terms, _nf_engine
from util_algebra import divides

try:
    from rrclosure._kernels import fast
except ImportError:
    fast = None

IMPLS = [pure] if fast is None else [pure, fast]
needs_fast = pytest.mark.skipif(fast is None, reason="compiled kernels are not built")


def random_mono(rng, d=2, hi=8):
    return tuple(rng.randint(0, hi) for _ in range(d))


def random_monos(rng, n, d=2, hi=8):
    return [random_mono(rng, d, hi) for _ in range(n)]


@needs_fast
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pairwise_ops_agree(seed, d):
    rng = random.Random(seed)
    for _ in range(50):
        a, b = random_mono(rng, d), random_mono(rng, d)
        assert fast.mono_mul(a, b) == pure.mono_mul(a, b)
        assert fast.mono_lcm(a, b) == pure.mono_lcm(a, b)


@needs_fast
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_set_ops_agree(seed, d):
    rng = random.Random(100 + seed)
    A = random_monos(rng, rng.randint(1, 12), d)
    B = random_monos(rng, rng.randint(1, 12), d)
    m = random_mono(rng, d)
    assert fast.minimalize(A) == pure.minimalize(A)
    assert fast.monomial_product(A, B) == pure.monomial_product(A, B)
    assert fast.monomial_sum(A, B) == pure.monomial_sum(A, B)
    assert fast.monomial_intersection(A, B) == pure.monomial_intersection(A, B)
    assert fast.monomial_colon_single(A, m) == pure.monomial_colon_single(A, m)
    assert fast.monomial_contains(A, m) == pure.monomial_contains(A, m)


@needs_fast
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_staircase_agree(seed, d):
    rng = random.Random(200 + seed)
    for _ in range(20):
        gens = pure.minimalize(random_monos(rng, rng.randint(1, 8), d, hi=6))
        assert fast.staircase_colength(gens, d) == pure.staircase_colength(gens, d)
    # force m-primary instances too
    for _ in range(20):
        gens = random_monos(rng, rng.randint(0, 6), d, hi=6)
        for i in range(d):
            pure_power = [0] * d
            pure_power[i] = rng.randint(1, 6)
            gens.append(tuple(pure_power))
        gens = pure.minimalize(gens)
        got = fast.staircase_colength(gens, d)
        want = pure.staircase_colength(gens, d)
        assert got == want
        assert want >= 0


def test_staircase_edge_cases():
    for impl in IMPLS:
        assert impl.staircase_colength([], 2) == -1
        assert impl.staircase_colength([(0, 0)], 2) == 0
        assert impl.staircase_colength([(2, 0), (1, 1)], 2) == -1
        assert impl.staircase_colength([(1, 0), (0, 1)], 2) == 1


def test_big_exponent_totals_are_exact():
    # products beyond 64-bit territory must not overflow in either backend
    big = 1 << 40
    gens = [(0, big), (big, 0)]
    for impl in IMPLS:
        assert impl.staircase_colength(gens, 2) == big * big


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
