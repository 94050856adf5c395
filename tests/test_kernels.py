"""Monomial kernels: edge cases of every built backend, backend equivalence
(the compiled kernels must match the pure-Python ones exactly on randomized
inputs) where the compiled extension is built, and the engine's packed
divisor scan against brute force."""

import random

import pytest

from rrclosure import TermOrder
from rrclosure._kernels import find_divisor_index, pure
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
        assert fast.mono_divides(a, b) == pure.mono_divides(a, b)
        if pure.mono_divides(b, a):
            assert fast.mono_div(a, b) == pure.mono_div(a, b)


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
        got = find_divisor_index([packing.pack(a) for a in lms], packing.pack(m), packing.guard)
        assert got == want
