"""scalars: the primality test behind prime fields."""

from rrclosure import GF
from rrclosure.scalars import is_prime


def test_is_prime_agrees_with_a_sieve():
    limit = 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_the_largest_prime_modulus_is_the_prime_below_the_bound():
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 passes every
    # prime base up to 41, so it and every larger modulus are refused
    assert GF(3317044064679887385961813).p == 3317044064679887385961813
