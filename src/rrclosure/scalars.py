"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Elements are plain Python values (`fractions.Fraction` for the rationals,
`int` in ``[0, p)`` for a prime field), so ring arithmetic can use the native
operators; anything involving division or canonical form goes through the
field object.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all the bases above (Sorenson-Webster 2017)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < _PRIME_BOUND."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers; elements are `Fraction` in lowest terms."""

    name = "QQ"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / a

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime p; elements are ints in least-residue form."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _PRIME_BOUND:
            raise FieldError(f"{p} is too large to prove prime: the test is exact only "
                             f"below {_PRIME_BOUND}")
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"{p!r} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __call__(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        if isinstance(value, str):
            return self(Fraction(value))
        raise FieldError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def GF(p: int) -> PrimeField:
    """The prime field with p elements."""
    return PrimeField(p)

