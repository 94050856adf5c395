"""Global term orders on exponent vectors, and their packed monomials.

Two kinds are supported: degree-reverse-lexicographic (the default), and an
internal block order that ranks a leading tag variable first and falls back
to degrevlex on the remaining block.  The block order is what makes tag
elimination work for ideal intersections and colons.

``TermOrder.key`` maps an exponent tuple to a sort key (ascending = order
ascending, usable with ``sorted``/``max``).  ``TermOrder.packing`` gives the
Groebner engine's representation: each monomial is one int whose int order
is the term order (see :class:`Packing`).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExponentOverflowError

DEGREVLEX = "degrevlex"
ELIMINATE_FIRST = "eliminate-first"

MAX_EXPONENT = 1 << 30


class TermOrder:
    """A total multiplicative order on monomials with 1 as minimum."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = DEGREVLEX):
        if kind not in (DEGREVLEX, ELIMINATE_FIRST):
            raise ValueError(f"unknown term order kind {kind!r}")
        self.kind = kind

    def key(self, e):
        if self.kind == DEGREVLEX:
            return (sum(e), tuple(-v for v in reversed(e)))
        rest = e[1:]
        return (e[0], sum(rest), tuple(-v for v in reversed(rest)))

    def packing(self, nvars: int) -> "Packing":
        """The packed-int encoding of monomials in ``nvars`` variables."""
        return _packing(self.kind, nvars)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


class Packing:
    """Monomials in ``nvars`` variables as ints whose int order is the term order.

    The int holds 2n fields of ``bits`` bits each.  From the least
    significant end: the exponents e_1..e_n, then the order fields.  For
    degrevlex these are the prefix sums P_k = e_1 + .. + e_k, with the
    degree P_n on top; for the eliminate-first order they are the prefix
    sums of e_2..e_n, with the tag exponent e_1 on top.  Comparing the order
    fields from the top down is exactly ``TermOrder.key``, so the exponent
    fields below them never decide a comparison of distinct monomials.

    Every field is a sum of exponents, so packing is additive:
    ``pack(u*v) == pack(u) + pack(v)`` and ``pack(u/v) == pack(u) - pack(v)``.
    The top bit of each field is a guard bit, clear in every packed monomial,
    and ``bits`` is chosen so that every monomial of degree at most
    ``nvars * MAX_EXPONENT`` fits below the guards.  A difference ``m - a``
    borrows into a guard bit exactly when some exponent of ``a`` exceeds
    that of ``m``, so ``a`` divides ``m`` iff ``(m - a) & guard == 0``; a
    sum of two packed monomials with a guard bit set has overflowed.
    """

    __slots__ = ("bits", "guard", "max_degree", "_shifts", "_field", "_low", "_low_guard",
                 "_rest_shift", "_spread", "_order_mask", "_tag_shift")

    def __init__(self, kind: str, nvars: int):
        n = nvars
        B = (n * MAX_EXPONENT).bit_length() + 1
        self.bits = B
        self.max_degree = (1 << (B - 1)) - 1
        self._field = (1 << B) - 1
        self._shifts = tuple(B * i for i in range(n))
        self.guard = sum(1 << (B * f + B - 1) for f in range(2 * n))
        self._low = (1 << (B * n)) - 1
        self._low_guard = self.guard & self._low
        # order fields: the prefix sums of the ordered block (every exponent,
        # or all but the tag) come from one multiplication, since field
        # n+k-1 of block * spread is the sum of the block's first k exponent
        # fields (no carries: every sum is at most the degree)
        tagged = kind == ELIMINATE_FIRST
        block = n - 1 if tagged else n
        self._rest_shift = B if tagged else 0
        self._spread = sum(1 << (B * j) for j in range(n, n + block))
        self._order_mask = sum(self._field << (B * j) for j in range(n, n + block))
        self._tag_shift = B * (2 * n - 1) if tagged else 0

    def _with_order_fields(self, x: int) -> int:
        """The packed monomial whose exponent fields are ``x``."""
        y = ((x >> self._rest_shift) * self._spread) & self._order_mask
        if self._tag_shift:
            y |= (x & self._field) << self._tag_shift
        return x | y

    def pack(self, e) -> int:
        """Pack an exponent tuple; ExponentOverflowError if its degree does not fit."""
        if sum(e) > self.max_degree:
            raise ExponentOverflowError(f"monomial {tuple(e)!r} exceeds the packed exponent width")
        x = 0
        for v, s in zip(e, self._shifts):
            x |= v << s
        return self._with_order_fields(x)

    def unpack(self, m: int) -> tuple:
        field = self._field
        return tuple((m >> s) & field for s in self._shifts)

    def lcm(self, a: int, b: int) -> int:
        """Least common multiple: field-wise max of the exponents, order fields rebuilt."""
        if (a + b) & self.guard:
            # a*b overflows, so the rebuild below could carry; pack the lcm
            # from its exponents, which raises if it does not fit either
            return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))
        x, y = a & self._low, b & self._low
        h = self._low_guard
        ge = ((x | h) - y) & h  # guard bit of each field where x >= y
        select = ge - (ge >> (self.bits - 1))  # that field's value bits
        return self._with_order_fields(y ^ ((x ^ y) & select))


@lru_cache(maxsize=None)
def _packing(kind: str, nvars: int) -> Packing:
    return Packing(kind, nvars)


def degrevlex() -> TermOrder:
    return TermOrder(DEGREVLEX)


def elimination_order() -> TermOrder:
    """Block order for a ring whose first variable is an elimination tag."""
    return TermOrder(ELIMINATE_FIRST)
