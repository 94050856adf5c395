"""Global, degree-compatible term orders on exponent vectors.

Two kinds are supported: degree-reverse-lexicographic (the default), and an
internal block order that ranks a leading tag variable first and falls back
to degrevlex on the remaining block.  The block order is what makes tag
elimination work for ideal intersections and colons.

Orders expose two key functions: ``key`` (tuple, ascending = order
ascending, usable with ``sorted``/``max``), and ``heap_key`` (inverted, so a
min-heap pops the largest monomial first).
"""

from __future__ import annotations

DEGREVLEX = "degrevlex"
ELIMINATE_FIRST = "eliminate-first"


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

    def heap_key(self, e):
        if self.kind == DEGREVLEX:
            return (-sum(e), tuple(reversed(e)))
        rest = e[1:]
        return (-e[0], -sum(rest), tuple(reversed(rest)))

    def max(self, exps_iterable):
        return max(exps_iterable, key=self.key)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


def degrevlex() -> TermOrder:
    return TermOrder(DEGREVLEX)


def elimination_order() -> TermOrder:
    """Block order for a ring whose first variable is an elimination tag."""
    return TermOrder(ELIMINATE_FIRST)
