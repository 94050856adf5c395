"""Monomial-ideal arithmetic written apart from the package under test.

An ideal is given by a collection of exponent tuples (its generators).
Nothing here imports rrclosure, so the checks built on these functions do
not repeat the package's kernels or its Groebner engine.

Two-variable m-primary ideals also have a height form: ``h[i]`` is the least
``j`` with ``x^i*y^j`` in the ideal, for ``0 <= i < len(h)``; past the end the
height is 0.  Powers become min-plus convolutions of heights and colons
become shifted maxima, which keeps the certified colon-powers index (often
several hundred) within reach.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens) -> set:
    gens = set(gens)
    return {m for m in gens if not any(g != m and divides(g, m) for g in gens)}


def contains(gens, m) -> bool:
    return any(divides(g, m) for g in gens)


def contains_ideal(big, small) -> bool:
    return all(contains(big, m) for m in small)


def product(a, b) -> set:
    return minimalize(tuple(x + y for x, y in zip(g, h)) for g in a for h in b)


def power(gens, n: int) -> set:
    if n < 1:
        raise ValueError("power needs n >= 1")
    out = minimalize(gens)
    base = out
    for _ in range(n - 1):
        out = product(out, base)
    return out


# -- two variables: height form ------------------------------------------------


def _pure_x(gens) -> int:
    xs = [a for a, b in gens if b == 0]
    if not xs:
        raise ValueError("the ideal has no pure power of x, so it is not m-primary")
    return min(xs)


def heights(gens) -> list:
    gens = list(gens)
    if not any(a == 0 for a, _ in gens):
        raise ValueError("the ideal has no pure power of y, so it is not m-primary")
    return [min(b for a, b in gens if a <= i) for i in range(_pure_x(gens))]


def corners(h) -> set:
    """Minimal generators of the ideal with heights ``h``."""
    out = set()
    prev = None
    for i, v in enumerate(h):
        if prev is None or v < prev:
            out.add((i, v))
            prev = v
    if prev != 0:
        out.add((len(h), 0))
    return out


def power_heights(gens, n: int) -> list:
    """Heights of I^n, by n - 1 min-plus steps against the generators."""
    gens = sorted(minimalize(gens))
    h = heights(gens)
    for _ in range(n - 1):
        width = len(h) + _pure_x(gens)
        nxt = [None] * width
        for gx, gy in gens:
            shifted = [v + gy for v in h[: width - gx]]
            shifted += [gy] * (width - gx - len(shifted))
            tail = nxt[gx:]
            nxt[gx:] = [s if t is None or s < t else t for s, t in zip(shifted, tail)]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        h = nxt
    return h


def hilbert_function(gens, n: int) -> int:
    """colength(I^{n+1}): the area under the heights of I^{n+1}."""
    return sum(power_heights(gens, n + 1))


def colon_powers(gens, k: int) -> set:
    """Minimal generators of (I^{k+1} : I^k).

    The answer contains I, so its height is 0 from the pure x-power of I on;
    below it, x^i*y^j lies in the colon exactly when x^i*y^j*x^p*y^q lies in
    I^{k+1} for every corner (p, q) of I^k.
    """
    high = power_heights(gens, k + 1)
    low = corners(power_heights(gens, k))

    def at(t):
        return high[t] if t < len(high) else 0

    h = [max(max(at(i + p) - q, 0) for p, q in low) for i in range(_pure_x(gens))]
    return corners(h)


def multiplicity(gens) -> int:
    """e0 of an m-primary monomial ideal in two variables.

    e0 = 2 * the area under the Newton polygon (the lower convex hull of the
    exponents), which holds for monomial ideals because e0(I) equals e0 of
    the integral closure.
    """
    pts = sorted(minimalize(gens))
    hull: list = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        area += Fraction((x2 - x1) * (y1 + y2), 2)
    return int(2 * area)


def regularity_bound(e: int, d: int) -> int:
    """f(e, d): e - 1 for d = 1, e^(2(d-1)!-1) (e-1)^((d-1)!) otherwise."""
    if d == 1:
        return e - 1
    f = factorial(d - 1)
    return e ** (2 * f - 1) * (e - 1) ** f


def colon_powers_index(e0: int, d: int) -> int:
    """The certified index (d+1)(f(e0,d)+2) of Ratliff-Rush via colon powers."""
    return (d + 1) * (regularity_bound(e0, d) + 2)


NUMERATOR_EXTRA_TERMS = 3


def numerator_matches(numerator, gens) -> bool:
    """The Poincare numerator reproduces h(n) = colength(I^{n+1}) in d = 2.

    The generating series of h is f(X)/(1-X)^3, so h(n) = sum_i a_i C(n-i+2, 2);
    it is checked for n up to deg f + NUMERATOR_EXTRA_TERMS.
    """
    for n in range(len(numerator) + NUMERATOR_EXTRA_TERMS):
        want = sum(a * (n - i + 2) * (n - i + 1) // 2 for i, a in enumerate(numerator) if i <= n)
        if want != hilbert_function(gens, n):
            return False
    return True
