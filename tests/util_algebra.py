"""Shared test helpers: independent brute-force oracles and random instances.

The oracles here deliberately avoid the package's kernel and engine code:
divisibility, staircase counting and polynomial multiplication are redone
from scratch so the tests cross-check rather than echo the implementation.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from rrclosure import Ideal, PolyRing, QQ


def ideal_of(ring: PolyRing, *exprs: str) -> Ideal:
    return Ideal(ring, [ring.parse(e) for e in exprs])


def qq_ring(*variables: str) -> PolyRing:
    return PolyRing(QQ, variables or ("x", "y"))


# -- independent monomial machinery -----------------------------------------


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_set(exps) -> set:
    exps = set(exps)
    return {m for m in exps if not any(g != m and divides(g, m) for g in exps)}


def pure_power_box(exps, nvars):
    """Bounding box from pure powers, or None when some variable lacks one."""
    box = []
    for i in range(nvars):
        pures = [e[i] for e in exps if sum(e) == e[i] > 0]
        if not pures:
            return None
        box.append(min(pures))
    return box


def brute_newton_vertices(exps) -> set:
    """Vertices of the Newton polygon of a two-variable monomial ideal.

    A generator is a vertex iff no other generator divides it and it lies
    neither on nor above any segment between two other generators a, b with
    a_x <= g_x <= b_x (and a_x < b_x).
    """
    exps = set(exps)

    def on_or_above(g, a, b):
        return (b[0] - a[0]) * (g[1] - a[1]) - (b[1] - a[1]) * (g[0] - a[0]) >= 0

    return {
        g for g in exps
        if not any(o != g and divides(o, g) for o in exps)
        and not any(a[0] <= g[0] <= b[0] and a[0] < b[0] and on_or_above(g, a, b)
                    for a in exps for b in exps if g not in (a, b))
    }


def brute_colength(exps, nvars) -> int | None:
    """Count standard monomials by box enumeration (None = infinite)."""
    exps = list(exps)
    if any(not any(e) for e in exps):
        return 0
    box = pure_power_box(exps, nvars)
    if box is None:
        return None
    count = 0

    def walk(prefix):
        if len(prefix) == nvars:
            count_holder[0] += not any(divides(g, prefix) for g in exps)
            return
        for v in range(box[len(prefix)]):
            walk(prefix + (v,))

    count_holder = [0]
    walk(())
    return count_holder[0]


def brute_integral_closure_colength(exps, n) -> int:
    """Colength of the integral closure of I^n for the m-primary monomial
    ideal I in two variables with the generators ``exps``, by box search.

    A lattice point lies in the closure iff it dominates
    n*(t*g + (1 - t)*h) for two generators g, h and some t in [0, 1]: the
    points on or above n*NP(I), read off pairs of generators with no hull.
    """
    exps = list(exps)
    box = pure_power_box(exps, 2)

    def dominates(p, g, h):
        low, high = Fraction(0), Fraction(1)
        for i in range(2):
            # p_i >= n*(t*g_i + (1 - t)*h_i), i.e. slope*t <= room
            slope, room = n * (g[i] - h[i]), p[i] - n * h[i]
            if slope > 0:
                high = min(high, Fraction(room, slope))
            elif slope < 0:
                low = max(low, Fraction(room, slope))
            elif room < 0:
                return False
        return low <= high

    return sum(
        not any(dominates((i, j), g, h) for g in exps for h in exps)
        for i in range(n * box[0]) for j in range(n * box[1])
    )


def brute_monomial_colon(a_exps, b_exps, nvars, pad=2):
    """Minimal generators of (A : B) for monomial ideals by box search.

    No minimal generator of (A : B) has an exponent above the largest of A's
    generators in that variable (lowering it to that keeps every product in
    A), so the box needs no pure powers and A need not be m-primary.
    """
    box = [max(e[i] for e in a_exps) + pad for i in range(nvars)]
    members = []

    def walk(prefix):
        if len(prefix) == nvars:
            if all(
                any(divides(g, tuple(x + y for x, y in zip(prefix, b))) for g in a_exps)
                for b in b_exps
            ):
                members.append(prefix)
            return
        for v in range(box[len(prefix)]):
            walk(prefix + (v,))

    walk(())
    return minimal_set(members)


def counter_multiply(f: dict, g: dict) -> dict:
    """Sparse polynomial product via plain Counter convolution."""
    out = Counter()
    for ea, ca in f.items():
        for eb, cb in g.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return {e: c for e, c in out.items() if c}


def degrevlex_greater(a, b) -> bool:
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


def degrevlex_max(exps):
    best = None
    for e in exps:
        if best is None or degrevlex_greater(e, best):
            best = e
    return best


# -- random instances ---------------------------------------------------------


def random_monomial_mprimary(rng: random.Random, max_pure=5, max_extra=2, skew_prob=0.0):
    """Random m-primary monomial staircase in two variables (exponent list).

    With probability ``skew_prob`` the draw comes from the skew family
    (x^a, x^{a-1}y, xy^{b-1}, y^b), which is where small ideals with a
    strictly larger Ratliff-Rush closure live; plain random staircases are
    almost always closed.
    """
    if rng.random() < skew_prob:
        a = rng.randint(3, max(4, max_pure))
        b = rng.randint(3, max(4, max_pure))
        return sorted(minimal_set({(a, 0), (a - 1, 1), (1, b - 1), (0, b)}))
    a = rng.randint(1, max_pure)
    b = rng.randint(1, max_pure)
    exps = {(a, 0), (0, b)}
    for _ in range(rng.randint(0, max_extra)):
        if a > 1 and b > 1:
            exps.add((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return sorted(minimal_set(exps))


def random_staircase(rng: random.Random, nvars: int, max_pure=4, max_extra=2):
    """Random m-primary monomial staircase in ``nvars`` variables (exponent
    list): a pure power of each variable plus up to ``max_extra`` monomials
    under them."""
    pures = [rng.randint(1, max_pure) for _ in range(nvars)]
    exps = {tuple(p if j == i else 0 for j in range(nvars)) for i, p in enumerate(pures)}
    for _ in range(rng.randint(0, max_extra)):
        inner = tuple(rng.randint(0, p - 1) for p in pures)
        if any(inner):
            exps.add(inner)
    return sorted(minimal_set(exps))


def random_instance_corpus(seed, count, ring, max_pure=5, max_extra=2, e0_cap=None,
                           skew_prob=0.0):
    """Deterministic list of random m-primary monomial ideals: two-variable
    staircases from ``random_monomial_mprimary``, and ``random_staircase``
    in any other number of variables."""
    from rrclosure import poincare_series

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if ring.dim == 2:
            exps = random_monomial_mprimary(rng, max_pure, max_extra, skew_prob)
        else:
            exps = random_staircase(rng, ring.dim, max_pure, max_extra)
        ideal = Ideal.from_exponents(ring, exps)
        if e0_cap is not None and poincare_series(ideal).multiplicity > e0_cap:
            continue
        out.append(ideal)
    return out


def random_polynomial(rng: random.Random, ring: PolyRing, max_terms=4, max_exp=4, coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.dim))
        c = rng.randint(-coeff, coeff)
        if c:
            terms[e] = terms.get(e, 0) + c
    return ring.poly(terms)
