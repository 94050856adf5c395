"""Superficial sequences and minimal reductions.

A candidate sequence x_1..x_d of elements of I is certified superficial by
the length test colength(R/(x_1..x_d)) = e_0(I); the certified sequence then
generates a minimal reduction of I.  Candidates are random linear
combinations of the minimal generators (their cosets span I/mI, where
genericity lives).  For a monomial I the first candidate combines only the
generators at the vertices of the Newton polyhedron, which generate a
reduction of I (see :func:`candidate_sequences`); in two variables,
where those vertices are exact, so does every later candidate.  The length
test certifies them like any other.

Lengths are taken at the origin.  In two variables the length of a
candidate J = (f, g) is the intersection number I_0(f, g) of two plane
curves, which Fulton's algorithm counts on f and g alone, with no Groebner
basis (:func:`_intersection_number`).  For a monomial I whose candidate
is a vertex-pool draw the Newton polygon proves the length instead, and
Fulton does not run (:func:`_newton_proves`).  Let v_0..v_s be the
vertices of NP(I) in x order, from y^b to x^a, and let f = sum a_i x^{v_i}
and g = sum b_i x^{v_i} with every a_i, b_i nonzero and every edge minor
D_i = a_i b_{i+1} - a_{i+1} b_i nonzero in the field.  Then
lambda(R/J) = e(I) = 2 covol(NP(I)), in every characteristic
(Kushnirenko 1976; Huneke-Swanson ch. 6, 10, 11):

(a) J is m-primary: no height-one prime P through the origin holds both
    f and g.  Modulo x, f is a_0 y^b, and modulo y it is a_s x^a, so a P
    that holds x or y holds both and is m.  For any other P, (b) on a
    valuation of R/P centered on the origin gives min(v(f), v(g)) finite,
    where f, g in P give infinity.
(b) Let v be a valuation with 0 < v(x), v(y) < infinity, and
    mu = min_i w.v_i for w = (v(x), v(y)).  Then min(v(f), v(g)) = mu.  The
    face of NP(I) where mu is attained is a vertex v_j, where one monomial
    of f survives, or an edge from v_j to v_{j+1}, where
    b_{j+1} f_face - a_{j+1} g_face = D_j x^{v_j} has value mu.
(c) Every Rees valuation of J is centered on m, by (a), and takes the value
    mu on J by (b), which is its value on every x^{v_i}.  So every x^{v_i}
    lies in the integral closure of J, and J is a reduction of the ideal
    I_V of the vertices, hence of I, which has I_V's integral closure.
(d) A parameter ideal of a Cohen-Macaulay ring has length e(J), so
    lambda(R/J) = e(J) = e(I) = 2 covol(NP(I)).

Every other candidate, a degenerate draw (a zero minor) included, is
counted by Fulton, so every refusal, and its message, is Fulton's.

In three or more variables the local length of a candidate is read off
truncations by powers of I rather than of m: the candidate lies inside I,
so the truncations stabilize within a few powers of I, where powers of m
have to climb well past the generator degrees (Nakayama; Huneke-Swanson,
ch. 8).
"""

from __future__ import annotations

import random
from itertools import count
from math import gcd
from typing import NamedTuple

from . import _kernels
from .errors import (
    ElementNotInIdealError,
    GenericityFailureError,
    NotSuperficialError,
)
from .ideals import Ideal, _engine_terms
from .polynomials import Polynomial

DEFAULT_MAX_ATTEMPTS = 25
DEFAULT_COEFF_BOUND = 10


class ReductionCertificate(NamedTuple):
    """Witness that (elements) is a superficial sequence / minimal reduction:
    the colength of the generated ideal equals the multiplicity."""

    elements: tuple[Polynomial, ...]
    colength: int
    multiplicity: int
    seed: int | None
    attempts: int

    def ideal(self) -> Ideal:
        return Ideal(self.elements[0].ring, self.elements)


def certify_sequence(I: Ideal, elements, e0: int, seed=None, attempts=0) -> ReductionCertificate:
    """Certify a user-supplied sequence via the length test.

    The length that matters is the one at the origin (the ambient ring is the
    localization there).  In two variables it is the intersection number of
    the two curves at the origin.  For a monomial I, elements supported on
    exactly the Newton vertices v_0..v_s, every coefficient nonzero, every
    edge minor a_i b_{i+1} - a_{i+1} b_i nonzero in the field and e0 the
    Newton polygon's, it is e0 by proof (module docstring: (a) J is
    m-primary, (b) every valuation centered on the origin takes the same
    value on J as on the vertices, (c) so J is a reduction of I, and
    (d) lambda(R/J) = e(J) = e(I)).  Otherwise :func:`_intersection_number`
    computes it by Fulton's algorithm, stopping once it passes e0.  In more
    variables, when the candidate ideal is supported only at the origin its
    plain colength already equals the local length; random candidates
    usually pick up extra zeros elsewhere, so the general path reads the
    local length off the truncations J + I^t, t = 1, 2, 3, ..., each
    colength computed once, until two agree (:meth:`Ideal.colength_at_origin`
    with ``by=I``).  The scan stops as soon as a colength passes e0, since
    they only rise from there.

    ``e0`` is the target length: e(I), or h(1) - d*h(0), which is at most
    e(I), for the reduction-number-one test of ``closure``.
    """
    I.require_m_primary()
    elements = tuple(elements)
    if len(elements) != I.ring.dim:
        raise NotSuperficialError(
            f"need {I.ring.dim} elements (the ring dimension), got {len(elements)}"
        )
    if I.ring.dim == 2 and _newton_proves(I, elements, e0):
        # the elements are vertex generators' combinations, so they lie in I
        return ReductionCertificate(elements, e0, e0, seed, attempts)
    for x in elements:
        if x.is_zero() or not I.contains(x):
            raise ElementNotInIdealError(f"{x} does not lie in the ideal")
    if I.ring.dim == 2:
        length = _intersection_number(*elements, e0)
    else:
        J = Ideal(I.ring, elements)
        if J.colength() == e0:
            # squeeze: local length <= total colength = e0, and a d-generated
            # parameter ideal inside I has local length >= e(J) >= e(I) >= e0
            length = e0
        else:
            length = J.colength_at_origin(expect=e0, by=I)
    if length != e0:
        # past e0 both routes stop early, so the length is only a lower bound
        bound = "at least " if length > e0 else ""
        raise NotSuperficialError(
            f"length of the candidate reduction at the origin is {bound}{length}, "
            f"expected e0 = {e0}"
        )
    return ReductionCertificate(elements, length, e0, seed, attempts)


def _newton_proves(I: Ideal, elements, e0: int) -> bool:
    """Whether the Newton polygon proves that the two-variable ``elements``
    generate an ideal of length ``e0`` at the origin (module docstring):
    I is monomial, each element's support is exactly I's Newton vertices,
    so every coefficient is nonzero, every edge minor is nonzero, and e0
    is 2 covol(NP(I))."""
    mono = I.monomial_generators()
    if mono is None:
        return False
    vertices = _kernels.newton_vertices(mono)  # in x order
    f, g = elements
    if not f.terms.keys() == g.terms.keys() == set(vertices):
        return False
    a = [f.terms[v] for v in vertices]
    b = [g.terms[v] for v in vertices]
    p = I.ring.field.characteristic
    minors = (a0 * b1 - a1 * b0 for a0, a1, b0, b1 in zip(a, a[1:], b, b[1:]))
    if not all(m % p if p else m for m in minors):
        return False
    return e0 == _kernels.newton_polygon_e0(vertices)


def _intersection_number(f: Polynomial, g: Polynomial, cap: int) -> int:
    """I_0(f, g) for f and g in two variables, the length of R_m/(f, g) at
    the origin, when it is at most ``cap``; otherwise a lower bound above
    ``cap``: the count so far when the cut below never dropped a term, and
    cap + 1 when it did.

    Fulton's algorithm (Algebraic Curves, 1969, section 3.3), on the
    engine's coefficients: integer-primitive over QQ, residues mod p.  A
    unit at the origin gives 0.  While f(x, 0) and g(x, 0) are both
    nonzero, g minus a multiple of x^k f (or the reverse) lowers the degree
    of one of them and keeps the ideal.  Once g(x, 0) = 0, g = y^k h with
    h(x, 0) != 0, and I_0(f, g) = k ord_x f(x, 0) + I_0(f, h).  A zero
    polynomial, or y dividing both, is a common component through the
    origin, so the length is infinite.  The length is at least the product
    of the orders of f and g at the origin, which ends many runs early.

    Every step drops the terms of total degree above the budget b, ``cap``
    less the length counted so far.  If the length of J = (f, g) is at most
    b, then m^b lies in J R_m (Nakayama), so terms in m^{b+1} = m m^b, which
    lies in m J, change J R_m by nothing; by the same argument after the
    cut, the length is at most b before the cut exactly when it is after.
    Past b the lengths before and after a cut may differ, so only a count
    made with no cut bounds the length.
    """
    p = f.ring.field.characteristic or None
    F = _engine_terms(f, p, tuple)  # keyed by exponent tuples
    G = _engine_terms(g, p, tuple)
    total = 0
    uncut = True
    while total <= cap:
        budget = cap - total
        size = len(F) + len(G)
        F = {e: c for e, c in F.items() if e[0] + e[1] <= budget}
        G = {e: c for e, c in G.items() if e[0] + e[1] <= budget}
        uncut = uncut and len(F) + len(G) == size
        if (0, 0) in F or (0, 0) in G:
            return total
        if not F or not G:
            return cap + 1
        # I_0(F, G) >= ord F * ord G, the product of the multiplicities
        least = min(map(sum, F)) * min(map(sum, G))
        if least > budget:
            return total + least if uncut else cap + 1
        fx = [i for i, j in F if j == 0]
        gx = [i for i, j in G if j == 0]
        while fx and gx:
            r, s = max(fx), max(gx)
            if r > s:
                F, G, fx, gx, r, s = G, F, gx, fx, s, r
            G, cut = _cancel_top(F, G, r, s, budget, p)
            uncut = uncut and not cut
            if not G:  # F divides G
                return cap + 1
            shift = s - r
            gx = [i for i in {*gx, *(i + shift for i in fx)} if (i, 0) in G]
        if not fx and not gx:  # y divides both
            return cap + 1
        if not fx:
            F, G, fx = G, F, gx
        k = min(j for _, j in G)
        total += k * min(fx)
        G = {(i, j - k): c for (i, j), c in G.items()}
    return total if uncut else cap + 1


def _cancel_top(F: dict, G: dict, r: int, s: int, budget: int, p):
    """G - (lc G(x, 0) / lc F(x, 0)) x^{s - r} F, in which the term x^s
    cancels, for x^r and x^s the top pure-x terms of F and G; made primitive
    again over QQ.  Terms of total degree above ``budget`` are dropped.
    Returns the new G, which may be empty and may be G itself, changed in
    place, and whether a term was dropped.
    """
    a, b = F[(r, 0)], G[(s, 0)]
    if p is None:
        h = gcd(a, b)
        a, b = a // h, b // h
        if a != 1:
            G = {e: a * c for e, c in G.items()}
    else:
        b = b * pow(a, -1, p) % p
    shift = s - r
    cut = False
    for (i, j), c in F.items():
        if i + j + shift > budget:
            cut = True
            continue
        e = (i + shift, j)
        v = G.get(e, 0) - b * c
        if p is not None:
            v %= p
        if v:
            G[e] = v
        else:
            G.pop(e, None)
    if G and p is None:
        h = gcd(*G.values())
        if h != 1:
            G = {e: c // h for e, c in G.items()}
    return G, cut


def candidate_sequences(I: Ideal, seed: int = 0):
    """The candidate sequences of the search, one list of d polynomials per
    attempt, without end; deterministic in the seed.

    Coefficients are drawn from {-B..B}\\{0} over the rationals (B starts at
    ``DEFAULT_COEFF_BOUND`` and doubles after every attempt) or uniformly
    from F_p* over a prime field.

    For a monomial I the first attempt's pool is the generators at the
    vertices of the Newton polyhedron (``_kernels.newton_vertices``), listed
    in the ring's order like the minimal generators.  They generate a
    reduction I_V of I, since both have the same integral closure
    (Huneke-Swanson 1.4), and generic elements of a reduction are
    superficial for I, d of them generating a minimal reduction
    (Huneke-Swanson 8.5-8.6): 2-4 terms instead of every minimal generator.
    In two variables the vertices are exact, so every later attempt draws
    from the same pool, and the candidates keep one support (which
    ``closure`` uses to share quotient series).  In three or more variables
    a random weight can miss a vertex, so there, and for a non-monomial I,
    every later attempt combines all minimal generators.
    """
    mono = I.monomial_generators()
    d = I.ring.dim
    vertices = None
    if mono is not None:
        vertices = sorted(_kernels.newton_vertices(mono, seed), key=I.ring.order.key)
    gens = None
    rng = random.Random(seed)
    field = I.ring.field
    p = field.characteristic
    bound = DEFAULT_COEFF_BOUND

    def draw():
        if p:
            return rng.randrange(1, p)
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    for attempt in count(1):
        if vertices is not None and (attempt == 1 or d == 2):
            # the vertices are I's own exponents and every draw is nonzero, so
            # the terms need no check: one dict, one coercion each
            yield [Polynomial(I.ring, {v: field(draw()) for v in vertices}) for _ in range(d)]
        else:
            gens = gens or I.minimal_generators()
            yield [sum((g.scale(draw()) for g in gens), I.ring.zero) for _ in range(d)]
        if not p:
            bound *= 2


def find_superficial_sequence(I: Ideal, e0: int, seed: int = 0) -> ReductionCertificate:
    """Random search for a superficial sequence, deterministic in the seed.

    Each of up to ``DEFAULT_MAX_ATTEMPTS`` attempts certifies the next of
    ``candidate_sequences`` by the length test.  A missed vertex or a
    degenerate draw fails the test like any other candidate.
    """
    I.require_m_primary()
    draws = candidate_sequences(I, seed)
    for attempt, candidates in zip(range(1, DEFAULT_MAX_ATTEMPTS + 1), draws):
        try:
            return certify_sequence(I, candidates, e0, seed=seed, attempts=attempt)
        except NotSuperficialError:
            continue
    raise GenericityFailureError(
        f"no superficial sequence found in {DEFAULT_MAX_ATTEMPTS} attempts; "
        "a larger coefficient pool or prime field usually helps"
    )
