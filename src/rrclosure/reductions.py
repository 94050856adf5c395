"""Superficial sequences and minimal reductions.

A candidate sequence x_1..x_d of elements of I is certified superficial by
the length test colength(R/(x_1..x_d)) = e_0(I); the certified sequence then
generates a minimal reduction of I.  Candidates are random linear
combinations of the minimal generators (their cosets span I/mI, where
genericity lives).  For a monomial I the first candidate combines only the
generators at the vertices of the Newton polyhedron, which generate a
reduction of I (see :func:`find_superficial_sequence`); the length test
certifies it like any other.

Lengths are taken at the origin.  Both local lengths here, of a candidate J
and of J * I^r in :func:`reduction_number`, are read off truncations by
powers of I rather than of m: the ideals lie inside I, so the truncations
stabilize within a few powers of I, where powers of m have to climb well
past the generator degrees (Nakayama; Huneke-Swanson, ch. 8).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import _kernels
from .errors import (
    CertifiedBoundViolation,
    ElementNotInIdealError,
    GenericityFailureError,
    NotSuperficialError,
    RMaxExceededError,
)
from .hilbert import regularity_bound
from .ideals import Ideal
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
    localization there).  When the candidate ideal is supported only at the
    origin its plain colength already equals the local length; random
    candidates usually pick up extra zeros elsewhere, so the general path
    reads the local length off the truncations J + I^t, t = 1, 2, 3, ...,
    each colength computed once, until two agree
    (:meth:`Ideal.colength_at_origin` with ``by=I``).  The scan stops as
    soon as a colength passes e0, since they only rise from there.
    """
    I.require_m_primary()
    elements = tuple(elements)
    if len(elements) != I.ring.dim:
        raise NotSuperficialError(
            f"need {I.ring.dim} elements (the ring dimension), got {len(elements)}"
        )
    for x in elements:
        if x.is_zero() or not I.contains(x):
            raise ElementNotInIdealError(f"{x} does not lie in the ideal")
    J = Ideal(I.ring, elements)
    if J.colength() == e0:
        # squeeze: local length <= total colength = e0, and a d-generated
        # parameter ideal inside I has local length >= e(J) >= e(I) = e0
        length = e0
    else:
        length = J.colength_at_origin(expect=e0, by=I)
    if length != e0:
        # past e0 the scan stopped early, so the length is only a lower bound
        bound = "at least " if length > e0 else ""
        raise NotSuperficialError(
            f"length of the candidate reduction at the origin is {bound}{length}, "
            f"expected e0 = {e0}"
        )
    return ReductionCertificate(elements, length, e0, seed, attempts)


def find_superficial_sequence(
    I: Ideal,
    e0: int,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> ReductionCertificate:
    """Random search for a superficial sequence, deterministic in the seed.

    Each attempt draws d random linear combinations of a pool of generators
    and certifies them by the length test.  Coefficients are drawn from
    {-B..B}\\{0} over the rationals (B doubles on every retry) or uniformly
    from F_p* over a prime field.

    For a monomial I the first attempt's pool is the generators at the
    vertices of the Newton polyhedron (``_kernels.newton_vertices``), listed
    in the ring's order like the minimal generators of later attempts.  They
    generate a reduction I_V of I, since both have the same integral closure
    (Huneke-Swanson 1.4), and generic elements of a reduction are
    superficial for I, d of them generating a minimal reduction
    (Huneke-Swanson 8.5-8.6): 2-4 terms instead of every minimal generator.
    A missed vertex or a degenerate draw fails the length test like any
    other candidate, and every later attempt combines all minimal
    generators.
    """
    I.require_m_primary()
    gens = I.minimal_generators()
    mono = I.monomial_generators()
    d = I.ring.dim
    rng = random.Random(seed)
    p = I.ring.field.characteristic
    bound = coeff_bound
    for attempt in range(1, max_attempts + 1):
        pool = gens
        if attempt == 1 and mono is not None:
            vertices = sorted(_kernels.newton_vertices(mono, seed), key=I.ring.order.key)
            pool = [I.ring.monomial(v) for v in vertices]
        candidates = []
        for _ in range(d):
            combo = I.ring.zero
            for g in pool:
                if p:
                    c = rng.randrange(1, p)
                else:
                    c = rng.choice((-1, 1)) * rng.randint(1, bound)
                combo = combo + g.scale(c)
            candidates.append(combo)
        try:
            return certify_sequence(I, candidates, e0, seed=seed, attempts=attempt)
        except NotSuperficialError:
            if not p:
                bound *= 2
            continue
    raise GenericityFailureError(
        f"no superficial sequence found in {max_attempts} attempts; "
        "a larger coefficient pool or prime field usually helps"
    )


def reduction_number(I: Ideal, J: Ideal, r_max: int = 64) -> int:
    """Least r with I^{r+1} = J * I^r, for a certified minimal reduction J.

    The equality is the one in the localization.  J * I^r lies in I^{r+1},
    so J * I^r + I^{r+2} has colength at least that of I^{r+1}, with
    equality exactly when I^{r+1} = J * I^r + I * I^{r+1}, that is, by
    Nakayama, when I^{r+1} = J * I^r at the origin.  This is the I-adic
    scan of :meth:`Ideal.colength_at_origin` for J * I^r started at
    I^{r+1}, whose colength is known: one truncation per r.
    """
    I.require_m_primary()
    if J.ring != I.ring:
        raise NotSuperficialError("reduction lives in a different ring")
    if not I.contains_ideal(J):
        raise ElementNotInIdealError("the reduction does not lie in the ideal")
    for r in range(r_max + 1):
        target = I.power(r + 1).colength()
        if (J.multiply(I.power(r)) + I.power(r + 2)).colength() == target:
            # J is a reduction now, so its local length is finite
            if r > regularity_bound(J.colength_at_origin(by=I), I.ring.dim):
                raise CertifiedBoundViolation(
                    f"reduction number {r} exceeds the certified bound"
                )
            return r
    raise RMaxExceededError(f"no reduction number up to r_max = {r_max}")
