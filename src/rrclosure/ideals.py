"""Ideal calculus: reduced Groebner bases, normal forms, colons,
intersections, powers, colength and m-primary certification.

Monomial ideals take combinatorial fast paths through the kernel layer and
never touch Buchberger.  They hold only their minimal exponents and build
polynomials from them when first asked.  A two-variable monomial ideal
multiplies each power by its Newton-vertex generators alone once that
gives the next power (``Ideal._next_power``).  Everything else runs through
a Buchberger engine with the normal selection strategy and the
coprimality/chain criteria.
Most engine inputs are a staircase M plus a few polynomials (I^{n+1} + (x),
J + I^t).  The generators of M enter as they are, with no pair update: the
S-polynomial of two monomials is zero.  The update of each later polynomial
g takes the lcm of lt g with every live element (one whose leading monomial
no later one divides) and keeps the lcm-minimal pairs, which against M are
those with the generators of (M : lt g).  The engine returns a minimal
basis, whose leading monomials give ``Ideal.colength`` and whose normal
forms decide ``Ideal.contains``; ``_interreduce`` makes the reduced basis
only for shown or compared lists, intersections and powers.
Internally the engine works on integer-primitive coefficient dicts (over the
rationals) or monic least-residue dicts (over a prime field), keyed by
packed-int monomials; the public reduced bases are always monic.  Every
product term (reduction steps, S-polynomials, exact division, powers and
squares) comes from one multiply-accumulate step, ``_add_multiple``, which
checks the packed width; every result goes back to a ``Polynomial`` through
``_polynomial``, which checks ``MAX_EXPONENT``.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

from . import _kernels
from .errors import (
    ExponentOverflowError,
    NotMPrimaryError,
    RingMismatchError,
    RRClosureError,
    ZeroPolynomialError,
)
from .orders import elimination_order
from .polynomials import MAX_EXPONENT, Polynomial, PolyRing

INFINITE = float("inf")
# the truncation power past which ``Ideal.colength_at_origin`` gives up
DEFAULT_TRUNCATION_CAP = 65536

_CONTENT_STRIP_EVERY = 64


# ---------------------------------------------------------------------------
# engine representation
# ---------------------------------------------------------------------------
#
# Inside the engine a monomial is one int (``orders.Packing``): int order is
# the term order, a product is ``a + b``, a quotient ``a - b``, and ``a``
# divides ``m`` exactly when ``(m - a) & guard == 0``.  Exponent tuples stay
# at the Polynomial boundary.


def _packing(ring: PolyRing):
    return ring.order.packing(ring.dim)


def _overflow() -> ExponentOverflowError:
    return ExponentOverflowError("a Groebner engine term exceeds the packed exponent width")


def _engine_terms(poly: Polynomial, p: int | None, pack) -> dict:
    """Engine form of a polynomial, keyed by packed monomials in the order of
    ``poly.terms``: integer-primitive over QQ, residues mod p."""
    if p is not None:
        return {pack(e): c for e, c in poly.terms.items()}
    den = 1
    for c in poly.terms.values():
        den = lcm(den, c.denominator)
    values = [int(c * den) for c in poly.terms.values()]
    g = gcd(*values)
    return {pack(e): v // g for e, v in zip(poly.terms, values)}


def _normalize(terms: dict, lm, p: int | None) -> dict:
    """The engine's normal form of a term dict with leading monomial ``lm``:
    primitive with a positive leading coefficient over QQ, monic mod p."""
    if p is not None:
        lc = terms[lm]
        if lc == 1:
            return terms
        inv = pow(lc, -1, p)
        return {e: v * inv % p for e, v in terms.items()}
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    if g and g != 1:
        terms = {e: v // g for e, v in terms.items()}
    if terms[lm] < 0:
        terms = {e: -v for e, v in terms.items()}
    return terms


class _Basis:
    """Parallel arrays describing reducers for the hot normal-form loop.

    A basis only grows by ``append``: ``memo``, the divisor answers of
    ``_kernels.find_divisor_index``, holds indices into ``lms`` that stay
    exact only while earlier elements never move.  ``live`` lists the
    elements that still form pairs: one whose leading monomial a later one
    divides leaves it (``_update_pairs``), but still reduces.
    """

    _COLUMNS = ("lms", "lcs", "tails", "terms")
    __slots__ = _COLUMNS + ("memo", "live")

    def __init__(self):
        self.lms = []
        self.lcs = []
        self.tails = []
        self.terms = []
        self.memo = {}
        self.live = []

    def append(self, terms: dict, lm):
        self.live.append(len(self.lms))
        self.lms.append(lm)
        self.lcs.append(terms[lm])
        self.tails.append([(e, c) for e, c in terms.items() if e != lm])
        self.terms.append(terms)

    def select(self, idxs) -> "_Basis":
        """The sub-basis of the elements at ``idxs``, in that order, all live,
        with an empty memo: the parent's holds indices in the parent's order."""
        sub = _Basis()
        for name in _Basis._COLUMNS:
            column = getattr(self, name)
            setattr(sub, name, [column[i] for i in idxs])
        sub.live = list(range(len(sub)))
        return sub

    def __len__(self):
        return len(self.lms)


def _add_multiple(acc: dict, pairs, shift: int, c: int, guard: int, p: int | None) -> list:
    """``acc += c * x^shift * pairs`` in place, for (monomial, coefficient)
    ``pairs`` with distinct monomials: the engine's one multiply-accumulate
    step.  Returns the monomials new to ``acc``, none of which cancels, since
    ``c`` and every coefficient are nonzero and p is prime."""
    new = []
    for e, ce in pairs:
        en = shift + e
        v = acc.get(en)
        if v is None:
            if en & guard:
                raise _overflow()
            acc[en] = c * ce if p is None else c * ce % p
            new.append(en)
        else:
            v = v + c * ce if p is None else (v + c * ce) % p
            if v:
                acc[en] = v
            else:
                del acc[en]
    return new


def _product(a: dict, b, guard: int, p: int | None) -> dict:
    """The product of an engine term dict and (monomial, coefficient) pairs."""
    out: dict = {}
    for e, c in a.items():
        _add_multiple(out, b, e, c, guard, p)
    return out


def _nf_engine(fterms: dict, basis: _Basis, guard: int, p: int | None):
    """Full normal form of a packed integer term dict against ``basis``.

    Returns ``(remainder, scale)``.  Over the rationals the reduction is
    fraction-free, so the remainder is ``scale`` (a positive rational) times
    the true remainder; over F_p it is exact and ``scale`` is 1.  A reducer
    with an empty tail is a monomial, which removes the term and adds none.
    """
    find_div = _kernels.find_divisor_index
    lms, lcs, tails, memo = basis.lms, basis.lcs, basis.tails, basis.memo
    heappush, heappop = heapq.heappush, heapq.heappop

    work = dict(fterms)
    out = {}
    heap = [-e for e in work]  # a min-heap of negated monomials pops the largest
    heapq.heapify(heap)
    steps = 0
    scale = 1
    while heap:
        e = -heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        j = find_div(lms, e, guard, memo)
        if j < 0:
            out[e] = c
            continue
        steps += 1
        if not tails[j]:
            continue
        q = e - lms[j]
        if p is None:
            g0 = gcd(c, lcs[j])
            lam = lcs[j] // g0
            mu = c // g0
            if lam != 1:
                scale *= lam
                for k2 in work:
                    work[k2] *= lam
                for k2 in out:
                    out[k2] *= lam
        else:
            mu = c  # reducers are monic mod p
        for en in _add_multiple(work, tails[j], q, -mu, guard, p):
            heappush(heap, -en)
        if p is None and steps % _CONTENT_STRIP_EVERY == 0 and (work or out):
            g = 0
            for v in work.values():
                g = gcd(g, v)
            for v in out.values():
                g = gcd(g, v)
            if g > 1:
                scale = Fraction(scale, g)
                for k2 in work:
                    work[k2] //= g
                for k2 in out:
                    out[k2] //= g
    return out, scale


def _spoly(basis: _Basis, i: int, j: int, L: int, guard: int, p: int | None) -> dict:
    """S-polynomial of basis elements i and j, whose leading monomials have lcm L."""
    if p is None:
        g0 = gcd(basis.lcs[i], basis.lcs[j])
        a = basis.lcs[j] // g0
        b = basis.lcs[i] // g0
    else:
        a = b = 1  # monic
    out: dict = {}
    _add_multiple(out, basis.terms[i].items(), L - basis.lms[i], a, guard, p)
    _add_multiple(out, basis.terms[j].items(), L - basis.lms[j], -b, guard, p)
    return out


def _update_pairs(basis: _Basis, pairs: dict, new_lm: int, packing):
    """Gebauer-Moeller update (Becker-Weispfenning, procedure UPDATE): chain
    criterion on old pairs, coprimality and lcm-minimality on the new ones,
    which pair ``new_lm`` with the live elements only.  The live elements
    whose leading monomial ``new_lm`` divides then leave ``basis.live``.
    ``pairs`` maps (i, j) to the lcm of the two leading monomials; returns
    (pairs, freshly added [((i, j), lcm)])."""
    guard, lcm = packing.guard, packing.lcm
    lms, live = basis.lms, basis.live
    m = len(lms)
    with_new = {i: lcm(lms[i], new_lm) for i in live}
    kept = {
        pair: L
        for pair, L in pairs.items()
        # an old pair may hold an element no longer live: its lcm comes here
        if (L - new_lm) & guard
        or any((with_new.get(i) or lcm(lms[i], new_lm)) == L for i in pair)
    }

    classes: dict = {}
    for i, L in with_new.items():
        classes.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(classes):
        if all((L - L2) & guard for L2 in minimal):
            minimal.append(L)
    added = []
    for L in minimal:
        idxs = classes[L]
        if any(L == lms[i] + new_lm for i in idxs):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        pair = (min(idxs), m)
        kept[pair] = L
        added.append((pair, L))
    basis.live = [i for i in live if (lms[i] - new_lm) & guard]
    return kept, added


def _unit_basis() -> _Basis:
    basis = _Basis()
    basis.append({0: 1}, 0)  # packing is additive, so the monomial 1 packs to 0
    return basis


def _engine_groebner(polys, ring: PolyRing) -> _Basis:
    """Minimal basis in engine form (primitive over QQ, monic mod p), sorted
    ascending by leading monomial; ``_interreduce`` makes it reduced.

    Monomial inputs enter first, as a plain staircase: the S-polynomial of
    two monomials is zero, so a basis of monomials alone needs no pairs.
    Each polynomial input and each nonzero remainder then enters by
    ``push``, whose ``_update_pairs`` takes the lcm with every live element,
    the monomials included, and keeps only the lcm-minimal pairs; against a
    staircase M these are the pairs with the generators of (M : lt g).  An
    element whose leading monomial a later one divides stops forming pairs,
    and the final minimalization passes over it.
    """
    packing = _packing(ring)
    guard, pack = packing.guard, packing.pack
    p = ring.field.characteristic or None

    monomials, inputs = [], []
    for f in polys:
        if f.is_zero():
            continue
        if len(f.terms) == 1:
            (e,) = f.terms
            monomials.append(pack(e))
            continue
        terms = _engine_terms(f, p, pack)
        lm = max(terms)
        terms = _normalize(terms, lm, p)
        inputs.append((terms, lm))
    inputs.sort(key=lambda t: t[1])

    basis = _Basis()
    for lm in sorted(monomials):
        basis.append({lm: 1}, lm)
    pairs: dict = {}
    heap: list = []

    def push(terms, lm):
        nonlocal pairs
        pairs, added = _update_pairs(basis, pairs, lm, packing)
        basis.append(terms, lm)
        for (i, j), L in added:  # the normal strategy: the least lcm first
            heapq.heappush(heap, (L, i, j))

    for terms, lm in inputs:
        push(terms, lm)

    while heap:
        L, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue
        del pairs[(i, j)]
        s = _spoly(basis, i, j, L, guard, p)
        if not s:
            continue
        r, _ = _nf_engine(s, basis, guard, p)
        if not r:
            continue
        lm = max(r)
        r = _normalize(r, lm, p)
        if lm == 0:
            return _unit_basis()
        push(r, lm)

    # minimalize: drop live elements whose leading monomial another's divides
    lms = basis.lms
    kept: list[int] = []
    for i in sorted(basis.live, key=lms.__getitem__):
        if all((lms[i] - lms[k]) & guard for k in kept):
            kept.append(i)
    return basis.select(kept)


def _interreduce(basis: _Basis, ring: PolyRing) -> _Basis:
    """The reduced basis from a minimal one: each tail reduced against the
    other elements.  A monomial is reduced already, since in a minimal basis
    no other leading monomial divides its only term."""
    guard = _packing(ring).guard
    p = ring.field.characteristic or None
    final = _Basis()
    everyone = range(len(basis))
    for i in everyone:
        terms, lm = basis.terms[i], basis.lms[i]
        if basis.tails[i]:
            others = basis.select([k for k in everyone if k != i])
            r, _ = _nf_engine(terms, others, guard, p)
            terms = _normalize(r, lm, p)
        final.append(terms, lm)
    return final


def _polynomial(terms: dict, ring: PolyRing, unpack, factor) -> Polynomial:
    """The polynomial ``factor`` times an engine term dict, in ``ring``; the
    engine's one way back.  ``unpack`` turns a packed monomial into an
    exponent tuple of ``ring``, and ``factor`` applies over QQ only: mod p the
    engine's coefficients are the residues themselves.

    The packing leaves room above ``MAX_EXPONENT`` (up to ``nvars *
    MAX_EXPONENT``), so an engine result can exceed the cap that every
    ``Polynomial`` input obeys; such a result raises ExponentOverflowError
    here rather than become a polynomial no other operation accepts.
    """
    exps = [unpack(e) for e in terms]
    for e in exps:
        if max(e) > MAX_EXPONENT:
            raise ExponentOverflowError(f"result exponent in {e!r} exceeds {MAX_EXPONENT}")
    if ring.field.characteristic:
        return Polynomial(ring, dict(zip(exps, terms.values())))
    return Polynomial(ring, {e: c * factor for e, c in zip(exps, terms.values())})


# ---------------------------------------------------------------------------
# reduced bases
# ---------------------------------------------------------------------------


class ReducedBasis:
    """The unique reduced Groebner basis: monic, pairwise reduced, sorted
    ascending by leading monomial."""

    __slots__ = ("polys", "ring", "_engine")

    def __init__(self, polys, ring: PolyRing):
        self.polys = tuple(polys)
        self.ring = ring
        self._engine = None

    @property
    def leading_monomials(self):
        return [p.leading_monomial() for p in self.polys]

    def is_monomial(self) -> bool:
        return all(len(p.terms) == 1 for p in self.polys)

    @classmethod
    def _from_engine(cls, basis: _Basis, ring: PolyRing) -> "ReducedBasis":
        """The reduced basis of a minimal engine basis (``_engine_groebner``)."""
        basis = _interreduce(basis, ring)
        unpack = _packing(ring).unpack
        polys = [_polynomial(t, ring, unpack, Fraction(1, t[lm]))
                 for t, lm in zip(basis.terms, basis.lms)]
        reduced = cls(polys, ring)
        reduced._engine = basis
        return reduced

    def _engine_basis(self) -> _Basis:
        if self._engine is None:
            basis = _Basis()
            p = self.ring.field.characteristic or None
            pack = _packing(self.ring).pack
            for poly in self.polys:
                basis.append(_engine_terms(poly, p, pack), pack(poly.leading_monomial()))
            self._engine = basis
        return self._engine

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Exact tail-reduced remainder of f modulo the basis."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        if f.is_zero() or not self.polys:
            return f
        p = self.ring.field.characteristic or None
        packing = _packing(self.ring)
        terms = _engine_terms(f, p, packing.pack)
        out, scale = _nf_engine(terms, self._engine_basis(), packing.guard, p)
        factor = 1
        if p is None:
            # f is a rational multiple of terms (same term order in both);
            # undo it and the engine's scale
            factor = next(iter(f.terms.values())) / next(iter(terms.values())) / scale
        return _polynomial(out, self.ring, packing.unpack, factor)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return isinstance(other, ReducedBasis) and other.polys == self.polys

    def __hash__(self):
        return hash(self.polys)

    def __repr__(self):
        return "ReducedBasis[" + ", ".join(str(p) for p in self.polys) + "]"


def groebner_basis(generators, ring: PolyRing | None = None) -> ReducedBasis:
    """Reduced Groebner basis of a generator list (or of an Ideal)."""
    if isinstance(generators, Ideal):
        return generators.reduced_basis()
    generators = list(generators)
    if ring is None:
        if not generators:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = generators[0].ring
    return Ideal(ring, generators).reduced_basis()


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f modulo a reduced basis (or an ideal's basis)."""
    if isinstance(basis, Ideal):
        basis = basis.reduced_basis()
    return basis.normal_form(f)


def _monomial_basis(exps, ring: PolyRing) -> ReducedBasis:
    """The reduced basis of the monomial ideal of the minimal ``exps``, sorted
    by the ring's order: the one order every shown or compared generator list
    (reports, cache keys, ``ReducedBasis ==``) takes."""
    one = ring.field.one
    exps = sorted(exps, key=_packing(ring).pack)
    return ReducedBasis([Polynomial(ring, {e: one}) for e in exps], ring)


# ---------------------------------------------------------------------------
# tag-variable elimination
# ---------------------------------------------------------------------------


def _tag_ring(ring: PolyRing) -> PolyRing:
    name = "t"
    while name in ring.variables:
        name += "_"
    return PolyRing(ring.field, (name,) + ring.variables, elimination_order())


def _tag_intersection(ring: PolyRing, a_polys, b_polys) -> list[Polynomial]:
    """Generators of (a) ∩ (b) via a tag variable t and a block order:
    the t-free part of the reduced basis of t*A + (1-t)*B."""
    S = _tag_ring(ring)
    gens = []
    for f in a_polys:
        gens.append({(1,) + e: c for e, c in f.terms.items()})
    for g in b_polys:
        terms = {(0,) + e: c for e, c in g.terms.items()}
        for e, c in g.terms.items():
            terms[(1,) + e] = ring.field.neg(c)
        gens.append(terms)
    basis = _engine_groebner([Polynomial(S, t) for t in gens], S)
    unpack = _packing(S).unpack
    # Under the elimination order an element whose leading monomial is free
    # of t is free of t altogether, and only such leading monomials divide
    # t-free terms: so the t-free elements interreduce among themselves.
    free = _interreduce(basis.select([i for i, lm in enumerate(basis.lms) if not unpack(lm)[0]]), S)

    def untagged(e):
        return unpack(e)[1:]

    return [_polynomial(terms, ring, untagged, Fraction(1, terms[lm]))
            for terms, lm in zip(free.terms, free.lms)]


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly.

    One heap division on packed monomials in the engine's coefficients.
    Over the rationals f and g become integer-primitive, so by Gauss's lemma
    every quotient coefficient is an integer, and a nonzero integer
    remainder already proves that g does not divide f.
    """
    if g.is_zero():
        raise ZeroPolynomialError("division by the zero polynomial")
    ring = f.ring
    if f.is_zero():
        return f
    p = ring.field.characteristic or None
    packing = _packing(ring)
    pack, guard = packing.pack, packing.guard
    work = _engine_terms(f, p, pack)
    gterms = _engine_terms(g, p, pack)
    factor = 1
    if p is None:
        # f and g are rational multiples of their engine forms
        factor = (next(iter(f.terms.values())) / next(iter(work.values()))
                  / next(iter(g.terms.values())) * next(iter(gterms.values())))
    lm_g = max(gterms)
    lc_g = gterms.pop(lm_g)
    inv = None if p is None else pow(lc_g, -1, p)
    heap = [-e for e in work]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        d = e - lm_g
        t, rest = divmod(c, lc_g) if p is None else (c * inv % p, 0)
        if rest or d & guard:
            raise RRClosureError("exact division failed: remainder is nonzero")
        quotient[d] = t
        for en in _add_multiple(work, gterms.items(), d, -t, guard, p):
            heapq.heappush(heap, -en)
    return _polynomial(quotient, ring, packing.unpack, factor)


def power_supports(f: Polynomial, k: int):
    """Yield the term supports of f^k, f^(k+1), f^(k+2), ..., each a list of
    exponent tuples, with no polynomial built.

    f is multiplied in the engine's form: packed monomials, coefficients
    integer-primitive over QQ and residues mod p.  That form is f times a
    nonzero constant, which leaves every support as it is, so each support
    is exact, cancellations mod p included.  ExponentOverflowError comes
    where f**k, and each further product by f, would raise it.
    """
    if f.total_degree() * k > MAX_EXPONENT:
        raise ExponentOverflowError(f"degree {f.total_degree()}^{k} exceeds the exponent width")
    ring = f.ring
    p = ring.field.characteristic or None
    packing = _packing(ring)
    factor = list(_engine_terms(f, p, packing.pack).items())
    guard = packing.guard
    power = {0: 1}  # the monomial 1 packs to 0
    for n in itertools.count():
        if n >= k:
            exps = list(map(packing.unpack, power))
            if n > k and any(v > MAX_EXPONENT for e in exps for v in e):
                raise ExponentOverflowError("product exceeds the exponent width")
            yield exps
        power = _product(power, factor, guard, p)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal of a polynomial ring, with cached reduced basis and flags.

    Instances are immutable apart from single-assignment caches; semantic
    comparisons go through :meth:`equals` (generator lists are not
    canonical).  An ideal that knows its minimal monomial generators
    (``monomial_generators``) stores only their exponents, in ascending
    tuple order as the kernels return them; its reduced basis, monic
    monomials in the ring's order, is built from them the first time
    ``reduced_basis`` or, for an ideal made from exponents, ``generators``
    is read.
    """

    __slots__ = (
        "ring",
        "_generators",
        "_basis",
        "_minimal",
        "_mono_exps",
        "_witness",
        "_colength",
        "_min_gens",
        "_powers",
        "_power_factor",
    )

    def __init__(self, ring: PolyRing, generators=(), *, basis: ReducedBasis | None = None):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                g = ring.const(g)
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self._generators = tuple(gens)  # None: the reduced basis, built on demand
        self._basis = basis
        self._minimal = None  # the engine's minimal basis, for a non-monomial ideal
        self._mono_exps = None
        self._witness = None  # (m_primary_witness(),) once computed
        self._colength = None
        self._min_gens = None  # minimal_generators(), once computed
        self._powers = None
        self._power_factor = None  # I_V, once it alone multiplies I^n into I^{n+1}
        if basis is not None and basis.is_monomial():
            self._mono_exps = sorted(basis.leading_monomials)
        elif gens and all(len(g.terms) == 1 for g in gens):
            self._mono_exps = _kernels.minimalize([g.leading_monomial() for g in gens])

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_exponents(cls, ring: PolyRing, exponents) -> "Ideal":
        exps = [tuple(e) for e in exponents]
        for e in exps:  # the two-variable kernels pack exponents below 2^32
            if len(e) != ring.dim or not all(isinstance(v, int) and 0 <= v <= MAX_EXPONENT for v in e):
                ring.monomial(e)  # raises the error that names e
        return cls._from_minimal(ring, _kernels.minimalize(exps))

    @classmethod
    def _from_minimal(cls, ring: PolyRing, exps) -> "Ideal":
        """The monomial ideal of ``exps``, which must be minimal and in
        ascending tuple order, as the kernels return them.

        Its generators are its reduced basis, built from ``exps`` when first
        read, so the per-generator checks of ``__init__`` are skipped.
        """
        ideal = cls(ring)
        ideal._generators = None
        ideal._mono_exps = exps
        return ideal

    @classmethod
    def unit(cls, ring: PolyRing) -> "Ideal":
        return cls.from_exponents(ring, [(0,) * ring.dim])

    # -- structure ----------------------------------------------------------

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        if self._generators is None:
            self._generators = self.reduced_basis().polys
        return self._generators

    def is_zero_ideal(self) -> bool:
        if self._generators is None:
            return not self._mono_exps
        return not self._generators

    def monomial_generators(self):
        """Minimal exponent vectors when the ideal is known monomial, else None.

        Known from monomial generators when the ideal is made, or once a
        Groebner computation finds its minimal basis spanning a monomial
        ideal; never triggers one.
        """
        return self._mono_exps

    def reduced_basis(self) -> ReducedBasis:
        if self._basis is None:
            if self._mono_exps is not None:
                self._basis = _monomial_basis(self._mono_exps, self.ring)
            elif self.is_zero_ideal():
                self._basis = ReducedBasis((), self.ring)
            else:
                self._basis = ReducedBasis._from_engine(self._minimal_basis(), self.ring)
        return self._basis

    def _minimal_basis(self) -> _Basis:
        if self._minimal is None:
            basis = self._minimal = _engine_groebner(self.generators, self.ring)
            # monomial exactly when every term lies in the leading ideal L: then
            # I is in L, so each f in L has its normal form in L, which must be 0
            packing = _packing(self.ring)
            if all(_kernels.find_divisor_index(basis.lms, e, packing.guard, basis.memo) >= 0
                   for tail in basis.tails for e, _ in tail):
                self._mono_exps = sorted(map(packing.unpack, basis.lms))
        return self._minimal

    def leading_exponents(self):
        """Leading monomials of the reduced basis, read off the minimal one
        when no reduced basis is cached, with no polynomial built."""
        mono = self.monomial_generators()
        if mono is not None:
            return mono
        if self._basis is not None:
            return self._basis.leading_monomials
        return list(map(_packing(self.ring).unpack, self._minimal_basis().lms))

    # -- membership / comparison -------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        mono = self.monomial_generators()
        if mono is not None:
            return all(_kernels.monomial_contains(mono, e) for e in f.terms)
        p = self.ring.field.characteristic or None
        packing = _packing(self.ring)
        return not _nf_engine(_engine_terms(f, p, packing.pack), self._held_basis(),
                              packing.guard, p)[0]

    def _held_basis(self) -> _Basis:
        """A Groebner basis in engine form, for normal forms: any one decides
        membership, and an ideal made with ``basis=`` holds no minimal one,
        whose construction would run Buchberger again."""
        return self._minimal_basis() if self._basis is None else self._basis._engine_basis()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        a, b = self.monomial_generators(), other.monomial_generators()
        if a is not None and b is not None:
            # minimal monomial generators, in ascending tuple order whichever
            # path produced them
            return a == b
        return self.reduced_basis().polys == other.reduced_basis().polys

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        a, b = self.monomial_generators(), other.monomial_generators()
        if a is not None and b is not None:
            return Ideal._from_minimal(self.ring, _kernels.monomial_sum(a, b))
        return Ideal(self.ring, self.generators + other.generators)

    def multiply(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        if self.is_zero_ideal() or other.is_zero_ideal():
            return Ideal(self.ring)
        a, b = self.monomial_generators(), other.monomial_generators()
        if a is not None and b is not None:
            return Ideal._from_minimal(self.ring, _kernels.monomial_product(a, b))
        # dict keys drop duplicate products and keep a reproducible order
        gens = dict.fromkeys(g * h for g in self.generators for h in other.generators)
        return Ideal(self.ring, gens)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        return self.multiply(other)

    def power(self, n: int) -> "Ideal":
        """I^n, computed incrementally (``_next_power``) and cached."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("ideal powers need a nonnegative integer exponent")
        if n == 0:
            return Ideal.unit(self.ring)
        if n == 1:
            return self
        mono = self._mono_exps
        if mono is not None:
            degree = max(map(sum, mono), default=0)
        else:
            degree = max((g.total_degree() for g in self.generators), default=0)
        if degree * n > MAX_EXPONENT:
            raise ExponentOverflowError(f"I^{n} exceeds the exponent width")
        if self._powers is None:
            self._powers = {1: self}
        cache = self._powers
        top = max(cache)
        while top < n:
            cache[top + 1] = self._next_power(cache[top])
            top += 1
        return cache[n]

    def _next_power(self, power: "Ideal") -> "Ideal":
        """I^{n+1} from ``power`` = I^n.

        A monomial I in two variables has the generators I_V at the vertices
        of its Newton polygon (``_kernels.newton_vertices``), which generate
        a reduction of I (Huneke-Swanson 1.4).  I^{n+1} is I^n*I_V plus
        I^n times the other generators; once the second part adds nothing,
        I^{n+1} = I_V*I^n, and then I^{m+1} = I_V*I^m for every m >= n
        (Northcott-Rees), so from there I_V alone multiplies.  A monomial I
        in other dimensions multiplies by all its generators; any other I
        by its generators, keeping the reduced basis of the product as the
        generating set.
        """
        mono = self._mono_exps
        if mono is None:
            # reduced, since the unreduced tails of a minimal basis multiply:
            # powers built from it made closures 1.4-4 times slower
            basis = power.multiply(self).reduced_basis()
            return Ideal(self.ring, basis.polys, basis=basis)
        exps = power._mono_exps
        factor = self._power_factor if self.ring.dim == 2 else mono
        if factor is not None:
            return Ideal._from_minimal(self.ring, _kernels.monomial_product(exps, factor))
        vertices = _kernels.newton_vertices(mono)
        by_vertices = _kernels.monomial_product(exps, vertices)
        others = [g for g in mono if g not in vertices]
        nxt = by_vertices
        if others:
            nxt = _kernels.monomial_sum(by_vertices, _kernels.monomial_product(exps, others))
        if nxt == by_vertices:
            self._power_factor = vertices
        return Ideal._from_minimal(self.ring, nxt)

    def intersection(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        if self.is_zero_ideal() or other.is_zero_ideal():
            return Ideal(self.ring)
        a, b = self.monomial_generators(), other.monomial_generators()
        if a is not None and b is not None:
            return Ideal._from_minimal(self.ring, _kernels.monomial_intersection(a, b))
        polys = _tag_intersection(self.ring, self._best_generators(), other._best_generators())
        return Ideal(self.ring, polys, basis=ReducedBasis(polys, self.ring))

    def colon(self, other) -> "Ideal":
        """(self : other) for an ideal, polynomial or polynomial list.

        A monomial ideal takes all its monomial divisors in one
        ``_kernels.staircase_colon``.  Every other divisor g, and every
        divisor of a non-monomial ideal, gives (self ∩ (g)) / g by tag
        elimination, and the colons by the divisors are intersected.
        """
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatchError("ideals from different rings")
            divisors = other.generators
        else:
            divisors = [other] if isinstance(other, Polynomial) else list(other)
            if any(g.ring != self.ring for g in divisors):
                raise RingMismatchError("polynomial from a different ring")
        divisors = [g for g in divisors if not g.is_zero()]
        if not divisors:
            raise ZeroPolynomialError("colon by the zero ideal")
        result = None
        mono = self.monomial_generators()
        if mono is not None:
            supports = [g.leading_monomial() for g in divisors if len(g.terms) == 1]
            if supports:
                result = Ideal._from_minimal(self.ring, _kernels.staircase_colon(mono, supports))
            divisors = [g for g in divisors if len(g.terms) > 1]
        for g in divisors:
            inter = self.intersection(Ideal(self.ring, [g]))
            single = Ideal(self.ring, [exact_divide(h, g) for h in inter.generators])
            result = single if result is None else result.intersection(single)
        return result

    def _best_generators(self):
        if self._basis is None and self._mono_exps is None:
            return self.generators
        return self.reduced_basis().polys

    # -- numeric invariants ---------------------------------------------------

    def colength(self):
        """dim_k R/I: the number of standard monomials, or INFINITE."""
        if self._colength is None:
            exps = self.leading_exponents()
            count = _kernels.staircase_colength(list(exps), self.ring.dim)
            self._colength = INFINITE if count < 0 else count
        return self._colength

    def colength_at_origin(self, expect=None, *, by: "Ideal"):
        """Length of R_m/(I R_m), the localization at the origin.

        For an m-primary ideal this equals :meth:`colength`; in general the
        ideal may have components away from the origin, so the local length
        is read off the truncations I + Q^t by the powers of the m-primary
        ideal Q = ``by``.  Their colengths never pass the local length, and
        they rise strictly with t until two consecutive ones agree: then Q^t
        lies in I + Q*Q^t, so Q^t lies in I R_m by Nakayama and the value at
        t is the local length exactly.  They never pass the plain colength
        either, so reaching it also ends the scan.  The scan steps t by one
        from 1, one truncation per step, and raises :class:`RRClosureError`
        past the power ``DEFAULT_TRUNCATION_CAP``.  With ``expect`` given it
        stops early once the rising lower bound exceeds ``expect``, and
        returns that bound.

        A Q that contains the ideal and sits close to it stops the scan
        early: the searched candidate reduction J of ex110 stabilizes at I^2
        (checked at I^3), where powers of m take m^23.  Certification reads
        this scan only in three or more variables; in two it counts the
        intersection number of the candidate's two elements.
        """
        by.require_m_primary()
        if self.is_zero_ideal():
            return INFINITE
        total = self.colength()
        if total == 0:
            return 0
        t = 1
        here = (self + by.power(t)).colength()
        while here != total and (expect is None or here <= expect):
            if t >= DEFAULT_TRUNCATION_CAP:
                raise RRClosureError(
                    "localized length did not stabilize by the truncation power "
                    f"{DEFAULT_TRUNCATION_CAP}"
                )
            t += 1
            after = (self + by.power(t)).colength()
            if after == here:
                break
            here = after
        return here

    def is_m_primary(self) -> bool:
        """True iff rad(I) is the irrelevant maximal ideal.

        Certified by: 1 not in I, finite colength D, and x_i^D in I for every
        variable (x_i is nilpotent mod I of index at most D).  The test
        squares the normal form of x_i ceil(log2 D) times, reducing after
        each product, so no exponent passes twice the staircase: x_i^(2^j)
        outside I with 2^j >= D puts x_i^D outside I too.
        """
        return self._cached_witness() is None

    def require_m_primary(self) -> None:
        """Raise NotMPrimaryError, with the witness, unless the ideal is m-primary."""
        witness = self._cached_witness()
        if witness is not None:
            raise NotMPrimaryError(f"input ideal is not m-primary: {witness}", witness=witness)

    def _cached_witness(self):
        if self._witness is None:
            self._witness = (self.m_primary_witness(),)
        return self._witness[0]

    def m_primary_witness(self):
        """None when m-primary; otherwise a human-readable reason."""
        if self.is_zero_ideal():
            return "the zero ideal is not m-primary"
        D = self.colength()
        if D == 0:
            return "1 lies in the ideal"
        if D is INFINITE:
            lms = self.leading_exponents()
            for i, name in enumerate(self.ring.variables):
                if not any(sum(e) == e[i] > 0 for e in lms):
                    return f"colength is infinite: no pure power of {name} in the leading ideal"
            return "colength is infinite"
        if self.monomial_generators() is not None:
            return None
        held = self._held_basis()
        p = self.ring.field.characteristic or None
        packing = _packing(self.ring)
        guard = packing.guard
        for i, name in enumerate(self.ring.variables):
            exps = [0] * self.ring.dim
            exps[i] = 1
            r = _nf_engine({packing.pack(exps): 1}, held, guard, p)[0]
            for _ in range((D - 1).bit_length()):
                if not r:
                    break
                r = _nf_engine(_product(r, r.items(), guard, p), held, guard, p)[0]
                if r:  # primitive again: only zero or not matters
                    r = _normalize(r, max(r), p)
            if r:
                return f"{name}^{D} does not lie in the ideal, so {name} is not nilpotent mod I"
        return None

    def minimal_generators(self) -> tuple[Polynomial, ...]:
        """Lifts of a basis of I/mI (unique monomial generators when monomial).

        Computed once per ideal: for a non-monomial ideal each basis element
        costs a membership test, a Groebner basis of its own.
        """
        if self._min_gens is None:
            self._min_gens = self._minimal_generators()
        return self._min_gens

    def _minimal_generators(self) -> tuple[Polynomial, ...]:
        mono = self.monomial_generators()
        if mono is not None:
            if mono and not any(mono[0]):
                raise ValueError("the unit ideal is not contained in the maximal ideal")
            return self.reduced_basis().polys
        basis = self.reduced_basis()
        if self.colength() == 0:
            raise ValueError("the unit ideal is not contained in the maximal ideal")
        ring = self.ring
        m_times_i = [ring.var(i) * b for i in range(ring.dim) for b in basis.polys]
        kept: list[Polynomial] = []
        for g in basis.polys:  # ascending by leading monomial
            if not Ideal(ring, m_times_i + kept).contains(g):
                kept.append(g)
        return tuple(kept)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"
