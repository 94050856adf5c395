"""Monomial kernels: the staircase kernels of monomial ideals, and the
Groebner engine's memoised divisor scan.

In the staircase kernels monomials are tuples of nonnegative ints and
monomial ideals are lists of such tuples.  The divisor scan works on
packed-int monomials (``orders.Packing``), where Python-int arithmetic is
all the work.

Every sum, product, colon and intersection returns minimal generators in
ascending tuple order, so ``Ideal`` wraps them without minimalizing again.
The kernels know no term order: a generator list takes the ring's order
only where it is shown or compared (``ideals._monomial_basis``).  The
length of the exponent tuples picks the path.  In two variables a staircase
is its corner chain, x up and y down, which is tuple order (Miller-Sturmfels,
*Combinatorial Commutative Algebra*, ch. 3): sorted by (x, y), a monomial is
divisible by another exactly when its y is at least the least y before it,
so one sort and one sweep (``_chain``) give the minimal generators; an
intersection is one merge of two chains by x (``_meet``), and
``monomial_product`` packs x^a*y^b as the int a << 32 | b and sweeps the
sorted sums of those ints.  The chain colon ``staircase_colon``, behind
every colon of a monomial ideal by monomials, meets shifted chains; the
lower convex hull of a chain gives the Newton polygon's vertices, e0 as a
shoelace sum and, by Pick's theorem, the colength of the integral closure
of every power as one quadratic in the exponent; the colength of a
staircase plus a binomial is read off the corners of one chain colon.  In
other dimensions each candidate is checked against the generators kept so
far, in tuple order, where a divisor comes before its multiples, and
Newton vertices are found by minimizing random positive weights.

The scan is memoised per engine basis: a query answered before returns its
stored first divisor at once, and a stored miss resumes the scan at the
first element appended since.  This is exact because an engine basis only
grows at its end (``ideals._Basis.append``), so earlier elements never move
and every call returns the same index an unmemoised scan would.
"""

import random
from itertools import accumulate
from math import gcd


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


_LOW = (1 << 32) - 1  # the low half of a packed two-variable monomial


def minimalize(monomials):
    """Minimal generators of the monomial ideal spanned by ``monomials``.

    Removes duplicates and every monomial divisible by another; the result is
    in ascending tuple order, where a divisor comes before its multiples.
    """
    cands = set(monomials)
    if _two_vars(cands):
        return _chain(sorted(cands))
    kept = []
    for m in sorted(cands):
        if not monomial_contains(kept, m):
            kept.append(m)
    return kept


def _two_vars(monomials):
    for m in monomials:
        return len(m) == 2
    return False


def _chain(points):
    """The corner chain (x up, y down) of the staircase of two-variable
    ``points`` in ascending x order: each point whose y is below every
    earlier y, one with the same x as the last kept one replacing it."""
    kept = []
    for p in points:
        if not kept or p[1] < kept[-1][1]:
            if kept and p[0] == kept[-1][0]:
                kept.pop()
            kept.append(p)
    return kept


def _meet(a, b):
    """The corner chain of the intersection of the ideals with the corner
    chains ``a`` and ``b`` (empty for the zero ideal): one merge by x, where
    the height over x, the least y there, is the larger of the two heights,
    and a corner is emitted where it drops."""
    out, na, nb, i, j = [], len(a), len(b), 0, 0
    ha = hb = last = inf = float("inf")
    while i < na or j < nb:
        xa = a[i][0] if i < na else inf
        xb = b[j][0] if j < nb else inf
        if xa <= xb:
            ha = a[i][1]
            i += 1
        if xb <= xa:
            hb = b[j][1]
            j += 1
        h = ha if ha > hb else hb
        if h < last:
            out.append((xa if xa < xb else xb, h))
            last = h
    return out


def monomial_product(gens_a, gens_b):
    """Minimal generators of the product of two monomial ideals.  In two
    variables x^a*y^b packs as a << 32 | b, which holds a sum of exponents up
    to 2^31: a product is one addition, and int order is (x, y) order."""
    if _two_vars(gens_b):
        packed_b = [b0 << 32 | b1 for b0, b1 in gens_b]
        kept, least = [], 1 << 32
        for m in sorted({(a0 << 32 | a1) + b for a0, a1 in gens_a for b in packed_b}):
            if m & _LOW < least:  # the sweep of _chain
                least = m & _LOW
                kept.append((m >> 32, least))
        return kept
    prods = {mono_mul(a, b) for a in gens_a for b in gens_b}
    return minimalize(prods)


def monomial_sum(gens_a, gens_b):
    return minimalize(list(gens_a) + list(gens_b))


def monomial_colon_single(gens, b):
    """Minimal generators of (A : x^b) for monomial A."""
    return minimalize(tuple(x - y if x > y else 0 for x, y in zip(a, b)) for a in gens)


def monomial_intersection(gens_a, gens_b):
    """Minimal generators of the intersection of two monomial ideals."""
    if _two_vars(gens_b):
        return _meet(_chain(sorted(gens_a)), _chain(sorted(gens_b)))
    return minimalize(tuple(x if x > y else y for x, y in zip(a, b))
                      for a in gens_a for b in gens_b)


def monomial_contains(gens, m):
    """Membership of the monomial m in the monomial ideal."""
    for g in gens:
        ok = True
        for x, y in zip(g, m):
            if x > y:
                ok = False
                break
        if ok:
            return True
    return False


def staircase_colength(gens, nvars):
    """Number of monomials outside the staircase of a monomial ideal.

    ``gens`` must be minimalized.  Returns -1 when the count is infinite
    (some variable has no pure power among the generators); 0 when the ideal
    is the unit ideal.  In two variables the corner chain, sorted by x,
    starts at the pure power of y and ends at that of x exactly when both
    exist, and the count is the area under the chain.
    """
    if not gens:
        return -1
    if nvars == 2:
        seq = sorted(gens)
        if seq[0][0] or seq[-1][1]:
            return -1
        return _area(seq)
    for g in gens:
        if not any(g):
            return 0
    for i in range(nvars):
        if not any(g[i] > 0 and sum(g) == g[i] for g in gens):
            return -1
    return _colength_rec(gens, nvars)


def _area(seq):
    """The number of monomials under a two-variable corner chain in x order
    that runs from a pure power of y to one of x."""
    return sum((b[0] - a[0]) * a[1] for a, b in zip(seq, seq[1:]))


def _colength_rec(gens, nvars):
    if nvars == 1:
        return min(g[0] for g in gens)
    if nvars == 2:
        return _area(sorted(gens))
    # slice on the last variable: monomials with last exponent e are standard
    # iff their projection avoids the ideal generated by gens with last
    # exponent <= e, which changes only at the generators' levels
    cap = min(g[-1] for g in gens if sum(g) == g[-1])
    levels = sorted({g[-1] for g in gens if g[-1] < cap})
    total = 0
    for e, top in zip(levels, levels[1:] + [cap]):
        slice_gens = minimalize(g[:-1] for g in gens if g[-1] <= e)
        total += (top - e) * _colength_rec(slice_gens, nvars - 1)
    return total


def staircase_colon(gens, supports):
    """Minimal generators of {m : m*t in J for every t in ``supports``}.

    J is the monomial ideal with the minimalized generators ``gens``;
    ``supports`` are exponent tuples of the same length.  No supports give
    the unit ideal.

    The colons (J : t) are intersected one by one, over the minimal supports
    only: t | t' gives (J : t) in (J : t').  In two variables (J : x^p*y^q)
    is J's corner chain shifted to (max(x - p, 0), max(y - q, 0)) and swept
    again, and the intersection is ``_meet``.
    """
    if not _two_vars(gens):
        if not supports:
            return [(0,) * len(gens[0])]
        first, *rest = minimalize(supports)
        out = monomial_colon_single(gens, first)
        for t in rest:
            out = monomial_intersection(out, monomial_colon_single(gens, t))
        return out
    seq = sorted(gens)
    out = [(0, 0)]
    for p, q in _chain(sorted(supports)):
        out = _meet(out, _chain([(x - p if x > p else 0, y - q if y > q else 0) for x, y in seq]))
    return out


def binomial_quotient_colength(gens, a, b):
    """Colength of J + (f) for the m-primary two-variable monomial ideal J
    with the minimalized generators ``gens`` and a binomial f with the terms
    x^a and x^b, whatever its two nonzero coefficients; None when one term
    divides the other.

    With a_x < b_x and a_y > b_y, f = c*u*g for a unit c, u = x^a_x*y^b_y
    and g = y^q + c'*x^p, p = b_x - a_x and q = a_y - b_y.  The length is
    that of R/(J + (u)) plus that of R/(K + (g)) for K = (J : u), and the
    second is the sum over r < q of e_r, the least i + p*(j // q) +
    p*[r < j % q] over K's corners (i, j) (``hilbert`` has the proof).  One
    sort of the corners' residues j % q and prefix and suffix minima give
    that sum in runs of equal e_r, with no loop over q or any exponent.
    """
    if (a[0] - b[0]) * (a[1] - b[1]) >= 0:
        return None
    if a[0] > b[0]:
        a, b = b, a
    u = (a[0], b[1])
    p, q = b[0] - a[0], a[1] - b[1]
    least = {}  # residue j % q -> least i + p*(j // q) over the corners with it
    for i, j in staircase_colon(gens, [u]):
        s, base = j % q, i + p * (j // q)
        least[s] = min(base, least.get(s, base))
    residues = sorted(least)  # residues[0] is 0: K holds a pure power of x
    bases = [least[s] for s in residues]
    # for the run of r from residues[k] to the next residue: the least base
    # up to k, and the least base after k
    before = accumulate(bases, min)
    after = list(accumulate(reversed(bases), min))[-2::-1] + [float("inf")]
    runs = zip(residues, residues[1:] + [q], before, after)
    return (staircase_colength(monomial_sum(gens, [u]), 2)
            + sum((end - r) * min(low, high + p) for r, end, low, high in runs))


_WEIGHTS_PER_VARIABLE = 4  # weight vectors for the Newton vertices in d != 2
_WEIGHT_MAX = 32


def _lower_hull(gens):
    """Vertices of the Newton polygon of a two-variable monomial ideal, in x
    order: the lower convex hull of its minimal generators.

    One sort and one monotone-chain sweep over the corner chain
    (``_chain``): a kept point on or above the segment from its predecessor
    to the next point is popped, so collinear points are not vertices.
    """
    hull = []
    for p in _chain(sorted(gens)):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0:
                break
            hull.pop()
        hull.append(p)
    return hull


def newton_vertices(gens, seed=0):
    """Generators of a monomial ideal at vertices of its Newton polyhedron,
    in ascending tuple order.  They generate a reduction with the same
    integral closure when every vertex is found (Huneke-Swanson 1.4).

    In two variables these are exactly the vertices (``_lower_hull``).  In
    other dimensions they are the minimizers of <w, g> over the minimal
    generators for 4d positive integer weights w drawn from ``seed``, ties
    broken lexicographically (so each is a vertex), together with the pure
    powers, which are always vertices.  A vertex whose normal cone no weight
    hits is missed.
    """
    if _two_vars(gens):
        return _lower_hull(gens)
    gens = minimalize(gens)
    if not gens:
        return []
    d = len(gens[0])
    rng = random.Random(seed)
    found = {g for g in gens if sum(1 for v in g if v) == 1}
    for _ in range(_WEIGHTS_PER_VARIABLE * d):
        w = [rng.randint(1, _WEIGHT_MAX) for _ in range(d)]
        found.add(min(gens, key=lambda g: (sum(a * b for a, b in zip(w, g)), g)))
    return sorted(found)


def newton_polygon_e0(gens):
    """e0 of an m-primary monomial ideal in two variables, 2 * covol(NP(I))
    (Teissier; Kushnirenko 1976): the shoelace sum of (x' - x)(y + y') over
    the edges (x, y) -> (x', y') of the Newton polygon."""
    hull = _lower_hull(gens)
    return sum((x1 - x0) * (y0 + y1) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))


def integral_closure_polynomial(gens):
    """(e0, c) with colength(integral closure of I^n) = (e0*n^2 + c*n) / 2
    for every n >= 0, for the m-primary monomial ideal I in two variables
    with the generators ``gens``: one sweep of the generators.

    That closure is spanned by the monomials on or above n*NP(I)
    (Huneke-Swanson 1.4.2), so the count is the lattice points of the
    quadrant under n times the lower hull.  They fill a lattice polygon
    bounded by the axes up to x^(n*a) and y^(n*b), the pure powers of the
    hull's ends, and by the scaled hull, whose edge of width dx and drop dy
    holds n*gcd(dx, dy) lattice steps.  Its area is n^2*e0/2, so Pick's
    theorem, counting the points inside and on the axes but not on the
    hull, gives c = a + b - the sum of the gcds.  e0 is
    ``newton_polygon_e0`` of the hull's vertices, whose own lower hull they
    are.
    """
    hull = _lower_hull(gens)
    steps = sum(gcd(x1 - x0, y0 - y1) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))
    return newton_polygon_e0(hull), hull[-1][0] + hull[0][1] - steps


def integral_closure_colength(gens, n):
    """Colength of the integral closure of I^n, n >= 0, for the m-primary
    monomial ideal I in two variables with the generators ``gens``
    (``integral_closure_polynomial``)."""
    e0, c = integral_closure_polynomial(gens)
    return (e0 * n * n + c * n) // 2


def meets_every_edge(gens, support):
    """Whether a point of ``support`` lies on each compact edge of the Newton
    polygon of the two-variable monomial ideal with the generators ``gens``,
    its ends included."""
    hull = _lower_hull(gens)
    return all(
        any(x0 <= x <= x1 and (x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in support)
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
    )


def affinely_independent(points):
    """Whether the exponent tuples ``points`` are affinely independent: their
    differences from the first point are linearly independent.

    Fraction-free integer elimination on those differences.  More than
    d + 1 points in d variables never are, and a repeated point gives a
    zero difference.
    """
    first, *rest = points
    if len(rest) > len(first):
        return False
    rows = [[a - b for a, b in zip(p, first)] for p in rest]
    for col in range(len(first)):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[pivot[col] * a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
    # every row became a pivot exactly when none was left to vanish
    return not rows


def find_divisor_index(lms, m, guard, memo):
    """Index of the first packed monomial in lms dividing the packed m, or -1.

    ``guard`` is the packing's guard mask (``orders.Packing``): ``a``
    divides ``m`` exactly when ``m - a`` sets no guard bit.

    ``memo`` holds the answers already given for this ``lms``: a hit ``j``,
    or ``~L`` for "no element of ``lms[:L]`` divides ``m``", from which the
    scan resumes.  Both stay exact only while ``lms`` grows by appending
    alone, so a memo belongs to one list and is never shared with another.
    """
    j = memo.get(m, -1)  # -1 == ~0: an empty prefix has no divisor
    if j >= 0:
        return j
    for i in range(~j, len(lms)):
        if not (m - lms[i]) & guard:
            memo[m] = i
            return i
    memo[m] = ~len(lms)
    return -1
