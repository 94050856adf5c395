"""Monomial kernels: the staircase kernels of monomial ideals, and the
Groebner engine's memoised divisor scan.

In the staircase kernels monomials are tuples of nonnegative ints and
monomial ideals are lists of such tuples.  The divisor scan works on
packed-int monomials (``orders.Packing``), where Python-int arithmetic is
all the work.

The scan is memoised per engine basis: a query answered before returns its
stored first divisor at once, and a stored miss resumes the scan at the
first element appended since.  This is exact because an engine basis only
grows at its end (``ideals._Basis.append``), so earlier elements never move
and every call returns the same index an unmemoised scan would.
"""


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _canonical_key(e):
    # degrevlex-ascending; used only to present generator lists canonically
    return (sum(e), tuple(-v for v in reversed(e)))


def minimalize(monomials):
    """Minimal generators of the monomial ideal spanned by ``monomials``.

    Removes duplicates and every monomial divisible by another; the result is
    sorted canonically (degrevlex ascending).
    """
    cands = sorted(set(monomials), key=_canonical_key)
    kept = []
    for m in cands:
        divisible = False
        for g in kept:
            ok = True
            for x, y in zip(g, m):
                if x > y:
                    ok = False
                    break
            if ok:
                divisible = True
                break
        if not divisible:
            kept.append(m)
    return kept


def monomial_product(gens_a, gens_b):
    """Minimal generators of the product of two monomial ideals."""
    prods = {mono_mul(a, b) for a in gens_a for b in gens_b}
    return minimalize(prods)


def monomial_sum(gens_a, gens_b):
    return minimalize(list(gens_a) + list(gens_b))


def monomial_colon_single(gens, b):
    """Minimal generators of (A : x^b) for monomial A."""
    return minimalize(tuple(x - y if x > y else 0 for x, y in zip(a, b)) for a in gens)


def monomial_intersection(gens_a, gens_b):
    """Minimal generators of the intersection of two monomial ideals."""
    return minimalize(mono_lcm(a, b) for a in gens_a for b in gens_b)


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
    is the unit ideal.
    """
    for g in gens:
        if not any(g):
            return 0
    if not gens:
        return -1
    for i in range(nvars):
        if not any(g[i] > 0 and sum(g) == g[i] for g in gens):
            return -1
    return _colength_rec(gens, nvars)


def _colength_rec(gens, nvars):
    if nvars == 1:
        return min(g[0] for g in gens)
    if nvars == 2:
        seq = sorted(gens)
        total = 0
        for i in range(len(seq) - 1):
            total += (seq[i + 1][0] - seq[i][0]) * seq[i][1]
        return total
    # slice on the last variable: monomials with last exponent e are standard
    # iff their projection avoids the ideal generated by gens with last
    # exponent <= e
    cap = min(g[-1] for g in gens if sum(g) == g[-1])
    total = 0
    for e in range(cap):
        slice_gens = minimalize(g[:-1] for g in gens if g[-1] <= e)
        total += _colength_rec(slice_gens, nvars - 1)
    return total


def staircase_colon(gens, supports):
    """Minimal generators of {m : m*t in J for every t in ``supports``}.

    J is the m-primary monomial ideal of k[x, y] with the minimalized
    generators ``gens``; ``supports`` are exponent pairs.  The work is done
    on J's height list: h[i] is the least j with x^i*y^j in J (0 from J's
    pure power of x on).  A colon by x^p*y^q shifts it to
    max(h[i+p] - q, 0), an intersection is a pointwise max, and the corners
    of the result are its minimal generators.
    """
    seq = sorted(gens)
    h = []
    for (x0, y0), (x1, _) in zip(seq, seq[1:]):
        h.extend([y0] * (x1 - x0))
    # heights of the result; entries past its end are 0, and starting from
    # the empty list (the unit ideal) makes every entry at least 0
    out = []
    for p, q in supports:
        seg = h[p:]
        if len(seg) > len(out):
            out.extend([0] * (len(seg) - len(out)))
        out[: len(seg)] = map(max, out, [v - q for v in seg])
    # heights never increase, so the result's pure power of x is its first 0
    n = out.index(0) if 0 in out else len(out)
    corners = [(i, v) for i, v in enumerate(out[:n]) if i == 0 or v < out[i - 1]]
    corners.append((n, 0))
    return corners


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
