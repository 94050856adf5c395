# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled implementations of the hot monomial kernels.

Semantics are identical to ``pure.py`` (the test suite checks the two
backends against each other on randomized inputs); only the inner loops
differ.  Exponents fit comfortably in C integers (the package caps them at
2^30), but running totals are kept as Python ints to stay exact.
"""

from libc.stdlib cimport free, malloc

BACKEND_NAME = "cython"


def mono_mul(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    cdef list out = [0] * n
    for i in range(n):
        out[i] = a[i] + b[i]
    return tuple(out)


def mono_lcm(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    cdef list out = [0] * n
    cdef long long x, y
    for i in range(n):
        x = a[i]
        y = b[i]
        out[i] = x if x > y else y
    return tuple(out)


cdef long long* _pack(list mons, Py_ssize_t d) except NULL:
    cdef Py_ssize_t n = len(mons)
    cdef long long* buf = <long long*> malloc(n * d * sizeof(long long)) if n * d else <long long*> malloc(sizeof(long long))
    if buf == NULL:
        raise MemoryError()
    cdef Py_ssize_t i, j
    cdef tuple m
    for i in range(n):
        m = <tuple> mons[i]
        for j in range(d):
            buf[i * d + j] = m[j]
    return buf


def _find_divisor_index(list lms, tuple m):
    """Index of the first monomial in lms dividing m, or -1 (for monomial_contains)."""
    cdef Py_ssize_t n = len(lms)
    if n == 0:
        return -1
    cdef Py_ssize_t d = len(m)
    cdef long long mv[64]
    cdef long long* mbig = NULL
    cdef long long* target
    cdef Py_ssize_t i, j
    cdef tuple g
    cdef bint ok
    if d <= 64:
        target = mv
    else:
        mbig = <long long*> malloc(d * sizeof(long long))
        if mbig == NULL:
            raise MemoryError()
        target = mbig
    try:
        for j in range(d):
            target[j] = m[j]
        for i in range(n):
            g = <tuple> lms[i]
            ok = True
            for j in range(d):
                if <long long> g[j] > target[j]:
                    ok = False
                    break
            if ok:
                return i
        return -1
    finally:
        if mbig != NULL:
            free(mbig)


def _canonical_key(e):
    return (sum(e), tuple(-v for v in reversed(e)))


def minimalize(monomials):
    """Minimal generators of a monomial ideal, canonically sorted."""
    cdef list cands = sorted(set(monomials), key=_canonical_key)
    cdef Py_ssize_t n = len(cands)
    if n == 0:
        return []
    cdef Py_ssize_t d = len(<tuple> cands[0])
    cdef long long* buf = _pack(cands, d)
    cdef list kept = []
    cdef Py_ssize_t* kept_idx = <Py_ssize_t*> malloc(n * sizeof(Py_ssize_t))
    if kept_idx == NULL:
        free(buf)
        raise MemoryError()
    cdef Py_ssize_t nkept = 0
    cdef Py_ssize_t i, k, j
    cdef bint divisible, ok
    try:
        for i in range(n):
            divisible = False
            for k in range(nkept):
                ok = True
                for j in range(d):
                    if buf[kept_idx[k] * d + j] > buf[i * d + j]:
                        ok = False
                        break
                if ok:
                    divisible = True
                    break
            if not divisible:
                kept_idx[nkept] = i
                nkept += 1
                kept.append(cands[i])
        return kept
    finally:
        free(buf)
        free(kept_idx)


def monomial_product(gens_a, gens_b):
    cdef list la = list(gens_a)
    cdef list lb = list(gens_b)
    cdef Py_ssize_t na = len(la), nb = len(lb)
    if na == 0 or nb == 0:
        return []
    cdef Py_ssize_t d = len(<tuple> la[0])
    cdef long long* ba = _pack(la, d)
    cdef long long* bb = _pack(lb, d)
    cdef set prods = set()
    cdef Py_ssize_t i, j, t
    cdef list tmp
    try:
        for i in range(na):
            for j in range(nb):
                tmp = [0] * d
                for t in range(d):
                    tmp[t] = ba[i * d + t] + bb[j * d + t]
                prods.add(tuple(tmp))
    finally:
        free(ba)
        free(bb)
    return minimalize(prods)


def monomial_sum(gens_a, gens_b):
    return minimalize(list(gens_a) + list(gens_b))


def monomial_colon_single(gens, b):
    cdef tuple bb = tuple(b)
    cdef Py_ssize_t d = len(bb)
    cdef list out = []
    cdef Py_ssize_t j
    cdef long long x, y
    cdef list tmp
    cdef tuple a
    for a in gens:
        tmp = [0] * d
        for j in range(d):
            x = a[j]
            y = bb[j]
            tmp[j] = x - y if x > y else 0
        out.append(tuple(tmp))
    return minimalize(out)


def monomial_intersection(gens_a, gens_b):
    cdef list la = list(gens_a)
    cdef list lb = list(gens_b)
    cdef Py_ssize_t na = len(la), nb = len(lb)
    if na == 0 or nb == 0:
        return []
    cdef Py_ssize_t d = len(<tuple> la[0])
    cdef long long* ba = _pack(la, d)
    cdef long long* bb = _pack(lb, d)
    cdef set lcms = set()
    cdef Py_ssize_t i, j, t
    cdef long long x, y
    cdef list tmp
    try:
        for i in range(na):
            for j in range(nb):
                tmp = [0] * d
                for t in range(d):
                    x = ba[i * d + t]
                    y = bb[j * d + t]
                    tmp[t] = x if x > y else y
                lcms.add(tuple(tmp))
    finally:
        free(ba)
        free(bb)
    return minimalize(lcms)


def monomial_contains(gens, m):
    if not isinstance(gens, list):
        gens = list(gens)
    return _find_divisor_index(gens, tuple(m)) >= 0


def staircase_colength(gens, nvars):
    """Standard-monomial count of a minimalized monomial ideal, or -1."""
    cdef list lg = list(gens)
    cdef tuple g
    for g in lg:
        if not any(g):
            return 0
    if not lg:
        return -1
    cdef Py_ssize_t i
    cdef bint found
    for i in range(nvars):
        found = False
        for g in lg:
            if g[i] > 0 and sum(g) == g[i]:
                found = True
                break
        if not found:
            return -1
    return _colength_rec(lg, nvars)


def _colength_rec(list gens, Py_ssize_t nvars):
    cdef list seq
    cdef Py_ssize_t i, last = nvars - 1
    if nvars == 1:
        return min(g[0] for g in gens)
    if nvars == 2:
        seq = sorted(gens)
        total = 0  # Python int: products can exceed 64 bits
        for i in range(len(seq) - 1):
            total += (seq[i + 1][0] - seq[i][0]) * seq[i][1]
        return total
    cap = min(g[last] for g in gens if sum(g) == g[last])
    total = 0
    cdef list slice_gens
    for e in range(cap):
        slice_gens = minimalize([g[:last] for g in gens if g[last] <= e])
        total += _colength_rec(slice_gens, nvars - 1)
    return total
