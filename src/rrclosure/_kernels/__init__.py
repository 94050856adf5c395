"""Monomial kernels: the Groebner engine's memoised divisor scan, and the
staircase kernels of a selected backend.

For the staircase kernels the compiled extension is used when available; set
``RRCLOSURE_BACKEND=pure`` to force the Python fallback or
``RRCLOSURE_BACKEND=cython`` to require the extension (ImportError if it was
not built).  The divisor scan works on packed-int monomials, where Python-int
arithmetic is all the work, so one implementation serves either backend.

The scan is memoised per engine basis: a query answered before returns its
stored first divisor at once, and a stored miss resumes the scan at the
first element appended since.  This is exact because an engine basis only
grows at its end (``ideals._Basis.append``), so earlier elements never move
and every call returns the same index an unmemoised scan would.
"""

import os

_requested = os.environ.get("RRCLOSURE_BACKEND", "auto").lower()

if _requested in ("auto", "cython", "fast"):
    try:
        from . import fast as _impl
    except ImportError:
        if _requested != "auto":
            raise
        from . import pure as _impl
elif _requested in ("pure", "py", "python"):
    from . import pure as _impl
else:
    raise RuntimeError(f"unknown RRCLOSURE_BACKEND value {_requested!r}")

BACKEND = _impl.BACKEND_NAME

mono_mul = _impl.mono_mul
minimalize = _impl.minimalize
monomial_product = _impl.monomial_product
monomial_sum = _impl.monomial_sum
monomial_colon_single = _impl.monomial_colon_single
monomial_intersection = _impl.monomial_intersection
monomial_contains = _impl.monomial_contains
staircase_colength = _impl.staircase_colength


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
