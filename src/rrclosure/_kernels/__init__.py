"""Monomial kernels: the Groebner engine's divisor scan, and the staircase
kernels of a selected backend.

For the staircase kernels the compiled extension is used when available; set
``RRCLOSURE_BACKEND=pure`` to force the Python fallback or
``RRCLOSURE_BACKEND=cython`` to require the extension (ImportError if it was
not built).  The divisor scan works on packed-int monomials, where Python-int
arithmetic is all the work, so one implementation serves either backend.
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


def find_divisor_index(lms, m, guard):
    """Index of the first packed monomial in lms dividing the packed m, or -1.

    ``guard`` is the packing's guard mask (``orders.Packing``): ``a``
    divides ``m`` exactly when ``m - a`` sets no guard bit.
    """
    for i, a in enumerate(lms):
        if not (m - a) & guard:
            return i
    return -1
